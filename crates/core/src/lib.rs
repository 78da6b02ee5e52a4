//! # tabula-core
//!
//! The Tabula middleware: a **materialized sampling cube** that sits
//! between a SQL data system and a (geospatial) visualization dashboard
//! and serves pre-materialized *samples* of potentially unforeseen query
//! answers, with a deterministic, user-defined accuracy-loss guarantee.
//! This crate is a from-scratch implementation of Yu & Sarwat,
//! *"Turbocharging Geospatial Visualization Dashboards via a Materialized
//! Sampling Cube Approach"*, ICDE 2020.
//!
//! ## The guarantee
//!
//! For a user-chosen accuracy-loss function `loss()` and threshold `θ`,
//! every sample the cube returns for a query `Q` satisfies
//! `loss(raw_answer(Q), sample) ≤ θ` — with 100 % confidence, not a
//! probabilistic bound. The cube achieves that by examining, at
//! initialization time, every cell of the OLAP cube over the cubed
//! attributes:
//!
//! * cells for which the **global sample** (a Serfling-sized random sample
//!   of the whole table, [`serfling`]) is already within `θ` are *not*
//!   materialized — queries hitting them are answered with the global
//!   sample;
//! * the remaining **iceberg cells** get a *local sample* drawn by the
//!   accuracy-loss-aware greedy sampler ([`sampling`], the paper's
//!   Algorithm 1);
//! * similar local samples are deduplicated by the representative-sample
//!   selection ([`samgraph`], [`selection`] — the paper's Algorithm 3).
//!
//! ## Pipeline
//!
//! [`builder::SamplingCubeBuilder`] orchestrates the three stages:
//!
//! 1. **Dry run** ([`dryrun`]) — one scan of the raw table builds an
//!    algebraic loss-state cube; rolling it up identifies every iceberg
//!    cell without materializing anything.
//! 2. **Real run** ([`realrun`], Algorithm 2) — one scan labels every
//!    row with its finest cell, one scatter pass per iceberg cuboid
//!    gathers its cells' rows (and folds their loss states), then local
//!    samples are drawn for iceberg cells (in parallel). The paper's
//!    Inequality-1 plan choice is an ablation here.
//! 3. **Sample selection** ([`samgraph`], [`selection`]) — a
//!    representation-relationship graph over local samples is built and a
//!    greedy dominating set of representative samples is persisted.
//!
//! The result is a [`cube::SamplingCube`] that answers dashboard queries
//! in microseconds by hash lookup.
//!
//! ## Loss functions
//!
//! The [`loss`] module defines the [`loss::AccuracyLoss`] contract and the
//! paper's built-ins: statistical-mean relative error (Function 1),
//! geospatial heat-map average-minimum-distance (Function 2), regression
//! angle difference (Function 3) and the 1-D histogram variant. Custom
//! losses implement the same trait (see `examples/custom_loss.rs`).

pub mod builder;
pub mod cube;
pub mod dryrun;
pub mod incremental;
pub mod loss;
pub mod realrun;
pub mod samgraph;
pub mod sampling;
pub mod selection;
pub mod serfling;
pub mod store;

pub use builder::{MaterializationMode, SamplingCubeBuilder};
pub use cube::{MemoryBreakdown, QueryAnswer, SampleProvenance, SamplingCube};
pub use incremental::{refresh, RefreshConfig, RefreshStats};
pub use loss::{AccuracyLoss, HeatmapLoss, HistogramLoss, MeanLoss, RegressionLoss};
pub use sampling::greedy_sample;
pub use serfling::{global_sample_size, SerflingConfig};
pub use store::SnapshotInfo;

/// Errors produced by the middleware.
#[derive(Debug, Clone)]
pub enum CoreError {
    /// Underlying storage error.
    Storage(tabula_storage::StorageError),
    /// Invalid configuration (message explains what).
    Config(String),
    /// A query referenced columns outside the cubed attributes.
    NotCubedAttribute(String),
    /// Snapshot store error (behind `Arc` because `std::io::Error` is not
    /// `Clone`; the typed [`tabula_store::StoreError`] is preserved).
    Store(std::sync::Arc<tabula_store::StoreError>),
}

impl From<tabula_storage::StorageError> for CoreError {
    fn from(e: tabula_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<tabula_store::StoreError> for CoreError {
    fn from(e: tabula_store::StoreError) -> Self {
        CoreError::Store(std::sync::Arc::new(e))
    }
}

// `StoreError` carries `std::io::Error`, which has no structural equality;
// snapshot errors compare by their rendered message instead.
impl PartialEq for CoreError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (CoreError::Storage(a), CoreError::Storage(b)) => a == b,
            (CoreError::Config(a), CoreError::Config(b)) => a == b,
            (CoreError::NotCubedAttribute(a), CoreError::NotCubedAttribute(b)) => a == b,
            (CoreError::Store(a), CoreError::Store(b)) => a.to_string() == b.to_string(),
            _ => false,
        }
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::NotCubedAttribute(name) => {
                write!(f, "column {name} is not one of the cubed attributes")
            }
            CoreError::Store(e) => write!(f, "snapshot store error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CoreError>;
