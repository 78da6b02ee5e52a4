//! User-defined accuracy loss functions.
//!
//! A loss function quantifies how much a visual-analytics result computed
//! on a *sample* deviates from the result computed on the *raw* query
//! answer. Tabula is generic over the loss: the user declares one
//! ([`AccuracyLoss`]) and the middleware embeds it in cube initialization,
//! greedy sampling and representative-sample selection.
//!
//! ## The algebraic contract
//!
//! The paper requires the loss to be **algebraic**: the loss of a cube
//! cell against a *fixed* sample must be computable from a bounded-size,
//! mergeable per-cell state. That contract is split here into:
//!
//! * [`AccuracyLoss::State`] — a mergeable [`AggState`] folded from raw
//!   rows ([`AccuracyLoss::fold`]),
//! * [`AccuracyLoss::SampleCtx`] — a prepared view of the fixed sample
//!   (e.g. a nearest-neighbour index over its points),
//! * [`AccuracyLoss::finish`] — the loss from `(state, ctx)`.
//!
//! For the visualization losses (heat map / histogram) the per-row state
//! contribution is the row's minimum distance *to the fixed sample*, so
//! the state depends on the sample ([`AccuracyLoss::state_depends_on_sample`]
//! returns `true`); for mean/regression the state summarizes raw data only
//! and can be reused against any sample — the dry run and the SamGraph
//! join exploit this distinction.
//!
//! ## Built-ins (the paper's Functions 1–3 plus the histogram variant)
//!
//! * [`MeanLoss`] — relative error of the statistical mean,
//! * [`HeatmapLoss`] — average minimum distance between raw points and
//!   sample points (VAS / POIsam-style visualization-aware loss),
//! * [`RegressionLoss`] — angle difference between OLS regression lines,
//! * [`HistogramLoss`] — 1-D average minimum distance.

pub mod combined;
pub mod expr;
pub mod heatmap;
pub mod histogram;
pub mod index;
pub mod mean;
pub mod regression;

pub use combined::MaxLoss;
pub use expr::ExprLoss;
pub use heatmap::{HeatmapLoss, Metric};
pub use histogram::HistogramLoss;
pub use index::{GridIndex, Sorted1D};
pub use mean::MeanLoss;
pub use regression::RegressionLoss;

use tabula_storage::{AggState, RowId, Table};

/// Denominator guard for relative-error losses.
pub(crate) const REL_EPS: f64 = 1e-12;

/// Float slack absorbed when a loss value is compared against θ.
///
/// The same cell's loss is computed along two different float paths: the
/// dry run folds rows into mergeable states and merges them down the
/// lattice, while verification (tests, the differential oracle) re-sums
/// the raw rows directly. The two paths round differently, so an exact
/// `loss > θ` comparison could classify a borderline cell one way and
/// check it the other. Both sides therefore share this constant:
///
/// * the classifiers ([`exceeds_theta`], used by the dry run and the
///   naive PartSamCube path) treat any loss above `θ − LOSS_EPS` as
///   iceberg — borderline cells are *materialized*, never left to the
///   global sample;
/// * correctness checks accept `loss ≤ θ + LOSS_EPS`.
///
/// With both rules in place, a divergence below `LOSS_EPS` between the
/// algebraic and the direct evaluation can never produce a spurious
/// guarantee violation, and the tolerance cannot drift apart from the
/// classifier because there is only one constant.
pub const LOSS_EPS: f64 = 1e-9;

/// The classifier predicate shared by the dry run and the naive
/// PartSamCube path: whether a cell with this loss against the global
/// sample must be materialized. Conservative by [`LOSS_EPS`]: borderline
/// cells count as iceberg.
#[inline]
pub fn exceeds_theta(loss: f64, theta: f64) -> bool {
    loss > theta - LOSS_EPS
}

/// A user-defined accuracy loss function. See the module docs for the
/// contract; see `MeanLoss` for the simplest reference implementation.
pub trait AccuracyLoss: Send + Sync + 'static {
    /// Mergeable per-cell state folded from raw rows.
    type State: AggState + Default + std::fmt::Debug + 'static;
    /// Prepared view of a fixed sample (indexes, aggregates, ...).
    type SampleCtx: Send + Sync;

    /// Short name for diagnostics and harness output.
    fn name(&self) -> &'static str;

    /// Whether [`AccuracyLoss::fold`] reads the sample context. When
    /// `false`, a folded state cube can be re-evaluated against *different*
    /// samples with [`AccuracyLoss::finish`] alone — the SamGraph join
    /// uses this to price candidate representatives in O(1) per pair.
    fn state_depends_on_sample(&self) -> bool;

    /// Prepare the reusable context for a fixed sample (row ids of
    /// `table`).
    fn prepare(&self, table: &Table, sample: &[RowId]) -> Self::SampleCtx;

    /// Fold one raw row into `state`.
    fn fold(&self, ctx: &Self::SampleCtx, state: &mut Self::State, table: &Table, row: RowId);

    /// The loss of using `ctx`'s sample in place of the raw data
    /// summarized by `state`. Empty raw data must yield `0.0`; a sample
    /// unable to represent non-empty raw data (e.g. an empty sample) must
    /// yield `f64::INFINITY`.
    fn finish(&self, ctx: &Self::SampleCtx, state: &Self::State) -> f64;

    /// Exact loss of using `sample` in place of `raw`.
    fn loss(&self, table: &Table, raw: &[RowId], sample: &[RowId]) -> f64 {
        let ctx = self.prepare(table, sample);
        self.loss_with_ctx(table, raw, &ctx)
    }

    /// Exact loss against an already-prepared sample context.
    fn loss_with_ctx(&self, table: &Table, raw: &[RowId], ctx: &Self::SampleCtx) -> f64 {
        let mut state = Self::State::default();
        for &r in raw {
            self.fold(ctx, &mut state, table, r);
        }
        self.finish(ctx, &state)
    }

    /// Exact loss against `ctx`, abandoning the computation as soon as the
    /// result provably exceeds `bound`. Returns `Some(loss)` when
    /// `loss ≤ bound`, `None` otherwise. The default computes fully;
    /// per-row-decomposable losses override with an early exit — the
    /// SamGraph join's hot path.
    fn loss_within(
        &self,
        table: &Table,
        raw: &[RowId],
        ctx: &Self::SampleCtx,
        bound: f64,
    ) -> Option<f64> {
        let loss = self.loss_with_ctx(table, raw, ctx);
        (loss <= bound).then_some(loss)
    }

    /// A scalar key of a raw-data state for the SamGraph interval join,
    /// paired with [`key_range`](Self::key_range). `None` (the default)
    /// opts out: the join then prices every ordered pair.
    fn state_key(&self, state: &Self::State) -> Option<f64> {
        let _ = state;
        None
    }

    /// A closed key interval holding the [`state_key`](Self::state_key)
    /// of *every* state `s` with `finish(ctx, s) ≤ theta`, as computed in
    /// floating point. It may be loose (the join re-checks every candidate
    /// exactly) but must never exclude a true edge. `None` (the default)
    /// opts out for this sample.
    fn key_range(&self, ctx: &Self::SampleCtx, theta: f64) -> Option<(f64, f64)> {
        let _ = (ctx, theta);
        None
    }

    /// A low-dimensional signature of a row set, used ONLY to order
    /// candidate representatives in the SamGraph join — a pruning
    /// heuristic whose quality affects memory savings, never correctness.
    /// The default (a constant) disables the ordering.
    fn signature(&self, table: &Table, rows: &[RowId]) -> [f64; 2] {
        let _ = (table, rows);
        [0.0, 0.0]
    }

    /// The paper's Algorithm 1: greedily pick rows of `raw` (without
    /// replacement) until `loss(raw, picked) ≤ theta`. Termination is
    /// guaranteed because the loop can at worst pick every row, and
    /// `loss(raw, raw) = 0` for any well-formed loss.
    ///
    /// The default is the literal O(|raw|²·cost(loss)) greedy of the
    /// paper's pseudocode — correct for any loss, affordable only for
    /// small cells. Built-ins override it with incremental engines (see
    /// [`crate::sampling`]).
    fn sample_greedy(&self, table: &Table, raw: &[RowId], theta: f64) -> Vec<RowId> {
        crate::sampling::naive_greedy(self, table, raw, theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_data::example_dcm_table;

    /// Shared contract checks run against every built-in loss.
    fn check_contract<L: AccuracyLoss>(loss: &L, table: &Table) {
        let all: Vec<RowId> = table.all_rows();
        // Empty raw data ⇒ zero loss, regardless of the sample.
        assert_eq!(loss.loss(table, &[], &all), 0.0, "{}: empty raw", loss.name());
        // Non-empty raw vs empty sample ⇒ infinite loss.
        assert!(loss.loss(table, &all, &[]).is_infinite(), "{}: empty sample", loss.name());
        // Perfect sample ⇒ (near) zero loss.
        let perfect = loss.loss(table, &all, &all);
        assert!(perfect.abs() < 1e-9, "{}: loss(raw, raw) = {perfect}", loss.name());
        // loss_within agrees with loss.
        let sample = &all[..all.len() / 2];
        let ctx = loss.prepare(table, sample);
        let exact = loss.loss(table, &all, sample);
        if exact.is_finite() {
            let within = loss.loss_within(table, &all, &ctx, exact + 1e-9);
            assert!(within.is_some(), "{}: loss_within at bound", loss.name());
            assert!((within.unwrap() - exact).abs() < 1e-9, "{}", loss.name());
            assert!(
                loss.loss_within(table, &all, &ctx, exact / 2.0 - 1e-9).is_none() || exact == 0.0,
                "{}: loss_within below bound",
                loss.name()
            );
        }
    }

    #[test]
    fn all_builtins_satisfy_the_contract() {
        let t = example_dcm_table();
        let fare = t.schema().index_of("fare").unwrap();
        let tip = t.schema().index_of("tip").unwrap();
        let pickup = t.schema().index_of("pickup").unwrap();
        check_contract(&MeanLoss::new(fare), &t);
        check_contract(&HeatmapLoss::new(pickup, Metric::Euclidean), &t);
        check_contract(&HeatmapLoss::new(pickup, Metric::Manhattan), &t);
        check_contract(&HistogramLoss::new(fare), &t);
        check_contract(&RegressionLoss::new(fare, tip), &t);
    }

    #[test]
    fn greedy_guarantee_holds_for_all_builtins() {
        let t = example_dcm_table();
        let fare = t.schema().index_of("fare").unwrap();
        let tip = t.schema().index_of("tip").unwrap();
        let pickup = t.schema().index_of("pickup").unwrap();
        let all: Vec<RowId> = t.all_rows();

        fn check<L: AccuracyLoss>(loss: &L, t: &Table, raw: &[RowId], theta: f64) {
            let sample = loss.sample_greedy(t, raw, theta);
            assert!(!sample.is_empty());
            let achieved = loss.loss(t, raw, &sample);
            assert!(achieved <= theta + 1e-12, "{}: achieved {achieved} > θ {theta}", loss.name());
            // Sampling is without replacement.
            let mut seen = std::collections::HashSet::new();
            assert!(sample.iter().all(|r| seen.insert(*r)), "{}", loss.name());
        }

        check(&MeanLoss::new(fare), &t, &all, 0.05);
        check(&HeatmapLoss::new(pickup, Metric::Euclidean), &t, &all, 0.05);
        check(&HistogramLoss::new(fare), &t, &all, 2.0);
        check(&RegressionLoss::new(fare, tip), &t, &all, 2.0);
    }
}
