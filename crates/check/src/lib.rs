//! # tabula-check
//!
//! The differential-testing subsystem of the workspace: everything needed
//! to cross-examine the production pipeline (`tabula-core`, `tabula-sql`,
//! `tabula-storage`) against a naive reference implementation that is
//! simple enough to be trusted by inspection.
//!
//! Three pieces:
//!
//! * [`oracle`] — the reference implementation: brute-force loss
//!   evaluation straight from raw filtered rows (no indexes, no algebraic
//!   states), an exhaustive per-cell cube built by plain group-by over
//!   every cuboid, and a tree-walking evaluator for SQL `WHERE` clauses.
//! * [`generate`] — seeded, deterministic generation of random tables,
//!   cube-attribute subsets, θ values, query workloads and SQL statement
//!   ASTs. Same seed, same case — always.
//! * [`diff`] — the diff engine: replays each case through the real
//!   pipeline under every [`MaterializationMode`](tabula_core::MaterializationMode)
//!   and multiple thread counts, compares against the oracle, and on
//!   divergence auto-shrinks the case (drop rows → queries → attributes)
//!   into a minimal reproducer it can print as a ready-to-paste
//!   regression test.
//!
//! The crate is a library first — `tests/fuzz_differential.rs` and
//! `tests/sql_oracle.rs` at the workspace root drive it from the
//! integration suite — and the `fuzz_check` binary in `tabula-bench`
//! wraps it for CI smoke runs and long fuzzing sessions:
//!
//! ```text
//! cargo run --release -p tabula-bench --bin fuzz_check -- --seed 42 --cases 200
//! ```
//!
//! ## What counts as a divergence
//!
//! * a served sample whose naive loss against the cell's raw rows
//!   exceeds `θ + LOSS_EPS` (the θ-guarantee, checked exhaustively over
//!   every cell of every cuboid and over the query workload);
//! * a materialized local sample containing rows from outside its cell;
//! * an iceberg classification that contradicts the oracle's (outside a
//!   float borderline band);
//! * `FullSamCube` not materializing the whole lattice, or `Tabula` and
//!   `TabulaStar` materializing different cell sets;
//! * any byte-level difference between cubes built at different thread
//!   counts;
//! * an `EmptyDomain` answer for a query that matches raw rows;
//! * any production storage operator (filter, group-by, finest-cuboid
//!   aggregation, rollup, semi-join) whose output differs from its
//!   row-at-a-time reference in [`reference`], on the case's table frozen
//!   plain and fully encoded;
//! * with the snapshot lane on ([`Lanes::snapshot`], `fuzz_check
//!   --snapshot`): a thawed `tabula-store` snapshot whose fingerprint,
//!   workload answers, or re-frozen bytes differ from the original cube;
//! * with the encoding lane on ([`Lanes::encoding`], `fuzz_check
//!   --encoding`): a cube built over the `Off`- or `Force`-encoded table
//!   that differs from the `Auto` build.

pub mod diff;
pub mod generate;
pub mod ingest;
pub mod oracle;
pub mod reference;

pub use diff::{
    diff_case, diff_sql_case, diff_with_loss, shrink, CaseReport, Divergence, Lanes, NaiveEval,
    Shrunk, MODES, THREAD_COUNTS,
};
pub use generate::{gen_case, gen_statement, gen_statements, gen_where_terms, CaseSpec};
pub use ingest::{diff_ingest_case, IngestReport, INGEST_BARRIERS};
pub use oracle::{naive_cube, naive_filter, naive_term_matches, LossSpec, NaiveCube};
