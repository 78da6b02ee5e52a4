//! Stage 2 of sampling-cube initialization: the **real run** (paper
//! §III-B2, Algorithm 2) — materialize a local sample for every iceberg
//! cell found by the dry run.
//!
//! Non-iceberg cuboids are skipped outright. The paper fetches each
//! iceberg cuboid's raw rows with one of two plans picked by its cost
//! model (Inequality 1): prune-then-group or a full group-by — each a
//! pass over the table per cuboid. This engine instead labels every row
//! with its finest cell once ([`finest_cell_ids`]); each iceberg cuboid
//! then maps finest cells to its iceberg cells and **scatters** the row
//! ids into exactly-sized vectors in one ascending pass over the labels
//! ([`FinestCells::gather`]), cuboids in parallel. Inequality 1 lives on
//! as an ablation (`ablation_cost_model`); DESIGN.md records the
//! deviation.
//!
//! For sample-independent losses the same pass folds each cell's
//! [`AccuracyLoss::State`] — the state the SamGraph join prices pairs
//! from — in ascending row order, so the join never re-reads raw rows.
//!
//! Local samples are then drawn per cell with the accuracy-loss-aware
//! greedy sampler, scheduled on the shared `tabula-par` work-stealing
//! pool (the per-cell work is embarrassingly parallel, and each cell's
//! greedy draw is deterministic given its rows — so samples are
//! thread-count-independent).

use crate::dryrun::DryRun;
use crate::loss::AccuracyLoss;
use crate::Result;
use tabula_obs::span;
use tabula_par::Pool;
use tabula_storage::cube::{finest_cell_ids, CellKey, CuboidMask, FinestCells};
use tabula_storage::{RowId, Table};

/// One materialized iceberg cell: the paper's cube-table row, carrying the
/// cell's raw data and its local sample.
#[derive(Debug, Clone)]
pub struct CubeEntry<S> {
    /// The cell.
    pub cell: CellKey,
    /// Row ids of the cell's raw data, ascending.
    pub rows: Vec<RowId>,
    /// Row ids of the cell's local sample (⊆ `rows`).
    pub sample: Vec<RowId>,
    /// The loss state folded from `rows` in ascending order against an
    /// empty sample context — `Some` exactly when the loss state does
    /// not depend on the sample (the SamGraph join prices pairs from it).
    pub state: Option<S>,
}

/// Statistics of a real run.
#[derive(Debug, Clone, Default)]
pub struct RealRunStats {
    /// Cuboids that contained iceberg cells and were processed.
    pub cuboids_processed: usize,
    /// Cuboids skipped because the dry run found no icebergs in them.
    pub cuboids_skipped: usize,
    /// Always 0: every cuboid takes the one scatter fetch. Kept because
    /// benchmark records and snapshot `stats` blocks carry the field.
    pub prune_plans: usize,
    /// Always 0, like [`prune_plans`](Self::prune_plans).
    pub group_all_plans: usize,
}

/// Output of the real run.
#[derive(Debug)]
pub struct RealRun<S> {
    /// Materialized iceberg cells, in deterministic order.
    pub entries: Vec<CubeEntry<S>>,
    /// Fetch statistics.
    pub stats: RealRunStats,
}

/// `loss`'s state of `rows`, folded in order from `State::default()`
/// against an empty sample context — `None` when the state depends on
/// the sample. The fold the real run performs during its fetch.
pub fn fold_state<L: AccuracyLoss>(loss: &L, table: &Table, rows: &[RowId]) -> Option<L::State> {
    if loss.state_depends_on_sample() {
        return None;
    }
    let ctx = loss.prepare(table, &[]);
    let mut state = L::State::default();
    for &r in rows {
        loss.fold(&ctx, &mut state, table, r);
    }
    Some(state)
}

/// Run the real-run stage: materialize local samples for every iceberg
/// cell of `dry`, drawing them with `loss`'s Algorithm-1 sampler.
///
/// `parallelism` caps the worker threads used for the per-cuboid fetch
/// and per-cell sampling (0 = number of available cores).
pub fn real_run<L: AccuracyLoss>(
    table: &Table,
    cols: &[usize],
    loss: &L,
    theta: f64,
    dry: &DryRun<L::State>,
    parallelism: usize,
) -> Result<RealRun<L::State>> {
    let mut stats = RealRunStats::default();
    // Deterministic cuboid order: finest first, then by mask.
    let mut masks: Vec<CuboidMask> = dry.iceberg.keys().copied().collect();
    masks.sort_by_key(|m| (std::cmp::Reverse(m.arity()), *m));
    stats.cuboids_skipped = dry.states.cuboids.len() - masks.len();
    stats.cuboids_processed = masks.len();
    let pool = if parallelism == 0 { Pool::global() } else { Pool::with_threads(parallelism) };

    // Phase 1: label rows by finest cell once, then scatter every iceberg
    // cuboid's rows (and fold its states) in one pass each.
    if masks.is_empty() {
        return Ok(RealRun { entries: Vec::new(), stats });
    }
    let fetch_span =
        span!("real_run.fetch", "cuboids={} icebergs={}", masks.len(), dry.iceberg_count);
    let fine = finest_cell_ids(table, cols)?;
    let per_cuboid = pool.run(masks.len(), |i| {
        fetch_cuboid(table, loss, &fine, cols.len(), masks[i], &dry.iceberg[&masks[i]])
    });
    drop(fetch_span);
    let work: Vec<(CellKey, Vec<RowId>, Option<L::State>)> =
        per_cuboid.into_iter().flatten().collect();

    // Phase 2 (parallel): draw a local sample per iceberg cell on the
    // shared work-stealing pool.
    let sample_span =
        span!("real_run.sample_cells", "cells={} threads={}", work.len(), pool.threads());
    let entries = sample_cells(table, loss, theta, work, &pool);
    drop(sample_span);
    Ok(RealRun { entries, stats })
}

/// One iceberg cuboid's cells, ascending by compact key, each with its
/// rows (ascending) and — for sample-independent losses — its state.
/// Cells without rows in `table` are dropped.
fn fetch_cuboid<L: AccuracyLoss>(
    table: &Table,
    loss: &L,
    fine: &FinestCells,
    n: usize,
    mask: CuboidMask,
    iceberg_keys: &[Vec<u32>],
) -> Vec<(CellKey, Vec<RowId>, Option<L::State>)> {
    let mut keys = iceberg_keys.to_vec();
    keys.sort_unstable();
    keys.dedup();
    let fold_ctx = (!loss.state_depends_on_sample()).then(|| loss.prepare(table, &[]));
    let mut states: Vec<Option<L::State>> =
        keys.iter().map(|_| fold_ctx.as_ref().map(|_| L::State::default())).collect();
    let rows = fine.gather(&mask.attrs(), &keys, |cell, row| {
        if let (Some(ctx), Some(state)) = (&fold_ctx, &mut states[cell]) {
            loss.fold(ctx, state, table, row);
        }
    });
    keys.into_iter()
        .zip(rows)
        .zip(states)
        .filter(|((_, rows), _)| !rows.is_empty())
        .map(|((compact, rows), state)| (CellKey::from_compact(mask, n, &compact), rows, state))
        .collect()
}

/// Draw local samples for `work` on `pool`, preserving input order in the
/// output. Each cell's greedy draw sees exactly its own rows, so the
/// result is independent of scheduling.
fn sample_cells<L: AccuracyLoss>(
    table: &Table,
    loss: &L,
    theta: f64,
    work: Vec<(CellKey, Vec<RowId>, Option<L::State>)>,
    pool: &Pool,
) -> Vec<CubeEntry<L::State>> {
    let samples: Vec<Vec<RowId>> =
        pool.run(work.len(), |i| loss.sample_greedy(table, &work[i].1, theta));
    work.into_iter()
        .zip(samples)
        .map(|((cell, rows, state), sample)| CubeEntry { cell, rows, sample, state })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dryrun::dry_run;
    use crate::loss::{HeatmapLoss, MeanLoss, Metric};
    use crate::serfling::draw_global_sample;
    use tabula_data::example_dcm_table;
    use tabula_storage::agg::SumCount;

    fn build(theta: f64) -> (tabula_storage::Table, Vec<CubeEntry<SumCount>>, RealRunStats) {
        let t = example_dcm_table();
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        let global = draw_global_sample(&t, 8, 1);
        let ctx = loss.prepare(&t, &global);
        let dry = dry_run(&t, &[0, 1, 2], &loss, &ctx, theta).unwrap();
        let rr = real_run(&t, &[0, 1, 2], &loss, theta, &dry, 2).unwrap();
        assert_eq!((rr.stats.prune_plans, rr.stats.group_all_plans), (0, 0));
        (t, rr.entries, rr.stats)
    }

    #[test]
    fn every_iceberg_cell_gets_a_sample_meeting_theta() {
        let theta = 0.10;
        let (t, entries, stats) = build(theta);
        assert!(!entries.is_empty());
        assert_eq!(stats.cuboids_processed + stats.cuboids_skipped, 8);
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        for e in &entries {
            assert!(!e.rows.is_empty());
            assert!(!e.sample.is_empty());
            // Sample rows are a subset of the cell's rows.
            assert!(e.sample.iter().all(|r| e.rows.contains(r)));
            let achieved = loss.loss(&t, &e.rows, &e.sample);
            assert!(achieved <= theta + 1e-12, "cell {}: {achieved}", e.cell);
        }
    }

    #[test]
    fn states_are_the_fold_of_the_rows_bit_for_bit() {
        let (t, entries, _) = build(0.10);
        let loss = MeanLoss::new(t.schema().index_of("fare").unwrap());
        for e in &entries {
            let state = e.state.expect("mean loss states are folded during the fetch");
            let fresh = fold_state(&loss, &t, &e.rows).unwrap();
            assert_eq!(state.sum.to_bits(), fresh.sum.to_bits(), "cell {}", e.cell);
            assert_eq!(state.count, fresh.count, "cell {}", e.cell);
        }
        // Sample-dependent losses carry no state.
        let pickup = t.schema().index_of("pickup").unwrap();
        let heat = HeatmapLoss::new(pickup, Metric::Euclidean);
        let ctx = heat.prepare(&t, &draw_global_sample(&t, 5, 3));
        let dry = dry_run(&t, &[0, 1, 2], &heat, &ctx, 0.02).unwrap();
        let rr = real_run(&t, &[0, 1, 2], &heat, 0.02, &dry, 2).unwrap();
        assert!(!rr.entries.is_empty());
        assert!(rr.entries.iter().all(|e| e.state.is_none()));
    }

    #[test]
    fn entry_rows_match_direct_filtering() {
        let (t, entries, _) = build(0.10);
        for e in &entries {
            // Reconstruct the cell's rows by scanning the whole table.
            let cats: Vec<_> = (0..3).map(|c| t.cat(c).unwrap()).collect();
            let expect: Vec<RowId> = (0..t.len() as RowId)
                .filter(|&r| {
                    e.cell
                        .codes
                        .iter()
                        .zip(&cats)
                        .all(|(code, cat)| code.is_none_or(|c| cat.codes()[r as usize] == c))
                })
                .collect();
            let mut got = e.rows.clone();
            got.sort_unstable();
            assert_eq!(got, expect, "cell {}", e.cell);
        }
    }

    #[test]
    fn parallel_and_serial_sampling_agree() {
        let t = example_dcm_table();
        let pickup = t.schema().index_of("pickup").unwrap();
        let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
        let global = draw_global_sample(&t, 5, 3);
        let ctx = loss.prepare(&t, &global);
        let dry = dry_run(&t, &[0, 1, 2], &loss, &ctx, 0.02).unwrap();
        let serial = real_run(&t, &[0, 1, 2], &loss, 0.02, &dry, 1).unwrap();
        let parallel = real_run(&t, &[0, 1, 2], &loss, 0.02, &dry, 4).unwrap();
        assert_eq!(serial.entries.len(), parallel.entries.len());
        for (a, b) in serial.entries.iter().zip(&parallel.entries) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.sample, b.sample);
        }
    }

    #[test]
    fn no_icebergs_means_no_entries() {
        let (_, entries, stats) = build(f64::INFINITY);
        assert!(entries.is_empty());
        assert_eq!(stats.cuboids_processed, 0);
        assert_eq!(stats.cuboids_skipped, 8);
    }

    #[test]
    fn sample_cells_runs_on_the_shared_pool_in_order() {
        let t = example_dcm_table();
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        let work: Vec<(CellKey, Vec<RowId>, Option<SumCount>)> =
            (0..6).map(|i| (CellKey::new(vec![Some(i)]), t.all_rows(), None)).collect();
        let serial = sample_cells(&t, &loss, 0.1, work.clone(), &Pool::with_threads(1));
        let parallel = sample_cells(&t, &loss, 0.1, work, &Pool::with_threads(4));
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.sample, b.sample);
        }
    }
}
