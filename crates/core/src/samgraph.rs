//! The **SamGraph** (paper Definition 6): a directed graph over the local
//! samples of iceberg cells, with an edge `u → v` whenever the sample of
//! cell `u` can *represent* cell `v`, i.e. `loss(cell_v_raw, sam_u) ≤ θ`
//! (Definition 5).
//!
//! The graph is the input to the representative-sample selection
//! ([`crate::selection`]). Building it is a self-join of the cube table on
//! the representation relationship; the paper notes the join "does not
//! have to exhaust all possible representation relationships" — any subset
//! of the true edges keeps the bounded-error guarantee (uncovered samples
//! simply stay materialized). This implementation exploits that freedom:
//!
//! * for **sample-independent** losses (mean, regression, expression
//!   losses) every pair is priced in O(1) from the cell states the real
//!   run folded during its fetch, so the join is exhaustive. A loss that
//!   exposes [`AccuracyLoss::state_key`] / [`AccuracyLoss::key_range`]
//!   (the mean) gets an **interval join**: cells sorted by key once, each
//!   sample binary-searches its key range and prices only the candidates
//!   inside it — the range provably holds every true edge, so the graph
//!   is the exhaustive one, found in O(C log C + candidates);
//! * for **sample-dependent** losses (heat map, histogram) each pair costs
//!   a pass over the target cell's raw rows, so candidates are ranked by a
//!   cheap per-cell signature (centroid / mean) and only the
//!   `max_candidates` nearest are checked exactly — with the early-exit
//!   [`AccuracyLoss::loss_within`] evaluation.

use crate::loss::AccuracyLoss;
use crate::realrun::CubeEntry;
use tabula_obs::span;
use tabula_par::Pool;
use tabula_storage::Table;

/// Tuning knobs of the SamGraph join.
#[derive(Debug, Clone, Copy)]
pub struct SamGraphConfig {
    /// For sample-dependent losses: how many signature-nearest candidate
    /// representatives to check exactly, per cell. Higher values find more
    /// edges (more memory savings) at higher build cost.
    pub max_candidates: usize,
}

impl Default for SamGraphConfig {
    fn default() -> Self {
        SamGraphConfig { max_candidates: 32 }
    }
}

/// The sample-representation graph.
#[derive(Debug, Clone)]
pub struct SamGraph {
    /// `edges[u]` lists every cell `v` that `u`'s sample represents
    /// (always including `u` itself).
    pub edges: Vec<Vec<u32>>,
}

impl SamGraph {
    /// Number of vertices (= iceberg cells).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Total number of edges (including self-edges).
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(|e| e.len()).sum()
    }
}

/// Build the SamGraph over `entries` under `loss` / `theta`.
///
/// For sample-independent losses every entry must carry its folded
/// `state` (the real run's output always does); the raw rows are read
/// only on the sample-dependent path.
pub fn build_samgraph<L: AccuracyLoss>(
    table: &Table,
    loss: &L,
    theta: f64,
    entries: &[CubeEntry<L::State>],
    cfg: &SamGraphConfig,
) -> SamGraph {
    let m = entries.len();
    let pool = Pool::global();
    let _span = span!("selection.samgraph_join", "samples={m} threads={}", pool.threads());
    if m <= 1 {
        return SamGraph { edges: (0..m).map(|u| vec![u as u32]).collect() };
    }

    if !loss.state_depends_on_sample() {
        // O(1)-per-pair path over the real run's folded states. Each
        // vertex's out-edge list is an independent task; lists come back
        // in vertex order, so the graph is thread-count-invariant.
        let states: Vec<&L::State> = entries
            .iter()
            .map(|e| e.state.as_ref().expect("sample-independent entries carry their state"))
            .collect();
        let ctxs: Vec<L::SampleCtx> = pool.par_map(entries, |e| loss.prepare(table, &e.sample));
        let keys: Option<Vec<f64>> =
            states.iter().map(|s| loss.state_key(s).filter(|k| k.is_finite())).collect();
        let ranges: Option<Vec<(f64, f64)>> =
            ctxs.iter().map(|c| loss.key_range(c, theta)).collect();
        let edges = match (keys, ranges) {
            (Some(keys), Some(ranges)) => {
                interval_join(loss, theta, &states, &ctxs, &keys, &ranges, &pool)
            }
            _ => pool.run(m, |u| {
                let mut out = vec![u as u32];
                for (v, state_v) in states.iter().enumerate() {
                    if u != v && loss.finish(&ctxs[u], state_v) <= theta {
                        out.push(v as u32);
                    }
                }
                out
            }),
        };
        return SamGraph { edges };
    }

    // Sample-dependent path: rank candidates by signature proximity, check
    // the nearest `max_candidates` exactly (early-exit at θ). The per-target
    // candidate scan parallelizes over v; representative lists are then
    // folded back in ascending v, reproducing the serial edge order.
    let sigs: Vec<[f64; 2]> = pool.par_map(entries, |e| loss.signature(table, &e.rows));
    let ctxs: Vec<L::SampleCtx> = pool.par_map(entries, |e| loss.prepare(table, &e.sample));
    let cap = cfg.max_candidates.min(m - 1);
    let reps_of: Vec<Vec<u32>> = pool.run(m, |v| {
        let mut cands: Vec<(f64, usize)> = (0..m)
            .filter(|&u| u != v)
            .map(|u| {
                let dx = sigs[u][0] - sigs[v][0];
                let dy = sigs[u][1] - sigs[v][1];
                (dx * dx + dy * dy, u)
            })
            .collect();
        if cands.len() > cap {
            cands.select_nth_unstable_by(cap - 1, |a, b| a.0.total_cmp(&b.0));
            cands.truncate(cap);
        }
        let mut reps = Vec::new();
        for (_, u) in cands {
            if loss.loss_within(table, &entries[v].rows, &ctxs[u], theta).is_some() {
                reps.push(u as u32);
            }
        }
        reps
    });
    let mut edges: Vec<Vec<u32>> = (0..m).map(|u| vec![u as u32]).collect();
    for (v, reps) in reps_of.iter().enumerate() {
        for &u in reps {
            edges[u as usize].push(v as u32);
        }
    }
    SamGraph { edges }
}

/// The edges of every vertex `u` whose range `ranges[u]` holds the keys
/// of all its true targets: binary-search the key-sorted vertices, price
/// each candidate exactly, and emit `[u, then ascending v]` through a
/// bitset — the same lists, in the same order, as pricing every pair.
fn interval_join<L: AccuracyLoss>(
    loss: &L,
    theta: f64,
    states: &[&L::State],
    ctxs: &[L::SampleCtx],
    keys: &[f64],
    ranges: &[(f64, f64)],
    pool: &Pool,
) -> Vec<Vec<u32>> {
    let m = states.len();
    let mut by_key: Vec<u32> = (0..m as u32).collect();
    by_key.sort_unstable_by(|&a, &b| keys[a as usize].total_cmp(&keys[b as usize]));
    let sorted: Vec<f64> = by_key.iter().map(|&v| keys[v as usize]).collect();
    pool.run(m, |u| {
        let (lo, hi) = ranges[u];
        let start = sorted.partition_point(|&k| k < lo);
        let end = start + sorted[start..].partition_point(|&k| k <= hi);
        let mut hit = vec![0u64; m.div_ceil(64)];
        for &v in &by_key[start..end] {
            let v = v as usize;
            if v != u && loss.finish(&ctxs[u], states[v]) <= theta {
                hit[v / 64] |= 1 << (v % 64);
            }
        }
        let mut out = vec![u as u32];
        for (w, &word) in hit.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push((w * 64 + bits.trailing_zeros() as usize) as u32);
                bits &= bits - 1;
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dryrun::dry_run;
    use crate::loss::{HeatmapLoss, MeanLoss, Metric};
    use crate::realrun::real_run;
    use crate::serfling::draw_global_sample;
    use tabula_data::example_dcm_table;
    use tabula_storage::agg::SumCount;

    fn entries_for_mean(theta: f64) -> (tabula_storage::Table, Vec<CubeEntry<SumCount>>) {
        let t = example_dcm_table();
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        let global = draw_global_sample(&t, 8, 1);
        let ctx = loss.prepare(&t, &global);
        let dry = dry_run(&t, &[0, 1, 2], &loss, &ctx, theta).unwrap();
        let rr = real_run(&t, &[0, 1, 2], &loss, theta, &dry, 1).unwrap();
        (t, rr.entries)
    }

    #[test]
    fn every_edge_is_a_true_representation() {
        let theta = 0.10;
        let (t, entries) = entries_for_mean(theta);
        assert!(entries.len() > 1, "need several iceberg cells for this test");
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        let g = build_samgraph(&t, &loss, theta, &entries, &SamGraphConfig::default());
        assert_eq!(g.len(), entries.len());
        for (u, outs) in g.edges.iter().enumerate() {
            for &v in outs {
                let l = loss.loss(&t, &entries[v as usize].rows, &entries[u].sample);
                assert!(l <= theta + 1e-9, "edge {u}→{v} is not a valid representation (loss {l})");
            }
        }
    }

    #[test]
    fn state_path_is_exhaustive() {
        let theta = 0.10;
        let (t, entries) = entries_for_mean(theta);
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        let g = build_samgraph(&t, &loss, theta, &entries, &SamGraphConfig::default());
        // Cross-check: every valid pair must be present.
        for u in 0..entries.len() {
            for v in 0..entries.len() {
                let valid = loss.loss(&t, &entries[v].rows, &entries[u].sample) <= theta;
                let present = g.edges[u].contains(&(v as u32));
                if u == v {
                    assert!(present, "self-edge {u} missing");
                } else {
                    assert_eq!(present, valid, "pair {u}→{v}");
                }
            }
        }
    }

    #[test]
    fn sample_dependent_path_edges_are_sound() {
        let t = example_dcm_table();
        let pickup = t.schema().index_of("pickup").unwrap();
        let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
        let theta = 0.05;
        let global = draw_global_sample(&t, 4, 2);
        let ctx = loss.prepare(&t, &global);
        let dry = dry_run(&t, &[0, 1, 2], &loss, &ctx, theta).unwrap();
        let rr = real_run(&t, &[0, 1, 2], &loss, theta, &dry, 1).unwrap();
        assert!(!rr.entries.is_empty());
        let g = build_samgraph(&t, &loss, theta, &rr.entries, &SamGraphConfig::default());
        for (u, outs) in g.edges.iter().enumerate() {
            for &v in outs {
                let l = loss.loss(&t, &rr.entries[v as usize].rows, &rr.entries[u].sample);
                assert!(l <= theta + 1e-9, "edge {u}→{v}: loss {l}");
            }
        }
        // Self-edges always exist.
        for (u, outs) in g.edges.iter().enumerate() {
            assert!(outs.contains(&(u as u32)));
        }
    }

    #[test]
    fn candidate_cap_limits_but_never_invalidates() {
        let theta = 0.10;
        let (t, entries) = entries_for_mean(theta);
        let pickup = t.schema().index_of("pickup").unwrap();
        let loss = HeatmapLoss::new(pickup, Metric::Euclidean);
        let capped =
            build_samgraph(&t, &loss, 0.5, &entries, &SamGraphConfig { max_candidates: 1 });
        let full = build_samgraph(
            &t,
            &loss,
            0.5,
            &entries,
            &SamGraphConfig { max_candidates: usize::MAX },
        );
        assert!(capped.edge_count() <= full.edge_count());
        // Capped edges are a subset of full edges.
        for (u, outs) in capped.edges.iter().enumerate() {
            for v in outs {
                assert!(full.edges[u].contains(v));
            }
        }
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let t = example_dcm_table();
        let fare = t.schema().index_of("fare").unwrap();
        let loss = MeanLoss::new(fare);
        let g = build_samgraph(&t, &loss, 0.1, &[], &SamGraphConfig::default());
        assert!(g.is_empty());
        let (t2, entries) = entries_for_mean(0.10);
        let one = &entries[..1];
        let g = build_samgraph(&t2, &loss, 0.1, one, &SamGraphConfig::default());
        assert_eq!(g.len(), 1);
        assert_eq!(g.edges[0], vec![0]);
    }
}
