//! Row-at-a-time reference implementations of the `tabula-storage`
//! operators and of two build stages, and the lanes that check the
//! production code against them.
//!
//! The references are the slice-keyed paths the bit-packed storage
//! kernels replaced. Each keeps the production operator's morsel
//! partitioning and ordered morsel merge, so per-cell fold and merge
//! sequences — and therefore float bits — match the production kernels
//! exactly; only the physical key handling differs (row-major `u32`
//! tuples instead of bit-packed words, no chunking, no run or frame
//! pushdown). Keys of any width work here. The filter reference is
//! [`Predicate::filter_rows`] over every row id.
//!
//! The build-stage references are the paper's own plans: the real-run
//! fetch of Algorithm 2, where Inequality 1 picks per cuboid between
//! prune-then-group and a full group-by ([`fetch_reference`]), and the
//! exhaustive SamGraph join that prices every ordered pair from states
//! folded straight from the raw rows ([`samgraph_reference`]). The
//! real-run lane ([`diff_realrun`]) holds the scatter fetch, its folded
//! states and the interval join to them.

use crate::diff::{Divergence, THREAD_COUNTS};
use crate::generate::{gen_where_terms, CaseSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tabula_core::dryrun::{dry_run, DryRun};
use tabula_core::loss::AccuracyLoss;
use tabula_core::realrun::{real_run, CubeEntry};
use tabula_core::samgraph::{build_samgraph, SamGraphConfig};
use tabula_core::serfling::draw_global_sample;
use tabula_par::{Pool, DEFAULT_MORSEL_ROWS};
use tabula_storage::agg::SumCount;
use tabula_storage::cube::{
    finest_cell_ids, finest_cuboid, rollup_from_finest, CellKey, CubeResult, CuboidMask,
};
use tabula_storage::group::group_rows;
use tabula_storage::join::semi_join;
use tabula_storage::table::Cat;
use tabula_storage::{
    group_by, AggState, CmpOp, EncodingMode, FxHashMap, FxHashSet, GroupedRows, Predicate, Result,
    RowId, StorageError, Table, Value,
};

/// Row-major `u32` code tuples of one morsel, `width` codes per row,
/// filled column-major (each code slice walked once).
struct RowKeys {
    width: usize,
    flat: Vec<u32>,
}

impl RowKeys {
    fn gather(code_slices: &[&[u32]], rows: &[RowId]) -> Self {
        let width = code_slices.len();
        let mut flat = vec![0; rows.len() * width];
        for (c, codes) in code_slices.iter().enumerate() {
            let mut at = c;
            for &row in rows {
                flat[at] = codes[row as usize];
                at += width;
            }
        }
        RowKeys { width, flat }
    }

    fn gather_range(code_slices: &[&[u32]], range: std::ops::Range<usize>) -> Self {
        let width = code_slices.len();
        let mut flat = vec![0; range.len() * width];
        for (c, codes) in code_slices.iter().enumerate() {
            let mut at = c;
            for &code in &codes[range.clone()] {
                flat[at] = code;
                at += width;
            }
        }
        RowKeys { width, flat }
    }

    #[inline]
    fn key(&self, i: usize) -> &[u32] {
        &self.flat[i * self.width..(i + 1) * self.width]
    }
}

fn code_slices<'t>(cats: &[Cat<'t>]) -> Vec<&'t [u32]> {
    cats.iter().map(|c| c.codes()).collect()
}

fn cats<'t>(table: &'t Table, cols: &[usize]) -> Result<Vec<Cat<'t>>> {
    cols.iter().map(|&c| table.cat(c)).collect()
}

/// Reference for [`Predicate::filter`]: every row through the
/// row-at-a-time [`Predicate::filter_rows`].
pub fn filter_reference(pred: &Predicate, table: &Table) -> Result<Vec<RowId>> {
    pred.filter_rows(table, &table.all_rows())
}

/// Reference for [`group_by`] (`rows = None`) and [`group_rows`]
/// (`rows = Some(subset)`): per-morsel slice-keyed hash grouping, partials
/// merged in morsel order — identical to a serial pass.
pub fn group_reference(
    table: &Table,
    cols: &[usize],
    rows: Option<&[RowId]>,
) -> Result<GroupedRows> {
    let cats = cats(table, cols)?;
    let code_slices = code_slices(&cats);
    let len = rows.map_or(table.len(), <[RowId]>::len);
    let partials = Pool::global().par_chunks(len, DEFAULT_MORSEL_ROWS, |range| {
        let keys = match rows {
            None => RowKeys::gather_range(&code_slices, range.clone()),
            Some(rows) => RowKeys::gather(&code_slices, &rows[range.clone()]),
        };
        let mut groups: FxHashMap<Vec<u32>, Vec<RowId>> = FxHashMap::default();
        for (i, at) in range.enumerate() {
            let key = keys.key(i);
            let row = rows.map_or(at as RowId, |rows| rows[at]);
            match groups.get_mut(key) {
                Some(v) => v.push(row),
                None => {
                    groups.insert(key.to_vec(), vec![row]);
                }
            }
        }
        groups
    });
    let mut iter = partials.into_iter();
    let mut groups = iter.next().unwrap_or_default();
    for partial in iter {
        for (key, mut members) in partial {
            match groups.get_mut(&key) {
                Some(v) => v.append(&mut members),
                None => {
                    groups.insert(key, members);
                }
            }
        }
    }
    Ok(GroupedRows { groups })
}

/// Reference for [`finest_cuboid`]: per-morsel slice-keyed hash
/// aggregation, rows folded in ascending order, partial states merged in
/// morsel order.
pub fn finest_reference<S, M, F>(
    table: &Table,
    cols: &[usize],
    make: M,
    fold: F,
) -> Result<FxHashMap<Vec<u32>, S>>
where
    S: AggState,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, RowId) + Sync,
{
    let cats = cats(table, cols)?;
    let code_slices = code_slices(&cats);
    let partials = Pool::global().par_chunks(table.len(), DEFAULT_MORSEL_ROWS, |range| {
        let mut groups: FxHashMap<Vec<u32>, S> = FxHashMap::default();
        let keys = RowKeys::gather_range(&code_slices, range.clone());
        for (i, row) in range.enumerate() {
            let key = keys.key(i);
            match groups.get_mut(key) {
                Some(s) => fold(s, row as RowId),
                None => {
                    let mut s = make();
                    fold(&mut s, row as RowId);
                    groups.insert(key.to_vec(), s);
                }
            }
        }
        groups
    });
    let mut iter = partials.into_iter();
    let Some(mut out) = iter.next() else {
        return Ok(FxHashMap::default());
    };
    for partial in iter {
        for (key, state) in partial {
            match out.get_mut(&key) {
                Some(s) => s.merge(&state),
                None => {
                    out.insert(key, state);
                }
            }
        }
    }
    Ok(out)
}

/// Whether [`finest_cell_ids`] over `cols` equals its reference: one
/// serial pass numbering each row's slice key in first-seen order, with
/// every id's key and row count.
pub fn finest_ids_match(table: &Table, cols: &[usize]) -> Result<bool> {
    let fine = finest_cell_ids(table, cols)?;
    let cats = cats(table, cols)?;
    let keys = RowKeys::gather_range(&code_slices(&cats), 0..table.len());
    let mut index: FxHashMap<&[u32], u32> = FxHashMap::default();
    let (mut ids, mut counts) = (Vec::with_capacity(table.len()), Vec::new());
    for row in 0..table.len() {
        let key = keys.key(row);
        let next = counts.len() as u32;
        let id = *index.entry(key).or_insert(next);
        if id == next {
            counts.push(0);
        }
        counts[id as usize] += 1;
        ids.push(id);
    }
    Ok(fine.ids() == ids
        && fine.counts() == counts
        && index.iter().all(|(key, &id)| fine.key(id) == *key))
}

/// Reference for [`rollup_from_finest`] on compact `Vec<u32>` keys: the
/// same level-synchronous derivation, each child from one parent scanned
/// in ascending lexicographic key order, so every state merges in the
/// same sequence as the packed rollup.
pub fn rollup_reference<S, M>(n: usize, finest: FxHashMap<Vec<u32>, S>, make: &M) -> CubeResult<S>
where
    S: AggState,
    M: Fn() -> S + Sync,
{
    let mut entries: Vec<(Vec<u32>, S)> = finest.into_iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut sorted: FxHashMap<CuboidMask, Vec<(Vec<u32>, S)>> = FxHashMap::default();
    sorted.insert(CuboidMask::finest(n), entries);
    let pool = Pool::global();
    for arity in (0..n as u32).rev() {
        let masks: Vec<CuboidMask> =
            (0..(1u64 << n) as u32).map(CuboidMask).filter(|m| m.arity() == arity).collect();
        let derived: Vec<Vec<(Vec<u32>, S)>> = pool.par_map(&masks, |&mask| {
            let parent = mask.a_parent(n).expect("every non-finest cuboid has a parent");
            // Position of the rolled-away attribute in the parent's key.
            let removed_attr = parent.0 & !mask.0;
            let removed_idx = (parent.0 & (removed_attr - 1)).count_ones() as usize;
            let mut slots: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
            let mut out: Vec<(Vec<u32>, S)> = Vec::new();
            for (pkey, state) in &sorted[&parent] {
                let mut ckey = Vec::with_capacity(pkey.len() - 1);
                ckey.extend_from_slice(&pkey[..removed_idx]);
                ckey.extend_from_slice(&pkey[removed_idx + 1..]);
                match slots.get(&ckey) {
                    Some(&slot) => out[slot as usize].1.merge(state),
                    None => {
                        slots.insert(ckey.clone(), out.len() as u32);
                        let mut s = make();
                        s.merge(state);
                        out.push((ckey, s));
                    }
                }
            }
            out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            out
        });
        for (mask, d) in masks.into_iter().zip(derived) {
            sorted.insert(mask, d);
        }
    }
    let cuboids = sorted.into_iter().map(|(mask, es)| (mask, es.into_iter().collect())).collect();
    CubeResult { n, cuboids }
}

/// Reference for [`semi_join`]: probe each row's slice key against the
/// cell set, rows in ascending order.
pub fn semi_join_reference(
    table: &Table,
    cols: &[usize],
    cells: &FxHashSet<Vec<u32>>,
) -> Result<Vec<RowId>> {
    if cells.is_empty() {
        return Ok(Vec::new());
    }
    let cats = cats(table, cols)?;
    let code_slices = code_slices(&cats);
    let keys = RowKeys::gather_range(&code_slices, 0..table.len());
    Ok((0..table.len()).filter(|&i| cells.contains(keys.key(i))).map(|i| i as RowId).collect())
}

/// The fetch plan the paper's cost model picks for one cuboid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CuboidPlan {
    /// Equi-join against the iceberg-cell list, then group.
    PruneThenGroup,
    /// Full-table group-by.
    GroupAll,
}

/// The paper's Inequality 1. `n` = table cardinality, `i` = iceberg cells
/// in the cuboid, `k` = all cells in the cuboid. Returns the chosen plan.
pub fn choose_plan(n: usize, i: usize, k: usize) -> CuboidPlan {
    // Degenerate cuboids (k < 2) leave log_k undefined; a full group-by of
    // one group is trivially right.
    if k < 2 || i == 0 {
        return CuboidPlan::GroupAll;
    }
    let (n, i, k) = (n as f64, i as f64, k as f64);
    let log_k = |x: f64| x.max(1.0).ln() / k.ln();
    let pruned_rows = (i / k) * n; // expected rows surviving the prune
    let cost_prune = n * i + pruned_rows * log_k(pruned_rows);
    let cost_group_all = n * log_k(n);
    if cost_prune < cost_group_all {
        CuboidPlan::PruneThenGroup
    } else {
        CuboidPlan::GroupAll
    }
}

/// Reference for the real run's fetch (paper Algorithm 2): per iceberg
/// cuboid, finest first then by mask, Inequality 1 picks semi-join +
/// [`group_rows`] or a full [`group_by`]; the groups are filtered to the
/// iceberg cells and sorted by compact key. Rows come out ascending.
pub fn fetch_reference<S>(
    table: &Table,
    cols: &[usize],
    dry: &DryRun<S>,
) -> Result<Vec<(CellKey, Vec<RowId>)>> {
    let mut masks: Vec<CuboidMask> = dry.iceberg.keys().copied().collect();
    masks.sort_by_key(|m| (std::cmp::Reverse(m.arity()), *m));
    let mut work = Vec::with_capacity(dry.iceberg_count);
    for mask in masks {
        let iceberg_keys = &dry.iceberg[&mask];
        let attrs: Vec<usize> = mask.attrs().iter().map(|&a| cols[a]).collect();
        let k_cells = dry.states.cuboids[&mask].len();
        let iceberg_set: FxHashSet<Vec<u32>> = iceberg_keys.iter().cloned().collect();
        let grouped = match choose_plan(table.len(), iceberg_keys.len(), k_cells) {
            CuboidPlan::PruneThenGroup => {
                group_rows(table, &attrs, &semi_join(table, &attrs, &iceberg_set)?)?
            }
            CuboidPlan::GroupAll => group_by(table, &attrs)?,
        };
        let mut cells: Vec<(Vec<u32>, Vec<RowId>)> =
            grouped.groups.into_iter().filter(|(key, _)| iceberg_set.contains(key)).collect();
        cells.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        work.extend(
            cells
                .into_iter()
                .map(|(compact, rows)| (CellKey::from_compact(mask, cols.len(), &compact), rows)),
        );
    }
    Ok(work)
}

/// `loss`'s state of `rows`, folded in order against an empty sample.
fn fresh_fold<L: AccuracyLoss>(loss: &L, table: &Table, rows: &[RowId]) -> L::State {
    let empty = loss.prepare(table, &[]);
    let mut state = L::State::default();
    for &r in rows {
        loss.fold(&empty, &mut state, table, r);
    }
    state
}

/// Reference for the SamGraph join of a sample-independent loss: fold
/// every cell's state from its raw rows, then price every ordered pair
/// with `finish`. `edges[u]` is `[u, then ascending v]`.
pub fn samgraph_reference<L: AccuracyLoss>(
    table: &Table,
    loss: &L,
    theta: f64,
    entries: &[CubeEntry<L::State>],
) -> Vec<Vec<u32>> {
    assert!(!loss.state_depends_on_sample(), "the exhaustive join prices folded states");
    let states: Vec<L::State> = entries.iter().map(|e| fresh_fold(loss, table, &e.rows)).collect();
    (0..entries.len())
        .map(|u| {
            let ctx = loss.prepare(table, &entries[u].sample);
            let mut out = vec![u as u32];
            for (v, state) in states.iter().enumerate() {
                if u != v && loss.finish(&ctx, state) <= theta {
                    out.push(v as u32);
                }
            }
            out
        })
        .collect()
}

/// The real-run lane: at every thread count of [`THREAD_COUNTS`], run the
/// production dry and real runs of the case and require, entry by entry,
/// the cell and rows of [`fetch_reference`], the sample a fresh greedy
/// draw over those rows gives, and — for sample-independent losses — a
/// state equal to a fresh fold of the rows (compared through its `Debug`
/// image, which prints every float exactly) and the SamGraph edges of
/// [`samgraph_reference`]. Divergences report as `realrun_differential`.
/// Returns the number of entries compared.
pub fn diff_realrun<L: AccuracyLoss>(
    case: &CaseSpec,
    table: &Table,
    loss: &L,
) -> std::result::Result<usize, Divergence> {
    let fail = |threads: usize, what: String| Divergence {
        check: "realrun_differential",
        detail: format!("threads={threads}: {what}"),
    };
    let col = |a: &String| table.schema().index_of(a).expect("cubed attribute in the case schema");
    let cols: Vec<usize> = case.attrs.iter().map(col).collect();
    let global = draw_global_sample(table, case.serfling_config().sample_size(), case.build_seed);
    let ctx = loss.prepare(table, &global);
    let independent = !loss.state_depends_on_sample();
    let mut compared = 0;
    for &threads in &THREAD_COUNTS {
        tabula_par::scoped_threads(threads, || {
            let failed = |stage: &str, e: &dyn std::fmt::Display| {
                fail(threads, format!("{stage} failed: {e}"))
            };
            let dry =
                dry_run(table, &cols, loss, &ctx, case.theta).map_err(|e| failed("dry run", &e))?;
            let rr = real_run(table, &cols, loss, case.theta, &dry, threads)
                .map_err(|e| failed("real run", &e))?;
            let want =
                fetch_reference(table, &cols, &dry).map_err(|e| failed("reference fetch", &e))?;
            if rr.entries.len() != want.len() {
                return Err(fail(
                    threads,
                    format!("{} entries, the reference fetch has {}", rr.entries.len(), want.len()),
                ));
            }
            for (e, (cell, rows)) in rr.entries.iter().zip(&want) {
                if (&e.cell, &e.rows) != (cell, rows) {
                    return Err(fail(
                        threads,
                        format!("entry {} differs from the reference fetch", e.cell),
                    ));
                }
                if e.sample != loss.sample_greedy(table, rows, case.theta) {
                    return Err(fail(
                        threads,
                        format!("entry {}: sample differs from a fresh draw", e.cell),
                    ));
                }
                let fresh = independent.then(|| fresh_fold(loss, table, rows));
                if format!("{:?}", e.state) != format!("{fresh:?}") {
                    return Err(fail(
                        threads,
                        format!(
                            "entry {}: state {:?}, a fresh fold gives {fresh:?}",
                            e.cell, e.state
                        ),
                    ));
                }
            }
            if independent {
                let graph = build_samgraph(
                    table,
                    loss,
                    case.theta,
                    &rr.entries,
                    &SamGraphConfig::default(),
                );
                if graph.edges != samgraph_reference(table, loss, case.theta, &rr.entries) {
                    return Err(fail(
                        threads,
                        "SamGraph edges differ from the exhaustive join".into(),
                    ));
                }
            }
            compared += rr.entries.len();
            Ok(())
        })?;
    }
    Ok(compared)
}

/// The operator-level kernel lane: on the case's table frozen plain
/// (`EncodingMode::Off`) and fully encoded (`EncodingMode::Force`), run
/// every production storage operator the build leans on and require
/// byte-identical results to the references above — row ids, group
/// members, and aggregate float bits. Divergences report as
/// `kernel_differential`. Returns the number of operator calls compared.
pub fn diff_kernels(case: &CaseSpec, table: &Table) -> std::result::Result<usize, Divergence> {
    let col = |a: &String| table.schema().index_of(a).expect("cubed attribute in the case schema");
    let cols: Vec<usize> = case.attrs.iter().map(col).collect();
    let mut rng = SmallRng::seed_from_u64(case.build_seed ^ 0x006b_6572_6e65_6c73);
    let conj = |terms: Vec<(String, CmpOp, Value)>| {
        terms.into_iter().fold(Predicate::all(), |p, (c, op, v)| p.and(c, op, v))
    };
    let mut preds: Vec<Predicate> = case
        .queries
        .iter()
        .map(|q| conj(q.iter().map(|(c, v)| (c.clone(), CmpOp::Eq, v.clone())).collect()))
        .collect();
    for _ in 0..8 {
        let terms = gen_where_terms(&mut rng, case);
        preds.push(conj(terms.into_iter().map(|t| (t.column, t.op, t.value)).collect()));
    }
    let subset: Vec<RowId> = (0..table.len() as RowId).filter(|_| rng.gen_bool(0.5)).collect();
    // The same rows in a seeded out-of-order permutation: group members
    // must keep the caller's row order, not the table's.
    let mut shuffled = subset.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..=i));
    }
    let mut compared = 0;
    for enc in [EncodingMode::Off, EncodingMode::Force] {
        let t = table.with_encoding(enc);
        let fail = |op: &str, what: String| Divergence {
            check: "kernel_differential",
            detail: format!("{op} on the {enc:?}-encoded table {what}"),
        };
        let mut check = |op: &str, same: Result<bool>| {
            compared += 1;
            match same {
                Ok(true) => Ok(()),
                Ok(false) => Err(fail(op, "differs from its reference".into())),
                Err(e) => Err(fail(op, format!("failed: {e}"))),
            }
        };
        for p in &preds {
            check(&format!("filter {p:?}"), same(p.filter(&t), filter_reference(p, &t)))?;
        }
        let groups = |g: GroupedRows| g.groups;
        let (got, want) = (group_by(&t, &cols), group_reference(&t, &cols, None));
        check("group_by", same(got.map(groups), want.map(groups)))?;
        for (order, rows) in [("ascending", &subset), ("shuffled", &shuffled)] {
            let (got, want) = (group_rows(&t, &cols, rows), group_reference(&t, &cols, Some(rows)));
            check(&format!("group_rows {order}"), same(got.map(groups), want.map(groups)))?;
        }
        check("finest_cell_ids", finest_ids_match(&t, &cols))?;
        let fold = |s: &mut SumCount, row: RowId| s.add((row as f64).sqrt());
        let failed = |op: &str, e: StorageError| fail(op, format!("failed: {e}"));
        let finest = finest_cuboid(&t, &cols, SumCount::default, fold)
            .map_err(|e| failed("finest_cuboid", e))?;
        let reference = finest_reference(&t, &cols, SumCount::default, fold)
            .map_err(|e| failed("finest_cuboid reference", e))?;
        check("finest_cuboid", Ok(state_bits(&finest) == state_bits(&reference)))?;
        let n = cols.len();
        let cube = rollup_from_finest(n, finest, &SumCount::default)
            .map_err(|e| failed("rollup_from_finest", e))?;
        let reference = rollup_reference(n, reference, &SumCount::default);
        check("rollup_from_finest", Ok(cube.cuboids.len() == reference.cuboids.len()))?;
        for (mask, states) in &reference.cuboids {
            let got = cube.cuboids.get(mask).map(state_bits);
            check(
                &format!("rollup_from_finest cuboid {mask}"),
                Ok(got == Some(state_bits(states))),
            )?;
            // Semi-join this cuboid against a seeded half of its cells
            // plus one cell outside every dictionary domain.
            let attrs: Vec<usize> = mask.attrs().iter().map(|&a| cols[a]).collect();
            let mut cells: FxHashSet<Vec<u32>> =
                states.keys().filter(|_| rng.gen_bool(0.5)).cloned().collect();
            cells.insert(vec![u32::MAX; attrs.len()]);
            let (got, want) =
                (semi_join(&t, &attrs, &cells), semi_join_reference(&t, &attrs, &cells));
            check(&format!("semi_join cuboid {mask}"), same(got, want))?;
        }
    }
    Ok(compared)
}

fn same<T: PartialEq>(got: Result<T>, want: Result<T>) -> Result<bool> {
    Ok(got? == want?)
}

/// Canonical image of aggregate states: sorted keys with exact float bits.
fn state_bits(states: &FxHashMap<Vec<u32>, SumCount>) -> Vec<(Vec<u32>, u64, u64)> {
    let mut v: Vec<_> = states.iter().map(|(k, s)| (k.clone(), s.sum.to_bits(), s.count)).collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::gen_case;
    use tabula_storage::{ColumnType, Field, Schema, TableBuilder, Value};

    #[test]
    fn cost_model_prefers_prune_for_few_icebergs() {
        // A single iceberg cell in a wide cuboid: join wins. (The paper's
        // literal cost model prices the join at N·i, so prune only wins
        // for very small i relative to log_k(N).)
        assert_eq!(choose_plan(1_000_000, 1, 5_000), CuboidPlan::PruneThenGroup);
        // Most cells iceberg: group-all wins (the N·i term explodes).
        assert_eq!(choose_plan(1_000_000, 4_000, 5_000), CuboidPlan::GroupAll);
        // Degenerate cuboid.
        assert_eq!(choose_plan(100, 1, 1), CuboidPlan::GroupAll);
    }

    /// The kernel lane passes on pinned fuzz cases.
    #[test]
    fn kernel_lane_is_clean_on_pinned_seeds() {
        for seed in [1, 2, 3, 7, 11] {
            let case = gen_case(seed);
            let compared =
                diff_kernels(&case, &case.table()).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
            assert!(compared > 10, "seed {seed}: only {compared} operator calls compared");
        }
    }

    /// The real-run lane compares entries on pinned mean-loss cases (the
    /// loss whose SamGraph takes the interval join).
    #[test]
    fn realrun_lane_is_clean_on_pinned_seeds() {
        let mut compared = 0;
        for seed in 0..40 {
            let case = gen_case(seed);
            let crate::oracle::LossSpec::Mean { attr } = &case.loss else { continue };
            let table = case.table();
            let loss = tabula_core::loss::MeanLoss::new(table.schema().index_of(attr).unwrap());
            compared += diff_realrun(&case, &table, &loss).unwrap_or_else(|d| panic!("{d}"));
        }
        assert!(compared > 20, "only {compared} real-run entries compared");
    }

    /// Clustered columns (RLE), distinct ascending ints (FOR) and a
    /// high-cardinality string, force-encoded: every operator agrees with
    /// its reference across chunk and morsel boundaries.
    #[test]
    fn kernels_match_references_on_encoded_runs() {
        let schema = Schema::new(vec![
            Field::new("a", ColumnType::Str),
            Field::new("b", ColumnType::Int64),
            Field::new("id", ColumnType::Int64),
            Field::new("s", ColumnType::Str),
            Field::new("f", ColumnType::Float64),
        ]);
        let mut b = TableBuilder::new(schema);
        for row in 0..70_000usize {
            let blk = row / 97;
            b.push_row(&[
                ["x", "y", "z"][blk % 3].into(),
                ((blk % 5) as i64).into(),
                (1000 + row as i64).into(),
                format!("v{}", row % 347).as_str().into(),
                ((row % 13) as f64 * 0.1 + 0.01).into(),
            ])
            .unwrap();
        }
        let table = b.finish();
        let case = CaseSpec {
            name: "runs".into(),
            schema: vec![
                ("a".into(), ColumnType::Str),
                ("b".into(), ColumnType::Int64),
                ("id".into(), ColumnType::Int64),
                ("s".into(), ColumnType::Str),
                ("f".into(), ColumnType::Float64),
            ],
            rows: vec![vec![
                Value::Str("y".into()),
                Value::Int64(3),
                Value::Int64(1500),
                Value::Str("v12".into()),
                Value::Float64(0.31),
            ]],
            attrs: vec!["a".into(), "b".into(), "s".into()],
            loss: crate::oracle::LossSpec::Mean { attr: "f".into() },
            theta: 0.1,
            serfling: (0.05, 0.01),
            build_seed: 5,
            queries: vec![vec![("a".into(), Value::Str("z".into()))]],
        };
        diff_kernels(&case, &table).unwrap_or_else(|d| panic!("{d}"));
    }
}
