//! Row-at-a-time reference implementations of the `tabula-storage`
//! operators, and the kernel lane that checks the production kernels
//! against them.
//!
//! The references are the slice-keyed paths the bit-packed storage
//! kernels replaced. Each keeps the production operator's morsel
//! partitioning and ordered morsel merge, so per-cell fold and merge
//! sequences — and therefore float bits — match the production kernels
//! exactly; only the physical key handling differs (row-major `u32`
//! tuples instead of bit-packed words, no chunking, no run or frame
//! pushdown). Keys of any width work here. The filter reference is
//! [`Predicate::filter_rows`] over every row id.

use crate::diff::Divergence;
use crate::generate::{gen_where_terms, CaseSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tabula_par::{Pool, DEFAULT_MORSEL_ROWS};
use tabula_storage::agg::SumCount;
use tabula_storage::cube::{finest_cuboid, rollup_from_finest, CubeResult, CuboidMask};
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
