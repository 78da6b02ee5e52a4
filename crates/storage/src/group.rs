//! Hash group-by on categorical attribute tuples.
//!
//! Grouping is morsel-parallel: each ~64k-row morsel packs its codes and
//! builds a partial table; partials merge in ascending morsel order, so
//! group contents, their row order, and map insertion order are all
//! independent of `TABULA_THREADS`.
//!
//! The kernel works on bit-packed keys (see [`crate::packed::KeyLayout`]),
//! `u64` or `u128` by the layout's width: chunks of
//! [`crate::kernel::CHUNK_ROWS`] rows pack into a key buffer, probe a slot
//! map, and append members to dense per-slot vectors — one word hashed
//! per row, no slice keys, no per-group key allocation until the final
//! decode. Full-table scans over RLE columns group whole runs at a time.

use crate::encoding::RunsView;
use crate::fx::FxHashMap;
use crate::kernel::CHUNK_ROWS;
use crate::packed::{KeyLayout, PackedKey, PackedKeyBuf};
use crate::table::{Cat, RowId, Table};
use crate::Result;
use tabula_par::{Pool, DEFAULT_MORSEL_ROWS};

/// Result of a group-by: each group's code tuple and its member rows.
#[derive(Debug, Clone, Default)]
pub struct GroupedRows {
    /// Map from group key (one code per grouping column, in column order)
    /// to the row ids belonging to the group.
    pub groups: FxHashMap<Vec<u32>, Vec<RowId>>,
}

impl GroupedRows {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

/// The two row sources a grouping kernel can scan: every row of the table
/// (contiguous — no row-id indirection), or an explicit subset.
enum RowSrc<'a> {
    All(usize),
    Subset(&'a [RowId]),
}

impl RowSrc<'_> {
    fn len(&self) -> usize {
        match self {
            RowSrc::All(n) => *n,
            RowSrc::Subset(rows) => rows.len(),
        }
    }

    #[inline]
    fn row(&self, i: usize) -> RowId {
        match self {
            RowSrc::All(_) => i as RowId,
            RowSrc::Subset(rows) => rows[i],
        }
    }
}

/// Group all rows of `table` by the categorical columns `cols`.
///
/// Cost: one pass over the data, hashing one small integer tuple per row —
/// this is the `GroupBy` primitive the paper's cost model (Inequality 1)
/// prices as `N·log_k(N)`. The full-table form scans contiguous ranges
/// directly; no row-id list is materialized.
pub fn group_by(table: &Table, cols: &[usize]) -> Result<GroupedRows> {
    group_impl(table, cols, RowSrc::All(table.len()))
}

/// Group an explicit subset of rows of `table` by the categorical columns
/// `cols`. Used by the real-run stage after pruning to iceberg-cell rows.
pub fn group_rows(table: &Table, cols: &[usize], rows: &[RowId]) -> Result<GroupedRows> {
    group_impl(table, cols, RowSrc::Subset(rows))
}

fn group_impl(table: &Table, cols: &[usize], src: RowSrc<'_>) -> Result<GroupedRows> {
    let cats: Vec<Cat<'_>> = cols.iter().map(|&c| table.cat(c)).collect::<Result<_>>()?;
    let cards: Vec<usize> = cats.iter().map(|c| c.cardinality()).collect();
    let layout = KeyLayout::from_cardinalities(&cards)?;
    let groups = if layout.total_bits() <= 64 {
        group_packed::<u64>(&layout, &cats, &src)
    } else {
        group_packed::<u128>(&layout, &cats, &src)
    };
    Ok(GroupedRows { groups })
}

/// Grouping on `K` keys: run-aligned for full-table scans where every
/// grouping column exposes RLE runs — checked *before* `codes()`, which
/// would force a decode of an encoded column — chunked otherwise.
fn group_packed<K: PackedKey>(
    layout: &KeyLayout,
    cats: &[Cat<'_>],
    src: &RowSrc<'_>,
) -> FxHashMap<Vec<u32>, Vec<RowId>> {
    if let RowSrc::All(n) = src {
        let run_views: Option<Vec<RunsView<'_, u32>>> = cats.iter().map(|c| c.runs()).collect();
        if let Some(runs) = run_views.filter(|r| !r.is_empty()) {
            tabula_obs::global().counter("group.kernel.runs").inc();
            return group_runs::<K>(layout, &runs, *n);
        }
    }
    let code_slices: Vec<&[u32]> = cats.iter().map(|c| c.codes()).collect();
    group_vectorized::<K>(layout, &code_slices, src)
}

/// Run-aligned grouping over RLE-encoded columns: per morsel, walk the
/// columns' runs in lockstep and split the morsel into maximal segments
/// of constant key — one key encode and one slot probe per *segment*,
/// with members appended as a whole row range. Segment order is row
/// order, so first-seen group order, member order, and the morsel merge
/// are identical to [`group_vectorized`].
fn group_runs<K: PackedKey>(
    layout: &KeyLayout,
    runs: &[RunsView<'_, u32>],
    len: usize,
) -> FxHashMap<Vec<u32>, Vec<RowId>> {
    let pool = Pool::global();
    let partials: Vec<(Vec<K>, Vec<Vec<RowId>>)> =
        pool.par_chunks(len, DEFAULT_MORSEL_ROWS, |range| {
            let mut slots: FxHashMap<K, u32> = FxHashMap::default();
            let mut keys: Vec<K> = Vec::new();
            let mut members: Vec<Vec<RowId>> = Vec::new();
            let mut cursors: Vec<usize> = runs
                .iter()
                .map(|rv| rv.ends.partition_point(|&e| (e as usize) <= range.start))
                .collect();
            let mut scratch = vec![0u32; runs.len()];
            let mut pos = range.start;
            while pos < range.end {
                let mut seg_end = range.end;
                for (ci, rv) in runs.iter().enumerate() {
                    scratch[ci] = rv.values[cursors[ci]];
                    seg_end = seg_end.min(rv.ends[cursors[ci]] as usize);
                }
                let k: K = layout.encode(&scratch);
                let slot = match slots.get(&k) {
                    Some(&s) => s,
                    None => {
                        let s = keys.len() as u32;
                        slots.insert(k, s);
                        keys.push(k);
                        members.push(Vec::new());
                        s
                    }
                };
                members[slot as usize].extend(pos as RowId..seg_end as RowId);
                for (ci, rv) in runs.iter().enumerate() {
                    if rv.ends[cursors[ci]] as usize == seg_end {
                        cursors[ci] += 1;
                    }
                }
                pos = seg_end;
            }
            (keys, members)
        });
    merge_packed_members(layout, partials)
}

/// Chunked grouping on bit-packed keys: per morsel, each chunk packs its
/// keys, probes the slot map, and appends members to dense per-slot
/// vectors; morsel partials merge in ascending order and decode once at
/// the end. Groups appear in first-seen row order, members in row order.
fn group_vectorized<K: PackedKey>(
    layout: &KeyLayout,
    code_slices: &[&[u32]],
    src: &RowSrc<'_>,
) -> FxHashMap<Vec<u32>, Vec<RowId>> {
    let pool = Pool::global();
    let partials: Vec<(Vec<K>, Vec<Vec<RowId>>)> =
        pool.par_chunks(src.len(), DEFAULT_MORSEL_ROWS, |range| {
            let mut slots: FxHashMap<K, u32> = FxHashMap::default();
            let mut keys: Vec<K> = Vec::new();
            let mut members: Vec<Vec<RowId>> = Vec::new();
            let mut packed = PackedKeyBuf::<K>::new();
            let mut start = range.start;
            while start < range.end {
                let end = range.end.min(start + CHUNK_ROWS);
                match src {
                    RowSrc::All(_) => packed.fill_range(layout, code_slices, start..end),
                    RowSrc::Subset(rows) => packed.fill(layout, code_slices, &rows[start..end]),
                }
                for (i, &k) in packed.keys().iter().enumerate() {
                    let slot = match slots.get(&k) {
                        Some(&s) => s,
                        None => {
                            let s = keys.len() as u32;
                            slots.insert(k, s);
                            keys.push(k);
                            members.push(Vec::new());
                            s
                        }
                    };
                    members[slot as usize].push(src.row(start + i));
                }
                start = end;
            }
            (keys, members)
        });
    merge_packed_members(layout, partials)
}

/// Merge per-morsel packed partials in ascending morsel order, then
/// decode each key once at the end.
fn merge_packed_members<K: PackedKey>(
    layout: &KeyLayout,
    partials: Vec<(Vec<K>, Vec<Vec<RowId>>)>,
) -> FxHashMap<Vec<u32>, Vec<RowId>> {
    let mut slots: FxHashMap<K, u32> = FxHashMap::default();
    let mut keys: Vec<K> = Vec::new();
    let mut members: Vec<Vec<RowId>> = Vec::new();
    for (pkeys, pmembers) in partials {
        for (k, mut m) in pkeys.into_iter().zip(pmembers) {
            match slots.get(&k) {
                Some(&slot) => members[slot as usize].append(&mut m),
                None => {
                    slots.insert(k, keys.len() as u32);
                    keys.push(k);
                    members.push(m);
                }
            }
        }
    }
    let mut groups: FxHashMap<Vec<u32>, Vec<RowId>> = FxHashMap::default();
    groups.reserve(keys.len());
    for (k, m) in keys.into_iter().zip(members) {
        groups.insert(layout.decode(k), m);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::table::TableBuilder;
    use crate::types::ColumnType;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("payment", ColumnType::Str),
            Field::new("passengers", ColumnType::Int64),
            Field::new("fare", ColumnType::Float64),
        ]);
        let mut b = TableBuilder::new(schema);
        let data: [(&str, i64, f64); 6] = [
            ("cash", 1, 5.0),
            ("credit", 2, 9.5),
            ("cash", 1, 7.25),
            ("dispute", 3, 12.0),
            ("cash", 2, 3.0),
            ("credit", 2, 4.0),
        ];
        for (p, n, f) in data {
            b.push_row(&[p.into(), n.into(), f.into()]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn single_column_groups() {
        let t = table();
        let g = group_by(&t, &[0]).unwrap();
        assert_eq!(g.len(), 3);
        // payment codes: cash=0, credit=1, dispute=2 (first-seen order).
        assert_eq!(g.groups[&vec![0]], vec![0, 2, 4]);
        assert_eq!(g.groups[&vec![1]], vec![1, 5]);
        assert_eq!(g.groups[&vec![2]], vec![3]);
    }

    #[test]
    fn multi_column_groups() {
        let t = table();
        let g = group_by(&t, &[0, 1]).unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g.groups[&vec![0, 0]], vec![0, 2]); // cash, 1
        assert_eq!(g.groups[&vec![1, 1]], vec![1, 5]); // credit, 2
        assert_eq!(g.groups[&vec![0, 1]], vec![4]); // cash, 2
        assert_eq!(g.groups[&vec![2, 2]], vec![3]); // dispute, 3
    }

    #[test]
    fn group_subset_of_rows() {
        let t = table();
        let g = group_rows(&t, &[0], &[1, 3, 5]).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.groups[&vec![1]], vec![1, 5]);
        assert_eq!(g.groups[&vec![2]], vec![3]);
    }

    #[test]
    fn group_members_keep_the_callers_row_order() {
        let t = table();
        let g = group_rows(&t, &[0, 1], &[5, 1, 0]).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.groups[&vec![1, 1]], vec![5, 1]); // credit, 2
        assert_eq!(g.groups[&vec![0, 0]], vec![0]); // cash, 1
    }

    #[test]
    fn grouping_on_empty_column_list_yields_one_group() {
        let t = table();
        let g = group_by(&t, &[]).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.groups[&vec![]].len(), 6);
    }

    #[test]
    fn non_categorical_column_is_error() {
        let t = table();
        assert!(group_by(&t, &[2]).is_err());
    }

    /// The run-aligned kernel must produce groups identical to the chunked
    /// kernel over decoded codes — first-seen order and member order
    /// included.
    #[test]
    fn run_aligned_grouping_matches_decoded_kernel() {
        let schema =
            Schema::new(vec![Field::new("a", ColumnType::Str), Field::new("b", ColumnType::Int64)]);
        let mut b = TableBuilder::new(schema);
        for row in 0..1500usize {
            let blk = row / 53;
            b.push_row(&[["x", "y", "z"][blk % 3].into(), ((blk % 5) as i64).into()]).unwrap();
        }
        let t = b.finish().with_encoding(crate::EncodingMode::Force);
        let cats: Vec<Cat<'_>> = (0..2).map(|c| t.cat(c).unwrap()).collect();
        let runs: Vec<RunsView<'_, u32>> = cats.iter().map(|c| c.runs().unwrap()).collect();
        let cards: Vec<usize> = cats.iter().map(|c| c.cardinality()).collect();
        let layout = KeyLayout::from_cardinalities(&cards).unwrap();
        let aligned = group_runs::<u64>(&layout, &runs, t.len());
        let code_slices: Vec<&[u32]> = cats.iter().map(|c| c.codes()).collect();
        let vectorized = group_vectorized::<u64>(&layout, &code_slices, &RowSrc::All(t.len()));
        assert_eq!(aligned, vectorized);
        // The wide-key instantiation of the same kernels agrees too.
        assert_eq!(aligned, group_runs::<u128>(&layout, &runs, t.len()));
        assert_eq!(aligned, group_vectorized::<u128>(&layout, &code_slices, &RowSrc::All(t.len())));
    }
}
