//! The OLAP CUBE operator, its cuboid lattice, and the algebraic rollup.
//!
//! A *cuboid* is one `GROUP BY` over a subset of the cubed attributes,
//! identified here by a bitmask ([`CuboidMask`]); the CUBE over `n`
//! attributes is the set of all `2ⁿ` cuboids. A *cell* is one group of one
//! cuboid, identified by a [`CellKey`] that assigns a concrete code or `*`
//! (`None`) to every cubed attribute.
//!
//! For a mergeable (algebraic) aggregate state the whole lattice is
//! computed from a **single scan** of the raw data: the scan builds the
//! finest cuboid (all attributes), and every coarser cuboid is derived by
//! merging the states of an already-computed parent cuboid — the classic
//! data-cube optimization the paper leans on for its dry-run stage.
//!
//! Both halves run on the morsel-driven pool (`tabula-par`): the scan is
//! partition-parallel hash aggregation (per-morsel partial tables merged in
//! ascending morsel order), and the rollup proceeds level-synchronously —
//! all cuboids of one arity derive from their (already finished) parents
//! in parallel. Results are byte-identical for any `TABULA_THREADS`.
//!
//! Both halves are **vectorized** (see [`crate::kernel`]) on bit-packed
//! keys — `u64` when `Σ ⌈log₂ cᵢ⌉ ≤ 64` (any realistic dashboard cube),
//! `u128` up to 128 bits, a typed error beyond: the scan aggregates
//! chunk-wise directly on packed code buffers — probe a slot per key, then
//! fold rows into a dense state vector — and the rollup squeezes the
//! removed attribute's bit field out of each parent key without
//! re-decoding. Every derivation scans its parent in ascending-key order
//! (for packed keys that *is* lexicographic order of the code tuples), so
//! per-cell merge sequences — and therefore floating-point bits — depend
//! only on cube content, never on hash-map layout, key width, or thread
//! count.

use crate::agg::AggState;
use crate::encoding::{for_each_segment, RunsView};
use crate::fx::FxHashMap;
use crate::kernel::CHUNK_ROWS;
use crate::packed::{KeyLayout, PackedKey, PackedKeyBuf};
use crate::table::{Cat, RowId, Table};
use crate::Result;
use serde::{Deserialize, Serialize};
use tabula_par::{Pool, DEFAULT_MORSEL_ROWS};

/// Identifies a cuboid: bit `i` set means cubed attribute `i` is on the
/// grouping list. The all-bits mask is the finest cuboid; `0` is the `ALL`
/// pseudo-cuboid (no grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CuboidMask(pub u32);

impl CuboidMask {
    /// The finest cuboid over `n` attributes (all bits set).
    pub fn finest(n: usize) -> Self {
        assert!(n <= 31, "at most 31 cubed attributes supported");
        CuboidMask(((1u64 << n) - 1) as u32)
    }

    /// The `ALL` cuboid (no grouping attributes).
    pub fn all_cuboid() -> Self {
        CuboidMask(0)
    }

    /// Whether attribute `i` is on this cuboid's grouping list.
    #[inline]
    pub fn contains(self, i: usize) -> bool {
        self.0 & (1 << i) != 0
    }

    /// Number of grouping attributes.
    #[inline]
    pub fn arity(self) -> u32 {
        self.0.count_ones()
    }

    /// Indices of the grouping attributes, ascending.
    pub fn attrs(self) -> Vec<usize> {
        (0..32).filter(|&i| self.contains(i)).collect()
    }

    /// Whether `self`'s grouping list is a subset of `other`'s (i.e.
    /// `other` is a descendant cuboid that can derive `self`).
    #[inline]
    pub fn is_subset_of(self, other: CuboidMask) -> bool {
        self.0 & other.0 == self.0
    }

    /// Enumerate every cuboid of an `n`-attribute cube, coarsest last.
    pub fn enumerate(n: usize) -> Vec<CuboidMask> {
        let mut masks: Vec<CuboidMask> = (0..(1u64 << n)).map(|m| CuboidMask(m as u32)).collect();
        masks.sort_by_key(|m| std::cmp::Reverse(m.arity()));
        masks
    }

    /// One immediate parent (this mask plus one more attribute from the
    /// `n`-attribute universe), if any — the cuboid this one is derived
    /// from during rollup.
    pub fn a_parent(self, n: usize) -> Option<CuboidMask> {
        (0..n).find(|&i| !self.contains(i)).map(|i| CuboidMask(self.0 | (1 << i)))
    }
}

impl std::fmt::Display for CuboidMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == 0 {
            return write!(f, "ALL");
        }
        let attrs = self.attrs();
        let names: Vec<String> = attrs.iter().map(|a| format!("a{a}")).collect();
        write!(f, "{}", names.join(","))
    }
}

/// Identifies one cube cell: for every cubed attribute either a concrete
/// dictionary code or `None` (the `*` / `(null)` of the paper's tables).
///
/// `Hash`/`PartialEq` are hand-written hot-path implementations: cube
/// construction and query serving probe hash maps keyed by `CellKey`
/// millions of times, and the derived impls hash every `Option`
/// discriminant byte-by-byte. The manual hash feeds the hasher one word
/// for the presence mask plus one word per present code — the same
/// sequence the serving layer's stack-allocated compiled cell hashes, so
/// the two key forms are interchangeable in Fx-hashed tables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellKey {
    /// Per-attribute assignment, aligned with the cubed-attribute order.
    pub codes: Vec<Option<u32>>,
}

impl PartialEq for CellKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.codes == other.codes
    }
}

impl Eq for CellKey {}

impl std::hash::Hash for CellKey {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Keys the cube builds carry ≤ 32 codes (the `CuboidMask`
        // ceiling), but `CellKey` is a public (de)serializable type, so
        // over-long keys must hash without shift overflow: `i & 31`
        // aliases presence bits past position 31 onto the low word —
        // a possible collision there, never a panic. Equal keys still
        // hash equal (eq compares the full code vector).
        let mut mask = 0u32;
        for (i, c) in self.codes.iter().enumerate() {
            if c.is_some() {
                mask |= 1 << (i & 31);
            }
        }
        state.write_u32(mask);
        for c in self.codes.iter().flatten() {
            state.write_u32(*c);
        }
    }
}

impl CellKey {
    /// Build from per-attribute assignments.
    pub fn new(codes: Vec<Option<u32>>) -> Self {
        CellKey { codes }
    }

    /// Build the cell of cuboid `mask` obtained by projecting a finest-key
    /// (`full`, one code per attribute) onto the mask.
    pub fn project(mask: CuboidMask, full: &[u32]) -> Self {
        CellKey {
            codes: full.iter().enumerate().map(|(i, &c)| mask.contains(i).then_some(c)).collect(),
        }
    }

    /// The cuboid this cell belongs to.
    #[inline]
    pub fn mask(&self) -> CuboidMask {
        let mut m = 0u32;
        for (i, c) in self.codes.iter().enumerate() {
            if c.is_some() {
                m |= 1 << i;
            }
        }
        CuboidMask(m)
    }

    /// The compact key (codes of the present attributes, ascending attr
    /// order) used inside per-cuboid hash maps.
    pub fn compact(&self) -> Vec<u32> {
        self.codes.iter().filter_map(|c| *c).collect()
    }

    /// Reassemble a cell key from a cuboid mask and a compact key.
    pub fn from_compact(mask: CuboidMask, n: usize, compact: &[u32]) -> Self {
        let mut it = compact.iter();
        CellKey {
            codes: (0..n)
                .map(|i| {
                    if mask.contains(i) {
                        // Arity of `compact` always equals mask arity.
                        Some(*it.next().expect("compact key arity mismatch"))
                    } else {
                        None
                    }
                })
                .collect(),
        }
    }

    /// Whether this cell is an ancestor of (or equal to) the finest key
    /// `full` — i.e. `full`'s row group is contained in this cell's group.
    #[inline]
    pub fn covers(&self, full: &[u32]) -> bool {
        self.codes.iter().zip(full).all(|(c, &f)| c.is_none_or(|c| c == f))
    }
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.codes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match c {
                Some(code) => write!(f, "{code}")?,
                None => write!(f, "*")?,
            }
        }
        write!(f, "⟩")
    }
}

/// The cuboid lattice of an `n`-attribute cube (paper Fig. 5a): vertices
/// are cuboids, edges connect a cuboid to each immediate parent.
#[derive(Debug, Clone)]
pub struct Lattice {
    /// Number of cubed attributes.
    pub n: usize,
}

impl Lattice {
    /// Lattice over `n` attributes.
    pub fn new(n: usize) -> Self {
        assert!((1..=31).contains(&n));
        Lattice { n }
    }

    /// Total number of cuboids, `2ⁿ`.
    pub fn num_cuboids(&self) -> usize {
        1 << self.n
    }

    /// Every cuboid, finest first.
    pub fn cuboids(&self) -> Vec<CuboidMask> {
        CuboidMask::enumerate(self.n)
    }

    /// The immediate parents of `mask` (one extra grouping attribute).
    pub fn parents(&self, mask: CuboidMask) -> Vec<CuboidMask> {
        (0..self.n).filter(|&i| !mask.contains(i)).map(|i| CuboidMask(mask.0 | (1 << i))).collect()
    }

    /// The immediate children of `mask` (one fewer grouping attribute).
    pub fn children(&self, mask: CuboidMask) -> Vec<CuboidMask> {
        (0..self.n).filter(|&i| mask.contains(i)).map(|i| CuboidMask(mask.0 & !(1 << i))).collect()
    }
}

/// A fully-computed cube of aggregate states.
#[derive(Debug, Clone)]
pub struct CubeResult<S> {
    /// Number of cubed attributes.
    pub n: usize,
    /// Per-cuboid state maps, keyed by compact cell keys.
    pub cuboids: FxHashMap<CuboidMask, FxHashMap<Vec<u32>, S>>,
}

impl<S> CubeResult<S> {
    /// Look up a cell's state.
    pub fn cell_state(&self, key: &CellKey) -> Option<&S> {
        self.cuboids.get(&key.mask())?.get(&key.compact())
    }

    /// Iterate every `(cell, state)` of every cuboid.
    pub fn iter_cells(&self) -> impl Iterator<Item = (CellKey, &S)> + '_ {
        self.cuboids.iter().flat_map(move |(mask, groups)| {
            groups
                .iter()
                .map(move |(compact, s)| (CellKey::from_compact(*mask, self.n, compact), s))
        })
    }

    /// Total number of cells across all cuboids.
    pub fn total_cells(&self) -> usize {
        self.cuboids.values().map(|g| g.len()).sum()
    }
}

/// Build the finest cuboid with a single scan.
///
/// `make` creates an empty state; `fold` accounts one row into a state.
///
/// The scan is partition-parallel: morsels of [`DEFAULT_MORSEL_ROWS`] rows
/// each build a partial hash table, merged in ascending morsel order — so
/// per-cell fold/merge sequences (and therefore floating-point bits and
/// hash-map insertion order) are independent of the thread count.
pub fn finest_cuboid<S, M, F>(
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
    let cats: Vec<Cat<'_>> = cols.iter().map(|&c| table.cat(c)).collect::<Result<_>>()?;
    let started = std::time::Instant::now();
    let cards: Vec<usize> = cats.iter().map(|c| c.cardinality()).collect();
    let layout = KeyLayout::from_cardinalities(&cards)?;
    let out = if layout.total_bits() <= 64 {
        finest_packed::<u64, S, M, F>(table, &layout, &cats, &make, &fold)
    } else {
        finest_packed::<u128, S, M, F>(table, &layout, &cats, &make, &fold)
    };
    let metrics = tabula_obs::global();
    metrics.counter("cube.scan_rows").add(table.len() as u64);
    metrics.counter("cube.kernel_ns").add(started.elapsed().as_nanos() as u64);
    Ok(out)
}

/// The finest scan on `K` keys: run-aligned when every grouping column
/// exposes RLE runs — checked *before* `codes()`, which would force a
/// decode — chunked otherwise.
fn finest_packed<K, S, M, F>(
    table: &Table,
    layout: &KeyLayout,
    cats: &[Cat<'_>],
    make: &M,
    fold: &F,
) -> FxHashMap<Vec<u32>, S>
where
    K: PackedKey,
    S: AggState,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, RowId) + Sync,
{
    let metrics = tabula_obs::global();
    let run_views: Option<Vec<RunsView<'_, u32>>> = cats.iter().map(|c| c.runs()).collect();
    if let Some(runs) = run_views.filter(|r| !r.is_empty()) {
        metrics.counter("cube.kernel.runs").inc();
        return finest_runs::<K, S, M, F>(table, layout, &runs, make, fold);
    }
    let code_slices: Vec<&[u32]> = cats.iter().map(|c| c.codes()).collect();
    metrics.counter("cube.kernel.vectorized").inc();
    finest_vectorized::<K, S, M, F>(table, layout, &code_slices, make, fold)
}

/// Chunked scan on bit-packed keys.
///
/// Each chunk runs in two passes: a *probe* pass maps the chunk's packed
/// keys to dense slot indices (inserting new slots in first-seen order),
/// then a *fold* pass updates the slot states in row order — the
/// accumulators advance per-chunk, not per-row-with-hash-lookup. Per-key
/// fold order is ascending rows within a morsel, morsels merge in
/// ascending order, and the output inserts keys in first-seen order.
fn finest_vectorized<K, S, M, F>(
    table: &Table,
    layout: &KeyLayout,
    code_slices: &[&[u32]],
    make: &M,
    fold: &F,
) -> FxHashMap<Vec<u32>, S>
where
    K: PackedKey,
    S: AggState,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, RowId) + Sync,
{
    let pool = Pool::global();
    let partials: Vec<(Vec<K>, Vec<S>)> =
        pool.par_chunks(table.len(), DEFAULT_MORSEL_ROWS, |range| {
            let mut slots: FxHashMap<K, u32> = FxHashMap::default();
            let mut keys: Vec<K> = Vec::new();
            let mut states: Vec<S> = Vec::new();
            let mut packed = PackedKeyBuf::<K>::new();
            let mut slot_ix: Vec<u32> = Vec::with_capacity(CHUNK_ROWS);
            let mut start = range.start;
            while start < range.end {
                let end = range.end.min(start + CHUNK_ROWS);
                packed.fill_range(layout, code_slices, start..end);
                slot_ix.clear();
                for &k in packed.keys() {
                    let slot = match slots.get(&k) {
                        Some(&s) => s,
                        None => {
                            let s = keys.len() as u32;
                            slots.insert(k, s);
                            keys.push(k);
                            states.push(make());
                            s
                        }
                    };
                    slot_ix.push(slot);
                }
                for (i, &slot) in slot_ix.iter().enumerate() {
                    fold(&mut states[slot as usize], (start + i) as RowId);
                }
                start = end;
            }
            (keys, states)
        });
    merge_packed_partials(layout, partials)
}

/// Run-aligned scan over RLE-encoded grouping columns: per morsel, walk
/// the columns' runs in lockstep and split the morsel into maximal
/// segments on which every grouping code is constant — one key encode and
/// one slot probe per *segment* instead of per row. Rows still fold one
/// at a time in ascending order (a per-run shortcut would change float
/// bits), so per-state fold sequences, first-seen slot order, and the
/// morsel merge are all identical to [`finest_vectorized`]: the two
/// kernels produce byte-identical maps.
fn finest_runs<K, S, M, F>(
    table: &Table,
    layout: &KeyLayout,
    runs: &[RunsView<'_, u32>],
    make: &M,
    fold: &F,
) -> FxHashMap<Vec<u32>, S>
where
    K: PackedKey,
    S: AggState,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, RowId) + Sync,
{
    let pool = Pool::global();
    let partials: Vec<(Vec<K>, Vec<S>)> =
        pool.par_chunks(table.len(), DEFAULT_MORSEL_ROWS, |range| {
            let mut slots: FxHashMap<K, u32> = FxHashMap::default();
            let mut keys: Vec<K> = Vec::new();
            let mut states: Vec<S> = Vec::new();
            for_each_segment(runs, range, |codes, seg| {
                let k: K = layout.encode(codes);
                let slot = match slots.get(&k) {
                    Some(&s) => s,
                    None => {
                        let s = keys.len() as u32;
                        slots.insert(k, s);
                        keys.push(k);
                        states.push(make());
                        s
                    }
                };
                let state = &mut states[slot as usize];
                for row in seg {
                    fold(state, row as RowId);
                }
            });
            (keys, states)
        });
    merge_packed_partials(layout, partials)
}

/// Slot-level ordered merge in ascending morsel order, then one decode at
/// the end — the scan itself never touches `Vec<u32>` keys.
fn merge_packed_partials<K: PackedKey, S: AggState>(
    layout: &KeyLayout,
    partials: Vec<(Vec<K>, Vec<S>)>,
) -> FxHashMap<Vec<u32>, S> {
    let mut slots: FxHashMap<K, u32> = FxHashMap::default();
    let mut keys: Vec<K> = Vec::new();
    let mut states: Vec<S> = Vec::new();
    for (pkeys, pstates) in partials {
        for (k, s) in pkeys.into_iter().zip(pstates) {
            match slots.get(&k) {
                Some(&slot) => states[slot as usize].merge(&s),
                None => {
                    slots.insert(k, keys.len() as u32);
                    keys.push(k);
                    states.push(s);
                }
            }
        }
    }
    let mut out: FxHashMap<Vec<u32>, S> = FxHashMap::default();
    out.reserve(keys.len());
    for (k, s) in keys.into_iter().zip(states) {
        out.insert(layout.decode(k), s);
    }
    out
}

/// Marks a finest cell that rolls up into none of the requested cells.
const NO_CELL: u32 = u32::MAX;

/// Every row's finest cell as a dense id — the output of
/// [`finest_cell_ids`]. Any coarser cell's rows are the rows whose finest
/// cell projects onto it, so one pass over `ids` gathers the rows of
/// every cell of a cuboid ([`FinestCells::gather`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinestCells {
    ids: Vec<u32>,
    counts: Vec<u32>,
    /// Per finest cell: its code tuple, `width` codes each.
    codes: Vec<u32>,
    width: usize,
}

impl FinestCells {
    /// Per row: the id of the row's finest cell. Ids are dense
    /// (`0..len()`) and assigned in first-seen row order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Per finest cell: its number of rows.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Number of finest cells.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the table had no rows.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The code tuple of finest cell `id`, one code per grouping column.
    #[inline]
    pub fn key(&self, id: u32) -> &[u32] {
        let at = id as usize * self.width;
        &self.codes[at..at + self.width]
    }

    /// Map every finest cell to the index in `cells` of the cell it rolls
    /// up to in the cuboid grouping on key positions `attrs`, or to
    /// [`NO_CELL`].
    fn cell_of(&self, attrs: &[usize], cells: &[Vec<u32>]) -> Vec<u32> {
        let index: FxHashMap<&[u32], u32> =
            cells.iter().enumerate().map(|(i, key)| (key.as_slice(), i as u32)).collect();
        let mut projected = Vec::with_capacity(attrs.len());
        (0..self.len() as u32)
            .map(|id| {
                let key = self.key(id);
                projected.clear();
                projected.extend(attrs.iter().map(|&a| key[a]));
                index.get(projected.as_slice()).copied().unwrap_or(NO_CELL)
            })
            .collect()
    }

    /// The rows of each of `cells` — compact keys (codes at key positions
    /// `attrs`, in order) of one cuboid, free of duplicates — in ascending
    /// row order, from one pass over the row ids; each vector is sized
    /// exactly from the finest counts. `visit(cell, row)` runs once per
    /// gathered row, in ascending row order — callers fold per-cell state
    /// in the same pass.
    pub fn gather(
        &self,
        attrs: &[usize],
        cells: &[Vec<u32>],
        mut visit: impl FnMut(usize, RowId),
    ) -> Vec<Vec<RowId>> {
        let cell_of = self.cell_of(attrs, cells);
        let mut sizes = vec![0usize; cells.len()];
        for (&cell, &count) in cell_of.iter().zip(&self.counts) {
            if cell != NO_CELL {
                sizes[cell as usize] += count as usize;
            }
        }
        let mut rows: Vec<Vec<RowId>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for (row, &id) in self.ids.iter().enumerate() {
            let cell = cell_of[id as usize];
            if cell != NO_CELL {
                rows[cell as usize].push(row as RowId);
                visit(cell as usize, row as RowId);
            }
        }
        rows
    }
}

/// Assign every row of `table` the dense id of its finest cell (the
/// group of its full code tuple over `cols`), with each finest cell's
/// code tuple and row count.
///
/// The same chunked packed-key scan as [`finest_cuboid`] — run-aligned
/// when every grouping column is RLE-encoded — probing a slot map per
/// chunk instead of folding states. Morsels assign local ids in
/// first-seen order and merge in ascending morsel order, so ids are in
/// first-seen row order at any thread count.
pub fn finest_cell_ids(table: &Table, cols: &[usize]) -> Result<FinestCells> {
    let cats: Vec<Cat<'_>> = cols.iter().map(|&c| table.cat(c)).collect::<Result<_>>()?;
    let cards: Vec<usize> = cats.iter().map(|c| c.cardinality()).collect();
    let layout = KeyLayout::from_cardinalities(&cards)?;
    Ok(if layout.total_bits() <= 64 {
        cell_ids_packed::<u64>(table.len(), &layout, &cats)
    } else {
        cell_ids_packed::<u128>(table.len(), &layout, &cats)
    })
}

/// One morsel's slot table: packed keys and row counts per local id, and
/// the local id of every row.
struct MorselIds<K> {
    slots: FxHashMap<K, u32>,
    keys: Vec<K>,
    counts: Vec<u32>,
    ids: Vec<u32>,
}

impl<K: PackedKey> MorselIds<K> {
    fn new(rows: usize) -> Self {
        MorselIds {
            slots: FxHashMap::default(),
            keys: Vec::new(),
            counts: Vec::new(),
            ids: Vec::with_capacity(rows),
        }
    }

    /// Account `rows` consecutive rows of key `k`.
    #[inline]
    fn push(&mut self, k: K, rows: usize) {
        let slot = match self.slots.get(&k) {
            Some(&s) => s,
            None => {
                let s = self.keys.len() as u32;
                self.slots.insert(k, s);
                self.keys.push(k);
                self.counts.push(0);
                s
            }
        };
        self.counts[slot as usize] += rows as u32;
        self.ids.extend(std::iter::repeat_n(slot, rows));
    }
}

fn cell_ids_packed<K: PackedKey>(len: usize, layout: &KeyLayout, cats: &[Cat<'_>]) -> FinestCells {
    // RLE runs are checked before `codes()`, which would force a decode.
    let run_views: Option<Vec<RunsView<'_, u32>>> = cats.iter().map(|c| c.runs()).collect();
    let run_views = run_views.filter(|r| !r.is_empty());
    let code_slices: Vec<&[u32]> = match run_views {
        Some(_) => Vec::new(),
        None => cats.iter().map(|c| c.codes()).collect(),
    };
    let partials: Vec<MorselIds<K>> =
        Pool::global().par_chunks(len, DEFAULT_MORSEL_ROWS, |range| {
            let mut morsel = MorselIds::new(range.len());
            match &run_views {
                Some(runs) => for_each_segment(runs, range, |codes, seg| {
                    morsel.push(layout.encode(codes), seg.len());
                }),
                None => {
                    let mut packed = PackedKeyBuf::<K>::new();
                    for start in range.clone().step_by(CHUNK_ROWS) {
                        packed.fill_range(
                            layout,
                            &code_slices,
                            start..range.end.min(start + CHUNK_ROWS),
                        );
                        for &k in packed.keys() {
                            morsel.push(k, 1);
                        }
                    }
                }
            }
            morsel
        });
    let mut merged = MorselIds::<K>::new(len);
    for morsel in partials {
        let global: Vec<u32> = morsel
            .keys
            .iter()
            .zip(&morsel.counts)
            .map(|(&k, &count)| {
                let id = *merged.slots.entry(k).or_insert_with(|| {
                    merged.keys.push(k);
                    merged.counts.push(0);
                    merged.keys.len() as u32 - 1
                });
                merged.counts[id as usize] += count;
                id
            })
            .collect();
        merged.ids.extend(morsel.ids.iter().map(|&local| global[local as usize]));
    }
    let mut codes = Vec::with_capacity(merged.keys.len() * layout.width());
    let mut key = Vec::with_capacity(layout.width());
    for &k in &merged.keys {
        layout.decode_into(k, &mut key);
        codes.extend_from_slice(&key);
    }
    FinestCells { ids: merged.ids, counts: merged.counts, codes, width: layout.width() }
}

/// Compute every cuboid of the cube by algebraic rollup: one raw scan for
/// the finest cuboid, then each coarser cuboid derived by merging an
/// already-computed immediate parent.
pub fn compute_cube<S, M, F>(
    table: &Table,
    cols: &[usize],
    make: M,
    fold: F,
) -> Result<CubeResult<S>>
where
    S: AggState,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, RowId) + Sync,
{
    let n = cols.len();
    let finest = finest_cuboid(table, cols, &make, fold)?;
    rollup_from_finest(n, finest, &make)
}

/// Position, within the parent's compact key, of the attribute rolled
/// away when deriving `mask` from `parent`.
fn removed_index(parent: CuboidMask, mask: CuboidMask) -> usize {
    let removed_attr = parent.0 & !mask.0;
    debug_assert_eq!(removed_attr.count_ones(), 1);
    (parent.0 & (removed_attr - 1)).count_ones() as usize
}

/// Derive the full lattice from a precomputed finest cuboid.
///
/// The rollup is **level-synchronous**: all cuboids of one arity depend
/// only on cuboids of arity+1, so each level's (independent) derivations
/// run in parallel on the morsel pool. Every child is derived from a
/// single parent by one sequential pass over the parent's cells in
/// **ascending lexicographic key order** — a canonical order, so per-cell
/// merge sequences (and their float bits) are a function of cube content
/// alone: independent of thread count, hash-map layout, and key width.
///
/// The lattice is rolled up on packed keys sized by the observed
/// per-position cardinalities: each parent key maps to its child key by
/// [`KeyLayout::squeeze`] (two shifts and a mask — no decode), and sorting
/// packed entries *is* sorting their code tuples lexicographically.
/// Fails with [`crate::StorageError::KeyTooWide`] when the observed codes
/// need more than [`crate::MAX_KEY_BITS`] bits.
pub fn rollup_from_finest<S, M>(
    n: usize,
    finest: FxHashMap<Vec<u32>, S>,
    make: &M,
) -> Result<CubeResult<S>>
where
    S: AggState,
    M: Fn() -> S + Sync,
{
    let mut entries: Vec<(Vec<u32>, S)> = finest.into_iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    // Observed cardinality bound per position (max code + 1): enough for
    // an injective packing of every key the rollup will ever see.
    let mut cards = vec![0usize; n];
    for (key, _) in &entries {
        for (i, &c) in key.iter().enumerate() {
            cards[i] = cards[i].max(c as usize + 1);
        }
    }
    let layout = KeyLayout::from_cardinalities(&cards)?;
    Ok(if layout.total_bits() <= 64 {
        rollup_packed::<u64, S, M>(n, entries, layout, make)
    } else {
        rollup_packed::<u128, S, M>(n, entries, layout, make)
    })
}

/// Lattice rollup on bit-packed `K` keys.
fn rollup_packed<K, S, M>(
    n: usize,
    entries: Vec<(Vec<u32>, S)>,
    layout: KeyLayout,
    make: &M,
) -> CubeResult<S>
where
    K: PackedKey,
    S: AggState,
    M: Fn() -> S + Sync,
{
    let finest: Vec<(K, S)> =
        entries.into_iter().map(|(key, s)| (layout.encode(&key), s)).collect();
    // Lex-sorted tuples pack to ascending keys (attr 0 sits highest).
    debug_assert!(finest.windows(2).all(|w| w[0].0 < w[1].0));
    let mut packed: FxHashMap<CuboidMask, (KeyLayout, Vec<(K, S)>)> = FxHashMap::default();
    packed.insert(CuboidMask::finest(n), (layout, finest));
    let pool = Pool::global();
    for arity in (0..n as u32).rev() {
        let masks: Vec<CuboidMask> =
            (0..(1u64 << n) as u32).map(CuboidMask).filter(|m| m.arity() == arity).collect();
        let derived: Vec<(KeyLayout, Vec<(K, S)>)> = pool.par_map(&masks, |&mask| {
            let parent = mask.a_parent(n).expect("every non-finest cuboid has a parent");
            let removed_idx = removed_index(parent, mask);
            let (playout, pentries) = &packed[&parent];
            let clayout = playout.without_attr(removed_idx);
            let mut slots: FxHashMap<K, u32> = FxHashMap::default();
            let mut out: Vec<(K, S)> = Vec::new();
            for (pkey, state) in pentries {
                let ckey = playout.squeeze(*pkey, removed_idx);
                match slots.get(&ckey) {
                    Some(&slot) => out[slot as usize].1.merge(state),
                    None => {
                        slots.insert(ckey, out.len() as u32);
                        let mut s = make();
                        s.merge(state);
                        out.push((ckey, s));
                    }
                }
            }
            out.sort_unstable_by_key(|e| e.0);
            (clayout, out)
        });
        for (mask, d) in masks.into_iter().zip(derived) {
            packed.insert(mask, d);
        }
    }
    let mut cuboids: FxHashMap<CuboidMask, FxHashMap<Vec<u32>, S>> = FxHashMap::default();
    for (mask, (l, es)) in packed {
        let mut groups: FxHashMap<Vec<u32>, S> = FxHashMap::default();
        groups.reserve(es.len());
        for (k, s) in es {
            groups.insert(l.decode(k), s);
        }
        cuboids.insert(mask, groups);
    }
    CubeResult { n, cuboids }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::SumCount;
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
            ("credit", 2, 9.0),
            ("cash", 1, 7.0),
            ("dispute", 3, 12.0),
            ("cash", 2, 3.0),
            ("credit", 2, 4.0),
        ];
        for (p, n, f) in data {
            b.push_row(&[p.into(), n.into(), f.into()]).unwrap();
        }
        b.finish()
    }

    fn fare_cube(t: &Table) -> CubeResult<SumCount> {
        let fares = t.column(2).as_f64_slice().unwrap().to_vec();
        compute_cube(t, &[0, 1], SumCount::default, move |s, row| s.add(fares[row as usize]))
            .unwrap()
    }

    #[test]
    fn mask_basics() {
        let m = CuboidMask::finest(3);
        assert_eq!(m.0, 0b111);
        assert_eq!(m.arity(), 3);
        assert_eq!(m.attrs(), vec![0, 1, 2]);
        assert!(CuboidMask(0b101).is_subset_of(m));
        assert!(!m.is_subset_of(CuboidMask(0b101)));
        assert_eq!(CuboidMask::enumerate(2).len(), 4);
        assert_eq!(CuboidMask::enumerate(2)[0], CuboidMask(0b11));
        assert_eq!(CuboidMask(0b01).a_parent(2), Some(CuboidMask(0b11)));
        assert_eq!(CuboidMask(0b11).a_parent(2), None);
    }

    #[test]
    fn cell_key_round_trips() {
        let key = CellKey::project(CuboidMask(0b101), &[7, 8, 9]);
        assert_eq!(key.codes, vec![Some(7), None, Some(9)]);
        assert_eq!(key.mask(), CuboidMask(0b101));
        assert_eq!(key.compact(), vec![7, 9]);
        let back = CellKey::from_compact(CuboidMask(0b101), 3, &[7, 9]);
        assert_eq!(back, key);
        assert!(key.covers(&[7, 123, 9]));
        assert!(!key.covers(&[6, 123, 9]));
    }

    #[test]
    fn lattice_edges() {
        let l = Lattice::new(3);
        assert_eq!(l.num_cuboids(), 8);
        assert_eq!(l.parents(CuboidMask(0b001)), vec![CuboidMask(0b011), CuboidMask(0b101)]);
        assert_eq!(l.children(CuboidMask(0b011)), vec![CuboidMask(0b010), CuboidMask(0b001)]);
        assert!(l.parents(CuboidMask::finest(3)).is_empty());
        assert!(l.children(CuboidMask::all_cuboid()).is_empty());
    }

    #[test]
    fn cube_all_cell_equals_full_table() {
        let t = table();
        let cube = fare_cube(&t);
        let all = cube.cell_state(&CellKey::new(vec![None, None])).unwrap();
        assert_eq!(all.count, 6);
        assert!((all.sum - 40.0).abs() < 1e-9);
    }

    #[test]
    fn cube_cells_match_direct_group_by() {
        let t = table();
        let cube = fare_cube(&t);
        // ⟨cash, *⟩: rows 0, 2, 4 → fares 5 + 7 + 3.
        let cash = cube.cell_state(&CellKey::new(vec![Some(0), None])).unwrap();
        assert_eq!(cash.count, 3);
        assert!((cash.sum - 15.0).abs() < 1e-9);
        // ⟨*, 2⟩: passengers code for value 2 is 1 → rows 1, 4, 5.
        let two = cube.cell_state(&CellKey::new(vec![None, Some(1)])).unwrap();
        assert_eq!(two.count, 3);
        assert!((two.sum - 16.0).abs() < 1e-9);
        // Finest cell ⟨credit, 2⟩ = codes (1, 1): rows 1, 5.
        let fine = cube.cell_state(&CellKey::new(vec![Some(1), Some(1)])).unwrap();
        assert_eq!(fine.count, 2);
        assert!((fine.sum - 13.0).abs() < 1e-9);
    }

    #[test]
    fn total_cells_counts_every_cuboid() {
        let t = table();
        let cube = fare_cube(&t);
        // Finest groups: (cash,1),(credit,2),(dispute,3),(cash,2) = 4;
        // payment cuboid: 3; passengers cuboid: 3; ALL: 1.
        assert_eq!(cube.total_cells(), 4 + 3 + 3 + 1);
        assert_eq!(cube.iter_cells().count(), cube.total_cells());
    }

    #[test]
    fn rollup_sums_are_consistent_across_cuboids() {
        let t = table();
        let cube = fare_cube(&t);
        // Every cuboid's states must sum to the full table's totals.
        for (mask, groups) in &cube.cuboids {
            let total: f64 = groups.values().map(|s| s.sum).sum();
            let count: u64 = groups.values().map(|s| s.count).sum();
            assert!((total - 40.0).abs() < 1e-9, "mask {mask:?}");
            assert_eq!(count, 6, "mask {mask:?}");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(CuboidMask::all_cuboid().to_string(), "ALL");
        assert_eq!(CuboidMask(0b101).to_string(), "a0,a2");
        let key = CellKey::new(vec![Some(1), None]);
        assert_eq!(key.to_string(), "⟨1, *⟩");
    }

    /// The run-aligned finest scan must be *byte-identical* (float bits
    /// included) to the chunked kernel over decoded codes: folds happen
    /// per row in ascending order in both, so per-state addition sequences
    /// match exactly — at either key width.
    #[test]
    fn run_aligned_finest_scan_is_byte_identical() {
        let schema = Schema::new(vec![
            Field::new("a", ColumnType::Str),
            Field::new("b", ColumnType::Int64),
            Field::new("m", ColumnType::Float64),
        ]);
        let mut b = TableBuilder::new(schema);
        for row in 0..1300usize {
            let blk = row / 71;
            b.push_row(&[
                ["n", "s", "e", "w"][blk % 4].into(),
                ((blk % 6) as i64).into(),
                ((row % 13) as f64 * 0.1 + 0.01).into(),
            ])
            .unwrap();
        }
        let t = b.finish().with_encoding(crate::EncodingMode::Force);
        let fares: Vec<f64> = t.column(2).as_f64_slice().unwrap().to_vec();
        let fold = move |s: &mut SumCount, row: RowId| s.add(fares[row as usize]);
        let cats: Vec<Cat<'_>> = (0..2).map(|c| t.cat(c).unwrap()).collect();
        let runs: Vec<RunsView<'_, u32>> = cats.iter().map(|c| c.runs().unwrap()).collect();
        let cards: Vec<usize> = cats.iter().map(|c| c.cardinality()).collect();
        let layout = KeyLayout::from_cardinalities(&cards).unwrap();
        let make = SumCount::default;
        let aligned = finest_runs::<u64, _, _, _>(&t, &layout, &runs, &make, &fold);
        let code_slices: Vec<&[u32]> = cats.iter().map(|c| c.codes()).collect();
        let others = [
            finest_vectorized::<u64, _, _, _>(&t, &layout, &code_slices, &make, &fold),
            finest_runs::<u128, _, _, _>(&t, &layout, &runs, &make, &fold),
            finest_vectorized::<u128, _, _, _>(&t, &layout, &code_slices, &make, &fold),
        ];
        for other in &others {
            assert_eq!(aligned.len(), other.len());
            for (k, s) in &aligned {
                let r = &other[k];
                assert_eq!(s.count, r.count, "key {k:?}");
                assert_eq!(s.sum.to_bits(), r.sum.to_bits(), "key {k:?}");
            }
        }
    }

    /// Finest ids follow first-seen row order, counts and keys agree with
    /// a group-by, and gathering a cuboid's cells reproduces its groups
    /// with rows ascending — plain and RLE-encoded alike.
    #[test]
    fn finest_cell_ids_match_group_by() {
        let schema =
            Schema::new(vec![Field::new("a", ColumnType::Str), Field::new("b", ColumnType::Int64)]);
        let mut b = TableBuilder::new(schema);
        for row in 0..150_000usize {
            let blk = row / 53;
            b.push_row(&[["n", "s", "e"][blk % 3].into(), ((blk % 7) as i64).into()]).unwrap();
        }
        let plain = b.finish().with_encoding(crate::EncodingMode::Off);
        let fine = finest_cell_ids(&plain, &[0, 1]).unwrap();
        let encoded = plain.with_encoding(crate::EncodingMode::Force);
        assert!(encoded.cat(0).unwrap().runs().is_some());
        assert_eq!(finest_cell_ids(&encoded, &[0, 1]).unwrap(), fine);

        let mut first_seen = Vec::new();
        for &id in fine.ids() {
            if id as usize == first_seen.len() {
                first_seen.push(id);
            }
            assert!((id as usize) < first_seen.len(), "id {id} skips ahead");
        }
        let groups = crate::group_by(&plain, &[0, 1]).unwrap().groups;
        assert_eq!(fine.len(), groups.len());
        for id in 0..fine.len() as u32 {
            assert_eq!(groups[fine.key(id)].len(), fine.counts()[id as usize] as usize);
        }
        // Cuboid on attribute 1 only: gather two of its cells.
        let cells = vec![vec![3], vec![0]];
        let mut visited = Vec::new();
        let rows = fine.gather(&[1], &cells, |cell, row| visited.push((cell, row)));
        let by_b = crate::group_by(&plain, &[1]).unwrap().groups;
        assert_eq!(rows[0], by_b[&vec![3]]);
        assert_eq!(rows[1], by_b[&vec![0]]);
        assert_eq!(rows[0].capacity(), rows[0].len());
        assert!(visited.windows(2).all(|w| w[0].1 < w[1].1));
        assert_eq!(visited.len(), rows[0].len() + rows[1].len());
        // A cell outside the domain gathers nothing.
        assert_eq!(fine.gather(&[1], &[vec![99]], |_, _| ()), vec![Vec::<RowId>::new()]);
    }

    #[test]
    fn finest_cuboid_respects_values() {
        let t = table();
        let finest = finest_cuboid(&t, &[0], SumCount::default, |s, _row| s.add(1.0)).unwrap();
        assert_eq!(finest.len(), 3);
        assert_eq!(finest[&vec![0]].count, 3);
    }
}
