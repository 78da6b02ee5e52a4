//! Chunked-execution plumbing shared by the storage kernels.
//!
//! The storage hot loops (scan, filter, group-by, finest-cuboid
//! aggregation, semi-join) process each `tabula-par` morsel in fixed-size
//! *chunks* of [`CHUNK_ROWS`] rows. A chunk is small enough that its packed
//! keys, its [`SelectionVector`], and the touched column slices stay
//! cache-resident, while still amortizing per-batch dispatch over
//! thousands of rows.
//!
//! Chunk boundaries — like morsel boundaries — are a pure function of the
//! input length, never of the thread count, so chunking preserves the
//! tabula-par determinism contract: results are byte-identical for any
//! `TABULA_THREADS`.
//!
//! Each operator has exactly one physical implementation. Row-at-a-time
//! reference implementations, used to check these kernels, live in
//! `tabula-check`, not behind a runtime switch.

/// Number of rows per execution chunk.
pub const CHUNK_ROWS: usize = 2048;

/// Number of chunks a scan over `len` rows visits, given the morsel size
/// `morsel` — per-morsel chunking restarts at each morsel boundary, so the
/// count is `Σ ⌈morsel_len / CHUNK_ROWS⌉`. Pure arithmetic (no scan-side
/// accounting), hence identical at any thread count.
pub fn chunk_count(len: usize, morsel: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let morsel = morsel.max(1);
    let full = len / morsel;
    let tail = len % morsel;
    let per_full = morsel.div_ceil(CHUNK_ROWS) as u64;
    full as u64 * per_full + if tail > 0 { tail.div_ceil(CHUNK_ROWS) as u64 } else { 0 }
}

/// A selection vector: the row ids (ascending) of one chunk that survive
/// the predicate terms applied so far. Filters narrow it in place —
/// conjunction evaluation is "fill from the chunk range, then each term
/// retains its matches" — so one buffer is reused across every chunk of a
/// morsel with no per-chunk allocation.
#[derive(Debug, Default)]
pub struct SelectionVector {
    ids: Vec<u32>,
}

impl SelectionVector {
    /// An empty selection with room for one chunk.
    pub fn with_capacity(capacity: usize) -> Self {
        SelectionVector { ids: Vec::with_capacity(capacity) }
    }

    /// Reset to all rows of `range` (the start of a chunk's evaluation).
    pub fn fill_range(&mut self, range: std::ops::Range<usize>) {
        self.ids.clear();
        self.ids.extend(range.map(|r| r as u32));
    }

    /// Append every row id in `range`, without clearing first — used by
    /// run-encoded predicate terms that emit kept row *ranges* directly.
    #[inline]
    pub fn push_range(&mut self, range: std::ops::Range<usize>) {
        self.ids.extend(range.map(|r| r as u32));
    }

    /// Keep only the selected rows for which `keep` holds, preserving
    /// ascending order.
    #[inline]
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        self.ids.retain(|&r| keep(r));
    }

    /// Selected row ids, ascending.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.ids
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Drop all selected rows.
    pub fn clear(&mut self) {
        self.ids.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_count_is_sum_over_morsels() {
        let chunk = CHUNK_ROWS;
        // One exact morsel of 4 chunks.
        assert_eq!(chunk_count(4 * chunk, 4 * chunk), 4);
        // Two morsels: 4 full chunks + a 1-row tail chunk.
        assert_eq!(chunk_count(4 * chunk + 1, 4 * chunk), 5);
        assert_eq!(chunk_count(0, 4 * chunk), 0);
        // A partial chunk still counts.
        assert_eq!(chunk_count(1, 4 * chunk), 1);
    }

    #[test]
    fn selection_vector_narrows_in_place() {
        let mut sel = SelectionVector::with_capacity(8);
        sel.fill_range(10..18);
        assert_eq!(sel.len(), 8);
        sel.retain(|r| r % 2 == 0);
        assert_eq!(sel.as_slice(), &[10, 12, 14, 16]);
        sel.retain(|r| r > 12);
        assert_eq!(sel.as_slice(), &[14, 16]);
        sel.clear();
        assert!(sel.is_empty());
    }
}
