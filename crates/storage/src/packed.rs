//! Bit-packed grouping keys for the group-by / cube / semi-join kernels.
//!
//! Attribute `i` with cardinality `cᵢ` needs only `⌈log₂ cᵢ⌉` bits, so a
//! whole grouping key occupies `Σ ⌈log₂ cᵢ⌉` bits instead of 32 bits per
//! attribute ([`KeyLayout`]). A key is one machine word of a
//! [`PackedKey`] type: `u64` when the layout fits 64 bits (every
//! realistic dashboard cube — seven attributes of cardinality 100 need 49
//! bits), `u128` up to [`MAX_KEY_BITS`]. Each kernel picks the type once
//! per call from [`KeyLayout::total_bits`]; wider layouts are a typed
//! [`StorageError::KeyTooWide`]. Hashing is a one- or two-word mix,
//! equality one compare, and the lattice rollup merges parent states by
//! *squeezing* the removed attribute's bit field out of the key without
//! ever re-decoding.
//!
//! Layouts place attribute 0 in the **highest** bits, so ascending key
//! order equals ascending lexicographic order of the decoded code tuples.
//! The rollup relies on this: sorting packed entries gives the canonical
//! lexicographic merge order that keeps float bits a function of cube
//! content alone (see `cube::rollup_from_finest`).
//!
//! [`PackedKeyBuf`] reuses its allocation across refills (`clear` +
//! `resize` never shrink capacity), so steady-state loops — morsel after
//! morsel, or incremental-refresh round after round — allocate nothing.

use crate::table::RowId;
use crate::{Result, StorageError};
use std::ops::{BitAnd, BitOr, BitOrAssign, Shl, Shr, Sub};

/// Widest packed key any kernel supports, in bits.
pub const MAX_KEY_BITS: u32 = 128;

/// An unsigned machine word holding one bit-packed grouping key.
pub trait PackedKey:
    Copy
    + Eq
    + Ord
    + std::hash::Hash
    + Default
    + std::fmt::Debug
    + Send
    + Sync
    + 'static
    + From<u32>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
    + BitOr<Output = Self>
    + BitOrAssign
    + BitAnd<Output = Self>
    + Sub<Output = Self>
{
    /// Width of the word in bits.
    const BITS: u32;
    /// The low 32 bits (one attribute's field after shift and mask).
    fn low_u32(self) -> u32;
}

impl PackedKey for u64 {
    const BITS: u32 = u64::BITS;
    #[inline]
    fn low_u32(self) -> u32 {
        self as u32
    }
}

impl PackedKey for u128 {
    const BITS: u32 = u128::BITS;
    #[inline]
    fn low_u32(self) -> u32 {
        self as u32
    }
}

/// Bit-field layout of a packed grouping key: attribute `i` occupies
/// `bits[i] = ⌈log₂ cᵢ⌉` bits (0 bits when `cᵢ ≤ 1` — a single-valued
/// attribute carries no information), laid out with attribute 0 at the
/// highest bit position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyLayout {
    bits: Vec<u8>,
    shifts: Vec<u8>,
    total_bits: u32,
}

impl KeyLayout {
    /// Build the layout for the given per-attribute cardinalities, or
    /// [`StorageError::KeyTooWide`] when the packed key would exceed
    /// [`MAX_KEY_BITS`].
    pub fn from_cardinalities(cards: &[usize]) -> Result<KeyLayout> {
        let bits: Vec<u8> = cards.iter().map(|&c| Self::bits_for(c)).collect();
        let total: u32 = bits.iter().map(|&b| b as u32).sum();
        if total > MAX_KEY_BITS {
            return Err(StorageError::KeyTooWide { bits: total, max: MAX_KEY_BITS });
        }
        Ok(Self::with_bits(bits, total))
    }

    /// Attribute 0 highest: shiftᵢ = total − (bits₀ + … + bitsᵢ).
    fn with_bits(bits: Vec<u8>, total_bits: u32) -> KeyLayout {
        let mut shifts = Vec::with_capacity(bits.len());
        let mut used = 0u32;
        for &b in &bits {
            used += b as u32;
            shifts.push((total_bits - used) as u8);
        }
        KeyLayout { bits, shifts, total_bits }
    }

    /// Bits needed to store any code of an attribute with cardinality
    /// `card` (codes are dense `0..card`).
    fn bits_for(card: usize) -> u8 {
        if card <= 1 {
            0
        } else {
            (usize::BITS - (card - 1).leading_zeros()) as u8
        }
    }

    /// Number of attributes in the key.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Total bits a packed key occupies (`Σ ⌈log₂ cᵢ⌉ ≤ MAX_KEY_BITS`).
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Bit width of attribute `i`.
    pub fn attr_bits(&self, i: usize) -> u32 {
        self.bits[i] as u32
    }

    #[inline]
    fn field_mask<K: PackedKey>(bits: u32) -> K {
        // Per-attribute widths are ≤ 32 (codes are u32), so no overflow.
        (K::from(1) << bits) - K::from(1)
    }

    /// Pack one code tuple into a `K` (which must be at least
    /// [`total_bits`](Self::total_bits) wide). Codes must be in range
    /// (`< 2^bits[i]`); out of range codes would alias, so debug builds
    /// assert.
    #[inline]
    pub fn encode<K: PackedKey>(&self, codes: &[u32]) -> K {
        debug_assert!(self.total_bits <= K::BITS);
        debug_assert_eq!(codes.len(), self.bits.len());
        let mut key = K::default();
        for (i, &c) in codes.iter().enumerate() {
            debug_assert!(
                self.bits[i] == 32 || (c as u64) < (1u64 << self.bits[i]),
                "code {c} exceeds {} bits",
                self.bits[i]
            );
            if self.bits[i] != 0 {
                key |= K::from(c) << self.shifts[i] as u32;
            }
        }
        key
    }

    /// Whether every code of `codes` fits its bit field — i.e. whether
    /// [`encode`](Self::encode) is injective for this tuple. Build-side
    /// guard for semi-join probes whose cells may carry codes from a wider
    /// domain than the probe table's.
    #[inline]
    pub fn fits(&self, codes: &[u32]) -> bool {
        codes.len() == self.bits.len()
            && codes.iter().zip(&self.bits).all(|(&c, &b)| b == 32 || (c as u64) < (1u64 << b))
    }

    /// Unpack a key into `out` (cleared first).
    #[inline]
    pub fn decode_into<K: PackedKey>(&self, key: K, out: &mut Vec<u32>) {
        out.clear();
        for i in 0..self.bits.len() {
            let b = self.bits[i] as u32;
            let field = if b == 0 {
                0
            } else {
                ((key >> self.shifts[i] as u32) & Self::field_mask::<K>(b)).low_u32()
            };
            out.push(field);
        }
    }

    /// Unpack a key into a fresh vector.
    pub fn decode<K: PackedKey>(&self, key: K) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.bits.len());
        self.decode_into(key, &mut out);
        out
    }

    /// Remove attribute `removed`'s bit field from `key`, closing the gap —
    /// the packed form of dropping one position from a compact code tuple.
    /// The result is exactly what [`Self::without_attr`]'s layout encodes
    /// for the shortened tuple, so the lattice rollup maps parent keys to
    /// child keys with two shifts and a mask, never re-decoding.
    #[inline]
    pub fn squeeze<K: PackedKey>(&self, key: K, removed: usize) -> K {
        let b = self.bits[removed] as u32;
        if b == 0 {
            return key;
        }
        let s = self.shifts[removed] as u32;
        let low = if s == 0 { K::default() } else { key & ((K::from(1) << s) - K::from(1)) };
        let high = if s + b >= K::BITS { K::default() } else { key >> (s + b) };
        (high << s) | low
    }

    /// The layout of keys with attribute `removed` squeezed out.
    pub fn without_attr(&self, removed: usize) -> KeyLayout {
        let mut bits = self.bits.clone();
        bits.remove(removed);
        Self::with_bits(bits, self.total_bits - self.bits[removed] as u32)
    }
}

/// A reusable buffer of bit-packed grouping keys, one per row. Filled
/// column-major (each code slice walked once, OR-ing its shifted field
/// in), consumed as a plain `&[K]`. Refills reuse capacity.
#[derive(Debug, Default)]
pub struct PackedKeyBuf<K> {
    keys: Vec<K>,
}

impl<K: PackedKey> PackedKeyBuf<K> {
    /// An empty buffer.
    pub fn new() -> Self {
        PackedKeyBuf { keys: Vec::new() }
    }

    /// Pack the keys of a contiguous row range.
    pub fn fill_range(
        &mut self,
        layout: &KeyLayout,
        code_slices: &[&[u32]],
        range: std::ops::Range<usize>,
    ) {
        debug_assert_eq!(code_slices.len(), layout.width());
        self.keys.clear();
        self.keys.resize(range.len(), K::default());
        for (i, codes) in code_slices.iter().enumerate() {
            if layout.bits[i] == 0 {
                continue;
            }
            let shift = layout.shifts[i] as u32;
            for (k, &code) in self.keys.iter_mut().zip(&codes[range.clone()]) {
                *k |= K::from(code) << shift;
            }
        }
    }

    /// Pack the keys of an explicit row-id list (selection-vector path).
    pub fn fill(&mut self, layout: &KeyLayout, code_slices: &[&[u32]], rows: &[RowId]) {
        debug_assert_eq!(code_slices.len(), layout.width());
        self.keys.clear();
        self.keys.resize(rows.len(), K::default());
        for (i, codes) in code_slices.iter().enumerate() {
            if layout.bits[i] == 0 {
                continue;
            }
            let shift = layout.shifts[i] as u32;
            for (k, &row) in self.keys.iter_mut().zip(rows) {
                *k |= K::from(codes[row as usize]) << shift;
            }
        }
    }

    /// The packed keys, in row order.
    #[inline]
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// Allocated capacity, in keys (diagnostics / capacity tests).
    pub fn capacity(&self) -> usize {
        self.keys.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // The literal's groups mirror the 2/2/1-bit field widths, not bytes.
    #[allow(clippy::unusual_byte_groupings)]
    fn layout_packs_attr0_highest() {
        // cards (4, 3, 2) → bits (2, 2, 1), total 5.
        let l = KeyLayout::from_cardinalities(&[4, 3, 2]).unwrap();
        assert_eq!(l.total_bits(), 5);
        assert_eq!((l.attr_bits(0), l.attr_bits(1), l.attr_bits(2)), (2, 2, 1));
        let k: u64 = l.encode(&[3, 2, 1]);
        assert_eq!(k, 0b11_10_1);
        assert_eq!(l.decode(k), vec![3, 2, 1]);
        // Ascending key ⇔ ascending lexicographic code order.
        assert!(l.encode::<u64>(&[1, 2, 1]) < l.encode(&[2, 0, 0]));
        assert!(l.encode::<u64>(&[2, 0, 1]) < l.encode(&[2, 1, 0]));
        // The same layout packs identically into a wider word.
        assert_eq!(l.encode::<u128>(&[3, 2, 1]), k as u128);
    }

    #[test]
    fn layout_handles_degenerate_widths() {
        // Single-valued attributes carry zero bits.
        let l = KeyLayout::from_cardinalities(&[1, 5, 1]).unwrap();
        assert_eq!(l.total_bits(), 3);
        let k: u64 = l.encode(&[0, 4, 0]);
        assert_eq!(l.decode(k), vec![0, 4, 0]);
        // Empty layout: the ALL cuboid's zero-width key.
        let l = KeyLayout::from_cardinalities(&[]).unwrap();
        assert_eq!(l.encode::<u64>(&[]), 0);
        assert_eq!(l.decode(0u64), Vec::<u32>::new());
    }

    #[test]
    fn layout_rejects_keys_over_128_bits() {
        // 22 + 22 + 21 = 65 bits: past one word, within two.
        let l = KeyLayout::from_cardinalities(&[1 << 22, 1 << 22, 1 << 21]).unwrap();
        assert_eq!(l.total_bits(), 65);
        // Four full 32-bit fields: exactly 128 bits.
        let l = KeyLayout::from_cardinalities(&[1 << 32; 4]).unwrap();
        assert_eq!(l.total_bits(), 128);
        // One bit more is a typed error.
        assert_eq!(
            KeyLayout::from_cardinalities(&[1 << 32, 1 << 32, 1 << 32, 1 << 32, 2]),
            Err(StorageError::KeyTooWide { bits: 129, max: 128 })
        );
    }

    #[test]
    fn squeeze_matches_child_layout_encoding() {
        let l = KeyLayout::from_cardinalities(&[4, 3, 2, 1]).unwrap();
        let codes = [3u32, 2, 1, 0];
        let key: u64 = l.encode(&codes);
        for removed in 0..4 {
            let child = l.without_attr(removed);
            let mut child_codes = codes.to_vec();
            child_codes.remove(removed);
            assert_eq!(l.squeeze(key, removed), child.encode(&child_codes), "attr {removed}");
        }
    }

    #[test]
    fn squeeze_full_width_key() {
        // 64 bits total: squeezing must not shift by ≥ 64.
        let l = KeyLayout::from_cardinalities(&[1 << 32, 1 << 32]).unwrap();
        assert_eq!(l.total_bits(), 64);
        let key: u64 = l.encode(&[u32::MAX, 7]);
        assert_eq!(l.squeeze(key, 0), 7);
        assert_eq!(l.squeeze(key, 1), u32::MAX as u64);
        // 128 bits total in the wide word, same edge.
        let l = KeyLayout::from_cardinalities(&[1 << 32; 4]).unwrap();
        let key: u128 = l.encode(&[u32::MAX, 1, 2, 3]);
        assert_eq!(l.decode(key), vec![u32::MAX, 1, 2, 3]);
        assert_eq!(l.without_attr(0).decode(l.squeeze(key, 0)), vec![1, 2, 3]);
        assert_eq!(l.without_attr(3).decode(l.squeeze(key, 3)), vec![u32::MAX, 1, 2]);
    }

    #[test]
    fn fits_guards_out_of_range_codes() {
        let l = KeyLayout::from_cardinalities(&[4, 2]).unwrap();
        assert!(l.fits(&[3, 1]));
        assert!(!l.fits(&[4, 0]));
        assert!(!l.fits(&[0, 2]));
        assert!(!l.fits(&[0]));
    }

    #[test]
    fn key_buf_matches_per_row_encode() {
        let l = KeyLayout::from_cardinalities(&[4, 3]).unwrap();
        let a: Vec<u32> = vec![0, 1, 2, 3, 0];
        let b: Vec<u32> = vec![2, 1, 0, 2, 1];
        let slices: Vec<&[u32]> = vec![&a, &b];
        let mut buf = PackedKeyBuf::<u64>::new();
        buf.fill_range(&l, &slices, 1..4);
        let expect: Vec<u64> = (1..4).map(|r| l.encode(&[a[r], b[r]])).collect();
        assert_eq!(buf.keys(), &expect[..]);
        buf.fill(&l, &slices, &[4, 0]);
        assert_eq!(buf.keys(), &[l.encode(&[0, 1]), l.encode(&[0, 2])]);
        let mut wide = PackedKeyBuf::<u128>::new();
        wide.fill(&l, &slices, &[4, 0]);
        assert_eq!(wide.keys(), &[l.encode(&[0, 1]), l.encode(&[0, 2])]);
    }

    #[test]
    fn key_buf_refills_never_reallocate() {
        let l = KeyLayout::from_cardinalities(&[16, 16]).unwrap();
        let a: Vec<u32> = (0..1000).map(|i| i % 16).collect();
        let slices: Vec<&[u32]> = vec![&a, &a];
        let mut buf = PackedKeyBuf::<u64>::new();
        buf.fill_range(&l, &slices, 0..1000);
        let cap = buf.capacity();
        let ptr = buf.keys.as_ptr();
        for round in 0..10 {
            buf.fill_range(&l, &slices, 0..(round * 97) % 1000);
            let rows: Vec<RowId> = (0..(round * 31) as RowId).collect();
            buf.fill(&l, &slices, &rows);
            assert_eq!(buf.capacity(), cap, "capacity changed on round {round}");
            assert_eq!(buf.keys.as_ptr(), ptr, "buffer reallocated on round {round}");
        }
    }
}
