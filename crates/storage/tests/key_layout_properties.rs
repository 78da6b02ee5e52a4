//! Property-based tests of bit-packed key encoding ([`KeyLayout`]): the
//! packed key — `u64` up to 64 bits, `u128` up to 128 — must round-trip
//! every in-domain code tuple exactly, including zero-width attributes
//! (cardinality ≤ 1) and keys wider than one word, and `squeeze` must
//! agree with re-encoding under the shortened layout, since the lattice
//! rollup derives every child key that way without decoding.

use proptest::prelude::*;
use tabula_storage::packed::KeyLayout;
use tabula_storage::StorageError;

/// One attribute: an exponent picking the cardinality's magnitude (0 →
/// cardinality 1, a zero-width attribute) and a raw seed that maps to an
/// in-domain code.
fn arb_attrs() -> impl Strategy<Value = Vec<(usize, u32)>> {
    let attr = (0u32..23, 0u64..u64::MAX).prop_map(|(exp, seed)| {
        let card = if exp == 0 {
            1usize
        } else {
            (1usize << (exp - 1)) + (seed % (1 << (exp - 1))) as usize + 1
        };
        let code = ((seed >> 32) % card as u64) as u32;
        (card, code)
    });
    proptest::collection::vec(attr, 1..7)
}

fn total_bits(cards: &[usize]) -> u32 {
    cards.iter().map(|&c| if c <= 1 { 0 } else { usize::BITS - (c - 1).leading_zeros() }).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity on every in-domain tuple, the
    /// layout exists exactly when the packed width fits 128 bits, and a
    /// wider layout is the typed `KeyTooWide` error.
    #[test]
    fn encode_decode_round_trips(attrs in arb_attrs()) {
        let cards: Vec<usize> = attrs.iter().map(|&(c, _)| c).collect();
        let codes: Vec<u32> = attrs.iter().map(|&(_, code)| code).collect();
        let bits = total_bits(&cards);
        match KeyLayout::from_cardinalities(&cards) {
            Err(e) => {
                prop_assert!(bits > 128, "layout rejected a {bits}-bit key");
                prop_assert_eq!(e, StorageError::KeyTooWide { bits, max: 128 });
            }
            Ok(layout) => {
                prop_assert!(bits <= 128);
                prop_assert_eq!(layout.total_bits(), bits);
                prop_assert!(layout.fits(&codes));
                let wide: u128 = layout.encode(&codes);
                prop_assert_eq!(layout.decode(wide), codes.clone());
                if bits <= 64 {
                    let key: u64 = layout.encode(&codes);
                    prop_assert_eq!(key as u128, wide);
                    prop_assert_eq!(layout.decode(key), codes);
                }
            }
        }
    }

    /// Packed-key order equals lexicographic tuple order (attribute 0 in
    /// the highest bits) — the invariant that lets the rollup sort keys
    /// instead of tuples.
    #[test]
    fn packed_order_is_lexicographic(a in arb_attrs(), seed in 0u64..u64::MAX) {
        let cards: Vec<usize> = a.iter().map(|&(c, _)| c).collect();
        if let Ok(layout) = KeyLayout::from_cardinalities(&cards) {
            let x: Vec<u32> = a.iter().map(|&(_, code)| code).collect();
            // Derive a second in-domain tuple from the extra seed.
            let y: Vec<u32> = cards
                .iter()
                .enumerate()
                .map(|(i, &c)| ((seed >> (i * 8)) % c as u64) as u32)
                .collect();
            let (kx, ky): (u128, u128) = (layout.encode(&x), layout.encode(&y));
            prop_assert_eq!(kx.cmp(&ky), x.cmp(&y), "keys {:?} vs {:?}", x, y);
        }
    }

    /// Squeezing attribute `i` out of a packed key equals encoding the
    /// shortened tuple under the shortened layout.
    #[test]
    fn squeeze_agrees_with_child_encode(attrs in arb_attrs(), pick in 0usize..6) {
        let cards: Vec<usize> = attrs.iter().map(|&(c, _)| c).collect();
        let codes: Vec<u32> = attrs.iter().map(|&(_, code)| code).collect();
        if let Ok(layout) = KeyLayout::from_cardinalities(&cards) {
            let removed = pick % cards.len();
            let key: u128 = layout.encode(&codes);
            let mut child_cards = cards.clone();
            child_cards.remove(removed);
            let mut child_codes = codes.clone();
            child_codes.remove(removed);
            let child = KeyLayout::from_cardinalities(&child_cards)
                .expect("child key is narrower than its parent");
            prop_assert_eq!(layout.squeeze(key, removed), child.encode::<u128>(&child_codes));
            prop_assert_eq!(
                layout.without_attr(removed).decode(layout.squeeze(key, removed)),
                child_codes.clone()
            );
            if layout.total_bits() <= 64 {
                let narrow: u64 = layout.encode(&codes);
                prop_assert_eq!(layout.squeeze(narrow, removed), child.encode::<u64>(&child_codes));
            }
        }
    }
}
