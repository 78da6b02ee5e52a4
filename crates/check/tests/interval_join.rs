//! The mean loss's SamGraph interval join against the exhaustive
//! reference join: every edge list must come out identical — same
//! targets, same order — across the edge cases of the key-range
//! argument (negative means, means inside the `REL_EPS` guard, empty
//! samples, θ = 0, θ ≥ 1, duplicate keys, losses within one ulp of θ)
//! and on random cubes.

use proptest::prelude::*;
use tabula_check::reference::samgraph_reference;
use tabula_core::loss::{AccuracyLoss, MeanLoss};
use tabula_core::realrun::{fold_state, CubeEntry};
use tabula_core::samgraph::{build_samgraph, SamGraphConfig};
use tabula_storage::agg::SumCount;
use tabula_storage::cube::CellKey;
use tabula_storage::{ColumnType, Field, RowId, Schema, Table, TableBuilder};

/// One value column holding every cell's raw values then every sample's
/// values; entry `i` covers its own raw rows and samples its own rows.
fn cube(cells: &[(Vec<f64>, Vec<f64>)]) -> (Table, Vec<CubeEntry<SumCount>>) {
    let mut b = TableBuilder::new(Schema::new(vec![Field::new("v", ColumnType::Float64)]));
    let mut spans = Vec::new();
    let mut next: RowId = 0;
    let mut push = |values: &[f64]| {
        let start = next;
        for &v in values {
            b.push_row(&[v.into()]).unwrap();
            next += 1;
        }
        (start..next).collect::<Vec<RowId>>()
    };
    for (raw, sample) in cells {
        spans.push((push(raw), push(sample)));
    }
    let table = b.finish();
    let loss = MeanLoss::new(0);
    let entries = spans
        .into_iter()
        .enumerate()
        .map(|(i, (rows, sample))| CubeEntry {
            cell: CellKey::new(vec![Some(i as u32)]),
            state: fold_state(&loss, &table, &rows),
            rows,
            sample,
        })
        .collect();
    (table, entries)
}

fn joins_agree(cells: &[(Vec<f64>, Vec<f64>)], theta: f64) -> Vec<Vec<u32>> {
    let (table, entries) = cube(cells);
    let loss = MeanLoss::new(0);
    let got = build_samgraph(&table, &loss, theta, &entries, &SamGraphConfig::default()).edges;
    let want = samgraph_reference(&table, &loss, theta, &entries);
    assert_eq!(got, want, "θ = {theta:e}");
    got
}

fn cell(raw: &[f64], sample: &[f64]) -> (Vec<f64>, Vec<f64>) {
    (raw.to_vec(), sample.to_vec())
}

#[test]
fn negative_means() {
    let cells = [
        cell(&[-10.0, -12.0], &[-11.0]),
        cell(&[-10.5], &[-10.5]),
        cell(&[-11.4, -10.6], &[-12.0]),
        cell(&[10.0, 12.0], &[11.0]),
        cell(&[-3.0, 1.0], &[-1.0]),
    ];
    for theta in [0.0, 0.01, 0.05, 0.1, 0.5, 0.9] {
        joins_agree(&cells, theta);
    }
    // Same sign only: a positive cell never represents a negative one.
    let edges = joins_agree(&cells, 0.1);
    assert!(edges[0].contains(&1) && edges[0].contains(&2) && !edges[0].contains(&3));
}

#[test]
fn raw_means_inside_the_guard() {
    // Means of 0, ±1e-13 and 5e-13: the loss divides by REL_EPS = 1e-12.
    let cells = [
        cell(&[-1.0, 1.0], &[1e-13]),
        cell(&[1e-13], &[0.0]),
        cell(&[-1e-13], &[-1e-13]),
        cell(&[5e-13, 5e-13], &[4e-13]),
        cell(&[2e-12], &[1e-12]),
        cell(&[1.0], &[1.0]),
    ];
    for theta in [0.0, 0.05, 0.1, 0.2, 0.5, 0.95] {
        joins_agree(&cells, theta);
    }
}

#[test]
fn empty_sample_has_no_mean() {
    let cells = [cell(&[1.0, 2.0], &[]), cell(&[1.5], &[1.5]), cell(&[1.6], &[1.4])];
    let (table, entries) = cube(&cells);
    let ctx = MeanLoss::new(0).prepare(&table, &entries[0].sample);
    assert_eq!(MeanLoss::new(0).key_range(&ctx, 0.1), None);
    let edges = joins_agree(&cells, 0.1);
    assert_eq!(edges[0], vec![0], "an empty sample represents no other cell");
}

#[test]
fn theta_zero_and_theta_at_least_one() {
    let cells = [
        cell(&[2.0], &[2.0]),
        cell(&[1.0, 3.0], &[2.0]),
        cell(&[4.0], &[3.0]),
        cell(&[-2.0], &[2.0]),
        cell(&[0.0], &[1.0]),
    ];
    let edges = joins_agree(&cells, 0.0);
    assert_eq!(edges[0], vec![0, 1]);
    let ctx = MeanLoss::new(0).prepare(&cube(&cells).0, &[0]);
    for theta in [1.0, 1.5, 10.0] {
        assert_eq!(MeanLoss::new(0).key_range(&ctx, theta), None, "θ = {theta}");
        joins_agree(&cells, theta);
    }
    assert_eq!(MeanLoss::new(0).key_range(&ctx, f64::NAN), None);
}

#[test]
fn duplicate_keys() {
    let cells: Vec<_> = (0..12)
        .map(|i| {
            let raw = if i % 3 == 0 { vec![5.0] } else { vec![4.0, 6.0] };
            cell(&raw, &[5.0 + (i % 4) as f64 * 0.1])
        })
        .collect();
    for theta in [0.0, 0.01, 0.02, 0.05] {
        joins_agree(&cells, theta);
    }
}

#[test]
fn losses_within_one_ulp_of_theta() {
    let loss = MeanLoss::new(0);
    // Sample mean `s` of vertex 0 against raw mean `r` of vertex 1.
    for (r, s) in [(3.0, 3.3), (-7.0, -6.5), (0.1, 0.1 + 1e-9), (1e-13, 2e-13)] {
        let cells = [cell(&[s], &[s]), cell(&[r], &[r])];
        let (table, entries) = cube(&cells);
        let ctx = loss.prepare(&table, &entries[0].sample);
        let exact = loss.finish(&ctx, entries[1].state.as_ref().unwrap());
        assert!(exact > 0.0 && exact < 1.0, "loss {exact}");
        let below = f64::from_bits(exact.to_bits() - 1);
        let above = f64::from_bits(exact.to_bits() + 1);
        let (lo, hi) = loss.key_range(&ctx, exact).unwrap();
        let key = loss.state_key(entries[1].state.as_ref().unwrap()).unwrap();
        assert!(lo <= key && key <= hi, "key {key} outside [{lo}, {hi}]");
        assert!(joins_agree(&cells, exact)[0].contains(&1), "edge at θ = loss {exact:e}");
        assert!(joins_agree(&cells, above)[0].contains(&1));
        assert!(!joins_agree(&cells, below)[0].contains(&1), "edge below θ = {below:e}");
    }
}

/// Values a random cube draws from: mixed signs, a zero, means inside
/// the guard, near-duplicates.
const VALUES: [f64; 12] =
    [-3.0, -1.0, -0.5, 0.0, 1e-13, -1e-13, 0.5, 1.0, 1.0000001, 2.0, 3.0, 100.0];
const THETAS: [f64; 9] = [0.0, 1e-12, 0.01, 0.05, 0.1, 0.3, 0.999, 1.0, 1.5];

fn arb_cells() -> impl Strategy<Value = Vec<(Vec<f64>, Vec<f64>)>> {
    let values = |sizes| {
        proptest::collection::vec(0usize..VALUES.len(), sizes)
            .prop_map(|ix: Vec<usize>| ix.into_iter().map(|i| VALUES[i]).collect::<Vec<f64>>())
    };
    proptest::collection::vec((values(1..6), values(0..4)), 2..30)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// On random cubes at every θ, the interval join emits exactly the
    /// exhaustive join's edge lists.
    #[test]
    fn interval_join_matches_the_exhaustive_join(cells in arb_cells(), t in 0usize..THETAS.len()) {
        let (table, entries) = cube(&cells);
        let loss = MeanLoss::new(0);
        let theta = THETAS[t];
        let got = build_samgraph(&table, &loss, theta, &entries, &SamGraphConfig::default()).edges;
        prop_assert_eq!(got, samgraph_reference(&table, &loss, theta, &entries));
    }
}
