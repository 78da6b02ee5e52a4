//! Grouping keys wider than one machine word. Seven categorical columns
//! of 1024 values each pack into 70 bits, so every storage operator runs
//! its `u128` instantiation; the results must still match the
//! row-at-a-time references byte for byte. Past 128 bits every operator —
//! and a cube build on top of them — fails with the typed
//! `StorageError::KeyTooWide` instead of panicking.

use std::sync::Arc;
use tabula_check::reference::{diff_kernels, rollup_reference};
use tabula_check::{CaseSpec, LossSpec};
use tabula_core::loss::MeanLoss;
use tabula_core::{CoreError, SamplingCubeBuilder};
use tabula_storage::agg::Count;
use tabula_storage::cube::{finest_cuboid, rollup_from_finest};
use tabula_storage::join::semi_join;
use tabula_storage::{
    group_by, ColumnType, FxHashMap, FxHashSet, KeyLayout, StorageError, Table, Value,
};

/// A case over `attrs` categorical columns whose row `r` holds code
/// `(r / run · (2i + 1)) mod card` in column `i` — `card` distinct values
/// per column, constant over runs of `run` rows — plus a float measure
/// last (the WHERE-term generator skips the last column).
fn case(attrs: usize, card: u32, run: u32, rows: u32) -> CaseSpec {
    let names: Vec<String> = (0..attrs).map(|i| format!("a{i}")).collect();
    let mut schema: Vec<(String, ColumnType)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.clone(), if i % 2 == 0 { ColumnType::Str } else { ColumnType::Int64 }))
        .collect();
    schema.push(("m".into(), ColumnType::Float64));
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|r| {
            let block = r / run;
            let mut row: Vec<Value> = (0..attrs as u32)
                .map(|i| {
                    let code = block * (2 * i + 1) % card;
                    if i % 2 == 0 {
                        Value::Str(format!("v{code}"))
                    } else {
                        Value::Int64(code as i64)
                    }
                })
                .collect();
            row.push(Value::Float64((r % 13) as f64 * 0.37 + 0.01));
            row
        })
        .collect();
    let queries = vec![
        vec![(names[0].clone(), rows[5][0].clone())],
        vec![(names[1].clone(), rows[700][1].clone()), (names[2].clone(), rows[700][2].clone())],
    ];
    CaseSpec {
        name: format!("wide-{attrs}x{card}"),
        schema,
        rows,
        attrs: names,
        loss: LossSpec::Mean { attr: "m".into() },
        theta: 0.1,
        serfling: (0.05, 0.01),
        build_seed: 17,
        queries,
    }
}

fn cat_cards(table: &Table, cols: &[usize]) -> Vec<usize> {
    cols.iter().map(|&c| table.cat(c).unwrap().cardinality()).collect()
}

#[test]
fn operators_on_keys_over_64_bits_match_the_references() {
    // Runs of 8 rows: the Force-encoded twin stores every grouping column
    // as RLE, so the run-aligned kernels run at u128 too.
    let case = case(7, 1024, 8, 8 * 1024 + 100);
    let table = case.table();
    let cols: Vec<usize> = (0..7).collect();
    let bits = KeyLayout::from_cardinalities(&cat_cards(&table, &cols)).unwrap().total_bits();
    assert!(bits > 64 && bits <= 128, "{bits}-bit key does not exercise the wide path");
    let compared = diff_kernels(&case, &table).unwrap_or_else(|d| panic!("{d}"));
    assert!(compared > 100, "only {compared} operator calls compared");
}

#[test]
fn keys_over_128_bits_are_a_typed_error() {
    // Thirteen columns of 1024 values: 130 bits.
    let case = case(13, 1024, 1, 1024);
    let table = case.table();
    let cols: Vec<usize> = (0..13).collect();
    let too_wide = StorageError::KeyTooWide { bits: 130, max: 128 };
    assert_eq!(KeyLayout::from_cardinalities(&cat_cards(&table, &cols)), Err(too_wide.clone()));
    assert_eq!(group_by(&table, &cols).unwrap_err(), too_wide);
    assert_eq!(
        finest_cuboid(&table, &cols, Count::default, |s: &mut Count, _| s.add()).unwrap_err(),
        too_wide
    );
    let cells: FxHashSet<Vec<u32>> = [vec![0; 13]].into_iter().collect();
    assert_eq!(semi_join(&table, &cols, &cells).unwrap_err(), too_wide);
    // A finest map whose observed codes need more than 128 bits cannot be
    // rolled up either; the reference (slice keys) still can.
    let finest: FxHashMap<Vec<u32>, Count> =
        [(vec![1023; 13], Count { n: 1 })].into_iter().collect();
    assert_eq!(rollup_from_finest(13, finest.clone(), &Count::default).unwrap_err(), too_wide);
    assert_eq!(rollup_reference(13, finest, &Count::default).cuboids.len(), 1 << 13);
    // A cube build surfaces it as a storage error.
    let names: Vec<&str> = case.attrs.iter().map(String::as_str).collect();
    let m = table.schema().index_of("m").unwrap();
    let built = SamplingCubeBuilder::new(Arc::clone(&table), &names, MeanLoss::new(m), 0.1).build();
    assert!(
        matches!(built, Err(CoreError::Storage(ref e)) if *e == too_wide),
        "build over a 130-bit key: {:?}",
        built.err()
    );
}
