//! Integration test: the parallel execution layer must be invisible in
//! the results. A `SamplingCube` built under `TABULA_THREADS` ∈ {1, 2, 8}
//! is byte-identical — same cube table, same samples, same global sample,
//! same build accounting — because morsel boundaries, merge order and
//! per-cell sampling depend only on the input, never on scheduling.

use std::sync::Arc;
use tabula_core::cube::{SampleProvenance, SamplingCube};
use tabula_core::loss::{HeatmapLoss, MeanLoss, Metric};
use tabula_core::{refresh, RefreshConfig, SamplingCubeBuilder};
use tabula_data::{meters_to_norm, TaxiConfig, TaxiGenerator, Workload, CUBED_ATTRIBUTES};
use tabula_storage::cube::CellKey;
use tabula_storage::{RowId, Table, TableBuilder};

fn build(table: &Arc<Table>, threads: usize) -> SamplingCube {
    // The scoped override steers every Pool::global() call in the build
    // (finest scan, rollup, dry-run classify, group-by, semi-join,
    // SamGraph) on this test's thread only; the builder's own knob covers
    // the real-run pool.
    let fare = table.schema().index_of("fare_amount").unwrap();
    tabula_par::scoped_threads(threads, || {
        SamplingCubeBuilder::new(
            Arc::clone(table),
            &CUBED_ATTRIBUTES[..4],
            MeanLoss::new(fare),
            0.05,
        )
        .seed(13)
        .parallelism(threads)
        .build()
        .expect("cube build succeeds")
    })
}

/// Everything observable about a cube, in a canonical order.
struct Fingerprint {
    cells: Vec<(CellKey, Vec<RowId>)>,
    global_sample: Vec<RowId>,
    iceberg_cells: usize,
    samples_after_selection: usize,
}

fn fingerprint(cube: &SamplingCube) -> Fingerprint {
    let mut cells: Vec<(CellKey, Vec<RowId>)> =
        cube.cube_table().map(|(k, id)| (k.clone(), cube.sample(id).as_ref().clone())).collect();
    cells.sort_by(|a, b| a.0.codes.cmp(&b.0.codes));
    Fingerprint {
        cells,
        global_sample: cube.global_sample().as_ref().clone(),
        iceberg_cells: cube.stats().iceberg_cells,
        samples_after_selection: cube.stats().samples_after_selection,
    }
}

#[test]
fn cube_is_identical_for_one_two_and_eight_threads() {
    let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 8_000, seed: 31 }).generate());
    let baseline = fingerprint(&build(&table, 1));
    assert!(!baseline.cells.is_empty(), "seeded build must materialize iceberg cells");
    for threads in [2usize, 8] {
        let got = fingerprint(&build(&table, threads));
        assert_eq!(
            baseline.iceberg_cells, got.iceberg_cells,
            "iceberg cell count differs between 1 and {threads} threads"
        );
        assert_eq!(
            baseline.samples_after_selection, got.samples_after_selection,
            "sample count after selection differs between 1 and {threads} threads"
        );
        assert_eq!(
            baseline.global_sample, got.global_sample,
            "global sample differs between 1 and {threads} threads"
        );
        assert_eq!(
            baseline.cells.len(),
            got.cells.len(),
            "cube table size differs between 1 and {threads} threads"
        );
        for ((cell_a, sample_a), (cell_b, sample_b)) in baseline.cells.iter().zip(&got.cells) {
            assert_eq!(cell_a, cell_b, "cube-table keys differ at {threads} threads");
            assert_eq!(sample_a, sample_b, "sample of {cell_a} differs at {threads} threads");
        }
    }
}

/// The heat-map loss exercises the *sample-dependent* SamGraph join path
/// (per-row states are distances to the candidate sample, so candidates
/// are ranked by signature and re-folded per pair) — a different
/// parallel code path than the state-reuse join the mean loss takes.
/// Both must be scheduling-invariant.
#[test]
fn sample_dependent_selection_path_is_identical_across_thread_counts() {
    let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 6_000, seed: 41 }).generate());
    let pickup = table.schema().index_of("pickup").unwrap();
    let build_heatmap = |threads: usize| {
        tabula_par::scoped_threads(threads, || {
            SamplingCubeBuilder::new(
                Arc::clone(&table),
                &CUBED_ATTRIBUTES[..4],
                HeatmapLoss::new(pickup, Metric::Euclidean),
                meters_to_norm(500.0),
            )
            .seed(13)
            .parallelism(threads)
            .build()
            .expect("heatmap cube build succeeds")
        })
    };
    let baseline = fingerprint(&build_heatmap(1));
    assert!(!baseline.cells.is_empty(), "θ must produce iceberg cells");
    for threads in [2usize, 8] {
        let got = fingerprint(&build_heatmap(threads));
        assert_eq!(baseline.global_sample, got.global_sample);
        assert_eq!(baseline.iceberg_cells, got.iceberg_cells);
        assert_eq!(
            baseline.samples_after_selection, got.samples_after_selection,
            "sample-dependent selection differs between 1 and {threads} threads"
        );
        assert_eq!(baseline.cells, got.cells, "cube differs at {threads} threads");
    }
}

/// An appends-only extension of `base`: same schema, every base row in
/// order, then every row of `extra`.
fn extend(base: &Table, extra: &Table) -> Arc<Table> {
    let mut b = TableBuilder::new(base.schema().clone());
    for i in 0..base.len() {
        b.push_row(&base.row(i)).expect("base row");
    }
    for i in 0..extra.len() {
        b.push_row(&extra.row(i)).expect("extra row");
    }
    Arc::new(b.finish())
}

/// Determinism must survive an `incremental` refresh too: the refreshed
/// cube — reused cells, resampled cells, redrawn global sample — is
/// byte-identical whatever the thread count of either the base build or
/// the refresh.
#[test]
fn refreshed_cube_is_identical_across_thread_counts() {
    let base = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 6_000, seed: 31 }).generate());
    let extra = TaxiGenerator::new(TaxiConfig { rows: 1_500, seed: 77 }).generate();
    let extended = extend(&base, &extra);
    let fare = base.schema().index_of("fare_amount").unwrap();
    let refresh_at = |threads: usize| {
        let cube = build(&base, threads);
        let config = RefreshConfig { seed: 99, parallelism: threads, ..RefreshConfig::default() };
        let (refreshed, stats) = tabula_par::scoped_threads(threads, || {
            refresh(&cube, Arc::clone(&extended), &MeanLoss::new(fare), config)
                .expect("refresh succeeds")
        });
        (fingerprint(&refreshed), stats)
    };
    let (baseline, stats) = refresh_at(1);
    assert_eq!(stats.appended_rows, extra.len());
    assert!(!baseline.cells.is_empty(), "refresh must keep iceberg cells");
    for threads in [2usize, 8] {
        let (got, got_stats) = refresh_at(threads);
        assert_eq!(
            (stats.reused_cells, stats.resampled_cells, stats.retired_cells),
            (got_stats.reused_cells, got_stats.resampled_cells, got_stats.retired_cells),
            "refresh accounting differs between 1 and {threads} threads"
        );
        assert_eq!(
            baseline.global_sample, got.global_sample,
            "refreshed global sample differs between 1 and {threads} threads"
        );
        assert_eq!(baseline.iceberg_cells, got.iceberg_cells);
        assert_eq!(baseline.cells, got.cells, "refreshed cube differs at {threads} threads");
    }
}

/// The compressed-storage invariant: the cube is a pure function of the
/// data — not of the column encoding or the thread count. Sweep the
/// table's `Off`/`Force`/`Auto` freezes × threads={1,4}; every build must
/// be byte-identical to the plain single-threaded baseline, float bits
/// included.
#[test]
fn cube_is_identical_across_encodings_and_threads() {
    use tabula_storage::EncodingMode;
    let table = TaxiGenerator::new(TaxiConfig { rows: 8_000, seed: 47 }).generate();
    let baseline = fingerprint(&build(&Arc::new(table.with_encoding(EncodingMode::Off)), 1));
    assert!(!baseline.cells.is_empty());
    for enc in [EncodingMode::Off, EncodingMode::Force, EncodingMode::Auto] {
        let encoded = Arc::new(table.with_encoding(enc));
        for threads in [1usize, 4] {
            let got = fingerprint(&build(&encoded, threads));
            assert_eq!(baseline.iceberg_cells, got.iceberg_cells, "{enc:?} x{threads}");
            assert_eq!(baseline.global_sample, got.global_sample, "{enc:?} x{threads}");
            assert_eq!(baseline.cells, got.cells, "cube differs under encoding={enc:?} x{threads}");
        }
    }
}

#[test]
fn provenance_counters_are_thread_count_independent() {
    let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 6_000, seed: 23 }).generate());
    let attrs: Vec<&str> = CUBED_ATTRIBUTES[..4].to_vec();
    let queries =
        Workload::new(&attrs).generate(&table, 120, 0xACE).expect("workload generation succeeds");
    let mut tallies: Vec<(u64, u64)> = Vec::new();
    for threads in [1usize, 2, 8] {
        // A private registry per cube keeps the provenance counters from
        // accumulating across the three builds (they are registry-backed).
        let registry = tabula_obs::Registry::new();
        let cube = build(&table, threads).with_registry(&registry);
        let (mut local, mut global) = (0u64, 0u64);
        for q in &queries {
            match cube.query_cell(&q.cell).provenance {
                SampleProvenance::Local(_) => local += 1,
                SampleProvenance::Global => global += 1,
                SampleProvenance::EmptyDomain => unreachable!("query_cell never misses"),
            }
        }
        assert_eq!(cube.provenance_counters().total(), queries.len() as u64);
        tallies.push((local, global));
    }
    assert_eq!(tallies[0], tallies[1], "provenance split differs between 1 and 2 threads");
    assert_eq!(tallies[0], tallies[2], "provenance split differs between 1 and 8 threads");
}

/// The real run's finest-cell labels and its entries — cells, rows,
/// samples and folded states — are identical at 1, 2 and 8 threads. The
/// table spans three morsels, so the label merge across morsels runs.
#[test]
fn real_run_is_identical_for_one_two_and_eight_threads() {
    use tabula_core::dryrun::dry_run;
    use tabula_core::realrun::real_run;
    use tabula_core::serfling::draw_global_sample;
    use tabula_core::AccuracyLoss;
    use tabula_storage::cube::finest_cell_ids;

    let table = TaxiGenerator::new(TaxiConfig { rows: 140_000, seed: 5 }).generate();
    let cols: Vec<usize> =
        CUBED_ATTRIBUTES[..4].iter().map(|a| table.schema().index_of(a).unwrap()).collect();
    let loss = MeanLoss::new(table.schema().index_of("fare_amount").unwrap());
    let ctx = loss.prepare(&table, &draw_global_sample(&table, 500, 3));
    let run = |threads: usize| {
        tabula_par::scoped_threads(threads, || {
            let fine = finest_cell_ids(&table, &cols).unwrap();
            let dry = dry_run(&table, &cols, &loss, &ctx, 0.05).unwrap();
            let rr = real_run(&table, &cols, &loss, 0.05, &dry, threads).unwrap();
            let entries: Vec<_> = rr
                .entries
                .into_iter()
                .map(|e| (e.cell, e.rows, e.sample, e.state.map(|s| (s.sum.to_bits(), s.count))))
                .collect();
            (fine, entries)
        })
    };
    let (fine, entries) = run(1);
    assert!(!entries.is_empty(), "seeded run must fetch iceberg cells");
    for threads in [2usize, 8] {
        let (f, e) = run(threads);
        assert!(f == fine, "finest-cell ids differ between 1 and {threads} threads");
        assert!(e == entries, "real-run entries differ between 1 and {threads} threads");
    }
}
