//! **Figure 8** — sampling-cube initialization time, broken into the
//! paper's three stages (dry run / real run / sample selection), as the
//! accuracy-loss threshold θ shrinks — for the heat-map (8a), statistical
//! mean (8b) and regression (8c) loss functions — and as the number of
//! cubed attributes grows at fixed θ (8d, histogram loss).
//!
//! Every build runs against a private `tabula-obs` registry; the printed
//! stage breakdown and the machine-readable `BENCH_fig08_init_time.json`
//! summary both come from that registry's snapshot rather than ad-hoc
//! `Instant` bookkeeping.
//!
//! Each configuration builds twice: once pinned to one worker thread (the
//! `TABULA_THREADS=1` configuration) and once at the session's configured
//! thread count, so every row carries per-stage `speedup_vs_serial`
//! figures alongside the parallel wall times.
//!
//! ```bash
//! cargo run --release -p tabula-bench --bin fig08_init_time -- heatmap
//! cargo run --release -p tabula-bench --bin fig08_init_time -- mean
//! cargo run --release -p tabula-bench --bin fig08_init_time -- regression
//! cargo run --release -p tabula-bench --bin fig08_init_time -- attrs
//! cargo run --release -p tabula-bench --bin fig08_init_time        # all four
//! ```

use serde::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use tabula_bench::{default_rows, fmt_duration, taxi_table, write_run_summary, SEED};
use tabula_core::loss::{HeatmapLoss, HistogramLoss, MeanLoss, Metric, RegressionLoss};
use tabula_core::{AccuracyLoss, SamplingCubeBuilder};
use tabula_data::{meters_to_norm, CUBED_ATTRIBUTES};
use tabula_obs as obs;
use tabula_storage::Table;

/// Accumulates the run's aggregate stage histograms and JSON result rows
/// across every cube built by this binary.
struct Report {
    aggregate: obs::Registry,
    results: Vec<Value>,
}

impl Report {
    fn new() -> Self {
        Report { aggregate: obs::Registry::new(), results: Vec::new() }
    }

    /// Build one cube twice — serial baseline, then the configured thread
    /// count — against private metrics registries; print the stage row
    /// (parallel walls + total speedup), fold the stage latencies into the
    /// aggregate, and append a JSON row with per-stage speedups.
    fn build_and_report<L: AccuracyLoss + Clone>(
        &mut self,
        table: &Arc<Table>,
        attrs: &[&str],
        loss: L,
        theta: f64,
        figure: &str,
        theta_label: &str,
    ) {
        let build_once = |n_threads: usize| {
            tabula_par::scoped_threads(n_threads, || {
                let registry = Arc::new(obs::Registry::new());
                let _cube = SamplingCubeBuilder::new(Arc::clone(table), attrs, loss.clone(), theta)
                    .seed(SEED)
                    .registry(Arc::clone(&registry))
                    .build()
                    .expect("build succeeds");
                registry.snapshot()
            })
        };
        let serial_snap = build_once(1);
        // 0 sets no override: the TABULA_THREADS env knob (or the core
        // count) decides the parallel configuration.
        let threads = tabula_par::threads();
        let snap = build_once(0);
        let stage_ns =
            |s: &obs::MetricsSnapshot, name: &str| s.histograms.get(name).map_or(0, |h| h.sum_ns);
        let gauge = |name: &str| snap.gauges.get(name).copied().unwrap_or(0);
        const STAGES: [&str; 4] = ["dry_run", "real_run", "selection", "total"];
        let walls: Vec<(u64, u64)> = STAGES
            .iter()
            .map(|stage| {
                let key = format!("build.{stage}");
                (stage_ns(&serial_snap, &key), stage_ns(&snap, &key))
            })
            .collect();
        let speedup = |(s, p): (u64, u64)| if p == 0 { 1.0 } else { s as f64 / p as f64 };
        let (dry, real, sel, total) = (walls[0].1, walls[1].1, walls[2].1, walls[3].1);
        println!(
            "{theta_label:>12} {:>10} {:>10} {:>10} {:>10} {:>8.2}x {:>9} {:>9} {:>8}",
            fmt_duration(Duration::from_nanos(dry)),
            fmt_duration(Duration::from_nanos(real)),
            fmt_duration(Duration::from_nanos(sel)),
            fmt_duration(Duration::from_nanos(total)),
            speedup(walls[3]),
            gauge("cube.total_cells"),
            gauge("cube.iceberg_cells"),
            gauge("cube.samples_after_selection"),
        );
        for (stage, &(serial_ns, wall_ns)) in STAGES.iter().zip(&walls) {
            self.aggregate.histogram(&format!("build.{stage}")).record(wall_ns);
            self.aggregate.histogram(&format!("build.{stage}.serial")).record(serial_ns);
        }
        let mut row = BTreeMap::new();
        row.insert("figure".to_owned(), Value::Str(figure.to_owned()));
        row.insert("theta".to_owned(), Value::Str(theta_label.to_owned()));
        row.insert("attrs".to_owned(), Value::Int(attrs.len() as i128));
        row.insert("threads".to_owned(), Value::Int(threads as i128));
        let mut speedups = BTreeMap::new();
        for (stage, &w) in STAGES.iter().zip(&walls) {
            row.insert(format!("{stage}_ns"), Value::Int(w.1 as i128));
            row.insert(format!("serial_{stage}_ns"), Value::Int(w.0 as i128));
            speedups.insert((*stage).to_owned(), Value::Float(speedup(w)));
        }
        row.insert("speedup_vs_serial".to_owned(), Value::Obj(speedups));
        row.insert("cells".to_owned(), Value::Int(gauge("cube.total_cells") as i128));
        row.insert("icebergs".to_owned(), Value::Int(gauge("cube.iceberg_cells") as i128));
        row.insert("samples".to_owned(), Value::Int(gauge("cube.samples_after_selection") as i128));
        self.results.push(Value::Obj(row));
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "{:>12} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9} {:>8}",
        "theta", "dry run", "real run", "SamS", "total", "speedup", "cells", "icebergs", "samples"
    );
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let rows = default_rows();
    let table = taxi_table(rows);
    // Dictionary encoding is shared, lazily-built state on the table
    // (`Table::cat` caches an `IntCatIndex` per Int64 column): warm it for
    // every cubed attribute up front so the first measured configuration
    // does not pay the one-time encoding cost inside its dry-run stage
    // while every later configuration silently reuses the cache.
    for name in CUBED_ATTRIBUTES {
        let col = table.schema().index_of(name).expect("cubed attribute exists");
        let _ = table.cat(col);
    }
    let attrs5: Vec<&str> = CUBED_ATTRIBUTES[..5].to_vec();
    println!(
        "# Figure 8 | rows = {rows} | attributes = 5 (a–c) / 4–7 (d) | threads = {} (serial baseline: 1)",
        tabula_par::threads()
    );

    let pickup = table.schema().index_of("pickup").unwrap();
    let fare = table.schema().index_of("fare_amount").unwrap();
    let tip = table.schema().index_of("tip_amount").unwrap();

    let mut report = Report::new();

    if which == "all" || which == "heatmap" {
        header("Fig 8a: init time vs θ — geospatial heatmap-aware loss");
        for meters in [2000.0, 1000.0, 500.0, 250.0] {
            report.build_and_report(
                &table,
                &attrs5,
                HeatmapLoss::new(pickup, Metric::Euclidean),
                meters_to_norm(meters),
                "8a",
                &format!("{meters}m"),
            );
        }
    }
    if which == "all" || which == "mean" {
        header("Fig 8b: init time vs θ — statistical mean loss");
        for pct in [10.0, 5.0, 2.5, 1.0] {
            report.build_and_report(
                &table,
                &attrs5,
                MeanLoss::new(fare),
                pct / 100.0,
                "8b",
                &format!("{pct}%"),
            );
        }
    }
    if which == "all" || which == "regression" {
        header("Fig 8c: init time vs θ — linear regression loss");
        for degrees in [10.0, 5.0, 2.5, 1.0] {
            report.build_and_report(
                &table,
                &attrs5,
                RegressionLoss::new(fare, tip),
                degrees,
                "8c",
                &format!("{degrees}°"),
            );
        }
    }
    if which == "all" || which == "attrs" {
        header("Fig 8d: init time vs #attributes — histogram loss, θ = $0.5");
        for n in 4..=7 {
            let attrs: Vec<&str> = CUBED_ATTRIBUTES[..n].to_vec();
            report.build_and_report(
                &table,
                &attrs,
                HistogramLoss::new(fare),
                0.5,
                "8d",
                &format!("{n} attrs"),
            );
        }
    }

    match write_run_summary(
        "fig08_init_time",
        &report.aggregate.snapshot(),
        &[("results", Value::Arr(report.results))],
    ) {
        Ok(path) => println!("\nrun summary written to {}", path.display()),
        Err(e) => eprintln!("\ncould not write run summary: {e}"),
    }
}
