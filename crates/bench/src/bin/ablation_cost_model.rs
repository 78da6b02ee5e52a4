//! **Ablation: the real-run cost model (Inequality 1)** — for every
//! iceberg cuboid of a dry run, time BOTH of the paper's fetch plans
//! (prune-then-group vs. group-everything) and report which one the
//! paper's cost model picked vs. which actually won. Quantifies how often
//! the literal model is right on this engine. A third column times the
//! fetch the engine actually runs: one scatter pass over the finest-cell
//! ids, whose one-off labelling scan is reported separately.
//!
//! ```bash
//! cargo run --release -p tabula-bench --bin ablation_cost_model
//! ```

use std::time::Instant;
use tabula_bench::{default_rows, fmt_duration, taxi_table, SEED};
use tabula_check::reference::{choose_plan, CuboidPlan};
use tabula_core::dryrun::dry_run;
use tabula_core::loss::MeanLoss;
use tabula_core::serfling::draw_global_sample;
use tabula_core::AccuracyLoss;
use tabula_data::CUBED_ATTRIBUTES;
use tabula_storage::cube::finest_cell_ids;
use tabula_storage::group::group_rows;
use tabula_storage::join::semi_join;
use tabula_storage::{group_by, FxHashSet};

fn main() {
    let rows = default_rows();
    let table = taxi_table(rows);
    let fare = table.schema().index_of("fare_amount").unwrap();
    let loss = MeanLoss::new(fare);
    let theta = 0.05;
    let cols: Vec<usize> =
        CUBED_ATTRIBUTES[..5].iter().map(|a| table.schema().index_of(a).unwrap()).collect();
    let global = draw_global_sample(&table, 1060, SEED);
    let ctx = loss.prepare(&table, &global);
    let dry = dry_run(&table, &cols, &loss, &ctx, theta).unwrap();

    let t0 = Instant::now();
    let fine = finest_cell_ids(&table, &cols).unwrap();
    let label_t = t0.elapsed();

    println!("# Ablation: Inequality-1 cost model | rows = {rows} | mean loss, θ = 5%");
    println!(
        "# scatter: one finest-cell labelling scan ({} finest cells) took {}, shared by all cuboids",
        fine.len(),
        fmt_duration(label_t)
    );
    println!(
        "\n{:<10} {:>8} {:>8} {:>12} {:>12} {:>12} {:>14} {:>8}",
        "cuboid",
        "cells",
        "iceberg",
        "prune time",
        "group time",
        "scatter time",
        "model picked",
        "right?"
    );
    println!("{}", "-".repeat(91));
    let mut agree = 0usize;
    let mut total = 0usize;
    let mut masks: Vec<_> = dry.iceberg.keys().copied().collect();
    masks.sort_by_key(|m| (std::cmp::Reverse(m.arity()), *m));
    for mask in masks {
        let iceberg_keys = &dry.iceberg[&mask];
        let attrs: Vec<usize> = mask.attrs().iter().map(|&a| cols[a]).collect();
        let k_cells = dry.states.cuboids[&mask].len();
        let iceberg_set: FxHashSet<Vec<u32>> = iceberg_keys.iter().cloned().collect();

        let t0 = Instant::now();
        let joined = semi_join(&table, &attrs, &iceberg_set).unwrap();
        let _pruned = group_rows(&table, &attrs, &joined).unwrap();
        let prune_t = t0.elapsed();

        let t0 = Instant::now();
        let _all = group_by(&table, &attrs).unwrap();
        let group_t = t0.elapsed();

        let t0 = Instant::now();
        let _scattered = fine.gather(&mask.attrs(), iceberg_keys, |_, _| ());
        let scatter_t = t0.elapsed();

        let picked = choose_plan(table.len(), iceberg_keys.len(), k_cells);
        let actual_winner =
            if prune_t < group_t { CuboidPlan::PruneThenGroup } else { CuboidPlan::GroupAll };
        let right = picked == actual_winner;
        agree += usize::from(right);
        total += 1;
        println!(
            "{:<10} {:>8} {:>8} {:>12} {:>12} {:>12} {:>14} {:>8}",
            mask.to_string(),
            k_cells,
            iceberg_keys.len(),
            fmt_duration(prune_t),
            fmt_duration(group_t),
            fmt_duration(scatter_t),
            match picked {
                CuboidPlan::PruneThenGroup => "prune",
                CuboidPlan::GroupAll => "group-all",
            },
            if right { "yes" } else { "NO" },
        );
    }
    println!("\nmodel agreed with the measured winner on {agree}/{total} cuboids");
}
