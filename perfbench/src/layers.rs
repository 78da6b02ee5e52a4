//! Per-layer measurements for the traced run. Each layer is timed from
//! here, around calls into its public functions; spans the program
//! already emits are read from a `MemoryCollector`, and counters from
//! the registries. Nothing here changes what the untraced run measures:
//! these functions run after it, on the same inputs.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tabula_core::dryrun::dry_run;
use tabula_core::loss::AccuracyLoss;
use tabula_core::realrun::real_run;
use tabula_core::samgraph::{build_samgraph, SamGraphConfig};
use tabula_core::selection::select_representatives;
use tabula_core::serfling::draw_global_sample;
use tabula_core::{refresh, MaterializationMode, RefreshConfig, SamplingCube, SerflingConfig};
use tabula_obs::{MemoryCollector, QueryTrace, Registry, Stage, Subscriber};
use tabula_serve::{AnswerCache, ServeIndex, Server};
use tabula_storage::agg::Count;
use tabula_storage::cube::finest_cuboid;
use tabula_storage::{group_by, Predicate, Value};

use crate::checks::{self, Tally};
use crate::run::{build_server, Inputs};
use crate::spec::{Spec, BATCH_ROWS};
use crate::stats::median;
use crate::Metrics;

/// Repetitions of a cheap measured call; the median is reported.
const REPS: usize = 7;
/// Most queries replayed per serve pass.
const SERVE_PASS: usize = 50_000;
/// Fold replay stops after this many folds or this much time.
const REPLAY_FOLDS: usize = 12;
const REPLAY_BUDGET: Duration = Duration::from_secs(3);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time of `reps` calls of `f`.
fn timed_median<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    Duration::from_secs_f64(median(&mut v))
}

fn cubed_cols(inputs: &Inputs) -> Result<Vec<usize>, String> {
    inputs
        .attrs
        .iter()
        .map(|a| inputs.table.schema().index_of(a).map_err(|e| e.to_string()))
        .collect()
}

/// Snapshot write, file read and decode, timed separately.
pub fn store(
    snap: &Path,
    cube: &SamplingCube,
    epoch: u64,
    first_write_ms: f64,
    layers: &mut Metrics,
) -> Result<(), String> {
    let mut write = vec![first_write_ms];
    for _ in 0..2 {
        let t0 = Instant::now();
        cube.write_snapshot(snap, epoch).map_err(|e| format!("snapshot write: {e}"))?;
        write.push(ms(t0.elapsed()));
    }
    let (mut read, mut decode) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t0 = Instant::now();
        let bytes = std::fs::read(snap).map_err(|e| format!("snapshot read: {e}"))?;
        let t1 = Instant::now();
        let restored = SamplingCube::from_snapshot_bytes(bytes)
            .map_err(|e| format!("snapshot decode: {e}"))?;
        let t2 = Instant::now();
        drop(restored);
        read.push(ms(t1 - t0));
        decode.push(ms(t2 - t1));
    }
    layers.put("store.write_ms", median(&mut write), "ms");
    layers.put("store.read_file_ms", median(&mut read), "ms");
    layers.put("store.decode_ms", median(&mut decode), "ms");
    Ok(())
}

/// Storage kernels on the workload's own table.
pub fn kernels(inputs: &Inputs, cube: &SamplingCube, layers: &mut Metrics) -> Result<(), String> {
    let table = &inputs.table;
    let cols = cubed_cols(inputs)?;
    let rows = table.len() as f64;
    let g = timed_median(3, || group_by(table, &cols).map(|g| g.len()));
    layers.put("storage.group_by_ns_per_row", g.as_nanos() as f64 / rows, "ns");
    let f =
        timed_median(3, || finest_cuboid(table, &cols, Count::default, |s: &mut Count, _| s.add()));
    layers.put("storage.finest_agg_ns_per_row", f.as_nanos() as f64 / rows, "ns");
    let sample = cube.global_sample();
    let t = timed_median(21, || table.take(sample));
    layers.put("storage.take_ns_per_row", t.as_nanos() as f64 / sample.len().max(1) as f64, "ns");
    let batch: Vec<Vec<Value>> =
        (0..1_000.min(inputs.feed.len())).map(|i| inputs.feed.row(i)).collect();
    let mut err = None;
    let e = timed_median(5, || table.extend_rows(&batch).map_err(|e| err = Some(e.to_string())));
    if let Some(e) = err {
        return Err(format!("extend_rows: {e}"));
    }
    layers.put("storage.extend_rows_ms", ms(e), "ms");
    Ok(())
}

/// Freezing the serving index of one generation.
pub fn index_build(cube: &SamplingCube, layers: &mut Metrics) -> Result<(), String> {
    ServeIndex::build(cube).map_err(|e| format!("index build: {e}"))?;
    let d = timed_median(REPS, || ServeIndex::build(cube).map(|i| i.cells()));
    layers.put("serve.index_build_ms", ms(d), "ms");
    Ok(())
}

/// Times of one stage-by-stage build.
#[derive(Default)]
struct StageTimes {
    global: Vec<f64>,
    prepare: Vec<f64>,
    dry_total: Vec<f64>,
    scan: Vec<f64>,
    rollup: Vec<f64>,
    classify: Vec<f64>,
    fetch: Vec<f64>,
    sample_cells: Vec<f64>,
    join: Vec<f64>,
    selection: Vec<f64>,
}

/// The build pipeline, stage by stage, in the builder's order, with each
/// stage's share of an untraced build; plus the overhead of collecting
/// spans during a whole build.
#[allow(clippy::too_many_arguments)]
pub fn build_stages<L: AccuracyLoss + Clone>(
    spec: &Spec,
    inputs: &Inputs,
    loss: &L,
    seed: u64,
    built: (usize, usize, usize),
    layers: &mut Metrics,
    samples: &mut Vec<(&'static str, f64)>,
    tally: &mut Tally,
) -> Result<(), String> {
    let (table, theta, reps) = (&inputs.table, spec.loss.theta(), spec.builds);
    let cols = cubed_cols(inputs)?;
    let collector = Arc::new(MemoryCollector::new());
    let timed_build = || -> Result<f64, String> {
        let t0 = Instant::now();
        let b = build_server(inputs, loss, theta, seed, &Arc::new(Registry::new()));
        let secs = t0.elapsed().as_secs_f64();
        drop(b?);
        Ok(secs)
    };
    let par = tabula_obs::global();
    let (tasks0, steals0) = (par.counter("par.tasks").get(), par.counter("par.steals").get());
    let (mut plain, mut traced) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut t = StageTimes::default();
    let mut counts = [0f64; 10];
    // An untraced build, a build with every span collected, and a build
    // stage by stage alternate, so all three see the same machine.
    let result = (0..reps).try_for_each(|_| -> Result<(), String> {
        plain.push(timed_build()?);
        tabula_obs::set_subscriber(Arc::clone(&collector) as Arc<dyn Subscriber>);
        let stages = (|| {
            traced.push(timed_build()?);
            collector.clear();
            let t0 = Instant::now();
            let global = draw_global_sample(table, SerflingConfig::default().sample_size(), seed);
            let t1 = Instant::now();
            let ctx = loss.prepare(table, &global);
            let t2 = Instant::now();
            let dry = dry_run(table, &cols, loss, &ctx, theta).map_err(|e| e.to_string())?;
            let t3 = Instant::now();
            let rr = real_run(table, &cols, loss, theta, &dry, 0).map_err(|e| e.to_string())?;
            let t4 = Instant::now();
            let cfg = SamGraphConfig::default();
            let graph = build_samgraph(table, loss, theta, &rr.entries, &cfg);
            let t5 = Instant::now();
            let sel = select_representatives(&graph);
            let t6 = Instant::now();
            Ok::<_, String>((global, dry, rr, cfg, graph, sel, [t0, t1, t2, t3, t4, t5, t6]))
        })();
        tabula_obs::clear_subscriber();
        let (global, dry, rr, cfg, graph, sel, [t0, t1, t2, t3, t4, t5, t6]) = stages?;

        let span_ms = |name: &str| ms(collector.total_of(name));
        t.global.push(ms(t1 - t0));
        t.prepare.push(ms(t2 - t1));
        t.dry_total.push(ms(t3 - t2));
        t.scan.push(span_ms("dry_run.scan"));
        t.rollup.push(span_ms("dry_run.rollup"));
        t.classify.push(span_ms("dry_run.classify"));
        let sampling = span_ms("real_run.sample_cells");
        t.sample_cells.push(sampling);
        t.fetch.push(ms(t4 - t3) - sampling);
        t.join.push(ms(t5 - t4));
        t.selection.push(ms(t6 - t5));

        let m = rr.entries.len() as f64;
        let priced = if loss.state_depends_on_sample() {
            m * (cfg.max_candidates as f64).min(m - 1.0).max(0.0)
        } else {
            m * (m - 1.0).max(0.0)
        };
        counts = [
            rr.entries.iter().map(|e| e.rows.len()).sum::<usize>() as f64,
            rr.entries.iter().map(|e| e.sample.len()).sum::<usize>() as f64,
            rr.stats.prune_plans as f64,
            rr.stats.group_all_plans as f64,
            graph.edge_count() as f64,
            priced,
            m,
            sel.representatives.len() as f64,
            dry.iceberg_count as f64,
            global.len() as f64,
        ];
        // The stages must reproduce the builder's cube.
        tally.check(
            checks::BUILD,
            (dry.iceberg_count, sel.representatives.len(), graph.edge_count()) == built,
            || "stage-by-stage build disagrees with the builder".into(),
        );
        Ok(())
    });
    result?;
    let untraced_setup_s = median(&mut plain);
    layers.put(
        "obs.trace_overhead_pct",
        (median(&mut traced) / untraced_setup_s - 1.0) * 100.0,
        "%",
    );
    // Three builds per repetition, each the same work.
    let tasks = par.counter("par.tasks").get() - tasks0;
    let steals = par.counter("par.steals").get() - steals0;
    layers.put("par.tasks", tasks as f64 / (3 * reps) as f64, "count");
    layers.put("par.steal_ratio", steals as f64 / tasks.max(1) as f64, "ratio");

    let setup_ms = untraced_setup_s * 1e3;
    let mut stage = |name: &str, v: &mut Vec<f64>, share: Option<&str>| {
        let m = median(v);
        layers.put(name, m, "ms");
        if let Some(share) = share {
            layers.put(share, m / setup_ms * 100.0, "%");
        }
    };
    stage("core.global_sample_ms", &mut t.global, Some("core.global_sample_share_pct"));
    stage("core.loss_prepare_ms", &mut t.prepare, Some("core.loss_prepare_share_pct"));
    stage("core.dry_run_ms", &mut t.dry_total, Some("core.dry_run_share_pct"));
    stage("core.dry_run.scan_ms", &mut t.scan, None);
    stage("core.dry_run.rollup_ms", &mut t.rollup, None);
    stage("core.dry_run.classify_ms", &mut t.classify, None);
    stage("core.real_run.fetch_ms", &mut t.fetch, Some("core.real_run.fetch_share_pct"));
    stage(
        "core.real_run.sample_cells_ms",
        &mut t.sample_cells,
        Some("core.real_run.sample_cells_share_pct"),
    );
    stage("core.samgraph_join_ms", &mut t.join, Some("core.samgraph_join_share_pct"));
    stage("core.selection_ms", &mut t.selection, Some("core.selection_share_pct"));
    let [fetched, sampled, prune, group_all, edges, priced, before, after, iceberg, global] =
        counts;
    layers.put("core.fetched_rows", fetched, "rows");
    layers.put("core.sampled_rows", sampled, "rows");
    layers.put("core.prune_plans", prune, "count");
    layers.put("core.group_all_plans", group_all, "count");
    layers.put("core.samgraph_edges", edges, "count");
    layers.put("core.samgraph_pairs_priced", priced, "count");
    layers.put("core.samgraph_edge_ratio", edges / priced.max(1.0), "ratio");
    layers.put("core.samples_before", before, "count");
    layers.put("core.samples_after", after, "count");
    layers.put("core.iceberg_cells", iceberg, "count");
    samples.push(("global_sample_rows", global));
    samples.push(("traced_builds", reps as f64));
    Ok(())
}

/// Per-stage serve times from request traces, and the cost of tracing
/// every query: one untraced and one traced single-client pass, each on
/// a fresh server (so both see the same cold-then-warm cache).
pub fn serve_stages(
    cube: &Arc<SamplingCube>,
    preds: &[Predicate],
    order: &[u32],
    layers: &mut Metrics,
) -> Result<(), String> {
    let order = &order[..order.len().min(SERVE_PASS)];
    let fresh = || {
        Server::with_cache(Arc::clone(cube), AnswerCache::from_env(), Arc::new(Registry::new()))
            .map_err(|e| format!("server construction: {e}"))
    };
    let srv = fresh()?;
    let t0 = Instant::now();
    for &p in order {
        std::hint::black_box(srv.query(&preds[p as usize]).map_err(|e| e.to_string())?);
    }
    let untraced = t0.elapsed().as_secs_f64();

    let srv = fresh()?;
    let mut stages: [Vec<f64>; 4] = Default::default();
    let t0 = Instant::now();
    for &p in order {
        let mut trace = QueryTrace::enabled();
        std::hint::black_box(
            srv.query_traced(&preds[p as usize], &mut trace).map_err(|e| e.to_string())?,
        );
        for s in trace.stages() {
            let slot = match s.stage {
                Stage::Compile => 0,
                Stage::CacheProbe => 1,
                Stage::IndexProbe => 2,
                Stage::Materialize => 3,
                Stage::Scan => continue,
            };
            stages[slot].push(s.ns as f64);
        }
    }
    let traced = t0.elapsed().as_secs_f64();
    layers.put("obs.query_trace_overhead_pct", (traced / untraced - 1.0) * 100.0, "%");
    for (name, v) in
        ["serve.compile_ns", "serve.cache_probe_ns", "serve.index_probe_ns", "serve.materialize_ns"]
            .into_iter()
            .zip(stages.iter_mut())
    {
        let m = if v.is_empty() { f64::NAN } else { median(v) };
        layers.put(name, m, "ns");
    }
    Ok(())
}

/// The live fold split into its three public calls, replayed offline on
/// the same feed from the pre-ingest generation, with folds the size the
/// live pipeline made on average.
#[allow(clippy::too_many_arguments)]
pub fn fold_replay<L: AccuracyLoss>(
    base: &Arc<SamplingCube>,
    loss: &L,
    inputs: &Inputs,
    seed: u64,
    batches_per_fold: usize,
    layers: &mut Metrics,
    samples: &mut Vec<(&'static str, f64)>,
    tally: &mut Tally,
) -> Result<(), String> {
    let rows_per_fold = batches_per_fold * BATCH_ROWS;
    let folds = (inputs.feed.len() / rows_per_fold).clamp(1, REPLAY_FOLDS);
    let srv =
        Server::with_cache(Arc::clone(base), AnswerCache::from_env(), Arc::new(Registry::new()))
            .map_err(|e| format!("server construction: {e}"))?;
    let config =
        RefreshConfig { seed, mode: MaterializationMode::Tabula, ..RefreshConfig::default() };
    let (mut extend, mut refreshed, mut install) = (Vec::new(), Vec::new(), Vec::new());
    let (mut reused, mut fresh) = (0usize, 0usize);
    let started = Instant::now();
    for f in 0..folds {
        let rows: Vec<Vec<Value>> = (f * rows_per_fold
            ..((f + 1) * rows_per_fold).min(inputs.feed.len()))
            .map(|i| inputs.feed.row(i))
            .collect();
        let cur = srv.cube();
        let t0 = Instant::now();
        let table = cur.table().extend_rows(&rows);
        let t1 = Instant::now();
        let next = table
            .map_err(|e| e.to_string())
            .and_then(|t| refresh(&cur, Arc::new(t), loss, config).map_err(|e| e.to_string()));
        let t2 = Instant::now();
        let ok = tally.check(checks::FOLD_ERROR, next.is_ok(), || {
            format!("replayed fold {f}: {:?}", next.as_ref().err())
        });
        let Ok((cube, stats)) = next else { break };
        let installed = srv.install(Arc::new(cube));
        let t3 = Instant::now();
        tally
            .check(checks::FOLD_ERROR, ok && installed.is_ok(), || format!("replayed install {f}"));
        extend.push(ms(t1 - t0));
        refreshed.push(ms(t2 - t1));
        install.push(ms(t3 - t2));
        reused += stats.reused_cells;
        fresh += stats.fresh_samples;
        if started.elapsed() > REPLAY_BUDGET {
            break;
        }
    }
    layers.put("ingest.fold.extend_ms", median(&mut extend), "ms");
    layers.put("ingest.fold.refresh_ms", median(&mut refreshed), "ms");
    layers.put("ingest.fold.install_ms", median(&mut install), "ms");
    layers.put(
        "ingest.refresh.reused_ratio",
        reused as f64 / (reused + fresh).max(1) as f64,
        "ratio",
    );
    samples.push(("ingest_replay_folds", extend.len() as f64));
    samples.push(("ingest_replay_rows_per_fold", rows_per_fold as f64));
    Ok(())
}
