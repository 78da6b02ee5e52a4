//! The untraced lifecycle every workload runs: generate inputs, build,
//! snapshot and restart, serve a closed-loop session, then ingest an
//! open-loop feed beside a closed-loop reader — checking every answer it
//! times.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tabula_core::loss::AccuracyLoss;
use tabula_core::{MaterializationMode, SamplingCube, SamplingCubeBuilder};
use tabula_data::{TaxiConfig, TaxiGenerator, Workload, CUBED_ATTRIBUTES};
use tabula_ingest::{IngestConfig, IngestError, IngestStats, Ingestor, INGEST_FOLD_NS};
use tabula_obs::Registry;
use tabula_serve::{AnswerCache, Server, SERVE_EVICTIONS, SERVE_HITS, SERVE_MISSES};
use tabula_storage::{CellKey, FxHashMap, Predicate, Table, Value};

use crate::checks::{self, same_answer, within_theta, Expected, Tally};
use crate::spec::{Spec, BATCH_ROWS, FEED_ROWS_PER_SEC, READ_CELLS, REVISIT};
use crate::stats::{median, quantile, LatencyHist};
use crate::Metrics;

/// Queries per generated sub-session; a long session is a chain of
/// these, so only one chunk of `QueryCell`s is alive at a time.
const SESSION_CHUNK: usize = 10_000;
/// Offset between clients' starting positions in the session, so two
/// clients interleave instead of marching in lockstep.
const CLIENT_STRIDE: usize = 37;
/// Untimed queries that warm the answer cache before the query phase.
const WARMUP_QUERIES: usize = 100_000;
/// A run is invalid when the paced producer starts a batch later than
/// this after its due time, at the 95th percentile.
pub const LATE_BOUND_MS: f64 = 100.0;
/// Target length of one ingest round. Every round feeds the same base
/// generation, so the table a fold works on does not grow with the
/// length of the run; 10 s is 200 batches, ten of them beyond the p95.
const ROUND_SECS: f64 = 10.0;
/// Resolution of the freshness observer: it wakes on the log's fold
/// notification, which a busy two-core machine may deliver late.
pub const OBSERVER_RESOLUTION_MS: f64 = 2.0;

const MB: f64 = (1 << 20) as f64;

/// Derive an independent stream seed from the workload seed.
pub fn derive(seed: u64, salt: u64) -> u64 {
    // splitmix64 finaliser
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a run feeds the program, generated from the seed before
/// any timing starts.
pub struct Inputs {
    pub table: Arc<Table>,
    pub attrs: Vec<&'static str>,
    /// Distinct cells of the dashboard session.
    pub session: Vec<Predicate>,
    /// The session, as indices into `session`.
    pub order: Vec<u32>,
    /// The fixed query set of the reader beside ingestion.
    pub reads: Vec<Predicate>,
    /// Rows appended during the ingest phase: `rounds` rounds of
    /// `round_batches` batches each.
    pub feed: Table,
    pub rounds: usize,
    pub round_batches: usize,
    pub query_secs: f64,
    pub ingest_secs: f64,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64, seconds: f64) -> Result<Inputs, String> {
        let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: spec.rows, seed }).generate());
        let attrs: Vec<&'static str> = CUBED_ATTRIBUTES[..spec.attrs].to_vec();
        let wl = Workload::new(&attrs);

        let mut session = Vec::new();
        let mut order = Vec::with_capacity(spec.session);
        let mut index: FxHashMap<CellKey, u32> = FxHashMap::default();
        for chunk in 0..spec.session.div_ceil(SESSION_CHUNK) {
            let n = SESSION_CHUNK.min(spec.session - chunk * SESSION_CHUNK);
            let cells = wl
                .generate_session(&table, n, derive(seed, 0x5E55 + chunk as u64), REVISIT)
                .map_err(|e| format!("session generation: {e}"))?;
            for q in cells {
                let next = session.len() as u32;
                let id = *index.entry(q.cell).or_insert(next);
                if id == next {
                    session.push(q.predicate);
                }
                order.push(id);
            }
        }
        let reads = wl
            .generate(&table, READ_CELLS, derive(seed, 0xF00D))
            .map_err(|e| format!("read set generation: {e}"))?
            .into_iter()
            .map(|q| q.predicate)
            .collect();

        let query_secs = seconds * spec.query_share;
        let ingest_secs = seconds - query_secs;
        let rounds = ((ingest_secs / ROUND_SECS).round() as usize).max(1);
        let round_secs = ingest_secs / rounds as f64;
        let round_batches = ((FEED_ROWS_PER_SEC * round_secs) as usize / BATCH_ROWS).max(1);
        let feed = TaxiGenerator::new(TaxiConfig {
            rows: rounds * round_batches * BATCH_ROWS,
            seed: derive(seed, 0xFEED),
        })
        .generate();
        Ok(Inputs {
            table,
            attrs,
            session,
            order,
            reads,
            feed,
            rounds,
            round_batches,
            query_secs,
            ingest_secs,
        })
    }
}

/// Build a cube over the inputs and put a `Server` in front of it: the
/// operation `setup_s` times.
pub fn build_server<L: AccuracyLoss + Clone>(
    inputs: &Inputs,
    loss: &L,
    theta: f64,
    seed: u64,
    registry: &Arc<Registry>,
) -> Result<(Arc<SamplingCube>, Server), String> {
    let cube =
        SamplingCubeBuilder::new(Arc::clone(&inputs.table), &inputs.attrs, loss.clone(), theta)
            .seed(seed)
            .mode(MaterializationMode::Tabula)
            .registry(Arc::clone(registry))
            .build()
            .map_err(|e| format!("cube build: {e}"))?;
    let cube = Arc::new(cube);
    let srv = Server::with_cache(Arc::clone(&cube), AnswerCache::from_env(), Arc::clone(registry))
        .map_err(|e| format!("server construction: {e}"))?;
    Ok((cube, srv))
}

/// The answer `cube` gives for `pred`, if it gives one.
pub fn expected_of(cube: &SamplingCube, pred: &Predicate) -> Option<Expected> {
    cube.query(pred).ok().map(|a| Expected { rows: a.rows, provenance: a.provenance })
}

/// Serve one query and check it: an error counts as a failed query, and
/// an answer that differs from `expected` as a mismatch.
pub fn serve_checked(
    srv: &Server,
    pred: &Predicate,
    expected: Option<&Expected>,
    tally: &mut Tally,
) -> bool {
    match srv.query(pred) {
        Err(e) => {
            tally.check(checks::QUERY_ERROR, false, || format!("{pred:?}: {e}"));
            false
        }
        Ok(a) => {
            tally.check(checks::QUERY_ERROR, true, String::new);
            let Some(exp) = expected else { return true };
            tally.check(checks::ANSWER_MISMATCH, same_answer(&a.rows, a.provenance, exp), || {
                format!("{pred:?}: served {:?} differs from the cube", a.provenance)
            })
        }
    }
}

/// Count one answer per query for which `reloaded` does not answer
/// exactly as `built` does (same row ids, same provenance).
pub fn check_snapshot_answers(
    built: &SamplingCube,
    reloaded: &SamplingCube,
    preds: &[Predicate],
    tally: &mut Tally,
) {
    for p in preds {
        let ok = match (built.query(p), reloaded.query(p)) {
            (Ok(a), Ok(b)) => a.provenance == b.provenance && *a.rows == *b.rows,
            _ => false,
        };
        tally.check(checks::SNAPSHOT_MISMATCH, ok, || format!("{p:?}: reloaded answer differs"));
    }
}

/// Count one append; a refusal is a failure.
pub fn count_append(tally: &mut Tally, res: &Result<u64, IngestError>) -> bool {
    tally.check(checks::APPEND_REFUSED, res.is_ok(), || match res {
        Err(e) => format!("append refused: {e}"),
        Ok(_) => String::new(),
    })
}

/// Record the outcome of a pipeline call that a fold failure surfaces in.
pub fn count_fold<T>(tally: &mut Tally, what: &str, res: &Result<T, IngestError>) -> bool {
    tally.check(checks::FOLD_ERROR, res.is_ok(), || match res {
        Err(e) => format!("{what}: {e}"),
        Ok(_) => String::new(),
    })
}

/// Check that the served generation's answers are within θ of their raw
/// rows, on a seeded subset of `preds`; every timed answer is compared
/// with these same answers. Runs outside every timed window.
fn check_theta<L: AccuracyLoss>(
    srv: &Server,
    loss: &L,
    theta: f64,
    preds: &[Predicate],
    cells: usize,
    seed: u64,
    tally: &mut Tally,
) {
    if preds.is_empty() {
        return;
    }
    let cube = srv.cube();
    let table = cube.table();
    for k in 0..cells.min(preds.len()) {
        let p = &preds[(derive(seed, k as u64) % preds.len() as u64) as usize];
        let raw = match p.filter(table) {
            Ok(raw) if !raw.is_empty() => raw,
            Ok(_) => continue,
            Err(e) => {
                tally.check(checks::QUERY_ERROR, false, || format!("{p:?}: raw scan {e}"));
                continue;
            }
        };
        match cube.query(p) {
            Ok(a) => {
                let (ok, achieved) = within_theta(loss, table, &raw, &a.rows, theta);
                tally.check(checks::THETA, ok, || format!("{p:?}: loss {achieved} > θ {theta}"));
            }
            Err(e) => {
                tally.check(checks::QUERY_ERROR, false, || format!("{p:?}: {e}"));
            }
        }
    }
}

/// Length of the windows a query phase is cut into. Throughput and
/// latency percentiles are the median over whole windows, so a burst of
/// interference from outside the process moves one window, not the run.
pub const WINDOW_SECS: f64 = 0.5;

/// What the clients of one closed-loop phase saw.
#[derive(Default)]
pub struct Clients {
    pub hist: LatencyHist,
    /// Latencies and answers per window.
    pub windows: Vec<(LatencyHist, u64)>,
    pub answers: u64,
    pub errors: u64,
    pub mismatches: u64,
    pub secs: f64,
    pub notes: Vec<String>,
}

impl Clients {
    #[inline]
    fn record(&mut self, since_start: Duration, ns: u64) {
        self.hist.record(ns);
        let w = (since_start.as_secs_f64() / WINDOW_SECS) as usize;
        if self.windows.len() <= w {
            self.windows.resize_with(w + 1, Default::default);
        }
        self.windows[w].0.record(ns);
        self.windows[w].1 += 1;
    }

    /// End the phase after `secs`, dropping its last, partial window.
    fn close(&mut self, secs: f64) {
        self.secs = secs;
        self.windows.truncate((secs / WINDOW_SECS) as usize);
    }

    /// The phase's whole windows.
    fn whole_windows(&self) -> &[(LatencyHist, u64)] {
        &self.windows
    }

    /// Median over whole windows of `f`; over the whole phase when it is
    /// shorter than three windows.
    fn windowed(&self, f: impl Fn(&LatencyHist, u64, f64) -> f64) -> f64 {
        let whole = self.whole_windows();
        if whole.len() < 3 {
            return f(&self.hist, self.answers, self.secs);
        }
        let mut v: Vec<f64> = whole.iter().map(|(h, n)| f(h, *n, WINDOW_SECS)).collect();
        median(&mut v)
    }

    /// Answers per second across all clients.
    pub fn qps(&self) -> f64 {
        self.windowed(|_, n, secs| n as f64 / secs)
    }

    /// Latency `q`-quantile in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.windowed(|h, _, _| h.quantile_ns(q) / 1e3)
    }

    /// Latency samples per whole window, the fewest of any window.
    pub fn min_window_samples(&self) -> u64 {
        self.whole_windows().iter().map(|w| w.1).min().unwrap_or(self.answers)
    }

    /// Fold in a client that ran at the same time: window `i` of both
    /// covers the same half second.
    fn absorb(&mut self, other: Clients) {
        self.windows.truncate(other.windows.len());
        for (mine, theirs) in self.windows.iter_mut().zip(&other.windows) {
            mine.0.merge(&theirs.0);
            mine.1 += theirs.1;
        }
        self.secs = self.secs.min(other.secs);
        self.add_counts(other);
    }

    /// Append a phase that ran after this one.
    fn then(&mut self, other: Clients) {
        self.windows.extend(other.windows.iter().cloned());
        self.secs += other.secs;
        self.add_counts(other);
    }

    fn add_counts(&mut self, other: Clients) {
        self.hist.merge(&other.hist);
        self.answers += other.answers;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
        self.notes.extend(other.notes);
    }

    fn tally(&self, tally: &mut Tally) {
        tally.add(checks::QUERY_ERROR, self.answers + self.errors, self.errors);
        tally.add(checks::ANSWER_MISMATCH, self.answers, self.mismatches);
        for n in &self.notes {
            tally.note(n.clone());
        }
    }
}

/// `clients` closed-loop clients replay `order` against one fixed
/// generation for `secs` seconds. Each answer is checked against the
/// cube's own answer, outside the timed call.
pub fn closed_loop(
    srv: &Server,
    preds: &[Predicate],
    order: &[u32],
    expected: &[Expected],
    clients: usize,
    secs: f64,
) -> Clients {
    let barrier = Barrier::new(clients);
    let per_client: Vec<Clients> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut out = Clients::default();
                    let mut i = (c * CLIENT_STRIDE) % order.len();
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(secs);
                    loop {
                        let p = order[i] as usize;
                        i = if i + 1 == order.len() { 0 } else { i + 1 };
                        let t0 = Instant::now();
                        let r = srv.query(&preds[p]);
                        let t1 = Instant::now();
                        out.record(t1 - start, (t1 - t0).as_nanos() as u64);
                        match r {
                            Ok(a) => {
                                out.answers += 1;
                                if !same_answer(&a.rows, a.provenance, &expected[p]) {
                                    out.mismatches += 1;
                                    if out.notes.len() < 4 {
                                        out.notes.push(format!("answer_mismatch: {:?}", preds[p]));
                                    }
                                }
                            }
                            Err(e) => {
                                out.errors += 1;
                                if out.notes.len() < 4 {
                                    out.notes.push(format!("query_error: {:?}: {e}", preds[p]));
                                }
                            }
                        }
                        if t1 >= deadline {
                            out.close((t1 - start).as_secs_f64());
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut per_client = per_client.into_iter();
    let mut all = per_client.next().expect("at least one client");
    for c in per_client {
        all.absorb(c);
    }
    all
}

/// Expected answers of one generation, filled on first use.
struct Memo {
    generation: Option<Arc<SamplingCube>>,
    answers: Vec<Option<Expected>>,
}

impl Memo {
    fn get(&mut self, g: &Arc<SamplingCube>, p: usize, preds: &[Predicate]) -> Option<&Expected> {
        if !self.generation.as_ref().is_some_and(|cur| Arc::ptr_eq(cur, g)) {
            self.generation = Some(Arc::clone(g));
            self.answers.iter_mut().for_each(|a| *a = None);
        }
        if self.answers[p].is_none() {
            self.answers[p] = expected_of(g, &preds[p]);
        }
        self.answers[p].as_ref()
    }
}

/// The reader beside ingestion: closed loop over `reads` until `stop`.
/// The generation may change under any query, so each answer is checked
/// against the generation seen before and after it.
fn reader_loop(srv: &Server, reads: &[Predicate], stop: &AtomicBool) -> Clients {
    let mut out = Clients::default();
    let mut memo = Memo { generation: None, answers: vec![None; reads.len()] };
    let start = Instant::now();
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let p = i % reads.len();
        i += 1;
        let before = srv.cube();
        let t0 = Instant::now();
        let r = srv.query(&reads[p]);
        let t1 = Instant::now();
        out.record(t1 - start, (t1 - t0).as_nanos() as u64);
        match r {
            Ok(a) => {
                out.answers += 1;
                let after = srv.cube();
                let ok = if Arc::ptr_eq(&before, &after) {
                    memo.get(&before, p, reads)
                        .is_some_and(|e| same_answer(&a.rows, a.provenance, e))
                } else {
                    [&before, &after].iter().any(|g| {
                        expected_of(g, &reads[p])
                            .is_some_and(|e| same_answer(&a.rows, a.provenance, &e))
                    })
                };
                if !ok {
                    out.mismatches += 1;
                    if out.notes.len() < 4 {
                        out.notes.push(format!("answer_mismatch under ingest: {:?}", reads[p]));
                    }
                }
            }
            Err(e) => {
                out.errors += 1;
                if out.notes.len() < 4 {
                    out.notes.push(format!("query_error under ingest: {:?}: {e}", reads[p]));
                }
            }
        }
    }
    out.close(start.elapsed().as_secs_f64());
    out
}

/// The paced producer's record.
#[derive(Default)]
struct Produced {
    due: Vec<Instant>,
    acked: Vec<Instant>,
    late_ms: Vec<f64>,
    append_us: Vec<f64>,
    refused: Option<IngestError>,
}

/// Open loop: batch `b` is due at `start + b·interval`, whatever the
/// pipeline is doing. Rows are read out of the feed table before the
/// producer sleeps, so building them never makes a batch late.
fn produce(
    ingestor: &Ingestor,
    feed: &Table,
    batches: std::ops::Range<usize>,
    interval: Duration,
    appended: &AtomicUsize,
) -> Produced {
    let mut out = Produced::default();
    let start = Instant::now();
    for (k, b) in batches.enumerate() {
        let rows: Vec<Vec<Value>> =
            (b * BATCH_ROWS..(b + 1) * BATCH_ROWS).map(|i| feed.row(i)).collect();
        let due = start + interval * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let t = Instant::now();
        out.late_ms.push((t - due).as_secs_f64() * 1e3);
        match ingestor.append(rows) {
            Ok(_) => {
                let acked = Instant::now();
                out.append_us.push((acked - t).as_secs_f64() * 1e6);
                out.due.push(due);
                out.acked.push(acked);
                appended.fetch_add(1, Ordering::Release);
            }
            Err(e) => {
                out.refused = Some(e);
                break;
            }
        }
    }
    out
}

/// Results of the ingest rounds.
pub struct Ingested {
    pub reader: Clients,
    /// Per acked batch: due time → first observed visible.
    pub freshness_ms: Vec<f64>,
    /// Per acked batch: append acknowledged → first observed visible.
    pub ack_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub append_us: Vec<f64>,
    pub folds: u64,
    pub folded_rows: u64,
    pub folded_batches: u64,
    /// The last round's pipeline statistics; its histograms live in the
    /// server's registry and so cover every round.
    pub last: IngestStats,
    pub phase_secs: f64,
}

impl Ingested {
    fn then(&mut self, other: Ingested) {
        self.reader.then(other.reader);
        self.freshness_ms.extend(other.freshness_ms);
        self.ack_ms.extend(other.ack_ms);
        self.late_ms.extend(other.late_ms);
        self.append_us.extend(other.append_us);
        self.folds += other.folds;
        self.folded_rows += other.folded_rows;
        self.folded_batches += other.folded_batches;
        self.last = other.last;
        self.phase_secs += other.phase_secs;
    }
}

/// One ingest round: feed round `round`'s batches of `inputs.feed` into a
/// fresh `Ingestor` at the fixed rate while one closed-loop reader
/// replays `inputs.reads`, then flush and shut down.
fn ingest_round<L: AccuracyLoss + Clone>(
    srv: &Arc<Server>,
    loss: &L,
    inputs: &Inputs,
    round: usize,
    seed: u64,
    tally: &mut Tally,
) -> Ingested {
    let mut config = IngestConfig::from_env();
    config.refresh.seed = seed;
    config.refresh.mode = MaterializationMode::Tabula;
    let base_rows = srv.cube().table().len();
    let batches = round * inputs.round_batches..(round + 1) * inputs.round_batches;
    let interval = Duration::from_secs_f64(BATCH_ROWS as f64 / FEED_ROWS_PER_SEC);
    let ingestor = Ingestor::start(Arc::clone(srv), loss.clone(), config);
    let log = Arc::clone(ingestor.log());
    let first_seq = log.last_appended_seq() + 1;
    let stop = AtomicBool::new(false);
    let producer_done = AtomicBool::new(false);
    let appended = AtomicUsize::new(0);
    let started = Instant::now();

    let (reader, observed, produced, flushed, drained) = std::thread::scope(|s| {
        // The observer stamps the first moment each batch is visible.
        let observer = s.spawn(|| {
            let mut seen = Vec::with_capacity(inputs.round_batches);
            loop {
                let k = seen.len();
                if k >= appended.load(Ordering::Acquire) {
                    if producer_done.load(Ordering::Acquire)
                        && k >= appended.load(Ordering::Acquire)
                    {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                    continue;
                }
                if !log.wait_folded(first_seq + k as u64) {
                    break;
                }
                seen.push(Instant::now());
            }
            seen
        });
        let reader = s.spawn(|| reader_loop(srv, &inputs.reads, &stop));
        let produced = produce(&ingestor, &inputs.feed, batches.clone(), interval, &appended);
        producer_done.store(true, Ordering::Release);
        let flushed = ingestor.flush();
        let drained = Instant::now();
        stop.store(true, Ordering::Relaxed);
        let reader = reader.join().expect("reader thread panicked");
        let observed = observer.join().expect("observer thread panicked");
        (reader, observed, produced, flushed, drained)
    });

    count_fold(tally, "flush", &flushed);
    tally.add(checks::APPEND_REFUSED, produced.acked.len() as u64, 0);
    if let Some(e) = produced.refused.clone() {
        count_append(tally, &Err(e));
    }
    reader.tally(tally);
    let stats = ingestor.stats();
    let shutdown = ingestor.shutdown();
    count_fold(tally, "shutdown", &shutdown);

    // Every acknowledged row must be readable, unchanged, after flush.
    let acked_rows = produced.acked.len() * BATCH_ROWS;
    let first_row = batches.start * BATCH_ROWS;
    let missing = checks::unreadable_acked_rows(srv.cube().table(), base_rows, acked_rows, |i| {
        inputs.feed.row(first_row + i)
    });
    tally.add(checks::ACKED_UNREADABLE, acked_rows as u64, missing as u64);
    if missing > 0 {
        tally.note(format!("acked_unreadable: {missing} of {acked_rows} acked rows"));
    }
    tally.check(checks::FRESHNESS_AGREEMENT, observed.len() == produced.acked.len(), || {
        format!("observed {} of {} acked batches", observed.len(), produced.acked.len())
    });
    let since = |from: &[Instant]| -> Vec<f64> {
        observed.iter().zip(from).map(|(o, t)| (*o - *t).as_secs_f64() * 1e3).collect()
    };
    Ingested {
        reader,
        freshness_ms: since(&produced.due),
        ack_ms: since(&produced.acked),
        late_ms: produced.late_ms,
        append_us: produced.append_us,
        folds: stats.folds,
        folded_rows: stats.folded_rows,
        folded_batches: stats.folded_batches,
        last: stats,
        phase_secs: (drained - started).as_secs_f64(),
    }
}

/// Check what holds over all rounds: the producer kept its schedule, and
/// the benchmark's freshness agrees with the pipeline's own. The pipeline
/// times freshness from the append (ack) into a log₂ histogram; the
/// benchmark's ack-based median must fall in the same bucket, give or
/// take the observer's resolution.
fn check_ingest(ing: &Ingested, tally: &mut Tally) {
    let mut late = ing.late_ms.clone();
    late.sort_by(f64::total_cmp);
    let late_p95 = quantile(&late, 0.95);
    tally.check(checks::LOADGEN_LATE, late_p95 <= LATE_BOUND_MS, || {
        format!("producer p95 lateness {late_p95:.1} ms > {LATE_BOUND_MS} ms")
    });
    if ing.ack_ms.is_empty() {
        return;
    }
    let ours = median(&mut ing.ack_ms.clone());
    let theirs = ing.last.freshness_p50_ns as f64 / 1e6;
    let k = (ours * 1e6).max(1.0).log2().floor();
    let (lo, hi) = (2f64.powf(k) / 1e6, 2f64.powf(k + 1.0) / 1e6);
    let ok = theirs >= lo - OBSERVER_RESOLUTION_MS && theirs <= hi + OBSERVER_RESOLUTION_MS;
    tally.check(checks::FRESHNESS_AGREEMENT, ok, || {
        format!("ack-based freshness p50 {ours:.3} ms vs pipeline {theirs:.3} ms")
    });
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Whether two files hold the same bytes.
fn same_file_bytes(a: &Path, b: &Path) -> std::io::Result<bool> {
    use std::io::Read;
    let (mut fa, mut fb) = (std::fs::File::open(a)?, std::fs::File::open(b)?);
    if fa.metadata()?.len() != fb.metadata()?.len() {
        return Ok(false);
    }
    let (mut ba, mut bb) = (vec![0u8; 1 << 20], vec![0u8; 1 << 20]);
    loop {
        let n = fa.read(&mut ba)?;
        if n == 0 {
            return Ok(true);
        }
        fb.read_exact(&mut bb[..n])?;
        if ba[..n] != bb[..n] {
            return Ok(false);
        }
    }
}

/// Everything one run measured.
pub struct Outcome {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub tally: Tally,
    /// Sample counts and input sizes behind every figure.
    pub samples: Vec<(&'static str, f64)>,
    /// The individual samples behind the medians.
    pub raw: Vec<(&'static str, Vec<f64>)>,
}

/// Setup and restart are measured in blocks spread over the run — setup
/// at its start and end, restart also after the ingest phase — each
/// lasting at least this long, so that a slow stretch of a shared
/// machine moves a minority of the samples.
const BLOCK_SECS: f64 = 0.5;
/// Most repetitions in one block.
const BLOCK_MAX: usize = 100;

/// One block of builds (table → ready `Server`), appending each wall time
/// to `setup` in seconds; returns the last build. Builds are
/// deterministic in the seed, so each must agree with `first`.
#[allow(clippy::too_many_arguments)]
fn setup_block<L: AccuracyLoss + Clone>(
    spec: &Spec,
    inputs: &Inputs,
    loss: &L,
    seed: u64,
    first: Option<(usize, usize, usize)>,
    setup: &mut Vec<f64>,
    tally: &mut Tally,
) -> Result<(Arc<SamplingCube>, Server), String> {
    let started = Instant::now();
    let mut built: Option<(Arc<SamplingCube>, Server)> = None;
    let mut n = 0;
    while n < spec.builds.div_ceil(2)
        || (started.elapsed().as_secs_f64() < BLOCK_SECS && n < BLOCK_MAX)
    {
        drop(built.take());
        let registry = Arc::new(Registry::new());
        let t0 = Instant::now();
        let (cube, srv) = build_server(inputs, loss, spec.loss.theta(), seed, &registry)
            .inspect_err(|e| {
                tally.check(checks::BUILD, false, || e.clone());
            })?;
        setup.push(t0.elapsed().as_secs_f64());
        let s = cube.stats();
        let this = (s.iceberg_cells, s.samples_after_selection, s.samgraph_edges);
        tally.check(checks::BUILD, first.unwrap_or(this) == this, || {
            format!("repeated builds disagree: {this:?} vs {first:?}")
        });
        built = Some((cube, srv));
        n += 1;
    }
    built.ok_or_else(|| "no build ran".into())
}

/// One block of restarts (snapshot file → ready `Server`), appending each
/// wall time to `restart` in seconds; returns the last server.
fn restart_block(
    spec: &Spec,
    snap: &Path,
    registry: &Arc<Registry>,
    restart: &mut Vec<f64>,
) -> Result<Arc<Server>, String> {
    let started = Instant::now();
    let mut live: Option<Arc<Server>> = None;
    let mut n = 0;
    while n < spec.restarts.div_ceil(2)
        || (started.elapsed().as_secs_f64() < BLOCK_SECS && n < BLOCK_MAX)
    {
        drop(live.take());
        let t0 = Instant::now();
        let (c, _) =
            SamplingCube::from_snapshot(snap).map_err(|e| format!("snapshot load: {e}"))?;
        let srv = Server::with_cache(
            Arc::new(c.with_registry(registry)),
            AnswerCache::from_env(),
            Arc::clone(registry),
        )
        .map_err(|e| format!("server construction: {e}"))?;
        restart.push(t0.elapsed().as_secs_f64());
        live = Some(Arc::new(srv));
        n += 1;
    }
    live.ok_or_else(|| "no restart ran".into())
}

/// Run one workload. `Err` is a failure that stops the run.
pub fn run<L: AccuracyLoss + Clone>(
    spec: &Spec,
    inputs: &Inputs,
    loss: &L,
    seed: u64,
    trace: bool,
    work_dir: &Path,
) -> Result<Outcome, String> {
    let theta = spec.loss.theta();
    let mut tally = Tally::default();
    let mut e2e = Metrics::default();
    let mut layers = Metrics::default();
    let mut raw: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut samples: Vec<(&'static str, f64)> = vec![
        ("table_rows", inputs.table.len() as f64),
        ("cubed_attrs", inputs.attrs.len() as f64),
        ("session_queries", inputs.order.len() as f64),
        ("session_distinct_cells", inputs.session.len() as f64),
        ("read_set_cells", inputs.reads.len() as f64),
        ("feed_rows", inputs.feed.len() as f64),
        ("ingest_rounds", inputs.rounds as f64),
        ("ingest_round_batches", inputs.round_batches as f64),
        ("query_phase_s", inputs.query_secs),
        ("ingest_phase_s", inputs.ingest_secs),
    ];

    // ---- setup, first block: table → ready Server.
    let mut setup = Vec::new();
    let (cube, setup_srv) = setup_block(spec, inputs, loss, seed, None, &mut setup, &mut tally)?;
    let s = cube.stats();
    let built_stats = (s.iceberg_cells, s.samples_after_selection, s.samgraph_edges);

    // ---- snapshot, then restart, first block.
    std::fs::create_dir_all(work_dir).map_err(|e| format!("work dir: {e}"))?;
    let snap = work_dir.join(format!("{}-{}.tabsnap", spec.name, std::process::id()));
    let epoch = setup_srv.epoch();
    let t0 = Instant::now();
    let file_bytes =
        cube.write_snapshot(&snap, epoch).map_err(|e| format!("snapshot write: {e}"))?;
    let write_ms = t0.elapsed().as_secs_f64() * 1e3;
    e2e.put("snapshot_mb", file_bytes as f64 / MB, "MB");
    let live_registry = Arc::new(Registry::new());
    let mut restart = Vec::new();
    let live = restart_block(spec, &snap, &live_registry, &mut restart)?;

    // The reloaded cube must answer exactly as the built one, and freeze
    // back into the very same bytes.
    let reloaded = live.cube();
    check_snapshot_answers(&cube, &reloaded, &inputs.session, &mut tally);
    check_snapshot_answers(&cube, &reloaded, &inputs.reads, &mut tally);
    let refrozen = work_dir.join(format!("{}-{}.refrozen", spec.name, std::process::id()));
    let same = reloaded
        .write_snapshot(&refrozen, epoch)
        .map_err(|e| e.to_string())
        .and_then(|_| same_file_bytes(&snap, &refrozen).map_err(|e| e.to_string()));
    std::fs::remove_file(&refrozen).ok();
    tally.check(checks::SNAPSHOT_MISMATCH, matches!(same, Ok(true)), || {
        format!("re-frozen snapshot is not byte-identical: {same:?}")
    });

    if trace {
        crate::layers::store(&snap, &cube, epoch, write_ms, &mut layers)?;
        crate::layers::kernels(inputs, &cube, &mut layers)?;
        crate::layers::index_build(&cube, &mut layers)?;
    }
    layers.put(
        "store.bytes_per_table_byte",
        file_bytes as f64 / inputs.table.heap_bytes() as f64,
        "ratio",
    );
    let built_cube_mb = cube.memory_breakdown().total() as f64 / MB;
    drop(setup_srv);
    drop(cube);

    // ---- query phase: closed-loop clients on the reloaded server.
    let mut query: Option<Clients> = None;
    if spec.query_share > 0.0 {
        let expected: Vec<Expected> = inputs
            .session
            .iter()
            .map(|p| expected_of(&reloaded, p).ok_or_else(|| format!("{p:?}: cube query failed")))
            .collect::<Result<_, _>>()?;
        // Warm the answer cache with an untimed stretch of the session, as
        // a dashboard that has been up for a while would have.
        for &p in &inputs.order[..inputs.order.len().min(WARMUP_QUERIES)] {
            serve_checked(
                &live,
                &inputs.session[p as usize],
                Some(&expected[p as usize]),
                &mut tally,
            );
        }
        let before = live_registry.snapshot();
        let q = closed_loop(
            &live,
            &inputs.session,
            &inputs.order,
            &expected,
            spec.clients,
            inputs.query_secs,
        );
        let after = live_registry.snapshot();
        q.tally(&mut tally);
        serve_layers(&before, &after, &live, inputs.session.len(), &mut layers);
        check_theta(&live, loss, theta, &inputs.session, spec.theta_cells, seed, &mut tally);
        query = Some(q);
    }
    drop(reloaded);

    // ---- ingest phase: rounds of an open-loop producer beside a
    // closed-loop reader, each from the same base generation.
    let pre_ingest = live.cube();
    let before = live_registry.snapshot();
    let mut ing: Option<Ingested> = None;
    for round in 0..inputs.rounds {
        live.install(Arc::clone(&pre_ingest)).map_err(|e| format!("install: {e}"))?;
        let r = ingest_round(&live, loss, inputs, round, seed, &mut tally);
        match &mut ing {
            Some(acc) => acc.then(r),
            None => ing = Some(r),
        }
    }
    let ing = ing.ok_or("no ingest round ran")?;
    let after = live_registry.snapshot();
    check_ingest(&ing, &mut tally);
    check_theta(&live, loss, theta, &inputs.reads, spec.theta_cells / 3, seed ^ 1, &mut tally);
    drop(restart_block(spec, &snap, &live_registry, &mut restart)?);

    let reader_is_query = query.is_none();
    let q = query.as_ref().unwrap_or(&ing.reader);
    if reader_is_query {
        serve_layers(&before, &after, &live, inputs.reads.len(), &mut layers);
    }
    e2e.put("query_qps", q.qps(), "1/s");
    e2e.put("query_p50_us", q.quantile_us(0.50), "us");
    e2e.put("query_p99_us", q.quantile_us(0.99), "us");
    samples.push(("query_samples", q.hist.count() as f64));
    samples.push(("query_samples_beyond_p99", q.hist.beyond(0.99) as f64));
    samples.push(("query_windows", q.whole_windows().len() as f64));
    samples.push(("query_samples_per_window_min", q.min_window_samples() as f64));
    samples.push(("query_clients", if reader_is_query { 1.0 } else { spec.clients as f64 }));
    samples.push(("ingest_reader_answers", ing.reader.answers as f64));
    samples.push(("ingest_reader_qps", ing.reader.qps()));
    raw.push((
        "query_window_qps",
        q.whole_windows().iter().map(|w| w.1 as f64 / WINDOW_SECS).collect(),
    ));

    let mut fresh = ing.freshness_ms.clone();
    fresh.sort_by(f64::total_cmp);
    e2e.put("freshness_p50_ms", quantile(&fresh, 0.50), "ms");
    e2e.put("freshness_p95_ms", quantile(&fresh, 0.95), "ms");
    samples.push(("freshness_batches", fresh.len() as f64));
    samples.push(("ingest_base_rows", pre_ingest.table().len() as f64));
    raw.push(("freshness_ms", ing.freshness_ms.clone()));

    // Memory of the cube (paper Fig. 9): as built, or the last generation
    // when ingestion is the workload's point.
    let cube_mb = if reader_is_query {
        live.cube().memory_breakdown().total() as f64 / MB
    } else {
        built_cube_mb
    };
    layers.put("core.cube_mb", cube_mb, "MB");

    // Ingest layer figures come from the live rounds.
    let fold = after
        .histograms
        .get(INGEST_FOLD_NS)
        .cloned()
        .unwrap_or_else(|| tabula_obs::Histogram::new().snapshot());
    layers.put("ingest.fold_p50_ms", fold.p50() as f64 / 1e6, "ms");
    layers.put("ingest.fold_p95_ms", fold.p95() as f64 / 1e6, "ms");
    layers.put("ingest.folds", ing.folds as f64, "count");
    layers.put("ingest.rows_per_fold", ing.folded_rows as f64 / ing.folds.max(1) as f64, "rows");
    layers.put("ingest.maint_busy_ratio", fold.sum_ns as f64 / 1e9 / ing.phase_secs, "ratio");
    let mut append = ing.append_us.clone();
    append.sort_by(f64::total_cmp);
    layers.put("ingest.append_us_p95", quantile(&append, 0.95), "us");
    let mut late = ing.late_ms.clone();
    late.sort_by(f64::total_cmp);
    layers.put("loadgen.late_ms_p95", quantile(&late, 0.95), "ms");
    layers.put("loadgen.clients", if reader_is_query { 1.0 } else { spec.clients as f64 }, "count");
    samples.push(("ingest_folds", ing.folds as f64));

    if trace {
        crate::layers::build_stages(
            spec,
            inputs,
            loss,
            seed,
            built_stats,
            &mut layers,
            &mut samples,
            &mut tally,
        )?;
        let (preds, order): (&[Predicate], Vec<u32>) = if reader_is_query {
            let n = inputs.reads.len() as u32;
            (&inputs.reads, (0..n).cycle().take(20 * n as usize).collect())
        } else {
            (&inputs.session, inputs.order.clone())
        };
        crate::layers::serve_stages(&pre_ingest, preds, &order, &mut layers)?;
        crate::layers::fold_replay(
            &pre_ingest,
            loss,
            inputs,
            seed,
            (ing.folded_batches as f64 / ing.folds.max(1) as f64).round().max(1.0) as usize,
            &mut layers,
            &mut samples,
            &mut tally,
        )?;
    }
    drop(pre_ingest);
    drop(live);

    // ---- setup and restart, second blocks.
    drop(setup_block(spec, inputs, loss, seed, Some(built_stats), &mut setup, &mut tally)?);
    drop(restart_block(spec, &snap, &live_registry, &mut restart)?);
    std::fs::remove_file(&snap).ok();
    raw.push(("setup_s", setup.clone()));
    raw.push(("restart_s", restart.clone()));
    samples.push(("setup_builds", setup.len() as f64));
    samples.push(("restarts", restart.len() as f64));
    e2e.put("setup_s", median(&mut setup), "s");
    e2e.put("restart_s", median(&mut restart), "s");
    e2e.put("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(Outcome { e2e, layers, tally, samples, raw })
}

/// Serve-layer counters over one phase.
fn serve_layers(
    before: &tabula_obs::MetricsSnapshot,
    after: &tabula_obs::MetricsSnapshot,
    srv: &Server,
    distinct: usize,
    layers: &mut Metrics,
) {
    let d = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let (hits, misses) = (d(SERVE_HITS), d(SERVE_MISSES));
    layers.put("serve.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    layers.put("serve.evictions", d(SERVE_EVICTIONS), "count");
    layers.put("serve.distinct_cells", distinct as f64, "count");
    layers.put("serve.cache_mb", srv.cache().bytes() as f64 / MB, "MB");
}
