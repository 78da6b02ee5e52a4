//! # tabula-par — morsel-driven deterministic parallel execution
//!
//! A `std`-only parallel execution layer for the cube pipeline: a scoped
//! worker pool with per-worker work-stealing deques, plus three
//! primitives — [`Pool::par_map`], [`Pool::par_chunks`] and
//! [`Pool::par_fold_merge`] — that every hot stage (finest-cuboid scan,
//! lattice rollup, dry-run classification, group-by, per-cell sampling,
//! SamGraph join) is built on.
//!
//! ## Determinism contract
//!
//! Results are **byte-identical across any thread count**, including 1:
//!
//! * work is decomposed into *morsels* whose boundaries depend only on the
//!   input size (default [`DEFAULT_MORSEL_ROWS`] rows), never on the
//!   thread count;
//! * each morsel is processed sequentially by exactly one worker;
//! * partial results are combined in ascending morsel order on the calling
//!   thread.
//!
//! The thread count therefore only decides *who* runs a morsel and *when*
//! — never what is computed. This matters beyond hash-map equality:
//! floating-point accumulation (e.g. [`SumCount`-style] states) is not
//! associative, so the merge sequence itself must be pinned. Because the
//! serial path (`TABULA_THREADS=1`) executes the same morsels in the same
//! merge order inline, it is bit-for-bit the parallel result.
//!
//! ## Configuration
//!
//! The process-wide thread count comes from the `TABULA_THREADS`
//! environment variable (`0` or unset = `available_parallelism`), read
//! once at first use. [`scoped_threads`] overrides the count for one
//! closure on the calling thread only (and the pool workers it spawns) —
//! the benchmark harness uses it to measure serial-vs-parallel speedup
//! inside one process, and concurrent callers such as tests sweeping
//! thread counts in parallel cannot reset each other's setting.
//!
//! ## Instrumentation
//!
//! The pool reports into the global [`tabula_obs`] registry:
//! `par.tasks` / `par.steals` counters, `par.morsel_ns` and
//! `par.queue_depth` histograms, and a `par.threads` gauge — so
//! `BENCH_*.json` summaries can show scheduler behaviour next to stage
//! wall times.
//!
//! [`SumCount`-style]: https://en.wikipedia.org/wiki/Floating-point_arithmetic#Accuracy_problems

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tabula_obs as obs;

/// Default morsel granularity: ~64k rows, the classic morsel-driven size —
/// big enough to amortize scheduling, small enough to load-balance.
pub const DEFAULT_MORSEL_ROWS: usize = 1 << 16;

thread_local! {
    /// Per-thread override set by [`scoped_threads`] (0 = none),
    /// inherited by pool workers.
    static SCOPED_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Thread count resolved from the `TABULA_THREADS` environment variable,
/// cached after the first read (usize::MAX = not yet read).
static ENV_THREADS: AtomicUsize = AtomicUsize::new(usize::MAX);

fn env_threads() -> usize {
    let cached = ENV_THREADS.load(Ordering::Relaxed);
    if cached != usize::MAX {
        return cached;
    }
    let parsed = std::env::var("TABULA_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    ENV_THREADS.store(parsed, Ordering::Relaxed);
    parsed
}

fn auto_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The effective worker-thread count: scoped override, else
/// `TABULA_THREADS`, else `available_parallelism`.
pub fn threads() -> usize {
    let scoped = SCOPED_OVERRIDE.with(Cell::get);
    if scoped != 0 {
        return scoped;
    }
    match env_threads() {
        0 => auto_threads(),
        n => n,
    }
}

/// Run `f` with the thread count overridden to `n` (`0` = no override)
/// on this thread and in every pool worker it spawns, restoring the
/// previous setting afterwards, also on panic. Other threads never see
/// it, so concurrent sweeps are isolated. Results are unaffected by
/// construction — only wall time changes.
pub fn scoped_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(SCOPED_OVERRIDE.with(|c| c.replace(n)));
    f()
}

/// Handle on the parallel execution layer: a thread count plus the obs
/// instruments. Cheap to construct; worker threads are scoped per call
/// (no idle threads linger between stages).
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::global()
    }
}

/// Per-worker state: the owned deque workers pop from the front of and
/// victims steal from the back of.
struct Deque {
    tasks: Mutex<VecDeque<usize>>,
}

impl Pool {
    /// The pool at the process-wide thread count (see [`threads`]).
    pub fn global() -> Self {
        Pool { threads: threads() }
    }

    /// A pool with an explicit thread count (`0` = `available_parallelism`).
    pub fn with_threads(n: usize) -> Self {
        Pool { threads: if n == 0 { auto_threads() } else { n } }
    }

    /// Worker threads this pool schedules onto.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `tasks` independent tasks, returning their results in task
    /// order. The scheduling unit is the task index; distribution is
    /// block-cyclic into per-worker deques with back-steals when a worker
    /// drains its own.
    pub fn run<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if tasks == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(tasks);
        let metrics = obs::global();
        metrics.gauge("par.threads").set(self.threads as i64);
        let task_counter = metrics.counter("par.tasks");
        if workers <= 1 {
            // Serial path: same tasks, same order, same results.
            task_counter.add(tasks as u64);
            return (0..tasks).map(f).collect();
        }
        let steal_counter = metrics.counter("par.steals");
        let morsel_ns = metrics.histogram("par.morsel_ns");
        let queue_depth = metrics.histogram("par.queue_depth");

        // Block distribution: worker w owns a contiguous run of tasks, so
        // neighbouring morsels (likely touching neighbouring data) stay on
        // one core until stealing kicks in.
        let deques: Vec<Deque> = (0..workers)
            .map(|w| {
                let lo = tasks * w / workers;
                let hi = tasks * (w + 1) / workers;
                Deque { tasks: Mutex::new((lo..hi).collect()) }
            })
            .collect();

        // Workers inherit the caller's scoped override, so nested
        // `Pool::global()` calls see the thread count the caller sees.
        let scoped = SCOPED_OVERRIDE.with(Cell::get);
        let produced: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let deques = &deques;
                    let f = &f;
                    let task_counter = &task_counter;
                    let steal_counter = &steal_counter;
                    let morsel_ns = &morsel_ns;
                    let queue_depth = &queue_depth;
                    scope.spawn(move || {
                        SCOPED_OVERRIDE.with(|c| c.set(scoped));
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            // Own deque first (front), then steal (back).
                            let mut task = {
                                let mut q = deques[w].tasks.lock().unwrap();
                                queue_depth.record(q.len() as u64);
                                q.pop_front()
                            };
                            if task.is_none() {
                                for v in 1..workers {
                                    let victim = (w + v) % workers;
                                    if let Some(t) = deques[victim].tasks.lock().unwrap().pop_back()
                                    {
                                        steal_counter.inc();
                                        task = Some(t);
                                        break;
                                    }
                                }
                            }
                            let Some(i) = task else { break };
                            let start = Instant::now();
                            local.push((i, f(i)));
                            morsel_ns.record_duration(start.elapsed());
                            task_counter.inc();
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });
        let mut out: Vec<Option<R>> = Vec::new();
        out.resize_with(tasks, || None);
        for (i, r) in produced.into_iter().flatten() {
            out[i] = Some(r);
        }
        out.into_iter().map(|r| r.expect("every task produced a result")).collect()
    }

    /// Map `f` over `items` in parallel, preserving order.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run(items.len(), |i| f(&items[i]))
    }

    /// Morsel-driven iteration over `0..len`: split into `morsel`-sized
    /// ranges (boundaries independent of thread count), run `f` per range,
    /// return the per-morsel results in range order.
    pub fn par_chunks<R, F>(&self, len: usize, morsel: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let morsel = morsel.max(1);
        let n_morsels = len.div_ceil(morsel);
        self.run(n_morsels, |i| {
            let lo = i * morsel;
            f(lo..(lo + morsel).min(len))
        })
    }

    /// Morsel-driven accumulate-then-merge over `0..len`: `fold` builds
    /// one accumulator per morsel, `merge` combines them **in ascending
    /// morsel order** on the calling thread (the ordered merge that keeps
    /// non-associative accumulation deterministic). Returns `None` for an
    /// empty range.
    pub fn par_fold_merge<A, F, M>(
        &self,
        len: usize,
        morsel: usize,
        fold: F,
        mut merge: M,
    ) -> Option<A>
    where
        A: Send,
        F: Fn(Range<usize>) -> A + Sync,
        M: FnMut(A, A) -> A,
    {
        let mut partials = self.par_chunks(len, morsel, fold).into_iter();
        let first = partials.next()?;
        Some(partials.fold(first, &mut merge))
    }
}

/// [`Pool::par_map`] on the process-wide pool.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    Pool::global().par_map(items, f)
}

/// [`Pool::par_chunks`] on the process-wide pool with the default morsel.
pub fn par_chunks<R: Send>(len: usize, f: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
    Pool::global().par_chunks(len, DEFAULT_MORSEL_ROWS, f)
}

/// [`Pool::par_fold_merge`] on the process-wide pool with the default
/// morsel.
pub fn par_fold_merge<A: Send>(
    len: usize,
    fold: impl Fn(Range<usize>) -> A + Sync,
    merge: impl FnMut(A, A) -> A,
) -> Option<A> {
    Pool::global().par_fold_merge(len, DEFAULT_MORSEL_ROWS, fold, merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = Pool::with_threads(threads);
            assert_eq!(pool.par_map(&items, |&x| x * x), expect, "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_boundaries_are_thread_count_independent() {
        let serial = Pool::with_threads(1).par_chunks(1000, 64, |r| r);
        for threads in [2, 5, 16] {
            let pool = Pool::with_threads(threads);
            assert_eq!(pool.par_chunks(1000, 64, |r| r), serial, "threads={threads}");
        }
        // Boundaries tile the range exactly.
        assert_eq!(serial.first().unwrap().start, 0);
        assert_eq!(serial.last().unwrap().end, 1000);
        for w in serial.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn fold_merge_is_bitwise_deterministic_for_floats() {
        // Sums crafted so that association order changes the bits.
        let values: Vec<f64> = (0..100_000).map(|i| 1.0 + (i as f64) * 1e-9).collect();
        let fold = |r: Range<usize>| values[r].iter().sum::<f64>();
        let reference =
            Pool::with_threads(1).par_fold_merge(values.len(), 1024, fold, |a, b| a + b).unwrap();
        for threads in [2, 4, 32] {
            let got = Pool::with_threads(threads)
                .par_fold_merge(values.len(), 1024, fold, |a, b| a + b)
                .unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn empty_inputs() {
        let pool = Pool::with_threads(4);
        assert!(pool.run(0, |i| i).is_empty());
        assert!(pool.par_map::<u8, u8, _>(&[], |&x| x).is_empty());
        assert!(pool.par_chunks(0, 16, |r| r).is_empty());
        assert!(pool.par_fold_merge(0, 16, |_| 0u8, |a, _| a).is_none());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let ran = AtomicU64::new(0);
        let pool = Pool::with_threads(7);
        let out = pool.run(500, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), 500);
        assert_eq!(out, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn thread_knobs_resolve() {
        assert_eq!(scoped_threads(3, threads), 3);
        assert_eq!(scoped_threads(3, || Pool::global().threads()), 3);
        assert!(scoped_threads(0, threads) >= 1);
        assert!(threads() >= 1);
        assert!(Pool::with_threads(0).threads() >= 1);
    }

    #[test]
    fn scoped_threads_is_per_thread_and_inherited_by_workers() {
        let outer = threads();
        let (inner, seen_by_workers) = scoped_threads(outer + 5, || {
            let other = std::thread::spawn(threads).join().unwrap();
            assert_eq!(other, outer, "a scoped override must not leak to other threads");
            (threads(), Pool::with_threads(3).run(6, |_| threads()))
        });
        assert_eq!(inner, outer + 5);
        assert!(seen_by_workers.iter().all(|&t| t == outer + 5), "{seen_by_workers:?}");
        assert_eq!(threads(), outer);
        let caught = std::panic::catch_unwind(|| scoped_threads(outer + 5, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(threads(), outer, "the override is restored on panic");
    }

    #[test]
    fn pool_reports_task_metrics() {
        let before = obs::global().counter("par.tasks").get();
        Pool::with_threads(2).run(64, |i| i);
        let after = obs::global().counter("par.tasks").get();
        assert!(after >= before + 64);
    }
}
