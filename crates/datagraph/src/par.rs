//! Scoped-thread helpers for row-block-parallel relation algebra.
//!
//! The hot [`crate::Relation`] operations (composition, unions, closure
//! materialisation) split their work into contiguous **row blocks** and run
//! the blocks on `std::thread::scope` workers — no external thread-pool
//! dependency, and borrows of the input relations flow straight into the
//! workers.
//!
//! One process-wide knob bounds every parallel operation:
//! [`set_max_threads`]. The default (`0`) resolves to the `GDE_MAX_THREADS`
//! environment variable and, when that is unset (or `0`, or unparsable),
//! to the machine's available parallelism capped at 8: relation algebra is
//! memory-bound and gains little beyond that. Either way the default is
//! resolved **once**, on first use: probing the machine's parallelism reads
//! cgroup files, far too slow for a value asked for on every fan-out.
//! Parallel paths only engage when a block would hold enough rows to
//! amortise thread spawn cost; small relations always run sequentially on
//! the calling thread.
//!
//! `GDE_MAX_THREADS` is the deployment-side form of the knob: a serving
//! process (e.g. `gde-core`'s `MappingService`) can be pinned to a core
//! budget without a code change. [`set_max_threads`] still overrides it at
//! runtime; passing `0` restores the environment/auto default.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lock a mutex, recovering the guard if a previous holder panicked.
///
/// Every invariant guarded by a mutex in this workspace is restored before
/// the critical section ends (byte counters are settled, maps are left
/// consistent), so a poisoned lock carries no information beyond "some
/// thread panicked here once" — recovery is always safe and keeps one
/// contained worker panic from wedging a shared cache forever. This is the
/// single poison-recovery point shared by the serving engine, the
/// sub-relation cache, and the fault harness.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`lock_recover`] for `RwLock` readers.
pub fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// [`lock_recover`] for `RwLock` writers.
pub fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// `0` = default (the `GDE_MAX_THREADS` env var, else available
/// parallelism capped at [`AUTO_CAP`]).
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The default thread budget, resolved once per process.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// Parse a `GDE_MAX_THREADS` setting: a positive thread count (clamped to
/// [`HARD_CAP`]), with unset/empty/unparsable/`0` all meaning "no default".
fn parse_thread_env(raw: Option<&str>) -> usize {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .unwrap_or(0)
        .min(HARD_CAP)
}

/// The `GDE_MAX_THREADS` value, else the machine's available parallelism
/// capped at [`AUTO_CAP`].
fn default_threads() -> usize {
    *DEFAULT_THREADS.get_or_init(|| {
        match parse_thread_env(std::env::var("GDE_MAX_THREADS").ok().as_deref()) {
            0 => std::thread::available_parallelism()
                .map(|v| v.get())
                .unwrap_or(1)
                .min(AUTO_CAP),
            n => n,
        }
    })
}

/// Serialises tests that mutate the process-global [`MAX_THREADS`] knob, so
/// exact-value assertions don't race across the test binary's threads.
#[cfg(test)]
pub(crate) fn test_knob_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Upper bound for auto-detected parallelism.
const AUTO_CAP: usize = 8;

/// Hard upper bound for explicitly configured parallelism.
const HARD_CAP: usize = 64;

/// Set the maximum number of worker threads used by relation algebra.
/// `0` restores the default (the `GDE_MAX_THREADS` environment variable,
/// else auto-detection; resolved once per process). Values above 64 are
/// clamped.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n.min(HARD_CAP), Ordering::Relaxed);
}

/// The resolved maximum number of worker threads (≥ 1).
pub fn max_threads() -> usize {
    match MAX_THREADS.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
    .max(1)
}

/// How many workers to use for `items` units of work, requiring at least
/// `min_per_thread` units per worker. Returns 1 when parallelism is off or
/// the work is too small to split.
pub(crate) fn threads_for(items: usize, min_per_thread: usize) -> usize {
    let t = max_threads();
    if t <= 1 || items < 2 * min_per_thread.max(1) {
        return 1;
    }
    t.min(items / min_per_thread.max(1)).max(1)
}

/// A contained worker panic, reported by the `try_` fan-out variants
/// instead of aborting the process.
///
/// Carries the first panic payload rendered as a string plus **every**
/// failed task index ([`try_map_tasks`]) — the whole fan-out is still
/// driven to completion so one poisoned unit doesn't hide others.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The first caught panic payload (`&str`/`String` payloads verbatim,
    /// anything else a placeholder).
    pub message: String,
    /// The indices whose worker closure panicked, in ascending order.
    pub indices: Vec<usize>,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked at {} of the fan-out (first failed index {}): {}",
            self.indices.len(),
            self.indices.first().copied().unwrap_or(0),
            self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Render a caught panic payload for [`WorkerPanic::message`] (public so
/// engines that `catch_unwind` on the calling thread report the same
/// message shape as the `try_` fan-outs).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f` over contiguous index blocks covering `0..items`, in scoped
/// worker threads, and collect the per-block results **in block order**.
/// Falls back to a single inline call when the work is too small; `0`
/// items yield no blocks at all.
///
/// Public so the relation algebra and the engines layered above share one
/// thread knob. A panicking block worker re-panics on the calling thread;
/// serving paths that must survive poisoned workers use
/// [`try_map_tasks`].
pub fn map_blocks<T, F>(items: usize, min_per_thread: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    try_map_blocks(items, min_per_thread, f).unwrap_or_else(|p| panic!("relation worker: {p}"))
}

/// [`map_blocks`], but with every block worker wrapped in
/// `catch_unwind`: a panicking block becomes an `Err(WorkerPanic)` naming
/// the failed **block** indices instead of aborting the process. All
/// blocks still run (results of surviving blocks are discarded on error).
fn try_map_blocks<T, F>(items: usize, min_per_thread: usize, f: F) -> Result<Vec<T>, WorkerPanic>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if items == 0 {
        return Ok(Vec::new());
    }
    let t = threads_for(items, min_per_thread);
    if t <= 1 {
        return try_run_indexed(1, 1, |_| f(0..items));
    }
    let per = items.div_ceil(t);
    try_run_indexed(t, t, |k| {
        let lo = k * per;
        f(lo..items.min(lo + per))
    })
}

/// Run `f(i)` for every task index `0..count` on scoped worker threads,
/// collecting the results **in task order**. Tasks are claimed one at a
/// time from a shared atomic queue — the dynamic scheduler behind batch
/// serving in `gde-core` (one task per missed query), where task costs
/// are too uneven for [`map_blocks`]'s static cuts. Runs inline
/// when parallelism is off or there is at most one task. A panicking task
/// re-panics on the calling thread; see [`try_map_tasks`] for containment.
pub fn map_tasks<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    try_map_tasks(count, f).unwrap_or_else(|p| panic!("task worker: {p}"))
}

/// [`map_tasks`], but with every task wrapped in `catch_unwind`
/// (`AssertUnwindSafe` over the claimed-index loop): panicking tasks are
/// contained, the queue keeps draining, and the caller gets an
/// `Err(WorkerPanic)` listing every failed task index. Shared state
/// captured by `f` must be restored to a consistent state by the caller
/// (the engine quarantines the affected solution).
pub fn try_map_tasks<T, F>(count: usize, f: F) -> Result<Vec<T>, WorkerPanic>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    try_run_indexed(count, max_threads().min(count), f)
}

/// Shared driver: run `f(i)` for `i in 0..count` on up to `t` scoped
/// workers (inline when `t <= 1`), catching each call's panic.
fn try_run_indexed<T, F>(count: usize, t: usize, f: F) -> Result<Vec<T>, WorkerPanic>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run = |i: usize| catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|p| panic_message(&*p));
    let parts: Vec<Vec<(usize, Result<T, String>)>> = if t <= 1 {
        vec![(0..count).map(|i| (i, run(i))).collect()]
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (run, next) = (&run, &next);
            let handles: Vec<_> = (0..t)
                .map(|_| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= count {
                                break out;
                            }
                            out.push((i, run(i)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker contains its own panics"))
                .collect()
        })
    };
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let mut failed = Vec::new();
    let mut message = None;
    for (i, r) in parts.into_iter().flatten() {
        match r {
            Ok(v) => slots[i] = Some(v),
            Err(m) => {
                if message.is_none() {
                    message = Some(m);
                }
                failed.push(i);
            }
        }
    }
    if let Some(message) = message {
        failed.sort_unstable();
        return Err(WorkerPanic {
            message,
            indices: failed,
        });
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every task claimed"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_roundtrip_and_floor() {
        let _guard = test_knob_lock();
        set_max_threads(3);
        assert_eq!(max_threads(), 3);
        set_max_threads(1_000);
        assert_eq!(max_threads(), 64);
        set_max_threads(0);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn blocks_cover_everything_in_order() {
        let _guard = test_knob_lock();
        set_max_threads(4);
        let blocks = map_blocks(1025, 100, |r| r.collect::<Vec<usize>>());
        let flat: Vec<usize> = blocks.into_iter().flatten().collect();
        assert_eq!(flat, (0..1025).collect::<Vec<usize>>());
        set_max_threads(0);
    }

    #[test]
    fn thread_env_parsing() {
        assert_eq!(parse_thread_env(None), 0);
        assert_eq!(parse_thread_env(Some("")), 0);
        assert_eq!(parse_thread_env(Some("not a number")), 0);
        assert_eq!(parse_thread_env(Some("0")), 0);
        assert_eq!(parse_thread_env(Some("6")), 6);
        assert_eq!(parse_thread_env(Some(" 12 ")), 12);
        assert_eq!(parse_thread_env(Some("100000")), HARD_CAP);
    }

    #[test]
    fn small_work_stays_inline() {
        assert_eq!(threads_for(10, 512), 1);
        let blocks = map_blocks(10, 512, |r| r.len());
        assert_eq!(blocks, vec![10]);
    }

    #[test]
    fn task_queue_drains_more_tasks_than_threads() {
        let _guard = test_knob_lock();
        set_max_threads(3);
        // 97 tasks over 3 workers: every index must be claimed exactly
        // once from the shared queue, and results come back in task order
        let claims = AtomicUsize::new(0);
        let got = map_tasks(97, |i| {
            claims.fetch_add(1, Ordering::Relaxed);
            i * 2
        });
        assert_eq!(claims.load(Ordering::Relaxed), 97);
        assert_eq!(got, (0..97).map(|i| i * 2).collect::<Vec<usize>>());
        set_max_threads(0);
    }

    #[test]
    fn task_queue_single_thread_runs_inline() {
        let _guard = test_knob_lock();
        set_max_threads(1);
        // with one worker the queue degenerates to a sequential loop on
        // the calling thread — observable through thread identity
        let caller = std::thread::current().id();
        let got = map_tasks(10, |i| (i, std::thread::current().id()));
        for (i, (idx, tid)) in got.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*tid, caller, "single-thread fallback must stay inline");
        }
        set_max_threads(0);
    }

    #[test]
    fn empty_inputs_produce_empty_outputs() {
        let _guard = test_knob_lock();
        for t in [1, 4] {
            set_max_threads(t);
            assert_eq!(map_tasks(0, |i| i), Vec::<usize>::new());
            assert_eq!(
                map_blocks(0, 1, |r| r.len()),
                Vec::<usize>::new(),
                "zero items means zero blocks, not one phantom empty block"
            );
        }
        set_max_threads(0);
    }

    #[test]
    fn try_variants_pass_results_through_on_success() {
        let _guard = test_knob_lock();
        for t in [1, 4] {
            set_max_threads(t);
            assert_eq!(
                try_map_tasks(9, |i| i * 3).unwrap(),
                (0..9).map(|i| i * 3).collect::<Vec<_>>()
            );
            let blocks = try_map_blocks(1025, 100, |r| r.collect::<Vec<usize>>()).unwrap();
            let flat: Vec<usize> = blocks.into_iter().flatten().collect();
            assert_eq!(flat, (0..1025).collect::<Vec<usize>>());
            let ranges = [0..5, 5..6, 6..40];
            assert_eq!(
                try_map_tasks(ranges.len(), |i| (i, ranges[i].len())).unwrap(),
                vec![(0, 5), (1, 1), (2, 34)]
            );
        }
        set_max_threads(0);
    }

    #[test]
    fn try_map_tasks_contains_panics_and_gathers_every_failed_index() {
        let _guard = test_knob_lock();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep injected panics off stderr
        for t in [1, 4] {
            set_max_threads(t);
            let claims = AtomicUsize::new(0);
            let err = try_map_tasks(20, |i| {
                claims.fetch_add(1, Ordering::Relaxed);
                if i % 7 == 3 {
                    panic!("poisoned task {i}");
                }
                i
            })
            .unwrap_err();
            // the queue drains fully even with failures in the middle
            assert_eq!(claims.load(Ordering::Relaxed), 20);
            assert_eq!(err.indices, vec![3, 10, 17]);
            assert!(err.message.starts_with("poisoned task"), "{}", err.message);
        }
        set_max_threads(0);
        std::panic::set_hook(hook);
    }

    #[test]
    fn try_map_blocks_reports_block_indices() {
        let _guard = test_knob_lock();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        set_max_threads(4);
        let err = try_map_blocks(400, 50, |r| {
            if r.start == 0 {
                panic!("first block dies");
            }
            r.len()
        })
        .unwrap_err();
        assert_eq!(err.indices, vec![0]);
        assert_eq!(err.message, "first block dies");
        set_max_threads(0);
        std::panic::set_hook(hook);
    }

    #[test]
    fn uneven_task_costs_still_cover_all_tasks() {
        let _guard = test_knob_lock();
        set_max_threads(4);
        // one task is much slower: dynamic claiming must not lose or
        // duplicate the cheap ones behind it
        let got = map_tasks(16, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(got, (0..16).collect::<Vec<usize>>());
        set_max_threads(0);
    }

    #[test]
    fn shards_come_back_in_stripe_order() {
        let _guard = test_knob_lock();
        for t in [1, 3] {
            set_max_threads(t);
            // uneven ranges, empty ones included
            let ranges = [0..5, 5..6, 6..40, 40..40, 40..41];
            let got = map_tasks(ranges.len(), |i| (i, ranges[i].len()));
            assert_eq!(got, vec![(0, 5), (1, 1), (2, 34), (3, 0), (4, 1)]);
        }
        set_max_threads(0);
    }
}
