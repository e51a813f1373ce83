//! Deterministic fan-out of experiment work across OS threads.
//!
//! The evaluation pipeline is embarrassingly parallel: 16 mixes × 4
//! schemes, a benchmark × partition-size sensitivity grid, and sweeps of
//! independent `R_max` solves. Every task in those collections owns its
//! state (its `Runner`, its seeded RNGs), so fanning out is safe as long
//! as results come back **in index order** — which is exactly what this
//! module guarantees:
//!
//! * Tasks are claimed from an atomic counter (work stealing), so uneven
//!   task cost does not serialize the pool.
//! * Each result is stored tagged with its task index and the collection
//!   is sorted by index before returning, so [`par_map_indexed`] is a
//!   drop-in replacement for `(0..n).map(f).collect()` — bit-identical
//!   output, any thread count.
//!
//! The implementation uses only `std::thread::scope`; there is no
//! dependency to vendor and nothing to download.
//!
//! Thread count: `UNTANGLE_THREADS` if set (a value of `1` runs the
//! plain sequential loop in the caller's thread), otherwise
//! [`std::thread::available_parallelism`].
//!
//! # Panic isolation
//!
//! [`par_map_isolated`] is the fault-tolerant sibling of
//! [`par_map_indexed`]: each work item runs under
//! [`std::panic::catch_unwind`], a panicking item is retried up to
//! [`RetryPolicy::max_attempts`] times, and every failed attempt is
//! recorded as an [`ItemFailure`] in the returned [`IsolatedRun`] instead
//! of tearing down the whole sweep. Because every task owns its state and
//! derives all randomness from its index, a retry re-executes `f(i)`
//! bit-identically — isolation never changes results, only whether a
//! crash aborts the run.
//!
//! The [`fault`] submodule provides the `UNTANGLE_FAULT_INJECT` hook used
//! by the fault-injection tests: it panics the first *N* work-item
//! executions process-wide, on both the threaded and sequential paths.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use untangle_core::UntangleError;
use untangle_obs as obs;

/// Locks `m`, clearing a poisoned flag if a worker died holding it.
///
/// Sound here because every critical section is a single `push`: a panic
/// between `lock` and `unlock` cannot leave the vector half-updated.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Number of worker threads the parallel entry points will use.
///
/// Resolution order: the `UNTANGLE_THREADS` environment variable, then
/// [`std::thread::available_parallelism`], then 1. `0` and values that
/// fail to parse are **rejected with a diagnostic** (via
/// [`untangle_obs::env::positive_count`], the same parser the serve
/// daemon uses for `UNTANGLE_SHARDS`) rather than silently clamped or
/// ignored, and the fallback chain applies.
pub fn thread_count() -> usize {
    obs::env::positive_count("UNTANGLE_THREADS").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Whether the fan-out would use more than one thread right now.
pub fn is_parallel() -> bool {
    thread_count() > 1
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// Runs on [`thread_count`] worker threads when both `n` and the thread
/// count exceed 1; otherwise runs the plain sequential loop. Output is
/// identical either way.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope re-raises it on join). Use
/// [`par_map_isolated`] when a panicking item must not abort the sweep.
pub fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_indexed_with(thread_count(), n, f)
}

/// [`par_map_indexed`] with an explicit worker count.
///
/// The drivers always go through [`par_map_indexed`]; this entry point
/// exists so tests can pin a worker count (e.g. compare 4 workers
/// against 1) without touching `UNTANGLE_THREADS`, which would race
/// across concurrently running tests.
pub fn par_map_indexed_with<R, F>(workers: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                lock_clean(&results).push((i, r));
            });
        }
    });

    let mut tagged = results
        .into_inner()
        .unwrap_or_else(|poison| poison.into_inner());
    tagged.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), n);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Maps `f` over a slice, returning results in input order.
///
/// See [`par_map_indexed`] for the execution contract.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// How many times an isolated work item may execute before it is given
/// up on and recorded as an unrecovered [`ItemFailure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total execution attempts per item (initial run plus retries).
    /// Never zero; [`RetryPolicy::new`] clamps to at least one.
    pub max_attempts: usize,
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` executions per item (clamped to
    /// at least one, since zero attempts could never produce a result).
    pub fn new(max_attempts: usize) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
        }
    }
}

impl Default for RetryPolicy {
    /// One attempt: isolate panics but do not retry.
    fn default() -> Self {
        Self { max_attempts: 1 }
    }
}

/// One failed execution attempt of one work item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemFailure {
    /// Index of the work item in the fan-out.
    pub item: usize,
    /// Which attempt panicked (1-based).
    pub attempt: usize,
    /// The panic payload when it was a string, or a placeholder.
    pub message: String,
    /// Whether a later attempt of the same item succeeded.
    pub recovered: bool,
}

/// The outcome of a panic-isolated fan-out.
///
/// `results[i]` is `Some` when item `i` eventually produced a value and
/// `None` when it exhausted its retry budget. `failures` records every
/// panicked attempt — including recovered ones — sorted by
/// `(item, attempt)` so reports are deterministic regardless of worker
/// scheduling.
#[derive(Debug)]
pub struct IsolatedRun<R> {
    /// Per-item results in index order; `None` marks an unrecovered item.
    pub results: Vec<Option<R>>,
    /// Every panicked attempt, sorted by `(item, attempt)`.
    pub failures: Vec<ItemFailure>,
}

impl<R> IsolatedRun<R> {
    /// Whether every item produced a result (failures may still be
    /// recorded if retries recovered them).
    pub fn is_complete(&self) -> bool {
        self.results.iter().all(Option::is_some)
    }

    /// Indices of items that exhausted their retry budget.
    pub fn failed_items(&self) -> Vec<usize> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_none().then_some(i))
            .collect()
    }

    /// Unwraps into a plain result vector, or the first unrecovered
    /// failure as [`UntangleError::WorkerPanic`].
    pub fn into_results(self) -> Result<Vec<R>, UntangleError> {
        let Self { results, failures } = self;
        let mut out = Vec::with_capacity(results.len());
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Some(r) => out.push(r),
                None => {
                    let fail = failures.iter().rfind(|f| f.item == i && !f.recovered);
                    return Err(UntangleError::WorkerPanic {
                        item: i,
                        attempts: fail.map(|f| f.attempt).unwrap_or(1),
                        message: fail.map(|f| f.message.clone()).unwrap_or_default(),
                    });
                }
            }
        }
        Ok(out)
    }
}

/// Renders a caught panic payload for an [`ItemFailure`] record.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs item `i` under `catch_unwind`, retrying per `policy`.
///
/// Shared by the threaded and sequential paths, so the fault-injection
/// hook and the retry semantics are identical at any worker count.
/// Returns the result (if any attempt succeeded) and the failure records
/// for every panicked attempt.
fn run_isolated<R, F>(i: usize, policy: RetryPolicy, f: &F) -> (Option<R>, Vec<ItemFailure>)
where
    F: Fn(usize) -> R + Sync,
{
    let mut failures: Vec<ItemFailure> = Vec::new();
    for attempt in 1..=policy.max_attempts {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            fault::maybe_panic(i);
            f(i)
        }));
        match outcome {
            Ok(r) => {
                for fail in &mut failures {
                    fail.recovered = true;
                }
                if attempt > 1 {
                    obs::counter_add("engine.retries_recovered", 1);
                }
                return (Some(r), failures);
            }
            Err(payload) => {
                obs::counter_add("engine.panic_isolations", 1);
                failures.push(ItemFailure {
                    item: i,
                    attempt,
                    message: panic_message(payload.as_ref()),
                    recovered: false,
                });
            }
        }
    }
    (None, failures)
}

/// Maps `f` over `0..n` with per-item panic isolation and retries.
///
/// The fault-tolerant sibling of [`par_map_indexed`]: a panicking item is
/// caught, retried up to [`RetryPolicy::max_attempts`] times, and — if it
/// never succeeds — recorded in the returned [`IsolatedRun`] while every
/// other item completes normally. On a clean run the `results` vector is
/// bit-identical to `par_map_indexed(n, f)` wrapped in `Some`, for any
/// worker count.
///
/// Retries are deterministic: `f` receives the same index, and the
/// drivers derive every seed from that index, so a retried item cannot
/// diverge from an un-retried one.
pub fn par_map_isolated<R, F>(n: usize, policy: RetryPolicy, f: F) -> IsolatedRun<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_isolated_with(thread_count(), n, policy, f)
}

/// [`par_map_isolated`] with an explicit worker count (see
/// [`par_map_indexed_with`] for why tests want this): the isolated
/// item runs through the same pool as every other fan-out.
pub fn par_map_isolated_with<R, F>(
    workers: usize,
    n: usize,
    policy: RetryPolicy,
    f: F,
) -> IsolatedRun<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut results = Vec::with_capacity(n);
    let mut failures = Vec::new();
    // Per-item failure lists come back in index order, each already in
    // attempt order, so the concatenation is sorted by (item, attempt).
    for (r, mut fails) in par_map_indexed_with(workers, n, |i| run_isolated(i, policy, &f)) {
        results.push(r);
        failures.append(&mut fails);
    }
    IsolatedRun { results, failures }
}

/// The `UNTANGLE_FAULT_INJECT` hook: deterministic crash injection for
/// the fault-tolerance tests.
///
/// Setting `UNTANGLE_FAULT_INJECT=worker_panic:N` makes the first `N`
/// isolated work-item executions **process-wide** panic before calling
/// the work closure. The budget is consumed atomically, so exactly `N`
/// panics fire no matter how executions race across workers, and it
/// applies on both the threaded and the sequential
/// (`UNTANGLE_THREADS=1`) paths. Unrecognized values of the variable
/// are ignored.
///
/// Combined with a [`RetryPolicy`] of more than `N` attempts this proves
/// the acceptance property of the isolation layer: the sweep completes,
/// the report records exactly the injected failures, and — because the
/// panic fires *before* the work closure touches any state — the
/// retried results are bit-identical to a clean run.
pub mod fault {
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Environment variable consulted by `maybe_panic`.
    pub const ENV: &str = "UNTANGLE_FAULT_INJECT";

    /// Injected panics fired so far in this process.
    static FIRED: AtomicUsize = AtomicUsize::new(0);

    /// Parses the injection budget from the environment, if any.
    ///
    /// Read on every call (not cached) so tests can set and clear the
    /// variable; the fired-count is global, so a budget of `N` still
    /// yields at most `N` panics across the whole process lifetime.
    /// Shares the trimmed-read helper with [`super::thread_count`]
    /// instead of duplicating the `var → trim → parse` chain.
    fn budget() -> Option<usize> {
        let value = untangle_obs::env::trimmed_var(ENV)?;
        value.strip_prefix("worker_panic:")?.parse().ok()
    }

    /// How many injected panics have fired in this process.
    pub fn injected_count() -> usize {
        FIRED.load(Ordering::Relaxed)
    }

    /// Panics iff the injection budget is configured and not exhausted.
    ///
    /// Called by the isolation layer at the top of every work-item
    /// execution attempt, before the work closure runs.
    pub(crate) fn maybe_panic(item: usize) {
        let Some(n) = budget() else { return };
        let mut fired = FIRED.load(Ordering::Relaxed);
        while fired < n {
            match FIRED.compare_exchange(fired, fired + 1, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => panic!(
                    "injected fault {}/{n} (worker_panic) at item {item}",
                    fired + 1
                ),
                Err(actual) => fired = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        let out = par_map_indexed(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_map_over_slice_matches_sequential() {
        let items: Vec<u64> = (0..37).map(|i| i * 3 + 1).collect();
        let expected: Vec<u64> = items.iter().map(|x| x.wrapping_mul(2654435761)).collect();
        assert_eq!(par_map(&items, |x| x.wrapping_mul(2654435761)), expected);
    }

    #[test]
    fn uneven_task_costs_still_ordered() {
        // Later tasks finish first; order must still hold.
        let out = par_map_indexed(16, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn isolated_clean_run_matches_plain_map() {
        for workers in [1, 4] {
            let run = par_map_isolated_with(workers, 32, RetryPolicy::default(), |i| i * i);
            assert!(run.is_complete());
            assert!(run.failures.is_empty());
            assert_eq!(
                run.into_results().unwrap(),
                (0..32).map(|i| i * i).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn panicking_item_is_isolated_and_recorded() {
        for workers in [1, 4] {
            let run = par_map_isolated_with(workers, 8, RetryPolicy::new(2), |i| {
                if i == 3 {
                    panic!("item 3 always dies");
                }
                i + 100
            });
            assert!(!run.is_complete());
            assert_eq!(run.failed_items(), vec![3]);
            // Both attempts recorded, in order, unrecovered.
            let attempts: Vec<_> = run.failures.iter().map(|f| (f.item, f.attempt)).collect();
            assert_eq!(attempts, vec![(3, 1), (3, 2)]);
            assert!(run.failures.iter().all(|f| !f.recovered));
            assert!(run.failures[0].message.contains("always dies"));
            // Every other item still completed.
            for (i, r) in run.results.iter().enumerate() {
                if i != 3 {
                    assert_eq!(*r, Some(i + 100), "item {i}");
                }
            }
            let err = run.into_results().unwrap_err();
            assert!(matches!(
                err,
                untangle_core::UntangleError::WorkerPanic {
                    item: 3,
                    attempts: 2,
                    ..
                }
            ));
        }
    }

    #[test]
    fn retry_recovers_a_flaky_item() {
        for workers in [1, 4] {
            let first = AtomicUsize::new(0);
            let run = par_map_isolated_with(workers, 8, RetryPolicy::new(3), |i| {
                if i == 5 && first.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("transient");
                }
                i * 10
            });
            assert!(run.is_complete());
            assert_eq!(run.failures.len(), 1);
            let fail = &run.failures[0];
            assert_eq!((fail.item, fail.attempt, fail.recovered), (5, 1, true));
            // The retried result is identical to what a clean run produces.
            assert_eq!(
                run.into_results().unwrap(),
                (0..8).map(|i| i * 10).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn retry_policy_clamps_to_one_attempt() {
        assert_eq!(RetryPolicy::new(0).max_attempts, 1);
        assert_eq!(RetryPolicy::default().max_attempts, 1);
    }

    #[test]
    fn explicit_worker_counts_agree() {
        // The determinism contract: any worker count produces the same
        // vector. Exercised explicitly so a 1-core CI machine still
        // tests the threaded path.
        let expected: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(0x9e3779b9)).collect();
        for workers in [1, 2, 4, 8] {
            let got = par_map_indexed_with(workers, 64, |i| (i as u64).wrapping_mul(0x9e3779b9));
            assert_eq!(got, expected, "workers = {workers}");
        }
    }
}
