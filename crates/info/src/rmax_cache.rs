//! Memoized `R'_max` solves shared across experiments.
//!
//! The evaluation pipeline issues the same Dinkelbach solve many times:
//! every Untangle [`Runner`](../../untangle_core) rebuilds an identical
//! rate table per mix, the serve engine's tables for different Maintain
//! credits share their leading entries, and `exp_channel` sweeps revisit
//! grid points. [`RmaxCache`] deduplicates that work behind a
//! thread-safe map keyed on a **canonicalized** description of the solve:
//! the full [`ChannelConfig`] (cooldown, duration alphabet, delay
//! distribution), every [`DinkelbachOptions`] field, and — for
//! warm-started solves — the warm-start input distribution itself.
//!
//! Including the warm start in the key keeps the cache *deterministic
//! under concurrency*: a cache entry is fully determined by its key, so it
//! does not matter which thread populates it first, and a warm-started
//! chain (rate-table precompute) can never be observed through a key that
//! a cold solve also uses. Floating-point fields are canonicalized via
//! [`f64::to_bits`], which is exact — two configs collide only if they
//! would run the identical computation.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, TryLockError};

use untangle_obs as obs;

use crate::channel::{Channel, ChannelConfig};
use crate::dinkelbach::{DinkelbachOptions, RmaxResult, RmaxSolver, WarmStart};
use crate::Result;

/// Canonical cache key: exact bit patterns of every input to the solve.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    cooldown: u64,
    durations: Vec<u64>,
    delay_prob_bits: Vec<u64>,
    tolerance_bits: u64,
    max_outer: usize,
    max_inner: usize,
    gap_bits: u64,
    margin_bits: u64,
    max_doublings: usize,
    /// Bit patterns of the warm-start input, empty for cold solves.
    warm_input_bits: Vec<u64>,
}

impl Key {
    fn build(
        config: &ChannelConfig,
        options: &DinkelbachOptions,
        warm: Option<&WarmStart>,
    ) -> Self {
        Self {
            cooldown: config.cooldown,
            durations: config.durations.clone(),
            delay_prob_bits: config
                .delay
                .dist()
                .as_slice()
                .iter()
                .map(|p| p.to_bits())
                .collect(),
            tolerance_bits: options.tolerance.to_bits(),
            max_outer: options.max_outer_iterations,
            max_inner: options.max_inner_iterations,
            gap_bits: options.inner_gap_tolerance.to_bits(),
            margin_bits: options.upper_bound_margin.to_bits(),
            max_doublings: options.max_margin_doublings,
            warm_input_bits: warm
                .map(|w| w.input.as_slice().iter().map(|p| p.to_bits()).collect())
                .unwrap_or_default(),
        }
    }
}

/// Counters of an [`RmaxCache`], taken at a single point in time.
///
/// The snapshot is **consistent**: all counters are read under the same
/// lock that guards the map and is held while they are incremented, so
/// `hits + misses` always equals the number of completed lookups at one
/// instant and [`CacheStats::hit_rate`] can never exceed `1.0`. (An
/// earlier implementation read `hits` and `misses` as two independent
/// relaxed atomic loads, which could interleave with concurrent solves
/// and report torn totals.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Solves answered from the map.
    pub hits: u64,
    /// Solves that ran the optimizer.
    pub misses: u64,
    /// Entries dropped by [`RmaxCache::clear`] over the cache's lifetime
    /// (unlike `hits`/`misses`, this survives the reset).
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (`0.0` when the cache is unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe memo table for `R'_max` solves.
///
/// Clone-cheap when wrapped in an [`Arc`]; use [`RmaxCache::global`] for
/// the process-wide instance shared by all experiment drivers.
///
/// # Example
///
/// ```
/// use untangle_info::{ChannelConfig, DelayDist, DinkelbachOptions, RmaxCache};
///
/// let cache = RmaxCache::new();
/// let config = ChannelConfig::evenly_spaced(4, 6, 1, DelayDist::none())?;
/// let opts = DinkelbachOptions::default();
/// let first = cache.solve(&config, &opts)?;
/// let second = cache.solve(&config, &opts)?;
/// assert_eq!(first.rate.to_bits(), second.rate.to_bits());
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// # Ok::<(), untangle_info::InfoError>(())
/// ```
#[derive(Debug, Default)]
pub struct RmaxCache {
    inner: Mutex<CacheInner>,
}

/// Map and counters behind one mutex, so counter updates are atomic
/// with the map mutation they describe and [`RmaxCache::stats`] can
/// take a consistent snapshot.
#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<Key, RmaxResult>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl RmaxCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the cache state, recovering from a poisoned mutex and
    /// counting contended acquisitions into the
    /// `rmax_cache.lock_contention` obs counter.
    ///
    /// A panic in a worker thread that held the lock (e.g. an injected
    /// fault during a solve) poisons it; the state is never left
    /// mid-mutation by this module (every critical section is a single
    /// `get`/`insert`/`len`/`clear` plus its counter update), so the
    /// stored results are still valid and clearing the poison is sound.
    /// Without this, one panicked solve would fail every later lookup
    /// process-wide — the global cache would amplify a single fault into
    /// a total outage.
    fn lock_inner(&self) -> MutexGuard<'_, CacheInner> {
        match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poison)) => poison.into_inner(),
            Err(TryLockError::WouldBlock) => {
                obs::counter_add("rmax_cache.lock_contention", 1);
                self.inner
                    .lock()
                    .unwrap_or_else(|poison| poison.into_inner())
            }
        }
    }

    /// The process-wide cache shared by every experiment driver.
    pub fn global() -> &'static Arc<RmaxCache> {
        static GLOBAL: OnceLock<Arc<RmaxCache>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(RmaxCache::new()))
    }

    /// Memoized cold solve of `R'_max` for `config` under `options`.
    ///
    /// On a miss this builds the [`Channel`] and runs
    /// [`RmaxSolver::solve`]; on a hit it returns a clone of the stored
    /// result, bit-identical to what the original solve produced.
    ///
    /// # Errors
    ///
    /// Propagates channel-construction and solver errors; failures are not
    /// cached.
    pub fn solve(&self, config: &ChannelConfig, options: &DinkelbachOptions) -> Result<RmaxResult> {
        self.solve_warm(config, options, None)
    }

    /// Memoized solve with an optional warm start.
    ///
    /// The warm-start input distribution is part of the cache key, so warm
    /// and cold solves of the same channel never alias and the cache stays
    /// deterministic regardless of population order.
    ///
    /// # Errors
    ///
    /// Propagates channel-construction and solver errors; failures are not
    /// cached.
    pub fn solve_warm(
        &self,
        config: &ChannelConfig,
        options: &DinkelbachOptions,
        warm: Option<&WarmStart>,
    ) -> Result<RmaxResult> {
        self.lookup_or_solve(config, options, warm)
            .map(|(result, _)| result)
    }

    /// [`RmaxCache::solve_warm`], also reporting whether the result came
    /// from the map (`true`) or from a solve this call ran (`false`), so
    /// callers can attribute solver effort without racing on
    /// [`RmaxCache::stats`].
    pub(crate) fn lookup_or_solve(
        &self,
        config: &ChannelConfig,
        options: &DinkelbachOptions,
        warm: Option<&WarmStart>,
    ) -> Result<(RmaxResult, bool)> {
        let key = Key::build(config, options, warm);
        {
            let mut inner = self.lock_inner();
            let hit = inner.map.get(&key).cloned();
            if let Some(result) = hit {
                inner.hits += 1;
                drop(inner);
                obs::counter_add("rmax_cache.hits", 1);
                return Ok((result, true));
            }
        }
        // Solve outside the lock so concurrent distinct solves overlap. Two
        // threads racing on the same key both compute the identical result;
        // the second insert is a harmless overwrite (and counts as its own
        // miss: both threads really ran the optimizer).
        let channel = Channel::new(config.clone())?;
        let result = RmaxSolver::with_options(channel, options.clone()).solve_warm(warm)?;
        {
            let mut inner = self.lock_inner();
            inner.misses += 1;
            inner.map.insert(key, result.clone());
        }
        obs::counter_add("rmax_cache.misses", 1);
        Ok((result, false))
    }

    /// A consistent snapshot of the counters, taken under the map lock
    /// (see [`CacheStats`] for the invariant this buys).
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock_inner();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }

    /// Number of distinct solves stored.
    pub fn len(&self) -> usize {
        self.lock_inner().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and resets the hit/miss counters (for tests and
    /// before/after measurements). The dropped entries accumulate into
    /// [`CacheStats::evictions`] and the `rmax_cache.evictions` obs
    /// counter, so eviction telemetry survives the reset.
    pub fn clear(&self) {
        let evicted = {
            let mut inner = self.lock_inner();
            let evicted = inner.map.len() as u64;
            inner.map.clear();
            inner.hits = 0;
            inner.misses = 0;
            inner.evictions += evicted;
            evicted
        };
        obs::counter_add("rmax_cache.evictions", evicted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::DelayDist;

    fn config(cooldown: u64, n: usize) -> ChannelConfig {
        ChannelConfig::evenly_spaced(cooldown, n, 1, DelayDist::uniform(2).unwrap()).unwrap()
    }

    #[test]
    fn hit_returns_bit_identical_result() {
        let cache = RmaxCache::new();
        let opts = DinkelbachOptions::default();
        let a = cache.solve(&config(3, 5), &opts).unwrap();
        let b = cache.solve(&config(3, 5), &opts).unwrap();
        assert_eq!(a.rate.to_bits(), b.rate.to_bits());
        assert_eq!(a.upper_bound.to_bits(), b.upper_bound.to_bits());
        assert_eq!(a.input.as_slice(), b.input.as_slice());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn hit_rate_handles_zero_totals_and_stays_bounded() {
        // Zero lookups: 0/0 is defined as 0.0, not NaN.
        assert_eq!(CacheStats::default().hit_rate().to_bits(), 0.0f64.to_bits());
        let s = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 7,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!(s.hit_rate() <= 1.0);
    }

    #[test]
    fn stats_snapshots_are_consistent_under_concurrency() {
        // Documented invariant: hits and misses are incremented under the
        // same lock `stats()` reads them through, so every snapshot is a
        // point-in-time truth — the first solve of a key is a miss, so a
        // snapshot can never show a hit before its miss, totals are
        // monotone, and hit_rate never exceeds 1. The old two-relaxed-load
        // implementation could tear these.
        let cache = Arc::new(RmaxCache::new());
        let opts = DinkelbachOptions::default();
        let lookups_per_thread = 8;
        let threads = 4;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let cache = Arc::clone(&cache);
                let opts = opts.clone();
                scope.spawn(move || {
                    for _ in 0..lookups_per_thread {
                        cache.solve(&config(3, 4), &opts).unwrap();
                    }
                });
            }
            let reader = Arc::clone(&cache);
            scope.spawn(move || {
                let mut last_total = 0u64;
                for _ in 0..200 {
                    let s = reader.stats();
                    let total = s.hits + s.misses;
                    assert!(
                        s.hits == 0 || s.misses >= 1,
                        "hit observed before its miss: {s:?}"
                    );
                    assert!(total >= last_total, "totals went backwards: {s:?}");
                    assert!(s.hit_rate() <= 1.0, "{s:?}");
                    last_total = total;
                }
            });
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, (threads * lookups_per_thread) as u64);
    }

    #[test]
    fn distinct_configs_do_not_alias() {
        let cache = RmaxCache::new();
        let opts = DinkelbachOptions::default();
        let a = cache.solve(&config(3, 5), &opts).unwrap();
        let b = cache.solve(&config(4, 5), &opts).unwrap();
        assert!(a.rate > b.rate);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn options_are_part_of_the_key() {
        let cache = RmaxCache::new();
        let tight = DinkelbachOptions::default();
        let loose = DinkelbachOptions {
            tolerance: 1e-6,
            ..DinkelbachOptions::default()
        };
        cache.solve(&config(3, 4), &tight).unwrap();
        cache.solve(&config(3, 4), &loose).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn warm_and_cold_solves_never_alias() {
        let cache = RmaxCache::new();
        let opts = DinkelbachOptions::default();
        let prev = cache.solve(&config(3, 5), &opts).unwrap();
        let warm = WarmStart::from_result(&prev);
        cache.solve_warm(&config(4, 5), &opts, Some(&warm)).unwrap();
        let stats_before = cache.stats();
        // A cold solve of the same channel is a *miss*, not a hit on the
        // warm entry.
        cache.solve(&config(4, 5), &opts).unwrap();
        assert_eq!(cache.stats().misses, stats_before.misses + 1);
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache = Arc::new(RmaxCache::new());
        let opts = DinkelbachOptions::default();
        let results: Vec<RmaxResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let opts = opts.clone();
                    scope.spawn(move || cache.solve(&config(5, 6), &opts).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results[1..] {
            assert_eq!(r.rate.to_bits(), results[0].rate.to_bits());
            assert_eq!(r.upper_bound.to_bits(), results[0].upper_bound.to_bits());
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 4);
    }

    #[test]
    fn clear_resets_counters_but_accumulates_evictions() {
        let cache = RmaxCache::new();
        let opts = DinkelbachOptions::default();
        cache.solve(&config(3, 4), &opts).unwrap();
        cache.solve(&config(4, 4), &opts).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 0,
                evictions: 2,
            }
        );
        // A second clear of an empty cache evicts nothing further.
        cache.clear();
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn global_cache_is_shared() {
        let a = RmaxCache::global();
        let b = RmaxCache::global();
        assert!(Arc::ptr_eq(a, b));
    }

    #[test]
    fn survives_a_poisoned_lock() {
        // Regression test for the fault-tolerance satellite: a thread that
        // panics while holding the map lock used to fail every later
        // lookup with "rmax cache poisoned".
        let cache = Arc::new(RmaxCache::new());
        let opts = DinkelbachOptions::default();
        let before = cache.solve(&config(3, 4), &opts).unwrap();

        let poisoner = Arc::clone(&cache);
        let handle = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("injected panic while holding the cache lock");
        });
        assert!(handle.join().is_err(), "poisoner thread must panic");
        assert!(cache.inner.is_poisoned(), "lock must actually be poisoned");

        // Every entry point still works and the stored data survived.
        assert_eq!(cache.len(), 1);
        let after = cache.solve(&config(3, 4), &opts).unwrap();
        assert_eq!(before.rate.to_bits(), after.rate.to_bits());
        assert_eq!(cache.stats().hits, 1);
        cache.clear();
        assert!(cache.is_empty());
    }
}
