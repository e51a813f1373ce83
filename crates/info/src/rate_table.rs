//! Precomputed `R_max` rates over consecutive `Maintain` runs (§5.3.4, §7).
//!
//! `Maintain` does not change the partition size, so its timing is
//! invisible to the attacker. If the victim chooses `Maintain` `n`
//! consecutive times, the two visible actions bracketing the run are
//! separated by an effective cooldown `T'_c = (n+1)·T_c`, which lowers
//! the channel's maximum data rate.
//!
//! Computing `R_max` at runtime is too expensive (it runs Dinkelbach's
//! transform), so the paper proposes a small hardware table of
//! precomputed rates: entry `i` holds `R_max_i`, the rate when `i`
//! consecutive `Maintain`s have occurred. [`RateTable`] is that table.
//!
//! The table's channel instances are *nested* — entry `m+1` is entry `m`
//! with a longer cooldown — so each solve warm-starts from a nearby
//! entry's optimal input distribution ([`crate::dinkelbach::WarmStart`]),
//! cutting inner-solver iterations substantially without changing the
//! certified rates. [`RateTable::precompute_cached`] memoizes each entry
//! in an [`RmaxCache`] so identical tables built by different experiments
//! (every Untangle runner builds one) solve once.

use untangle_obs as obs;

use crate::channel::{ChannelConfig, DelayDist};
use crate::dinkelbach::{DinkelbachOptions, SolveStatus, WarmStart};
use crate::rmax_cache::RmaxCache;
use crate::{InfoError, Result};

/// Configuration for precomputing a [`RateTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct RateTableConfig {
    /// Base cooldown time `T_c` between assessments, in time units.
    pub cooldown: u64,
    /// Number of input symbols (dwell durations) the modeled sender may
    /// use in each channel instance.
    pub n_symbols: usize,
    /// Spacing between consecutive dwell durations, in time units.
    pub step: u64,
    /// Random action-delay distribution δ (Mechanism 2).
    pub delay: DelayDist,
    /// Table capacity: the maximum number of consecutive `Maintain`s with
    /// a dedicated entry. Larger runs clamp to the last entry, exactly as
    /// the paper's hardware table does.
    pub max_maintains: usize,
}

impl RateTableConfig {
    /// Largest accepted [`RateTableConfig::max_maintains`]. Every table in
    /// this repository uses 16 or fewer; the cap bounds the work one
    /// config can request (the precompute solves `max_maintains + 1`
    /// entries), so a hostile credit cannot exhaust memory or time.
    pub const MAX_MAINTAINS: usize = 64;

    /// A small table with sensible defaults for tests and examples:
    /// the given cooldown, 8 symbols spaced by `cooldown / 4` (min 1),
    /// uniform delay of width `cooldown`, capacity 8.
    ///
    /// For `cooldown < 4` the symbol spacing clamps to 1 time unit, so the
    /// duration alphabet is denser (relative to the cooldown) than the
    /// `cooldown / 4` spacing used everywhere else; the resulting channel
    /// is still well-formed and its `R_max` is still a sound bound.
    ///
    /// # Errors
    ///
    /// Returns [`InfoError::InvalidDuration`] for `cooldown == 0`: a
    /// zero-cooldown channel has no timing constraint to model and every
    /// rate the table produced would be meaningless.
    ///
    /// ```
    /// use untangle_info::rate_table::RateTableConfig;
    /// use untangle_info::InfoError;
    ///
    /// assert!(RateTableConfig::with_cooldown(16).is_ok());
    /// assert_eq!(
    ///     RateTableConfig::with_cooldown(0).unwrap_err(),
    ///     InfoError::InvalidDuration(0)
    /// );
    /// ```
    pub fn with_cooldown(cooldown: u64) -> Result<Self> {
        if cooldown == 0 {
            return Err(InfoError::InvalidDuration(0));
        }
        let config = Self {
            cooldown,
            n_symbols: 8,
            step: (cooldown / 4).max(1),
            delay: DelayDist::uniform(cooldown as usize)?,
            max_maintains: 8,
        };
        config.validate()?;
        Ok(config)
    }

    /// Checks the configuration for degeneracies that would make the
    /// precomputed rates misleading.
    ///
    /// # Errors
    ///
    /// * [`InfoError::InvalidDuration`] — `cooldown == 0` or `step == 0`
    ///   (a zero step collapses the duration alphabet onto one point, so
    ///   the table would certify `R_max = 0` for a sender that actually
    ///   has distinguishable symbols).
    /// * [`InfoError::EmptyAlphabet`] — `n_symbols == 0`.
    /// * [`InfoError::InvalidOptions`] — `max_maintains` above
    ///   [`RateTableConfig::MAX_MAINTAINS`].
    pub fn validate(&self) -> Result<()> {
        if self.cooldown == 0 {
            return Err(InfoError::InvalidDuration(0));
        }
        if self.step == 0 {
            return Err(InfoError::InvalidDuration(self.step));
        }
        if self.n_symbols == 0 {
            return Err(InfoError::EmptyAlphabet);
        }
        if self.max_maintains > Self::MAX_MAINTAINS {
            return Err(InfoError::InvalidOptions {
                what: "max_maintains",
                value: self.max_maintains as f64,
            });
        }
        Ok(())
    }

    /// The channel instance behind table entry `m`: the same duration
    /// alphabet shape over an effective cooldown `(m+1)·T_c` (a run of
    /// `m` consecutive `Maintain`s hides `m` additional cooldown windows
    /// between visible actions).
    ///
    /// # Errors
    ///
    /// Propagates [`ChannelConfig::evenly_spaced`] validation failures.
    pub fn entry_channel_config(&self, m: usize) -> Result<ChannelConfig> {
        let effective_cooldown = (m as u64 + 1) * self.cooldown;
        ChannelConfig::evenly_spaced(
            effective_cooldown,
            self.n_symbols,
            self.step,
            self.delay.clone(),
        )
    }
}

/// Aggregate solver effort spent precomputing a [`RateTable`].
///
/// Returned by [`RateTable::precompute_cached`]; the inner-iteration
/// count is the metric the warm-start optimization is judged on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrecomputeStats {
    /// Table entries produced (`max_maintains + 1`).
    pub entries: usize,
    /// Entries actually solved (as opposed to answered by the cache).
    pub solves: usize,
    /// Total Dinkelbach (outer) iterations across solved entries.
    pub outer_iterations: usize,
    /// Total mirror-ascent (inner) iterations across solved entries,
    /// including certification work.
    pub inner_iterations: usize,
    /// Entries answered by the [`RmaxCache`].
    pub cache_hits: usize,
    /// Entries whose solve stagnated and returned a
    /// [`SolveStatus::Bracketed`] rate bracket instead of a converged
    /// value. Non-zero means the table is still sound (upper bounds hold)
    /// but looser than the solver tolerance promises.
    pub bracketed: usize,
}

/// Precomputed certified `R_max` upper bounds, indexed by the number of
/// consecutive `Maintain` actions preceding a visible action.
///
/// # Example
///
/// ```
/// use untangle_info::{RateTable, rate_table::RateTableConfig};
///
/// let table = RateTable::precompute(&RateTableConfig::with_cooldown(8)?)?;
/// // More consecutive Maintains => longer effective cooldown => lower rate.
/// assert!(table.rate(3) < table.rate(0));
/// # Ok::<(), untangle_info::InfoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RateTable {
    config: RateTableConfig,
    /// `rates[m]` = certified upper bound on the channel rate when `m`
    /// consecutive Maintains precede the visible action (bits per unit).
    rates: Vec<f64>,
    /// `statuses[m]` = how entry `m`'s solve terminated. A
    /// [`SolveStatus::Bracketed`] entry is still a sound upper bound (the
    /// solver substitutes a certified or trivial bound on stagnation) but
    /// may be loose; consumers can refuse such tables or surcharge them.
    statuses: Vec<SolveStatus>,
}

impl RateTable {
    /// Precomputes the table with default solver options on a fresh
    /// cache: [`RateTable::precompute_cached`] for examples and tests.
    ///
    /// # Errors
    ///
    /// Same as [`RateTable::precompute_cached`].
    pub fn precompute(config: &RateTableConfig) -> Result<Self> {
        Self::precompute_cached(config, &DinkelbachOptions::default(), &RmaxCache::new())
            .map(|(table, _)| table)
    }

    /// Runs the Dinkelbach solver once per table entry, resolving every
    /// entry through `cache` as [`RmaxCache::solve_warm`] does.
    ///
    /// Entry `m` models an effective cooldown `(m+1)·T_c` with the same
    /// alphabet shape. Entries resolve in order, warm-started in waves
    /// `{1}, {2,3}, {4,5}, …`: entry 0 is solved cold, entry 1 starts
    /// from entry 0, and each entry `m ≥ 2` starts from entry
    /// `2⌊(m−2)/2⌋+1` — 2 and 3 from 1, 4 and 5 from 3, and so on. Every
    /// seed is at most two maintains away from its entry, so the warm
    /// starts stay close.
    ///
    /// This is the schedule every committed result was produced with: an
    /// earlier batched precompute solved each wave in lockstep from the
    /// previous wave's last optimum, and every Untangle runner and serve
    /// table, `benchmark/golden.json` and `results/` were built that way.
    /// The plain `m−1` chain certifies the same rates only to solver
    /// tolerance (up to 2.7e-10 apart), which would move every Untangle
    /// leakage digest, so the schedule stays.
    ///
    /// The schedule depends on `m` alone, so identical configurations
    /// produce identical cache keys — the second table a process builds
    /// is answered entirely from the cache — and a table with a smaller
    /// `max_maintains` is answered from the leading entries of a larger
    /// one.
    ///
    /// # Errors
    ///
    /// Propagates solver or channel construction failures; returns
    /// [`InfoError::EmptyAlphabet`] if `n_symbols` is zero,
    /// [`InfoError::InvalidDuration`] for a zero cooldown or step, and
    /// [`InfoError::InvalidOptions`] for a `max_maintains` above
    /// [`RateTableConfig::MAX_MAINTAINS`].
    pub fn precompute_cached(
        config: &RateTableConfig,
        options: &DinkelbachOptions,
        cache: &RmaxCache,
    ) -> Result<(Self, PrecomputeStats)> {
        config.validate()?;
        let _span = obs::span("rate_table.precompute");
        let entries = config.max_maintains + 1;
        let mut rates = Vec::with_capacity(entries);
        let mut statuses = Vec::with_capacity(entries);
        let mut stats = PrecomputeStats {
            entries,
            ..PrecomputeStats::default()
        };
        let mut warm: Option<WarmStart> = None;
        for m in 0..entries {
            let (result, hit) =
                cache.lookup_or_solve(&config.entry_channel_config(m)?, options, warm.as_ref())?;
            if hit {
                stats.cache_hits += 1;
            } else {
                stats.solves += 1;
                stats.outer_iterations += result.diagnostics.outer_iterations;
                stats.inner_iterations += result.diagnostics.inner_iterations;
            }
            if !result.status.is_converged() {
                stats.bracketed += 1;
            }
            obs::counter_add("rate_table.entries", 1);
            rates.push(result.upper_bound);
            statuses.push(result.status);
            // Entry 0 seeds wave {1}; the last (odd) entry of each wave
            // seeds the next one.
            if m == 0 || m % 2 == 1 {
                warm = Some(WarmStart::from_result(&result));
            }
        }
        Self::record_precompute(&stats);
        Ok((
            Self {
                config: config.clone(),
                rates,
                statuses,
            },
            stats,
        ))
    }

    /// Precomputes one table per config through the shared `cache`, in
    /// input order, with [`RateTable::precompute_cached`].
    ///
    /// This is the serve daemon's path when tenants with distinct Maintain
    /// credits arrive together. Tables with the same channel shape share
    /// their leading entries, so each table after the first answers those
    /// from the cache. (The name is historical: the tables used to be
    /// solved as one lockstep batch, with the same rates.)
    ///
    /// # Errors
    ///
    /// Same as [`RateTable::precompute_cached`]. Every config is
    /// validated before any solve starts, so an invalid config fails the
    /// whole call without solver work.
    pub fn precompute_many_batched_cached(
        configs: &[RateTableConfig],
        options: &DinkelbachOptions,
        cache: &RmaxCache,
    ) -> Result<Vec<(Self, PrecomputeStats)>> {
        for config in configs {
            config.validate()?;
        }
        configs
            .iter()
            .map(|config| Self::precompute_cached(config, options, cache))
            .collect()
    }

    /// Records one finished precompute into the obs layer: progress
    /// counters plus a per-table `rate_table.precompute` event.
    fn record_precompute(stats: &PrecomputeStats) {
        if !obs::enabled() {
            return;
        }
        obs::counter_add("rate_table.tables", 1);
        obs::counter_add("rate_table.solves", stats.solves as u64);
        obs::counter_add("rate_table.cache_hits", stats.cache_hits as u64);
        obs::event(
            "rate_table.precompute",
            &[
                ("entries", obs::Value::U64(stats.entries as u64)),
                ("solves", obs::Value::U64(stats.solves as u64)),
                ("cache_hits", obs::Value::U64(stats.cache_hits as u64)),
                (
                    "outer_iterations",
                    obs::Value::U64(stats.outer_iterations as u64),
                ),
                (
                    "inner_iterations",
                    obs::Value::U64(stats.inner_iterations as u64),
                ),
                ("bracketed", obs::Value::U64(stats.bracketed as u64)),
            ],
        );
    }

    /// The table configuration.
    pub fn config(&self) -> &RateTableConfig {
        &self.config
    }

    /// Certified rate (bits per time unit) to charge a visible action that
    /// was preceded by `maintains` consecutive `Maintain` actions.
    ///
    /// Runs beyond the table capacity clamp to the last entry
    /// (conservative, per §7).
    pub fn rate(&self, maintains: usize) -> f64 {
        let idx = maintains.min(self.rates.len() - 1);
        self.rates[idx]
    }

    /// The worst-case rate: no Maintain credit at all (entry 0). This is
    /// the rate used for the unoptimized model of §9's active-attacker
    /// study.
    pub fn worst_case_rate(&self) -> f64 {
        self.rates[0]
    }

    /// All precomputed rates, index = number of consecutive Maintains.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Solve status of the entry charged for `maintains` consecutive
    /// `Maintain`s (clamped like [`RateTable::rate`]).
    pub fn status(&self, maintains: usize) -> SolveStatus {
        let idx = maintains.min(self.statuses.len() - 1);
        self.statuses[idx]
    }

    /// Per-entry solve statuses, index = number of consecutive Maintains.
    pub fn statuses(&self) -> &[SolveStatus] {
        &self.statuses
    }

    /// Whether every entry converged to tolerance. A `false` table is
    /// still a sound upper-bound table (stagnated entries carry certified
    /// or trivial bounds) but may overcharge the leakage budget.
    pub fn all_converged(&self) -> bool {
        self.statuses.iter().all(|s| s.is_converged())
    }

    /// Number of table entries (`max_maintains + 1`).
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether the table is empty (never true for a precomputed table).
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Channel;
    use crate::dinkelbach::{RmaxResult, RmaxSolver};

    fn small_config() -> RateTableConfig {
        RateTableConfig {
            cooldown: 4,
            n_symbols: 4,
            step: 1,
            delay: DelayDist::uniform(4).unwrap(),
            max_maintains: 4,
        }
    }

    #[test]
    fn rates_decrease_with_consecutive_maintains() {
        let t = RateTable::precompute(&small_config()).unwrap();
        for m in 1..t.len() {
            assert!(
                t.rates()[m] < t.rates()[m - 1] + 1e-12,
                "rate must not increase with maintains: m={m}"
            );
        }
        assert!(t.rate(1) < t.rate(0));
    }

    #[test]
    fn clamps_beyond_capacity() {
        let t = RateTable::precompute(&small_config()).unwrap();
        assert_eq!(t.rate(100), t.rate(4));
        assert_eq!(t.rate(4), *t.rates().last().unwrap());
    }

    #[test]
    fn worst_case_is_entry_zero() {
        let t = RateTable::precompute(&small_config()).unwrap();
        assert_eq!(t.worst_case_rate(), t.rate(0));
        assert!(t.worst_case_rate() >= t.rate(3));
    }

    #[test]
    fn rejects_zero_cooldown() {
        let mut cfg = small_config();
        cfg.cooldown = 0;
        assert_eq!(
            RateTable::precompute(&cfg).unwrap_err(),
            InfoError::InvalidDuration(0)
        );
    }

    #[test]
    fn rejects_zero_step_and_empty_alphabet() {
        let mut cfg = small_config();
        cfg.step = 0;
        assert_eq!(cfg.validate().unwrap_err(), InfoError::InvalidDuration(0));
        let mut cfg = small_config();
        cfg.n_symbols = 0;
        assert_eq!(
            RateTable::precompute(&cfg).unwrap_err(),
            InfoError::EmptyAlphabet
        );
    }

    #[test]
    fn all_rates_positive_and_bounded() {
        let t = RateTable::precompute(&small_config()).unwrap();
        for (m, &r) in t.rates().iter().enumerate() {
            assert!(r >= 0.0, "entry {m} negative");
            // log2(n_symbols)/effective_cooldown is a loose cap.
            let cap = (4f64).log2() / ((m as f64 + 1.0) * 4.0);
            assert!(r <= cap + 0.5, "entry {m} = {r} exceeds loose cap {cap}");
        }
    }

    #[test]
    fn with_cooldown_builder_is_consistent() {
        let cfg = RateTableConfig::with_cooldown(16).unwrap();
        assert_eq!(cfg.cooldown, 16);
        assert_eq!(cfg.step, 4);
        assert_eq!(cfg.n_symbols, 8);
        let t = RateTable::precompute(&RateTableConfig {
            max_maintains: 2,
            ..cfg
        })
        .unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn with_cooldown_rejects_zero() {
        assert_eq!(
            RateTableConfig::with_cooldown(0).unwrap_err(),
            InfoError::InvalidDuration(0)
        );
    }

    /// Solves every entry of `config` cold, one [`RmaxSolver::solve`]
    /// call per entry: the reference the warm-started table is judged
    /// against.
    fn cold_entries(config: &RateTableConfig, opts: &DinkelbachOptions) -> Vec<RmaxResult> {
        (0..=config.max_maintains)
            .map(|m| {
                let channel = Channel::new(config.entry_channel_config(m).unwrap()).unwrap();
                RmaxSolver::with_options(channel, opts.clone())
                    .solve()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn warm_start_matches_cold_rates_with_fewer_inner_iterations() {
        let opts = DinkelbachOptions::default();
        let (warm_table, warm_stats) =
            RateTable::precompute_cached(&small_config(), &opts, &RmaxCache::new()).unwrap();
        let cold = cold_entries(&small_config(), &opts);
        let cold_inner: usize = cold.iter().map(|r| r.diagnostics.inner_iterations).sum();
        for (m, (w, c)) in warm_table.rates().iter().zip(&cold).enumerate() {
            assert!(
                (w - c.upper_bound).abs() < 1e-9,
                "entry {m}: warm {w} vs cold {} disagree beyond tolerance",
                c.upper_bound
            );
        }
        assert!(
            warm_stats.inner_iterations < cold_inner,
            "warm start must reduce inner iterations: {} !< {cold_inner}",
            warm_stats.inner_iterations,
        );
    }

    #[test]
    fn warm_starts_follow_the_wave_schedule() {
        // Entry 0 cold, entry 1 from entry 0, entry m >= 2 from entry
        // 2*floor((m-2)/2)+1, each solved directly (no cache).
        let cfg = RateTableConfig {
            max_maintains: 6,
            ..small_config()
        };
        let opts = DinkelbachOptions::default();
        let table = RateTable::precompute(&cfg).unwrap();
        let mut solved: Vec<RmaxResult> = Vec::new();
        for m in 0..=cfg.max_maintains {
            let seed = match m {
                0 => None,
                1 => Some(0),
                _ => Some(2 * ((m - 2) / 2) + 1),
            };
            let warm = seed.map(|i| WarmStart::from_result(&solved[i]));
            let channel = Channel::new(cfg.entry_channel_config(m).unwrap()).unwrap();
            let result = RmaxSolver::with_options(channel, opts.clone())
                .solve_warm(warm.as_ref())
                .unwrap();
            solved.push(result);
        }
        for (m, (rate, direct)) in table.rates().iter().zip(&solved).enumerate() {
            assert_eq!(rate.to_bits(), direct.upper_bound.to_bits(), "entry {m}");
            assert_eq!(table.status(m), direct.status, "entry {m}");
        }
    }

    #[test]
    fn wave_schedule_matches_previous_entry_chain_within_tolerance() {
        // The plain m-1 warm-start chain certifies the same rates up to
        // solver tolerance; the table keeps the wave schedule only so
        // committed results stay bit-identical.
        let opts = DinkelbachOptions::default();
        let table = RateTable::precompute(&small_config()).unwrap();
        let mut warm: Option<WarmStart> = None;
        for m in 0..table.len() {
            let channel = Channel::new(small_config().entry_channel_config(m).unwrap()).unwrap();
            let chained = RmaxSolver::with_options(channel, opts.clone())
                .solve_warm(warm.as_ref())
                .unwrap();
            assert!(
                (table.rate(m) - chained.upper_bound).abs() < 1e-9,
                "entry {m}: wave {} vs chain {} disagree beyond tolerance",
                table.rate(m),
                chained.upper_bound
            );
            warm = Some(WarmStart::from_result(&chained));
        }
    }

    #[test]
    fn statuses_propagate_from_solver() {
        let tight = RateTable::precompute(&small_config()).unwrap();
        assert!(tight.all_converged());
        assert_eq!(tight.statuses().len(), tight.len());
        assert!(tight.status(100).is_converged());

        // Starved budgets must surface as Bracketed entries, not errors.
        let opts = DinkelbachOptions::default().with_budgets(1, 2).unwrap();
        let (starved, stats) =
            RateTable::precompute_cached(&small_config(), &opts, &RmaxCache::new()).unwrap();
        assert!(!starved.all_converged());
        assert_eq!(
            stats.bracketed,
            starved
                .statuses()
                .iter()
                .filter(|s| !s.is_converged())
                .count()
        );
        // Bracketed entries still carry sound (possibly loose) bounds.
        for (m, (&loose, &converged)) in starved.rates().iter().zip(tight.rates()).enumerate() {
            assert!(loose.is_finite() && loose >= 0.0, "entry {m}");
            assert!(
                loose >= converged - 1e-3,
                "entry {m}: bracketed bound {loose} undercuts converged bound {converged}"
            );
        }
    }

    #[test]
    fn cached_precompute_hits_on_second_build() {
        let cache = RmaxCache::new();
        let opts = DinkelbachOptions::default();
        let (first, s1) = RateTable::precompute_cached(&small_config(), &opts, &cache).unwrap();
        let (second, s2) = RateTable::precompute_cached(&small_config(), &opts, &cache).unwrap();
        assert_eq!(first.rates(), second.rates());
        assert_eq!(s1.cache_hits, 0);
        assert_eq!(s1.solves, first.len());
        assert_eq!(s2.cache_hits, second.len());
        assert_eq!(s2.solves, 0);
    }

    #[test]
    fn single_entry_table_is_one_cold_solve() {
        let cfg = RateTableConfig {
            max_maintains: 0,
            ..small_config()
        };
        let opts = DinkelbachOptions::default();
        let (table, stats) = RateTable::precompute_cached(&cfg, &opts, &RmaxCache::new()).unwrap();
        assert_eq!(table.len(), 1);
        assert_eq!(stats.solves, 1);
        let cold = cold_entries(&cfg, &opts);
        assert_eq!(table.rate(0).to_bits(), cold[0].upper_bound.to_bits());
    }

    #[test]
    fn max_maintains_is_capped() {
        let at_cap = RateTableConfig {
            max_maintains: RateTableConfig::MAX_MAINTAINS,
            ..small_config()
        };
        assert_eq!(at_cap.validate(), Ok(()));
        for max_maintains in [RateTableConfig::MAX_MAINTAINS + 1, usize::MAX] {
            let cfg = RateTableConfig {
                max_maintains,
                ..small_config()
            };
            assert!(matches!(
                cfg.validate(),
                Err(InfoError::InvalidOptions {
                    what: "max_maintains",
                    ..
                })
            ));
        }
    }

    #[test]
    fn many_batched_rejects_an_oversized_table_without_solving() {
        // A hostile credit of usize::MAX used to overflow the capacity
        // computation; it must now fail validation before any solve.
        let cache = RmaxCache::new();
        let huge = RateTableConfig {
            max_maintains: usize::MAX,
            ..small_config()
        };
        let result = RateTable::precompute_many_batched_cached(
            &[small_config(), huge],
            &DinkelbachOptions::default(),
            &cache,
        );
        assert!(matches!(
            result,
            Err(InfoError::InvalidOptions {
                what: "max_maintains",
                ..
            })
        ));
        assert!(cache.is_empty(), "validation must precede every solve");
    }

    #[test]
    fn many_batched_is_bit_identical_to_single_table_builds() {
        // Three tables of different shapes built in one call through a
        // shared cache vs each built standalone on a fresh cache: rates
        // and statuses must agree bit for bit.
        let configs = [
            small_config(),
            RateTableConfig {
                max_maintains: 2,
                ..small_config()
            },
            RateTableConfig {
                cooldown: 6,
                ..small_config()
            },
        ];
        let opts = DinkelbachOptions::default();
        let many =
            RateTable::precompute_many_batched_cached(&configs, &opts, &RmaxCache::new()).unwrap();
        assert_eq!(many.len(), configs.len());
        for (config, (table, stats)) in configs.iter().zip(&many) {
            let (single, _) =
                RateTable::precompute_cached(config, &opts, &RmaxCache::new()).unwrap();
            let bits = |t: &RateTable| t.rates().iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(table), bits(&single));
            assert_eq!(table.statuses(), single.statuses());
            assert_eq!(stats.solves + stats.cache_hits, stats.entries);
        }
        // The second table is a prefix of the first: answered entirely
        // from the shared cache.
        assert_eq!(many[1].1.cache_hits, 3);
        assert_eq!(many[1].1.solves, 0);
    }

    #[test]
    fn many_batched_second_call_hits_the_cache() {
        let cache = RmaxCache::new();
        let opts = DinkelbachOptions::default();
        let configs = [small_config()];
        let first = RateTable::precompute_many_batched_cached(&configs, &opts, &cache).unwrap();
        let second = RateTable::precompute_many_batched_cached(&configs, &opts, &cache).unwrap();
        assert_eq!(first[0].1.cache_hits, 0);
        assert_eq!(second[0].1.cache_hits, second[0].0.len());
        assert_eq!(second[0].1.solves, 0);
        // And the many-path populates the same keys the single-table
        // path reads.
        let (from_single, s) =
            RateTable::precompute_cached(&small_config(), &opts, &cache).unwrap();
        assert_eq!(s.solves, 0);
        assert_eq!(from_single.rates(), first[0].0.rates());
    }

    #[test]
    fn many_batched_empty_input_is_empty() {
        let out = RateTable::precompute_many_batched_cached(
            &[],
            &DinkelbachOptions::default(),
            &RmaxCache::new(),
        )
        .unwrap();
        assert!(out.is_empty());
    }
}
