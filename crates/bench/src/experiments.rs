//! Reusable experiment drivers (one per table/figure of the paper).
//!
//! Every driver that iterates over an independent collection — mixes,
//! schemes, benchmarks × partition sizes, `R_max` grid points, budget and
//! cooldown sweep settings — fans out through
//! [`crate::parallel::par_map_indexed`]. Each task constructs its own
//! [`Runner`] (and with it its own seeded RNGs), so the parallel output is
//! bit-identical to the sequential path at any thread count; see
//! DESIGN.md's "Parallel experiment engine" section for the contract.
//! Repeated `R_max` solves are deduplicated through the process-wide
//! [`RmaxCache`]. A driver returns the first [`UntangleError`] its runs
//! raise (an out-of-range scale, say) instead of panicking.

use crate::checkpoint::{run_sweep, sweep_fingerprint, CheckpointStore, MixSummary, SweepOutcome};
use crate::parallel::{par_map, par_map_indexed, RetryPolicy};
use untangle_core::runner::{DomainReport, RunReport, Runner, RunnerConfig};
use untangle_core::scheme::SchemeKind;
use untangle_core::UntangleError;
use untangle_info::{Channel, DelayDist, DinkelbachOptions, RmaxCache};
use untangle_info::{ChannelConfig, Dist};
use untangle_obs as obs;
use untangle_sim::config::PartitionSize;
use untangle_sim::stats::{geometric_mean, stable_sum};
use untangle_workloads::mix::Mix;
use untangle_workloads::spec::SpecBenchmark;

/// One row of the Fig. 11 sensitivity study.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    /// Benchmark name.
    pub name: &'static str,
    /// IPC under each supported partition size, normalized to the 8 MB
    /// IPC.
    pub normalized_ipc: [f64; PartitionSize::COUNT],
    /// The smallest size reaching ≥ 0.9 normalized IPC (§8's adequate
    /// LLC size).
    pub adequate: PartitionSize,
}

impl SensitivityRow {
    /// Whether the measured adequate size classifies the benchmark as
    /// LLC-sensitive (above the 2 MB static share).
    pub fn llc_sensitive(&self) -> bool {
        self.adequate > PartitionSize::MB2
    }
}

/// Runs one benchmark alone under one fixed partition size and returns
/// its IPC.
///
/// # Errors
///
/// [`UntangleError::InvalidConfig`] when `scale` is out of range.
pub fn ipc_at_size(
    bench: &SpecBenchmark,
    size: PartitionSize,
    scale: f64,
) -> Result<f64, UntangleError> {
    let mut config = RunnerConfig::eval_scale(SchemeKind::Static, scale)?;
    config.initial_partition = size;
    let source = bench.model(untangle_trace::LineAddr::new(1 << 28));
    let report = Runner::new(config, vec![Box::new(source)])?.run();
    Ok(report.domains[0].ipc())
}

/// The Fig. 11 study for a set of benchmarks: each benchmark alone,
/// every supported partition size, IPC normalized to 8 MB.
///
/// The benchmark × size grid is flattened into one task list so short
/// benchmarks cannot leave workers idle while a long one finishes its
/// nine sizes.
///
/// # Errors
///
/// As [`ipc_at_size`].
pub fn sensitivity_study(
    benchmarks: &[SpecBenchmark],
    scale: f64,
) -> Result<Vec<SensitivityRow>, UntangleError> {
    let sizes = PartitionSize::COUNT;
    let ipcs = par_map_indexed(benchmarks.len() * sizes, |i| {
        ipc_at_size(&benchmarks[i / sizes], PartitionSize::ALL[i % sizes], scale)
    })
    .into_iter()
    .collect::<Result<Vec<f64>, _>>()?;
    Ok(benchmarks
        .iter()
        .zip(ipcs.chunks(sizes))
        .map(|(b, ipcs)| {
            let reference = ipcs[PartitionSize::MB8.index()];
            let mut normalized = [0.0; PartitionSize::COUNT];
            for (i, ipc) in ipcs.iter().enumerate() {
                normalized[i] = if reference > 0.0 {
                    ipc / reference
                } else {
                    0.0
                };
            }
            let adequate = PartitionSize::ALL
                .into_iter()
                .find(|s| normalized[s.index()] >= 0.9)
                .unwrap_or(PartitionSize::MB8);
            SensitivityRow {
                name: b.name,
                normalized_ipc: normalized,
                adequate,
            }
        })
        .collect())
}

/// The base every mix evaluation XORs its id into to seed its RNGs.
/// Part of the checkpoint fingerprint: changing it invalidates resumes.
pub const MIX_SEED_BASE: u64 = 0xfeed;

/// Runs `mix` under one scheme.
///
/// # Errors
///
/// [`UntangleError::InvalidConfig`] when `scale` is out of range.
pub fn run_mix_under(mix: &Mix, kind: SchemeKind, scale: f64) -> Result<RunReport, UntangleError> {
    let config = RunnerConfig::eval_scale(kind, scale)?;
    Ok(Runner::new(config, mix.sources(MIX_SEED_BASE ^ mix.id as u64, scale))?.run())
}

/// The mix sweep behind Figs. 10, 12–17 and Table 6: every mix in
/// `mixes` under all four schemes, one work item per mix (its four
/// schemes run in sequence inside the item), through [`run_sweep`] —
/// per-item panic isolation with bounded retries, and checkpoint/resume
/// through `store`.
///
/// An item's checkpoint fingerprint covers the mix id, scale, seed
/// base, solver options, scheme list and format version. Every attempt
/// re-derives its seeds from `(MIX_SEED_BASE, mix.id)` alone, so
/// retried and resumed results cannot diverge from clean ones, and the
/// results are bit-identical at any thread count.
pub fn run_mix_sweep(
    mixes: &[Mix],
    scale: f64,
    retry: RetryPolicy,
    store: Option<&CheckpointStore<MixSummary>>,
    resume: bool,
) -> SweepOutcome<MixSummary> {
    let options = DinkelbachOptions::default();
    let keys: Vec<(usize, String)> = mixes
        .iter()
        .map(|m| {
            (
                m.id,
                sweep_fingerprint(m.id, scale, MIX_SEED_BASE, &options),
            )
        })
        .collect();
    run_sweep(&keys, store, resume, retry, |i| {
        let mix = &mixes[i];
        let _span = obs::span(&format!("mix/{:02}", mix.id));
        let runs = SchemeKind::ALL
            .iter()
            .map(|&kind| run_mix_under(mix, kind, scale))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MixSummary::from_runs(mix, &runs))
    })
}

/// One row of Table 6.
#[derive(Debug, Clone, Copy)]
pub struct LeakageSummaryRow {
    /// Mix id.
    pub mix_id: usize,
    /// Average leakage per assessment under Time (bits).
    pub time_per_assessment: f64,
    /// Average total leakage per workload under Time (bits).
    pub time_total: f64,
    /// Average leakage per assessment under Untangle (bits).
    pub untangle_per_assessment: f64,
    /// Average total leakage per workload under Untangle (bits).
    pub untangle_total: f64,
}

impl LeakageSummaryRow {
    /// The headline reduction: how much lower Untangle's leakage per
    /// assessment is than Time's (the paper's abstract reports 78 % on
    /// average).
    pub fn per_assessment_reduction(&self) -> f64 {
        1.0 - self.untangle_per_assessment / self.time_per_assessment
    }
}

/// Table 6 from already-evaluated mixes.
pub fn leakage_summary(summaries: &[MixSummary]) -> Vec<LeakageSummaryRow> {
    summaries
        .iter()
        .map(|e| LeakageSummaryRow {
            mix_id: e.mix_id,
            time_per_assessment: e.avg_leakage_per_assessment(SchemeKind::Time),
            time_total: e.avg_total_leakage(SchemeKind::Time),
            untangle_per_assessment: e.avg_leakage_per_assessment(SchemeKind::Untangle),
            untangle_total: e.avg_total_leakage(SchemeKind::Untangle),
        })
        .collect()
}

/// Result of the §9 active-attacker study for one mix.
#[derive(Debug, Clone, Copy)]
pub struct ActiveAttackerRow {
    /// Mix id.
    pub mix_id: usize,
    /// Average bits/assessment with the §5.3.4 Maintain optimization,
    /// benign environment.
    pub optimized_benign: f64,
    /// Average bits/assessment without the optimization, under squeeze
    /// pressure (worst case).
    pub worst_case: f64,
}

/// Runs the §9 active-attacker comparison for one mix: Untangle with
/// the optimized accounting (benign) versus the unoptimized, squeezed
/// worst case.
///
/// # Errors
///
/// [`UntangleError::InvalidConfig`] when `scale` is out of range.
pub fn active_attacker_study(mix: &Mix, scale: f64) -> Result<ActiveAttackerRow, UntangleError> {
    let benign = run_mix_under(mix, SchemeKind::Untangle, scale)?;
    let mut config = RunnerConfig::eval_scale(SchemeKind::Untangle, scale)?;
    config.params.optimized_accounting = false;
    config.squeeze = true;
    let attacked = Runner::new(config, mix.sources(MIX_SEED_BASE ^ mix.id as u64, scale))?.run();
    let avg = |r: &RunReport| {
        let per: Vec<f64> = r
            .domains
            .iter()
            .map(|d: &DomainReport| d.leakage.bits_per_assessment())
            .collect();
        stable_sum(&per) / r.domains.len() as f64
    };
    Ok(ActiveAttackerRow {
        mix_id: mix.id,
        optimized_benign: avg(&benign),
        worst_case: avg(&attacked),
    })
}

/// One point of the §5.3 channel study.
#[derive(Debug, Clone, Copy)]
pub struct ChannelPoint {
    /// Cooldown in time units.
    pub cooldown: u64,
    /// Delay width in time units.
    pub delay_width: usize,
    /// Certified `R_max` upper bound (bits per unit).
    pub rmax: f64,
}

/// The channel instance behind one sweep point: 8 symbols spaced one
/// delay width apart.
fn sweep_channel_config(cooldown: u64, delay_width: usize) -> ChannelConfig {
    let delay = if delay_width <= 1 {
        DelayDist::none()
    } else {
        DelayDist::uniform(delay_width).expect("width > 0")
    };
    ChannelConfig::evenly_spaced(cooldown, 8, (delay_width as u64).max(1), delay)
        .expect("valid config")
}

/// One certified solve of a sweep point through the shared memo cache.
fn sweep_rmax(cooldown: u64, delay_width: usize) -> f64 {
    RmaxCache::global()
        .solve(
            &sweep_channel_config(cooldown, delay_width),
            &DinkelbachOptions::default(),
        )
        .expect("solver converges")
        .upper_bound
}

/// Sweeps `R_max` over cooldown times at fixed delay (Mechanism 1) —
/// the longer the cooldown, the lower the rate. Grid points solve in
/// parallel and memoize through [`RmaxCache::global`].
pub fn rmax_vs_cooldown(cooldowns: &[u64], delay_width: usize) -> Vec<ChannelPoint> {
    par_map(cooldowns, |&tc| ChannelPoint {
        cooldown: tc,
        delay_width,
        rmax: sweep_rmax(tc, delay_width),
    })
}

/// Sweeps `R_max` over delay widths at fixed cooldown (Mechanism 2) —
/// the wider the random delay, the lower the rate. Grid points solve in
/// parallel and memoize through [`RmaxCache::global`].
pub fn rmax_vs_delay(cooldown: u64, delay_widths: &[usize]) -> Vec<ChannelPoint> {
    par_map(delay_widths, |&w| ChannelPoint {
        cooldown,
        delay_width: w,
        rmax: sweep_rmax(cooldown, w),
    })
}

/// The §5.3.1 strategy example: data rates of the 4-symbol and
/// 8-symbol uniform strategies (expected 800 vs ≈667 bits/s with 1 ms
/// units).
pub fn strategy_example() -> (f64, f64) {
    let rate = |n: usize| {
        let ch = Channel::new(ChannelConfig {
            cooldown: 1,
            durations: (1..=n as u64).collect(),
            delay: DelayDist::none(),
        })
        .expect("valid channel");
        ch.rate_bits_per_unit(&Dist::uniform(n).expect("n > 0"))
            .expect("uniform input is valid for this channel")
            * 1000.0
    };
    (rate(4), rate(8))
}

/// Per-workload Static IPCs for `mix`, the baseline both sweeps
/// normalize against.
fn static_baseline(mix: &Mix, scale: f64, seed: u64) -> Result<Vec<f64>, UntangleError> {
    let config = RunnerConfig::eval_scale(SchemeKind::Static, scale)?;
    Ok(Runner::new(config, mix.sources(seed, scale))?
        .run()
        .domains
        .iter()
        .map(|d| d.ipc())
        .collect())
}

/// Geometric-mean speedup of `report` over per-workload baseline IPCs.
fn speedup_over(report: &RunReport, baseline: &[f64]) -> f64 {
    let normalized: Vec<f64> = report
        .domains
        .iter()
        .zip(baseline)
        .map(|(d, &s)| if s > 0.0 { d.ipc() / s } else { 0.0 })
        .collect();
    geometric_mean(&normalized)
}

/// One row of the §5.3.2 cooldown sweep (`exp_sweep`).
#[derive(Debug, Clone, Copy)]
pub struct CooldownSweepRow {
    /// Assessment interval in instructions.
    pub interval: u64,
    /// Geometric-mean speedup over Static.
    pub speedup: f64,
    /// Average bits per assessment across workloads.
    pub avg_bits_per_assessment: f64,
    /// Average total leaked bits per workload.
    pub avg_total_bits: f64,
    /// Average number of assessments per workload.
    pub avg_assessments: f64,
}

/// Sweeps Untangle's assessment interval over one mix (§5.3.2): the
/// longer the cooldown, the lower the leakage rate and the slower the
/// reaction. `factors` divide the scaled 8 M-instruction base interval.
/// Sweep settings run in parallel against a shared Static baseline.
///
/// # Errors
///
/// [`UntangleError::InvalidConfig`] when `scale` is out of range.
pub fn cooldown_sweep(
    mix: &Mix,
    scale: f64,
    factors: &[u64],
    seed: u64,
) -> Result<Vec<CooldownSweepRow>, UntangleError> {
    let static_ipcs = static_baseline(mix, scale, seed)?;
    let base_interval = (8_000_000.0 * scale) as u64;
    par_map(
        factors,
        |&factor| -> Result<CooldownSweepRow, UntangleError> {
            let interval = base_interval / factor;
            let mut config = RunnerConfig::eval_scale(SchemeKind::Untangle, scale)?;
            config.params.progress_interval_instrs = interval;
            config.params.delay_max_cycles = interval / 8; // δ ~ U[0, T_c)
            let report = Runner::new(config, mix.sources(seed, scale))?.run();
            let n = report.domains.len() as f64;
            Ok(CooldownSweepRow {
                interval,
                speedup: speedup_over(&report, &static_ipcs),
                avg_bits_per_assessment: {
                    let per: Vec<f64> = report
                        .domains
                        .iter()
                        .map(|d| d.leakage.bits_per_assessment())
                        .collect();
                    stable_sum(&per) / n
                },
                avg_total_bits: {
                    let bits: Vec<f64> = report
                        .domains
                        .iter()
                        .map(|d| d.leakage.total_bits)
                        .collect();
                    stable_sum(&bits) / n
                },
                avg_assessments: report
                    .domains
                    .iter()
                    .map(|d| d.leakage.assessments)
                    .sum::<u64>() as f64
                    / n,
            })
        },
    )
    .into_iter()
    .collect()
}

/// One row of the §3.3 budget trade-off sweep (`exp_budget`).
#[derive(Debug, Clone, Copy)]
pub struct BudgetSweepRow {
    /// The lifetime leakage budget in bits (`None` = unlimited).
    pub budget_bits: Option<f64>,
    /// Geometric-mean speedup of Time over Static.
    pub time_speedup: f64,
    /// Geometric-mean speedup of Untangle over Static.
    pub untangle_speedup: f64,
}

/// For each budget, runs `mix` under Time and Untangle and reports the
/// speedup over Static (§3.3: loose accounting exhausts the budget and
/// freezes resizing). The budget × scheme grid runs in parallel.
///
/// # Errors
///
/// [`UntangleError::InvalidConfig`] when `scale` is out of range.
pub fn budget_sweep(
    mix: &Mix,
    scale: f64,
    budgets: &[Option<f64>],
    seed: u64,
) -> Result<Vec<BudgetSweepRow>, UntangleError> {
    let static_ipcs = static_baseline(mix, scale, seed)?;
    let kinds = [SchemeKind::Time, SchemeKind::Untangle];
    let speedups = par_map_indexed(
        budgets.len() * kinds.len(),
        |i| -> Result<f64, UntangleError> {
            let mut config = RunnerConfig::eval_scale(kinds[i % kinds.len()], scale)?;
            config.params.leakage_budget_bits = budgets[i / kinds.len()];
            let report = Runner::new(config, mix.sources(seed, scale))?.run();
            Ok(speedup_over(&report, &static_ipcs))
        },
    )
    .into_iter()
    .collect::<Result<Vec<f64>, _>>()?;
    Ok(budgets
        .iter()
        .zip(speedups.chunks(kinds.len()))
        .map(|(&budget_bits, pair)| BudgetSweepRow {
            budget_bits,
            time_speedup: pair[0],
            untangle_speedup: pair[1],
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use untangle_workloads::mix::mix_by_id;
    use untangle_workloads::spec::spec_by_name;

    #[test]
    fn strategy_example_matches_paper() {
        let (s1, s2) = strategy_example();
        assert!((s1 - 800.0).abs() < 1e-9);
        assert!((s2 - 3000.0 / 4.5).abs() < 1e-9);
        assert!(s1 > s2);
    }

    #[test]
    fn rmax_monotone_in_cooldown() {
        let pts = rmax_vs_cooldown(&[4, 8, 16], 4);
        assert!(pts[0].rmax > pts[1].rmax);
        assert!(pts[1].rmax > pts[2].rmax);
    }

    #[test]
    fn rmax_monotone_in_delay() {
        let pts = rmax_vs_delay(8, &[1, 4, 16]);
        assert!(pts[0].rmax > pts[1].rmax);
        assert!(pts[1].rmax > pts[2].rmax);
    }

    #[test]
    fn sensitivity_distinguishes_big_and_small_working_sets() {
        let rows = sensitivity_study(
            &[
                *spec_by_name("povray_0").unwrap(),
                *spec_by_name("mcf_0").unwrap(),
            ],
            0.002,
        )
        .unwrap();
        let povray = &rows[0];
        let mcf = &rows[1];
        assert!(!povray.llc_sensitive(), "adequate {}", povray.adequate);
        assert!(mcf.llc_sensitive(), "adequate {}", mcf.adequate);
        // Normalized IPC is monotone-ish: 8 MB is the reference 1.0.
        assert!((mcf.normalized_ipc[8] - 1.0).abs() < 1e-9);
        assert!(mcf.normalized_ipc[0] < 0.9);
    }

    #[test]
    fn mix_sweep_produces_all_schemes() {
        let mix = mix_by_id(1).unwrap();
        let outcome = run_mix_sweep(&[mix], 0.001, RetryPolicy::default(), None, false);
        let summary = outcome.results[0].clone().expect("mix 1 completes");
        assert_eq!(summary.schemes.len(), 4);
        assert_eq!(summary.labels.len(), 8);
        let time = summary.avg_leakage_per_assessment(SchemeKind::Time);
        assert!((time - 9f64.log2()).abs() < 1e-9);
        let untangle = summary.avg_leakage_per_assessment(SchemeKind::Untangle);
        assert!(untangle < time, "untangle {untangle} !< time {time}");
        let rows = leakage_summary(&[summary]);
        assert!(rows[0].per_assessment_reduction() > 0.0);
    }

    #[test]
    fn drivers_reject_an_out_of_range_scale() {
        let mix = mix_by_id(1).unwrap();
        let povray = *spec_by_name("povray_0").unwrap();
        assert!(sensitivity_study(&[povray], 0.0).is_err());
        assert!(active_attacker_study(&mix, 0.0).is_err());
        assert!(cooldown_sweep(&mix, 0.0, &[1], 7).is_err());
        assert!(budget_sweep(&mix, f64::NAN, &[None], 7).is_err());
        let outcome = run_mix_sweep(&[mix], 2.0, RetryPolicy::default(), None, false);
        assert!(outcome.results[0].is_none() && outcome.failures.is_empty());
        assert_eq!(outcome.errors.len(), 1, "{:?}", outcome.errors);
        assert!(
            outcome.errors[0].1.contains("scale"),
            "{:?}",
            outcome.errors
        );
    }
}
