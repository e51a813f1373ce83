//! The multi-domain evaluation driver.
//!
//! A [`Runner`] executes one workload per domain under a single
//! partitioning scheme, interleaving domains in global-time order (the
//! domain with the smallest cycle clock steps next). It owns the whole
//! §8 measurement protocol:
//!
//! * warm up for a configurable number of cycles, then measure each
//!   domain's slice of retired instructions;
//! * finished domains keep running — and keep their LLC pressure — but
//!   stop contributing statistics;
//! * resizing assessments fire per the scheme's schedule; decided
//!   visible actions are applied after the random delay δ (Mechanism 2);
//! * the leakage accountant charges every assessment, and a leakage
//!   budget (if set) freezes further resizing;
//! * partition sizes are sampled on a fixed period for the distribution
//!   charts (Fig. 10 top rows);
//! * the optional *squeeze* flag models the §6.2 active attacker that
//!   steals capacity whenever the victim maintains, forcing visible
//!   expansions.

use crate::action::{Action, ResizingTrace};
use crate::decision::DecisionCore;
use crate::error::UntangleError;
use crate::heuristic;
use crate::leakage::{AccountingMode, BudgetGate, LeakageAccountant, LeakageReport};
use crate::metric::{FootprintMetric, HitCurveMetric, MetricPolicy};
use crate::schedule::{ProgressSchedule, ScheduleEvent, TimeSchedule};
use crate::scheme::{DomainTier, MetricKind, SchemeKind, SchemeParams};
use crate::taint::{sites, Labeled};
use untangle_obs as obs;
use untangle_sim::config::{MachineConfig, PartitionSize};
use untangle_sim::stats::{geometric_mean, nearest_rank_index, DomainStats};
use untangle_sim::system::{LlcMode, System};
use untangle_trace::synth::TraceRng;
use untangle_trace::TraceSource;

/// Everything a [`Runner`] needs besides the workloads.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Which scheme to run.
    pub kind: SchemeKind,
    /// Dynamic-scheme parameters (ignored by Static/Shared).
    pub params: SchemeParams,
    /// Measured instructions per domain after warmup.
    pub slice_instrs: u64,
    /// Warmup duration in cycles (paper: 5 ms).
    pub warmup_cycles: f64,
    /// Instruction-count warmup: when set, a domain's measurement
    /// starts once it has retired this many instructions, and
    /// `warmup_cycles` is ignored. Slice-replay drivers use this to
    /// align the measured window with an instruction-addressed span of
    /// an on-disk trace, which a cycle threshold cannot do exactly.
    pub warmup_instrs: Option<u64>,
    /// Partition-size sampling period in cycles (paper: 100 µs).
    pub sample_interval_cycles: f64,
    /// Seed for the random action delays.
    pub seed: u64,
    /// Model the §6.2 active attacker: steal capacity after every
    /// Maintain, forcing the victim into visible expansions.
    pub squeeze: bool,
    /// Partition size every domain starts with — and keeps, under the
    /// Static scheme (§8: 2 MB). The sensitivity study (Fig. 11) sweeps
    /// this across all nine supported sizes.
    pub initial_partition: PartitionSize,
    /// Overrides the scheme's default metric policy (Untangle:
    /// public-only; Time: everything). Used by the ablation studies:
    /// a Time schedule with an annotation-aware metric still has
    /// timing-entangled actions (§3.4), and Untangle without
    /// annotations leaks demand (Fig. 2, Edge ①).
    pub metric_policy: Option<MetricPolicy>,
    /// Per-domain security tiers, used only by [`SchemeKind::SecDcp`]:
    /// sensitive domains never drive resizing. Domains beyond the
    /// vector's length — or all domains, when `None` — default to
    /// [`DomainTier::Sensitive`], matching the paper's workloads where
    /// every domain handles secrets.
    pub tiers: Option<Vec<DomainTier>>,
}

impl RunnerConfig {
    /// A deliberately small configuration for unit tests and doctests:
    /// short slices, short intervals, small monitor window.
    pub fn test_scale(kind: SchemeKind, _domains: usize) -> Self {
        let machine = MachineConfig {
            umon_window: 2048,
            ..MachineConfig::default()
        };
        let mut params = SchemeParams {
            time_interval_cycles: 8_000.0,
            progress_interval_instrs: 16_000,
            delay_max_cycles: 2_000,
            max_maintain_credit: 8,
            ..SchemeParams::scaled(0.01)
        };
        params.heuristic.min_window_fill = machine.umon_window / 2;
        Self {
            machine,
            kind,
            params,
            slice_instrs: 400_000,
            warmup_cycles: 2_000.0,
            warmup_instrs: None,
            sample_interval_cycles: 1_000.0,
            seed: 42,
            squeeze: false,
            initial_partition: PartitionSize::MB2,
            metric_policy: None,
            tiers: None,
        }
    }

    /// Paper-ratio configuration at a linear time `scale` (1.0 = the
    /// full §8 protocol: 500 M-instruction slices, 5 ms warmup, 1 ms
    /// intervals). The default experiments run at `scale = 0.01`.
    ///
    /// # Errors
    ///
    /// Returns [`UntangleError::InvalidConfig`] unless `0 < scale <= 1`
    /// (NaN included), so sweep drivers can record a bad grid point and
    /// move on instead of aborting the whole sweep. Scales so small that
    /// the progress interval or the measured slice rounds to zero
    /// instructions (below 1.25e-7) are rejected the same way.
    pub fn eval_scale(kind: SchemeKind, scale: f64) -> Result<Self, UntangleError> {
        if !(scale > 0.0 && scale <= 1.0) {
            return Err(UntangleError::InvalidConfig(format!(
                "evaluation scale must be in (0, 1], got {scale}"
            )));
        }
        let machine = MachineConfig {
            umon_window: ((1_000_000.0 * scale) as usize).max(1024),
            ..MachineConfig::default()
        };
        let mut params = SchemeParams::scaled(scale);
        let slice_instrs = (500_000_000.0 * scale) as u64;
        if params.progress_interval_instrs == 0 || slice_instrs == 0 {
            return Err(UntangleError::InvalidConfig(format!(
                "evaluation scale {scale} rounds the progress interval \
                 ({} instructions) or the slice ({slice_instrs} instructions) to zero",
                params.progress_interval_instrs
            )));
        }
        // Only act on a mostly-full monitor window: a cold window is all
        // compulsory misses and would trigger bogus shrinks.
        params.heuristic.min_window_fill = machine.umon_window / 2;
        Ok(Self {
            machine,
            kind,
            params,
            slice_instrs,
            warmup_cycles: 10_000_000.0 * scale,
            warmup_instrs: None,
            sample_interval_cycles: 200_000.0 * scale,
            seed: 42,
            squeeze: false,
            initial_partition: PartitionSize::MB2,
            metric_policy: None,
            tiers: None,
        })
    }
}

/// Per-domain results of a run.
#[derive(Debug, Clone)]
pub struct DomainReport {
    /// Statistics over the measured slice (post-warmup).
    pub stats: DomainStats,
    /// The domain's resizing trace (post-warmup).
    pub trace: ResizingTrace,
    /// Accumulated leakage (post-warmup).
    pub leakage: LeakageReport,
    /// Partition sizes sampled every `sample_interval_cycles`.
    pub size_samples: Vec<PartitionSize>,
}

impl DomainReport {
    /// IPC over the measured slice.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// `(min, q1, median, q3, max)` of the sampled partition sizes —
    /// the Fig. 10 top-row box summaries. `None` without samples.
    ///
    /// Quartiles follow the nearest-rank convention
    /// ([`nearest_rank_index`]): each is one of the samples, and the
    /// median of an even-length sample set is the lower middle sample.
    pub fn size_quartiles(
        &self,
    ) -> Option<(
        PartitionSize,
        PartitionSize,
        PartitionSize,
        PartitionSize,
        PartitionSize,
    )> {
        if self.size_samples.is_empty() {
            return None;
        }
        let mut sorted = self.size_samples.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        // `unwrap_or(0)` is unreachable (n > 0 and q ∈ [0, 1]) but keeps
        // this panic-free by construction.
        let at = |q: f64| sorted[nearest_rank_index(n, q).unwrap_or(0)];
        Some((sorted[0], at(0.25), at(0.5), at(0.75), sorted[n - 1]))
    }
}

/// Results of a full run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The scheme that ran.
    pub kind: SchemeKind,
    /// Per-domain reports in domain order.
    pub domains: Vec<DomainReport>,
}

impl RunReport {
    /// Geometric mean of per-domain IPCs (the §9 "system-wide speedup"
    /// numerator).
    pub fn geomean_ipc(&self) -> f64 {
        let ipcs: Vec<f64> = self.domains.iter().map(DomainReport::ipc).collect();
        geometric_mean(&ipcs)
    }
}

/// One schedule-fire telemetry sample exported by
/// [`Runner::run_with_tap`]: the decision inputs an assessment at this
/// point will see, captured *before* the budget gate (a budget-frozen
/// domain still fires its schedule; gating is the receiver's call, so
/// the receiver can reproduce the gate from the same inputs).
///
/// This is the bridge between the batch driver and the serve daemon: a
/// tap stream converted to telemetry events and replayed through a
/// 1-shard `untangle-serve` engine must reproduce the Runner's decision
/// traces bit for bit — the serve equivalence acceptance check.
#[derive(Debug, Clone)]
pub struct TelemetrySample {
    /// The assessed domain.
    pub domain: usize,
    /// The domain clock at the schedule fire.
    pub cycles: f64,
    /// Counted retired instructions since the previous fire (the
    /// progress-schedule interval; `0` under a wall-clock schedule).
    pub progress_instrs: u64,
    /// Monitor-window fill at the fire.
    pub window_fill: usize,
    /// The domain's hit curve with its taint label (hit-curve metric
    /// only). The label travels with the sample so a converter can
    /// preserve taint end to end instead of silently declassifying.
    pub hit_curve: Option<Labeled<untangle_sim::umon::HitCurve>>,
    /// The domain's footprint with its taint label (footprint metric
    /// only).
    pub footprint_bytes: Option<Labeled<u64>>,
}

/// The utilization metric instance of one domain.
enum DomainMetric {
    Hits(HitCurveMetric),
    Footprint(FootprintMetric),
}

impl DomainMetric {
    fn observe(&mut self, instr: &untangle_trace::Instr) {
        match self {
            DomainMetric::Hits(m) => m.observe(instr),
            DomainMetric::Footprint(m) => m.observe(instr),
        }
    }
}

struct DomainState {
    metric: Option<DomainMetric>,
    time_sched: Option<TimeSchedule>,
    prog_sched: Option<ProgressSchedule>,
    /// The per-domain decision step machinery (accountant, trace,
    /// pending delayed action, logical size, delay RNG) — shared with
    /// the serve daemon, see [`crate::decision`].
    decision: DecisionCore,
    warmup_done: bool,
    warmup_snap: DomainStats,
    finished: bool,
    final_stats: DomainStats,
    exhausted: bool,
    samples: Vec<PartitionSize>,
    next_sample_at: f64,
}

/// Drives N workloads under one scheme. See the crate-level example.
pub struct Runner {
    config: RunnerConfig,
    system: System,
    sources: Vec<Box<dyn TraceSource>>,
    states: Vec<DomainState>,
}

impl Runner {
    /// Builds a runner for one workload per domain.
    ///
    /// For the Untangle scheme this precomputes the `R_max` rate table
    /// (a few Dinkelbach solves).
    ///
    /// # Errors
    ///
    /// * [`UntangleError::InvalidConfig`] — no sources, the initial
    ///   partitions oversubscribe the LLC, or an Untangle run with a
    ///   zero progress interval.
    /// * Any `untangle-info` error from the `R_max` rate-model build
    ///   (Untangle scheme only), converted via `From<InfoError>`.
    pub fn new(
        config: RunnerConfig,
        sources: Vec<Box<dyn TraceSource>>,
    ) -> Result<Self, UntangleError> {
        let domains = sources.len();
        if domains == 0 {
            return Err(UntangleError::InvalidConfig(
                "runner needs at least one trace source".to_string(),
            ));
        }
        let mode = match config.kind {
            SchemeKind::Shared => LlcMode::Shared,
            _ => LlcMode::Partitioned,
        };
        if mode == LlcMode::Partitioned
            && domains as u64 * config.initial_partition.bytes() > config.machine.llc_bytes
        {
            return Err(UntangleError::InvalidConfig(format!(
                "initial partitions oversubscribe the LLC: {domains} domains x {} bytes > {} bytes",
                config.initial_partition.bytes(),
                config.machine.llc_bytes
            )));
        }
        if config.kind == SchemeKind::Untangle && config.params.progress_interval_instrs == 0 {
            return Err(UntangleError::InvalidConfig(
                "Untangle's progress interval must be at least one instruction".to_string(),
            ));
        }
        let mut system = System::new(config.machine.clone(), domains, mode);
        for d in 0..domains {
            system.resize(d, config.initial_partition);
        }

        let accounting = match config.kind {
            SchemeKind::Time => AccountingMode::PerAssessment {
                bits: SchemeParams::conventional_bits_per_assessment(),
            },
            SchemeKind::Untangle => {
                let model = config
                    .params
                    .build_rate_model(config.machine.timing.commit_width)?;
                AccountingMode::RateTable {
                    table: model.table,
                    cycles_per_unit: model.cycles_per_unit,
                    cooldown_units: model.cooldown_units,
                    delay_units: model.delay_units,
                    optimized: config.params.optimized_accounting,
                }
            }
            // Static/Shared never assess; SecDCP's tiered flows are
            // permitted by its security model, so nothing is charged.
            _ => AccountingMode::PerAssessment { bits: 0.0 },
        };

        let tier_of = |d: usize| {
            config
                .tiers
                .as_ref()
                .and_then(|t| t.get(d))
                .copied()
                .unwrap_or(DomainTier::Sensitive)
        };
        let states = (0..domains)
            .map(|d| DomainState {
                metric: {
                    let policy = match config.kind {
                        SchemeKind::Untangle => {
                            Some(config.metric_policy.unwrap_or(MetricPolicy::PublicOnly))
                        }
                        SchemeKind::Time => Some(config.metric_policy.unwrap_or(MetricPolicy::All)),
                        SchemeKind::SecDcp if tier_of(d) == DomainTier::Public => {
                            Some(config.metric_policy.unwrap_or(MetricPolicy::All))
                        }
                        _ => None,
                    };
                    policy.map(|policy| match config.params.metric_kind {
                        MetricKind::HitCurve => {
                            DomainMetric::Hits(HitCurveMetric::new(&config.machine, policy))
                        }
                        MetricKind::Footprint => DomainMetric::Footprint(FootprintMetric::new(
                            config.params.footprint_window,
                            policy,
                        )),
                    })
                },
                time_sched: (config.kind == SchemeKind::Time
                    || (config.kind == SchemeKind::SecDcp && tier_of(d) == DomainTier::Public))
                    .then(|| TimeSchedule::new(config.params.time_interval_cycles)),
                prog_sched: (config.kind == SchemeKind::Untangle)
                    .then(|| ProgressSchedule::new(config.params.progress_interval_instrs)),
                decision: DecisionCore::new(
                    LeakageAccountant::new(accounting.clone(), config.params.leakage_budget_bits),
                    config.initial_partition,
                    TraceRng::new(config.seed.wrapping_add(d as u64).wrapping_mul(0x9e37)),
                    config.params.delay_max_cycles,
                ),
                warmup_done: false,
                warmup_snap: DomainStats::default(),
                finished: false,
                final_stats: DomainStats::default(),
                exhausted: false,
                samples: Vec::new(),
                next_sample_at: 0.0,
            })
            .collect();

        Ok(Self {
            config,
            system,
            sources,
            states,
        })
    }

    /// Runs until every domain has retired its measured slice (finished
    /// domains keep applying pressure), then reports.
    pub fn run(self) -> RunReport {
        self.run_with_tap(|_| {})
    }

    /// Like [`Runner::run`], but invokes `tap` with a
    /// [`TelemetrySample`] at every schedule fire — before the budget
    /// gate, and regardless of warmup state — carrying the decision
    /// inputs that assessment sees. The exported stream is exactly the
    /// telemetry a decision service would have needed to reach the same
    /// decisions, which is how the serve equivalence tests replay a
    /// batch run through `untangle-serve`.
    pub fn run_with_tap<F: FnMut(TelemetrySample)>(mut self, mut tap: F) -> RunReport {
        let domains = self.sources.len();
        let mut remaining = domains;
        while remaining > 0 {
            let d = self.system.laggard();
            if self.states[d].exhausted {
                // A finite source ran dry: idle the domain so others can
                // make progress; it exerts no further pressure.
                self.system
                    .stall(d, self.config.params.time_interval_cycles.max(1.0));
                continue;
            }
            if self.step_domain(d, &mut tap) {
                remaining -= 1;
            }
        }
        self.into_report()
    }

    /// Snapshots the decision inputs of `domain` for the telemetry tap.
    fn telemetry_sample(&self, domain: usize, now: f64) -> TelemetrySample {
        let st = &self.states[domain];
        let (window_fill, hit_curve, footprint_bytes) = match &st.metric {
            Some(DomainMetric::Hits(m)) => (m.window_fill(), Some(m.hit_curve()), None),
            Some(DomainMetric::Footprint(m)) => (m.window_fill(), None, Some(m.footprint_bytes())),
            None => (0, None, None),
        };
        TelemetrySample {
            domain,
            cycles: now,
            progress_instrs: st
                .prog_sched
                .as_ref()
                .map_or(0, ProgressSchedule::interval_instrs),
            window_fill,
            hit_curve,
            footprint_bytes,
        }
    }

    /// Steps one instruction of `domain`; returns `true` if the domain
    /// finished its slice on this step.
    fn step_domain<F: FnMut(TelemetrySample)>(&mut self, domain: usize, tap: &mut F) -> bool {
        let Some(event) = self.system.step(domain, &mut self.sources[domain]) else {
            self.states[domain].exhausted = true;
            // An exhausted domain that never finished its slice finishes
            // now with whatever it retired.
            if !self.states[domain].finished {
                self.states[domain].finished = true;
                self.states[domain].final_stats = self.system.stats(domain);
                return true;
            }
            return false;
        };
        let now = event.cycles;

        // Apply a pending resize whose delay has elapsed.
        if let Some(size) = self.states[domain].decision.take_due(now) {
            self.system.resize(domain, size);
        }

        // Feed the metric and the schedule.
        if let Some(metric) = &mut self.states[domain].metric {
            metric.observe(&event.instr);
        }
        // The domain clock reflects secret-dependent execution timing,
        // so it enters the wall-clock schedule as `Secret` (the schedule
        // declassifies it at its named Edge ③ site). Progress counts are
        // public by the §6 annotation contract, so Untangle's schedule
        // sees only `Public` inputs and its fail-closed guard stays
        // silent.
        let assess = if let Some(sched) = self.states[domain].time_sched.as_mut() {
            sched.on_retire(Labeled::secret(now)) == ScheduleEvent::Assess
        } else if let Some(sched) = self.states[domain].prog_sched.as_mut() {
            sched.on_retire(Labeled::public(event.instr.counts_toward_progress()))
                == ScheduleEvent::Assess
        } else {
            false
        };
        if assess {
            tap(self.telemetry_sample(domain, now));
            match self.states[domain].decision.gate(now) {
                BudgetGate::Skip => {}
                BudgetGate::MaintainOnly => self.assess_inner(domain, now, true),
                BudgetGate::Proceed => self.assess_inner(domain, now, false),
            }
        }

        // Warmup bookkeeping.
        let warmed = match self.config.warmup_instrs {
            Some(n) => self.system.stats(domain).instructions >= n,
            None => now >= self.config.warmup_cycles,
        };
        if !self.states[domain].warmup_done && warmed {
            let st = &mut self.states[domain];
            st.warmup_done = true;
            st.warmup_snap = self.system.stats(domain);
            st.decision.reset_measurement();
            st.samples.clear();
            st.next_sample_at = now;
        }

        // Partition-size sampling during the measured phase.
        if self.states[domain].warmup_done
            && !self.states[domain].finished
            && now >= self.states[domain].next_sample_at
        {
            let st = &mut self.states[domain];
            st.samples.push(self.system.partition_size(domain));
            while st.next_sample_at <= now {
                st.next_sample_at += self.config.sample_interval_cycles;
            }
        }

        // Slice completion.
        if self.states[domain].warmup_done && !self.states[domain].finished {
            let retired = self.system.stats(domain).instructions
                - self.states[domain].warmup_snap.instructions;
            if retired >= self.config.slice_instrs {
                self.states[domain].finished = true;
                self.states[domain].final_stats = self.system.stats(domain);
                return true;
            }
        }
        false
    }

    /// Performs one resizing assessment for `domain` at cycle `now`.
    /// With `forced_maintain`, the leakage budget bars visible actions
    /// and the assessment records a Maintain regardless of demand.
    fn assess_inner(&mut self, domain: usize, now: f64, forced_maintain: bool) {
        let current = self.states[domain].decision.logical_size();
        // Capacity accounting over *logical* sizes: decided-but-not-yet
        // -applied actions already own (or have released) their bytes,
        // so concurrent assessments can neither oversubscribe the LLC
        // nor observe each other's delay draws.
        let llc_bytes = self.config.machine.llc_bytes;
        let assigned: u64 = self
            .states
            .iter()
            .map(|s| s.decision.logical_size().bytes())
            .sum();
        let free = llc_bytes.saturating_sub(assigned);

        let action = if forced_maintain {
            Action::set_size(current)
        } else {
            // Only scheme kinds that install a metric also install a
            // schedule, so assessments imply a metric; if that invariant
            // ever slips, skip the assessment rather than panic mid-run.
            let Some(metric) = self.states[domain].metric.as_ref() else {
                return;
            };
            match metric {
                DomainMetric::Hits(m) => {
                    // Global hit maximization (§7): consult every
                    // domain's public curve, apply only our component.
                    // Domains without a hit-curve metric (Static-tier
                    // domains under SecDCP) contribute a flat curve, so
                    // the chooser leaves them at the minimum and they
                    // never act anyway.
                    let fill = m.window_fill();
                    // Fold the labeled curves; the collection carries the
                    // join of every curve's label, and crossing into the
                    // heuristic is the declassification. On Untangle's
                    // default public-only path the join is `Public` and
                    // the declassify records nothing; a tainted curve
                    // (conventional metric, or the all-seeing ablation
                    // override on Untangle) is recorded at a site naming
                    // *why* it was tainted.
                    let mut curves = Labeled::public(Vec::with_capacity(self.states.len()));
                    for st in &self.states {
                        let curve = match &st.metric {
                            Some(DomainMetric::Hits(m)) => m.hit_curve(),
                            _ => Labeled::public([0; untangle_sim::config::PartitionSize::COUNT]),
                        };
                        curves = curves.combine(curve, |mut v, c| {
                            v.push(c);
                            v
                        });
                    }
                    let site = match self.config.kind {
                        SchemeKind::Untangle => sites::METRIC_POLICY_OVERRIDE,
                        _ => sites::CONVENTIONAL_METRIC,
                    };
                    let curves = curves.declassify(site);
                    heuristic::decide_global(
                        &curves,
                        domain,
                        fill,
                        current,
                        free,
                        llc_bytes,
                        &self.config.params.heuristic,
                    )
                }
                DomainMetric::Footprint(m) => {
                    let site = match self.config.kind {
                        SchemeKind::Untangle => sites::METRIC_POLICY_OVERRIDE,
                        _ => sites::CONVENTIONAL_FOOTPRINT,
                    };
                    heuristic::decide_by_footprint(
                        m.footprint_bytes().declassify(site),
                        m.window_fill(),
                        current,
                        free,
                        self.config.params.footprint_headroom,
                        &self.config.params.heuristic,
                    )
                }
            }
        };
        // Classification, accounting, the delay draw, trace recording,
        // and the pending switch all happen inside the shared decision
        // core — the serve daemon runs the same step.
        let committed = self.states[domain].decision.commit(action, now);
        let class = committed.class;
        if obs::enabled() {
            // One counter per (scheme, decision class), e.g.
            // `runner.decisions.untangle.maintain`.
            let kind = self.config.kind.name().to_ascii_lowercase();
            obs::counter_add(&format!("runner.decisions.{kind}.{}", class.name()), 1);
        }

        if !class.is_visible() && self.config.squeeze {
            // Active attacker: immediately squeeze the maintained
            // partition, forcing the next assessment toward a visible
            // expansion (§6.2). This is an attacker act, not a victim
            // resizing action, so it does not enter the victim's trace.
            if let Some(smaller) = current.next_down() {
                self.system.resize(domain, smaller);
            }
        }
    }

    fn into_report(self) -> RunReport {
        let domains = self
            .states
            .into_iter()
            .map(|st| {
                let (trace, leakage) = st.decision.into_results();
                DomainReport {
                    stats: st.final_stats.since(&st.warmup_snap),
                    trace,
                    leakage,
                    size_samples: st.samples,
                }
            })
            .collect();
        RunReport {
            kind: self.config.kind,
            domains,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use untangle_trace::synth::{CryptoConfig, CryptoModel, WorkingSetConfig, WorkingSetModel};

    fn ws_source(ws_bytes: u64, seed: u64) -> Box<dyn TraceSource> {
        Box::new(WorkingSetModel::new(
            WorkingSetConfig {
                working_set_bytes: ws_bytes,
                ..WorkingSetConfig::default()
            },
            seed,
        ))
    }

    #[test]
    fn new_rejects_bad_configurations_with_typed_errors() {
        // No sources.
        let config = RunnerConfig::test_scale(SchemeKind::Untangle, 1);
        assert!(matches!(
            Runner::new(config, vec![]),
            Err(UntangleError::InvalidConfig(_))
        ));

        // Oversubscribed LLC: three half-LLC partitions in a 16 MB cache.
        let config = RunnerConfig {
            initial_partition: PartitionSize::MB8,
            ..RunnerConfig::test_scale(SchemeKind::Static, 3)
        };
        let sources = vec![
            ws_source(1 << 20, 1),
            ws_source(1 << 20, 2),
            ws_source(1 << 20, 3),
        ];
        assert!(matches!(
            Runner::new(config, sources),
            Err(UntangleError::InvalidConfig(_))
        ));

        // A zero progress interval: an error, not a panic in the
        // progress schedule.
        let mut config = RunnerConfig::eval_scale(SchemeKind::Untangle, 1.3e-7).unwrap();
        config.params.progress_interval_instrs = 0;
        assert!(matches!(
            Runner::new(config, vec![ws_source(1 << 20, 1)]),
            Err(UntangleError::InvalidConfig(_))
        ));
    }

    #[test]
    fn eval_scale_rejects_out_of_range_scales() {
        // 1.2e-7 is in range but rounds the progress interval to zero.
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY, 1.2e-7, 1e-9] {
            assert!(matches!(
                RunnerConfig::eval_scale(SchemeKind::Untangle, bad),
                Err(UntangleError::InvalidConfig(_))
            ));
        }
        let ok = RunnerConfig::eval_scale(SchemeKind::Untangle, 0.001).unwrap();
        assert!(ok.slice_instrs > 0);
        let smallest = RunnerConfig::eval_scale(SchemeKind::Untangle, 1.3e-7).unwrap();
        assert_eq!(smallest.params.progress_interval_instrs, 1);
        assert!(Runner::new(smallest, vec![ws_source(1 << 20, 1)]).is_ok());
    }

    #[test]
    fn static_scheme_never_resizes() {
        let config = RunnerConfig::test_scale(SchemeKind::Static, 1);
        let report = Runner::new(config, vec![ws_source(1 << 20, 1)])
            .expect("runner")
            .run();
        let d = &report.domains[0];
        assert!(d.trace.is_empty());
        assert_eq!(d.leakage.assessments, 0);
        assert!(d.size_samples.iter().all(|&s| s == PartitionSize::MB2));
    }

    #[test]
    fn time_scheme_charges_log2_9_per_assessment() {
        let config = RunnerConfig::test_scale(SchemeKind::Time, 1);
        let report = Runner::new(config, vec![ws_source(1 << 20, 1)])
            .expect("runner")
            .run();
        let d = &report.domains[0];
        assert!(d.leakage.assessments > 0, "time scheme must assess");
        assert!(
            (d.leakage.bits_per_assessment() - 9f64.log2()).abs() < 1e-9,
            "got {}",
            d.leakage.bits_per_assessment()
        );
    }

    #[test]
    fn untangle_leaks_less_per_assessment_than_time() {
        let run = |kind| {
            let config = RunnerConfig::test_scale(kind, 1);
            Runner::new(config, vec![ws_source(1 << 20, 1)])
                .expect("runner")
                .run()
                .domains[0]
                .leakage
        };
        let time = run(SchemeKind::Time);
        let untangle = run(SchemeKind::Untangle);
        assert!(untangle.assessments > 0);
        assert!(
            untangle.bits_per_assessment() < time.bits_per_assessment(),
            "untangle {} !< time {}",
            untangle.bits_per_assessment(),
            time.bits_per_assessment()
        );
    }

    #[test]
    fn untangle_maintains_dominate_in_steady_state() {
        let config = RunnerConfig::test_scale(SchemeKind::Untangle, 1);
        let report = Runner::new(config, vec![ws_source(512 << 10, 3)])
            .expect("runner")
            .run();
        let d = &report.domains[0];
        assert!(d.leakage.assessments >= 4);
        assert!(
            d.leakage.maintain_fraction() > 0.5,
            "steady workload should mostly Maintain: {}",
            d.leakage.maintain_fraction()
        );
    }

    #[test]
    fn partition_sum_never_exceeds_llc() {
        // Two LLC-hungry domains compete; invariant must hold at the end
        // and sampled sizes must be supported sizes.
        let config = RunnerConfig::test_scale(SchemeKind::Untangle, 2);
        let report = Runner::new(config, vec![ws_source(6 << 20, 1), ws_source(6 << 20, 2)])
            .expect("runner")
            .run();
        for d in &report.domains {
            assert!(!d.size_samples.is_empty());
        }
        let _ = report.geomean_ipc();
    }

    #[test]
    fn leakage_budget_freezes_resizing() {
        let mut config = RunnerConfig::test_scale(SchemeKind::Time, 1);
        config.params.leakage_budget_bits = Some(7.0); // ~2 assessments
        let report = Runner::new(config, vec![ws_source(4 << 20, 1)])
            .expect("runner")
            .run();
        let d = &report.domains[0];
        assert!(
            d.leakage.total_bits <= 7.0 + 9f64.log2(),
            "budget must cap leakage: {}",
            d.leakage.total_bits
        );
        // Far fewer assessments than an unfrozen run would make.
        assert!(d.leakage.assessments <= 3);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let config = RunnerConfig::test_scale(SchemeKind::Untangle, 1);
            Runner::new(config, vec![ws_source(2 << 20, 9)])
                .expect("runner")
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.domains[0].trace, b.domains[0].trace);
        assert_eq!(a.domains[0].stats, b.domains[0].stats);
    }

    #[test]
    fn squeeze_increases_visible_actions() {
        let run = |squeeze| {
            let mut config = RunnerConfig::test_scale(SchemeKind::Untangle, 1);
            config.squeeze = squeeze;
            Runner::new(config, vec![ws_source(1 << 20, 5)])
                .expect("runner")
                .run()
                .domains[0]
                .leakage
        };
        let calm = run(false);
        let attacked = run(true);
        assert!(
            attacked.visible_actions >= calm.visible_actions,
            "squeeze must not reduce visible actions"
        );
    }

    #[test]
    fn worst_case_accounting_with_budget_skips_assessments() {
        let mut config = RunnerConfig::test_scale(SchemeKind::Untangle, 1);
        config.params.optimized_accounting = false;
        config.params.leakage_budget_bits = Some(4.0);
        let report = Runner::new(config, vec![ws_source(3 << 20, 5)])
            .expect("runner")
            .run();
        let d = &report.domains[0];
        // Worst-case mode charges every assessment; the gate must stop
        // before the 4-bit budget is crossed.
        assert!(
            d.leakage.total_bits <= 4.0 + 1e-9,
            "{}",
            d.leakage.total_bits
        );
    }

    #[test]
    fn squeeze_under_budget_still_never_exceeds_threshold() {
        let mut config = RunnerConfig::test_scale(SchemeKind::Untangle, 1);
        config.squeeze = true;
        config.params.leakage_budget_bits = Some(6.0);
        let report = Runner::new(config, vec![ws_source(2 << 20, 5)])
            .expect("runner")
            .run();
        // §6.2/§9: an active attacker can burn the budget faster but
        // cannot violate the guarantee.
        assert!(report.domains[0].leakage.total_bits <= 6.0 + 1e-9);
    }

    #[test]
    fn secdcp_public_domain_uses_time_schedule() {
        use crate::scheme::DomainTier;
        let mut config = RunnerConfig::test_scale(SchemeKind::SecDcp, 1);
        config.tiers = Some(vec![DomainTier::Public]);
        let report = Runner::new(config, vec![ws_source(4 << 20, 1)])
            .expect("runner")
            .run();
        let d = &report.domains[0];
        assert!(d.leakage.assessments > 0);
        assert_eq!(d.leakage.total_bits, 0.0, "tiered flows are free");
    }

    #[test]
    fn quartiles_summarize_samples() {
        let config = RunnerConfig::test_scale(SchemeKind::Static, 1);
        let report = Runner::new(config, vec![ws_source(1 << 20, 1)])
            .expect("runner")
            .run();
        let (min, q1, med, q3, max) = report.domains[0].size_quartiles().unwrap();
        // Static never moves: all quartiles equal the 2 MB start.
        assert_eq!(min, PartitionSize::MB2);
        assert_eq!(q1, PartitionSize::MB2);
        assert_eq!(med, PartitionSize::MB2);
        assert_eq!(q3, PartitionSize::MB2);
        assert_eq!(max, PartitionSize::MB2);
    }

    #[test]
    fn global_allocation_converges_to_the_hungry_domain() {
        // One 6 MB working set among three tiny ones: the hungry domain
        // must end up with a strictly larger partition.
        let config = RunnerConfig::test_scale(SchemeKind::Untangle, 4);
        let report = Runner::new(
            config,
            vec![
                ws_source(6 << 20, 1),
                ws_source(256 << 10, 2),
                ws_source(256 << 10, 3),
                ws_source(256 << 10, 4),
            ],
        )
        .expect("runner")
        .run();
        let final_size = |d: usize| *report.domains[d].size_samples.last().expect("samples");
        assert!(
            final_size(0) > final_size(1),
            "hungry {} !> tiny {}",
            final_size(0),
            final_size(1)
        );
        // Logical capacity accounting: the final sizes never
        // oversubscribe the LLC.
        let total: u64 = (0..4).map(|d| final_size(d).bytes()).sum();
        assert!(total <= 16 << 20, "total {total}");
    }

    #[test]
    fn metric_policy_override_changes_behavior() {
        use crate::metric::MetricPolicy;
        // An Untangle run whose metric sees everything reacts to
        // secret-annotated demand; the default public-only one does not.
        use untangle_trace::snippets::secret_gated_traversal;
        use untangle_trace::source::TraceSource as _;
        let run = |policy: Option<MetricPolicy>, secret: bool| {
            let public = WorkingSetModel::new(
                WorkingSetConfig {
                    working_set_bytes: 512 << 10,
                    ..WorkingSetConfig::default()
                },
                3,
            )
            .take_instrs(150_000);
            let gated = secret_gated_traversal(
                secret,
                4 << 20,
                untangle_trace::LineAddr::new(1 << 30),
                true,
            )
            .chain(secret_gated_traversal(
                secret,
                4 << 20,
                untangle_trace::LineAddr::new(1 << 30),
                true,
            ));
            let tail = WorkingSetModel::new(WorkingSetConfig::default(), 4).take_instrs(150_000);
            let mut config = RunnerConfig::test_scale(SchemeKind::Untangle, 1);
            config.warmup_cycles = 0.0;
            config.slice_instrs = u64::MAX;
            config.metric_policy = policy;
            Runner::new(config, vec![Box::new(public.chain(gated).chain(tail))])
                .expect("runner")
                .run()
                .domains[0]
                .trace
                .action_sequence()
        };
        assert_eq!(run(None, false), run(None, true), "public-only is blind");
        assert_ne!(
            run(Some(MetricPolicy::All), false),
            run(Some(MetricPolicy::All), true),
            "the all-seeing override must react to the gated traversal"
        );
    }

    #[test]
    fn footprint_metric_variant_adapts_too() {
        use crate::scheme::MetricKind;
        let mut config = RunnerConfig::test_scale(SchemeKind::Untangle, 1);
        config.params.metric_kind = MetricKind::Footprint;
        let report = Runner::new(config, vec![ws_source(3 << 20, 5)])
            .expect("runner")
            .run();
        let d = &report.domains[0];
        assert!(d.leakage.assessments > 0);
        // A 3 MB working set must pull the partition above the 2 MB
        // start under the footprint rule.
        let (_, _, median, _, _) = d.size_quartiles().expect("samples exist");
        assert!(median >= PartitionSize::MB2, "median {median}");
        assert!(
            d.size_samples.iter().any(|&s| s > PartitionSize::MB2),
            "footprint rule should expand for a 3 MB working set"
        );
    }

    #[test]
    fn secdcp_sensitive_domains_never_resize() {
        use crate::scheme::DomainTier;
        let mut config = RunnerConfig::test_scale(SchemeKind::SecDcp, 2);
        config.tiers = Some(vec![DomainTier::Public, DomainTier::Sensitive]);
        let report = Runner::new(config, vec![ws_source(4 << 20, 1), ws_source(4 << 20, 2)])
            .expect("runner")
            .run();
        // The public domain adapts; the sensitive one is pinned at 2 MB.
        assert!(report.domains[0].leakage.assessments > 0);
        assert_eq!(report.domains[1].leakage.assessments, 0);
        assert!(report.domains[1]
            .size_samples
            .iter()
            .all(|&s| s == PartitionSize::MB2));
        // SecDCP's tiered model charges nothing.
        assert_eq!(report.domains[0].leakage.total_bits, 0.0);
    }

    #[test]
    fn secdcp_defaults_to_all_sensitive_i_e_static() {
        // The paper's point (§10): with mutually-distrusting peers that
        // all handle secrets, SecDCP cannot resize anyone.
        let config = RunnerConfig::test_scale(SchemeKind::SecDcp, 1);
        let report = Runner::new(config, vec![ws_source(4 << 20, 1)])
            .expect("runner")
            .run();
        assert_eq!(report.domains[0].leakage.assessments, 0);
        assert!(report.domains[0].trace.is_empty());
    }

    #[test]
    fn untangle_decision_path_records_no_declassification() {
        use crate::taint::audit;
        let config = RunnerConfig::test_scale(SchemeKind::Untangle, 1);
        let (report, log) = audit::capture(|| {
            Runner::new(config, vec![ws_source(1 << 20, 1)])
                .expect("runner")
                .run()
        });
        assert!(report.domains[0].leakage.assessments > 0);
        assert!(
            log.is_clean(),
            "Untangle's default path must neither declassify nor trip the guard: {log:?}"
        );
    }

    #[test]
    fn time_decision_path_records_named_declassify_sites() {
        use crate::taint::audit;
        let config = RunnerConfig::test_scale(SchemeKind::Time, 1);
        let (report, log) = audit::capture(|| {
            Runner::new(config, vec![ws_source(1 << 20, 1)])
                .expect("runner")
                .run()
        });
        assert!(report.domains[0].leakage.assessments > 0);
        let sites_hit: Vec<_> = log.declassified.iter().map(|s| s.site).collect();
        assert!(sites_hit.contains(&sites::TIME_SCHEDULE_WALL_CLOCK));
        assert!(sites_hit.contains(&sites::CONVENTIONAL_METRIC));
        assert!(log.violations.is_empty());
    }

    #[test]
    fn untangle_all_seeing_override_records_the_override_site() {
        use crate::taint::audit;
        let mut config = RunnerConfig::test_scale(SchemeKind::Untangle, 1);
        config.metric_policy = Some(MetricPolicy::All);
        let (_, log) = audit::capture(|| {
            Runner::new(config, vec![ws_source(1 << 20, 1)])
                .expect("runner")
                .run()
        });
        let sites_hit: Vec<_> = log.declassified.iter().map(|s| s.site).collect();
        assert_eq!(sites_hit, vec![sites::METRIC_POLICY_OVERRIDE]);
    }

    #[test]
    fn tap_exports_every_schedule_fire_with_decision_inputs() {
        let config = RunnerConfig::test_scale(SchemeKind::Untangle, 1);
        let interval = config.params.progress_interval_instrs;
        let mut samples = Vec::new();
        let report = Runner::new(config, vec![ws_source(1 << 20, 1)])
            .expect("runner")
            .run_with_tap(|s| samples.push(s));
        // The tap fires on every schedule fire including pre-warmup
        // ones, so it sees at least the measured assessments.
        assert!(samples.len() as u64 >= report.domains[0].leakage.assessments);
        for s in &samples {
            assert_eq!(s.domain, 0);
            assert_eq!(s.progress_instrs, interval);
            assert!(s.footprint_bytes.is_none());
            // Untangle's public-only metric exports a public curve.
            assert!(s.hit_curve.expect("curve").public_value().is_some());
        }
        // Fires are strictly ordered in domain time.
        assert!(samples.windows(2).all(|w| w[0].cycles < w[1].cycles));
    }

    #[test]
    fn crypto_annotations_keep_untangle_trace_secret_independent() {
        // Same public benchmark interleaved with crypto whose secret
        // differs: Untangle's action sequences must be identical.
        let run = |secret: u64| {
            let crypto = CryptoModel::new(
                CryptoConfig {
                    secret,
                    secret_scales_footprint: true,
                    region_base: untangle_trace::LineAddr::new(1 << 40),
                    ..CryptoConfig::default()
                },
                11,
            );
            let public = WorkingSetModel::new(
                WorkingSetConfig {
                    working_set_bytes: 3 << 20,
                    ..WorkingSetConfig::default()
                },
                11,
            );
            let mix = untangle_trace::source::Interleave::new(crypto, 2_000, public, 20_000);
            let config = RunnerConfig::test_scale(SchemeKind::Untangle, 1);
            Runner::new(config, vec![Box::new(mix)])
                .expect("runner")
                .run()
                .domains[0]
                .trace
                .action_sequence()
        };
        assert_eq!(
            run(0),
            run(3),
            "action sequence must not depend on the secret"
        );
    }
}
