//! One admitted domain's decision pipeline.
//!
//! [`DomainDecider`] is the serve-side counterpart of one domain of the
//! batch `Runner`: [`Schedule`] → [`DecisionCore::decide`] (the budget
//! gate) → taint-guarded heuristic → [`DecisionCore::commit`], the same
//! core parts the batch driver runs. Decisions consult **only** this
//! domain's telemetry and its tenant quota — never another tenant's
//! demand — so a domain's decision trace is a pure function of its own
//! event subsequence. That per-domain purity is what makes traces
//! independent of shard count and event interleaving, and it is also
//! the multi-tenant isolation property: tenants cannot influence each
//! other's (attacker-visible) resizing actions.

use untangle_core::action::{Action, ActionClass, TraceEntry};
use untangle_core::decision::DecisionCore;
use untangle_core::heuristic::{self, HeuristicConfig};
use untangle_core::leakage::{
    AccountantState, AccountingMode, BudgetGate, LeakageAccountant, LeakageReport,
};
use untangle_core::schedule::{Schedule, SchedulePosition};
use untangle_core::scheme::DomainTier;
use untangle_core::taint::{sites, Labeled};
use untangle_core::{action::ResizingTrace, Label, UntangleError};
use untangle_obs as obs;
use untangle_obs::json::Json;
use untangle_sim::config::PartitionSize;
use untangle_sim::umon::HitCurve;
use untangle_trace::synth::TraceRng;

use crate::engine::ServeConfig;
use crate::event::{Admit, Event, ServeScheme, Telemetry};

/// One committed resizing decision, ready to serialize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// 0-based decision sequence number within the domain.
    pub seq: u64,
    /// The partition size the action selects.
    pub size: PartitionSize,
    /// Expand / Maintain / Shrink, relative to the pre-action logical
    /// size.
    pub class: ActionClass,
    /// The domain clock at the assessment.
    pub decided_at: f64,
    /// When the action becomes attacker-visible (decision cycle plus
    /// the random delay δ for visible actions).
    pub applied_at: f64,
}

/// What one telemetry event produced.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Outcome {
    /// A committed decision, if the schedule fired and the gate allowed
    /// recording one.
    pub decision: Option<Decision>,
    /// `true` exactly once per domain: the first time its leakage
    /// budget barred an assessment.
    pub first_exhaustion: bool,
}

/// The utilization payload of one telemetry event, extracted so it can
/// travel through the taint guards as a single [`Labeled`] value.
type Payload = (Option<HitCurve>, Option<u64>, usize);

/// One admitted domain's decision pipeline. Exclusively owned by the
/// shard the domain hashes to; nothing here is shared.
#[derive(Debug)]
pub struct DomainDecider {
    /// The admit event that created this domain, kept verbatim so a
    /// snapshot can re-derive the admission-time inputs (tenant, quota,
    /// scheme, credit, budget override) through the proven wire format.
    admit: Admit,
    heuristic: HeuristicConfig,
    schedule: Schedule,
    core: DecisionCore,
    decisions: u64,
    exhaustions: u64,
}

impl DomainDecider {
    /// Builds the pipeline for a freshly admitted domain.
    ///
    /// The schedule and the delay RNG come from the same core
    /// constructors the batch driver uses for domain `admit.domain`
    /// under base seed `config.seed`, so a 1-shard replay of a Runner
    /// telemetry tap fires and draws δ identically.
    ///
    /// # Errors
    ///
    /// A schedule interval the domain's scheme cannot run on
    /// ([`Schedule::check`]; [`crate::ServeEngine::new`] rejects such a
    /// configuration up front).
    pub fn new(
        admit: &Admit,
        config: &ServeConfig,
        accounting: AccountingMode,
    ) -> Result<Self, UntangleError> {
        let params = &config.params;
        Ok(Self {
            admit: admit.clone(),
            heuristic: params.heuristic,
            schedule: Self::schedule(admit, config)?,
            core: DecisionCore::new(
                LeakageAccountant::new(
                    accounting,
                    admit.budget_bits.or(params.leakage_budget_bits),
                ),
                config.initial_partition,
                params.delay_max_cycles,
                config.seed,
                admit.domain,
            ),
            decisions: 0,
            exhaustions: 0,
        })
    }

    /// The admitted scheme's schedule. Serve tenants are mutually
    /// distrusting peers, so every domain is in the sensitive tier.
    fn schedule(admit: &Admit, config: &ServeConfig) -> Result<Schedule, UntangleError> {
        Schedule::new(admit.scheme.kind(), DomainTier::Sensitive, &config.params)
    }

    /// The owning tenant.
    pub fn tenant(&self) -> &str {
        &self.admit.tenant
    }

    /// The domain's scheme.
    pub fn scheme(&self) -> ServeScheme {
        self.admit.scheme
    }

    /// Committed decisions so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Budget-barred assessments so far.
    pub fn exhaustions(&self) -> u64 {
        self.exhaustions
    }

    /// The decision trace recorded so far.
    pub fn trace(&self) -> &ResizingTrace {
        self.core.trace()
    }

    /// The accountant's running leakage report.
    pub fn leakage(&self) -> LeakageReport {
        self.core.report()
    }

    /// The current logical partition size.
    pub fn logical_size(&self) -> PartitionSize {
        self.core.logical_size()
    }

    /// Serializes every field that influences future decisions — the
    /// inverse of [`DomainDecider::restore`]. The admit event travels
    /// as its wire line (bit-exact round trip by the event-format
    /// tests); floats go through [`Json::Num`], whose render → parse
    /// cycle is bit-identical; the RNG state is hex because `u64`
    /// exceeds [`Json::Int`]'s `i64`.
    pub(crate) fn snapshot_json(&self) -> Json {
        let state = self.core.accountant().state();
        let mut acct = vec![
            ("total_bits", Json::Num(state.report.total_bits)),
            ("assessments", Json::Int(state.report.assessments as i64)),
            (
                "visible_actions",
                Json::Int(state.report.visible_actions as i64),
            ),
            ("maintains", Json::Int(state.report.maintains as i64)),
            (
                "consecutive_maintains",
                Json::Int(state.consecutive_maintains as i64),
            ),
            ("last_visible", Json::Num(state.last_visible_cycles)),
            ("last_assessment", Json::Num(state.last_assessment_cycles)),
            ("frozen", Json::Bool(state.frozen)),
        ];
        if let Some(budget) = self.core.accountant().budget_bits() {
            acct.push(("budget_bits", Json::Num(budget)));
        }
        let trace = Json::Arr(
            self.core
                .trace()
                .entries()
                .iter()
                .map(|e| {
                    Json::Arr(vec![
                        Json::Int(e.action.size.index() as i64),
                        Json::Str(e.class.name().to_string()),
                        Json::Num(e.decided_at_cycles),
                        Json::Num(e.applied_at_cycles),
                    ])
                })
                .collect(),
        );
        let mut fields = vec![
            (
                "admit",
                Json::Str(Event::Admit(self.admit.clone()).render()),
            ),
            ("decisions", Json::Int(self.decisions as i64)),
            ("exhaustions", Json::Int(self.exhaustions as i64)),
            (
                "logical_size",
                Json::Int(self.core.logical_size().index() as i64),
            ),
            ("rng", Json::Str(format!("{:016x}", self.core.rng_state()))),
            ("acct", Json::obj(acct)),
            ("trace", trace),
        ];
        if let Some((applies_at, size)) = self.core.pending() {
            fields.push((
                "pending",
                Json::Arr(vec![Json::Num(applies_at), Json::Int(size.index() as i64)]),
            ));
        }
        match self.schedule.position() {
            SchedulePosition::Never => {}
            SchedulePosition::NextAt(at) => fields.push(("time_next_at", Json::Num(at))),
            SchedulePosition::Counted(counted) => {
                fields.push(("prog_counted", Json::Int(counted as i64)));
            }
        }
        Json::obj(fields)
    }

    /// Rebuilds the pipeline from a [`DomainDecider::snapshot_json`]
    /// value. A restored decider commits byte-identical decisions for
    /// identical subsequent telemetry — the crash-recovery property the
    /// serve kill-point harness enforces end to end.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field. The
    /// snapshot arrives checksum-verified, so an error here means the
    /// payload was damaged in a way the checksum cannot see (an
    /// incompatible writer) and the caller must refuse, not guess.
    pub(crate) fn restore(
        admit: &Admit,
        config: &ServeConfig,
        accounting: AccountingMode,
        snap: &Json,
    ) -> Result<Self, String> {
        let params = &config.params;
        let acct = field(snap, "acct")?;
        let state = AccountantState {
            report: LeakageReport {
                total_bits: num(acct, "total_bits")?,
                assessments: count(acct, "assessments")?,
                visible_actions: count(acct, "visible_actions")?,
                maintains: count(acct, "maintains")?,
            },
            consecutive_maintains: count(acct, "consecutive_maintains")? as usize,
            last_visible_cycles: num(acct, "last_visible")?,
            last_assessment_cycles: num(acct, "last_assessment")?,
            frozen: field(acct, "frozen")?
                .as_bool()
                .ok_or_else(|| "field 'frozen' is not a bool".to_string())?,
        };
        let budget = match acct.get("budget_bits") {
            Some(v) => Some(
                v.as_f64()
                    .ok_or_else(|| "field 'budget_bits' is not a number".to_string())?,
            ),
            None => None,
        };

        let mut trace = ResizingTrace::new();
        for (i, entry) in field(snap, "trace")?
            .as_arr()
            .ok_or_else(|| "field 'trace' is not an array".to_string())?
            .iter()
            .enumerate()
        {
            let parts = entry
                .as_arr()
                .filter(|p| p.len() == 4)
                .ok_or_else(|| format!("trace entry {i} is not a 4-element array"))?;
            trace.push(TraceEntry {
                action: Action::set_size(size_from(&parts[0])?),
                class: parts[1]
                    .as_str()
                    .and_then(ActionClass::parse)
                    .ok_or_else(|| format!("trace entry {i} has an unknown action class"))?,
                decided_at_cycles: parts[2]
                    .as_f64()
                    .ok_or_else(|| format!("trace entry {i} has a non-numeric decision cycle"))?,
                applied_at_cycles: parts[3]
                    .as_f64()
                    .ok_or_else(|| format!("trace entry {i} has a non-numeric apply cycle"))?,
            });
        }

        let pending = match snap.get("pending") {
            Some(v) => {
                let parts = v
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| "field 'pending' is not a 2-element array".to_string())?;
                Some((
                    parts[0]
                        .as_f64()
                        .ok_or_else(|| "pending apply cycle is not a number".to_string())?,
                    size_from(&parts[1])?,
                ))
            }
            None => None,
        };
        let rng = field(snap, "rng")?
            .as_str()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| "field 'rng' is not a hex state".to_string())?;
        let mut schedule = Self::schedule(admit, config).map_err(|e| e.to_string())?;
        let position = match schedule.position() {
            SchedulePosition::Never => SchedulePosition::Never,
            SchedulePosition::NextAt(_) => SchedulePosition::NextAt(num(snap, "time_next_at")?),
            SchedulePosition::Counted(_) => SchedulePosition::Counted(count(snap, "prog_counted")?),
        };
        schedule.restore(position).map_err(|e| e.to_string())?;

        Ok(Self {
            admit: admit.clone(),
            heuristic: params.heuristic,
            schedule,
            core: DecisionCore::from_parts(
                LeakageAccountant::from_state(accounting, budget, state),
                trace,
                pending,
                size_from(field(snap, "logical_size")?)?,
                TraceRng::from_state(rng),
                params.delay_max_cycles,
            ),
            decisions: count(snap, "decisions")?,
            exhaustions: count(snap, "exhaustions")?,
        })
    }

    /// Externally charges `bits` against this domain's leakage budget —
    /// the fail-closed recovery path when a damaged WAL leaves the true
    /// charge for durably emitted decisions unknowable. Exceeding the
    /// budget freezes resizing through the normal gate.
    pub(crate) fn charge_external(&mut self, bits: f64) {
        self.core.charge_external(bits);
    }

    /// Ingests one telemetry event, possibly committing a decision.
    pub fn on_telemetry(&mut self, t: &Telemetry) -> Outcome {
        let now = t.cycles;
        // Collect a pending resize whose delay elapsed. The service has
        // no physical cache to apply it to — the client does that — but
        // the bookkeeping keeps the logical/physical split identical to
        // the batch driver's.
        let _ = self.core.take_due(now);

        // Client-reported cycle counts are wall-clock time: secret-
        // dependent by Edge ③ whatever the client claims. The schedule
        // labels them — and the public progress counts — exactly as in
        // the batch driver.
        if !self.schedule.on_progress(now, t.progress) {
            return Outcome::default();
        }

        let (gate, action) = self
            .core
            .decide(now, |current| Some(self.choose(t, current)));
        let mut first_exhaustion = false;
        if gate != BudgetGate::Proceed {
            // The tenant's leakage budget bars this payload from the
            // decision path: taint it and run it through the
            // mandatory-public guard, which must refuse. Fail-closed is
            // thus *enforced by the taint layer* — the refusal is
            // recorded as an audit violation at a named site — not by a
            // bypassable branch. Worst-case accounting then skips the
            // assessment; Maintain-optimized accounting records the
            // (invisible, unpaid) forced Maintain.
            let barred = Labeled::new(self.payload(t), Label::Secret);
            let refused = barred.require_public(sites::TENANT_BUDGET_EXHAUSTED);
            debug_assert!(refused.is_err(), "the guard refuses secret payloads");
            self.exhaustions += 1;
            first_exhaustion = self.exhaustions == 1;
            obs::counter_add("serve.budget_exhaustions", 1);
        }
        let Some(action) = action else {
            return Outcome {
                decision: None,
                first_exhaustion,
            };
        };

        let committed = self.core.commit(action, now);
        let seq = self.decisions;
        self.decisions += 1;
        obs::counter_add("serve.decisions", 1);
        Outcome {
            decision: Some(Decision {
                seq,
                size: action.size,
                class: committed.class,
                decided_at: now,
                applied_at: committed.applied_at_cycles,
            }),
            first_exhaustion,
        }
    }

    fn payload(&self, t: &Telemetry) -> Payload {
        (t.curve, t.footprint, t.fill)
    }

    /// The action for an assessment the budget lets proceed: the
    /// heuristic over this domain's labeled payload alone, with the
    /// tenant quota as the capacity horizon (the batch driver's LLC
    /// size, per tenant). Free capacity is the quota minus the logical
    /// size — decided-but-pending actions already own their bytes.
    fn choose(&self, t: &Telemetry, current: PartitionSize) -> Action {
        let label = if t.tainted {
            Label::Secret
        } else {
            Label::Public
        };
        let labeled = Labeled::new(self.payload(t), label);
        let payload = match self.admit.scheme {
            // The conventional scheme consumes its (timing-entangled)
            // metric by declassifying it — the same audited edge the
            // batch driver crosses.
            ServeScheme::Time => Some(labeled.declassify(sites::CONVENTIONAL_METRIC)),
            // Untangle's ingest is public-only: tainted utilization is
            // refused fail-closed and the assessment degrades to a
            // Maintain.
            _ => labeled.require_public(sites::SERVE_TELEMETRY_INPUT).ok(),
        };
        let Some((curve, footprint, fill)) = payload else {
            return Action::set_size(current);
        };
        let quota_bytes = self.admit.quota_mb << 20;
        let free = quota_bytes.saturating_sub(current.bytes());
        if let Some(curve) = curve {
            heuristic::decide_global(
                &[curve],
                0,
                fill,
                current,
                free,
                quota_bytes,
                &self.heuristic,
            )
        } else if let Some(bytes) = footprint {
            heuristic::decide_by_footprint(bytes, fill, current, free, &self.heuristic)
        } else {
            // No utilization payload at the assessment point: nothing
            // justifies a visible action.
            Action::set_size(current)
        }
    }
}

/// A required snapshot field, or a diagnostic naming it.
fn field<'a>(snap: &'a Json, key: &str) -> Result<&'a Json, String> {
    snap.get(key)
        .ok_or_else(|| format!("missing field '{key}'"))
}

/// A required numeric field (integers widen to `f64`).
fn num(snap: &Json, key: &str) -> Result<f64, String> {
    field(snap, key)?
        .as_f64()
        .ok_or_else(|| format!("field '{key}' is not a number"))
}

/// A required non-negative integer field.
fn count(snap: &Json, key: &str) -> Result<u64, String> {
    field(snap, key)?
        .as_i64()
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| format!("field '{key}' is not a non-negative integer"))
}

/// A partition size from its [`PartitionSize::ALL`] index.
fn size_from(value: &Json) -> Result<PartitionSize, String> {
    value
        .as_i64()
        .and_then(|i| usize::try_from(i).ok())
        .and_then(PartitionSize::from_index)
        .ok_or_else(|| format!("{} is not a partition size index", value.render()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use untangle_core::scheme::SchemeKind;
    use untangle_core::taint::audit;

    fn admit(scheme: ServeScheme, budget: Option<f64>) -> Admit {
        Admit {
            domain: 1,
            tenant: "t".to_string(),
            scheme,
            quota_mb: 16,
            budget_bits: budget,
            credit: None,
        }
    }

    fn config() -> ServeConfig {
        ServeConfig::test_scale()
    }

    fn telemetry(cycles: f64, progress: u64, curve_top: u64) -> Telemetry {
        let mut curve = [0u64; PartitionSize::COUNT];
        for (i, slot) in curve.iter_mut().enumerate() {
            *slot = curve_top * (i as u64 + 1) / PartitionSize::COUNT as u64;
        }
        Telemetry {
            domain: 1,
            cycles,
            progress,
            fill: 2048,
            curve: Some(curve),
            footprint: None,
            tainted: false,
        }
    }

    /// The accounting model of a `kind` domain under [`config`].
    fn accounting(kind: SchemeKind) -> AccountingMode {
        let cfg = config();
        cfg.params
            .accounting(kind, cfg.commit_width)
            .expect("flat models solve nothing")
    }

    /// `log2 |A|` bits per assessment.
    fn conventional() -> AccountingMode {
        accounting(SchemeKind::Time)
    }

    /// No charge at all.
    fn free() -> AccountingMode {
        accounting(SchemeKind::Static)
    }

    fn decider(admit: &Admit, accounting: AccountingMode) -> DomainDecider {
        DomainDecider::new(admit, &config(), accounting).expect("valid config")
    }

    #[test]
    fn untangle_domain_assesses_on_the_progress_interval() {
        let cfg = config();
        let interval = cfg.params.progress_interval_instrs;
        let mut d = decider(&admit(ServeScheme::Untangle, None), free());
        // Half an interval: idle. The second half completes it.
        let out = d.on_telemetry(&telemetry(1_000.0, interval / 2, 9_000));
        assert_eq!(out.decision, None);
        let out = d.on_telemetry(&telemetry(2_000.0, interval / 2, 9_000));
        let dec = out.decision.expect("assessment fires on the interval");
        assert_eq!(dec.seq, 0);
        assert_eq!(dec.decided_at, 2_000.0);
        assert_eq!(d.decisions(), 1);
        // A hungry curve against a 16 MiB quota expands.
        assert_eq!(dec.class, ActionClass::Expand);
        assert!(dec.applied_at >= dec.decided_at);
    }

    #[test]
    fn static_domains_never_decide() {
        let mut d = decider(&admit(ServeScheme::Static, None), free());
        for i in 1..20u64 {
            let out = d.on_telemetry(&telemetry(i as f64 * 100_000.0, 1 << 20, 9_000));
            assert_eq!(out, Outcome::default());
        }
        assert!(d.trace().is_empty());
    }

    #[test]
    fn tainted_telemetry_fails_closed_to_maintain() {
        let cfg = config();
        let interval = cfg.params.progress_interval_instrs;
        let mut d = decider(&admit(ServeScheme::Untangle, None), free());
        let mut t = telemetry(5_000.0, interval, 9_000);
        t.tainted = true;
        let (out, log) = audit::capture(|| d.on_telemetry(&t));
        // The assessment happens (progress is public), but the tainted
        // payload is refused and the decision degrades to Maintain.
        let dec = out.decision.expect("assessment still fires");
        assert_eq!(dec.class, ActionClass::Maintain);
        assert!(log.declassified.is_empty());
        assert_eq!(log.violations.len(), 1);
        assert_eq!(log.violations[0].site, sites::SERVE_TELEMETRY_INPUT);
    }

    #[test]
    fn exhausted_budget_fails_closed_through_the_taint_guard() {
        let cfg = config();
        let interval = cfg.params.progress_interval_instrs;
        // log2(9) ≈ 3.17 bits per assessment; a 4-bit budget allows one.
        let mut d = decider(&admit(ServeScheme::Untangle, Some(4.0)), conventional());
        let ((), log) = audit::capture(|| {
            for i in 1..=6u64 {
                let _ = d.on_telemetry(&telemetry(i as f64 * 10_000.0, interval, 9_000));
            }
        });
        assert!(d.exhaustions() > 0, "budget must exhaust");
        // PerAssessment exhaustion skips recording: exactly the paid
        // assessments are in the report, and the budget holds.
        assert!(d.leakage().total_bits <= 4.0 + 1e-9);
        // The refusals are audited at the named site — the proof that
        // the fail-closed path went through the taint layer.
        let site = log
            .violations
            .iter()
            .find(|s| s.site == sites::TENANT_BUDGET_EXHAUSTED)
            .expect("budget refusals are recorded violations");
        assert_eq!(site.hits, d.exhaustions());
        assert!(log.declassified.is_empty());
    }

    #[test]
    fn time_domain_declassifies_clock_and_metric() {
        let cfg = config();
        let interval = cfg.params.time_interval_cycles;
        let mut d = decider(&admit(ServeScheme::Time, None), conventional());
        // A conventional client's all-seeing metric is secret-influenced,
        // so its payloads arrive tainted; the Time scheme consumes them
        // anyway by declassifying at the audited site.
        let mut t = telemetry(interval + 1.0, 0, 9_000);
        t.tainted = true;
        let (out, log) = audit::capture(|| d.on_telemetry(&t));
        assert!(out.decision.is_some());
        let sites_hit: Vec<_> = log.declassified.iter().map(|s| s.site).collect();
        assert!(sites_hit.contains(&sites::TIME_SCHEDULE_WALL_CLOCK));
        assert!(sites_hit.contains(&sites::CONVENTIONAL_METRIC));
        assert!(log.violations.is_empty());
    }

    #[test]
    fn snapshot_restore_roundtrip_continues_byte_identically() {
        let cfg = config();
        let interval = cfg.params.progress_interval_instrs;
        let a = admit(ServeScheme::Untangle, Some(40.0));
        let accounting = conventional();
        let mut live = decider(&a, accounting.clone());
        // A prefix that leaves rich state behind: trace entries, a
        // pending delayed action, advanced RNG, partial progress.
        for i in 1..=5u64 {
            let _ = live.on_telemetry(&telemetry(i as f64 * 10_000.0, interval, 9_000));
        }
        let _ = live.on_telemetry(&telemetry(60_000.0, interval / 2, 9_000));

        let snap = live.snapshot_json();
        // Snapshots survive their own serialization (the slot stores
        // rendered bytes).
        let parsed = Json::parse(&snap.render()).expect("snapshot renders as valid JSON");
        let mut restored = DomainDecider::restore(&a, &cfg, accounting, &parsed).expect("restore");
        assert_eq!(restored.snapshot_json().render(), snap.render());

        // Identical future telemetry must produce identical decisions.
        for i in 7..=12u64 {
            let t = telemetry(i as f64 * 10_000.0, interval, 9_000 - i * 400);
            assert_eq!(
                restored.on_telemetry(&t),
                live.on_telemetry(&t),
                "event {i}"
            );
        }
        assert_eq!(restored.trace(), live.trace());
        assert_eq!(restored.leakage(), live.leakage());
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        let cfg = config();
        let a = admit(ServeScheme::Untangle, None);
        let snap = decider(&a, conventional()).snapshot_json();
        for key in ["rng", "trace", "acct", "decisions", "prog_counted"] {
            let Json::Obj(fields) = &snap else {
                panic!("snapshot is an object")
            };
            let broken = Json::Obj(fields.iter().filter(|(k, _)| k != key).cloned().collect());
            let err = DomainDecider::restore(&a, &cfg, conventional(), &broken)
                .expect_err("missing field must be rejected");
            assert!(err.contains(key), "error {err:?} should name '{key}'");
        }
    }

    #[test]
    fn footprint_payload_drives_the_footprint_rule() {
        let cfg = config();
        let interval = cfg.params.progress_interval_instrs;
        let mut d = decider(&admit(ServeScheme::Untangle, None), free());
        let t = Telemetry {
            domain: 1,
            cycles: 9_000.0,
            progress: interval,
            fill: 2048,
            curve: None,
            footprint: Some(6 << 20),
            tainted: false,
        };
        let dec = d.on_telemetry(&t).decision.expect("fires");
        // A 6 MiB footprint with 1.25 headroom wants 8 MiB: expand.
        assert_eq!(dec.class, ActionClass::Expand);
        assert_eq!(dec.size, PartitionSize::MB8);
    }
}
