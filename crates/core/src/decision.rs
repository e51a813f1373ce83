//! The reusable per-domain decision step: everything one security
//! domain's resizing pipeline owns *after* an action has been chosen
//! and *around* choosing one.
//!
//! The batch [`crate::runner`] and the serve daemon build every domain's
//! pipeline from the same core parts, so a domain decides identically
//! under either driver:
//!
//! * [`crate::schedule::Schedule`] — the scheme's schedule, with its
//!   interval check and the taint labels of its inputs;
//! * [`crate::scheme::SchemeParams::accounting`] — the scheme's leakage
//!   accounting model;
//! * [`DecisionCore`] — the per-domain delay-RNG seed, the budget gate,
//!   and the commit step.
//!
//! Bit-identical behaviour is load-bearing: the serve acceptance
//! criterion replays a telemetry stream through the batch `Runner` and
//! through a 1-shard service and compares decision traces byte for
//! byte.
//!
//! A `DecisionCore` deliberately does **not** choose actions (that is
//! the caller's heuristic, which may consult global state such as every
//! domain's hit curve) and does not apply them to a cache model (the
//! caller owns the `System` or serve-side bookkeeping). Its contract:
//!
//! 1. [`DecisionCore::decide`] — ask the leakage accountant whether an
//!    assessment is skipped, must degrade to a forced Maintain, or may
//!    proceed to the caller's heuristic.
//! 2. [`DecisionCore::commit`] — classify the chosen action against the
//!    *logical* size, charge the accountant, draw the delay for visible
//!    actions, record the trace entry, and schedule the pending switch.
//! 3. [`DecisionCore::take_due`] — on later steps, collect a pending
//!    resize whose delay has elapsed so the caller can apply it
//!    physically.

use crate::action::{Action, ActionClass, ResizingTrace, TraceEntry};
use crate::leakage::{BudgetGate, LeakageAccountant, LeakageReport};
use untangle_sim::config::PartitionSize;
use untangle_trace::synth::TraceRng;

/// What [`DecisionCore::commit`] recorded for one assessment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommittedDecision {
    /// Expand / Maintain / Shrink relative to the pre-action logical
    /// size.
    pub class: ActionClass,
    /// The cycle at which the action becomes attacker-visible (decision
    /// cycle plus the random delay δ for visible actions; the decision
    /// cycle itself for Maintains).
    pub applied_at_cycles: f64,
}

/// Per-domain decision state: leakage accountant, resizing trace,
/// pending delayed action, logical partition size, and the delay RNG.
///
/// See the module docs for the step contract. One core is exclusively
/// owned by one domain's driver (the batch `Runner` or one serve
/// shard); nothing here is shared.
#[derive(Debug)]
pub struct DecisionCore {
    accountant: LeakageAccountant,
    trace: ResizingTrace,
    /// A decided visible action waiting out its random delay.
    pending: Option<(f64, PartitionSize)>,
    /// The size selected by the most recent decided action. Decisions
    /// and leakage classification use this *logical* size, never the
    /// physical one: a pending action's random delay δ must only move
    /// the attacker-observable switch, not re-entangle the next
    /// decision with program timing (Fig. 6).
    logical_size: PartitionSize,
    rng: TraceRng,
    delay_max_cycles: u64,
}

impl DecisionCore {
    /// Builds the core of domain `domain` under base seed `seed`,
    /// starting at `initial_size` with an empty trace.
    ///
    /// The random action delay δ is uniform over `[0, delay_max_cycles)`
    /// for visible actions (zero when `delay_max_cycles == 0`), drawn
    /// from a per-domain stream seeded with `seed + domain`, mixed: a
    /// serve domain and the batch domain with the same seed and index
    /// draw the identical δ sequence.
    pub fn new(
        accountant: LeakageAccountant,
        initial_size: PartitionSize,
        delay_max_cycles: u64,
        seed: u64,
        domain: u64,
    ) -> Self {
        Self {
            accountant,
            trace: ResizingTrace::new(),
            pending: None,
            logical_size: initial_size,
            rng: TraceRng::new(seed.wrapping_add(domain).wrapping_mul(0x9e37)),
            delay_max_cycles,
        }
    }

    /// Rebuilds a core mid-stream from captured state — the
    /// crash-recovery constructor. Every field that influences future
    /// behaviour travels explicitly: the accountant (restored via
    /// [`LeakageAccountant::from_state`]), the recorded trace, the
    /// pending delayed action, the logical size, and the delay RNG at
    /// its exact draw position ([`TraceRng::from_state`]). A core
    /// restored from a snapshot of itself commits byte-identical
    /// decisions for the identical subsequent inputs.
    pub fn from_parts(
        accountant: LeakageAccountant,
        trace: ResizingTrace,
        pending: Option<(f64, PartitionSize)>,
        logical_size: PartitionSize,
        rng: TraceRng,
        delay_max_cycles: u64,
    ) -> Self {
        Self {
            accountant,
            trace,
            pending,
            logical_size,
            rng,
            delay_max_cycles,
        }
    }

    /// The pending visible action (apply-at cycle and size), if any.
    pub fn pending(&self) -> Option<(f64, PartitionSize)> {
        self.pending
    }

    /// The delay RNG's raw state (see [`TraceRng::state`]).
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// The configured maximum random action delay in cycles.
    pub fn delay_max_cycles(&self) -> u64 {
        self.delay_max_cycles
    }

    /// The leakage accountant (read-only; for snapshotting its state).
    pub fn accountant(&self) -> &LeakageAccountant {
        &self.accountant
    }

    /// Charges `bits` against the budget outside any assessment — the
    /// fail-closed crash-recovery rule; see
    /// [`LeakageAccountant::charge_external`].
    pub fn charge_external(&mut self, bits: f64) {
        self.accountant.charge_external(bits);
    }

    /// The logical partition size: the size selected by the most recent
    /// decided action, whether or not it has been applied physically.
    pub fn logical_size(&self) -> PartitionSize {
        self.logical_size
    }

    /// The resizing trace recorded so far.
    pub fn trace(&self) -> &ResizingTrace {
        &self.trace
    }

    /// The accountant's running leakage report.
    pub fn report(&self) -> LeakageReport {
        self.accountant.report()
    }

    /// The budget-gated action of one assessment at `now`, for
    /// [`DecisionCore::commit`]: none under [`BudgetGate::Skip`], a
    /// forced Maintain under [`BudgetGate::MaintainOnly`], and under
    /// [`BudgetGate::Proceed`] whatever `choose(logical_size)` picks —
    /// so a barred assessment never inspects its metric. The gate comes
    /// back too, for drivers that account for barred assessments.
    pub fn decide(
        &self,
        now: f64,
        choose: impl FnOnce(PartitionSize) -> Option<Action>,
    ) -> (BudgetGate, Option<Action>) {
        let gate = self.accountant.gate(now);
        let action = match gate {
            BudgetGate::Skip => None,
            BudgetGate::MaintainOnly => Some(Action::set_size(self.logical_size)),
            BudgetGate::Proceed => choose(self.logical_size),
        };
        (gate, action)
    }

    /// Collects a pending resize whose delay has elapsed by `now`, if
    /// any, clearing it. The caller applies the returned size to the
    /// physical cache model.
    pub fn take_due(&mut self, now: f64) -> Option<PartitionSize> {
        match self.pending {
            Some((apply_at, size)) if now >= apply_at => {
                self.pending = None;
                Some(size)
            }
            _ => None,
        }
    }

    /// Records one decided assessment at cycle `now`.
    ///
    /// Classifies `action` against the logical size, charges the
    /// accountant, draws the random delay δ for visible actions (one
    /// RNG draw, taken only when the action is visible and a delay is
    /// configured — the draw order is part of the bit-identical
    /// contract), pushes the trace entry, and for visible actions
    /// advances the logical size and schedules the pending physical
    /// switch.
    pub fn commit(&mut self, action: Action, now: f64) -> CommittedDecision {
        let current = self.logical_size;
        let class = action.classify(current);
        self.accountant.on_assessment(class, now);

        let applied_at = if class.is_visible() {
            let delay = if self.delay_max_cycles > 0 {
                self.rng.below(self.delay_max_cycles) as f64
            } else {
                0.0
            };
            now + delay
        } else {
            now
        };
        self.trace.push(TraceEntry {
            action,
            class,
            decided_at_cycles: now,
            applied_at_cycles: applied_at,
        });

        if class.is_visible() {
            self.logical_size = action.size;
            self.pending = Some((applied_at, action.size));
        }
        CommittedDecision {
            class,
            applied_at_cycles: applied_at,
        }
    }

    /// Resets the measurement counters at the warmup boundary: the
    /// accountant's report (counters *and* accumulated charge — the
    /// leakage budget governs the measured phase, per the §8 protocol)
    /// and the trace restart, while the accountant's freeze flag and
    /// time anchors, pending action, logical size, and RNG stream
    /// carry over (the
    /// protocol measures post-warmup behaviour of a warmed-up pipeline,
    /// not a fresh one).
    pub fn reset_measurement(&mut self) {
        self.accountant.reset_counters();
        self.trace = ResizingTrace::new();
    }

    /// Consumes the core into its final trace and leakage report.
    pub fn into_results(self) -> (ResizingTrace, LeakageReport) {
        let report = self.accountant.report();
        (self.trace, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leakage::AccountingMode;

    /// The budget gate at `now`, without a heuristic.
    fn gate(c: &DecisionCore, now: f64) -> BudgetGate {
        c.decide(now, |_| None).0
    }

    fn core(budget: Option<f64>, delay_max: u64) -> DecisionCore {
        DecisionCore::new(
            LeakageAccountant::new(AccountingMode::PerAssessment { bits: 1.0 }, budget),
            PartitionSize::MB2,
            delay_max,
            7,
            0,
        )
    }

    #[test]
    fn maintain_applies_immediately_without_an_rng_draw() {
        let mut a = core(None, 1_000);
        let mut b = core(None, 1_000);
        let m = a.commit(Action::set_size(PartitionSize::MB2), 10.0);
        assert_eq!(m.class, ActionClass::Maintain);
        assert_eq!(m.applied_at_cycles, 10.0);
        assert_eq!(a.take_due(10.0), None, "maintains never pend");
        // The RNG stream was not advanced: a visible action decided next
        // draws the same delay as one decided first.
        let va = a.commit(Action::set_size(PartitionSize::MB4), 20.0);
        let vb = b.commit(Action::set_size(PartitionSize::MB4), 20.0);
        assert_eq!(va.applied_at_cycles, vb.applied_at_cycles);
    }

    #[test]
    fn visible_actions_advance_logical_size_and_pend() {
        let mut c = core(None, 100);
        let v = c.commit(Action::set_size(PartitionSize::MB4), 50.0);
        assert!(v.class.is_visible());
        assert!(v.applied_at_cycles >= 50.0 && v.applied_at_cycles < 150.0);
        // Logical size moves immediately; the physical switch waits.
        assert_eq!(c.logical_size(), PartitionSize::MB4);
        assert_eq!(c.take_due(v.applied_at_cycles - 1.0), None);
        assert_eq!(c.take_due(v.applied_at_cycles), Some(PartitionSize::MB4));
        assert_eq!(c.take_due(v.applied_at_cycles), None, "taken once");
    }

    #[test]
    fn zero_delay_applies_at_the_decision_cycle() {
        let mut c = core(None, 0);
        let v = c.commit(Action::set_size(PartitionSize::MB1), 5.0);
        assert_eq!(v.applied_at_cycles, 5.0);
    }

    #[test]
    fn budget_gate_and_freeze_are_exposed() {
        let mut c = core(Some(2.0), 0);
        assert_eq!(gate(&c, 0.0), BudgetGate::Proceed);
        let _ = c.commit(Action::set_size(PartitionSize::MB4), 1.0);
        let _ = c.commit(Action::set_size(PartitionSize::MB2), 2.0);
        // 2 bits charged against a 2-bit budget: the next gate refuses.
        assert_ne!(gate(&c, 3.0), BudgetGate::Proceed);
    }

    #[test]
    fn reset_measurement_clears_trace_and_charge() {
        let mut c = core(Some(2.0), 0);
        let _ = c.commit(Action::set_size(PartitionSize::MB4), 1.0);
        let _ = c.commit(Action::set_size(PartitionSize::MB2), 2.0);
        assert_ne!(gate(&c, 3.0), BudgetGate::Proceed, "budget spent");
        c.reset_measurement();
        assert!(c.trace().is_empty());
        assert_eq!(c.report().assessments, 0);
        assert_eq!(c.report().total_bits, 0.0);
        // A freeze is sticky across the reset: security-preserving
        // state never relaxes at a measurement boundary.
        assert_eq!(gate(&c, 3.0), BudgetGate::Skip);
        assert!(c.accountant().is_frozen());
        // Logical size carried over across the reset.
        assert_eq!(c.logical_size(), PartitionSize::MB2);
    }

    #[test]
    fn from_parts_continues_bit_identically() {
        // Drive a core through a mixed history, snapshot every piece of
        // its state, rebuild, and drive both onward: traces, reports,
        // pendings, and RNG draws must stay identical.
        let mut original = core(Some(10.0), 1_000);
        let script = [
            (PartitionSize::MB4, 10.0),
            (PartitionSize::MB4, 20.0),
            (PartitionSize::MB8, 30.0),
        ];
        for (size, now) in script {
            let _ = original.commit(Action::set_size(size), now);
        }
        let mut restored = DecisionCore::from_parts(
            LeakageAccountant::from_state(
                AccountingMode::PerAssessment { bits: 1.0 },
                Some(10.0),
                original.accountant().state(),
            ),
            original.trace().entries().iter().copied().collect(),
            original.pending(),
            original.logical_size(),
            untangle_trace::synth::TraceRng::from_state(original.rng_state()),
            original.delay_max_cycles(),
        );
        for (size, now) in [(PartitionSize::MB1, 40.0), (PartitionSize::MB2, 50.0)] {
            let a = original.commit(Action::set_size(size), now);
            let b = restored.commit(Action::set_size(size), now);
            assert_eq!(a, b);
        }
        assert_eq!(original.trace().entries(), restored.trace().entries());
        assert_eq!(original.report(), restored.report());
        assert_eq!(original.pending(), restored.pending());
        assert_eq!(original.rng_state(), restored.rng_state());
    }

    #[test]
    fn the_delay_stream_is_seeded_by_seed_plus_domain() {
        let acct = || LeakageAccountant::new(AccountingMode::PerAssessment { bits: 0.0 }, None);
        let a = DecisionCore::new(acct(), PartitionSize::MB2, 1_000, 42, 1);
        let b = DecisionCore::new(acct(), PartitionSize::MB2, 1_000, 43, 0);
        let c = DecisionCore::new(acct(), PartitionSize::MB2, 1_000, 42, 2);
        assert_eq!(a.rng_state(), b.rng_state());
        assert_ne!(a.rng_state(), c.rng_state());
    }

    #[test]
    fn decide_consults_the_heuristic_only_when_the_gate_proceeds() {
        let grow = |current: PartitionSize| current.next_up().map(Action::set_size);
        let mut c = core(Some(2.0), 0);
        assert_eq!(
            c.decide(1.0, grow),
            (
                BudgetGate::Proceed,
                Some(Action::set_size(PartitionSize::MB3))
            )
        );
        let _ = c.commit(Action::set_size(PartitionSize::MB3), 1.0);
        let _ = c.commit(Action::set_size(PartitionSize::MB2), 2.0);
        // Spent flat budget: skipped, and the heuristic never runs.
        let (gate, action) = c.decide(3.0, |_| unreachable!("a skipped assessment chooses"));
        assert_eq!((gate, action), (BudgetGate::Skip, None));
    }

    #[test]
    fn decide_forces_a_maintain_when_only_maintains_are_affordable() {
        use untangle_info::rate_table::RateTableConfig;
        use untangle_info::{DelayDist, RateTable};
        let table = RateTable::precompute(&RateTableConfig {
            cooldown: 4,
            n_symbols: 4,
            step: 1,
            delay: DelayDist::uniform(4).unwrap(),
            max_maintains: 4,
        })
        .unwrap();
        let mode = AccountingMode::RateTable {
            table,
            cycles_per_unit: 100.0,
            cooldown_units: 4.0,
            delay_units: 4.0,
            optimized: true,
        };
        let c = DecisionCore::new(
            LeakageAccountant::new(mode, Some(0.2)),
            PartitionSize::MB4,
            0,
            7,
            0,
        );
        let (gate, action) = c.decide(100_000.0, |_| unreachable!("a barred assessment chooses"));
        assert_eq!(gate, BudgetGate::MaintainOnly);
        assert_eq!(action, Some(Action::set_size(PartitionSize::MB4)));
    }

    #[test]
    fn into_results_returns_trace_and_report() {
        let mut c = core(None, 0);
        let _ = c.commit(Action::set_size(PartitionSize::MB4), 1.0);
        let (trace, report) = c.into_results();
        assert_eq!(trace.len(), 1);
        assert_eq!(report.assessments, 1);
    }
}
