//! Runtime leakage accounting (§3.3, §5.3.4, §7, Table 6).
//!
//! Two accounting models are implemented:
//!
//! * **Per-assessment log** — the conventional bound of §3.3: every
//!   assessment can pick any of `|A|` actions, so it is charged
//!   `log2 |A|` bits (3.17 bits for the paper's nine actions). This is
//!   what the Time scheme pays.
//! * **Rate-table** — Untangle's model. Action leakage is zero by
//!   construction (Principles 1–2 plus annotations eliminate it, §5.2),
//!   so only scheduling leakage is charged: each attacker-visible action
//!   pays `R_max(m) × Δt`, where `m` is the number of consecutive
//!   Maintains since the last visible action, `Δt` the elapsed time, and
//!   `R_max(m)` the precomputed certified channel rate of §5.3.4. The
//!   *worst-case* variant (`optimized = false`) charges every assessment
//!   at `R_max(0)` as if it were visible — the §9 active-attacker
//!   scenario.
//!
//! A [`LeakageAccountant`] optionally enforces a leakage budget: once
//! the accumulated bits reach the threshold, the accountant reports
//! itself frozen and the scheme must stop resizing (§4: performance may
//! suffer, security may not).

use crate::action::ActionClass;
use untangle_info::RateTable;

/// What the leakage budget permits at an assessment point (§4: when the
/// threshold is reached, the victim may not perform further resizings —
/// the guarantee is *never exceed*, so the gate runs before charging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetGate {
    /// Budget headroom for any outcome: assess normally.
    Proceed,
    /// A visible action would bust the budget, but Maintains are free:
    /// the scheme must maintain.
    MaintainOnly,
    /// Even recording the assessment would bust the budget: skip it.
    Skip,
}

/// Which accounting model to charge under.
#[derive(Debug, Clone)]
pub enum AccountingMode {
    /// Charge a constant number of bits at every assessment
    /// (`log2 |A|` for the conventional scheme).
    PerAssessment {
        /// Bits charged per assessment.
        bits: f64,
    },
    /// Charge visible actions from a precomputed `R_max` table.
    ///
    /// Each visible action is one covert-channel transmission. Two sound
    /// bounds apply and the smaller is charged:
    ///
    /// 1. the sustained-rate bound `R_max(m) × Δt` (Appendix A);
    /// 2. the per-transmission bound: one transmission of observed
    ///    duration `Δt` over a channel with minimum duration
    ///    `(m+1)·T_c` and delay noise of width `w` distinguishes at most
    ///    `(Δt − (m+1)T_c + 2w)/w` durations, so it carries at most the
    ///    log of that count (Eq. A.10 applied to a single symbol).
    RateTable {
        /// Certified rates per consecutive-Maintain count.
        table: RateTable,
        /// Cycles per rate-table time unit (the attacker's measurement
        /// resolution).
        cycles_per_unit: f64,
        /// One cooldown period `T_c` in rate-table units.
        cooldown_units: f64,
        /// Width of the random action delay δ in rate-table units.
        delay_units: f64,
        /// `true` = §5.3.4 Maintain optimization; `false` = worst case
        /// (every assessment charged as visible at `R_max(0)`).
        optimized: bool,
    },
}

/// The smaller of the sustained-rate and per-transmission bounds for
/// one visible action, in bits.
fn transmission_bits(
    table: &RateTable,
    maintains: usize,
    dt_units: f64,
    cooldown_units: f64,
    delay_units: f64,
) -> f64 {
    let rate_bound = table.rate(maintains) * dt_units;
    let effective_cooldown = (maintains as f64 + 1.0) * cooldown_units;
    let span = (dt_units - effective_cooldown).max(0.0);
    let noise = delay_units.max(1.0);
    let per_tx_bound = ((span + 2.0 * noise) / noise).max(1.0).log2();
    rate_bound.min(per_tx_bound).max(0.0)
}

/// Summary of a domain's accumulated leakage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LeakageReport {
    /// Total bits charged.
    pub total_bits: f64,
    /// Assessments performed.
    pub assessments: u64,
    /// Attacker-visible actions among them.
    pub visible_actions: u64,
    /// Maintain decisions among them.
    pub maintains: u64,
}

impl LeakageReport {
    /// Average bits charged per assessment — the paper's headline metric
    /// (Fig. 10 middle rows, Table 6).
    pub fn bits_per_assessment(&self) -> f64 {
        if self.assessments == 0 {
            0.0
        } else {
            self.total_bits / self.assessments as f64
        }
    }

    /// Fraction of assessments that chose Maintain.
    pub fn maintain_fraction(&self) -> f64 {
        if self.assessments == 0 {
            0.0
        } else {
            self.maintains as f64 / self.assessments as f64
        }
    }
}

/// The accountant's complete mutable state, exposed for
/// snapshot/restore ([`LeakageAccountant::state`] /
/// [`LeakageAccountant::from_state`]). The accounting mode and budget
/// are configuration, not state, and travel separately: a restored
/// daemon re-derives them from the admit record, so a snapshot cannot
/// smuggle in a laxer budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccountantState {
    /// The accumulated report (total bits, assessment counters).
    pub report: LeakageReport,
    /// Consecutive Maintains since the last visible action.
    pub consecutive_maintains: usize,
    /// Cycle of the last visible action (rate anchor, optimized mode).
    pub last_visible_cycles: f64,
    /// Cycle of the last assessment (rate anchor, worst-case mode).
    pub last_assessment_cycles: f64,
    /// Whether the budget froze further resizing.
    pub frozen: bool,
}

/// Accumulates leakage charges for one domain and enforces the budget.
#[derive(Debug, Clone)]
pub struct LeakageAccountant {
    mode: AccountingMode,
    budget_bits: Option<f64>,
    report: LeakageReport,
    consecutive_maintains: usize,
    last_visible_cycles: f64,
    last_assessment_cycles: f64,
    frozen: bool,
}

impl LeakageAccountant {
    /// Creates an accountant starting at cycle 0 with no charges.
    pub fn new(mode: AccountingMode, budget_bits: Option<f64>) -> Self {
        Self::with_initial_charge(mode, budget_bits, 0.0)
    }

    /// Creates an accountant that has already spent `charged_bits` of
    /// its budget — the §6.2 replay-attack defence, where the operating
    /// system accumulates a victim program's leakage across runs and
    /// the budget survives restarts.
    pub fn with_initial_charge(
        mode: AccountingMode,
        budget_bits: Option<f64>,
        charged_bits: f64,
    ) -> Self {
        let mut acct = Self {
            mode,
            budget_bits,
            report: LeakageReport {
                total_bits: charged_bits,
                ..LeakageReport::default()
            },
            consecutive_maintains: 0,
            last_visible_cycles: 0.0,
            last_assessment_cycles: 0.0,
            frozen: false,
        };
        if let Some(budget) = budget_bits {
            if charged_bits >= budget {
                acct.frozen = true;
            }
        }
        acct
    }

    /// Captures the accountant's complete mutable state for a
    /// snapshot.
    pub fn state(&self) -> AccountantState {
        AccountantState {
            report: self.report,
            consecutive_maintains: self.consecutive_maintains,
            last_visible_cycles: self.last_visible_cycles,
            last_assessment_cycles: self.last_assessment_cycles,
            frozen: self.frozen,
        }
    }

    /// Rebuilds an accountant from configuration plus a captured
    /// [`AccountantState`] — bit-exact: the restored accountant charges
    /// and gates identically to the captured one. The freeze flag is
    /// re-derived from the restored total as well as the stored flag,
    /// so a snapshot can only ever make the accountant *more* frozen
    /// than its totals imply, never less.
    pub fn from_state(
        mode: AccountingMode,
        budget_bits: Option<f64>,
        state: AccountantState,
    ) -> Self {
        let mut acct = Self {
            mode,
            budget_bits,
            report: state.report,
            consecutive_maintains: state.consecutive_maintains,
            last_visible_cycles: state.last_visible_cycles,
            last_assessment_cycles: state.last_assessment_cycles,
            frozen: state.frozen,
        };
        acct.refresh_freeze();
        acct
    }

    /// The configured budget, if any.
    pub fn budget_bits(&self) -> Option<f64> {
        self.budget_bits
    }

    /// Charges `bits` outside any assessment — the crash-recovery
    /// *fail-closed* rule: when a torn journal tail makes it ambiguous
    /// whether an assessment was charged before the crash, the
    /// recovering daemon charges the worst case against the budget
    /// rather than risk under-counting spent leakage. Counters are
    /// untouched (no assessment happened that the replay can see); the
    /// budget re-evaluates, so the charge can freeze the domain and
    /// the next gate degrades it to Maintain through the taint layer.
    pub fn charge_external(&mut self, bits: f64) {
        self.report.total_bits += bits.max(0.0);
        self.refresh_freeze();
    }

    /// Re-evaluates the freeze flag against the current total (the
    /// same headroom rule [`LeakageAccountant::on_assessment`] applies
    /// after charging). Freezing is one-way: this never thaws.
    fn refresh_freeze(&mut self) {
        if let Some(budget) = self.budget_bits {
            let exhausted = match &self.mode {
                AccountingMode::PerAssessment { bits } => self.report.total_bits + bits > budget,
                _ => self.report.total_bits >= budget,
            };
            if exhausted {
                self.frozen = true;
            }
        }
    }

    /// Records an assessment outcome at `cycles_now`; returns the bits
    /// charged for it.
    pub fn on_assessment(&mut self, class: ActionClass, cycles_now: f64) -> f64 {
        self.report.assessments += 1;
        // Every assessment is charged as a visible action would be,
        // except Maintains under the Maintain-optimized model: they are
        // invisible to the attacker and free.
        let optimized = matches!(
            self.mode,
            AccountingMode::RateTable {
                optimized: true,
                ..
            }
        );
        let bits = if optimized && !class.is_visible() {
            0.0
        } else {
            self.visible_charge_bits(cycles_now)
        };
        match class {
            ActionClass::Maintain => {
                self.report.maintains += 1;
                self.consecutive_maintains += 1;
            }
            _ => {
                self.report.visible_actions += 1;
                self.consecutive_maintains = 0;
                self.last_visible_cycles = cycles_now;
            }
        }
        self.last_assessment_cycles = cycles_now;
        self.report.total_bits += bits;
        // Flat charges freeze as soon as another assessment cannot be
        // afforded; rate charges freeze at the budget itself.
        self.refresh_freeze();
        bits
    }

    /// Whether the leakage budget is exhausted. A frozen domain must not
    /// perform further resizes; its security is preserved at the cost of
    /// performance (§4, §6.2).
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// The bits a hypothetical *visible* action at `cycles_now` would be
    /// charged: the flat per-assessment charge, or the rate-table bound
    /// anchored at the last visible action with its Maintain credit
    /// (optimized) or at the last assessment with none (worst case).
    pub fn visible_charge_bits(&self, cycles_now: f64) -> f64 {
        match &self.mode {
            AccountingMode::PerAssessment { bits } => *bits,
            AccountingMode::RateTable {
                table,
                cycles_per_unit,
                cooldown_units,
                delay_units,
                optimized,
            } => {
                let (anchor, maintains) = if *optimized {
                    (self.last_visible_cycles, self.consecutive_maintains)
                } else {
                    (self.last_assessment_cycles, 0)
                };
                let dt_units = (cycles_now - anchor) / cycles_per_unit;
                transmission_bits(table, maintains, dt_units, *cooldown_units, *delay_units)
            }
        }
    }

    /// Evaluates the budget *before* an assessment at `cycles_now`.
    pub fn gate(&self, cycles_now: f64) -> BudgetGate {
        let Some(budget) = self.budget_bits else {
            return BudgetGate::Proceed;
        };
        if self.frozen {
            return BudgetGate::Skip;
        }
        let visible_cost = self.visible_charge_bits(cycles_now);
        if self.report.total_bits + visible_cost <= budget {
            return BudgetGate::Proceed;
        }
        match &self.mode {
            // Maintains are free only under the optimized rate model.
            AccountingMode::RateTable {
                optimized: true, ..
            } => BudgetGate::MaintainOnly,
            _ => BudgetGate::Skip,
        }
    }

    /// The accumulated report.
    pub fn report(&self) -> LeakageReport {
        self.report
    }

    /// Consecutive Maintains since the last visible action.
    pub fn consecutive_maintains(&self) -> usize {
        self.consecutive_maintains
    }

    /// Forgets accumulated charges and counters (used at the end of the
    /// warmup phase) while keeping the time anchors.
    pub fn reset_counters(&mut self) {
        self.report = LeakageReport::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use untangle_info::rate_table::RateTableConfig;
    use untangle_info::{DelayDist, RateTable};

    fn table() -> RateTable {
        RateTable::precompute(&RateTableConfig {
            cooldown: 4,
            n_symbols: 4,
            step: 1,
            delay: DelayDist::uniform(4).unwrap(),
            max_maintains: 4,
        })
        .unwrap()
    }

    #[test]
    fn per_assessment_charges_flat_rate() {
        let bits = (9f64).log2();
        let mut a = LeakageAccountant::new(AccountingMode::PerAssessment { bits }, None);
        for i in 0..10 {
            let class = if i % 2 == 0 {
                ActionClass::Maintain
            } else {
                ActionClass::Expand
            };
            a.on_assessment(class, i as f64 * 100.0);
        }
        let r = a.report();
        assert_eq!(r.assessments, 10);
        assert!((r.total_bits - 10.0 * bits).abs() < 1e-9);
        assert!((r.bits_per_assessment() - bits).abs() < 1e-12);
    }

    #[test]
    fn maintains_are_free_under_optimized_accounting() {
        let mode = AccountingMode::RateTable {
            table: table(),
            cycles_per_unit: 100.0,
            cooldown_units: 4.0,
            delay_units: 4.0,
            optimized: true,
        };
        let mut a = LeakageAccountant::new(mode, None);
        let b1 = a.on_assessment(ActionClass::Maintain, 400.0);
        let b2 = a.on_assessment(ActionClass::Maintain, 800.0);
        // Optimized accounting charges Maintain a literal 0.0.
        assert_eq!(b1.to_bits(), 0.0f64.to_bits());
        assert_eq!(b2.to_bits(), 0.0f64.to_bits());
        assert_eq!(a.consecutive_maintains(), 2);
        let b3 = a.on_assessment(ActionClass::Expand, 1200.0);
        assert!(b3 > 0.0);
        assert_eq!(a.consecutive_maintains(), 0);
    }

    #[test]
    fn maintain_runs_lower_the_charged_rate() {
        // Same elapsed time per visible action, but one accountant
        // passed through more Maintains ⇒ it is charged at the lower
        // R_max(m) rate for the same Δt.
        let mk = || {
            LeakageAccountant::new(
                AccountingMode::RateTable {
                    table: table(),
                    cycles_per_unit: 100.0,
                    cooldown_units: 4.0,
                    delay_units: 4.0,
                    optimized: true,
                },
                None,
            )
        };
        let mut no_maintains = mk();
        let direct = no_maintains.on_assessment(ActionClass::Expand, 1600.0);

        let mut with_maintains = mk();
        with_maintains.on_assessment(ActionClass::Maintain, 400.0);
        with_maintains.on_assessment(ActionClass::Maintain, 800.0);
        with_maintains.on_assessment(ActionClass::Maintain, 1200.0);
        let after_run = with_maintains.on_assessment(ActionClass::Expand, 1600.0);

        assert!(
            after_run < direct,
            "3 maintains must reduce the charge: {after_run} !< {direct}"
        );
    }

    #[test]
    fn worst_case_charges_every_assessment() {
        let mode = AccountingMode::RateTable {
            table: table(),
            cycles_per_unit: 100.0,
            cooldown_units: 4.0,
            delay_units: 4.0,
            optimized: false,
        };
        let mut a = LeakageAccountant::new(mode, None);
        let b1 = a.on_assessment(ActionClass::Maintain, 400.0);
        assert!(b1 > 0.0, "worst case charges Maintains too");
        let b2 = a.on_assessment(ActionClass::Maintain, 800.0);
        assert!((b1 - b2).abs() < 1e-12, "equal periods, equal charges");
    }

    #[test]
    fn worst_case_exceeds_optimized() {
        let classes = [
            ActionClass::Maintain,
            ActionClass::Maintain,
            ActionClass::Expand,
            ActionClass::Maintain,
            ActionClass::Shrink,
        ];
        let run = |optimized| {
            let mut a = LeakageAccountant::new(
                AccountingMode::RateTable {
                    table: table(),
                    cycles_per_unit: 100.0,
                    cooldown_units: 4.0,
                    delay_units: 4.0,
                    optimized,
                },
                None,
            );
            for (i, &c) in classes.iter().enumerate() {
                a.on_assessment(c, (i as f64 + 1.0) * 400.0);
            }
            a.report().total_bits
        };
        assert!(run(false) > run(true));
    }

    #[test]
    fn budget_freezes_before_it_can_be_exceeded() {
        let mut a = LeakageAccountant::new(AccountingMode::PerAssessment { bits: 1.0 }, Some(2.5));
        assert!(matches!(a.gate(1.0), BudgetGate::Proceed));
        a.on_assessment(ActionClass::Expand, 1.0);
        assert!(!a.is_frozen());
        a.on_assessment(ActionClass::Expand, 2.0);
        // Two bits charged; a third would exceed 2.5: frozen now.
        assert!(a.is_frozen(), "no headroom for another charge");
        assert!(matches!(a.gate(3.0), BudgetGate::Skip));
        assert!(a.report().total_bits <= 2.5);
    }

    #[test]
    fn gate_forces_maintain_under_optimized_accounting() {
        let mut a = LeakageAccountant::new(
            AccountingMode::RateTable {
                table: table(),
                cycles_per_unit: 100.0,
                cooldown_units: 4.0,
                delay_units: 4.0,
                optimized: true,
            },
            Some(0.2),
        );
        // Long elapsed time: a visible action would cost more than the
        // 0.2-bit budget, but Maintains remain possible.
        assert!(matches!(a.gate(100_000.0), BudgetGate::MaintainOnly));
        let bits = a.on_assessment(ActionClass::Maintain, 100_000.0);
        assert_eq!(bits.to_bits(), 0.0f64.to_bits());
        assert!(!a.is_frozen());
    }

    #[test]
    fn replay_accumulation_across_runs_freezes_eventually() {
        // §6.2: the OS carries the accumulated leakage into each new
        // run; once the lifetime budget is spent, the program may never
        // resize again.
        let mut carried = 0.0;
        let budget = 5.0;
        let mut frozen_run = None;
        for run in 0..10 {
            let mut a = LeakageAccountant::with_initial_charge(
                AccountingMode::PerAssessment { bits: 1.0 },
                Some(budget),
                carried,
            );
            if a.is_frozen() || a.gate(1.0) == BudgetGate::Skip {
                frozen_run = Some(run);
                break;
            }
            a.on_assessment(ActionClass::Expand, 1.0);
            carried = a.report().total_bits;
            assert!(carried <= budget);
        }
        assert_eq!(
            frozen_run,
            Some(5),
            "five 1-bit runs exhaust a 5-bit budget"
        );
    }

    #[test]
    fn gate_without_budget_always_proceeds() {
        let a = LeakageAccountant::new(AccountingMode::PerAssessment { bits: 5.0 }, None);
        assert!(matches!(a.gate(1e12), BudgetGate::Proceed));
    }

    #[test]
    fn report_fractions() {
        let mut a = LeakageAccountant::new(AccountingMode::PerAssessment { bits: 0.0 }, None);
        a.on_assessment(ActionClass::Maintain, 1.0);
        a.on_assessment(ActionClass::Maintain, 2.0);
        a.on_assessment(ActionClass::Expand, 3.0);
        a.on_assessment(ActionClass::Maintain, 4.0);
        let r = a.report();
        assert_eq!(r.maintains, 3);
        assert_eq!(r.visible_actions, 1);
        assert!((r.maintain_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn state_roundtrip_is_bit_exact() {
        let mode = AccountingMode::RateTable {
            table: table(),
            cycles_per_unit: 100.0,
            cooldown_units: 4.0,
            delay_units: 4.0,
            optimized: true,
        };
        let mut a = LeakageAccountant::new(mode.clone(), Some(50.0));
        a.on_assessment(ActionClass::Maintain, 400.0);
        a.on_assessment(ActionClass::Expand, 800.0);
        a.on_assessment(ActionClass::Maintain, 1200.0);

        let mut b = LeakageAccountant::from_state(mode, Some(50.0), a.state());
        assert_eq!(b.state(), a.state());
        // The restored accountant charges the identical bits for the
        // identical next assessment — the crash-replay contract.
        let ba = b.on_assessment(ActionClass::Expand, 2000.0);
        let aa = a.on_assessment(ActionClass::Expand, 2000.0);
        assert_eq!(aa.to_bits(), ba.to_bits());
        assert_eq!(b.state(), a.state());
    }

    #[test]
    fn from_state_re_derives_freeze_from_totals() {
        // A (hand-damaged) snapshot claiming "not frozen" with a spent
        // budget restores frozen anyway: fail-closed, never laxer.
        let mut s =
            LeakageAccountant::new(AccountingMode::PerAssessment { bits: 1.0 }, Some(2.0)).state();
        s.report.total_bits = 5.0;
        s.frozen = false;
        let a = LeakageAccountant::from_state(
            AccountingMode::PerAssessment { bits: 1.0 },
            Some(2.0),
            s,
        );
        assert!(a.is_frozen());
    }

    #[test]
    fn charge_external_spends_budget_and_freezes_fail_closed() {
        let mut a = LeakageAccountant::new(AccountingMode::PerAssessment { bits: 1.0 }, Some(3.0));
        a.on_assessment(ActionClass::Expand, 1.0);
        assert!(!a.is_frozen());
        // The ambiguous-tail charge: counted bits rise, counters do not.
        a.charge_external(1.5);
        assert_eq!(a.report().assessments, 1);
        assert!((a.report().total_bits - 2.5).abs() < 1e-12);
        // 2.5 + 1.0 > 3.0: no headroom for another flat charge.
        assert!(a.is_frozen());
        assert!(matches!(a.gate(2.0), BudgetGate::Skip));
        // Negative charges are clamped: recovery can never refund.
        let before = a.report().total_bits;
        a.charge_external(-10.0);
        assert_eq!(a.report().total_bits.to_bits(), before.to_bits());
    }

    #[test]
    fn reset_counters_keeps_time_anchors() {
        let mut a = LeakageAccountant::new(
            AccountingMode::RateTable {
                table: table(),
                cycles_per_unit: 100.0,
                cooldown_units: 4.0,
                delay_units: 4.0,
                optimized: true,
            },
            None,
        );
        a.on_assessment(ActionClass::Expand, 400.0);
        a.reset_counters();
        assert_eq!(a.report().assessments, 0);
        // The next visible action is charged from the last visible time,
        // not from zero: both 400-cycle gaps cost the same.
        let mut b = a.clone();
        let bits = a.on_assessment(ActionClass::Expand, 800.0);
        let bits_again = b.on_assessment(ActionClass::Expand, 800.0);
        assert!(bits > 0.0);
        assert!((bits - bits_again).abs() < 1e-12);
    }
}
