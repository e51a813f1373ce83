//! §6.3 end to end: the framework's resource-agnostic pieces — the
//! progress schedule, the `R_max` leakage accountant and its budget
//! gate — driving the TLB substrate through the facade crate.
//!
//! The loop runs the LLC pipeline's parts unchanged: the schedule of an
//! Untangle domain, the scheme's accounting model and a one-domain
//! `System` whose domain clock times every retirement. It applies no
//! random action delay, so the parameters set `delay_max_cycles: 0`
//! and the accountant prices exactly that channel.

use std::cmp::Ordering;

use untangle::core::action::ActionClass;
use untangle::core::leakage::{BudgetGate, LeakageAccountant, LeakageReport};
use untangle::core::schedule::Schedule;
use untangle::core::scheme::{DomainTier, SchemeKind, SchemeParams};
use untangle::core::taint::audit;
use untangle::sim::tlb::{Tlb, TlbUtilityMonitor, TLB_SIZES};
use untangle::sim::{LlcMode, MachineConfig, System};
use untangle::trace::source::{Interleave, TraceSource};
use untangle::trace::synth::{CryptoConfig, CryptoModel, WorkingSetConfig, WorkingSetModel};
use untangle::trace::LineAddr;

/// One resizing loop's configuration.
struct TlbLoop {
    start_entries: usize,
    window: usize,
    interval_instrs: u64,
    assessments: usize,
    budget_bits: Option<f64>,
}

/// What one loop did.
struct TlbRun {
    /// Every recorded assessment's class and the slice size after it.
    actions: Vec<(ActionClass, usize)>,
    report: LeakageReport,
    /// `Σ log2(Δt + 2)` over the visible actions, `Δt` in rate-table
    /// units since the previous visible action: what the accountant's
    /// per-transmission rule allows on a channel without delay noise.
    per_transmission_bound: f64,
}

impl TlbLoop {
    fn settle(budget_bits: Option<f64>) -> Self {
        Self {
            start_entries: 32,
            window: 4096,
            interval_instrs: 50_000,
            assessments: 12,
            budget_bits,
        }
    }

    fn run(&self, mut source: impl TraceSource) -> TlbRun {
        let params = SchemeParams {
            progress_interval_instrs: self.interval_instrs,
            delay_max_cycles: 0,
            leakage_budget_bits: self.budget_bits,
            ..SchemeParams::scaled(0.01)
        };
        let machine = MachineConfig::default();
        let commit_width = machine.timing.commit_width;
        let cycles_per_unit =
            params.cooldown_cycles(commit_width) / SchemeParams::UNITS_PER_COOLDOWN as f64;
        let mut schedule = Schedule::new(SchemeKind::Untangle, DomainTier::Sensitive, &params)
            .expect("positive interval");
        let accounting = params
            .accounting(SchemeKind::Untangle, commit_width)
            .expect("rate table converges");
        let mut accountant = LeakageAccountant::new(accounting, params.leakage_budget_bits);
        let mut system = System::new(machine, 1, LlcMode::Partitioned);
        let mut tlb = Tlb::new(self.start_entries);
        let mut monitor = TlbUtilityMonitor::new(self.window);

        let mut actions = Vec::new();
        let mut per_transmission_bound = 0.0;
        let mut last_visible = 0.0;
        let mut fires = 0;
        while fires < self.assessments {
            let event = system.step(0, &mut source).expect("infinite source");
            if let Some(access) = event.instr.mem_access() {
                tlb.translate(access.addr);
                if event.instr.counts_toward_utilization() {
                    monitor.observe(access.addr);
                }
            }
            let now = event.cycles;
            if !schedule.on_progress(now, u64::from(event.instr.counts_toward_progress())) {
                continue;
            }
            fires += 1;
            let target = match accountant.gate(now) {
                BudgetGate::Skip => continue,
                BudgetGate::MaintainOnly => tlb.entries(),
                BudgetGate::Proceed => monitor.adequate_entries(monitor.window_fill() as u64 / 50),
            };
            let class = match target.cmp(&tlb.entries()) {
                Ordering::Greater => ActionClass::Expand,
                Ordering::Equal => ActionClass::Maintain,
                Ordering::Less => ActionClass::Shrink,
            };
            accountant.on_assessment(class, now);
            if class.is_visible() {
                per_transmission_bound += ((now - last_visible) / cycles_per_unit + 2.0).log2();
                last_visible = now;
                tlb.resize(target);
            }
            actions.push((class, tlb.entries()));
        }
        TlbRun {
            actions,
            report: accountant.report(),
            per_transmission_bound,
        }
    }
}

/// A 256-page working set.
fn working_set(seed: u64) -> WorkingSetModel {
    WorkingSetModel::new(
        WorkingSetConfig {
            working_set_bytes: 1 << 20,
            hot_fraction: 0.2,
            stream_fraction: 0.0,
            mem_fraction: 0.5,
            ..WorkingSetConfig::default()
        },
        seed,
    )
}

#[test]
fn tlb_resizing_loop_settles_and_charges_bounded_bits() {
    let run = TlbLoop::settle(None).run(working_set(5));
    let entries = run.actions.last().expect("the schedule fires").1;
    // A 256-page working set needs at least the 256-entry slice (the
    // slack rule may or may not justify the full 512).
    assert!(entries >= 256, "settled at {entries}");
    assert!(TLB_SIZES.contains(&entries));
    let visible = run.report.visible_actions;
    assert!(visible >= 1, "at least one expansion must happen");
    assert!(visible <= 3, "the loop must settle, saw {visible} resizes");
    let charged = run.report.total_bits;
    assert!(
        charged > 0.0 && charged <= run.per_transmission_bound,
        "charged {charged} bits, per-transmission bound {}",
        run.per_transmission_bound
    );
}

#[test]
fn tlb_resizing_loop_is_deterministic() {
    // The whole §6.3 loop is architecturally determined: two runs give
    // identical resize traces and identical charges.
    let tlb_loop = TlbLoop {
        start_entries: 16,
        window: 2048,
        interval_instrs: 20_000,
        assessments: 10,
        budget_bits: None,
    };
    let source = || {
        WorkingSetModel::new(
            WorkingSetConfig {
                working_set_bytes: 512 << 10,
                mem_fraction: 0.5,
                ..WorkingSetConfig::default()
            },
            9,
        )
    };
    let (a, b) = (tlb_loop.run(source()), tlb_loop.run(source()));
    assert_eq!(a.actions, b.actions);
    assert_eq!(a.report.total_bits.to_bits(), b.report.total_bits.to_bits());
    assert_eq!(a.actions.len(), 10);
}

#[test]
fn tlb_leakage_budget_freezes_resizing() {
    let free = TlbLoop::settle(None).run(working_set(5));
    let budget = free.report.total_bits / 2.0;
    let capped = TlbLoop::settle(Some(budget)).run(working_set(5));
    assert!(
        capped.report.total_bits <= budget,
        "charged {} bits against a {budget}-bit budget",
        capped.report.total_bits
    );
    assert!(
        capped.report.visible_actions < free.report.visible_actions,
        "{} visible actions under the budget, {} without",
        capped.report.visible_actions,
        free.report.visible_actions
    );
}

#[test]
fn tlb_actions_are_independent_of_an_interleaved_secret() {
    // A secret-annotated crypto kernel shares the core: its accesses
    // neither count toward progress nor reach the monitor, so the
    // resizing actions are the same for any secret.
    let run = |secret| {
        let crypto = CryptoModel::new(
            CryptoConfig {
                secret,
                secret_scales_footprint: true,
                table_bytes: 256 << 10,
                region_base: LineAddr::new(1 << 40),
                ..CryptoConfig::default()
            },
            11,
        );
        let mix = Interleave::new(crypto, 2_000, working_set(5), 10_000);
        audit::capture(|| TlbLoop::settle(None).run(mix))
    };
    let ((a, log_a), (b, log_b)) = (run(0), run(3));
    assert_eq!(a.actions, b.actions);
    assert!(a.report.visible_actions >= 1);
    for log in [log_a, log_b] {
        assert!(log.declassified.is_empty(), "{:?}", log.declassified);
        assert!(log.violations.is_empty(), "{:?}", log.violations);
    }
}
