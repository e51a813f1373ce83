//! §6.3: applying the Untangle framework to a different resource — the
//! shared second-level TLB.
//!
//! The framework pieces are resource-agnostic: a timing-independent
//! utilization metric (here, TLB hits under every candidate slice
//! size), the progress-based schedule of an Untangle domain, and the
//! leakage accountant with its `R_max` rate table. Only the substrate
//! changes; a one-domain `System` supplies the domain clock the
//! accountant prices elapsed time on. The loop applies no random action
//! delay, so it sets `delay_max_cycles: 0`.
//!
//! ```sh
//! cargo run --release --example tlb_partitioning
//! ```

use std::cmp::Ordering;

use untangle::core::action::ActionClass;
use untangle::core::leakage::{BudgetGate, LeakageAccountant};
use untangle::core::schedule::Schedule;
use untangle::core::scheme::{DomainTier, SchemeKind, SchemeParams};
use untangle::sim::tlb::{Tlb, TlbUtilityMonitor, TLB_SIZES};
use untangle::sim::{LlcMode, MachineConfig, System};
use untangle::trace::synth::{WorkingSetConfig, WorkingSetModel};

fn main() {
    // A workload whose page footprint outgrows a small TLB slice:
    // 2 MB working set = ~512 pages.
    let mut workload = WorkingSetModel::new(
        WorkingSetConfig {
            working_set_bytes: 2 << 20,
            hot_fraction: 0.2,
            stream_fraction: 0.0,
            mem_fraction: 0.4,
            ..WorkingSetConfig::default()
        },
        17,
    );

    let params = SchemeParams {
        progress_interval_instrs: 100_000,
        delay_max_cycles: 0,
        ..SchemeParams::scaled(0.01)
    };
    let machine = MachineConfig::default();
    let commit_width = machine.timing.commit_width;
    let mut schedule = Schedule::new(SchemeKind::Untangle, DomainTier::Sensitive, &params)
        .expect("positive interval");
    // The same covert-channel machinery prices the TLB resizes.
    let accounting = params
        .accounting(SchemeKind::Untangle, commit_width)
        .expect("rate table converges");
    let mut accountant = LeakageAccountant::new(accounting, params.leakage_budget_bits);
    let mut system = System::new(machine, 1, LlcMode::Partitioned);
    let mut tlb = Tlb::new(64); // start with a small slice
    let mut monitor = TlbUtilityMonitor::new(8192);

    println!(
        "{:>10} {:>9} {:>10} {:>12}",
        "instrs", "TLB size", "hit rate", "charged bits"
    );
    for step in 1..=10u64 {
        let mut hits = 0u64;
        let mut accesses = 0u64;
        let now = loop {
            let event = system.step(0, &mut workload).expect("infinite source");
            if let Some(access) = event.instr.mem_access() {
                accesses += 1;
                if tlb.translate(access.addr) {
                    hits += 1;
                }
                if event.instr.counts_toward_utilization() {
                    monitor.observe(access.addr);
                }
            }
            let progress = u64::from(event.instr.counts_toward_progress());
            if schedule.on_progress(event.cycles, progress) {
                break event.cycles;
            }
        };
        // Assessment: the smallest adequate slice per the monitor, as
        // far as the leakage budget allows.
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
        // A visible action pays for the time since the last one.
        accountant.on_assessment(class, now);
        if class.is_visible() {
            tlb.resize(target);
        }
        println!(
            "{:>10} {:>9} {:>9.1}% {:>12.3}",
            step * params.progress_interval_instrs,
            tlb.entries(),
            hits as f64 / accesses.max(1) as f64 * 100.0,
            accountant.report().total_bits,
        );
    }
    println!(
        "\n{} resizes; final slice {} of {} supported sizes {:?}",
        accountant.report().visible_actions,
        tlb.entries(),
        TLB_SIZES.len(),
        TLB_SIZES
    );
    println!("The identical framework — metric, schedule, cooldown, rate table —");
    println!("drives a TLB instead of the LLC, as §6.3 describes.");
}
