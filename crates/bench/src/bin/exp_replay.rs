//! The §6.2 replay attack and its defence: an attacker replays the
//! victim program many times, gaining scheduling information at every
//! run — so the operating system accumulates the victim's charged
//! leakage across runs against one lifetime budget. Once the budget is
//! spent, later runs may not resize: their performance drops, their
//! security does not.
//!
//! Usage: `cargo run --release -p untangle-bench --bin exp_replay
//! [--scale 0.004] [--runs 8] [--budget 3.0]`

use untangle_bench::parse_flag;
use untangle_bench::table::{f2, TextTable};
use untangle_core::runner::{Runner, RunnerConfig};
use untangle_core::scheme::SchemeKind;
use untangle_core::UntangleError;
use untangle_obs as obs;
use untangle_trace::synth::{WorkingSetConfig, WorkingSetModel};

fn main() {
    if let Err(e) = run() {
        eprintln!("exp_replay: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), UntangleError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: f64 = parse_flag(&args, "--scale", 0.004)?;
    let runs: usize = parse_flag(&args, "--runs", 6)?;
    let budget: f64 = parse_flag(&args, "--budget", 25.0)?;

    obs::diag!("# §6.2 replay study: {runs} runs against a {budget}-bit lifetime budget");
    let mut carried = 0.0;
    let mut table = TextTable::new(vec![
        "run",
        "budget left (bit)",
        "charged (bit)",
        "resizes",
        "IPC",
    ]);
    for run in 1..=runs {
        let mut config = RunnerConfig::eval_scale(SchemeKind::Untangle, scale)?;
        // The OS carries the accumulated leakage into the new run by
        // shrinking the remaining budget.
        config.params.leakage_budget_bits = Some((budget - carried).max(0.0));
        let source = WorkingSetModel::new(
            WorkingSetConfig {
                working_set_bytes: 4 << 20,
                ..WorkingSetConfig::default()
            },
            9,
        );
        let report = Runner::new(config, vec![Box::new(source)])?.run();
        let d = &report.domains[0];
        table.row(vec![
            run.to_string(),
            f2((budget - carried).max(0.0)),
            f2(d.leakage.total_bits),
            d.leakage.visible_actions.to_string(),
            format!("{:.3}", d.ipc()),
        ]);
        carried += d.leakage.total_bits;
        if carried > budget + 1e-9 {
            return Err(UntangleError::InvalidConfig(format!(
                "run {run} exceeded the lifetime budget: {carried} of {budget} bits charged"
            )));
        }
    }
    println!("{}", table.render());
    println!(
        "Total charged across all runs: {carried:.2} of {budget:.2} bits.\n\
         Early runs resize (and leak within budget); once the lifetime\n\
         budget is spent, later runs are frozen at 2 MB — slower, but the\n\
         attacker's replays stop paying."
    );
    Ok(())
}
