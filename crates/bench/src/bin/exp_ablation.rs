//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Schedule** — a time-based schedule with an annotation-aware
//!    metric still produces secret-dependent action sequences (§3.4:
//!    timing entangles the actions; Principle 2 is necessary).
//! 2. **Annotations** — Untangle's schedule without annotations leaks
//!    the secret-dependent demand (Fig. 2, Edge ①; §5.2's annotation
//!    step is necessary).
//! 3. **Random delay δ (Mechanism 2)** — removing it raises every
//!    `R_max` table entry.
//! 4. **Maintain-optimized rate table (§5.3.4)** — worst-case
//!    accounting charges far more per assessment.
//! 5. **Metric choice** — the footprint metric (§5.2's example) versus
//!    the UMON hit curve, both timing-independent.
//! 6. **Related work** — a SecDCP-style tiered scheme degenerates to
//!    static partitioning when every domain handles secrets (§10).
//!
//! Usage: `cargo run --release -p untangle-bench --bin exp_ablation
//! [--scale 0.002]`

use untangle_bench::parse_flag;
use untangle_bench::table::{f3, TextTable};
use untangle_core::action::Action;
use untangle_core::metric::MetricPolicy;
use untangle_core::runner::{Runner, RunnerConfig};
use untangle_core::scheme::SchemeKind;
use untangle_core::UntangleError;
use untangle_trace::snippets::secret_gated_traversal;
use untangle_trace::source::TraceSource;
use untangle_trace::synth::{WorkingSetConfig, WorkingSetModel};
use untangle_trace::LineAddr;
use untangle_workloads::mix::mix_by_id;

fn fig1a_actions(
    kind: SchemeKind,
    policy: MetricPolicy,
    secret: bool,
    annotate: bool,
) -> Result<Vec<Action>, UntangleError> {
    let public = |seed| {
        WorkingSetModel::new(
            WorkingSetConfig {
                working_set_bytes: 512 << 10,
                ..WorkingSetConfig::default()
            },
            seed,
        )
        .take_instrs(120_000)
    };
    let gated = secret_gated_traversal(secret, 4 << 20, LineAddr::new(1 << 30), annotate)
        .chain(secret_gated_traversal(
            secret,
            4 << 20,
            LineAddr::new(1 << 30),
            annotate,
        ))
        .chain(secret_gated_traversal(
            secret,
            4 << 20,
            LineAddr::new(1 << 30),
            annotate,
        ));
    let mut config = RunnerConfig::test_scale(kind, 1);
    config.warmup_cycles = 0.0;
    config.slice_instrs = u64::MAX;
    config.metric_policy = Some(policy);
    let report = Runner::new(
        config,
        vec![Box::new(public(1).chain(gated).chain(public(2)))],
    )?
    .run();
    Ok(report.domains[0].trace.action_sequence())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("exp_ablation: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), UntangleError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: f64 = parse_flag(&args, "--scale", 0.01)?;

    // --- Ablations 1 & 2: which combinations keep actions secret-free?
    println!("== Action-sequence secret-independence (Figure 1a pattern) ==");
    let mut t = TextTable::new(vec![
        "schedule",
        "metric",
        "annotations",
        "action sequences across secrets",
    ]);
    let cases = [
        (
            SchemeKind::Untangle,
            MetricPolicy::PublicOnly,
            true,
            "progress",
            "public-only",
        ),
        (
            SchemeKind::Untangle,
            MetricPolicy::All,
            false,
            "progress",
            "everything",
        ),
        (
            SchemeKind::Time,
            MetricPolicy::PublicOnly,
            true,
            "time-based",
            "public-only",
        ),
        (
            SchemeKind::Time,
            MetricPolicy::All,
            false,
            "time-based",
            "everything",
        ),
    ];
    for (kind, policy, annotate, sched_name, metric_name) in cases {
        let a = fig1a_actions(kind, policy, false, annotate)?;
        let b = fig1a_actions(kind, policy, true, annotate)?;
        t.row(vec![
            sched_name.to_string(),
            metric_name.to_string(),
            annotate.to_string(),
            if a == b {
                "IDENTICAL".into()
            } else {
                "DIFFER (leaks)".to_string()
            },
        ]);
    }
    println!("{}", t.render());
    println!(
        "Only the full Untangle combination (progress schedule + annotation-aware\n\
         metric) removes the action leakage; each principle alone is insufficient.\n"
    );

    // --- Ablation 3: the random delay δ.
    println!("== Mechanism 2 ablation: R_max table with and without δ ==");
    let base = RunnerConfig::eval_scale(SchemeKind::Untangle, scale)?;
    let with_delay = base
        .params
        .build_rate_model(base.machine.timing.commit_width)?;
    let mut no_delay_params = base.params.clone();
    no_delay_params.delay_max_cycles = 0;
    let without_delay = no_delay_params.build_rate_model(base.machine.timing.commit_width)?;
    let mut t3 = TextTable::new(vec!["maintains", "R_max with δ", "R_max without δ"]);
    for m in 0..4 {
        t3.row(vec![
            m.to_string(),
            f3(with_delay.rate(m)),
            f3(without_delay.rate(m)),
        ]);
    }
    println!("{}", t3.render());

    // --- Ablation 4: maintain-optimized vs worst-case accounting.
    println!("== §5.3.4 ablation: optimized vs worst-case accounting (Mix 1) ==");
    let mix = mix_by_id(1)
        .ok_or_else(|| UntangleError::InvalidConfig("mix 1 is not defined".to_string()))?;
    let accounting_run = |optimized: bool| -> Result<f64, UntangleError> {
        let mut config = RunnerConfig::eval_scale(SchemeKind::Untangle, scale)?;
        config.params.optimized_accounting = optimized;
        let report = Runner::new(config, mix.sources(7, scale))?.run();
        Ok(report
            .domains
            .iter()
            .map(|d| d.leakage.bits_per_assessment())
            .sum::<f64>()
            / report.domains.len() as f64)
    };
    let optimized = accounting_run(true)?;
    let worst = accounting_run(false)?;
    println!("optimized accounting : {optimized:.3} bits/assessment");
    println!("worst-case accounting: {worst:.3} bits/assessment");
    println!(
        "(paper §9: 0.7 vs 3.8 bits; the Maintain credit is worth ~{:.0}x)\n",
        worst / optimized.max(1e-9)
    );

    // --- Ablation 5: metric choice (hit curve vs footprint).
    println!("== Metric ablation: hit curve vs footprint (Mix 1, Untangle) ==");
    let run_metric = |metric_kind| -> Result<f64, UntangleError> {
        let mut config = RunnerConfig::eval_scale(SchemeKind::Untangle, scale)?;
        config.params.metric_kind = metric_kind;
        Ok(Runner::new(config, mix.sources(7, scale))?
            .run()
            .geomean_ipc())
    };
    use untangle_core::scheme::MetricKind;
    let hits_ipc = run_metric(MetricKind::HitCurve)?;
    let footprint_ipc = run_metric(MetricKind::Footprint)?;
    println!("hit-curve metric geomean IPC: {hits_ipc:.3}");
    println!("footprint metric geomean IPC: {footprint_ipc:.3}");
    println!("(both are timing-independent; the hit curve sees reuse, the footprint only size)\n");

    // --- Ablation 6: SecDCP under the peer model.
    println!("== Related work: SecDCP-style tiered scheme (Mix 1) ==");
    let run_kind = |kind| -> Result<f64, UntangleError> {
        let config = RunnerConfig::eval_scale(kind, scale)?;
        Ok(Runner::new(config, mix.sources(7, scale))?
            .run()
            .geomean_ipc())
    };
    let static_ipc = run_kind(SchemeKind::Static)?;
    let secdcp_ipc = run_kind(SchemeKind::SecDcp)?;
    let untangle_ipc = run_kind(SchemeKind::Untangle)?;
    println!("STATIC geomean IPC  : {static_ipc:.3}");
    println!("SECDCP geomean IPC  : {secdcp_ipc:.3} (all domains sensitive => no resizing)");
    println!("UNTANGLE geomean IPC: {untangle_ipc:.3}");
    println!(
        "SecDCP's tiered model cannot adapt mutually-distrusting peers;\n\
         Untangle adapts them with a bounded leakage charge (§10)."
    );
    Ok(())
}
