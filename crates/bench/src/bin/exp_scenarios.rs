//! Generated-scenario sweep over on-disk traces with SimPoint-style
//! phase sampling (ROADMAP item 3; DESIGN.md "Trace format & phase
//! sampling").
//!
//! Generates hundreds of scenario traces (phase-shifting, adversarial,
//! bursty, co-scheduled crypto) into WAL-journaled trace files, picks
//! weighted representative slices per trace, replays them under every
//! scheme, and validates the sampled IPC/leakage estimates against
//! full-trace runs on a subset. Writes the `exp_scenarios` section of
//! `BENCH_experiments.json`.
//!
//! Flags: `--count N`, `--trace-instrs N`, `--block N`, `--interval N`,
//! `--slices N`, `--validate-every N`, `--out DIR`, `--retries N`,
//! `--resume`, `--smoke` (CI-sized defaults). Generation and evaluation
//! are both resumable: a killed run continues mid-trace from the
//! durable prefix and skips checkpointed scenarios.

use std::path::Path;

use untangle_bench::checkpoint::{CheckpointStore, SweepOutcome};
use untangle_bench::harness::timed;
use untangle_bench::parallel::{self, RetryPolicy};
use untangle_bench::report::{update_section, Json};
use untangle_bench::scenarios::{
    run_scenario_sweep, summarize, ScenarioResult, SweepSettings, SweepSummary,
};
use untangle_bench::table::{f3, TextTable};
use untangle_bench::Flags;
use untangle_core::UntangleError;
use untangle_obs as obs;
use untangle_trace::file::MAX_BLOCK_INSTRS;

fn main() {
    if let Err(e) = run() {
        eprintln!("exp_scenarios: {e}");
        std::process::exit(1);
    }
}

fn settings_from(f: &mut Flags) -> Result<SweepSettings, UntangleError> {
    let base = if f.switch("--smoke") {
        SweepSettings::smoke()
    } else {
        SweepSettings::full()
    };
    let settings = SweepSettings {
        count: f.value("--count", base.count)?,
        trace_instrs: f.value("--trace-instrs", base.trace_instrs)?,
        block_instrs: f.value("--block", base.block_instrs)?,
        interval_instrs: f.value("--interval", base.interval_instrs)?,
        max_slices: f.value("--slices", base.max_slices)?,
        validate_every: f.value("--validate-every", base.validate_every)?,
    };
    if settings.count == 0
        || settings.trace_instrs == 0
        || settings.block_instrs == 0
        || settings.interval_instrs == 0
        || settings.max_slices == 0
    {
        return Err(UntangleError::InvalidConfig(
            "--count, --trace-instrs, --block, --interval, and --slices must be positive"
                .to_string(),
        ));
    }
    if settings.block_instrs > MAX_BLOCK_INSTRS {
        return Err(UntangleError::InvalidConfig(format!(
            "--block {} exceeds the trace format's cap of {MAX_BLOCK_INSTRS}",
            settings.block_instrs
        )));
    }
    if settings.interval_instrs > settings.trace_instrs {
        return Err(UntangleError::InvalidConfig(format!(
            "--interval {} exceeds --trace-instrs {}",
            settings.interval_instrs, settings.trace_instrs
        )));
    }
    Ok(settings)
}

fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

fn print_summary(summary: &SweepSummary, outcome: &SweepOutcome<ScenarioResult>) {
    println!(
        "\nScenario sweep: {}/{} scenarios complete ({} resumed from checkpoints)",
        summary.completed, summary.scenarios, outcome.resumed
    );
    println!(
        "Simulated {} sampled instructions vs {} full-trace equivalent ({:.2}x savings)\n",
        summary.sampled_instrs,
        summary.full_instrs,
        summary.speedup()
    );

    let mut table = TextTable::new(vec![
        "scheme",
        "mean IPC",
        "mean bits/assess",
        "validated",
        "IPC err (mean)",
        "IPC err (max)",
        "leak err (mean)",
        "leak err (max)",
    ]);
    for s in &summary.per_scheme {
        table.row(vec![
            s.kind.clone(),
            f3(s.mean_ipc),
            f3(s.mean_bits_per_assessment),
            s.validated.to_string(),
            pct(s.mean_ipc_error),
            pct(s.max_ipc_error),
            pct(s.mean_leakage_error),
            pct(s.max_leakage_error),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Worst sampling error: IPC {}, leakage {}",
        pct(summary.worst_ipc_error()),
        pct(summary.worst_leakage_error())
    );
}

fn section_json(
    summary: &SweepSummary,
    settings: &SweepSettings,
    resumed: usize,
    wall_clock_s: f64,
) -> Json {
    Json::obj(vec![
        (
            "settings",
            Json::obj(vec![
                ("count", Json::Int(settings.count as i64)),
                ("trace_instrs", Json::Int(settings.trace_instrs as i64)),
                ("block_instrs", Json::Int(i64::from(settings.block_instrs))),
                (
                    "interval_instrs",
                    Json::Int(settings.interval_instrs as i64),
                ),
                ("max_slices", Json::Int(settings.max_slices as i64)),
                ("validate_every", Json::Int(settings.validate_every as i64)),
            ]),
        ),
        ("threads", Json::Int(parallel::thread_count() as i64)),
        ("wall_clock_s", Json::Num(wall_clock_s)),
        ("scenarios", Json::Int(summary.scenarios as i64)),
        ("completed", Json::Int(summary.completed as i64)),
        ("resumed", Json::Int(resumed as i64)),
        ("sampled_instrs", Json::Int(summary.sampled_instrs as i64)),
        ("full_instrs", Json::Int(summary.full_instrs as i64)),
        ("speedup", Json::Num(summary.speedup())),
        ("worst_ipc_error", Json::Num(summary.worst_ipc_error())),
        (
            "worst_leakage_error",
            Json::Num(summary.worst_leakage_error()),
        ),
        (
            "schemes",
            Json::Arr(
                summary
                    .per_scheme
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("kind", Json::Str(s.kind.clone())),
                            ("mean_ipc", Json::Num(s.mean_ipc)),
                            (
                                "mean_bits_per_assessment",
                                Json::Num(s.mean_bits_per_assessment),
                            ),
                            ("validated", Json::Int(s.validated as i64)),
                            ("mean_ipc_error", Json::Num(s.mean_ipc_error)),
                            ("max_ipc_error", Json::Num(s.max_ipc_error)),
                            ("mean_leakage_error", Json::Num(s.mean_leakage_error)),
                            ("max_leakage_error", Json::Num(s.max_leakage_error)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn run() -> Result<(), UntangleError> {
    let (settings, out, resume, retries): (SweepSettings, String, bool, usize) =
        Flags::read(std::env::args().skip(1), |f| {
            Ok((
                settings_from(f)?,
                f.value("--out", "target/exp_scenarios".to_string())?,
                f.switch("--resume"),
                f.value("--retries", 2)?,
            ))
        })?;

    obs::diag!(
        "sweeping {} scenarios of {} instrs (interval {}, <= {} slices, validate every {})",
        settings.count,
        settings.trace_instrs,
        settings.interval_instrs,
        settings.max_slices,
        settings.validate_every
    );

    let out_dir = Path::new(&out);
    let store = CheckpointStore::new(out_dir.join("checkpoints"))?;
    let (outcome, wall) = timed(|| {
        run_scenario_sweep(
            out_dir,
            &settings,
            Some(&store),
            resume,
            RetryPolicy::new(retries),
        )
    });
    let outcome = outcome?;

    for f in &outcome.failures {
        obs::diag!(
            "scenario {} attempt {} panicked ({}): {}",
            f.item,
            f.attempt,
            if f.recovered { "recovered" } else { "fatal" },
            f.message
        );
    }
    for (i, e) in &outcome.errors {
        obs::diag!("scenario {i} failed: {e}");
    }

    let summary = summarize(&outcome.results, &settings);
    print_summary(&summary, &outcome);

    let section = section_json(&summary, &settings, outcome.resumed, wall.as_secs_f64());
    update_section(
        Path::new("BENCH_experiments.json"),
        "exp_scenarios",
        &section,
    )?;
    println!("\nWrote BENCH_experiments.json section 'exp_scenarios' (out dir: {out})");
    obs::emit_summary();

    if !outcome.is_complete() {
        let failed = outcome.results.iter().filter(|r| r.is_none()).count();
        return Err(UntangleError::InvalidConfig(format!(
            "{failed} of {} scenarios failed; see diagnostics above",
            summary.scenarios
        )));
    }
    Ok(())
}
