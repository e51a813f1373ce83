//! Regenerates **Table 6**: leakage of Mixes 1–4 under Time and
//! Untangle — average leakage per assessment and average total leakage
//! per workload — plus the headline per-assessment reduction (the paper
//! reports 78 % on average).
//!
//! Usage: `cargo run --release -p untangle-bench --bin exp_table6
//! [--scale 0.01] [--out results]`
//!
//! The mixes run through the same sweep as `exp_mixes` (without
//! checkpoints) and fan out across threads; repeated `R_max` solves
//! deduplicate through the global cache. Also measures the warm-started
//! vs cold rate-table precompute and appends everything to
//! `BENCH_experiments.json`. Exits 1, after writing what did complete,
//! when a mix errors or panics; an invalid `--scale` exits 1 before
//! anything is written.

use untangle_bench::experiments::{leakage_summary, run_mix_sweep};
use untangle_bench::harness::timed;
use untangle_bench::parallel::{self, RetryPolicy};
use untangle_bench::parse_flag;
use untangle_bench::report::{update_section, Json};
use untangle_bench::table::{f2, TextTable};
use untangle_core::runner::RunnerConfig;
use untangle_core::scheme::SchemeKind;
use untangle_core::UntangleError;
use untangle_info::rate_table::RateTable;
use untangle_info::{Channel, RmaxCache, RmaxSolver};
use untangle_obs as obs;
use untangle_workloads::mix::mix_by_id;

fn main() {
    if let Err(e) = run() {
        eprintln!("exp_table6: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), UntangleError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: f64 = parse_flag(&args, "--scale", 0.01)?;
    let out_dir: String = parse_flag(&args, "--out", "results".to_string())?;
    // Also rejects a bad scale before anything is written.
    let params = RunnerConfig::eval_scale(SchemeKind::Untangle, scale)?.params;
    std::fs::create_dir_all(&out_dir)?;

    obs::diag!(
        "# Table 6 at scale {scale} (mixes 1-4, Time vs Untangle, {} thread(s))",
        parallel::thread_count()
    );
    let selected = (1..=4)
        .map(|id| {
            mix_by_id(id)
                .ok_or_else(|| UntangleError::InvalidConfig(format!("mix {id} is not defined")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (outcome, wall) =
        timed(|| run_mix_sweep(&selected, scale, RetryPolicy::default(), None, false));
    for failure in &outcome.failures {
        obs::diag!(
            "worker fault: mix item {} attempt {} panicked ({})",
            failure.item,
            failure.attempt,
            failure.message
        );
    }
    for (item, e) in &outcome.errors {
        obs::diag!("mix item {item} failed: {e}");
    }
    let missing = outcome.results.iter().filter(|s| s.is_none()).count();
    let summaries: Vec<_> = outcome.results.into_iter().flatten().collect();
    let rows = leakage_summary(&summaries);

    let mut table = TextTable::new(vec![
        "Mix",
        "Time avg leak/assess (bit)",
        "Time avg total (bit)",
        "Untangle avg leak/assess (bit)",
        "Untangle avg total (bit)",
        "reduction",
    ]);
    let mut reductions = Vec::new();
    for r in &rows {
        table.row(vec![
            format!("Mix {}", r.mix_id),
            f2(r.time_per_assessment),
            f2(r.time_total),
            f2(r.untangle_per_assessment),
            f2(r.untangle_total),
            format!("{:.0} %", r.per_assessment_reduction() * 100.0),
        ]);
        reductions.push(r.per_assessment_reduction());
    }
    println!("{}", table.render());
    println!(
        "Average per-assessment leakage reduction: {:.0} % (paper: 78 %)",
        reductions.iter().sum::<f64>() / reductions.len() as f64 * 100.0
    );
    println!(
        "Paper Table 6 reference — Time: 3.2 bits/assess, 637.6-1084.1 total;\n\
         Untangle: 0.4/0.7/0.7/1.0 bits/assess, 38.5/65.5/70.0/96.0 total."
    );

    let path = format!("{out_dir}/table6.csv");
    untangle_bench::write_artifact(&path, table.render_csv().as_bytes())?;
    obs::diag!("wrote {path}");

    // Warm-started vs cold rate-table precompute on the production table.
    // The warm side is `precompute_cached` on a fresh cache; the cold
    // side solves every entry from the uniform start.
    let (table_config, options) = params.rate_table_spec(4)?;
    let (warm_table, warm_stats) =
        RateTable::precompute_cached(&table_config, &options, &RmaxCache::new())?;
    let mut cold_inner_iterations = 0;
    let mut cold_outer_iterations = 0;
    let mut max_rate_diff = 0.0f64;
    for (m, warm_rate) in warm_table.rates().iter().enumerate() {
        let channel = Channel::new(table_config.entry_channel_config(m)?)?;
        let cold = RmaxSolver::with_options(channel, options.clone()).solve()?;
        cold_inner_iterations += cold.diagnostics.inner_iterations;
        cold_outer_iterations += cold.diagnostics.outer_iterations;
        max_rate_diff = max_rate_diff.max((warm_rate - cold.upper_bound).abs());
    }
    let saving = 1.0 - warm_stats.inner_iterations as f64 / cold_inner_iterations as f64;
    println!(
        "\nRate-table precompute ({} entries): cold {cold_inner_iterations} inner iterations, \
         warm {} ({:.0} % fewer), max certified-rate difference {max_rate_diff:.1e}",
        warm_stats.entries,
        warm_stats.inner_iterations,
        saving * 100.0,
    );

    let cache = RmaxCache::global().stats();
    let section = Json::obj(vec![
        ("scale", Json::Num(scale)),
        ("threads", Json::Int(parallel::thread_count() as i64)),
        ("parallel", Json::Bool(parallel::is_parallel())),
        ("wall_clock_s", Json::Num(wall.as_secs_f64())),
        (
            "rmax_cache",
            Json::obj(vec![
                ("hits", Json::Int(cache.hits as i64)),
                ("misses", Json::Int(cache.misses as i64)),
                ("hit_rate", Json::Num(cache.hit_rate())),
            ]),
        ),
        (
            "rate_table_precompute",
            Json::obj(vec![
                ("entries", Json::Int(warm_stats.entries as i64)),
                (
                    "cold_inner_iterations",
                    Json::Int(cold_inner_iterations as i64),
                ),
                (
                    "warm_inner_iterations",
                    Json::Int(warm_stats.inner_iterations as i64),
                ),
                (
                    "cold_outer_iterations",
                    Json::Int(cold_outer_iterations as i64),
                ),
                (
                    "warm_outer_iterations",
                    Json::Int(warm_stats.outer_iterations as i64),
                ),
                ("warm_saving", Json::Num(saving)),
                ("max_rate_diff", Json::Num(max_rate_diff)),
            ]),
        ),
    ]);
    let report_path = std::path::Path::new("BENCH_experiments.json");
    update_section(report_path, "exp_table6", &section)?;
    obs::diag!("updated {} (exp_table6 section)", report_path.display());
    if missing > 0 {
        return Err(UntangleError::InvalidConfig(format!(
            "{missing} of {} mixes failed; see diagnostics above",
            selected.len()
        )));
    }
    Ok(())
}
