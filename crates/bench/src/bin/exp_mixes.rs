//! Regenerates **Figure 10 and Figures 12–17**: for each workload mix,
//! the three chart rows — partition-size distribution, leakage per
//! assessment, and IPC normalized to Static — under all four schemes,
//! plus the §9 summary statistics (system-wide speedups and the
//! Maintain fraction).
//!
//! Usage: `cargo run --release -p untangle-bench --bin exp_mixes
//! [--scale 0.01] [--mix N] [--out results] [--resume] [--retries N]`
//! (omit `--mix` for all 16).
//!
//! The mixes fan out across threads (`UNTANGLE_THREADS` to override the
//! count) behind per-item panic isolation: a crashing mix is retried up
//! to `--retries` times and, if it never succeeds, recorded in the run
//! report while every other mix completes. Each finished mix is
//! checkpointed under `<out>/checkpoints/`; `--resume` skips mixes whose
//! checkpoint matches the current scale and seed, making a resumed run
//! byte-identical to an uninterrupted one. Output and the
//! `results/mixNN.csv` files are bit-identical to a sequential run. Also
//! appends its wall clock and `R_max` cache statistics to
//! `BENCH_experiments.json`. Exits 1, after writing what did complete,
//! when any mix errors or fails every attempt; an invalid `--scale`
//! exits 1 before anything is written.

use untangle_analysis::certify::{certify_scheme, CertifyConfig};
use untangle_bench::checkpoint::{CheckpointStore, MixSummary};
use untangle_bench::experiments::run_mix_sweep;
use untangle_bench::harness::timed;
use untangle_bench::parallel::{self, RetryPolicy};
use untangle_bench::plot::BarChart;
use untangle_bench::report::{update_section, Json};
use untangle_bench::table::{f2, f3, TextTable};
use untangle_bench::Flags;
use untangle_core::runner::RunnerConfig;
use untangle_core::scheme::SchemeKind;
use untangle_core::UntangleError;
use untangle_info::RmaxCache;
use untangle_obs as obs;
use untangle_workloads::mix::{mix_by_id, mixes};

fn print_mix(summary: &MixSummary, out_dir: &str) -> Result<(), UntangleError> {
    println!(
        "\n=== Mix {}: {} LLC-sensitive benchmarks; total LLC demand {:.1} MB ===",
        summary.mix_id,
        summary.sensitive.iter().filter(|&&s| s).count(),
        summary.total_demand_mb,
    );

    // Top row: partition-size distribution under Untangle.
    let mut dist = TextTable::new(vec![
        "workload", "scheme", "min", "q1", "median", "q3", "max",
    ]);
    for kind in [SchemeKind::Time, SchemeKind::Untangle] {
        let scheme = summary.scheme(kind);
        for (label, quartiles) in summary.labels.iter().zip(&scheme.quartiles) {
            if let Some([min, q1, med, q3, max]) = quartiles {
                dist.row(vec![
                    label.clone(),
                    kind.to_string(),
                    min.clone(),
                    q1.clone(),
                    med.clone(),
                    q3.clone(),
                    max.clone(),
                ]);
            }
        }
    }
    println!("-- partition size distribution (sampled every 100 µs-equivalent) --");
    println!("{}", dist.render());

    // Middle row: leakage per assessment.
    let mut leak = TextTable::new(vec!["workload", "TIME (bit)", "UNTANGLE (bit)"]);
    let time = summary.leakage_per_assessment(SchemeKind::Time);
    let unt = summary.leakage_per_assessment(SchemeKind::Untangle);
    for ((label, t), u) in summary.labels.iter().zip(&time).zip(&unt) {
        leak.row(vec![label.clone(), f3(*t), f3(*u)]);
    }
    println!("-- leakage per assessment --");
    println!("{}", leak.render());
    let mut chart = BarChart::new(
        "leakage per assessment (bit): TIME=3.17 flat; UNTANGLE:",
        40,
    );
    for (label, u) in summary.labels.iter().zip(&unt) {
        chart.bar(label.clone(), *u);
    }
    println!("{}", chart.render());

    // Bottom row: normalized IPC.
    let mut ipc = TextTable::new(vec!["workload", "STATIC", "TIME", "UNTANGLE", "SHARED"]);
    let norm: Vec<Vec<f64>> = SchemeKind::ALL
        .iter()
        .map(|&k| summary.normalized_ipc(k))
        .collect();
    for (i, label) in summary.labels.iter().enumerate() {
        ipc.row(vec![
            label.clone(),
            f2(norm[0][i]),
            f2(norm[1][i]),
            f2(norm[2][i]),
            f2(norm[3][i]),
        ]);
    }
    ipc.row(vec![
        "Geo. Mean".to_string(),
        f2(summary.speedup(SchemeKind::Static)),
        f2(summary.speedup(SchemeKind::Time)),
        f2(summary.speedup(SchemeKind::Untangle)),
        f2(summary.speedup(SchemeKind::Shared)),
    ]);
    println!("-- IPC normalized to STATIC --");
    println!("{}", ipc.render());

    println!(
        "Untangle Maintain fraction: {:.1} % (paper: ~90 % across all mixes)",
        summary.maintain_fraction() * 100.0
    );

    let path = format!("{out_dir}/mix{:02}.csv", summary.mix_id);
    let mut csv = TextTable::new(vec![
        "workload",
        "sensitive",
        "ipc_static",
        "ipc_time",
        "ipc_untangle",
        "ipc_shared",
        "leak_time",
        "leak_untangle",
    ]);
    for (i, label) in summary.labels.iter().enumerate() {
        csv.row(vec![
            label.clone(),
            summary.sensitive[i].to_string(),
            f3(norm[0][i]),
            f3(norm[1][i]),
            f3(norm[2][i]),
            f3(norm[3][i]),
            f3(time[i]),
            f3(unt[i]),
        ]);
    }
    untangle_bench::write_artifact(&path, csv.render_csv().as_bytes())?;
    obs::diag!("wrote {path}");
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("exp_mixes: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), UntangleError> {
    let (scale, only_mix, out_dir, resume, retries): (f64, usize, String, bool, usize) =
        Flags::read(std::env::args().skip(1), |f| {
            Ok((
                f.value("--scale", 0.01)?,
                f.value("--mix", 0)?,
                f.value("--out", "results".to_string())?,
                f.switch("--resume"),
                f.value("--retries", 1)?,
            ))
        })?;
    // Every run validates the scale again; checking it here rejects a
    // bad one before any checkpoint, CSV or report section is written.
    RunnerConfig::eval_scale(SchemeKind::Static, scale)?;
    std::fs::create_dir_all(&out_dir)?;

    let selected = if only_mix > 0 {
        vec![mix_by_id(only_mix).ok_or_else(|| {
            UntangleError::InvalidConfig(format!("--mix {only_mix} is outside 1..=16"))
        })?]
    } else {
        mixes()
    };

    // Checkpoints are always written (so any run can later be resumed);
    // `--resume` controls whether existing ones are consulted. A store
    // that cannot be opened degrades to a plain, non-resumable run.
    let store = match CheckpointStore::new(format!("{out_dir}/checkpoints")) {
        Ok(store) => Some(store),
        Err(e) => {
            obs::diag!("warning: {e}; running without checkpoints");
            None
        }
    };

    obs::diag!(
        "# Figures 10, 12-17 at scale {scale} ({} mixes x 4 schemes, {} thread(s){})",
        selected.len(),
        parallel::thread_count(),
        if resume { ", resuming" } else { "" }
    );
    let (outcome, wall) = timed(|| {
        run_mix_sweep(
            &selected,
            scale,
            RetryPolicy::new(retries),
            store.as_ref(),
            resume,
        )
    });
    let mut maintain_total = (0.0, 0);
    for summary in outcome.results.iter().flatten() {
        print_mix(summary, &out_dir)?;
        maintain_total.0 += summary.maintain_fraction();
        maintain_total.1 += 1;
    }
    println!(
        "\nOverall Untangle Maintain fraction across evaluated mixes: {:.1} %",
        maintain_total.0 / maintain_total.1.max(1) as f64 * 100.0
    );
    for failure in &outcome.failures {
        obs::diag!(
            "worker fault: mix item {} attempt {} panicked ({}){}",
            failure.item,
            failure.attempt,
            failure.message,
            if failure.recovered {
                "; recovered by retry"
            } else {
                ""
            }
        );
    }
    for (item, e) in &outcome.errors {
        obs::diag!("mix item {item} failed: {e}");
    }
    let missing = outcome.results.iter().filter(|s| s.is_none()).count();
    if missing > 0 {
        obs::diag!("warning: {missing} mix(es) failed and are missing above");
    }
    obs::diag!(
        "evaluated {} mixes ({} resumed from checkpoints) in {:.2} s on {} thread(s)",
        outcome.results.iter().flatten().count(),
        outcome.resumed,
        wall.as_secs_f64(),
        parallel::thread_count()
    );

    // Non-interference certificates (§5.1 action leakage): replay each
    // scheme across secret-equivalence classes under the taint audit
    // and embed the per-scheme verdict in the report. SHARED is out of
    // scope by design; its rejection is recorded rather than hidden.
    let mut certificates = Vec::new();
    let mut cert_table = TextTable::new(vec!["scheme", "verdict", "declassify sites"]);
    for kind in [
        SchemeKind::Static,
        SchemeKind::Time,
        SchemeKind::Untangle,
        SchemeKind::SecDcp,
        SchemeKind::Shared,
    ] {
        match certify_scheme(kind, &CertifyConfig::default()) {
            Ok(cert) => {
                let sites: Vec<String> = cert
                    .declassified_sites
                    .iter()
                    .map(|s| s.site.clone())
                    .collect();
                cert_table.row(vec![
                    cert.scheme.clone(),
                    cert.verdict.name().to_string(),
                    if sites.is_empty() {
                        "-".to_string()
                    } else {
                        sites.join(", ")
                    },
                ]);
                certificates.push(cert.to_json());
            }
            Err(e) => {
                cert_table.row(vec![
                    kind.name().to_string(),
                    "OutOfScope".to_string(),
                    e.to_string(),
                ]);
                certificates.push(Json::obj(vec![
                    ("scheme", Json::Str(kind.name().to_string())),
                    ("verdict", Json::Str("OutOfScope".to_string())),
                    ("reason", Json::Str(e.to_string())),
                ]));
            }
        }
    }
    println!("-- non-interference certificates (action leakage, §5.1) --");
    println!("{}", cert_table.render());

    let cache = RmaxCache::global().stats();
    let section = Json::obj(vec![
        ("scale", Json::Num(scale)),
        ("mixes", Json::Int(outcome.results.len() as i64)),
        ("resumed", Json::Int(outcome.resumed as i64)),
        (
            "worker_failures",
            Json::Arr(
                outcome
                    .failures
                    .iter()
                    .map(|f| {
                        Json::obj(vec![
                            ("item", Json::Int(f.item as i64)),
                            ("attempt", Json::Int(f.attempt as i64)),
                            ("recovered", Json::Bool(f.recovered)),
                            ("message", Json::Str(f.message.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("certificates", Json::Arr(certificates)),
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
    ]);
    let report_path = std::path::Path::new("BENCH_experiments.json");
    update_section(report_path, "exp_mixes", &section)?;

    // Internal telemetry (solver iterations, cache traffic, per-mix
    // spans) from the obs layer. Always written: an empty block under
    // `UNTANGLE_OBS=off` keeps the report schema stable.
    let metrics = metrics_section();
    update_section(report_path, "metrics", &metrics)?;
    obs::diag!(
        "updated {} (exp_mixes + metrics sections)",
        report_path.display()
    );
    obs::emit_summary();
    if missing > 0 {
        return Err(UntangleError::InvalidConfig(format!(
            "{missing} of {} mixes failed; see diagnostics above",
            outcome.results.len()
        )));
    }
    Ok(())
}

/// Renders the global obs snapshot as the report's `"metrics"` section.
fn metrics_section() -> Json {
    let snap = obs::snapshot();
    Json::obj(vec![
        ("obs_mode", Json::Str(snap.mode.name().to_string())),
        (
            "counters",
            Json::Arr(
                snap.counters
                    .iter()
                    .map(|(name, v)| {
                        Json::obj(vec![
                            ("name", Json::Str(name.clone())),
                            ("value", Json::Int(*v as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "gauges",
            Json::Arr(
                snap.gauges
                    .iter()
                    .map(|(name, v)| {
                        Json::obj(vec![
                            ("name", Json::Str(name.clone())),
                            ("value", Json::Num(*v)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Arr(
                snap.spans
                    .iter()
                    .map(|(name, s)| {
                        Json::obj(vec![
                            ("name", Json::Str(name.clone())),
                            ("count", Json::Int(s.count as i64)),
                            ("total_ns", Json::Int(s.total_ns as i64)),
                            ("max_ns", Json::Int(s.max_ns as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
