//! Crash-recovery harness for the experiment engine: the real
//! `exp_mixes` and `exp_scenarios` binaries are killed at **every**
//! durable write boundary and mid-write, resumed, and required to
//! produce byte-identical artifacts.
//!
//! The sweep is exhaustive rather than sampled: a clean probe run
//! reports how many durable writes the binary performs (the
//! `durable.writes` obs counter — checkpoint save, `mixNN.csv`,
//! and the two `BENCH_experiments.json` sections), then every write
//! index is replayed twice under `UNTANGLE_FAULT_INJECT`:
//!
//! * `kill_at_write:N` — the process aborts *before* the Nth durable
//!   write transfers a byte (a power cut at a write boundary);
//! * `torn_write:N` — the Nth write persists only a strict prefix of
//!   its temp file before the abort (a power cut mid-write).
//!
//! Each killed run is then resumed (`--resume`) in the same directory
//! and its `mixNN.csv` must match the uninterrupted baseline byte for
//! byte. (`BENCH_experiments.json` embeds wall-clock time, so the CSV
//! artifact is the byte-identity witness.)
//!
//! Everything lives in ONE test function: the runs are spawned child
//! processes, but serial phases keep the scratch-directory bookkeeping
//! and the baseline/killed-run orderings deterministic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Small enough that the full sweep (2 runs per durable write, both
/// fault kinds) stays in CI budget; large enough that every scheme
/// makes real decisions.
const SCALE: &str = "0.0002";
const MIX: &str = "1";

fn exp_mixes(dir: &Path, fault: Option<&str>, resume: bool, obs_summary: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp_mixes"));
    cmd.current_dir(dir)
        .args(["--scale", SCALE, "--mix", MIX, "--out", "results"])
        // Never inherit CI's `worker_panic:N` budget (or a previous
        // phase's kill point) by accident.
        .env_remove("UNTANGLE_FAULT_INJECT");
    if resume {
        cmd.arg("--resume");
    }
    if obs_summary {
        cmd.env("UNTANGLE_OBS", "summary");
    } else {
        cmd.env_remove("UNTANGLE_OBS");
    }
    if let Some(budget) = fault {
        cmd.env("UNTANGLE_FAULT_INJECT", budget);
    }
    cmd.output().expect("spawn exp_mixes")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("untangle_bench_crash_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn mix_csv(dir: &Path) -> Vec<u8> {
    let path = dir
        .join("results")
        .join(format!("mix{:02}.csv", MIX.parse::<usize>().unwrap()));
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Parses the `durable.writes` counter out of the obs summary table on
/// stderr (`name  value` rows under `-- counters --`).
fn durable_writes(stderr: &[u8]) -> usize {
    let text = String::from_utf8_lossy(stderr);
    text.lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            if parts.next()? != "durable.writes" {
                return None;
            }
            parts.next()?.parse().ok()
        })
        .next()
        .unwrap_or_else(|| panic!("no durable.writes counter in stderr:\n{text}"))
}

#[test]
fn every_kill_point_recovers_byte_identically() {
    // --- Baseline: an uninterrupted run, probing the write count ---
    let base = fresh_dir("baseline");
    let clean = exp_mixes(&base, None, false, true);
    assert!(
        clean.status.success(),
        "baseline run failed:\n{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let baseline_csv = mix_csv(&base);
    let writes = durable_writes(&clean.stderr);
    assert!(
        writes >= 3,
        "expected at least checkpoint + csv + report writes, saw {writes}"
    );

    // --- Exhaustive kill-point sweep over both fault kinds ---
    for kind in ["kill_at_write", "torn_write"] {
        for n in 1..=writes {
            let budget = format!("{kind}:{n}");
            let dir = fresh_dir(&format!("{kind}_{n}"));

            let killed = exp_mixes(&dir, Some(&budget), false, false);
            assert!(
                !killed.status.success(),
                "{budget} must abort the run (the clean run performs {writes} durable writes)"
            );

            let resumed = exp_mixes(&dir, None, true, false);
            assert!(
                resumed.status.success(),
                "resume after {budget} failed:\n{}",
                String::from_utf8_lossy(&resumed.stderr)
            );
            assert_eq!(
                mix_csv(&dir),
                baseline_csv,
                "{budget}: resumed artifact must be byte-identical to the baseline"
            );

            // The checkpoint is durable write #1; any later kill point
            // leaves it behind for the resumed run to load instead of
            // recomputing the mix.
            if kind == "kill_at_write" && n >= 2 {
                let stderr = String::from_utf8_lossy(&resumed.stderr);
                assert!(
                    stderr.contains("(1 resumed from checkpoints)"),
                    "{budget}: expected a checkpoint resume, got:\n{stderr}"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Tiny scenario sweep: two traces, each a header write and one WAL
/// batch of three blocks and the finish frame, so the exhaustive
/// kill-point enumeration (2 runs per durable write) stays in CI
/// budget while still covering the trace header, a batch torn
/// mid-trace, checkpoint saves, and the report write.
const SCENARIO_ARGS: &[&str] = &[
    "--smoke",
    "--count",
    "2",
    "--trace-instrs",
    "6000",
    "--block",
    "2048",
    "--interval",
    "1000",
    "--slices",
    "2",
    "--validate-every",
    "2",
    "--out",
    "sweep",
];

fn exp_scenarios(dir: &Path, fault: Option<&str>, resume: bool, obs_summary: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp_scenarios"));
    cmd.current_dir(dir)
        .args(SCENARIO_ARGS)
        .env_remove("UNTANGLE_FAULT_INJECT")
        // One worker: the durable-write *order* is then deterministic,
        // so `kill_at_write:N` lands on the same write every run.
        .env("UNTANGLE_THREADS", "1");
    if resume {
        cmd.arg("--resume");
    }
    if obs_summary {
        cmd.env("UNTANGLE_OBS", "summary");
    } else {
        cmd.env_remove("UNTANGLE_OBS");
    }
    if let Some(budget) = fault {
        cmd.env("UNTANGLE_FAULT_INJECT", budget);
    }
    cmd.output().expect("spawn exp_scenarios")
}

/// Every `.trace` file under `<dir>/sweep/traces`, sorted by name.
fn trace_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let traces = dir.join("sweep").join("traces");
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&traces)
        .unwrap_or_else(|e| panic!("read {}: {e}", traces.display()))
        .filter_map(|entry| {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|ext| ext == "trace") {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                let bytes =
                    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
                Some((name, bytes))
            } else {
                None
            }
        })
        .collect();
    files.sort();
    files
}

#[test]
fn every_trace_generation_kill_point_recovers_byte_identically() {
    // --- Baseline: an uninterrupted sweep, probing the write count ---
    let base = fresh_dir("scenarios_baseline");
    let clean = exp_scenarios(&base, None, false, true);
    assert!(
        clean.status.success(),
        "baseline sweep failed:\n{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let baseline_traces = trace_files(&base);
    assert_eq!(baseline_traces.len(), 2, "expected two scenario traces");
    let writes = durable_writes(&clean.stderr);
    assert!(
        writes >= 7,
        "expected trace headers + block frames + finish frames + \
         checkpoints + report, saw {writes}"
    );

    // --- Exhaustive kill-point sweep over both fault kinds ---
    for kind in ["kill_at_write", "torn_write"] {
        for n in 1..=writes {
            let budget = format!("{kind}:{n}");
            let dir = fresh_dir(&format!("scenarios_{kind}_{n}"));

            let killed = exp_scenarios(&dir, Some(&budget), false, false);
            assert!(
                !killed.status.success(),
                "{budget} must abort the sweep (the clean sweep performs {writes} durable writes)"
            );

            let resumed = exp_scenarios(&dir, None, true, false);
            assert!(
                resumed.status.success(),
                "resume after {budget} failed:\n{}",
                String::from_utf8_lossy(&resumed.stderr)
            );
            assert_eq!(
                trace_files(&dir),
                baseline_traces,
                "{budget}: resumed trace files must be byte-identical to the baseline"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}
