//! A rerun of `exp_scenarios` over finished traces reads each trace
//! once: `evaluate_scenario` opens it read-only for the index scan, and
//! the writer's recovery pass — which opens the file read-write and
//! checksums every frame — does not run.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("untangle_rerun_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `exp_scenarios --smoke` in `dir` (8 scenarios) and returns the
/// counters of its `UNTANGLE_OBS=summary` report.
fn smoke_counters(dir: &Path) -> Vec<(String, u64)> {
    let output = Command::new(env!("CARGO_BIN_EXE_exp_scenarios"))
        .current_dir(dir)
        .args(["--smoke", "--out", "sweep"])
        .env_remove("UNTANGLE_FAULT_INJECT")
        .env_remove("UNTANGLE_OBS_FILE")
        .env("UNTANGLE_OBS", "summary")
        .env("UNTANGLE_THREADS", "1")
        .output()
        .expect("spawn exp_scenarios");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "sweep failed:\n{stderr}");
    stderr
        .lines()
        .skip_while(|line| *line != "-- counters --")
        .skip(1)
        .take_while(|line| !line.starts_with("--"))
        .map(|line| {
            let (name, value) = line
                .split_once(' ')
                .unwrap_or_else(|| panic!("bad counter line {line:?}"));
            let value = value.trim().parse().expect("counter value");
            (name.to_string(), value)
        })
        .collect()
}

fn counter(counters: &[(String, u64)], name: &str) -> Option<u64> {
    counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

#[test]
fn a_rerun_over_finished_traces_scans_each_once_without_recovery() {
    let dir = scratch("smoke");
    let first = smoke_counters(&dir);
    assert_eq!(counter(&first, "scenarios.traces_generated"), Some(8));
    assert_eq!(counter(&first, "trace.index_scans"), Some(8));

    let second = smoke_counters(&dir);
    assert_eq!(counter(&second, "scenarios.traces_generated"), None);
    assert_eq!(counter(&second, "trace.index_scans"), Some(8));
    assert_eq!(
        counter(&second, "durable.recoveries"),
        None,
        "the rerun must not run the writer's recovery pass: {second:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
