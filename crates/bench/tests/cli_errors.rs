//! Bad command-line input must fail the experiment binaries cleanly:
//! exit status 1 with a diagnostic, never a panic (exit 101), never a
//! silent run of the defaults, and nothing written — no CSV, no
//! checkpoint, no `BENCH_experiments.json` section.
//!
//! Each case runs the real binary in a fresh scratch directory as its
//! working directory, so the default `--out results` and the report
//! file both land where the test can look for them.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("untangle_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every file under `dir`, recursively.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read scratch dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            out.extend(files_under(&path));
        } else {
            out.push(path);
        }
    }
    out
}

fn assert_rejected(tag: &str, exe: &str, args: &[&str]) {
    let dir = scratch(tag);
    let output = Command::new(exe)
        .current_dir(&dir)
        .args(args)
        .env_remove("UNTANGLE_FAULT_INJECT")
        .env_remove("UNTANGLE_OBS")
        .env_remove("UNTANGLE_OBS_FILE")
        .env("UNTANGLE_THREADS", "1")
        .output()
        .expect("spawn experiment binary");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(1),
        "{tag}: expected exit 1, got {:?}\n{stderr}",
        output.status
    );
    assert!(
        stderr.contains("invalid configuration"),
        "{tag}: expected a diagnostic, got:\n{stderr}"
    );
    let written = files_under(&dir);
    assert!(
        written.is_empty(),
        "{tag}: nothing may be written, found {written:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_scale_exits_1_without_writing() {
    let cases = [
        ("table6", env!("CARGO_BIN_EXE_exp_table6")),
        ("sensitivity", env!("CARGO_BIN_EXE_exp_sensitivity")),
        ("sweep", env!("CARGO_BIN_EXE_exp_sweep")),
        ("budget", env!("CARGO_BIN_EXE_exp_budget")),
        ("active_attacker", env!("CARGO_BIN_EXE_exp_active_attacker")),
    ];
    for (tag, exe) in cases {
        assert_rejected(tag, exe, &["--scale", "0"]);
    }
    assert_rejected(
        "mixes",
        env!("CARGO_BIN_EXE_exp_mixes"),
        &["--scale", "0", "--mix", "1"],
    );
}

#[test]
fn oversized_trace_block_exits_1_without_writing() {
    // Over the trace format's 2^20-instruction block cap.
    assert_rejected(
        "scenarios_block",
        env!("CARGO_BIN_EXE_exp_scenarios"),
        &["--smoke", "--block", "1048577"],
    );
}

#[test]
fn unparsable_flag_values_exit_1_without_writing() {
    assert_rejected(
        "mix_one",
        env!("CARGO_BIN_EXE_exp_mixes"),
        &["--scale", "0.0002", "--mix", "one"],
    );
    assert_rejected(
        "scale_typo",
        env!("CARGO_BIN_EXE_exp_mixes"),
        &["--scale", "0.0o1", "--mix", "1"],
    );
    assert_rejected(
        "scale_abc",
        env!("CARGO_BIN_EXE_exp_table6"),
        &["--scale", "abc"],
    );
    assert_rejected(
        "scale_missing",
        env!("CARGO_BIN_EXE_exp_table6"),
        &["--scale"],
    );
}

#[test]
fn unknown_arguments_exit_1_without_writing() {
    // A misspelled flag name must not run the default experiment.
    let cases = [
        ("ablation", env!("CARGO_BIN_EXE_exp_ablation")),
        ("active_attacker", env!("CARGO_BIN_EXE_exp_active_attacker")),
        ("budget", env!("CARGO_BIN_EXE_exp_budget")),
        ("channel", env!("CARGO_BIN_EXE_exp_channel")),
        ("mixes", env!("CARGO_BIN_EXE_exp_mixes")),
        ("replay", env!("CARGO_BIN_EXE_exp_replay")),
        ("scenarios", env!("CARGO_BIN_EXE_exp_scenarios")),
        ("sensitivity", env!("CARGO_BIN_EXE_exp_sensitivity")),
        ("sweep", env!("CARGO_BIN_EXE_exp_sweep")),
        ("table6", env!("CARGO_BIN_EXE_exp_table6")),
        ("tables", env!("CARGO_BIN_EXE_exp_tables")),
    ];
    for (tag, exe) in cases {
        assert_rejected(&format!("{tag}_scael"), exe, &["--scael", "0.001"]);
    }
    // Nor may a value without its flag.
    assert_rejected("table6_stray", env!("CARGO_BIN_EXE_exp_table6"), &["0.001"]);
}
