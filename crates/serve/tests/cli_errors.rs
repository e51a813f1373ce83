//! Bad configurations must fail the `untangle-serve` daemon cleanly:
//! exit status 1 with a diagnostic, never a panic (exit 101), and no
//! output file — with or without the crash-consistent `--wal` mode.
//!
//! Each case runs the real binary in a fresh scratch directory as its
//! working directory, so anything it writes lands where the test can
//! look for it.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The committed replay fixture.
fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/serve_events.jsonl")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("untangle_serve_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn assert_rejected(tag: &str, args: &[&str]) {
    let dir = scratch(tag);
    let fixture = fixture();
    let output = Command::new(env!("CARGO_BIN_EXE_untangle-serve"))
        .current_dir(&dir)
        .arg("--replay")
        .arg(&fixture)
        .args(args)
        .env_remove("UNTANGLE_FAULT_INJECT")
        .env_remove("UNTANGLE_OBS")
        .env_remove("UNTANGLE_OBS_FILE")
        .env_remove("UNTANGLE_SHARDS")
        .output()
        .expect("spawn untangle-serve");
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
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("read scratch dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert!(
        written.is_empty(),
        "{tag}: nothing may be written, found {written:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_scale_that_rounds_the_progress_interval_to_zero_exits_1() {
    // 1e-7 is inside (0, 1] but rounds Untangle's progress interval to
    // zero instructions, which the batch runner rejects too.
    assert_rejected("scale", &["--scale", "1e-7", "--out", "out.jsonl"]);
    assert_rejected(
        "scale_wal",
        &["--scale", "1e-7", "--wal", "state", "--out", "out.jsonl"],
    );
}

#[test]
fn an_out_of_range_scale_exits_1() {
    assert_rejected("scale_zero", &["--scale", "0", "--out", "out.jsonl"]);
}
