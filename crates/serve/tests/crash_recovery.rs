//! Crash-recovery harness for the serve daemon: the real
//! `untangle-serve` binary is killed at durable-write boundaries and
//! mid-write, restarted, and required to finish a decision stream that
//! is byte-identical to an uninterrupted run's.
//!
//! The sweep has two layers:
//!
//! * **Exhaustive enumeration** — a clean probe run reports how many
//!   durable writes the daemon performs (the `durable.writes` obs
//!   counter: one journal batch and one output-log append per chunk,
//!   and snapshot stores), then *every* write index is killed once
//!   per fault kind under `UNTANGLE_FAULT_INJECT` (`kill_at_write:N`
//!   aborts before the Nth write transfers a byte; `torn_write:N`
//!   persists a strict prefix of it first) and the restarted daemon
//!   must converge to the baseline.
//! * **Randomized chains** — at least 100 randomized samples (seeded by
//!   `UNTANGLE_CRASH_SEED`, default fixed, echoed so a CI failure is
//!   reproducible) each run a *chain* of up to three kills — crash,
//!   restart into a second crash, restart again — before the final
//!   clean restart, exercising recovery-of-a-recovery paths the
//!   enumeration cannot reach.
//!
//! The byte-identity witness is the `--out` decision stream itself; the
//! state directory (journal + snapshot) is the daemon's own business.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use untangle_serve::synth::{synth_events, SynthConfig};
use untangle_serve::{Event, ServeConfig};

/// Small enough that the full sweep stays in CI budget; shaped so every
/// scheme admits, every gate fires (tainted telemetry, exhausted
/// budgets), and several snapshot cadences elapse mid-stream.
const SYNTH: SynthConfig = SynthConfig {
    domains: 8,
    rounds: 4,
    seed: 7,
    include_time: true,
    tainted_every: 5,
    budget_every: 3,
};
const BURST: &str = "7";
const SNAPSHOT_EVERY: &str = "10";
/// Randomized chain samples on top of the exhaustive enumeration.
const RANDOM_SAMPLES: u64 = 100;

fn serve(dir: &Path, input: &Path, out: &str, wal: Option<&str>, fault: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_untangle-serve"));
    cmd.current_dir(dir)
        .args(["--replay".as_ref(), input.as_os_str()])
        .args(["--out", out, "--burst", BURST])
        // Never inherit CI's `worker_panic:N` budget (or a previous
        // phase's kill point) by accident.
        .env_remove("UNTANGLE_FAULT_INJECT")
        .env("UNTANGLE_OBS", "summary");
    if let Some(state_dir) = wal {
        cmd.args(["--wal", state_dir, "--snapshot-every", SNAPSHOT_EVERY]);
    }
    if let Some(budget) = fault {
        cmd.env("UNTANGLE_FAULT_INJECT", budget);
    }
    cmd.output().expect("spawn untangle-serve")
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("untangle_serve_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    let path = dir.join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Parses the counter `name` out of the obs summary table on stderr
/// (`name  value` rows under `-- counters --`).
fn counter(stderr: &[u8], name: &str) -> u64 {
    let text = String::from_utf8_lossy(stderr);
    text.lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            if parts.next()? != name {
                return None;
            }
            parts.next()?.parse().ok()
        })
        .next()
        .unwrap_or_else(|| panic!("no {name} counter in stderr:\n{text}"))
}

/// xorshift64 — deterministic sweep randomness, no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

#[test]
fn every_kill_point_recovers_byte_identically() {
    // --- Fixture: a deterministic synthetic event stream on disk ---
    let base = fresh_dir("baseline");
    let events: Vec<String> = synth_events(&ServeConfig::test_scale().params, &SYNTH)
        .iter()
        .map(Event::render)
        .collect();
    let input = base.join("in.jsonl");
    std::fs::write(&input, events.join("\n") + "\n").expect("write fixture");

    // --- Baselines: the plain engine and an uninterrupted durable run
    // must already agree byte for byte; the durable probe reports the
    // write count that bounds the sweep. ---
    let plain = serve(&base, &input, "plain.jsonl", None, None);
    assert!(
        plain.status.success(),
        "plain baseline failed:\n{}",
        String::from_utf8_lossy(&plain.stderr)
    );
    let clean = serve(&base, &input, "clean.jsonl", Some("clean_state"), None);
    assert!(
        clean.status.success(),
        "durable baseline failed:\n{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let baseline = read(&base, "plain.jsonl");
    assert_eq!(
        read(&base, "clean.jsonl"),
        baseline,
        "an uninterrupted durable run must match the plain engine"
    );
    let writes = counter(&clean.stderr, "durable.writes");
    assert!(
        writes >= 10,
        "expected a run with many durable writes, saw {writes}"
    );
    println!("clean durable run: {writes} durable writes");
    // Group commit: one journal batch (one sync) per chunk, one record
    // per event.
    let burst: usize = BURST.parse().expect("burst");
    assert_eq!(
        counter(&clean.stderr, "durable.wal_syncs"),
        events.len().div_ceil(burst) as u64,
        "one journal sync per chunk"
    );
    assert_eq!(
        counter(&clean.stderr, "durable.wal_appends"),
        events.len() as u64,
        "one journal record per event"
    );

    // A restart over completed state is an idempotent no-op.
    let again = serve(&base, &input, "clean.jsonl", Some("clean_state"), None);
    assert!(again.status.success(), "idempotent restart failed");
    assert_eq!(read(&base, "clean.jsonl"), baseline);

    // --- Exhaustive enumeration: both fault kinds at every write ---
    for kind in ["kill_at_write", "torn_write"] {
        for n in 1..=writes {
            let budget = format!("{kind}:{n}");
            let dir = fresh_dir("enum");

            let killed = serve(&dir, &input, "out.jsonl", Some("state"), Some(&budget));
            assert!(
                !killed.status.success(),
                "{budget} must abort the run (the clean run performs {writes} durable writes)"
            );

            let resumed = serve(&dir, &input, "out.jsonl", Some("state"), None);
            assert!(
                resumed.status.success(),
                "restart after {budget} failed:\n{}",
                String::from_utf8_lossy(&resumed.stderr)
            );
            assert_eq!(
                read(&dir, "out.jsonl"),
                baseline,
                "{budget}: restarted daemon must emit the baseline bytes"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // --- Randomized kill chains (crash during recovery included) ---
    let seed = std::env::var("UNTANGLE_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5eed_cafe_u64);
    println!("randomized sweep: UNTANGLE_CRASH_SEED={seed} samples={RANDOM_SAMPLES}");
    let mut rng = Rng(seed.max(1));
    for sample in 0..RANDOM_SAMPLES {
        let dir = fresh_dir("rand");
        let kills = 1 + rng.below(3);
        let mut trail = Vec::new();
        for _ in 0..kills {
            let kind = if rng.below(2) == 0 {
                "kill_at_write"
            } else {
                "torn_write"
            };
            let n = 1 + rng.below(writes);
            let budget = format!("{kind}:{n}");
            trail.push(budget.clone());
            let killed = serve(&dir, &input, "out.jsonl", Some("state"), Some(&budget));
            if killed.status.success() {
                // A restart performs fewer writes than a fresh run, so
                // a deep kill point may never fire; the run is then
                // simply complete.
                break;
            }
        }
        let resumed = serve(&dir, &input, "out.jsonl", Some("state"), None);
        assert!(
            resumed.status.success(),
            "seed {seed} sample {sample} (chain {trail:?}): restart failed:\n{}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        assert_eq!(
            read(&dir, "out.jsonl"),
            baseline,
            "seed {seed} sample {sample} (chain {trail:?}): bytes diverged from baseline"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base);
}
