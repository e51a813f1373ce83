//! The fault-injection harness for the experiment engine (CI runs this
//! with `UNTANGLE_FAULT_INJECT=worker_panic:3` twice: at the default
//! thread count and at `UNTANGLE_THREADS=1`, the sequential path).
//!
//! Everything lives in ONE test function: the injection budget and the
//! fired-count are process-global, and the `UNTANGLE_FAULT_INJECT`
//! variable is mutated mid-test, so concurrent test functions would race
//! on both. Sequential phases keep every assertion deterministic.

use untangle_bench::checkpoint::{CheckpointStore, MixSummary, SweepOutcome};
use untangle_bench::experiments::run_mix_sweep;
use untangle_bench::parallel::{fault, RetryPolicy};
use untangle_workloads::mix::{mix_by_id, Mix};

const SCALE: f64 = 0.0005;

/// Renders every summary of the sweep to one JSON string — the
/// byte-identity witness for the isolation and resume guarantees.
fn render(outcome: &SweepOutcome<MixSummary>) -> String {
    outcome
        .results
        .iter()
        .map(|s| s.as_ref().expect("sweep complete").to_json().render())
        .collect::<Vec<_>>()
        .join("\n")
}

fn two_mixes() -> Vec<Mix> {
    vec![mix_by_id(1).unwrap(), mix_by_id(2).unwrap()]
}

#[test]
fn injected_faults_are_isolated_and_resume_is_bit_identical() {
    // --- Phase 1: injected panics are isolated, retried, reported ---
    // Ensure the budget exists whether or not CI exported it. Nothing
    // in this process has consumed injections yet (single test fn).
    if std::env::var(fault::ENV).is_err() {
        std::env::set_var(fault::ENV, "worker_panic:3");
    }
    let budget: usize = std::env::var(fault::ENV)
        .unwrap()
        .strip_prefix("worker_panic:")
        .expect("harness uses the worker_panic mode")
        .parse()
        .expect("numeric injection budget");
    assert_eq!(fault::injected_count(), 0, "budget untouched at start");

    let mixes = two_mixes();
    // Worst case every injection hits the same item, so one more
    // attempt than the budget guarantees recovery.
    let faulty = run_mix_sweep(&mixes, SCALE, RetryPolicy::new(budget + 1), None, false);
    assert_eq!(fault::injected_count(), budget, "all injections fired");
    assert!(
        faulty.is_complete(),
        "sweep completed despite {budget} panics"
    );
    assert_eq!(
        faulty.failures.len(),
        budget,
        "report records exactly the injected failures"
    );
    assert!(faulty.failures.iter().all(|f| f.recovered));
    assert!(faulty
        .failures
        .iter()
        .all(|f| f.message.contains("injected fault")));

    // --- Phase 2: faulted results are bit-identical to a clean run ---
    std::env::remove_var(fault::ENV);
    let clean = run_mix_sweep(&mixes, SCALE, RetryPolicy::default(), None, false);
    assert!(clean.failures.is_empty());
    assert_eq!(
        render(&faulty),
        render(&clean),
        "retried items must not diverge from clean execution"
    );

    // --- Phase 3: kill + resume recomputes only the remaining items ---
    let dir = std::env::temp_dir().join("untangle_fault_injection_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::<MixSummary>::new(&dir).unwrap();

    // Simulate a run killed after finishing one item: only mix 1 ran,
    // and its checkpoint was written the moment it completed.
    let partial = run_mix_sweep(
        &mixes[..1],
        SCALE,
        RetryPolicy::default(),
        Some(&store),
        false,
    );
    assert!(partial.is_complete());
    assert_eq!(partial.resumed, 0, "no checkpoints existed yet");
    assert!(store.path_for(mixes[0].id).exists());

    // Resume over the full list: the finished item loads, the lost one
    // recomputes, and the final report is byte-identical.
    let resumed = run_mix_sweep(&mixes, SCALE, RetryPolicy::default(), Some(&store), true);
    assert_eq!(resumed.resumed, 1, "exactly the checkpointed item skipped");
    assert!(resumed.is_complete());
    assert_eq!(render(&resumed), render(&clean));

    // (Fingerprint mismatches and the no-`--resume` path are covered at
    // unit level in `checkpoint::tests`; re-running whole sweeps for
    // them here would only burn CI minutes.)

    // A torn checkpoint (kill mid-write before the atomic rename would
    // normally prevent this) is recomputed, never trusted.
    std::fs::write(store.path_for(mixes[0].id), "{ torn").unwrap();
    let after_corrupt = run_mix_sweep(&mixes, SCALE, RetryPolicy::default(), Some(&store), true);
    assert_eq!(after_corrupt.resumed, 1, "only mix 2's checkpoint is valid");
    assert!(after_corrupt.is_complete());
    assert_eq!(render(&after_corrupt), render(&clean));

    let _ = std::fs::remove_dir_all(&dir);
}
