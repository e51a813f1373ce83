//! The on-disk checkpoint format of both sweeps, pinned byte for byte.
//!
//! `exp_mixes` and `exp_scenarios` resume from the checkpoint files a
//! previous run left behind, possibly one built from an older revision.
//! The FNV-1a of the exact bytes [`CheckpointStore::save`] writes for a
//! fixed [`MixSummary`] and a fixed [`ScenarioResult`] is fixed here, so
//! a change to the file names, the slot framing, the
//! `{"version","fingerprint",payload}` object or either payload
//! rendering fails this test instead of orphaning checkpoints on disk.
//! The same fixtures drive the torn-file sweep: every strict prefix of a
//! saved checkpoint, and one with trailing garbage, must load as a
//! detected corruption for both payload types.

use std::fmt::Debug;
use std::path::PathBuf;

use untangle_bench::checkpoint::{
    sweep_fingerprint, Checkpoint, CheckpointStore, MixSummary, SchemeSummary,
};
use untangle_bench::experiments::MIX_SEED_BASE;
use untangle_bench::scenarios::{
    scenario_fingerprint, ScenarioResult, SchemeEstimate, SchemeValidation, SweepSettings,
};
use untangle_core::scheme::SchemeKind;
use untangle_core::UntangleError;
use untangle_info::DinkelbachOptions;
use untangle_workloads::scenario_set;

fn mix_summary() -> MixSummary {
    MixSummary {
        mix_id: 3,
        labels: vec!["mcf_0+aes".into(), "povray_0+rsa".into()],
        sensitive: vec![true, false],
        total_demand_mb: 18.5,
        schemes: SchemeKind::ALL
            .into_iter()
            .enumerate()
            .map(|(k, kind)| SchemeSummary {
                kind: kind.name().to_string(),
                ipc: vec![1.25 + k as f64, 0.1 + 0.2],
                total_bits: vec![12.5 * k as f64, 1.0 / 3.0],
                assessments: vec![40 * k as u64, 7],
                maintains: vec![36 * k as u64, 0],
                quartiles: if kind == SchemeKind::Static {
                    vec![None, None]
                } else {
                    vec![
                        Some([
                            "1 MB".into(),
                            "1 MB".into(),
                            "2 MB".into(),
                            "2 MB".into(),
                            "4 MB".into(),
                        ]),
                        None,
                    ]
                },
            })
            .collect(),
    }
}

fn mix_fingerprint() -> String {
    sweep_fingerprint(3, 0.01, MIX_SEED_BASE, &DinkelbachOptions::default())
}

fn scenario_result() -> ScenarioResult {
    ScenarioResult {
        id: 5,
        name: "adversarial_005".into(),
        class: "adversarial".into(),
        trace_instrs: 24_000,
        slices: 3,
        schemes: ["Static", "Untangle"]
            .iter()
            .enumerate()
            .map(|(k, kind)| SchemeEstimate {
                kind: kind.to_string(),
                ipc: 0.1 + 0.2 + k as f64,
                bits_per_assessment: 1.0 / 3.0 * k as f64,
                assessments: 17 * k as u64,
                maintains: 11 * k as u64,
                simulated_instrs: 36_000 + k as u64,
            })
            .collect(),
        validation: vec![SchemeValidation {
            kind: "Untangle".into(),
            full_ipc: 1.0 / 7.0,
            full_bits_per_assessment: 0.0,
            ipc_error: 2.5e-3,
            leakage_error: 0.0625,
        }],
    }
}

fn scenario_fingerprint_5() -> String {
    scenario_fingerprint(&scenario_set(8)[5], &SweepSettings::smoke(), false)
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("untangle_ckpt_format_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Saves `item` and returns the checkpoint's file name and bytes.
fn saved_bytes<T: Checkpoint>(tag: &str, item: &T, fingerprint: &str) -> (String, Vec<u8>) {
    let dir = scratch(tag);
    let store = CheckpointStore::<T>::new(&dir).unwrap();
    store.save(item, fingerprint).unwrap();
    let path = store.path_for(item.id());
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (name, bytes)
}

#[test]
fn mix_checkpoint_bytes_are_pinned() {
    let fingerprint = mix_fingerprint();
    assert_eq!(fingerprint, "1e1e5b02ca56e03c");
    let (name, bytes) = saved_bytes("mix_pin", &mix_summary(), &fingerprint);
    assert_eq!(name, "mix03.json");
    assert_eq!(bytes.len(), 921);
    assert_eq!(
        format!("{:016x}", untangle_durable::fnv1a(&bytes)),
        "5e8482f2bedd1c40"
    );
}

#[test]
fn scenario_checkpoint_bytes_are_pinned() {
    let fingerprint = scenario_fingerprint_5();
    assert_eq!(fingerprint, "2325e9e0fc7d611f");
    let (name, bytes) = saved_bytes("scenario_pin", &scenario_result(), &fingerprint);
    assert_eq!(name, "scenario005.json");
    assert_eq!(bytes.len(), 590);
    assert_eq!(
        format!("{:016x}", untangle_durable::fnv1a(&bytes)),
        "1619aa133b4d404a"
    );
}

/// Every strict byte prefix of a saved checkpoint — a kill at any point
/// of a non-atomic write — and appended garbage must load as a
/// *detected* corruption; the intact bytes must still load.
fn assert_every_truncation_detected<T>(tag: &str, item: T, fingerprint: &str)
where
    T: Checkpoint + PartialEq + Debug,
{
    let dir = scratch(tag);
    let store = CheckpointStore::<T>::new(&dir).unwrap();
    store.save(&item, fingerprint).unwrap();
    let id = item.id();
    let path = store.path_for(id);
    let full = std::fs::read(&path).unwrap();
    assert!(full.len() > 64, "checkpoint should be non-trivial");

    for len in 0..full.len() {
        std::fs::write(&path, &full[..len]).unwrap();
        let result = store.load(id, fingerprint);
        assert!(
            matches!(result, Err(UntangleError::Checkpoint { .. })),
            "{len}-byte prefix of a {}-byte checkpoint must be detected, got {result:?}",
            full.len()
        );
    }

    let mut padded = full.clone();
    padded.extend_from_slice(b"tail");
    std::fs::write(&path, &padded).unwrap();
    assert!(
        store.load(id, fingerprint).is_err(),
        "trailing garbage must be detected"
    );

    std::fs::write(&path, &full).unwrap();
    assert_eq!(store.load(id, fingerprint).unwrap(), Some(item));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_truncation_and_trailing_garbage_is_detected() {
    assert_every_truncation_detected("mix_torn", mix_summary(), &mix_fingerprint());
    assert_every_truncation_detected(
        "scenario_torn",
        scenario_result(),
        &scenario_fingerprint_5(),
    );
}
