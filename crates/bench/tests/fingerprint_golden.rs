//! Pins every FNV-1a-derived identifier the repository persists or
//! routes by: the `exp_mixes` checkpoint fingerprint, the scenario-sweep
//! checkpoint fingerprint and the serve engine's domain→shard
//! assignment. All three hash through `untangle_durable::fnv1a`; a
//! change to the hash or to the bytes fed to it would orphan every
//! checkpoint on disk (or move domains between shards), so the values
//! are fixed here.

use untangle_bench::checkpoint::sweep_fingerprint;
use untangle_bench::scenarios::{scenario_fingerprint, SweepSettings};
use untangle_info::DinkelbachOptions;
use untangle_serve::{ServeConfig, ServeEngine};
use untangle_workloads::scenario_set;

#[test]
fn sweep_fingerprint_is_pinned() {
    assert_eq!(
        sweep_fingerprint(1, 0.01, 0xfeed, &DinkelbachOptions::default()),
        "743e60b4e83a128a"
    );
}

#[test]
fn scenario_fingerprint_is_pinned() {
    let scenarios = scenario_set(8);
    assert_eq!(scenarios[3].id, 3);
    assert_eq!(
        scenario_fingerprint(&scenarios[3], &SweepSettings::smoke(), true),
        "77b5acc86eea8655"
    );
}

#[test]
fn shard_assignment_is_pinned() {
    let shards_of = |shards: usize| {
        let engine = ServeEngine::new(ServeConfig {
            shards,
            ..ServeConfig::test_scale()
        })
        .unwrap();
        (0..16u64).map(|d| engine.shard_of(d)).collect::<Vec<_>>()
    };
    assert_eq!(
        shards_of(2),
        [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0]
    );
    assert_eq!(
        shards_of(8),
        [5, 4, 7, 6, 1, 0, 3, 2, 5, 4, 7, 6, 1, 0, 3, 2]
    );
}
