//! The parallel-engine determinism contract: fanning an experiment out
//! over worker threads must produce **bit-identical** results to the
//! sequential loop, and the memoized `R'_max` cache must return exactly
//! what an uncached solve returns.
//!
//! Thread counts are pinned via `UNTANGLE_THREADS`. The assertions stay
//! valid even if the two env-using tests race on the variable: the whole
//! point is that *any* thread count yields the same bits.

use untangle_bench::experiments::{run_mix_sweep, sensitivity_study};
use untangle_bench::parallel::RetryPolicy;
use untangle_info::{Channel, Dist};
use untangle_info::{ChannelConfig, DelayDist, DinkelbachOptions, RmaxCache, RmaxSolver};
use untangle_trace::synth::TraceRng;
use untangle_workloads::mix::{mix_by_id, Mix};
use untangle_workloads::spec::spec_by_name;

/// Every per-mix summary of the sweep, rendered: floats print in
/// shortest-roundtrip form, so equal strings mean equal bits for every
/// per-domain IPC, leakage total, assessment and Maintain count, and
/// partition-size quartile.
fn rendered_mix_sweep(mixes: &[Mix], scale: f64) -> Vec<String> {
    run_mix_sweep(mixes, scale, RetryPolicy::default(), None, false)
        .results
        .iter()
        .map(|s| s.as_ref().expect("mix completes").to_json().render())
        .collect()
}

#[test]
fn parallel_mix_sweep_is_bit_identical_to_sequential() {
    let mixes: Vec<_> = [1, 2, 3].iter().map(|&i| mix_by_id(i).unwrap()).collect();
    let scale = 0.001;

    std::env::set_var("UNTANGLE_THREADS", "1");
    let sequential = rendered_mix_sweep(&mixes, scale);
    std::env::set_var("UNTANGLE_THREADS", "4");
    let parallel = rendered_mix_sweep(&mixes, scale);
    std::env::remove_var("UNTANGLE_THREADS");

    assert_eq!(sequential.len(), mixes.len());
    assert_eq!(sequential, parallel, "fan-out must not change any bit");
}

#[test]
fn parallel_sensitivity_study_is_bit_identical_to_sequential() {
    let benchmarks = [
        *spec_by_name("povray_0").unwrap(),
        *spec_by_name("mcf_0").unwrap(),
        *spec_by_name("lbm_0").unwrap(),
    ];
    let scale = 0.002;

    let row_bits = |rows: &[untangle_bench::experiments::SensitivityRow]| -> Vec<u64> {
        rows.iter()
            .flat_map(|r| {
                r.normalized_ipc
                    .iter()
                    .map(|v| v.to_bits())
                    .chain(std::iter::once(r.adequate.bytes()))
                    .collect::<Vec<_>>()
            })
            .collect()
    };

    std::env::set_var("UNTANGLE_THREADS", "1");
    let sequential = row_bits(&sensitivity_study(&benchmarks, scale).unwrap());
    std::env::set_var("UNTANGLE_THREADS", "4");
    let parallel = row_bits(&sensitivity_study(&benchmarks, scale).unwrap());
    std::env::remove_var("UNTANGLE_THREADS");

    assert_eq!(sequential, parallel, "fan-out must not change any bit");
}

#[test]
fn cached_solves_match_uncached_randomized() {
    let cache = RmaxCache::new();
    let options = DinkelbachOptions::default();
    let mut gen = TraceRng::new(0xace5);
    for case in 0..10 {
        let cooldown = 2 + gen.below(10);
        let n_symbols = 2 + gen.below(3) as usize;
        let step = 1 + gen.below(3);
        let width = 1 + gen.below(4) as usize;
        let delay = if width == 1 {
            DelayDist::none()
        } else {
            DelayDist::uniform(width).unwrap()
        };
        let config = ChannelConfig::evenly_spaced(cooldown, n_symbols, step, delay)
            .expect("sampled config is valid");

        let direct = RmaxSolver::with_options(
            Channel::new(config.clone()).expect("valid channel"),
            options.clone(),
        )
        .solve()
        .expect("solver converges");
        let cached = cache
            .solve(&config, &options)
            .expect("cached solve converges");

        let ctx = format!(
            "case {case}: cooldown {cooldown} n_symbols {n_symbols} step {step} width {width}"
        );
        assert_eq!(cached.rate.to_bits(), direct.rate.to_bits(), "{ctx}");
        assert_eq!(
            cached.upper_bound.to_bits(),
            direct.upper_bound.to_bits(),
            "{ctx}"
        );
        let bits = |d: &Dist| d.as_slice().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&cached.input), bits(&direct.input), "{ctx}");

        // A second lookup is a pure hit and returns the same bits again.
        let again = cache.solve(&config, &options).expect("hit");
        assert_eq!(again.rate.to_bits(), cached.rate.to_bits(), "{ctx}");
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, 10);
    assert_eq!(stats.hits, 10);
}
