//! Equivalence suite for the solver kernel layer.
//!
//! The optimized `solve_warm` path (no-alloc ascent workspace, hoisted
//! `log2 p(y)` tables, value-only backtracking trials) must be
//! bit-identical to the frozen pre-kernel reference implementation,
//! `RmaxSolver::solve_warm_reference`, across randomized channels, both
//! cold and warm-started.
//!
//! The random inputs use an inline splitmix64 so the suite needs no RNG
//! dependency and every run sees the same channels.

use untangle_info::channel::{Channel, ChannelConfig, DelayDist};
use untangle_info::{DinkelbachOptions, RmaxSolver, WarmStart};

/// Deterministic splitmix64 stream.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

fn random_channel(rng: &mut SplitMix) -> Channel {
    let cooldown = rng.range(2, 9);
    let n_symbols = rng.range(3, 8) as usize;
    let step = rng.range(1, 3);
    let delay_width = rng.range(2, 5) as usize;
    let config = ChannelConfig::evenly_spaced(
        cooldown,
        n_symbols,
        step,
        DelayDist::uniform(delay_width).unwrap(),
    )
    .unwrap();
    Channel::new(config).unwrap()
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs: {x} vs {y}"
        );
    }
}

#[test]
fn optimized_solver_matches_frozen_reference_on_random_channels() {
    let mut rng = SplitMix(0x3);
    let opts = DinkelbachOptions::default();
    for trial in 0..12 {
        let channel = random_channel(&mut rng);
        let optimized = RmaxSolver::with_options(channel.clone(), opts.clone())
            .solve()
            .unwrap();
        let reference = RmaxSolver::with_options(channel, opts.clone())
            .solve_warm_reference(None)
            .unwrap();
        // The kernels replicate the historical arithmetic exactly, so the
        // whole solve is bit-for-bit reproducible.
        assert_eq!(
            optimized.rate.to_bits(),
            reference.rate.to_bits(),
            "trial {trial}: rate must be bit-identical"
        );
        assert_eq!(
            optimized.upper_bound.to_bits(),
            reference.upper_bound.to_bits(),
            "trial {trial}: upper bound must be bit-identical"
        );
        assert_bits_eq(
            optimized.input.as_slice(),
            reference.input.as_slice(),
            "optimal input",
        );
        assert_eq!(optimized.status, reference.status, "trial {trial}");
        assert_eq!(
            optimized.diagnostics.inner_iterations, reference.diagnostics.inner_iterations,
            "trial {trial}: iteration trajectory must match exactly"
        );
    }
}

#[test]
fn warm_started_solver_matches_frozen_reference() {
    let mut rng = SplitMix(0x4);
    let opts = DinkelbachOptions::default();
    for trial in 0..6 {
        let channel = random_channel(&mut rng);
        let seed = RmaxSolver::with_options(channel.clone(), opts.clone())
            .solve()
            .unwrap();
        let warm = WarmStart::from_result(&seed);
        let optimized = RmaxSolver::with_options(channel.clone(), opts.clone())
            .solve_warm(Some(&warm))
            .unwrap();
        let reference = RmaxSolver::with_options(channel, opts.clone())
            .solve_warm_reference(Some(&warm))
            .unwrap();
        assert_eq!(
            optimized.rate.to_bits(),
            reference.rate.to_bits(),
            "trial {trial}"
        );
        assert_eq!(
            optimized.upper_bound.to_bits(),
            reference.upper_bound.to_bits(),
            "trial {trial}"
        );
    }
}
