//! Property-style tests of the action heuristic and the schedules,
//! driven by a seeded [`TraceRng`] instead of a property-testing
//! framework (the build is offline). Each case prints its sampled
//! inputs on failure for reproduction.

use untangle_core::action::Action;
use untangle_core::heuristic::{
    decide_by_footprint, decide_global, HeuristicConfig, SHRINK_FREE_THRESHOLD,
};
use untangle_core::schedule::Schedule;
use untangle_core::scheme::{DomainTier, SchemeKind, SchemeParams};
use untangle_sim::config::PartitionSize;
use untangle_sim::umon::HitCurve;
use untangle_trace::synth::TraceRng;

/// The simulated LLC both rules run against.
const LLC: u64 = 16 << 20;

fn curve(gen: &mut TraceRng) -> HitCurve {
    let mut c = [0u64; 9];
    for slot in c.iter_mut() {
        *slot = gen.below(10_000);
    }
    c
}

fn size(gen: &mut TraceRng) -> PartitionSize {
    PartitionSize::ALL[gen.below(9) as usize]
}

/// Both heuristics' decisions on one sampled input: the global hit-curve
/// rule over 1–4 random curves (deciding for a random domain among
/// them), and the footprint rule over a random footprint.
fn decisions(
    gen: &mut TraceRng,
    fill: usize,
    current: PartitionSize,
    free: u64,
) -> [(&'static str, Action); 2] {
    let cfg = HeuristicConfig::default();
    let curves: Vec<HitCurve> = (0..1 + gen.below(4)).map(|_| curve(gen)).collect();
    let domain = gen.below(curves.len() as u64) as usize;
    let footprint = gen.below(12 << 20);
    [
        (
            "global",
            decide_global(&curves, domain, fill, current, free, LLC, &cfg),
        ),
        (
            "footprint",
            decide_by_footprint(footprint, fill, current, free, &cfg),
        ),
    ]
}

#[test]
fn decision_is_affordable_and_supported() {
    let mut gen = TraceRng::new(0xdec1);
    for _ in 0..64 {
        let fill = gen.below(5000) as usize;
        let current = size(&mut gen);
        let free = gen.below(32u64 << 20);
        for (rule, a) in decisions(&mut gen, fill, current, free) {
            assert!(PartitionSize::ALL.contains(&a.size));
            assert!(
                a.size.bytes() <= current.bytes() + free,
                "{rule}: fill {fill} current {current:?} free {free}: decision must fit the budget"
            );
        }
    }
}

#[test]
fn empty_window_always_maintains() {
    let mut gen = TraceRng::new(0xe471);
    let fill = HeuristicConfig::default().min_window_fill.saturating_sub(1);
    for _ in 0..64 {
        let current = size(&mut gen);
        let free = gen.below(32u64 << 20);
        for (rule, a) in decisions(&mut gen, fill, current, free) {
            assert_eq!(a.size, current, "{rule}: current {current:?} free {free}");
        }
    }
}

#[test]
fn plentiful_pool_never_shrinks() {
    let mut gen = TraceRng::new(0x9001);
    for _ in 0..64 {
        let fill = (100 + gen.below(4900)) as usize;
        let current = size(&mut gen);
        let free = SHRINK_FREE_THRESHOLD + gen.below(8 << 20);
        for (rule, a) in decisions(&mut gen, fill, current, free) {
            assert!(
                a.size >= current,
                "{rule}: fill {fill} current {current:?}: demand-driven shrinking only under scarcity"
            );
        }
    }
}

#[test]
fn shrinks_move_one_step_at_most() {
    let mut gen = TraceRng::new(0x51e4);
    for _ in 0..64 {
        let fill = (100 + gen.below(4900)) as usize;
        let current = size(&mut gen);
        let free = gen.below(1u64 << 20);
        for (rule, a) in decisions(&mut gen, fill, current, free) {
            if a.size < current {
                assert_eq!(
                    Some(a.size),
                    current.next_down(),
                    "{rule}: fill {fill} current {current:?} free {free}"
                );
            }
        }
    }
}

#[test]
fn progress_schedule_fires_exactly_every_n() {
    let mut gen = TraceRng::new(0xf12e);
    for _ in 0..32 {
        let n = 1 + gen.below(99);
        let len = gen.below(500);
        let params = SchemeParams {
            progress_interval_instrs: n,
            ..SchemeParams::scaled(0.01)
        };
        let mut s = Schedule::new(SchemeKind::Untangle, DomainTier::Sensitive, &params).unwrap();
        let mut counted = 0u64;
        for i in 0..len {
            let c = gen.below(2) == 1;
            let fired = s.on_progress(i as f64, u64::from(c));
            if c {
                counted += 1;
            }
            assert_eq!(
                fired,
                c && counted.is_multiple_of(n),
                "n {n} at counted={counted}"
            );
        }
    }
}

#[test]
fn time_schedule_never_fires_before_interval() {
    let mut gen = TraceRng::new(0x7153);
    for _ in 0..32 {
        let interval = 1 + gen.below(999);
        let gaps = 1 + gen.below(99);
        let params = SchemeParams {
            time_interval_cycles: interval as f64,
            ..SchemeParams::scaled(0.01)
        };
        let mut s = Schedule::new(SchemeKind::Time, DomainTier::Sensitive, &params).unwrap();
        let mut now = 0.0;
        let mut last_fire = f64::NEG_INFINITY;
        let mut fired_any = false;
        for _ in 0..gaps {
            now += (1 + gen.below(199)) as f64;
            if s.on_progress(now, 1) {
                if fired_any {
                    // Two firings are separated by at least one interval
                    // minus the step quantization.
                    assert!(
                        now - last_fire >= interval as f64 - 200.0,
                        "interval {interval}: fired at {now} after {last_fire}"
                    );
                }
                last_fire = now;
                fired_any = true;
            }
        }
    }
}
