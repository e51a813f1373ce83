//! The action heuristic (Table 2): picking a resizing action from the
//! utilization metric.
//!
//! Two rules are implemented, one per metric kind:
//!
//! * [`decide_global`] — the paper's heuristic for the hit-curve metric
//!   (§7): at its own assessment a domain consults the allocation that
//!   maximizes LLC hits across *all* domains' curves and moves toward
//!   its own component of it.
//! * [`decide_by_footprint`] — the §5.2 footprint metric turned into a
//!   threshold policy: the smallest supported size that fits the recent
//!   public footprint with [`FOOTPRINT_HEADROOM`].
//!
//! Both share the same capacity and damping rules: an expansion never
//! exceeds the domain's current size plus the unassigned capacity, a
//! shrink releases one supported size per assessment and only while the
//! unassigned pool is below [`SHRINK_FREE_THRESHOLD`], and a monitor
//! window with fewer than [`HeuristicConfig::min_window_fill`] accesses
//! carries no signal. A domain in steady state therefore picks its
//! current size, i.e. `Maintain` — which §9 reports as the outcome of
//! ~90 % of assessments.

use crate::action::Action;
use untangle_sim::config::PartitionSize;
use untangle_sim::umon::{choose_partitions, HitCurve};

/// Expansion hysteresis: an expansion must gain more than
/// `EXPAND_GAIN_FRACTION × window_fill` hits over the current size, or
/// the hit-curve heuristic maintains. Every flap between adjacent sizes
/// is an attacker-visible action, so damping noise-driven expansions is
/// both a performance and a leakage win.
pub const EXPAND_GAIN_FRACTION: f64 = 0.04;

/// Shrinks are demand-driven: a domain only releases capacity while the
/// LLC's unassigned pool is below this many bytes. This mirrors
/// UMON-style global-utility allocation, where capacity moves only to
/// where it buys hits — never into an idle pool.
pub const SHRINK_FREE_THRESHOLD: u64 = 2 << 20;

/// Footprint-rule headroom: the target size is the smallest supported
/// size at least `FOOTPRINT_HEADROOM ×` the observed footprint.
pub const FOOTPRINT_HEADROOM: f64 = 1.25;

/// Tunables of the size-selection rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeuristicConfig {
    /// Below this many monitored accesses in the window the heuristic
    /// refuses to act (returns the current size ⇒ Maintain): an empty
    /// window carries no signal.
    pub min_window_fill: usize,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        Self {
            min_window_fill: 64,
        }
    }
}

/// The paper's action heuristic (§7): "during a resizing assessment,
/// the monitor picks the size for each domain that maximizes the
/// number of LLC hits across all domains". Each domain, at *its own*
/// assessment, consults the global allocation and applies only its own
/// component — so every resizing action stays in its owner's trace,
/// and the system converges to the global optimum over a few
/// assessment rounds. An expansion must also gain more than
/// [`EXPAND_GAIN_FRACTION`] of the window in hits.
pub fn decide_global(
    curves: &[HitCurve],
    domain: usize,
    window_fill: usize,
    current: PartitionSize,
    free_bytes: u64,
    llc_bytes: u64,
    config: &HeuristicConfig,
) -> Action {
    assert!(domain < curves.len(), "domain index out of range");
    if window_fill < config.min_window_fill {
        return Action::set_size(current);
    }
    let curve = &curves[domain];
    let gain_margin = (EXPAND_GAIN_FRACTION * window_fill as f64).ceil() as u64;
    let target = choose_partitions(curves, llc_bytes)[domain];
    settle(target, current, free_bytes, |target| {
        curve[target.index()] > curve[current.index()].saturating_add(gain_margin)
    })
}

/// The footprint-threshold heuristic — the §5.2 example metric turned
/// into a policy, in the spirit of Table 1's threshold-based schemes:
/// pick the smallest supported size that fits the recent public memory
/// footprint with [`FOOTPRINT_HEADROOM`], then apply the same budget
/// and stepwise-shrink rules as the hit-curve heuristic.
pub fn decide_by_footprint(
    footprint_bytes: u64,
    window_fill: usize,
    current: PartitionSize,
    free_bytes: u64,
    config: &HeuristicConfig,
) -> Action {
    if window_fill < config.min_window_fill {
        return Action::set_size(current);
    }
    let wanted = (footprint_bytes as f64 * FOOTPRINT_HEADROOM) as u64;
    settle(PartitionSize::at_least(wanted), current, free_bytes, |_| {
        true
    })
}

/// The capacity and damping rules both heuristics apply to their
/// `target`: an expansion is capped at `current + free_bytes` (a domain
/// never grabs bytes another domain still logically owns) and happens
/// only if `worth_expanding` the capped target; a shrink releases one
/// supported size per assessment, and only while the unassigned pool
/// is below [`SHRINK_FREE_THRESHOLD`] (an idle pool profits nobody);
/// anything else maintains.
fn settle(
    mut target: PartitionSize,
    current: PartitionSize,
    free_bytes: u64,
    worth_expanding: impl FnOnce(PartitionSize) -> bool,
) -> Action {
    while target > current && target.bytes() > current.bytes() + free_bytes {
        match target.next_down() {
            Some(t) => target = t,
            None => break,
        }
    }
    let decided = if target > current && worth_expanding(target) {
        target
    } else if target < current && free_bytes < SHRINK_FREE_THRESHOLD {
        current.next_down().unwrap_or(current).max(target)
    } else {
        current
    };
    Action::set_size(decided)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: u64 = 16 << 20;

    fn cfg() -> HeuristicConfig {
        HeuristicConfig::default()
    }

    /// [`decide_global`] for a single domain owning the whole LLC.
    fn decide_alone(curve: HitCurve, fill: usize, current: PartitionSize, free: u64) -> Action {
        decide_global(&[curve], 0, fill, current, free, FULL, &cfg())
    }

    #[test]
    fn no_shrink_while_capacity_is_plentiful() {
        let a = decide_alone([500; 9], 1000, PartitionSize::MB2, 8 << 20);
        assert_eq!(a.size, PartitionSize::MB2, "idle pool ⇒ keep capacity");
    }

    #[test]
    fn rising_curve_expands_to_knee() {
        // Hits saturate at 4 MB.
        let mut curve: HitCurve = [0; 9];
        for (i, h) in curve.iter_mut().enumerate() {
            *h = if i >= PartitionSize::MB4.index() {
                900
            } else {
                (i as u64) * 100
            };
        }
        let a = decide_alone(curve, 1000, PartitionSize::MB2, FULL);
        assert_eq!(a.size, PartitionSize::MB4);
    }

    #[test]
    fn steady_state_maintains() {
        // Current size already sits at the knee.
        let mut curve: HitCurve = [100; 9];
        for h in curve.iter_mut().skip(PartitionSize::MB1.index()) {
            *h = 950;
        }
        let a = decide_alone(curve, 1000, PartitionSize::MB1, FULL);
        assert_eq!(a.size, PartitionSize::MB1, "already adequate ⇒ Maintain");
    }

    #[test]
    fn current_size_is_always_affordable() {
        // Even with no free capacity the domain may keep what it has; a
        // flat curve under scarcity may only step down.
        let a = decide_alone([0; 9], 1000, PartitionSize::MB8, 0);
        assert!(a.size <= PartitionSize::MB8);
    }

    #[test]
    fn gain_margin_damps_noise() {
        // 1 % better hits at 8 MB is inside the 4 % expansion margin:
        // stay small.
        let mut curve: HitCurve = [1000; 9];
        curve[PartitionSize::MB8.index()] = 1009;
        let a = decide_alone(curve, 1000, PartitionSize::KB128, FULL);
        assert_eq!(a.size, PartitionSize::KB128);
        // But a 10 % gain is a real expansion signal.
        let mut strong: HitCurve = [1000; 9];
        strong[PartitionSize::MB8.index()] = 1100;
        let b = decide_alone(strong, 1000, PartitionSize::KB128, FULL);
        assert_eq!(b.size, PartitionSize::MB8);
    }

    #[test]
    fn global_chooser_moves_capacity_under_pressure() {
        let cfg = HeuristicConfig::default();
        // Domain 0 is flat (insensitive); domain 1's hits keep rising.
        let flat: HitCurve = [900; 9];
        let mut hungry: HitCurve = [0; 9];
        for (i, h) in hungry.iter_mut().enumerate() {
            *h = (i as u64 + 1) * 500;
        }
        let curves = [flat, hungry];
        // No free capacity: the flat domain is told to release a step.
        let a = decide_global(&curves, 0, 1000, PartitionSize::MB2, 0, 16 << 20, &cfg);
        assert_eq!(a.size, PartitionSize::MB1, "insensitive domain releases");
        // The hungry domain expands into whatever is free.
        let b = decide_global(
            &curves,
            1,
            1000,
            PartitionSize::MB2,
            4 << 20,
            16 << 20,
            &cfg,
        );
        assert!(
            b.size > PartitionSize::MB2,
            "hungry domain expands: {}",
            b.size
        );
    }

    #[test]
    fn global_chooser_never_exceeds_free_capacity() {
        let mut hungry: HitCurve = [0; 9];
        for (i, h) in hungry.iter_mut().enumerate() {
            *h = (i as u64 + 1) * 500;
        }
        let a = decide_alone(hungry, 1000, PartitionSize::MB2, 1 << 20);
        assert!(a.size.bytes() <= (2 << 20) + (1 << 20));
    }

    #[test]
    fn global_chooser_maintains_on_thin_window() {
        let hungry: HitCurve = [0, 1, 2, 3, 4, 5, 6, 7, 800];
        let a = decide_alone(hungry, 3, PartitionSize::MB2, 8 << 20);
        assert_eq!(a.size, PartitionSize::MB2);
    }

    #[test]
    fn footprint_heuristic_fits_the_footprint() {
        // 3 MB footprint with 25 % headroom needs 4 MB.
        let a = decide_by_footprint(3 << 20, 1000, PartitionSize::MB2, 16 << 20, &cfg());
        assert_eq!(a.size, PartitionSize::MB4);
    }

    #[test]
    fn footprint_heuristic_respects_budget() {
        // Wants 8 MB but only 1 MB free above the 2 MB current.
        let a = decide_by_footprint(6 << 20, 1000, PartitionSize::MB2, 1 << 20, &cfg());
        assert_eq!(a.size, PartitionSize::MB3);
    }

    #[test]
    fn footprint_heuristic_shrinks_stepwise_under_scarcity() {
        let a = decide_by_footprint(64 << 10, 1000, PartitionSize::MB4, 0, &cfg());
        assert_eq!(a.size, PartitionSize::MB3);
        let b = decide_by_footprint(64 << 10, 1000, PartitionSize::MB4, 8 << 20, &cfg());
        assert_eq!(
            b.size,
            PartitionSize::MB4,
            "no shrink while capacity is idle"
        );
    }

    #[test]
    fn footprint_heuristic_maintains_on_empty_window() {
        let a = decide_by_footprint(8 << 20, 3, PartitionSize::MB1, 16 << 20, &cfg());
        assert_eq!(a.size, PartitionSize::MB1);
    }

    #[test]
    fn decision_is_deterministic() {
        let mut curve: HitCurve = [0; 9];
        for (i, h) in curve.iter_mut().enumerate() {
            *h = (i as u64 * 37) % 400;
        }
        let a = decide_alone(curve, 500, PartitionSize::MB3, FULL);
        let b = decide_alone(curve, 500, PartitionSize::MB3, FULL);
        assert_eq!(a, b);
    }
}
