//! SimPoint-style phase sampling: deterministic k-means over interval
//! vectors and weighted representative slices.
//!
//! Given the per-interval region-touch vectors from
//! [`bbv`](crate::bbv), [`choose_slices`] clusters the intervals with a
//! seeded, bit-stable k-means (k-means++ seeding from
//! [`TraceRng`], fixed iteration order, ties
//! broken toward lower indices — no dependence on platform float
//! quirks, hash order, or wall clock) and returns one representative
//! [`Slice`] per cluster, weighted by cluster population. Replaying the
//! slices (through [`SliceBuffer`](crate::file::SliceBuffer), one read
//! per slice) and combining per-slice statistics by weight estimates
//! the full-trace result at a fraction of the simulated instructions —
//! the `exp_scenarios` driver measures that estimation error
//! explicitly.

use crate::synth::TraceRng;

/// Configuration for the phase sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPointConfig {
    /// Maximum representative slices (k-means cluster count). Fewer
    /// come back when the trace has fewer intervals.
    pub max_slices: usize,
    /// Lloyd iterations to run (the loop exits early once assignments
    /// stabilize).
    pub iterations: usize,
    /// Seed for k-means++ center selection.
    pub seed: u64,
    /// Independent k-means seedings to run; the lowest-distortion
    /// clustering wins. A single seeding's local optimum can merge
    /// phases with very different performance into one cluster, which
    /// shows up directly as sampling error — restarts cost microseconds
    /// (the vectors number in the dozens) and cut the worst case.
    pub restarts: usize,
}

impl Default for SimPointConfig {
    fn default() -> Self {
        Self {
            max_slices: 6,
            iterations: 25,
            seed: 0x51a9_01e7,
            restarts: 5,
        }
    }
}

/// A weighted representative slice of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    /// Index of the representative interval.
    pub interval: usize,
    /// First instruction of the slice.
    pub offset_instrs: u64,
    /// Slice length in instructions (the final interval may be short).
    pub len_instrs: u64,
    /// Fraction of intervals this slice stands for (cluster population
    /// over interval count); weights over all slices sum to 1.
    pub weight: f64,
}

fn d2(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Picks `k` initial centers with deterministic k-means++: the next
/// center is sampled proportionally to squared distance from the
/// nearest existing center, using the seeded [`TraceRng`].
fn seed_centers(vectors: &[Vec<f64>], k: usize, rng: &mut TraceRng) -> Vec<Vec<f64>> {
    let mut centers = Vec::with_capacity(k);
    centers.push(vectors[rng.below(vectors.len() as u64) as usize].clone());
    let mut nearest: Vec<f64> = vectors.iter().map(|v| d2(v, &centers[0])).collect();
    while centers.len() < k {
        let total: f64 = nearest.iter().sum();
        let pick = if total <= 0.0 {
            // All remaining points coincide with a center; take the
            // first with any index not yet chosen (deterministic, and
            // harmless: duplicate centers yield empty clusters which
            // are dropped at the end).
            nearest.iter().position(|&d| d > 0.0).unwrap_or(0)
        } else {
            let target = rng.unit_f64() * total;
            let mut acc = 0.0;
            let mut chosen = vectors.len() - 1;
            for (i, &d) in nearest.iter().enumerate() {
                acc += d;
                if acc > target {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        let center = vectors[pick].clone();
        for (i, v) in vectors.iter().enumerate() {
            let d = d2(v, &center);
            if d < nearest[i] {
                nearest[i] = d;
            }
        }
        centers.push(center);
    }
    centers
}

/// Clusters interval vectors and returns weighted representative
/// slices, sorted by interval index.
///
/// `interval_instrs` must be the profiling interval the vectors were
/// built with, and `total_instrs` the trace length, so slice offsets
/// and the final short interval come out right.
///
/// Deterministic: equal inputs (including the seed) produce identical
/// slices on every platform.
pub fn choose_slices(
    vectors: &[Vec<f64>],
    interval_instrs: u64,
    total_instrs: u64,
    config: &SimPointConfig,
) -> Vec<Slice> {
    if vectors.is_empty() || config.max_slices == 0 {
        return Vec::new();
    }
    let n = vectors.len();
    let k = config.max_slices.min(n);
    let mut best: Option<(f64, Vec<Vec<f64>>, Vec<usize>)> = None;
    for restart in 0..config.restarts.max(1) as u64 {
        let seed = config.seed ^ restart.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let (centers, assignment) = cluster(vectors, k, config.iterations, seed);
        let distortion: f64 = vectors
            .iter()
            .zip(&assignment)
            .map(|(v, &c)| d2(v, &centers[c]))
            .sum();
        // Strictly-lower wins, so equal distortions keep the earliest
        // restart and the result stays deterministic.
        if best.as_ref().is_none_or(|(d, _, _)| distortion < *d) {
            best = Some((distortion, centers, assignment));
        }
    }
    // `restarts.max(1)` ran at least once.
    let Some((_, centers, assignment)) = best else {
        return Vec::new();
    };

    // Representative per non-empty cluster: member nearest the center,
    // ties to the lower interval index.
    let mut slices = Vec::new();
    for (c, center) in centers.iter().enumerate().take(k) {
        let mut best: Option<(usize, f64)> = None;
        let mut members = 0usize;
        for (i, v) in vectors.iter().enumerate() {
            if assignment[i] != c {
                continue;
            }
            members += 1;
            let d = d2(v, center);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        if let Some((interval, _)) = best {
            let offset = interval as u64 * interval_instrs;
            slices.push(Slice {
                interval,
                offset_instrs: offset,
                len_instrs: interval_instrs.min(total_instrs.saturating_sub(offset)),
                weight: members as f64 / n as f64,
            });
        }
    }
    slices.sort_by_key(|s| s.interval);
    slices
}

/// One k-means seeding: k-means++ centers, then Lloyd iterations until
/// assignments stabilize. Returns the final centers and assignment.
fn cluster(
    vectors: &[Vec<f64>],
    k: usize,
    iterations: usize,
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<usize>) {
    let n = vectors.len();
    let mut rng = TraceRng::new(seed);
    let mut centers = seed_centers(vectors, k, &mut rng);
    let mut assignment = vec![0usize; n];

    for _ in 0..iterations.max(1) {
        // Assign: nearest center, ties to the lower index.
        let mut changed = false;
        for (i, v) in vectors.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = d2(v, &centers[0]);
            for (c, center) in centers.iter().enumerate().skip(1) {
                let d = d2(v, center);
                if d < best_d {
                    best = c;
                    best_d = d;
                }
            }
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        // Update: mean of members, in index order.
        let dims = vectors[0].len();
        for (c, center) in centers.iter_mut().enumerate() {
            let mut sum = vec![0.0f64; dims];
            let mut count = 0usize;
            for (i, v) in vectors.iter().enumerate() {
                if assignment[i] == c {
                    for (s, x) in sum.iter_mut().zip(v) {
                        *s += x;
                    }
                    count += 1;
                }
            }
            if count > 0 {
                for s in sum.iter_mut() {
                    *s /= count as f64;
                }
                *center = sum;
            }
            // An empty cluster keeps its center; it stays empty and is
            // dropped by the caller — deterministic either way.
        }
    }
    (centers, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbv::{interval_vectors, BbvConfig};
    use crate::source::TraceSource;
    use crate::synth::{PhasedModel, WorkingSetConfig};

    fn phase_cfg(ws_kib: u64) -> WorkingSetConfig {
        WorkingSetConfig {
            working_set_bytes: ws_kib << 10,
            hot_fraction: 0.0,
            stream_fraction: 0.0,
            ..WorkingSetConfig::default()
        }
    }

    fn two_phase_vectors() -> Vec<Vec<f64>> {
        let cfg = BbvConfig {
            interval_instrs: 5_000,
            ..BbvConfig::default()
        };
        let mut src = PhasedModel::new(vec![(phase_cfg(64), 5_000), (phase_cfg(4096), 5_000)], 7)
            .take_instrs(60_000);
        interval_vectors(&mut src, &cfg)
    }

    #[test]
    fn weights_sum_to_one_and_cover_phases() {
        let vectors = two_phase_vectors();
        let cfg = SimPointConfig {
            max_slices: 2,
            ..SimPointConfig::default()
        };
        let slices = choose_slices(&vectors, 5_000, 60_000, &cfg);
        assert_eq!(slices.len(), 2);
        let total: f64 = slices.iter().map(|s| s.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
        // Alternating equal phases: each cluster holds half the
        // intervals, and the representatives come from distinct phases.
        for s in &slices {
            assert!((s.weight - 0.5).abs() < 1e-9, "{slices:?}");
        }
        assert_ne!(slices[0].interval % 2, slices[1].interval % 2, "{slices:?}");
    }

    #[test]
    fn clustering_is_deterministic() {
        let vectors = two_phase_vectors();
        let cfg = SimPointConfig::default();
        let a = choose_slices(&vectors, 5_000, 60_000, &cfg);
        let b = choose_slices(&vectors, 5_000, 60_000, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn fewer_intervals_than_clusters_yields_one_slice_each() {
        let vectors = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let cfg = SimPointConfig {
            max_slices: 8,
            ..SimPointConfig::default()
        };
        let slices = choose_slices(&vectors, 1000, 1500, &cfg);
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].offset_instrs, 0);
        assert_eq!(slices[0].len_instrs, 1000);
        // The final interval is short: 1500 - 1000.
        assert_eq!(slices[1].len_instrs, 500);
    }

    #[test]
    fn identical_vectors_collapse_to_one_slice() {
        let vectors = vec![vec![0.5, 0.5]; 10];
        let slices = choose_slices(&vectors, 100, 1000, &SimPointConfig::default());
        assert_eq!(slices.len(), 1, "{slices:?}");
        assert!((slices[0].weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_yields_no_slices() {
        assert!(choose_slices(&[], 100, 0, &SimPointConfig::default()).is_empty());
    }
}
