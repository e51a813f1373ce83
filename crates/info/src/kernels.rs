//! Scalar f64 kernels for the `R'_max` hot path.
//!
//! Profiling the rate-table precompute shows the Dinkelbach inner loop
//! spends essentially all of its time in four primitive kernels:
//!
//! 1. **entropy** — `−Σ p·log2 p` over an output distribution
//!    ([`Dist::entropy_bits`](crate::Dist::entropy_bits) and the solver's
//!    per-trial objective evaluation);
//! 2. **softmax / log-sum-exp normalization** — the exponentiated-gradient
//!    trial step of `inner_maximize`;
//! 3. **dot / fold reductions** — the Frank–Wolfe gap `max_x g_x − ⟨p, g⟩`
//!    and the `T_avg = ⟨p, d⟩` average-time accumulation;
//! 4. **matrix apply** — accumulating `p(y) = Σ_x p(x)·p(y|x)` rows of the
//!    channel kernel into the output distribution.
//!
//! Each kernel is a faithful, sequential-fold replica of the original
//! loop: the accumulation order is identical, so every result reproduces
//! the historical solver down to the last ulp (the equivalence suite in
//! `tests/kernel_equivalence.rs` enforces this against
//! [`RmaxSolver::solve_warm_reference`](crate::RmaxSolver::solve_warm_reference)).

use crate::xlog2x;

/// Shannon entropy `−Σ p·log2 p` in bits.
///
/// Identical fold to the historical `Dist::entropy_bits`.
pub fn entropy_bits(probs: &[f64]) -> f64 {
    -probs.iter().map(|&p| xlog2x(p)).sum::<f64>()
}

/// Entropy plus the `log2 p(y)` table in one pass: fills `log_py`
/// with `log2 p` (`0.0` where `p ≤ 0`) and returns `−Σ p·log2 p`.
///
/// Bit-identical to [`entropy_bits`]: each term is the same
/// `p * p.log2()` product, accumulated left-to-right and negated
/// once at the end (IEEE negation commutes with the rounded sum).
/// The table is what the gradient would otherwise recompute — one
/// `log2` per output instead of one per output per use.
pub fn entropy_and_logs(probs: &[f64], log_py: &mut Vec<f64>) -> f64 {
    log_py.clear();
    log_py.reserve(probs.len());
    let mut s = 0.0;
    for &p in probs {
        if p > 0.0 {
            let lp = p.log2();
            log_py.push(lp);
            s += p * lp;
        } else {
            log_py.push(0.0);
        }
    }
    -s
}

/// Plain left-to-right sum, matching the `Dist::from_weights`
/// validation fold exactly: an explicit accumulator starting at
/// `+0.0`. (`Iterator::sum::<f64>()` folds from `−0.0`, which
/// differs bitwise on empty and all-zero inputs.)
pub fn sum(xs: &[f64]) -> f64 {
    let mut s = 0.0;
    for &x in xs {
        s += x;
    }
    s
}

/// Dot product `⟨a, b⟩` as a left-to-right fold of products.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Maximum element (`−∞` for an empty slice). Exact: `max` is
/// order-independent on the NaN-free data this crate produces.
pub fn max_value(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
}

/// Fused `(⟨p, g⟩, max g)` — the two reductions of the Frank–Wolfe
/// gap `max_x g_x − ⟨p, g⟩` in one pass over `g`.
pub fn dot_and_max(p: &[f64], g: &[f64]) -> (f64, f64) {
    let mut inner = 0.0;
    let mut max_g = f64::NEG_INFINITY;
    for (&pi, &gi) in p.iter().zip(g) {
        inner += pi * gi;
        max_g = max_g.max(gi);
    }
    (inner, max_g)
}

/// Channel matrix-apply row step: `out[y] += px * row[y]`.
pub fn axpy(out: &mut [f64], px: f64, row: &[f64]) {
    for (o, &r) in out.iter_mut().zip(row) {
        *o += px * r;
    }
}

/// Softmax in log space: subtract the max, exponentiate, divide by
/// the sum. Identical arithmetic to the historical trial-step
/// normalization of `inner_maximize`.
pub fn softmax_inplace(logits: &mut [f64]) {
    let m = max_value(logits);
    for t in logits.iter_mut() {
        *t = (*t - m).exp();
    }
    let z = sum(logits);
    for t in logits.iter_mut() {
        *t /= z;
    }
}

/// Writes `dst[i] = src[i] / sum(src)` — the normalization step of
/// `Dist::from_weights`, without the allocation or re-validation.
pub fn normalize_into(dst: &mut [f64], src: &[f64]) {
    let s = sum(src);
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = v / s;
    }
}

/// `xs[i] /= z` — one true division per element, matching the
/// historical normalization loops bitwise.
pub fn div_assign(xs: &mut [f64], z: f64) {
    for x in xs.iter_mut() {
        *x /= z;
    }
}

/// Fills `dst` with `ln(max(src[i], floor))` — the log-space lift of
/// the exponentiated-gradient step, with `f64::ln` exactly as the
/// historical per-trial expression computed it.
pub fn ln_floored_into(dst: &mut Vec<f64>, src: &[f64], floor: f64) {
    dst.clear();
    dst.extend(src.iter().map(|&x| x.max(floor).ln()));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic splitmix64 for reproducible pseudo-random inputs.
    struct Rng(u64);
    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
        fn weights(&mut self, n: usize) -> Vec<f64> {
            (0..n).map(|_| self.f64() + 1e-6).collect()
        }
    }

    #[test]
    fn kernels_match_historical_folds() {
        let mut rng = Rng(7);
        for n in [1usize, 2, 3, 4, 5, 7, 8, 16, 31, 200] {
            let a = rng.weights(n);
            let b = rng.weights(n);
            // The kernels ARE the historical expressions.
            let h_ref = -a.iter().map(|&p| crate::xlog2x(p)).sum::<f64>();
            assert_eq!(entropy_bits(&a).to_bits(), h_ref.to_bits());
            let dot_ref: f64 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
            assert_eq!(dot(&a, &b).to_bits(), dot_ref.to_bits());
            let max_ref = b.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(max_value(&b).to_bits(), max_ref.to_bits());
            let sum_ref: f64 = a.iter().sum();
            assert_eq!(sum(&a).to_bits(), sum_ref.to_bits());
            let mut logs = Vec::new();
            assert_eq!(entropy_and_logs(&a, &mut logs).to_bits(), h_ref.to_bits());
            for (&p, &lp) in a.iter().zip(&logs) {
                assert_eq!(lp.to_bits(), p.log2().to_bits());
            }
        }
        // Zero-mass entries carry an exact 0.0 log and a zero term.
        let mut logs = Vec::new();
        let h = entropy_and_logs(&[0.5, 0.0, 0.5], &mut logs);
        assert!((h - 1.0).abs() < 1e-15);
        assert_eq!(logs[1].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn softmax_produces_a_distribution() {
        let mut rng = Rng(11);
        for n in [1usize, 3, 8, 21] {
            let mut v: Vec<f64> = (0..n).map(|_| rng.f64() * 40.0 - 20.0).collect();
            softmax_inplace(&mut v);
            let total: f64 = v.iter().sum();
            assert!((total - 1.0).abs() < 1e-12);
            assert!(v.iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn normalize_into_matches_from_weights() {
        let w = vec![2.0, 2.0, 4.0, 8.0, 0.5];
        let mut out = vec![0.0; w.len()];
        normalize_into(&mut out, &w);
        let d = crate::Dist::from_weights(w.clone()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(d.as_slice()));
    }

    #[test]
    fn empty_and_degenerate_slices_are_safe() {
        assert_eq!(sum(&[]).to_bits(), 0.0f64.to_bits());
        assert!(max_value(&[]).is_infinite());
        assert_eq!(entropy_bits(&[1.0]).to_bits(), (-0.0f64).to_bits());
        let (i, m) = dot_and_max(&[], &[]);
        assert_eq!(i.to_bits(), 0.0f64.to_bits());
        assert!(m.is_infinite());
    }
}
