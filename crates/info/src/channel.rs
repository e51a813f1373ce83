//! The covert-channel model used to bound scheduling leakage (§5.3).
//!
//! Leaked information is encoded as the *duration* spent in an observable
//! partition state. The sender (victim) picks an input symbol `x`
//! represented by a dwell duration `d_x ≥ T_c` (the cooldown time,
//! Mechanism 1). Each resizing action is delayed by a random IID delay `δ`
//! (Mechanism 2), so the receiver observes
//!
//! ```text
//! d_y = d_x + δ_i − δ_{i−1}          (Eq. 5.8)
//! ```
//!
//! The information per transmission is bounded by `H(Y) − H(δ)`
//! (Appendix A, Eq. A.10) and the channel's data rate by
//! `(H(Y) − H(δ)) / T_avg` (Eq. A.11a). [`Channel`] precomputes the output
//! structure and exposes the objective and its gradient for the
//! [`crate::dinkelbach`] solver.

use crate::kernels;
use crate::{Dist, InfoError, Result};

/// Distribution of the random action delay `δ` over `{0, …, width−1}`
/// time units (Mechanism 2 in §5.3.2).
///
/// The paper's evaluation uses a uniform delay over `[0, 1 ms)`; a
/// degenerate (zero-width) delay models a scheme without Mechanism 2.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayDist {
    dist: Dist,
}

impl DelayDist {
    /// Uniform delay over `{0, …, width−1}` time units.
    ///
    /// # Errors
    ///
    /// Returns [`InfoError::EmptyAlphabet`] if `width == 0`.
    pub fn uniform(width: usize) -> Result<Self> {
        Ok(Self {
            dist: Dist::uniform(width)?,
        })
    }

    /// No delay at all (`δ = 0` always); disables Mechanism 2.
    pub fn none() -> Self {
        Self {
            dist: Dist::singleton(),
        }
    }

    /// A custom delay distribution; index `k` is a delay of `k` time units.
    ///
    /// # Errors
    ///
    /// Propagates the [`Dist`] validation errors.
    pub fn custom(probs: Vec<f64>) -> Result<Self> {
        Ok(Self {
            dist: Dist::new(probs)?,
        })
    }

    /// Entropy `H(δ)` in bits.
    pub fn entropy_bits(&self) -> f64 {
        self.dist.entropy_bits()
    }

    /// The underlying distribution over `{0, …, width−1}`.
    pub fn dist(&self) -> &Dist {
        &self.dist
    }

    /// Distribution of the *difference* `δ_i − δ_{i−1}` of two IID delays.
    ///
    /// Returned as probabilities over offsets `−(w−1), …, +(w−1)`; entry
    /// `k` corresponds to difference `k − (w−1)`.
    pub fn diff_probs(&self) -> Vec<f64> {
        let w = self.dist.len();
        let p = self.dist.as_slice();
        let mut diff = vec![0.0; 2 * w - 1];
        for i in 0..w {
            for j in 0..w {
                // difference d = i − j, stored at d + (w−1)
                diff[i + (w - 1) - j] += p[i] * p[j];
            }
        }
        diff
    }
}

/// Static description of a covert channel: the cooldown, the input
/// duration alphabet, and the delay distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConfig {
    /// Minimum time between consecutive assessments (`T_c`, Mechanism 1),
    /// in time units.
    pub cooldown: u64,
    /// Input alphabet: the dwell durations the sender may use. All must be
    /// `≥ cooldown`, strictly increasing.
    pub durations: Vec<u64>,
    /// Distribution of the random action delay δ.
    pub delay: DelayDist,
}

impl ChannelConfig {
    /// Builds and validates a config from explicit parts.
    ///
    /// Prefer this over literal struct construction: it runs the same
    /// checks [`Channel::new`] performs, so an invalid alphabet is
    /// rejected where it is written down instead of at first use.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ChannelConfig::validate`].
    pub fn new(cooldown: u64, durations: Vec<u64>, delay: DelayDist) -> Result<Self> {
        let config = Self {
            cooldown,
            durations,
            delay,
        };
        config.validate()?;
        Ok(config)
    }

    /// Checks the channel constraints on the duration alphabet.
    ///
    /// # Errors
    ///
    /// * [`InfoError::EmptyAlphabet`] — no durations.
    /// * [`InfoError::InvalidDuration`] — a duration of zero (the modeled
    ///   sender must dwell for at least one time unit, otherwise the
    ///   average transmission time can reach zero and every rate becomes
    ///   undefined), a duration below the cooldown, or a non-strictly-
    ///   increasing sequence.
    pub fn validate(&self) -> Result<()> {
        if self.durations.is_empty() {
            return Err(InfoError::EmptyAlphabet);
        }
        let mut prev: Option<u64> = None;
        for &d in &self.durations {
            if d == 0 || d < self.cooldown {
                return Err(InfoError::InvalidDuration(d));
            }
            if let Some(p) = prev {
                if d <= p {
                    return Err(InfoError::InvalidDuration(d));
                }
            }
            prev = Some(d);
        }
        Ok(())
    }

    /// Builds a config whose durations are `cooldown, cooldown + step, …`
    /// (`n_symbols` of them) — the natural alphabet for a sender that can
    /// stretch its dwell time in `step`-unit increments.
    ///
    /// # Errors
    ///
    /// Returns [`InfoError::EmptyAlphabet`] if `n_symbols == 0` and
    /// [`InfoError::InvalidDuration`] if `cooldown == 0` or `step == 0`.
    pub fn evenly_spaced(
        cooldown: u64,
        n_symbols: usize,
        step: u64,
        delay: DelayDist,
    ) -> Result<Self> {
        if n_symbols == 0 {
            return Err(InfoError::EmptyAlphabet);
        }
        if cooldown == 0 {
            return Err(InfoError::InvalidDuration(cooldown));
        }
        if step == 0 {
            return Err(InfoError::InvalidDuration(step));
        }
        let durations = (0..n_symbols as u64).map(|i| cooldown + i * step).collect();
        Ok(Self {
            cooldown,
            durations,
            delay,
        })
    }
}

/// A covert channel with precomputed output structure.
///
/// # Example
///
/// The §5.3.1 strategy trade-off: with no delay, four equally likely
/// durations 1–4 ms transmit 2 bits per 2.5 ms (800 bit/s), beating eight
/// durations 1–8 ms (3 bits per 4.5 ms ≈ 667 bit/s):
///
/// ```
/// use untangle_info::{Channel, ChannelConfig, DelayDist, Dist};
///
/// let ch4 = Channel::new(ChannelConfig::new(1, vec![1, 2, 3, 4], DelayDist::none())?)?;
/// let rate4 = ch4.rate_bits_per_unit(&Dist::uniform(4)?)?;
/// assert!((rate4 - 0.8).abs() < 1e-12); // 800 bit/s with 1 unit = 1 ms
/// # Ok::<(), untangle_info::InfoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    config: ChannelConfig,
    /// Probabilities of delay differences over offsets −(w−1)..=+(w−1).
    diff_probs: Vec<f64>,
    /// All observable output values `d_x + diff` (sorted, deduplicated).
    /// Stored as i64 because a difference can exceed a small duration.
    outputs: Vec<i64>,
    /// Transition kernel `p(Y = outputs[y] | X = x)`, stored row-major
    /// and flat (`kernel[x * outputs.len() + y]`) so the matrix-apply
    /// kernel streams one contiguous row per input symbol.
    kernel: Vec<f64>,
    /// Input durations as f64 — the fixed operand of the `T_avg = ⟨p, d⟩`
    /// dot-product kernel, converted once at construction.
    durations_f: Vec<f64>,
    delay_entropy: f64,
}

impl Channel {
    /// Validates the configuration and precomputes the output alphabet and
    /// transition kernel.
    ///
    /// # Errors
    ///
    /// Returns [`InfoError::EmptyAlphabet`] if the duration alphabet is
    /// empty, and [`InfoError::InvalidDuration`] if any duration is zero,
    /// not strictly increasing, or falls below the cooldown.
    pub fn new(config: ChannelConfig) -> Result<Self> {
        config.validate()?;

        let diff_probs = config.delay.diff_probs();
        let w = config.delay.dist().len() as i64;

        // Enumerate the output alphabet: every d_x + diff with positive
        // probability. The value → index map doubles as the lookup used
        // to fill the kernel below, so no post-hoc search can miss.
        let mut outputs: Vec<i64> = Vec::new();
        for &d in &config.durations {
            for (k, &p) in diff_probs.iter().enumerate() {
                if p > 0.0 {
                    outputs.push(d as i64 + k as i64 - (w - 1));
                }
            }
        }
        outputs.sort_unstable();
        outputs.dedup();
        let index_of: std::collections::HashMap<i64, usize> =
            outputs.iter().enumerate().map(|(yi, &y)| (y, yi)).collect();

        let mut kernel = vec![0.0; outputs.len() * config.durations.len()];
        for (xi, &d) in config.durations.iter().enumerate() {
            let row = &mut kernel[xi * outputs.len()..(xi + 1) * outputs.len()];
            for (k, &p) in diff_probs.iter().enumerate() {
                if p > 0.0 {
                    let y = d as i64 + k as i64 - (w - 1);
                    if let Some(&yi) = index_of.get(&y) {
                        row[yi] += p;
                    }
                }
            }
        }

        let durations_f = config.durations.iter().map(|&d| d as f64).collect();
        let delay_entropy = config.delay.entropy_bits();
        Ok(Self {
            config,
            diff_probs,
            outputs,
            kernel,
            durations_f,
            delay_entropy,
        })
    }

    /// Row `x` of the transition kernel: `p(Y = outputs[·] | X = x)` as a
    /// contiguous slice of length [`Channel::num_outputs`].
    ///
    /// # Panics
    ///
    /// Panics if `x >= self.num_inputs()`.
    pub fn kernel_row(&self, x: usize) -> &[f64] {
        let ny = self.outputs.len();
        &self.kernel[x * ny..(x + 1) * ny]
    }

    /// The channel configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// Number of input symbols.
    pub fn num_inputs(&self) -> usize {
        self.config.durations.len()
    }

    /// Number of distinct observable outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The observable output values, sorted ascending.
    pub fn outputs(&self) -> &[i64] {
        &self.outputs
    }

    /// `H(δ)` in bits.
    pub fn delay_entropy_bits(&self) -> f64 {
        self.delay_entropy
    }

    /// Probabilities of the delay difference `δ_i − δ_{i−1}` (offsets
    /// `−(w−1)..=+(w−1)`).
    pub fn diff_probs(&self) -> &[f64] {
        &self.diff_probs
    }

    /// Output distribution `p(y)` induced by the input distribution.
    ///
    /// # Errors
    ///
    /// Returns [`InfoError::LengthMismatch`] if `input` does not match the
    /// input alphabet size.
    pub fn output_dist(&self, input: &Dist) -> Result<Dist> {
        self.check_input(input)?;
        let mut py = Vec::new();
        self.output_weights_into(input.as_slice(), &mut py);
        Dist::from_weights(py)
    }

    /// Accumulates the unnormalized output weights `Σ_x p(x)·p(y|x)` into
    /// `py` (resized and zeroed first) without allocating a [`Dist`].
    ///
    /// This is the channel matrix-apply kernel of the Dinkelbach hot
    /// loop: one [`kernels::axpy`] per input symbol with positive mass.
    /// `input` is trusted to be a probability vector of length
    /// [`Channel::num_inputs`] — extra entries are ignored, missing ones
    /// contribute nothing, exactly like zero mass.
    pub fn output_weights_into(&self, input: &[f64], py: &mut Vec<f64>) {
        let ny = self.outputs.len();
        py.clear();
        py.resize(ny, 0.0);
        for (xi, row) in self.kernel.chunks_exact(ny).enumerate() {
            // Validated probabilities are non-negative, so `<=` is an
            // exact zero test without comparing floats for equality.
            let px = input.get(xi).copied().unwrap_or(0.0);
            if px <= 0.0 {
                continue;
            }
            kernels::axpy(py, px, row);
        }
    }

    /// Average transmission time `T_avg = Σ p(x) d_x` (Eq. 5.7), in time
    /// units.
    ///
    /// # Errors
    ///
    /// Returns [`InfoError::LengthMismatch`] on alphabet-size mismatch.
    pub fn average_time(&self, input: &Dist) -> Result<f64> {
        self.check_input(input)?;
        Ok(kernels::dot(input.as_slice(), &self.durations_f))
    }

    /// Information learned per transmission, `H(Y) − H(δ)` bits
    /// (Eq. A.10). Non-negative for any valid input distribution.
    ///
    /// # Errors
    ///
    /// Returns [`InfoError::LengthMismatch`] on alphabet-size mismatch.
    pub fn info_per_transmission_bits(&self, input: &Dist) -> Result<f64> {
        Ok(self.output_dist(input)?.entropy_bits() - self.delay_entropy)
    }

    /// Data rate `(H(Y) − H(δ)) / T_avg` in bits per time unit
    /// (Eq. A.11a) for a *specific* input distribution.
    ///
    /// The supremum of this quantity over input distributions is `R'_max`,
    /// computed by [`crate::RmaxSolver`]. `T_avg > 0` is guaranteed by the
    /// zero-duration rejection in [`ChannelConfig::validate`], so the
    /// ratio is always finite.
    ///
    /// # Errors
    ///
    /// Returns [`InfoError::LengthMismatch`] on alphabet-size mismatch.
    pub fn rate_bits_per_unit(&self, input: &Dist) -> Result<f64> {
        let info = self.info_per_transmission_bits(input)?;
        let t = self.average_time(input)?;
        Ok(info / t)
    }

    /// Value and gradient (w.r.t. `p(x)`) of the Dinkelbach inner
    /// objective `G(p) = H(Y) − H(δ) − q·T_avg`.
    ///
    /// `∂H(Y)/∂p(x) = −Σ_y p(y|x)(log2 p(y) + 1/ln 2)`, and
    /// `∂T_avg/∂p(x) = d_x`.
    ///
    /// # Errors
    ///
    /// Returns [`InfoError::LengthMismatch`] on alphabet-size mismatch.
    pub fn objective_and_gradient(&self, input: &Dist, q: f64) -> Result<(f64, Vec<f64>)> {
        self.check_input(input)?;
        let mut py = Vec::new();
        let mut log_py = Vec::new();
        let value = self.objective_value_into(input.as_slice(), q, &mut py, &mut log_py);
        let mut log_table = Vec::new();
        let mut grad = Vec::new();
        self.gradient_from_logs_into(&log_py, q, &mut log_table, &mut grad);
        Ok((value, grad))
    }

    /// Value of the Dinkelbach inner objective
    /// `G(p) = H(Y) − H(δ) − q·T_avg` without the gradient — the cheap
    /// accept/reject test of the backtracking line search, which needs no
    /// derivative information for rejected trials.
    ///
    /// `input` is trusted like in [`Channel::output_weights_into`]. On
    /// return `py` holds the *normalized* output distribution and
    /// `log_py` holds `log2 p(y)` (`0.0` for zero-mass outputs), so an
    /// accepted trial can compute its gradient via
    /// [`Channel::gradient_from_logs_into`] without re-applying the
    /// channel matrix or re-evaluating a single logarithm. The arithmetic
    /// (accumulation order, normalization, entropy fold) replicates the
    /// historical `output_dist` → `Dist::from_weights` → `entropy_bits`
    /// chain exactly, so results are bit-identical to the allocating
    /// path.
    pub fn objective_value_into(
        &self,
        input: &[f64],
        q: f64,
        py: &mut Vec<f64>,
        log_py: &mut Vec<f64>,
    ) -> f64 {
        self.output_weights_into(input, py);
        let z = kernels::sum(py);
        kernels::div_assign(py, z);
        let h_y = kernels::entropy_and_logs(py, log_py);
        let t_avg = kernels::dot(input, &self.durations_f);
        h_y - self.delay_entropy - q * t_avg
    }

    /// Gradient of the Dinkelbach inner objective, computed from the
    /// `log2 p(y)` table left in place by
    /// [`Channel::objective_value_into`].
    ///
    /// `∂H(Y)/∂p(x) = −Σ_y p(y|x)(log2 p(y) + 1/ln 2)` and
    /// `∂T_avg/∂p(x) = d_x`. The per-output `log2 p(y) + 1/ln 2` factor is
    /// hoisted into `log_table` once per call — the historical code
    /// recomputed `log2 p(y)` for every nonzero kernel cell, `|X|`× more
    /// log evaluations than necessary — and each gradient entry is then
    /// one pass over a contiguous kernel row. `log_table` and `grad` are
    /// plain scratch, resized as needed.
    pub fn gradient_from_logs_into(
        &self,
        log_py: &[f64],
        q: f64,
        log_table: &mut Vec<f64>,
        grad: &mut Vec<f64>,
    ) {
        let inv_ln2 = std::f64::consts::LOG2_E;
        log_table.clear();
        log_table.extend(log_py.iter().map(|&lp| lp + inv_ln2));
        let ny = self.outputs.len();
        grad.clear();
        grad.resize(self.num_inputs(), 0.0);
        // Faithful replica of the historical per-cell loop (with the log2
        // hoisted): identical accumulation order, so results stay
        // bit-compatible.
        for (xi, row) in self.kernel.chunks_exact(ny).enumerate() {
            let mut g = 0.0;
            for (yi, &pyx) in row.iter().enumerate() {
                if pyx > 0.0 {
                    g -= pyx * log_table[yi];
                }
            }
            grad[xi] = g - q * self.durations_f[xi];
        }
    }

    fn check_input(&self, input: &Dist) -> Result<()> {
        if input.len() != self.num_inputs() {
            return Err(InfoError::LengthMismatch {
                expected: self.num_inputs(),
                actual: input.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_example_from_section_5_3_1() {
        // Strategy 1: durations 1..4 ms, uniform => 2 bits / 2.5 ms.
        let ch1 = Channel::new(ChannelConfig {
            cooldown: 1,
            durations: vec![1, 2, 3, 4],
            delay: DelayDist::none(),
        })
        .unwrap();
        let r1 = ch1.rate_bits_per_unit(&Dist::uniform(4).unwrap()).unwrap();
        assert!((r1 - 0.8).abs() < 1e-12, "expected 800 bit/s, got {r1}");

        // Strategy 2: durations 1..8 ms, uniform => 3 bits / 4.5 ms.
        let ch2 = Channel::new(ChannelConfig {
            cooldown: 1,
            durations: (1..=8).collect(),
            delay: DelayDist::none(),
        })
        .unwrap();
        let r2 = ch2.rate_bits_per_unit(&Dist::uniform(8).unwrap()).unwrap();
        assert!(
            (r2 - 3.0 / 4.5).abs() < 1e-12,
            "expected ~667 bit/s, got {r2}"
        );
        assert!(r1 > r2, "fewer symbols win here (paper example)");
    }

    #[test]
    fn noiseless_channel_output_entropy_equals_input_entropy() {
        let ch = Channel::new(ChannelConfig {
            cooldown: 5,
            durations: vec![5, 7, 11],
            delay: DelayDist::none(),
        })
        .unwrap();
        let input = Dist::new(vec![0.2, 0.3, 0.5]).unwrap();
        let h_y = ch.output_dist(&input).unwrap().entropy_bits();
        assert!((h_y - input.entropy_bits()).abs() < 1e-12);
        assert_eq!(ch.delay_entropy_bits(), 0.0);
    }

    #[test]
    fn delay_reduces_information_per_transmission() {
        let mk = |delay: DelayDist| {
            Channel::new(ChannelConfig {
                cooldown: 4,
                durations: vec![4, 5, 6, 7],
                delay,
            })
            .unwrap()
        };
        let input = Dist::uniform(4).unwrap();
        let clean = mk(DelayDist::none())
            .info_per_transmission_bits(&input)
            .unwrap();
        let noisy = mk(DelayDist::uniform(4).unwrap())
            .info_per_transmission_bits(&input)
            .unwrap();
        assert!(
            noisy < clean,
            "noise must reduce information: {noisy} !< {clean}"
        );
        assert!(noisy >= -1e-12, "bound must stay non-negative");
    }

    #[test]
    fn info_per_transmission_nonnegative_even_for_single_symbol() {
        // Single input symbol: H(Y) = H(diff) >= H(delta).
        let ch = Channel::new(ChannelConfig {
            cooldown: 10,
            durations: vec![10],
            delay: DelayDist::uniform(8).unwrap(),
        })
        .unwrap();
        let input = Dist::uniform(1).unwrap();
        let info = ch.info_per_transmission_bits(&input).unwrap();
        assert!(info >= -1e-12);
    }

    #[test]
    fn diff_distribution_is_symmetric_and_sums_to_one() {
        let d = DelayDist::uniform(5).unwrap();
        let diff = d.diff_probs();
        assert_eq!(diff.len(), 9);
        let sum: f64 = diff.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        for k in 0..diff.len() {
            assert!((diff[k] - diff[diff.len() - 1 - k]).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_duration_below_cooldown() {
        let err = Channel::new(ChannelConfig {
            cooldown: 10,
            durations: vec![9, 12],
            delay: DelayDist::none(),
        })
        .unwrap_err();
        assert_eq!(err, InfoError::InvalidDuration(9));
    }

    #[test]
    fn rejects_non_increasing_durations() {
        let err = Channel::new(ChannelConfig {
            cooldown: 1,
            durations: vec![3, 3],
            delay: DelayDist::none(),
        })
        .unwrap_err();
        assert_eq!(err, InfoError::InvalidDuration(3));
    }

    #[test]
    fn evenly_spaced_builder() {
        let cfg = ChannelConfig::evenly_spaced(10, 4, 5, DelayDist::none()).unwrap();
        assert_eq!(cfg.durations, vec![10, 15, 20, 25]);
        assert!(ChannelConfig::evenly_spaced(0, 4, 5, DelayDist::none()).is_err());
        assert!(ChannelConfig::evenly_spaced(10, 0, 5, DelayDist::none()).is_err());
        assert!(ChannelConfig::evenly_spaced(10, 4, 0, DelayDist::none()).is_err());
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let ch = Channel::new(ChannelConfig {
            cooldown: 3,
            durations: vec![3, 5, 8],
            delay: DelayDist::uniform(3).unwrap(),
        })
        .unwrap();
        let p = Dist::new(vec![0.2, 0.5, 0.3]).unwrap();
        let q = 0.07;
        let (_, grad) = ch.objective_and_gradient(&p, q).unwrap();

        // Finite differences along simplex-preserving directions
        // e_i − e_j: directional derivative should be grad[i] − grad[j].
        let eps = 1e-6;
        let eval = |probs: Vec<f64>| {
            let d = Dist::from_weights(probs).unwrap();
            let (v, _) = ch.objective_and_gradient(&d, q).unwrap();
            v
        };
        for i in 0..3 {
            for j in 0..3 {
                if i == j {
                    continue;
                }
                let mut up = p.as_slice().to_vec();
                up[i] += eps;
                up[j] -= eps;
                let mut dn = p.as_slice().to_vec();
                dn[i] -= eps;
                dn[j] += eps;
                let fd = (eval(up) - eval(dn)) / (2.0 * eps);
                let analytic = grad[i] - grad[j];
                assert!(
                    (fd - analytic).abs() < 1e-4,
                    "direction ({i},{j}): fd {fd} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn output_kernel_rows_sum_to_one() {
        let ch = Channel::new(ChannelConfig {
            cooldown: 2,
            durations: vec![2, 4, 9],
            delay: DelayDist::uniform(4).unwrap(),
        })
        .unwrap();
        for x in 0..ch.num_inputs() {
            let input = Dist::point_mass(ch.num_inputs(), x).unwrap();
            let py = ch.output_dist(&input).unwrap();
            let sum: f64 = py.as_slice().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }
}
