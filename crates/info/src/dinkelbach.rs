//! Computing the maximum covert-channel data rate `R'_max` (Appendix A).
//!
//! The optimization problem is the single-ratio fractional program
//!
//! ```text
//! R'_max = max_{p(x)} (H(Y) − H(δ)) / T_avg      (Eq. A.11a)
//! ```
//!
//! over all input distributions on the simplex. Dinkelbach's transform
//! introduces an auxiliary scalar `q` and the helper function
//! `F(q) = max_p { N(p) − q·D(p) }`. The iteration `q ← N(p*)/D(p*)`
//! converges to the optimum because `F` is strictly decreasing in `q` and
//! `F(q*) = 0` exactly at the optimal ratio.
//!
//! The inner problem is concave in `p(x)` over the simplex (the paper used
//! PyTorch's Adam; we use exponentiated-gradient / mirror ascent with
//! backtracking, which is simplex-native and dependency-free). After
//! convergence the solver *certifies* an upper bound: it guesses
//! `q′ = q_n + margin` and verifies `F(q′) ≤ 0` numerically, enlarging the
//! margin until verification succeeds — mirroring the paper's procedure.

use untangle_obs as obs;

use crate::channel::Channel;
use crate::{kernels, Dist, InfoError, Result};

/// Tunables for the Dinkelbach solver and the inner mirror-ascent loop.
#[derive(Debug, Clone, PartialEq)]
pub struct DinkelbachOptions {
    /// Outer tolerance ε: stop when `F(q) < eps`.
    pub tolerance: f64,
    /// Maximum number of Dinkelbach (outer) iterations.
    pub max_outer_iterations: usize,
    /// Maximum number of mirror-ascent (inner) iterations.
    pub max_inner_iterations: usize,
    /// Inner stop threshold on the Frank–Wolfe optimality gap.
    pub inner_gap_tolerance: f64,
    /// Initial additive margin for the upper-bound certificate `q′`.
    pub upper_bound_margin: f64,
    /// How many times the margin may be doubled while certifying.
    pub max_margin_doublings: usize,
}

impl Default for DinkelbachOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-9,
            max_outer_iterations: 64,
            max_inner_iterations: 4000,
            inner_gap_tolerance: 1e-10,
            upper_bound_margin: 1e-6,
            max_margin_doublings: 24,
        }
    }
}

impl DinkelbachOptions {
    /// Checks every tunable: tolerances and the certification margin must
    /// be finite and positive, iteration budgets non-zero.
    ///
    /// # Errors
    ///
    /// Returns [`InfoError::InvalidOptions`] naming the offending field.
    /// [`RmaxSolver::solve`] runs this check on entry, so a hand-built
    /// options struct with a NaN tolerance surfaces as a typed error
    /// rather than a silent non-terminating loop.
    pub fn validate(&self) -> Result<()> {
        let positive = [
            ("tolerance", self.tolerance),
            ("inner_gap_tolerance", self.inner_gap_tolerance),
            ("upper_bound_margin", self.upper_bound_margin),
        ];
        for (what, value) in positive {
            if !value.is_finite() || value <= 0.0 {
                return Err(InfoError::InvalidOptions { what, value });
            }
        }
        if self.max_outer_iterations == 0 {
            return Err(InfoError::InvalidOptions {
                what: "max_outer_iterations",
                value: 0.0,
            });
        }
        if self.max_inner_iterations == 0 {
            return Err(InfoError::InvalidOptions {
                what: "max_inner_iterations",
                value: 0.0,
            });
        }
        Ok(())
    }

    /// Builder: sets the outer tolerance, validating it.
    ///
    /// # Errors
    ///
    /// Returns [`InfoError::InvalidOptions`] if `tolerance` is not a
    /// finite positive number.
    pub fn with_tolerance(mut self, tolerance: f64) -> Result<Self> {
        self.tolerance = tolerance;
        self.validate()?;
        Ok(self)
    }

    /// Builder: sets the outer and inner iteration budgets, validating
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`InfoError::InvalidOptions`] if either budget is zero.
    pub fn with_budgets(mut self, max_outer: usize, max_inner: usize) -> Result<Self> {
        self.max_outer_iterations = max_outer;
        self.max_inner_iterations = max_inner;
        self.validate()?;
        Ok(self)
    }

    /// Builder: sets the upper-bound certification schedule, validating
    /// the margin.
    ///
    /// # Errors
    ///
    /// Returns [`InfoError::InvalidOptions`] if `margin` is not a finite
    /// positive number.
    pub fn with_certification(mut self, margin: f64, max_doublings: usize) -> Result<Self> {
        self.upper_bound_margin = margin;
        self.max_margin_doublings = max_doublings;
        self.validate()?;
        Ok(self)
    }
}

/// How an `R'_max` solve terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// The outer iteration reached `F(q) < ε` and the upper bound was
    /// certified by verifying `F(q′) ≤ 0`: the `[rate, upper_bound]`
    /// interval is tight to solver tolerance.
    Converged,
    /// A budget ran out before the tolerance was met. The returned
    /// `[rate, upper_bound]` interval still brackets `R'_max` — the rate
    /// is a ratio achieved by a feasible input (a true lower bound) and
    /// the upper bound is either certified or the trivial
    /// `log2|Y| / d_min` — but the bracket may be loose. Consumers that
    /// cache or tabulate rates should propagate this status instead of
    /// treating the numbers as converged.
    Bracketed,
}

impl SolveStatus {
    /// Whether the solve met its tolerance (status [`SolveStatus::Converged`]).
    pub fn is_converged(self) -> bool {
        matches!(self, SolveStatus::Converged)
    }
}

/// Why a solve returned [`SolveStatus::Bracketed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StagnationReason {
    /// The outer Dinkelbach loop exhausted
    /// [`DinkelbachOptions::max_outer_iterations`] with `F(q)` still above
    /// tolerance.
    OuterBudgetExhausted,
    /// Upper-bound certification could not verify `F(q′) ≤ 0` within
    /// [`DinkelbachOptions::max_margin_doublings`]; the trivial bound
    /// `log2|Y| / d_min` was substituted.
    CertificationFailed,
}

/// Numerical trail of a solve, attached to every [`RmaxResult`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveDiagnostics {
    /// Outer (Dinkelbach) iterations performed.
    pub outer_iterations: usize,
    /// Total mirror-ascent (inner) iterations performed, including those
    /// spent certifying the upper bound. The primary cost metric for the
    /// warm-start optimization in [`crate::rate_table`].
    pub inner_iterations: usize,
    /// Final helper value `F(q)` at exit (≈ 0 at the optimum).
    pub residual: f64,
    /// Present exactly when the solve stagnated
    /// (status [`SolveStatus::Bracketed`]).
    pub stagnation: Option<StagnationReason>,
}

/// Result of an `R'_max` computation.
#[derive(Debug, Clone)]
pub struct RmaxResult {
    /// Best rate estimate `q_n` in bits per time unit — the exact ratio
    /// achieved by `input`, hence always a valid lower bound on `R'_max`.
    pub rate: f64,
    /// Upper bound `q′ ≥ R'_max`: certified (`F(q′) ≤ 0` verified) when
    /// possible, the trivial `log2|Y| / d_min` otherwise (see
    /// [`StagnationReason::CertificationFailed`]).
    pub upper_bound: f64,
    /// The optimizing input distribution.
    pub input: Dist,
    /// Whether `[rate, upper_bound]` is converged-tight or a fallback
    /// bracket.
    pub status: SolveStatus,
    /// Iteration counts, final residual, and stagnation reason.
    pub diagnostics: SolveDiagnostics,
}

/// A starting point for [`RmaxSolver::solve_warm`], taken from the solution
/// of a *nearby* instance (in practice: the previous [`crate::RateTable`]
/// entry, whose effective cooldown `m·T_c` nests inside `(m+1)·T_c`).
///
/// The warm start seeds the inner maximization with `input` and the
/// Dinkelbach scalar with the ratio that `input` achieves **on the new
/// channel** — a feasible lower bound on the new optimum, so `F(q₀) ≥ 0`
/// and the iteration can never terminate early at an inflated rate.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// The optimal input distribution of the nearby instance.
    pub input: Dist,
}

impl WarmStart {
    /// Builds a warm start from a previous solve's result.
    pub fn from_result(result: &RmaxResult) -> Self {
        Self {
            input: result.input.clone(),
        }
    }
}

/// Solves `R'_max` for a [`Channel`].
///
/// # Example
///
/// With no random delay and alphabet `{1, 2}` (durations in ms), the
/// optimum of `max_p H(p) / (p·1 + (1−p)·2)` is ≈ 0.6942 bits/ms, above
/// the uniform distribution's 2/3:
///
/// ```
/// use untangle_info::{Channel, ChannelConfig, DelayDist, Dist, RmaxSolver};
///
/// let ch = Channel::new(ChannelConfig {
///     cooldown: 1,
///     durations: vec![1, 2],
///     delay: DelayDist::none(),
/// })?;
/// let result = RmaxSolver::new(ch).solve()?;
/// assert!(result.rate > 0.694 && result.rate < 0.695);
/// # Ok::<(), untangle_info::InfoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RmaxSolver {
    channel: Channel,
    options: DinkelbachOptions,
}

impl RmaxSolver {
    /// Creates a solver with default options.
    pub fn new(channel: Channel) -> Self {
        Self {
            channel,
            options: DinkelbachOptions::default(),
        }
    }

    /// Creates a solver with explicit options.
    pub fn with_options(channel: Channel, options: DinkelbachOptions) -> Self {
        Self { channel, options }
    }

    /// The channel being optimized.
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// Runs Dinkelbach's transform and certifies an upper bound.
    ///
    /// Never fails on convergence: when an iteration budget runs out or
    /// certification stalls, the result carries
    /// [`SolveStatus::Bracketed`] and a sound (if loose) rate bracket
    /// instead of an error — long sweeps degrade per-entry rather than
    /// aborting. Inspect [`RmaxResult::status`] and
    /// [`RmaxResult::diagnostics`] to tell the cases apart.
    ///
    /// # Errors
    ///
    /// Returns [`InfoError::InvalidOptions`] if the solver options fail
    /// [`DinkelbachOptions::validate`]; internal distribution errors
    /// propagate unchanged.
    pub fn solve(&self) -> Result<RmaxResult> {
        self.solve_warm(None)
    }

    /// Like [`RmaxSolver::solve`], but optionally seeded from a nearby
    /// instance's optimum (see [`WarmStart`]).
    ///
    /// A warm start changes only where the iteration *starts*:
    ///
    /// * the inner maximization begins at the warm input distribution
    ///   instead of uniform, and
    /// * the Dinkelbach scalar begins at the ratio the warm input achieves
    ///   on **this** channel (a feasible lower bound on the optimum)
    ///   instead of `0`.
    ///
    /// Convergence thresholds and the upper-bound certification are
    /// untouched — in particular the certification margin always starts at
    /// [`DinkelbachOptions::upper_bound_margin`] — so a warm solve certifies
    /// the same rate as a cold one (up to solver tolerance), it just gets
    /// there in fewer inner iterations.
    ///
    /// A warm start whose alphabet size disagrees with this channel is
    /// ignored rather than rejected.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RmaxSolver::solve`].
    pub fn solve_warm(&self, warm: Option<&WarmStart>) -> Result<RmaxResult> {
        let _span = obs::span("dinkelbach.solve");
        self.options.validate()?;
        let n = self.channel.num_inputs();
        let mut q = 0.0;
        let mut p = Dist::uniform(n)?;
        let mut warm_used = false;
        if let Some(w) = warm {
            if w.input.len() == n {
                p = w.input.clone();
                let info = self.channel.info_per_transmission_bits(&p)?;
                let t_avg = self.channel.average_time(&p)?;
                if t_avg > 0.0 {
                    q = (info / t_avg).max(0.0);
                }
                warm_used = true;
            }
        }
        let mut outer = 0;
        let mut inner_total = 0;
        let mut f_q = f64::INFINITY;
        let mut outer_converged = false;
        // Frank–Wolfe gap of each outer iteration's inner exit iterate;
        // collected only when observability is on (the Vec never
        // allocates otherwise).
        let mut fw_gaps: Vec<f64> = Vec::new();
        // One set of ascent buffers reused across every inner call of
        // this solve (outer iterations and certification alike).
        let mut ws = AscentWorkspace::new();

        while outer < self.options.max_outer_iterations {
            outer += 1;
            let (p_star, value, fw_gap, used) = self.inner_maximize(&mut ws, q, &p, false)?;
            inner_total += used;
            if obs::enabled() {
                fw_gaps.push(fw_gap);
            }
            f_q = value;
            p = p_star;
            if f_q < self.options.tolerance {
                outer_converged = true;
                break;
            }
            // q_{i+1} = N(p_i)/D(p_i)
            let info = self.channel.info_per_transmission_bits(&p)?;
            let t_avg = self.channel.average_time(&p)?;
            let next_q = (info / t_avg).max(0.0);
            if (next_q - q).abs() < self.options.tolerance * 1e-3 && f_q < 1e-6 {
                // q has stopped moving and the residual is in the
                // numerical-noise band: accept as converged.
                q = next_q;
                outer_converged = true;
                break;
            }
            q = next_q;
        }
        if !outer_converged && f_q < self.options.tolerance.max(1e-6) {
            // The budget ran out exactly at the tolerance boundary; the
            // residual already sits in the accepted band.
            outer_converged = true;
        }
        let mut stagnation = if outer_converged {
            None
        } else {
            Some(StagnationReason::OuterBudgetExhausted)
        };

        // Certify an upper bound: find margin m with F(q + m) <= 0. The
        // margin deliberately starts from the configured value even on warm
        // solves so warm and cold runs certify identical bounds. Run this
        // even for a budget-exhausted solve — the current q is a valid
        // lower bound, and certification from it can still tighten the
        // bracket's upper edge.
        let mut margin = self.options.upper_bound_margin;
        let mut certified = None;
        for _ in 0..=self.options.max_margin_doublings {
            let q_prime = q + margin;
            let (_, f_val, gap, used) = self.inner_maximize(&mut ws, q_prime, &p, true)?;
            inner_total += used;
            // By concavity the maximum of G(·, q′) is at most the exit
            // iterate's value plus its Frank–Wolfe gap, so this is a proof
            // of F(q′) ≤ 0 even when the inner budget ran out mid-ascent —
            // accepting the bare value there would certify an unsound
            // bound from an unfinished maximization.
            if f_val + gap <= 0.0 {
                certified = Some(q_prime);
                break;
            }
            margin *= 2.0;
        }
        let upper_bound = match certified {
            Some(q_prime) => q_prime,
            None => {
                stagnation.get_or_insert(StagnationReason::CertificationFailed);
                self.trivial_upper_bound().max(q)
            }
        };

        let status = if stagnation.is_none() {
            SolveStatus::Converged
        } else {
            SolveStatus::Bracketed
        };
        if obs::enabled() {
            obs::counter_add("dinkelbach.solves", 1);
            obs::counter_add("dinkelbach.outer_iterations", outer as u64);
            obs::counter_add("dinkelbach.inner_iterations", inner_total as u64);
            // Warm-start savings read off the summary as inner iterations
            // per solve, warm vs cold.
            if warm_used {
                obs::counter_add("dinkelbach.warm_solves", 1);
                obs::counter_add("dinkelbach.warm_inner_iterations", inner_total as u64);
            } else {
                obs::counter_add("dinkelbach.cold_inner_iterations", inner_total as u64);
            }
            if status == SolveStatus::Bracketed {
                obs::counter_add("dinkelbach.bracketed_solves", 1);
            }
            obs::event(
                "dinkelbach.solve",
                &[
                    ("rate", obs::Value::F64(q)),
                    ("upper_bound", obs::Value::F64(upper_bound)),
                    ("outer_iterations", obs::Value::U64(outer as u64)),
                    ("inner_iterations", obs::Value::U64(inner_total as u64)),
                    ("residual", obs::Value::F64(f_q)),
                    ("warm", obs::Value::Bool(warm_used)),
                    (
                        "converged",
                        obs::Value::Bool(status == SolveStatus::Converged),
                    ),
                    ("fw_gap_trajectory", obs::Value::F64s(fw_gaps)),
                ],
            );
        }
        Ok(RmaxResult {
            rate: q,
            upper_bound,
            input: p,
            status,
            diagnostics: SolveDiagnostics {
                outer_iterations: outer,
                inner_iterations: inner_total,
                residual: f_q,
                stagnation,
            },
        })
    }

    /// A sound, if loose, upper bound on `R'_max` that needs no
    /// certification: `H(Y) − H(δ) ≤ H(Y) ≤ log2|Y|` and
    /// `T_avg ≥ d_min`, so `R'_max ≤ log2|Y| / d_min`. Channel validation
    /// rejects zero durations, so the denominator is at least one time
    /// unit. Used as the bracket's upper edge when certification stalls.
    fn trivial_upper_bound(&self) -> f64 {
        // Durations are validated strictly increasing, so the first is
        // the minimum; the fallbacks are unreachable but keep this
        // panic-free by construction.
        let d_min = self
            .channel
            .config()
            .durations
            .first()
            .copied()
            .unwrap_or(1)
            .max(1) as f64;
        (self.channel.num_outputs().max(1) as f64).log2() / d_min
    }

    /// Inner concave maximization `F(q) = max_p { H(Y) − H(δ) − q·T_avg }`
    /// via exponentiated gradient ascent with backtracking, run on a
    /// reusable [`AscentWorkspace`] (no per-trial allocation).
    ///
    /// Returns the maximizing distribution, the achieved value, the
    /// Frank–Wolfe gap at that iterate (so callers can bound the true
    /// maximum by `value + gap` even when the budget ran out), and the
    /// number of ascent iterations consumed.
    ///
    /// With `decide_sign` set (the certification mode) the loop only has
    /// to determine the sign of `F`, not locate the maximizer, so it
    /// stops as soon as either answer is known:
    ///
    /// * `value > 0` — the current iterate already witnesses `F > 0`
    ///   (ascent only increases the value), or
    /// * `value + gap ≤ 0` — concavity bounds the maximum by the current
    ///   value plus the Frank–Wolfe gap, proving `F ≤ 0`.
    ///
    /// Iteration cost therefore tracks how close the starting point is to
    /// an answer, which is what makes warm-started solves cheap.
    fn inner_maximize(
        &self,
        ws: &mut AscentWorkspace,
        q: f64,
        warm_start: &Dist,
        decide_sign: bool,
    ) -> Result<(Dist, f64, f64, usize)> {
        ws.begin(&self.channel, q, warm_start.as_slice());
        let mut used = 0;
        for _ in 0..self.options.max_inner_iterations {
            used += 1;
            let outcome = ws.iterate(
                &self.channel,
                q,
                self.options.inner_gap_tolerance,
                decide_sign,
            );
            if outcome != IterOutcome::Advanced {
                break;
            }
        }
        // Gap at the *returned* iterate (p may have moved since the last
        // in-loop gap computation); callers use it to bound the maximum.
        let final_gap = ws.current_gap();
        Ok((Dist::from_weights(ws.p.clone())?, ws.value, final_gap, used))
    }

    /// The frozen pre-kernel solver: a verbatim copy of `solve_warm` as it
    /// stood before the kernel layer landed (allocating inner loop, full
    /// gradient evaluated on every backtracking trial, per-cell `log2` in
    /// the gradient, no observability).
    ///
    /// It is the bit-compatibility oracle: the optimized
    /// [`RmaxSolver::solve_warm`] must reproduce this function's results
    /// exactly (`tests/kernel_equivalence.rs` asserts the rates, bounds,
    /// optimal inputs and iteration counts bit-for-bit).
    ///
    /// # Errors
    ///
    /// Same conditions as [`RmaxSolver::solve_warm`].
    pub fn solve_warm_reference(&self, warm: Option<&WarmStart>) -> Result<RmaxResult> {
        self.options.validate()?;
        let n = self.channel.num_inputs();
        let mut q = 0.0;
        let mut p = Dist::uniform(n)?;
        if let Some(w) = warm {
            if w.input.len() == n {
                p = w.input.clone();
                let info = self.channel.info_per_transmission_bits(&p)?;
                let t_avg = self.channel.average_time(&p)?;
                if t_avg > 0.0 {
                    q = (info / t_avg).max(0.0);
                }
            }
        }
        let mut outer = 0;
        let mut inner_total = 0;
        let mut f_q = f64::INFINITY;
        let mut outer_converged = false;

        while outer < self.options.max_outer_iterations {
            outer += 1;
            let (p_star, value, _fw_gap, used) = self.inner_maximize_reference(q, &p, false)?;
            inner_total += used;
            f_q = value;
            p = p_star;
            if f_q < self.options.tolerance {
                outer_converged = true;
                break;
            }
            let info = self.channel.info_per_transmission_bits(&p)?;
            let t_avg = self.channel.average_time(&p)?;
            let next_q = (info / t_avg).max(0.0);
            if (next_q - q).abs() < self.options.tolerance * 1e-3 && f_q < 1e-6 {
                q = next_q;
                outer_converged = true;
                break;
            }
            q = next_q;
        }
        if !outer_converged && f_q < self.options.tolerance.max(1e-6) {
            outer_converged = true;
        }
        let mut stagnation = if outer_converged {
            None
        } else {
            Some(StagnationReason::OuterBudgetExhausted)
        };

        let mut margin = self.options.upper_bound_margin;
        let mut certified = None;
        for _ in 0..=self.options.max_margin_doublings {
            let q_prime = q + margin;
            let (_, f_val, gap, used) = self.inner_maximize_reference(q_prime, &p, true)?;
            inner_total += used;
            if f_val + gap <= 0.0 {
                certified = Some(q_prime);
                break;
            }
            margin *= 2.0;
        }
        let upper_bound = match certified {
            Some(q_prime) => q_prime,
            None => {
                stagnation.get_or_insert(StagnationReason::CertificationFailed);
                self.trivial_upper_bound().max(q)
            }
        };

        let status = if stagnation.is_none() {
            SolveStatus::Converged
        } else {
            SolveStatus::Bracketed
        };
        Ok(RmaxResult {
            rate: q,
            upper_bound,
            input: p,
            status,
            diagnostics: SolveDiagnostics {
                outer_iterations: outer,
                inner_iterations: inner_total,
                residual: f_q,
                stagnation,
            },
        })
    }

    /// Verbatim pre-kernel inner loop (see
    /// [`RmaxSolver::solve_warm_reference`]): allocates fresh buffers per
    /// trial and evaluates the full gradient even on rejected trials.
    fn inner_maximize_reference(
        &self,
        q: f64,
        warm_start: &Dist,
        decide_sign: bool,
    ) -> Result<(Dist, f64, f64, usize)> {
        let mut p: Vec<f64> = warm_start.as_slice().to_vec();
        // Keep strictly positive mass so log-space updates stay finite and
        // we honour the p(x) > 0 constraint of Eq. A.11b.
        let floor = 1e-300;
        let mut step = 0.5;
        let (mut value, mut grad) =
            reference_objective_and_gradient(&self.channel, &Dist::from_weights(p.clone())?, q)?;

        let mut used = 0;
        let mut stagnant = 0u32;
        for _ in 0..self.options.max_inner_iterations {
            used += 1;
            // Frank–Wolfe gap: max_x grad_x − <p, grad>. Zero at optimum.
            let inner: f64 = p.iter().zip(&grad).map(|(&pi, &gi)| pi * gi).sum();
            let max_g = grad.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let gap = max_g - inner;
            if gap < self.options.inner_gap_tolerance {
                break;
            }
            if decide_sign && (value > 0.0 || value + gap <= 0.0) {
                break;
            }

            // Exponentiated-gradient trial step with backtracking on the
            // objective value.
            let mut accepted = false;
            for _ in 0..40 {
                let mut trial: Vec<f64> = p
                    .iter()
                    .zip(&grad)
                    .map(|(&pi, &gi)| (pi.max(floor)).ln() + step * (gi - max_g))
                    .collect();
                // Softmax normalization in log space for stability.
                let m = trial.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                for t in &mut trial {
                    *t = (*t - m).exp();
                }
                let z: f64 = trial.iter().sum();
                for t in &mut trial {
                    *t /= z;
                }
                let trial_dist = Dist::from_weights(trial.clone())?;
                let (trial_value, trial_grad) =
                    reference_objective_and_gradient(&self.channel, &trial_dist, q)?;
                if trial_value >= value - 1e-15 {
                    // Distinguish real progress from the numerical tail:
                    // several consecutive sub-noise improvements mean the
                    // iterate is done moving.
                    if trial_value - value <= 1e-13 * (1.0 + value.abs()) {
                        stagnant += 1;
                    } else {
                        stagnant = 0;
                    }
                    p = trial;
                    value = trial_value;
                    grad = trial_grad;
                    // Gentle step growth after a success.
                    step = (step * 1.3).min(64.0);
                    accepted = true;
                    break;
                }
                step *= 0.5;
            }
            if !accepted || stagnant >= 8 {
                break; // numerically at the optimum
            }
        }
        // Gap at the *returned* iterate (p may have moved since the last
        // in-loop gap computation); callers use it to bound the maximum.
        let inner: f64 = p.iter().zip(&grad).map(|(&pi, &gi)| pi * gi).sum();
        let max_g = grad.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let final_gap = max_g - inner;
        Ok((Dist::from_weights(p)?, value, final_gap, used))
    }
}

/// The historical `Channel::objective_and_gradient`, kept verbatim for
/// [`RmaxSolver::solve_warm_reference`]: re-derives `log2 p(y)` for every
/// nonzero kernel cell instead of hoisting a per-output table.
fn reference_objective_and_gradient(
    channel: &Channel,
    input: &Dist,
    q: f64,
) -> Result<(f64, Vec<f64>)> {
    let py = channel.output_dist(input)?;
    let h_y = py.entropy_bits();
    let t_avg = channel.average_time(input)?;
    let value = h_y - channel.delay_entropy_bits() - q * t_avg;

    let inv_ln2 = std::f64::consts::LOG2_E;
    let n = channel.num_inputs();
    let mut grad = vec![0.0; n];
    for (xi, g_out) in grad.iter_mut().enumerate() {
        let row = channel.kernel_row(xi);
        let mut g = 0.0;
        for (yi, &pyx) in row.iter().enumerate() {
            if pyx > 0.0 {
                let pyv = py.prob(yi);
                // p(y) > 0 whenever p(y|x) > 0 and any mass reaches x;
                // guard anyway for p(x) = 0 corners.
                let log_term = if pyv > 0.0 { pyv.log2() } else { 0.0 };
                g -= pyx * (log_term + inv_ln2);
            }
        }
        *g_out = g - q * channel.config().durations[xi] as f64;
    }
    Ok((value, grad))
}

/// How one [`AscentWorkspace::iterate`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IterOutcome {
    /// A trial step was accepted and ascent continues.
    Advanced,
    /// The Frank–Wolfe gap fell below tolerance: the iterate is optimal.
    GapConverged,
    /// Certification mode settled the sign of `F` (either `value > 0` or
    /// `value + gap ≤ 0`).
    SignDecided,
    /// Backtracking found no acceptable step, or progress has been inside
    /// the numerical-noise band for 8 consecutive accepts.
    Stalled,
}

/// Reusable buffers and per-instance state of one exponentiated-gradient
/// ascent: the no-alloc core of [`RmaxSolver::solve_warm`].
///
/// One [`AscentWorkspace::iterate`] call performs exactly one iteration of
/// the historical `inner_maximize` loop — same Frank–Wolfe gap test, same
/// 40-trial backtracking line search with the `1e-15` accept slack and
/// 8-strike stagnation counter, same step growth/decay — but evaluates
/// only the objective *value* on backtracking trials (the gradient is
/// recomputed once, from the already-normalized output distribution, when
/// a trial is accepted) and reuses these buffers instead of allocating
/// per trial. The arithmetic is bit-identical to the historical loop; the
/// iterate sequence, accept decisions, and exit conditions therefore
/// agree exactly.
#[derive(Debug, Clone, Default)]
struct AscentWorkspace {
    /// Current (raw, softmax-normalized) iterate on the simplex.
    p: Vec<f64>,
    /// Objective value at the renormalized iterate.
    value: f64,
    /// Gradient at the renormalized iterate.
    grad: Vec<f64>,
    /// Backtracking step size.
    step: f64,
    /// Consecutive sub-noise accepts (8 strikes end the ascent).
    stagnant: u32,
    /// Scratch: the iterate renormalized exactly as `Dist::from_weights`
    /// would (the historical code evaluated objectives on the
    /// renormalized copy while stepping from the raw iterate).
    eval: Vec<f64>,
    /// Scratch: normalized output distribution of the last evaluation.
    py: Vec<f64>,
    /// Scratch: `log2 p(y)` table of the last evaluation.
    log_py: Vec<f64>,
    /// Scratch: gradient log table (`log2 p(y) + 1/ln 2`).
    log_table: Vec<f64>,
    /// Scratch: backtracking trial point.
    trial: Vec<f64>,
    /// Scratch: `ln(max(p, MASS_FLOOR))` of the current iterate, hoisted
    /// out of the backtracking loop (the iterate is fixed across trials;
    /// only the step size changes).
    logp: Vec<f64>,
}

/// Strictly positive mass floor: keeps log-space updates finite and
/// honours the `p(x) > 0` constraint of Eq. A.11b.
const MASS_FLOOR: f64 = 1e-300;

impl AscentWorkspace {
    /// Fresh workspace; buffers size themselves lazily on first use.
    fn new() -> Self {
        Self::default()
    }

    /// (Re)starts an ascent at `start` for inner parameter `q`,
    /// replicating the historical initial evaluation
    /// `objective_and_gradient(Dist::from_weights(p), q)`.
    fn begin(&mut self, channel: &Channel, q: f64, start: &[f64]) {
        self.p.clear();
        self.p.extend_from_slice(start);
        self.step = 0.5;
        self.stagnant = 0;
        self.eval.clear();
        self.eval.resize(self.p.len(), 0.0);
        kernels::normalize_into(&mut self.eval, &self.p);
        self.value = channel.objective_value_into(&self.eval, q, &mut self.py, &mut self.log_py);
        channel.gradient_from_logs_into(&self.log_py, q, &mut self.log_table, &mut self.grad);
    }

    /// One ascent iteration: gap test, optional sign decision, then the
    /// backtracking line search. Mirrors one pass of the historical
    /// `inner_maximize` loop body exactly.
    fn iterate(
        &mut self,
        channel: &Channel,
        q: f64,
        gap_tolerance: f64,
        decide_sign: bool,
    ) -> IterOutcome {
        // Frank–Wolfe gap: max_x grad_x − <p, grad>. Zero at optimum.
        let (inner, max_g) = kernels::dot_and_max(&self.p, &self.grad);
        let gap = max_g - inner;
        if gap < gap_tolerance {
            return IterOutcome::GapConverged;
        }
        if decide_sign && (self.value > 0.0 || self.value + gap <= 0.0) {
            return IterOutcome::SignDecided;
        }

        // Exponentiated-gradient trial step with backtracking on the
        // objective value. Only the value is computed per trial; the
        // gradient is derived from the accepted trial's output
        // distribution, whose `log2 p(y)` table the value evaluation
        // already produced.
        // The iterate's log is invariant across backtracking trials
        // (only `step` halves), so compute it once per iteration. Each
        // element is the exact same `max(p, floor).ln()` the per-trial
        // expression produced — hoisting does not change a single bit.
        kernels::ln_floored_into(&mut self.logp, &self.p, MASS_FLOOR);
        let accepted = self.backtrack(channel, q, max_g);
        if !accepted || self.stagnant >= 8 {
            IterOutcome::Stalled // numerically at the optimum
        } else {
            IterOutcome::Advanced
        }
    }

    /// The historical 40-trial backtracking line search, verbatim:
    /// softmax-normalize the trial, renormalize exactly as
    /// `Dist::from_weights` would, evaluate, accept or halve. Bitwise
    /// identical to the pre-kernel loop.
    fn backtrack(&mut self, channel: &Channel, q: f64, max_g: f64) -> bool {
        for _ in 0..40 {
            self.trial.clear();
            self.trial.extend(
                self.logp
                    .iter()
                    .zip(&self.grad)
                    .map(|(&lpi, &gi)| lpi + self.step * (gi - max_g)),
            );
            // Softmax normalization in log space for stability.
            kernels::softmax_inplace(&mut self.trial);
            self.eval.clear();
            self.eval.resize(self.trial.len(), 0.0);
            kernels::normalize_into(&mut self.eval, &self.trial);
            let trial_value =
                channel.objective_value_into(&self.eval, q, &mut self.py, &mut self.log_py);
            if trial_value >= self.value - 1e-15 {
                self.note_stagnation(trial_value);
                std::mem::swap(&mut self.p, &mut self.trial);
                self.value = trial_value;
                channel.gradient_from_logs_into(
                    &self.log_py,
                    q,
                    &mut self.log_table,
                    &mut self.grad,
                );
                // Gentle step growth after a success.
                self.step = (self.step * 1.3).min(64.0);
                return true;
            }
            self.step *= 0.5;
        }
        false
    }

    /// Distinguishes real progress from the numerical tail: several
    /// consecutive sub-noise improvements mean the iterate is done
    /// moving (checked by the caller against the 8-strike limit).
    fn note_stagnation(&mut self, trial_value: f64) {
        if trial_value - self.value <= 1e-13 * (1.0 + self.value.abs()) {
            self.stagnant += 1;
        } else {
            self.stagnant = 0;
        }
    }

    /// Frank–Wolfe gap at the current iterate (recomputed; the iterate may
    /// have moved since the last in-loop gap).
    fn current_gap(&self) -> f64 {
        let (inner, max_g) = kernels::dot_and_max(&self.p, &self.grad);
        max_g - inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelConfig, DelayDist};

    fn solve(cooldown: u64, n: usize, step: u64, delay: DelayDist) -> RmaxResult {
        let ch =
            Channel::new(ChannelConfig::evenly_spaced(cooldown, n, step, delay).unwrap()).unwrap();
        RmaxSolver::new(ch).solve().unwrap()
    }

    #[test]
    fn noiseless_two_symbol_matches_closed_form() {
        // max_p H2(p) / (p + 2(1−p)) — golden value computed by fine grid.
        let r = solve(1, 2, 1, DelayDist::none());
        let mut best = 0.0f64;
        for i in 1..10000 {
            let p = i as f64 / 10000.0;
            let h = -(p * p.log2() + (1.0 - p) * (1.0 - p).log2());
            let t = p + 2.0 * (1.0 - p);
            best = best.max(h / t);
        }
        assert!(
            (r.rate - best).abs() < 1e-4,
            "solver {} vs grid {}",
            r.rate,
            best
        );
        assert!(r.upper_bound >= r.rate);
        assert!(r.upper_bound - r.rate < 1e-3);
    }

    #[test]
    fn optimal_beats_uniform() {
        let ch = Channel::new(ChannelConfig::evenly_spaced(2, 6, 1, DelayDist::none()).unwrap())
            .unwrap();
        let uniform_rate = ch.rate_bits_per_unit(&Dist::uniform(6).unwrap()).unwrap();
        let r = RmaxSolver::new(ch).solve().unwrap();
        assert!(
            r.rate >= uniform_rate - 1e-9,
            "optimum {} must beat uniform {}",
            r.rate,
            uniform_rate
        );
    }

    #[test]
    fn longer_cooldown_lowers_rmax() {
        let fast = solve(2, 8, 1, DelayDist::none());
        let slow = solve(8, 8, 1, DelayDist::none());
        assert!(
            slow.rate < fast.rate,
            "cooldown must reduce the rate: {} !< {}",
            slow.rate,
            fast.rate
        );
    }

    #[test]
    fn random_delay_lowers_rmax() {
        let clean = solve(4, 6, 2, DelayDist::none());
        let noisy = solve(4, 6, 2, DelayDist::uniform(6).unwrap());
        assert!(
            noisy.rate < clean.rate,
            "delay must reduce the rate: {} !< {}",
            noisy.rate,
            clean.rate
        );
    }

    #[test]
    fn rate_is_nonnegative_and_bounded_by_log_alphabet_over_cooldown() {
        let r = solve(5, 9, 1, DelayDist::uniform(3).unwrap());
        assert!(r.rate >= 0.0);
        let bound = (9f64).log2() / 5.0;
        assert!(r.rate <= bound + 1e-9);
    }

    #[test]
    fn single_symbol_channel_rate_with_delay_is_small_but_positive() {
        // Even a single symbol leaks via the delay-difference structure
        // H(Y) − H(δ) = H(diff) − H(δ) ≥ 0.
        let r = solve(10, 1, 1, DelayDist::uniform(4).unwrap());
        assert!(r.rate >= 0.0);
        assert!(r.rate < 0.2);
    }

    #[test]
    fn single_symbol_noiseless_rate_is_zero() {
        let r = solve(10, 1, 1, DelayDist::none());
        assert!(r.rate.abs() < 1e-9);
    }

    #[test]
    fn optimal_input_has_full_support() {
        // Eq. A.11b requires p(x) > 0; EG preserves this.
        let r = solve(3, 5, 1, DelayDist::uniform(2).unwrap());
        for x in 0..5 {
            assert!(r.input.prob(x) > 0.0);
        }
    }

    #[test]
    fn warm_start_matches_cold_solve_and_saves_inner_iterations() {
        // Nested instances: cooldown 4 warm-starts cooldown 5, mimicking
        // consecutive RateTable entries.
        let cold_prev = solve(4, 8, 1, DelayDist::uniform(3).unwrap());
        let ch = Channel::new(
            ChannelConfig::evenly_spaced(5, 8, 1, DelayDist::uniform(3).unwrap()).unwrap(),
        )
        .unwrap();
        let solver = RmaxSolver::new(ch);
        let cold = solver.solve().unwrap();
        let warm = solver
            .solve_warm(Some(&WarmStart::from_result(&cold_prev)))
            .unwrap();
        assert!(
            (warm.upper_bound - cold.upper_bound).abs() < 1e-9,
            "certified bounds must agree: warm {} vs cold {}",
            warm.upper_bound,
            cold.upper_bound
        );
        assert!((warm.rate - cold.rate).abs() < 1e-7);
        assert!(
            warm.diagnostics.inner_iterations <= cold.diagnostics.inner_iterations,
            "warm start must not cost more inner iterations ({} vs {})",
            warm.diagnostics.inner_iterations,
            cold.diagnostics.inner_iterations
        );
    }

    #[test]
    fn warm_start_with_wrong_alphabet_is_ignored() {
        let prev = solve(4, 5, 1, DelayDist::none());
        let ch = Channel::new(ChannelConfig::evenly_spaced(4, 8, 1, DelayDist::none()).unwrap())
            .unwrap();
        let solver = RmaxSolver::new(ch);
        let cold = solver.solve().unwrap();
        let warm = solver
            .solve_warm(Some(&WarmStart::from_result(&prev)))
            .unwrap();
        assert!((warm.rate - cold.rate).abs() < 1e-9);
    }

    #[test]
    fn converged_solve_reports_converged_status() {
        let r = solve(2, 4, 1, DelayDist::none());
        assert_eq!(r.status, SolveStatus::Converged);
        assert!(r.status.is_converged());
        assert!(r.diagnostics.stagnation.is_none());
        assert!(r.diagnostics.outer_iterations >= 1);
        assert!(r.diagnostics.inner_iterations >= 1);
        assert!(r.diagnostics.residual < 1e-6);
    }

    #[test]
    fn starved_budget_returns_sound_bracket_not_error() {
        let mk = || {
            Channel::new(
                ChannelConfig::evenly_spaced(2, 8, 1, DelayDist::uniform(4).unwrap()).unwrap(),
            )
            .unwrap()
        };
        let opts = DinkelbachOptions::default().with_budgets(1, 2).unwrap();
        let starved = RmaxSolver::with_options(mk(), opts).solve().unwrap();
        assert_eq!(starved.status, SolveStatus::Bracketed);
        assert!(matches!(
            starved.diagnostics.stagnation,
            Some(StagnationReason::OuterBudgetExhausted | StagnationReason::CertificationFailed)
        ));
        assert!(starved.rate <= starved.upper_bound);

        // The bracket is sound: a fully converged solve lands inside it.
        let full = RmaxSolver::new(mk()).solve().unwrap();
        assert_eq!(full.status, SolveStatus::Converged);
        assert!(full.rate >= starved.rate - 1e-9);
        assert!(full.rate <= starved.upper_bound + 1e-9);
    }

    #[test]
    fn invalid_options_are_rejected_as_typed_errors() {
        assert!(matches!(
            DinkelbachOptions::default().with_tolerance(f64::NAN),
            Err(InfoError::InvalidOptions { .. })
        ));
        assert!(matches!(
            DinkelbachOptions::default().with_tolerance(-1.0),
            Err(InfoError::InvalidOptions { .. })
        ));
        assert!(matches!(
            DinkelbachOptions::default().with_budgets(0, 100),
            Err(InfoError::InvalidOptions { .. })
        ));
        assert!(matches!(
            DinkelbachOptions::default().with_budgets(10, 0),
            Err(InfoError::InvalidOptions { .. })
        ));
        assert!(matches!(
            DinkelbachOptions::default().with_certification(0.0, 4),
            Err(InfoError::InvalidOptions { .. })
        ));

        // A hand-built struct with a bad field errors at solve time rather
        // than looping forever.
        let bad = DinkelbachOptions {
            tolerance: f64::NAN,
            ..DinkelbachOptions::default()
        };
        let ch = Channel::new(ChannelConfig::evenly_spaced(1, 2, 1, DelayDist::none()).unwrap())
            .unwrap();
        assert!(matches!(
            RmaxSolver::with_options(ch, bad).solve(),
            Err(InfoError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn upper_bound_certificate_holds() {
        let ch = Channel::new(
            ChannelConfig::evenly_spaced(4, 7, 2, DelayDist::uniform(4).unwrap()).unwrap(),
        )
        .unwrap();
        let solver = RmaxSolver::new(ch.clone());
        let r = solver.solve().unwrap();
        // Spot check: a handful of random-ish distributions never beat the
        // certified upper bound.
        let cands = [
            Dist::uniform(7).unwrap(),
            Dist::from_weights(vec![7.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]).unwrap(),
            Dist::from_weights(vec![1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0]).unwrap(),
            r.input.clone(),
        ];
        for c in &cands {
            assert!(ch.rate_bits_per_unit(c).unwrap() <= r.upper_bound + 1e-9);
        }
    }
}
