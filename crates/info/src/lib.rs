//! Information-theoretic foundations of the Untangle framework.
//!
//! This crate implements everything the paper's leakage analysis needs:
//!
//! * [`dist`] — validated probability distributions over finite alphabets
//!   and Shannon entropy (§2.2, Eq. 2.1).
//! * [`entropy`] — joint entropy, conditional entropy, and mutual
//!   information over joint tables (Eq. 2.2–2.4).
//! * [`decompose`] — the resizing-trace leakage decomposition
//!   `L = H(S) + E[H(T_s | S = s)]` into *action leakage* and *scheduling
//!   leakage* (§5.1, Eq. 5.1–5.6).
//! * [`channel`] — the covert-channel model that upper-bounds scheduling
//!   leakage: input symbols are dwell durations, a random IID delay δ is
//!   added to each action, and the receiver observes
//!   `d_y = d_x + δ_i − δ_{i−1}` (§5.3.3).
//! * [`capacity`] — Blahut–Arimoto channel capacity, an independent
//!   cross-check of the channel machinery.
//! * [`dinkelbach`] — the `R'_max` solver: Dinkelbach's transform of the
//!   single-ratio fractional program for the maximum data rate, with
//!   its concave inner maximizer (Appendix A).
//! * [`kernels`] — the scalar f64 kernels under the solver hot path
//!   (entropy, softmax, reductions, matrix apply), bit-compatible with
//!   the historical loops.
//! * [`rate_table`] — precomputed `R_max` rates for runs of consecutive
//!   `Maintain` actions (§5.3.4, §7), each entry warm-started from a
//!   nearby solved entry.
//! * [`rmax_cache`] — a thread-safe memo table so identical `R_max`
//!   solves issued by different experiments run once.
//!
//! # Example
//!
//! Compute the worked example of Figure 3 (total leakage 1.5 bits):
//!
//! ```
//! use untangle_info::decompose::TraceEnsemble;
//!
//! let mut ensemble = TraceEnsemble::new();
//! // s1 = Expand, Maintain with two equally likely timings.
//! ensemble.add_trace(vec!["EXPAND", "MAINTAIN"], vec![100, 200], 0.25);
//! ensemble.add_trace(vec!["EXPAND", "MAINTAIN"], vec![150, 300], 0.25);
//! // s2 = Maintain, Maintain with a single timing.
//! ensemble.add_trace(vec!["MAINTAIN", "MAINTAIN"], vec![120, 240], 0.5);
//!
//! let leakage = ensemble.leakage()?;
//! assert!((leakage.action_bits - 1.0).abs() < 1e-12);
//! assert!((leakage.scheduling_bits - 0.5).abs() < 1e-12);
//! assert!((leakage.total_bits() - 1.5).abs() < 1e-12);
//! # Ok::<(), untangle_info::InfoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod channel;
pub mod decompose;
pub mod dinkelbach;
pub mod dist;
pub mod entropy;
pub mod kernels;
pub mod rate_table;
pub mod rmax_cache;

pub use channel::{Channel, ChannelConfig, DelayDist};
pub use decompose::{LeakageBreakdown, TraceEnsemble};
pub use dinkelbach::{
    DinkelbachOptions, RmaxResult, RmaxSolver, SolveDiagnostics, SolveStatus, StagnationReason,
    WarmStart,
};
pub use dist::Dist;
pub use rate_table::RateTable;
pub use rmax_cache::{CacheStats, RmaxCache};

use std::fmt;

/// Errors produced by information-theoretic computations.
///
/// All public fallible functions in this crate return this type.
#[derive(Debug, Clone, PartialEq)]
pub enum InfoError {
    /// Probabilities were negative, non-finite, or did not sum to one
    /// (within tolerance). Carries the offending sum.
    InvalidDistribution(f64),
    /// An alphabet, trace ensemble, or joint table was empty.
    EmptyAlphabet,
    /// Two related structures disagreed in length (e.g. a timing sequence
    /// that does not match its action sequence length).
    LengthMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A duration violated the channel constraints (e.g. below the
    /// cooldown time, or a non-increasing timestamp sequence).
    InvalidDuration(u64),
    /// The optimizer failed to converge within the iteration budget.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual value of the Dinkelbach helper `F(q)` at exit.
        residual: f64,
    },
    /// A solver tunable was non-finite, non-positive, or a zero budget
    /// (see [`dinkelbach::DinkelbachOptions::validate`]), or a rate table
    /// asked for more entries than
    /// [`rate_table::RateTableConfig::MAX_MAINTAINS`] allows.
    InvalidOptions {
        /// Name of the offending option field.
        what: &'static str,
        /// The rejected value (a zero integer budget is reported as
        /// `0.0`, an oversized `max_maintains` as its value).
        value: f64,
    },
}

impl fmt::Display for InfoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InfoError::InvalidDistribution(sum) => {
                write!(f, "probabilities do not form a distribution (sum = {sum})")
            }
            InfoError::EmptyAlphabet => write!(f, "alphabet or ensemble is empty"),
            InfoError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            InfoError::InvalidDuration(d) => write!(f, "invalid duration: {d}"),
            InfoError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "optimizer did not converge after {iterations} iterations (residual {residual})"
            ),
            InfoError::InvalidOptions { what, value } => {
                write!(f, "invalid solver option {what} = {value}")
            }
        }
    }
}

impl std::error::Error for InfoError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, InfoError>;

/// `x * log2(x)` with the information-theoretic convention `0 log 0 = 0`.
///
/// Used throughout the entropy computations; exposed because downstream
/// leakage accounting needs the same convention.
///
/// ```
/// assert_eq!(untangle_info::xlog2x(0.0), 0.0);
/// assert!((untangle_info::xlog2x(0.5) + 0.5).abs() < 1e-12);
/// ```
#[inline]
pub fn xlog2x(x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        x * x.log2()
    }
}
