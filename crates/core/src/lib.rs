//! The Untangle framework: low-leakage, high-performance dynamic
//! partitioning schemes.
//!
//! This crate implements the paper's primary contribution on top of the
//! substrates (`untangle-info`, `untangle-sim`, `untangle-trace`):
//!
//! * [`action`] — resizing actions, their attacker-visible
//!   classification (Expand/Shrink/Maintain), and resizing traces.
//! * [`metric`] — utilization metrics (Table 2): the timing-independent,
//!   annotation-aware hit-curve metric Untangle requires (Principle 1,
//!   §5.2), the conventional metric the Time scheme uses, and a
//!   footprint metric.
//! * [`schedule`] — resizing schedules: the conventional time-based
//!   schedule and Untangle's progress-based schedule (Principle 2) with
//!   a structural cooldown guarantee (Mechanism 1, §5.3.2), and the
//!   per-domain [`schedule::Schedule`] that picks one per scheme.
//! * [`heuristic`] — the action heuristics: global hit maximization
//!   over every domain's hit curve (§7) and the footprint threshold
//!   rule, both capacity-bounded and damped toward Maintain.
//! * [`leakage`] — runtime leakage accounting: `log2 |A|` per assessment
//!   for conventional schemes (§3.3) and the `R_max(m)` rate-table
//!   charging of §5.3.4/§7 for Untangle, plus leakage budgets that
//!   freeze resizing when exhausted (§4, §6.2).
//! * [`scheme`] — the evaluated schemes: the four of Table 4 (Static,
//!   Time, Untangle, Shared) plus a SecDCP-style tiered baseline
//!   (§10), assembled from the components above.
//! * [`enumerate`] — the §3.2 ground-truth leakage measurement:
//!   enumerate inputs, run the scheme, take the entropy of the
//!   realized traces.
//! * [`decision`] — the per-domain decision step ([`DecisionCore`]:
//!   delay-RNG seed, budget gate, commit) that the batch runner and the
//!   serve daemon share.
//! * [`runner`] — the multi-domain evaluation driver: interleaves
//!   domains in global-time order, applies delayed resizes (Mechanism
//!   2), samples partition sizes, and produces per-domain reports.
//! * [`prior`] — the prior-scheme component taxonomy of Table 1, as
//!   documentation-grade data.
//! * [`error`] — the workspace error type [`UntangleError`], into which
//!   every layer above `untangle-info` funnels its failures.
//! * [`taint`] — the secret-taint type layer: the `Public ⊑ Secret`
//!   label lattice, [`Labeled`] values with taint-propagating
//!   arithmetic, and the audited [`Labeled::declassify`] escape hatch
//!   that makes every secret-to-decision-path flow a named, countable
//!   site (the static counterpart of the §5.1 action-leakage
//!   definition).
//!
//! # Example
//!
//! Run one domain under Untangle and inspect its resizing trace:
//!
//! ```
//! use untangle_core::runner::{Runner, RunnerConfig};
//! use untangle_core::scheme::SchemeKind;
//! use untangle_trace::synth::{WorkingSetModel, WorkingSetConfig};
//!
//! let config = RunnerConfig::test_scale(SchemeKind::Untangle, 1);
//! let src = WorkingSetModel::new(WorkingSetConfig::default(), 7);
//! let report = Runner::new(config, vec![Box::new(src)]).expect("valid config").run();
//! let domain = &report.domains[0];
//! assert!(domain.stats.instructions > 0);
//! assert!(domain.leakage.total_bits >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod decision;
pub mod enumerate;
pub mod error;
pub mod heuristic;
pub mod leakage;
pub mod metric;
pub mod prior;
pub mod runner;
pub mod schedule;
pub mod scheme;
pub mod taint;

pub use action::{Action, ActionClass, ResizingTrace, TraceEntry};
pub use decision::{CommittedDecision, DecisionCore};
pub use error::UntangleError;
pub use leakage::{AccountingMode, LeakageAccountant, LeakageReport};
pub use metric::MetricPolicy;
pub use runner::{DomainReport, RunReport, Runner, RunnerConfig, TelemetrySample};
pub use scheme::SchemeKind;
pub use taint::{Label, Labeled};
/// The observability layer the framework reports into (re-exported so
/// downstream drivers need no separate `untangle-obs` dependency).
pub use untangle_obs as obs;
