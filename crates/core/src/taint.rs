//! The secret-taint type layer: a two-point information-flow lattice
//! with an explicit, auditable declassification escape hatch.
//!
//! Untangle's central design principle (§5.1) is that a scheme's
//! resizing actions must be *timing-independent functions of public
//! progress* — action leakage `H(S) = 0` is a non-interference
//! property. This module makes secret-dependence explicit in the types
//! so that property is visible in the code, not just in simulations:
//!
//! * [`Label`] — the lattice `Public ⊑ Secret` with [`Label::join`].
//! * [`Labeled<T>`] — a value tagged with its label. Combining two
//!   labeled values joins their labels (taint propagation), so a
//!   computation that ever touched secret-dependent data stays
//!   `Secret`.
//! * [`Labeled::declassify`] — the *only* way secret data crosses into
//!   a decision path. Every call names a [`sites`] constant, making the
//!   leak surface greppable, and while an [`audit::capture`] is active
//!   each crossing is recorded. The non-interference certifier
//!   (`untangle-analysis`) runs schemes under capture and turns the
//!   recorded sites into the `LeakSites[...]` of its certificate.
//! * [`Labeled::require_public`] — the fail-closed guard: interfaces
//!   that must never see secret data (Untangle's progress schedule)
//!   reject `Secret` inputs with [`UntangleError::TaintViolation`] and
//!   the violation is recorded for the audit.
//!
//! The conventional Time scheme's wall-clock schedule and all-seeing
//! metric are forced through [`Labeled::declassify`]
//! ([`sites::TIME_SCHEDULE_WALL_CLOCK`], [`sites::CONVENTIONAL_METRIC`]),
//! so the edges ①–③ of the paper's Figure 2 appear as named,
//! countable declassification sites instead of silent data flow.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::{Add, Div, Mul, Sub};

use crate::error::UntangleError;

/// The two-point information-flow lattice: `Public ⊑ Secret`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Label {
    /// Derivable from public inputs and public progress alone.
    Public,
    /// Influenced by a secret — directly, through control flow, or
    /// through secret-dependent timing.
    Secret,
}

impl Label {
    /// Least upper bound: `Secret` absorbs everything.
    pub const fn join(self, other: Label) -> Label {
        match (self, other) {
            (Label::Public, Label::Public) => Label::Public,
            _ => Label::Secret,
        }
    }

    /// Whether data at this label may flow to a `Public` sink without
    /// declassification.
    pub const fn flows_to_public(self) -> bool {
        matches!(self, Label::Public)
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Label::Public => "public",
            Label::Secret => "secret",
        })
    }
}

/// The named declassification and violation sites of the workspace.
///
/// Keeping every site a `const` in one module makes the full leak
/// surface reviewable at a glance and gives the certifier stable
/// machine-readable names for its `LeakSites[...]` output.
pub mod sites {
    /// The conventional wall-clock schedule reads the domain's cycle
    /// clock, which reflects secret-dependent execution timing
    /// (Fig. 2, Edge ③).
    pub const TIME_SCHEDULE_WALL_CLOCK: &str = "schedule::time::wall_clock";
    /// A hit-curve metric under [`crate::metric::MetricPolicy::All`]
    /// observes secret-annotated accesses, so its curve carries
    /// secret-dependent demand (Fig. 2, Edge ①).
    pub const CONVENTIONAL_METRIC: &str = "metric::all_accesses_hit_curve";
    /// The footprint analogue of [`CONVENTIONAL_METRIC`].
    pub const CONVENTIONAL_FOOTPRINT: &str = "metric::all_accesses_footprint";
    /// An Untangle run whose [`crate::runner::RunnerConfig::metric_policy`]
    /// override installs the all-seeing metric (the Fig. 2 Edge ①
    /// ablation): the override itself is the declassification.
    pub const METRIC_POLICY_OVERRIDE: &str = "runner::metric_policy_override";
    /// Fail-closed rejection: a secret-labeled progress count reached
    /// Untangle's progress schedule and was dropped (recorded as a
    /// violation, never as a declassification).
    pub const PROGRESS_SCHEDULE_INPUT: &str = "schedule::progress::counted_retirement";
    /// Fail-closed rejection in the serve daemon: a telemetry payload
    /// arrived for a tenant whose leakage budget is exhausted. The
    /// payload is tainted and barred from the decision path, forcing a
    /// Maintain (recorded as a violation — a *blocked* flow — never as
    /// a declassification).
    pub const TENANT_BUDGET_EXHAUSTED: &str = "serve::tenant_budget_exhausted";
    /// Fail-closed rejection in the serve daemon: a telemetry event
    /// self-declared as secret-influenced (`"tainted": true`) reached
    /// the decision path and was dropped.
    pub const SERVE_TELEMETRY_INPUT: &str = "serve::telemetry_input";
    /// Serialization boundary of the batch Runner's telemetry tap: a
    /// labeled metric value leaves the process as a telemetry event
    /// whose `tainted` flag re-establishes the label at serve ingest.
    /// The label round-trips, but the crossing is still named and
    /// audited rather than silent.
    pub const TELEMETRY_TAP_EXPORT: &str = "runner::telemetry_tap_export";

    /// Every named site, for enumeration and [`resolve`].
    pub const ALL: [&str; 8] = [
        TIME_SCHEDULE_WALL_CLOCK,
        CONVENTIONAL_METRIC,
        CONVENTIONAL_FOOTPRINT,
        METRIC_POLICY_OVERRIDE,
        PROGRESS_SCHEDULE_INPUT,
        TENANT_BUDGET_EXHAUSTED,
        SERVE_TELEMETRY_INPUT,
        TELEMETRY_TAP_EXPORT,
    ];

    /// Maps a serialized site name back to its `'static` constant —
    /// audit logs store `&'static str` sites, so a snapshot restore
    /// must round-trip through the registry rather than leak a new
    /// allocation. `None` for unknown names (a snapshot from a future
    /// or foreign build).
    pub fn resolve(name: &str) -> Option<&'static str> {
        ALL.into_iter().find(|&s| s == name)
    }
}

/// A value of type `T` tagged with an information-flow [`Label`].
///
/// `Labeled` deliberately has no method returning `&T` or `T` other
/// than [`Labeled::declassify`], [`Labeled::require_public`], and
/// [`Labeled::public_value`]: the unlabeled value can only be obtained
/// through a named escape hatch or a public-only guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Labeled<T> {
    value: T,
    label: Label,
}

impl<T> Labeled<T> {
    /// Tags `value` with `label`.
    pub const fn new(value: T, label: Label) -> Self {
        Self { value, label }
    }

    /// Tags a value as derivable from public data alone.
    pub const fn public(value: T) -> Self {
        Self::new(value, Label::Public)
    }

    /// Tags a value as secret-influenced.
    pub const fn secret(value: T) -> Self {
        Self::new(value, Label::Secret)
    }

    /// The value's label.
    pub const fn label(&self) -> Label {
        self.label
    }

    /// Applies `f` to the value, preserving the label (a pure function
    /// of tainted data stays tainted; of public data stays public).
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Labeled<U> {
        Labeled::new(f(self.value), self.label)
    }

    /// Combines two labeled values; the result carries the join of the
    /// labels — the taint-propagation rule.
    pub fn combine<U, V>(self, other: Labeled<U>, f: impl FnOnce(T, U) -> V) -> Labeled<V> {
        Labeled::new(f(self.value, other.value), self.label.join(other.label))
    }

    /// Raises the label to `Secret` (always allowed; the lattice only
    /// restricts flows *downward*).
    pub fn taint(self) -> Self {
        Self::new(self.value, Label::Secret)
    }

    /// Declassifies the value at a named [`sites`] constant — the
    /// explicit escape hatch through which secret data may enter a
    /// decision path.
    ///
    /// Declassifying an already-`Public` value is the identity and
    /// records nothing: the lattice only audits real `Secret → Public`
    /// crossings. While an [`audit::capture`] is active, each crossing
    /// increments the site's counter in the captured log.
    pub fn declassify(self, site: &'static str) -> T {
        if self.label == Label::Secret {
            audit::record_declassify(site);
        }
        self.value
    }

    /// The fail-closed guard for public-only interfaces.
    ///
    /// # Errors
    ///
    /// Returns [`UntangleError::TaintViolation`] — and records a
    /// violation at `site` for the audit — if the value is `Secret`.
    pub fn require_public(self, site: &'static str) -> Result<T, UntangleError> {
        match self.label {
            Label::Public => Ok(self.value),
            Label::Secret => {
                audit::record_violation(site);
                Err(UntangleError::TaintViolation { site })
            }
        }
    }

    /// The value, if public; `None` for secret data (no audit entry —
    /// use [`Labeled::require_public`] at enforcement boundaries).
    pub fn public_value(self) -> Option<T> {
        match self.label {
            Label::Public => Some(self.value),
            Label::Secret => None,
        }
    }
}

macro_rules! labeled_binop {
    ($trait:ident, $method:ident) => {
        impl<T: $trait<Output = T>> $trait for Labeled<T> {
            type Output = Labeled<T>;
            fn $method(self, rhs: Labeled<T>) -> Labeled<T> {
                self.combine(rhs, T::$method)
            }
        }

        impl<T: $trait<Output = T>> $trait<T> for Labeled<T> {
            type Output = Labeled<T>;
            /// A bare right-hand side is treated as `Public` (constants
            /// and configuration are public data).
            fn $method(self, rhs: T) -> Labeled<T> {
                self.combine(Labeled::public(rhs), T::$method)
            }
        }
    };
}

labeled_binop!(Add, add);
labeled_binop!(Sub, sub);
labeled_binop!(Mul, mul);
labeled_binop!(Div, div);

/// Scoped recording of declassifications and taint violations.
///
/// Recording is thread-local and off by default, so the per-retirement
/// hot paths (a wall-clock `Schedule::on_progress` declassifies once per
/// retired instruction) pay only a thread-local flag check outside
/// certification runs.
pub mod audit {
    use super::*;

    #[derive(Default)]
    struct Capture {
        declassified: BTreeMap<&'static str, u64>,
        violations: BTreeMap<&'static str, u64>,
    }

    thread_local! {
        static CAPTURE: RefCell<Option<Capture>> = const { RefCell::new(None) };
    }

    /// One audited site with its hit count, in deterministic site-name
    /// order.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SiteCount {
        /// The [`super::sites`] constant that was crossed.
        pub site: &'static str,
        /// Number of crossings during the capture.
        pub hits: u64,
    }

    /// Everything recorded during one [`capture`].
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct AuditLog {
        /// `Secret → Public` declassifications, per site.
        pub declassified: Vec<SiteCount>,
        /// Fail-closed rejections of secret data, per site.
        pub violations: Vec<SiteCount>,
    }

    impl AuditLog {
        /// Whether no secret data crossed or touched a guarded
        /// boundary — the audit half of an `ActionLeakFree` verdict.
        pub fn is_clean(&self) -> bool {
            self.declassified.is_empty() && self.violations.is_empty()
        }
    }

    /// Runs `f` with audit recording enabled on this thread and returns
    /// its result together with the recorded log. Nested captures are
    /// independent: the inner capture's events are invisible to the
    /// outer one.
    pub fn capture<R>(f: impl FnOnce() -> R) -> (R, AuditLog) {
        let previous = CAPTURE.with(|c| c.replace(Some(Capture::default())));
        let result = f();
        let captured = CAPTURE.with(|c| c.replace(previous));
        let log = captured.map(to_log).unwrap_or_default();
        (result, log)
    }

    /// Whether a capture is active on this thread.
    pub fn is_capturing() -> bool {
        CAPTURE.with(|c| c.borrow().is_some())
    }

    fn to_log(capture: Capture) -> AuditLog {
        let counts = |m: BTreeMap<&'static str, u64>| {
            m.into_iter()
                .map(|(site, hits)| SiteCount { site, hits })
                .collect()
        };
        AuditLog {
            declassified: counts(capture.declassified),
            violations: counts(capture.violations),
        }
    }

    pub(super) fn record_declassify(site: &'static str) {
        CAPTURE.with(|c| {
            if let Some(capture) = c.borrow_mut().as_mut() {
                *capture.declassified.entry(site).or_insert(0) += 1;
            }
        });
    }

    pub(super) fn record_violation(site: &'static str) {
        CAPTURE.with(|c| {
            if let Some(capture) = c.borrow_mut().as_mut() {
                *capture.violations.entry(site).or_insert(0) += 1;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_a_lattice() {
        assert_eq!(Label::Public.join(Label::Public), Label::Public);
        assert_eq!(Label::Public.join(Label::Secret), Label::Secret);
        assert_eq!(Label::Secret.join(Label::Public), Label::Secret);
        assert_eq!(Label::Secret.join(Label::Secret), Label::Secret);
        assert!(Label::Public.flows_to_public());
        assert!(!Label::Secret.flows_to_public());
    }

    #[test]
    fn arithmetic_propagates_taint() {
        let a = Labeled::public(2.0_f64);
        let b = Labeled::secret(3.0_f64);
        let sum = a + b;
        assert_eq!(sum.label(), Label::Secret);
        assert_eq!(sum.declassify("test::sum"), 5.0);

        let pure = Labeled::public(2.0_f64) * Labeled::public(4.0_f64);
        assert_eq!(pure.label(), Label::Public);
        assert_eq!(pure.public_value(), Some(8.0));

        let scaled = Labeled::secret(10.0_f64) / 2.0;
        assert_eq!(scaled.label(), Label::Secret);

        let diff = Labeled::public(7_i64) - Labeled::public(5_i64);
        assert_eq!(diff.public_value(), Some(2));
    }

    #[test]
    fn map_preserves_and_combine_joins() {
        let v = Labeled::secret(3_u64).map(|x| x * 2);
        assert_eq!(v.label(), Label::Secret);
        let joined = Labeled::public(1_u64).combine(v, |a, b| a + b);
        assert_eq!(joined.label(), Label::Secret);
        let tainted = Labeled::public(1_u64).taint();
        assert_eq!(tainted.label(), Label::Secret);
    }

    #[test]
    fn require_public_guards_secret_data() {
        assert_eq!(Labeled::public(5).require_public("test::guard"), Ok(5));
        let err = Labeled::secret(5).require_public("test::guard");
        assert_eq!(
            err,
            Err(UntangleError::TaintViolation {
                site: "test::guard"
            })
        );
        assert_eq!(Labeled::secret(5).public_value(), None);
    }

    #[test]
    fn capture_records_crossings_and_violations() {
        let ((), log) = audit::capture(|| {
            let _ = Labeled::secret(1.0).declassify("test::a");
            let _ = Labeled::secret(2.0).declassify("test::a");
            let _ = Labeled::public(3.0).declassify("test::a"); // no-op
            let _ = Labeled::secret(4).require_public("test::b");
        });
        assert_eq!(log.declassified.len(), 1);
        assert_eq!(log.declassified[0].site, "test::a");
        assert_eq!(log.declassified[0].hits, 2);
        assert_eq!(log.violations.len(), 1);
        assert_eq!(log.violations[0].site, "test::b");
        assert!(!log.is_clean());
    }

    #[test]
    fn recording_is_off_outside_capture() {
        assert!(!audit::is_capturing());
        let _ = Labeled::secret(1.0).declassify("test::outside");
        let ((), log) = audit::capture(|| {
            assert!(audit::is_capturing());
        });
        assert!(log.is_clean(), "pre-capture events must not appear");
        assert!(!audit::is_capturing());
    }

    #[test]
    fn nested_captures_are_independent() {
        let ((), outer) = audit::capture(|| {
            let _ = Labeled::secret(1).declassify("test::outer");
            let ((), inner) = audit::capture(|| {
                let _ = Labeled::secret(2).declassify("test::inner");
            });
            assert_eq!(inner.declassified.len(), 1);
            assert_eq!(inner.declassified[0].site, "test::inner");
        });
        assert_eq!(outer.declassified.len(), 1);
        assert_eq!(outer.declassified[0].site, "test::outer");
    }

    #[test]
    fn labels_display() {
        assert_eq!(Label::Public.to_string(), "public");
        assert_eq!(Label::Secret.to_string(), "secret");
    }
}
