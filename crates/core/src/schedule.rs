//! Resizing schedules (Table 2, Principle 2 of §5.2).
//!
//! A schedule decides *when* resizing assessments happen:
//!
//! * [`TimeSchedule`] — assess every `T` cycles of wall-clock time, like
//!   prior schemes (Table 1). The utilization metric value at such an
//!   assessment depends on what the program managed to execute in `T`
//!   cycles — i.e. on program timing — so secret-dependent timing
//!   contaminates the *actions* (Edge ③ of Fig. 2).
//! * [`ProgressSchedule`] — assess every `N` progress-counted retired
//!   instructions (Principle 2). With `N = w·T_c` (commit width `w`),
//!   two assessments can never be closer than the cooldown `T_c`
//!   (Mechanism 1), because retiring `N` instructions takes at least
//!   `N/w` cycles.
//!
//! Both schedules take [`Labeled`] inputs. The wall-clock schedule must
//! [`Labeled::declassify`] the (secret-dependent) cycle count to use it
//! — the Edge ③ leak appears as the named site
//! [`sites::TIME_SCHEDULE_WALL_CLOCK`] — while the progress schedule is
//! a public-only interface that rejects secret-labeled counts
//! fail-closed, so Untangle's schedule cannot silently consume tainted
//! progress.
//!
//! [`Schedule`] is what a driver holds per domain: it picks the
//! schedule a scheme prescribes, checks its interval, and labels the
//! driver's raw inputs — the domain clock is always `Secret`, progress
//! counts are always `Public` — so the batch `Runner` and the serve
//! daemon cannot label them differently.

use crate::error::UntangleError;
use crate::scheme::{DomainTier, SchemeKind, SchemeParams};
use crate::taint::{sites, Labeled};

/// When the next assessment is due, reported by a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleEvent {
    /// No assessment due yet.
    Idle,
    /// Perform a resizing assessment now.
    Assess,
}

/// The conventional wall-clock schedule: assess every `interval` cycles.
#[derive(Debug, Clone)]
pub struct TimeSchedule {
    interval_cycles: f64,
    next_at: f64,
}

impl TimeSchedule {
    /// Creates a schedule assessing at `interval, 2·interval, …` cycles.
    ///
    /// # Panics
    ///
    /// Panics if the interval is not positive.
    pub fn new(interval_cycles: f64) -> Self {
        assert!(interval_cycles > 0.0, "interval must be positive");
        Self {
            interval_cycles,
            next_at: interval_cycles,
        }
    }

    /// The assessment interval in cycles.
    pub fn interval_cycles(&self) -> f64 {
        self.interval_cycles
    }

    /// The cycle at which the next assessment fires — with
    /// [`TimeSchedule::restore`], the snapshot/restore pair for
    /// crash-consistent replay.
    pub fn next_at(&self) -> f64 {
        self.next_at
    }

    /// Rebuilds a schedule mid-stream from a captured
    /// [`TimeSchedule::next_at`].
    ///
    /// # Panics
    ///
    /// Panics if the interval is not positive.
    pub fn restore(interval_cycles: f64, next_at: f64) -> Self {
        assert!(interval_cycles > 0.0, "interval must be positive");
        Self {
            interval_cycles,
            next_at,
        }
    }

    /// Notifies the schedule of one retired instruction and the domain's
    /// clock after it. At most one assessment fires per retirement even
    /// if the clock jumped past several boundaries (the monitor window
    /// is shared, so back-to-back assessments would be redundant).
    ///
    /// The domain clock reflects secret-dependent execution timing, so a
    /// secret-labeled clock is *declassified* here — this is the visible
    /// Edge ③ site ([`sites::TIME_SCHEDULE_WALL_CLOCK`]) that makes the
    /// conventional schedule's leak auditable.
    pub fn on_retire(&mut self, cycles_now: Labeled<f64>) -> ScheduleEvent {
        let cycles_now = cycles_now.declassify(sites::TIME_SCHEDULE_WALL_CLOCK);
        if cycles_now >= self.next_at {
            // Skip any boundaries the clock already passed.
            while self.next_at <= cycles_now {
                self.next_at += self.interval_cycles;
            }
            ScheduleEvent::Assess
        } else {
            ScheduleEvent::Idle
        }
    }
}

/// Untangle's progress-based schedule: assess every `N` counted retired
/// instructions. Instructions that are control-dependent on secrets
/// (annotated `secret_ctrl`) are *not* counted (§5.2), so the points of
/// assessment in the public instruction stream are secret-independent.
#[derive(Debug, Clone)]
pub struct ProgressSchedule {
    interval_instrs: u64,
    counted: u64,
}

impl ProgressSchedule {
    /// Creates a schedule assessing every `interval_instrs` counted
    /// instructions.
    ///
    /// # Panics
    ///
    /// Panics if the interval is zero.
    pub fn new(interval_instrs: u64) -> Self {
        assert!(interval_instrs > 0, "interval must be positive");
        Self {
            interval_instrs,
            counted: 0,
        }
    }

    /// The cooldown time this schedule structurally guarantees on a core
    /// with the given commit width: `T_c = N / w` cycles (§5.3.2,
    /// Mechanism 1).
    pub fn guaranteed_cooldown_cycles(&self, commit_width: u32) -> f64 {
        self.interval_instrs as f64 / commit_width as f64
    }

    /// The assessment interval in counted instructions.
    pub fn interval_instrs(&self) -> u64 {
        self.interval_instrs
    }

    /// Progress counted since the last assessment — with
    /// [`ProgressSchedule::restore`], the snapshot/restore pair for
    /// crash-consistent replay.
    pub fn progress(&self) -> u64 {
        self.counted
    }

    /// Rebuilds a schedule mid-stream from a captured
    /// [`ProgressSchedule::progress`].
    ///
    /// # Panics
    ///
    /// Panics if the interval is zero.
    pub fn restore(interval_instrs: u64, counted: u64) -> Self {
        assert!(interval_instrs > 0, "interval must be positive");
        Self {
            interval_instrs,
            counted,
        }
    }

    /// Notifies the schedule of one retired instruction.
    ///
    /// `counts` is [`untangle_trace::Instr::counts_toward_progress`] for
    /// the retired instruction. This is a public-only interface: a
    /// secret-labeled count is rejected fail-closed (recorded as a taint
    /// violation at [`sites::PROGRESS_SCHEDULE_INPUT`], not counted), so
    /// secret data cannot influence *when* Untangle assesses.
    pub fn on_retire(&mut self, counts: Labeled<bool>) -> ScheduleEvent {
        let Ok(counts) = counts.require_public(sites::PROGRESS_SCHEDULE_INPUT) else {
            return ScheduleEvent::Idle;
        };
        if !counts {
            return ScheduleEvent::Idle;
        }
        self.counted += 1;
        if self.counted >= self.interval_instrs {
            // Progress toward the next assessment starts immediately
            // after this one is triggered (Fig. 6), so the next action is
            // not influenced by when this one is applied.
            self.counted = 0;
            ScheduleEvent::Assess
        } else {
            ScheduleEvent::Idle
        }
    }

    /// Notifies the schedule of a *batch* of counted retired
    /// instructions — one telemetry event summarizing many retirements,
    /// the serve daemon's ingest granularity.
    ///
    /// At most one assessment fires per call even when the batch spans
    /// several intervals (like [`TimeSchedule::on_retire`] collapsing
    /// skipped boundaries: the utilization metric is shared state, so
    /// back-to-back assessments on the same telemetry would be
    /// redundant); leftover progress carries over modulo the interval.
    /// The same fail-closed guard as [`ProgressSchedule::on_retire`]
    /// applies: a secret-labeled count is dropped and recorded at
    /// [`sites::PROGRESS_SCHEDULE_INPUT`].
    pub fn on_progress(&mut self, counted_instrs: Labeled<u64>) -> ScheduleEvent {
        let Ok(count) = counted_instrs.require_public(sites::PROGRESS_SCHEDULE_INPUT) else {
            return ScheduleEvent::Idle;
        };
        self.counted += count;
        if self.counted >= self.interval_instrs {
            self.counted %= self.interval_instrs;
            ScheduleEvent::Assess
        } else {
            ScheduleEvent::Idle
        }
    }
}

/// A domain's resizing schedule as its scheme prescribes it.
#[derive(Debug, Clone)]
pub struct Schedule(Clock);

#[derive(Debug, Clone)]
enum Clock {
    Never,
    Time(TimeSchedule),
    Progress(ProgressSchedule),
}

/// Where a [`Schedule`] stands between assessments — what a snapshot
/// carries so a restored schedule fires where the original would have.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulePosition {
    /// A schedule that never fires.
    Never,
    /// A wall-clock schedule's next firing cycle.
    NextAt(f64),
    /// A progress schedule's progress counted since its last firing.
    Counted(u64),
}

impl Schedule {
    /// Checks that `params` give the schedule of a `kind` domain a
    /// positive interval: wall-clock cycles (not NaN) for Time and
    /// SecDCP, counted instructions for Untangle.
    ///
    /// # Errors
    ///
    /// [`UntangleError::InvalidConfig`] naming the offending interval.
    pub fn check(kind: SchemeKind, params: &SchemeParams) -> Result<(), UntangleError> {
        let cycles = params.time_interval_cycles;
        let bad = match kind {
            SchemeKind::Time | SchemeKind::SecDcp => cycles.is_nan() || cycles <= 0.0,
            SchemeKind::Untangle => params.progress_interval_instrs == 0,
            SchemeKind::Static | SchemeKind::Shared => false,
        };
        if bad {
            return Err(UntangleError::InvalidConfig(format!(
                "{kind} needs a positive assessment interval, got {cycles} cycles / {} instructions",
                params.progress_interval_instrs
            )));
        }
        Ok(())
    }

    /// The schedule of a `kind` domain in security `tier`: wall-clock
    /// for Time and for public-tier SecDCP domains, progress-based for
    /// Untangle, none for every other domain.
    ///
    /// # Errors
    ///
    /// As [`Schedule::check`].
    pub fn new(
        kind: SchemeKind,
        tier: DomainTier,
        params: &SchemeParams,
    ) -> Result<Self, UntangleError> {
        Self::check(kind, params)?;
        let wall_clock =
            kind == SchemeKind::Time || (kind == SchemeKind::SecDcp && tier == DomainTier::Public);
        Ok(Schedule(if wall_clock {
            Clock::Time(TimeSchedule::new(params.time_interval_cycles))
        } else if kind == SchemeKind::Untangle {
            Clock::Progress(ProgressSchedule::new(params.progress_interval_instrs))
        } else {
            Clock::Never
        }))
    }

    /// The schedule's state, for a snapshot.
    pub fn position(&self) -> SchedulePosition {
        match &self.0 {
            Clock::Never => SchedulePosition::Never,
            Clock::Time(s) => SchedulePosition::NextAt(s.next_at),
            Clock::Progress(s) => SchedulePosition::Counted(s.counted),
        }
    }

    /// Moves the schedule to a captured [`Schedule::position`].
    ///
    /// # Errors
    ///
    /// [`UntangleError::InvalidConfig`] for a position of another kind
    /// of schedule.
    pub fn restore(&mut self, position: SchedulePosition) -> Result<(), UntangleError> {
        match (&mut self.0, position) {
            (Clock::Never, SchedulePosition::Never) => {}
            (Clock::Time(s), SchedulePosition::NextAt(at)) => s.next_at = at,
            (Clock::Progress(s), SchedulePosition::Counted(counted)) => s.counted = counted,
            _ => {
                return Err(UntangleError::InvalidConfig(format!(
                    "schedule position {position:?} does not fit {:?}",
                    self.position()
                )))
            }
        }
        Ok(())
    }

    /// The progress interval in counted instructions; `0` for a
    /// schedule that is not progress-based.
    pub fn progress_interval(&self) -> u64 {
        match &self.0 {
            Clock::Progress(s) => s.interval_instrs,
            _ => 0,
        }
    }

    /// Notifies the schedule that the domain clock reads `now` and
    /// `progress` more instructions counted toward progress retired
    /// (one retirement's [`untangle_trace::Instr::counts_toward_progress`]
    /// in the batch driver, a telemetry report's count in serve).
    /// Returns whether an assessment is due.
    ///
    /// The clock reflects secret-dependent execution timing, so it
    /// enters the wall-clock schedule as `Secret` and is declassified at
    /// the named Edge ③ site. Progress counts are public by the §6
    /// annotation contract (secret_ctrl retirements do not count), so
    /// Untangle's fail-closed guard stays silent.
    pub fn on_progress(&mut self, now: f64, progress: u64) -> bool {
        let event = match &mut self.0 {
            Clock::Never => ScheduleEvent::Idle,
            Clock::Time(s) => s.on_retire(Labeled::secret(now)),
            Clock::Progress(s) => s.on_progress(Labeled::public(progress)),
        };
        event == ScheduleEvent::Assess
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taint::audit;

    #[test]
    fn time_schedule_fires_on_boundaries() {
        let mut s = TimeSchedule::new(100.0);
        assert_eq!(s.on_retire(Labeled::secret(50.0)), ScheduleEvent::Idle);
        assert_eq!(s.on_retire(Labeled::secret(100.0)), ScheduleEvent::Assess);
        assert_eq!(s.on_retire(Labeled::secret(150.0)), ScheduleEvent::Idle);
        assert_eq!(s.on_retire(Labeled::secret(205.0)), ScheduleEvent::Assess);
    }

    #[test]
    fn time_schedule_collapses_skipped_boundaries() {
        let mut s = TimeSchedule::new(100.0);
        // A long stall jumps past 3 boundaries: only one assessment.
        assert_eq!(s.on_retire(Labeled::secret(350.0)), ScheduleEvent::Assess);
        assert_eq!(s.on_retire(Labeled::secret(380.0)), ScheduleEvent::Idle);
        assert_eq!(s.on_retire(Labeled::secret(400.0)), ScheduleEvent::Assess);
    }

    #[test]
    fn time_schedule_declassifies_secret_clock() {
        let mut s = TimeSchedule::new(100.0);
        let (_, log) = audit::capture(|| {
            let _ = s.on_retire(Labeled::secret(50.0));
            let _ = s.on_retire(Labeled::secret(100.0));
        });
        assert_eq!(log.declassified.len(), 1);
        assert_eq!(log.declassified[0].site, sites::TIME_SCHEDULE_WALL_CLOCK);
        assert_eq!(log.declassified[0].hits, 2);
    }

    #[test]
    fn progress_schedule_counts_only_public_progress() {
        let mut s = ProgressSchedule::new(3);
        let p = Labeled::public;
        assert_eq!(s.on_retire(p(true)), ScheduleEvent::Idle);
        assert_eq!(s.on_retire(p(false)), ScheduleEvent::Idle); // secret_ctrl
        assert_eq!(s.on_retire(p(true)), ScheduleEvent::Idle);
        assert_eq!(s.on_retire(p(false)), ScheduleEvent::Idle);
        assert_eq!(s.on_retire(p(true)), ScheduleEvent::Assess);
        // Counter restarts.
        assert_eq!(s.progress(), 0);
        assert_eq!(s.on_retire(p(true)), ScheduleEvent::Idle);
    }

    #[test]
    fn progress_schedule_rejects_secret_counts_fail_closed() {
        let mut s = ProgressSchedule::new(2);
        let (_, log) = audit::capture(|| {
            // A secret-labeled count is dropped: no progress, a recorded
            // violation, never a declassification.
            assert_eq!(s.on_retire(Labeled::secret(true)), ScheduleEvent::Idle);
            assert_eq!(s.progress(), 0);
            assert_eq!(s.on_retire(Labeled::public(true)), ScheduleEvent::Idle);
            assert_eq!(s.on_retire(Labeled::public(true)), ScheduleEvent::Assess);
        });
        assert!(log.declassified.is_empty());
        assert_eq!(log.violations.len(), 1);
        assert_eq!(log.violations[0].site, sites::PROGRESS_SCHEDULE_INPUT);
    }

    #[test]
    fn progress_schedule_is_timing_oblivious() {
        // The same instruction stream produces the same assessment
        // points regardless of any notion of time.
        let stream = [true, true, false, true, true, true, false, true];
        let fire = |s: &mut ProgressSchedule| {
            stream
                .iter()
                .map(|&c| s.on_retire(Labeled::public(c)) == ScheduleEvent::Assess)
                .collect::<Vec<_>>()
        };
        let mut a = ProgressSchedule::new(2);
        let mut b = ProgressSchedule::new(2);
        assert_eq!(fire(&mut a), fire(&mut b));
    }

    #[test]
    fn batched_progress_matches_per_retirement_counting() {
        // 7 counted instructions against an interval of 3, delivered
        // one by one vs as batches: same total progress, and the batch
        // path fires at the same cumulative counts.
        let mut single = ProgressSchedule::new(3);
        let fires: usize = (0..7)
            .filter(|_| single.on_retire(Labeled::public(true)) == ScheduleEvent::Assess)
            .count();
        let mut batched = ProgressSchedule::new(3);
        let mut batch_fires = 0;
        for batch in [2u64, 3, 2] {
            if batched.on_progress(Labeled::public(batch)) == ScheduleEvent::Assess {
                batch_fires += 1;
            }
        }
        assert_eq!(fires, 2);
        assert_eq!(batch_fires, 2);
        assert_eq!(single.progress(), batched.progress());
    }

    #[test]
    fn batched_progress_collapses_spanned_intervals() {
        let mut s = ProgressSchedule::new(4);
        // 10 instructions span two intervals: one assessment, 2 left.
        assert_eq!(s.on_progress(Labeled::public(10)), ScheduleEvent::Assess);
        assert_eq!(s.progress(), 2);
        assert_eq!(s.on_progress(Labeled::public(1)), ScheduleEvent::Idle);
        assert_eq!(s.on_progress(Labeled::public(1)), ScheduleEvent::Assess);
    }

    #[test]
    fn batched_progress_rejects_secret_counts_fail_closed() {
        let mut s = ProgressSchedule::new(2);
        let (_, log) = audit::capture(|| {
            assert_eq!(s.on_progress(Labeled::secret(5)), ScheduleEvent::Idle);
            assert_eq!(s.progress(), 0);
        });
        assert!(log.declassified.is_empty());
        assert_eq!(log.violations.len(), 1);
        assert_eq!(log.violations[0].site, sites::PROGRESS_SCHEDULE_INPUT);
    }

    #[test]
    fn cooldown_guarantee() {
        let s = ProgressSchedule::new(8_000_000);
        // Paper configuration: 8 M instructions, 8-wide ⇒ 1 M cycles
        // (= 0.5 ms at 2 GHz; the paper pairs 8 M with T_c = 1 ms by
        // counting macro-ops — the structural bound is what matters).
        assert!((s.guaranteed_cooldown_cycles(8) - 1_000_000.0).abs() < 1e-9);
    }

    fn params() -> SchemeParams {
        SchemeParams {
            time_interval_cycles: 100.0,
            progress_interval_instrs: 3,
            ..SchemeParams::scaled(0.01)
        }
    }

    #[test]
    fn schedules_follow_the_scheme_and_tier() {
        let p = params();
        let of = |kind, tier| Schedule::new(kind, tier, &p).unwrap().position();
        let sensitive = DomainTier::Sensitive;
        assert_eq!(
            of(SchemeKind::Time, sensitive),
            SchedulePosition::NextAt(100.0)
        );
        assert_eq!(
            of(SchemeKind::Untangle, sensitive),
            SchedulePosition::Counted(0)
        );
        assert_eq!(of(SchemeKind::Static, sensitive), SchedulePosition::Never);
        assert_eq!(of(SchemeKind::Shared, sensitive), SchedulePosition::Never);
        assert_eq!(of(SchemeKind::SecDcp, sensitive), SchedulePosition::Never);
        assert_eq!(
            of(SchemeKind::SecDcp, DomainTier::Public),
            SchedulePosition::NextAt(100.0)
        );
        let never = Schedule::new(SchemeKind::Static, sensitive, &p).unwrap();
        assert_eq!(never.progress_interval(), 0);
        let progress = Schedule::new(SchemeKind::Untangle, sensitive, &p).unwrap();
        assert_eq!(progress.progress_interval(), 3);
    }

    #[test]
    fn check_rejects_intervals_a_schedule_cannot_run_on() {
        for bad in [0.0, -1.0, f64::NAN] {
            let p = SchemeParams {
                time_interval_cycles: bad,
                ..params()
            };
            for kind in [SchemeKind::Time, SchemeKind::SecDcp] {
                assert!(
                    matches!(
                        Schedule::new(kind, DomainTier::Sensitive, &p),
                        Err(UntangleError::InvalidConfig(_))
                    ),
                    "{kind} with {bad}"
                );
            }
            assert!(Schedule::check(SchemeKind::Untangle, &p).is_ok());
        }
        let p = SchemeParams {
            progress_interval_instrs: 0,
            ..params()
        };
        assert!(matches!(
            Schedule::check(SchemeKind::Untangle, &p),
            Err(UntangleError::InvalidConfig(_))
        ));
        assert!(Schedule::check(SchemeKind::Static, &p).is_ok());
    }

    #[test]
    fn schedule_labels_the_clock_secret_and_progress_public() {
        let p = params();
        let mut time = Schedule::new(SchemeKind::Time, DomainTier::Sensitive, &p).unwrap();
        let mut progress = Schedule::new(SchemeKind::Untangle, DomainTier::Sensitive, &p).unwrap();
        let (fires, log) = audit::capture(|| {
            [
                time.on_progress(50.0, 1),
                time.on_progress(150.0, 0),
                progress.on_progress(10.0, 1),
                progress.on_progress(20.0, 0),
                progress.on_progress(30.0, 2),
            ]
        });
        assert_eq!(fires, [false, true, false, false, true]);
        assert_eq!(log.declassified.len(), 1);
        assert_eq!(log.declassified[0].site, sites::TIME_SCHEDULE_WALL_CLOCK);
        assert_eq!(log.declassified[0].hits, 2);
        assert!(log.violations.is_empty());
    }

    #[test]
    fn restore_moves_a_fresh_schedule_to_a_captured_position() {
        let p = params();
        for kind in [SchemeKind::Time, SchemeKind::Untangle, SchemeKind::Static] {
            let mut live = Schedule::new(kind, DomainTier::Sensitive, &p).unwrap();
            let _ = live.on_progress(130.0, 2);
            let mut restored = Schedule::new(kind, DomainTier::Sensitive, &p).unwrap();
            restored.restore(live.position()).unwrap();
            assert_eq!(restored.position(), live.position(), "{kind}");
            assert_eq!(
                restored.on_progress(260.0, 1),
                live.on_progress(260.0, 1),
                "{kind}"
            );
        }
        let mut time = Schedule::new(SchemeKind::Time, DomainTier::Sensitive, &p).unwrap();
        assert!(matches!(
            time.restore(SchedulePosition::Counted(1)),
            Err(UntangleError::InvalidConfig(_))
        ));
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn time_rejects_zero() {
        let _ = TimeSchedule::new(0.0);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn progress_rejects_zero() {
        let _ = ProgressSchedule::new(0);
    }
}
