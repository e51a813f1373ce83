//! Resizing schedules (Table 2, Principle 2 of §5.2).
//!
//! A [`Schedule`] decides *when* a domain's resizing assessments
//! happen. It runs on one of two clocks:
//!
//! * **wall clock** — assess every `T` cycles, like prior schemes
//!   (Table 1). The utilization metric value at such an assessment
//!   depends on what the program managed to execute in `T` cycles —
//!   i.e. on program timing — so secret-dependent timing contaminates
//!   the *actions* (Edge ③ of Fig. 2).
//! * **progress** — assess every `N` progress-counted retired
//!   instructions (Principle 2). With `N = w·T_c` (commit width `w`),
//!   two assessments can never be closer than the cooldown `T_c`
//!   (Mechanism 1, [`SchemeParams::cooldown_cycles`]), because retiring
//!   `N` instructions takes at least `N/w` cycles.
//!
//! A driver holds one `Schedule` per domain. It picks the clock the
//! scheme prescribes, checks its interval and labels the driver's raw
//! inputs — the clock `Secret`, progress `Public` — so the batch
//! `Runner` and the serve daemon cannot label them differently.

use crate::error::UntangleError;
use crate::scheme::{DomainTier, SchemeKind, SchemeParams};
use crate::taint::{sites, Labeled};

/// A domain's resizing schedule as its scheme prescribes it.
#[derive(Debug, Clone)]
pub struct Schedule(Clock);

#[derive(Debug, Clone)]
enum Clock {
    Never,
    /// Assess at `interval_cycles, 2·interval_cycles, …` on the domain
    /// clock; `next_at` is the next boundary.
    Time {
        interval_cycles: f64,
        next_at: f64,
    },
    /// Assess every `interval_instrs` counted retired instructions;
    /// `counted` is the progress since the last assessment.
    Progress {
        interval_instrs: u64,
        counted: u64,
    },
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
            Clock::Time {
                interval_cycles: params.time_interval_cycles,
                next_at: params.time_interval_cycles,
            }
        } else if kind == SchemeKind::Untangle {
            Clock::Progress {
                interval_instrs: params.progress_interval_instrs,
                counted: 0,
            }
        } else {
            Clock::Never
        }))
    }

    /// The schedule's state, for a snapshot.
    pub fn position(&self) -> SchedulePosition {
        match self.0 {
            Clock::Never => SchedulePosition::Never,
            Clock::Time { next_at, .. } => SchedulePosition::NextAt(next_at),
            Clock::Progress { counted, .. } => SchedulePosition::Counted(counted),
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
            (Clock::Time { next_at, .. }, SchedulePosition::NextAt(at)) => *next_at = at,
            (Clock::Progress { counted, .. }, SchedulePosition::Counted(c)) => *counted = c,
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
        match self.0 {
            Clock::Progress {
                interval_instrs, ..
            } => interval_instrs,
            _ => 0,
        }
    }

    /// Notifies the schedule that the domain clock reads `now` and
    /// `progress` more instructions counted toward progress retired
    /// (one retirement's [`untangle_trace::Instr::counts_toward_progress`]
    /// in the batch driver, a telemetry report's count in serve).
    /// Returns whether an assessment is due.
    ///
    /// At most one assessment fires per report, however many intervals
    /// it spans, as back-to-back assessments on the same metric would be
    /// redundant: the wall clock skips the boundaries it passed, and
    /// progress keeps its remainder, counting toward the next assessment
    /// at once (Fig. 6).
    ///
    /// The clock reflects secret-dependent timing, so the wall clock
    /// [`Labeled::declassify`]s it once per report at the named Edge ③
    /// site [`sites::TIME_SCHEDULE_WALL_CLOCK`]. Progress counts are
    /// public by the §6 annotation contract (secret_ctrl retirements do
    /// not count), so Untangle's fail-closed guard stays silent.
    pub fn on_progress(&mut self, now: f64, progress: u64) -> bool {
        self.on_labeled(Labeled::secret(now), Labeled::public(progress))
    }

    /// [`Schedule::on_progress`] on labeled inputs: the progress clock
    /// drops a secret-labeled count and records a violation at
    /// [`sites::PROGRESS_SCHEDULE_INPUT`].
    fn on_labeled(&mut self, now: Labeled<f64>, progress: Labeled<u64>) -> bool {
        match &mut self.0 {
            Clock::Never => false,
            Clock::Time {
                interval_cycles,
                next_at,
            } => {
                let now = now.declassify(sites::TIME_SCHEDULE_WALL_CLOCK);
                if now < *next_at {
                    return false;
                }
                while *next_at <= now {
                    *next_at += *interval_cycles;
                }
                true
            }
            Clock::Progress {
                interval_instrs,
                counted,
            } => {
                let Ok(progress) = progress.require_public(sites::PROGRESS_SCHEDULE_INPUT) else {
                    return false;
                };
                *counted += progress;
                if *counted < *interval_instrs {
                    return false;
                }
                *counted %= *interval_instrs;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taint::audit;

    fn params() -> SchemeParams {
        SchemeParams {
            time_interval_cycles: 100.0,
            progress_interval_instrs: 3,
            ..SchemeParams::scaled(0.01)
        }
    }

    fn schedule(kind: SchemeKind, p: &SchemeParams) -> Schedule {
        Schedule::new(kind, DomainTier::Sensitive, p).unwrap()
    }

    fn progress_every(n: u64) -> Schedule {
        let p = SchemeParams {
            progress_interval_instrs: n,
            ..params()
        };
        schedule(SchemeKind::Untangle, &p)
    }

    #[test]
    fn wall_clock_fires_on_boundaries() {
        let mut s = schedule(SchemeKind::Time, &params());
        let fires = [50.0, 100.0, 150.0, 205.0].map(|now| s.on_progress(now, 1));
        assert_eq!(fires, [false, true, false, true]);
    }

    #[test]
    fn wall_clock_fires_once_when_it_skips_boundaries() {
        let mut s = schedule(SchemeKind::Time, &params());
        // A long stall jumps past 3 boundaries: only one assessment.
        let fires = [350.0, 380.0, 400.0].map(|now| s.on_progress(now, 0));
        assert_eq!(fires, [true, false, true]);
        assert_eq!(s.position(), SchedulePosition::NextAt(500.0));
    }

    #[test]
    fn progress_counts_only_counted_retirements() {
        let mut s = progress_every(3);
        // Zero-progress retirements (secret_ctrl) do not count.
        let fires = [1, 0, 1, 0, 1].map(|c| s.on_progress(0.0, c));
        assert_eq!(fires, [false, false, false, false, true]);
        // The counter restarts.
        assert_eq!(s.position(), SchedulePosition::Counted(0));
        assert!(!s.on_progress(0.0, 1));
    }

    #[test]
    fn progress_guard_drops_secret_counts_fail_closed() {
        let mut s = progress_every(2);
        let (fires, log) = audit::capture(|| {
            // A secret-labeled count is dropped — single or batched: no
            // progress, a recorded violation, never a declassification.
            let dropped = [1, 5].map(|c| s.on_labeled(Labeled::public(0.0), Labeled::secret(c)));
            assert_eq!(s.position(), SchedulePosition::Counted(0));
            (dropped, [1, 1].map(|c| s.on_progress(0.0, c)))
        });
        assert_eq!(fires, ([false, false], [false, true]));
        assert!(log.declassified.is_empty());
        assert_eq!(log.violations.len(), 1);
        assert_eq!(log.violations[0].site, sites::PROGRESS_SCHEDULE_INPUT);
        assert_eq!(log.violations[0].hits, 2);
    }

    #[test]
    fn progress_ignores_the_clock() {
        // The same instruction stream produces the same assessment
        // points whatever the clock reads.
        let stream = [1, 1, 0, 1, 1, 1, 0, 1];
        let fire = |clock: fn(usize) -> f64| {
            let mut s = progress_every(2);
            let fires: Vec<bool> = (0..stream.len())
                .map(|i| s.on_progress(clock(i), stream[i]))
                .collect();
            (fires, s.position())
        };
        let steady = fire(|i| i as f64);
        assert_eq!(steady, fire(|i| (i * i) as f64 * 1e6));
        assert_eq!(steady, fire(|i| -(i as f64)));
        assert_eq!(steady.0.iter().filter(|&&f| f).count(), 3);
    }

    #[test]
    fn batched_progress_matches_per_instruction_progress() {
        // 7 counted instructions against an interval of 3, delivered
        // one by one vs as batches: the batches fire at the same
        // cumulative counts and leave the same progress.
        let mut single = progress_every(3);
        let fires = (0..7).filter(|_| single.on_progress(0.0, 1)).count();
        let mut batched = progress_every(3);
        let batch_fires = [2, 3, 2]
            .into_iter()
            .filter(|&b| batched.on_progress(0.0, b))
            .count();
        assert_eq!((fires, batch_fires), (2, 2));
        assert_eq!(single.position(), batched.position());
    }

    #[test]
    fn batched_progress_carries_over_and_collapses() {
        let mut s = progress_every(4);
        // 10 instructions span two intervals: one assessment, 2 left.
        assert!(s.on_progress(0.0, 10));
        assert_eq!(s.position(), SchedulePosition::Counted(2));
        assert!(!s.on_progress(0.0, 1));
        assert!(s.on_progress(0.0, 1));
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
}
