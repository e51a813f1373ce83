//! Trace-driven timing model.
//!
//! A deliberate simplification of the paper's gem5 out-of-order cores
//! (see DESIGN.md, "Substitutions"): every retired instruction costs
//! `1/commit_width` cycles of issue bandwidth, and each memory access
//! served beyond the L1 adds the level's extra latency scaled by an
//! *exposed-miss fraction* modeling the memory-level parallelism an
//! out-of-order core extracts. Relative IPC across partition sizes —
//! the only timing signal the paper's evaluation depends on — comes out
//! of the same mechanism as in the paper: LLC hit/miss behaviour.

use crate::config::TimingConfig;

/// Where a memory access was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceLevel {
    /// Private L1 hit.
    L1,
    /// LLC hit (partition or shared).
    Llc,
    /// LLC miss served by DRAM.
    Dram,
}

/// Per-domain cycle accounting.
///
/// # Example
///
/// ```
/// use untangle_sim::timing::{ServiceLevel, TimingModel};
/// use untangle_sim::config::TimingConfig;
///
/// let mut t = TimingModel::new(TimingConfig::default());
/// t.retire_compute();
/// t.retire_mem(ServiceLevel::Dram);
/// assert!(t.cycles() > 30.0); // a DRAM miss dominates
/// ```
#[derive(Debug, Clone)]
pub struct TimingModel {
    config: TimingConfig,
    cycles: f64,
    issue_cost: f64,
    llc_extra: f64,
    dram_extra: f64,
}

impl TimingModel {
    /// Creates a model at cycle zero.
    ///
    /// # Panics
    ///
    /// Panics if the commit width is zero or the exposed-miss fraction
    /// is outside `[0, 1]`.
    pub fn new(config: TimingConfig) -> Self {
        assert!(config.commit_width > 0, "commit width must be positive");
        assert!(
            (0.0..=1.0).contains(&config.exposed_miss_fraction),
            "exposed_miss_fraction must be in [0,1]"
        );
        let f = config.exposed_miss_fraction;
        Self {
            issue_cost: 1.0 / config.commit_width as f64,
            llc_extra: (config.llc_latency.saturating_sub(config.l1_latency)) as f64 * f,
            dram_extra: (config.llc_latency + config.dram_latency).saturating_sub(config.l1_latency)
                as f64
                * f,
            cycles: 0.0,
            config,
        }
    }

    /// The timing parameters.
    pub fn config(&self) -> &TimingConfig {
        &self.config
    }

    /// Retires a non-memory instruction.
    pub fn retire_compute(&mut self) {
        self.cycles += self.issue_cost;
    }

    /// Retires a memory instruction served at `level`.
    pub fn retire_mem(&mut self, level: ServiceLevel) {
        self.cycles += self.issue_cost
            + match level {
                ServiceLevel::L1 => 0.0,
                ServiceLevel::Llc => self.llc_extra,
                ServiceLevel::Dram => self.dram_extra,
            };
    }

    /// Elapsed cycles.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Elapsed wall-clock time in seconds at the configured frequency.
    pub fn seconds(&self) -> f64 {
        self.cycles / self.config.frequency_hz as f64
    }

    /// Advances the clock by raw cycles (used to model stalls imposed
    /// from outside, e.g. a frozen domain waiting for a resize).
    pub fn advance(&mut self, cycles: f64) {
        assert!(cycles >= 0.0, "time cannot run backwards");
        self.cycles += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TimingModel {
        TimingModel::new(TimingConfig::default())
    }

    #[test]
    fn compute_instructions_run_at_commit_width() {
        let mut t = model();
        for _ in 0..800 {
            t.retire_compute();
        }
        assert!((t.cycles() - 100.0).abs() < 1e-9); // 8-wide
    }

    #[test]
    fn service_levels_are_ordered() {
        let cost = |lvl| {
            let mut t = model();
            t.retire_mem(lvl);
            t.cycles()
        };
        assert!(cost(ServiceLevel::L1) < cost(ServiceLevel::Llc));
        assert!(cost(ServiceLevel::Llc) < cost(ServiceLevel::Dram));
    }

    #[test]
    fn l1_hit_costs_only_issue() {
        let mut t = model();
        t.retire_mem(ServiceLevel::L1);
        assert!((t.cycles() - 0.125).abs() < 1e-9);
    }

    #[test]
    fn exposed_fraction_scales_miss_cost() {
        let mk = |f| {
            let mut t = TimingModel::new(TimingConfig {
                exposed_miss_fraction: f,
                ..TimingConfig::default()
            });
            t.retire_mem(ServiceLevel::Dram);
            t.cycles()
        };
        assert!(mk(1.0) > mk(0.5));
        assert!(
            (mk(0.0) - 0.125).abs() < 1e-9,
            "fully hidden misses cost issue only"
        );
    }

    #[test]
    fn seconds_uses_frequency() {
        let mut t = TimingModel::new(TimingConfig {
            frequency_hz: 1_000_000,
            ..TimingConfig::default()
        });
        t.advance(500.0);
        assert!((t.seconds() - 0.0005).abs() < 1e-12);
    }

    #[test]
    fn advance_moves_clock() {
        let mut t = model();
        t.advance(10.0);
        assert_eq!(t.cycles(), 10.0);
    }

    #[test]
    #[should_panic(expected = "time cannot run backwards")]
    fn advance_rejects_negative() {
        model().advance(-1.0);
    }

    #[test]
    #[should_panic(expected = "commit width")]
    fn rejects_zero_commit_width() {
        let _ = TimingModel::new(TimingConfig {
            commit_width: 0,
            ..TimingConfig::default()
        });
    }
}
