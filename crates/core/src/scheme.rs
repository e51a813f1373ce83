//! The four evaluated partitioning schemes (Table 4) and their
//! parameters.
//!
//! | Scheme   | Description                                              |
//! |----------|----------------------------------------------------------|
//! | Static   | fixed 2 MB per domain                                    |
//! | Time     | dynamic, assess every `T` cycles (conventional)          |
//! | Untangle | dynamic, assess every `N` counted retired instructions,  |
//! |          | cooldown `T_c = N/w`, random action delay δ              |
//! | Shared   | no partitions (insecure baseline)                        |

use crate::heuristic::HeuristicConfig;
use untangle_info::dinkelbach::DinkelbachOptions;
use untangle_info::rate_table::RateTableConfig;
use untangle_info::{DelayDist, InfoError, RateTable, RmaxCache};
use untangle_sim::config::PartitionSize;

/// Which scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Static partitioning: each domain keeps 2 MB for the whole run.
    Static,
    /// Conventional dynamic partitioning with a wall-clock schedule.
    Time,
    /// The Untangle scheme: progress-based schedule, annotation-aware
    /// metric, cooldown, random delay, rate-table accounting.
    Untangle,
    /// No partitioning at all: one shared LLC (insecure).
    Shared,
    /// A SecDCP-style tiered baseline (§10): only *public*-tier domains
    /// drive resizing (with a conventional time schedule and an
    /// all-seeing metric); sensitive domains keep their initial
    /// partition. Secure under a tiered security lattice, but in the
    /// paper's mutually-distrusting peer model every domain handles
    /// secrets, so SecDCP degenerates to static partitioning for them.
    SecDcp,
}

impl SchemeKind {
    /// All four schemes in the paper's presentation order.
    pub const ALL: [SchemeKind; 4] = [
        SchemeKind::Static,
        SchemeKind::Time,
        SchemeKind::Untangle,
        SchemeKind::Shared,
    ];

    /// Whether the scheme performs resizing assessments.
    pub const fn is_dynamic(self) -> bool {
        matches!(
            self,
            SchemeKind::Time | SchemeKind::Untangle | SchemeKind::SecDcp
        )
    }

    /// Display name matching the paper's figures.
    pub const fn name(self) -> &'static str {
        match self {
            SchemeKind::Static => "STATIC",
            SchemeKind::Time => "TIME",
            SchemeKind::Untangle => "UNTANGLE",
            SchemeKind::Shared => "SHARED",
            SchemeKind::SecDcp => "SECDCP",
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Security tier of a domain under the tiered lattice of §6.4 /
/// SecDCP. Irrelevant to the four peer-model schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainTier {
    /// Handles no secrets; may drive resizing under SecDCP.
    Public,
    /// Handles secrets; must not influence resizing under SecDCP.
    Sensitive,
}

/// Which utilization metric a dynamic scheme consults (Table 2 lists
/// several possibilities; the evaluation uses the hit curve, and the
/// footprint variant exists for the metric ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// UMON-style hit curve over all candidate sizes (§7).
    HitCurve,
    /// Memory footprint of recent public accesses (§5.2's example).
    Footprint,
}

/// Parameters shared by the dynamic schemes.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeParams {
    /// Time scheme: assessment interval in cycles (paper: 1 ms = 2 M
    /// cycles at 2 GHz).
    pub time_interval_cycles: f64,
    /// Untangle: assessment interval in counted retired instructions
    /// (paper: 8 M).
    pub progress_interval_instrs: u64,
    /// Untangle: the random action delay δ is uniform over
    /// `[0, delay_max_cycles)` cycles (paper: 1 ms).
    pub delay_max_cycles: u64,
    /// Action-heuristic tunables.
    pub heuristic: HeuristicConfig,
    /// Which utilization metric drives the heuristic.
    pub metric_kind: MetricKind,
    /// Footprint-metric headroom: the target size is the smallest
    /// supported size at least `headroom ×` the observed footprint.
    pub footprint_headroom: f64,
    /// Footprint-metric window in retired public memory accesses
    /// (paper: `M_w` = 1 M). Must be large enough for the footprints of
    /// interest — the footprint can never exceed the window length.
    pub footprint_window: usize,
    /// Covert-channel time resolution: how many rate-table time units
    /// make up one cooldown period.
    pub units_per_cooldown: u64,
    /// Covert-channel input alphabet size per table entry.
    pub channel_symbols: usize,
    /// Rate-table capacity: the maximum consecutive-Maintain credit.
    pub max_maintain_credit: usize,
    /// `true` = §5.3.4 Maintain-optimized accounting; `false` = the §9
    /// worst-case model.
    pub optimized_accounting: bool,
    /// Optional leakage budget in bits; resizing freezes when reached.
    pub leakage_budget_bits: Option<f64>,
}

impl SchemeParams {
    /// Paper-ratio parameters at a linear time `scale` (1.0 = the paper
    /// configuration: 1 ms intervals, 8 M-instruction progress steps).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale <= 1`.
    pub fn scaled(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        Self {
            time_interval_cycles: 2_000_000.0 * scale,
            progress_interval_instrs: (8_000_000.0 * scale) as u64,
            delay_max_cycles: (2_000_000.0 * scale) as u64,
            heuristic: HeuristicConfig::default(),
            metric_kind: MetricKind::HitCurve,
            footprint_headroom: 1.25,
            footprint_window: ((1_000_000.0 * scale) as usize).max(65_536),
            units_per_cooldown: 16,
            channel_symbols: 8,
            max_maintain_credit: 16,
            optimized_accounting: true,
            leakage_budget_bits: None,
        }
    }

    /// The cooldown `T_c` the progress schedule structurally guarantees
    /// on a `commit_width`-wide core, in cycles (Mechanism 1).
    pub fn cooldown_cycles(&self, commit_width: u32) -> f64 {
        self.progress_interval_instrs as f64 / commit_width as f64
    }

    /// Bits per assessment the conventional accounting charges:
    /// `log2 |A|` over the nine supported actions (§3.3, §9).
    pub fn conventional_bits_per_assessment() -> f64 {
        (PartitionSize::COUNT as f64).log2()
    }

    /// The rate-table configuration and solver options Untangle's
    /// accounting uses on a `commit_width`-wide core — exposed so
    /// experiment binaries can measure precompute behaviour on exactly
    /// the production table.
    ///
    /// # Errors
    ///
    /// Propagates delay-distribution construction failures.
    pub fn rate_table_spec(
        &self,
        commit_width: u32,
    ) -> Result<(RateTableConfig, DinkelbachOptions), InfoError> {
        let cooldown_cycles = self.cooldown_cycles(commit_width);
        let cycles_per_unit = cooldown_cycles / self.units_per_cooldown as f64;
        let delay_units =
            ((self.delay_max_cycles as f64 / cycles_per_unit).round() as usize).max(1);
        // Space the modeled sender's durations one full delay width
        // apart: a coarser alphabet the noise cannot blur, which is the
        // sender's strongest play and hence the conservative choice.
        let config = RateTableConfig {
            cooldown: self.units_per_cooldown,
            n_symbols: self.channel_symbols,
            step: (delay_units as u64).max(1),
            delay: DelayDist::uniform(delay_units)?,
            max_maintains: self.max_maintain_credit,
        };
        // Slightly relaxed solver tolerances: the certified upper bound
        // absorbs the residual, and table precompute stays fast.
        let options = DinkelbachOptions {
            tolerance: 1e-7,
            max_inner_iterations: 800,
            inner_gap_tolerance: 1e-9,
            upper_bound_margin: 1e-4,
            ..DinkelbachOptions::default()
        };
        Ok((config, options))
    }

    /// Precomputes Untangle's `R_max` rate model for this configuration.
    ///
    /// # Errors
    ///
    /// Propagates solver failures from the rate computation.
    pub fn build_rate_model(&self, commit_width: u32) -> Result<RateModel, InfoError> {
        let cooldown_cycles = self.cooldown_cycles(commit_width);
        let cycles_per_unit = cooldown_cycles / self.units_per_cooldown as f64;
        let delay_units =
            ((self.delay_max_cycles as f64 / cycles_per_unit).round() as usize).max(1);
        let (config, options) = self.rate_table_spec(commit_width)?;
        // Route through the process-wide memo cache: every Untangle runner
        // builds this same table, so all but the first build are free.
        let (table, _stats) = RateTable::precompute_cached(&config, &options, RmaxCache::global())?;
        Ok(RateModel {
            table,
            cycles_per_unit,
            cooldown_units: self.units_per_cooldown as f64,
            delay_units: delay_units as f64,
        })
    }
}

/// The precomputed covert-channel rate model the Untangle accountant
/// charges from.
#[derive(Debug, Clone)]
pub struct RateModel {
    /// Certified `R_max` upper bounds per consecutive-Maintain count.
    pub table: RateTable,
    /// Cycles per rate-table time unit.
    pub cycles_per_unit: f64,
    /// One cooldown period `T_c` in rate-table units.
    pub cooldown_units: f64,
    /// Width of the random action delay δ in rate-table units.
    pub delay_units: f64,
}

impl Default for SchemeParams {
    fn default() -> Self {
        Self::scaled(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_classify() {
        assert!(!SchemeKind::Static.is_dynamic());
        assert!(SchemeKind::Time.is_dynamic());
        assert!(SchemeKind::Untangle.is_dynamic());
        assert!(!SchemeKind::Shared.is_dynamic());
        assert_eq!(SchemeKind::Untangle.to_string(), "UNTANGLE");
    }

    #[test]
    fn paper_scale_parameters() {
        let p = SchemeParams::scaled(1.0);
        assert_eq!(p.progress_interval_instrs, 8_000_000);
        assert!((p.time_interval_cycles - 2_000_000.0).abs() < 1e-9);
        // 8 M instructions on an 8-wide core: at least 1 M cycles apart.
        assert!((p.cooldown_cycles(8) - 1_000_000.0).abs() < 1e-9);
    }

    #[test]
    fn conventional_charge_is_log2_9() {
        let bits = SchemeParams::conventional_bits_per_assessment();
        assert!((bits - 9f64.log2()).abs() < 1e-12);
        assert!(bits > 3.1 && bits < 3.2);
    }

    #[test]
    fn rate_model_builds_and_decreases() {
        let p = SchemeParams {
            progress_interval_instrs: 32_000,
            delay_max_cycles: 4_000,
            ..SchemeParams::scaled(0.01)
        };
        let model = p.build_rate_model(8).unwrap();
        assert_eq!(model.table.len(), p.max_maintain_credit + 1);
        assert!(model.table.rate(4) < model.table.rate(0));
        // 32k instrs / 8-wide = 4k cycles cooldown over 16 units.
        assert!((model.cycles_per_unit - 250.0).abs() < 1e-9);
        assert_eq!(model.cooldown_units, 16.0);
        // Delay of 4k cycles at 250 cycles/unit = 16 units.
        assert_eq!(model.delay_units, 16.0);
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn rejects_bad_scale() {
        let _ = SchemeParams::scaled(0.0);
    }
}
