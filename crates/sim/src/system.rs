//! The simulated multicore system: per-domain L1s and clocks, plus a
//! set-partitioned (or shared) LLC.
//!
//! The system is deliberately policy-free: it executes instructions and
//! applies [`System::resize`] operations, while the partitioning
//! *schemes* (metrics, heuristics, schedules, leakage accounting) live
//! in `untangle-core` and drive it. This mirrors the paper's separation
//! between the hardware substrate and the Untangle framework.

use crate::cache::SetAssocCache;
use crate::config::{MachineConfig, PartitionSize};
use crate::stats::DomainStats;
use crate::timing::{ServiceLevel, TimingModel};
use untangle_trace::{Instr, TraceSource};

/// How the LLC is organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcMode {
    /// Set partitioning: each domain owns a resizable slice (the
    /// Static/Time/Untangle configurations).
    Partitioned,
    /// No partitions: all domains contend in one cache (the insecure
    /// Shared configuration of Table 4).
    Shared,
}

/// What happened when one instruction retired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetireEvent {
    /// The retired instruction.
    pub instr: Instr,
    /// Where its memory access (if any) was served.
    pub level: Option<ServiceLevel>,
    /// The domain's cycle clock after retiring it.
    pub cycles: f64,
}

/// The LLC's storage; only the organization in use is allocated.
#[derive(Debug, Clone)]
enum Llc {
    /// One partition per domain, allocated at the maximum supported
    /// size and resized via effective sets.
    Partitioned(Vec<SetAssocCache>),
    /// The single cache all domains share.
    Shared(SetAssocCache),
}

/// The simulated machine. See the crate-level example.
#[derive(Debug, Clone)]
pub struct System {
    machine: MachineConfig,
    l1s: Vec<SetAssocCache>,
    llc: Llc,
    partition_sizes: Vec<PartitionSize>,
    timing: Vec<TimingModel>,
    /// Per-domain statistics; `cycles` mirrors `timing` after every
    /// step and stall, so the laggard scan reads it without going
    /// through the timing model.
    stats: Vec<DomainStats>,
}

impl System {
    /// Builds a system with `domains` cores. In partitioned mode every
    /// domain starts at 2 MB (the paper's initial size for Static, Time
    /// and Untangle, §8).
    ///
    /// # Panics
    ///
    /// Panics if `domains` is zero or exceeds the machine's core count.
    pub fn new(machine: MachineConfig, domains: usize, mode: LlcMode) -> Self {
        assert!(
            domains > 0 && domains <= machine.cores,
            "domains must be in 1..={}",
            machine.cores
        );
        let initial = PartitionSize::MB2;
        let llc = match mode {
            LlcMode::Partitioned => {
                let max_geometry = machine.partition_geometry(PartitionSize::MB8);
                Llc::Partitioned(
                    (0..domains)
                        .map(|_| {
                            let mut c = SetAssocCache::new(max_geometry);
                            c.resize_sets(initial.sets(machine.llc_ways));
                            c
                        })
                        .collect(),
                )
            }
            LlcMode::Shared => Llc::Shared(SetAssocCache::new(machine.llc_geometry())),
        };
        Self {
            l1s: (0..domains)
                .map(|_| SetAssocCache::new(machine.l1_geometry()))
                .collect(),
            llc,
            partition_sizes: vec![initial; domains],
            timing: (0..domains)
                .map(|_| TimingModel::new(machine.timing))
                .collect(),
            stats: vec![DomainStats::default(); domains],
            machine,
        }
    }

    /// The machine description.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The LLC organization.
    pub fn mode(&self) -> LlcMode {
        match self.llc {
            Llc::Partitioned(_) => LlcMode::Partitioned,
            Llc::Shared(_) => LlcMode::Shared,
        }
    }

    /// Number of simulated domains.
    pub fn domains(&self) -> usize {
        self.l1s.len()
    }

    /// Executes (retires) the next instruction of `domain` from `source`.
    ///
    /// Returns `None` when the source is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is out of range.
    pub fn step<S: TraceSource>(&mut self, domain: usize, source: &mut S) -> Option<RetireEvent> {
        let instr = source.next_instr()?;
        let level = instr.mem_access().map(|access| {
            self.stats[domain].mem_accesses += 1;
            if self.l1s[domain].access(access.addr).is_hit() {
                self.stats[domain].l1_hits += 1;
                ServiceLevel::L1
            } else {
                let llc = match &mut self.llc {
                    Llc::Partitioned(partitions) => &mut partitions[domain],
                    Llc::Shared(shared) => shared,
                };
                if llc.access(access.addr).is_hit() {
                    self.stats[domain].llc_hits += 1;
                    ServiceLevel::Llc
                } else {
                    self.stats[domain].llc_misses += 1;
                    ServiceLevel::Dram
                }
            }
        });
        match level {
            Some(l) => self.timing[domain].retire_mem(l),
            None => self.timing[domain].retire_compute(),
        }
        self.stats[domain].instructions += 1;
        self.stats[domain].cycles = self.timing[domain].cycles();
        Some(RetireEvent {
            instr,
            level,
            cycles: self.timing[domain].cycles(),
        })
    }

    /// Sets `domain`'s partition to `size` (a resizing action taking
    /// effect now). No-op in shared mode, where there are no partitions.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is out of range.
    pub fn resize(&mut self, domain: usize, size: PartitionSize) {
        self.partition_sizes[domain] = size;
        if let Llc::Partitioned(partitions) = &mut self.llc {
            partitions[domain].resize_sets(size.sets(self.machine.llc_ways));
        }
    }

    /// The current partition size of `domain`.
    pub fn partition_size(&self, domain: usize) -> PartitionSize {
        self.partition_sizes[domain]
    }

    /// `domain`'s statistics so far.
    pub fn stats(&self, domain: usize) -> DomainStats {
        self.stats[domain]
    }

    /// `domain`'s cycle clock.
    pub fn cycles(&self, domain: usize) -> f64 {
        self.timing[domain].cycles()
    }

    /// `domain`'s wall-clock time in seconds.
    pub fn seconds(&self, domain: usize) -> f64 {
        self.timing[domain].seconds()
    }

    /// Advances `domain`'s clock without retiring instructions (models a
    /// stall imposed by the scheme, e.g. waiting out a resize freeze).
    pub fn stall(&mut self, domain: usize, cycles: f64) {
        self.timing[domain].advance(cycles);
        self.stats[domain].cycles = self.timing[domain].cycles();
    }

    /// The domain with the smallest cycle clock — the one to step next
    /// when interleaving domains in global-time order. Ties go to the
    /// lowest domain index.
    pub fn laggard(&self) -> usize {
        let mut best = 0;
        let mut min = self.stats[0].cycles;
        for (d, s) in self.stats.iter().enumerate().skip(1) {
            // Selects rather than branches: which domain lags changes
            // from step to step, so a branch here mispredicts often.
            let lower = s.cycles < min;
            best = if lower { d } else { best };
            min = if lower { s.cycles } else { min };
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use untangle_trace::instr::LineAddr;
    use untangle_trace::source::VecSource;

    fn loads(lines: impl IntoIterator<Item = u64>) -> VecSource {
        VecSource::once(
            lines
                .into_iter()
                .map(|l| Instr::load(LineAddr::new(l)))
                .collect(),
        )
    }

    fn small_machine() -> MachineConfig {
        MachineConfig::default()
    }

    #[test]
    fn step_counts_and_levels() {
        let mut sys = System::new(small_machine(), 1, LlcMode::Partitioned);
        let mut src = loads([0, 0]);
        let first = sys.step(0, &mut src).unwrap();
        assert_eq!(first.level, Some(ServiceLevel::Dram)); // cold
        let second = sys.step(0, &mut src).unwrap();
        assert_eq!(second.level, Some(ServiceLevel::L1)); // L1 filled
        assert!(sys.step(0, &mut src).is_none());
        let s = sys.stats(0);
        assert_eq!(s.instructions, 2);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.llc_misses, 1);
    }

    #[test]
    fn llc_hit_after_l1_eviction() {
        // Touch a footprint bigger than L1 (32 kB = 512 lines) but within
        // the 2 MB partition: second pass hits the LLC, not DRAM.
        let mut sys = System::new(small_machine(), 1, LlcMode::Partitioned);
        let lines: Vec<u64> = (0..2048).collect();
        let mut src = loads(lines.iter().copied().chain(lines.iter().copied()));
        let mut levels = Vec::new();
        while let Some(ev) = sys.step(0, &mut src) {
            levels.push(ev.level.unwrap());
        }
        let second_pass = &levels[2048..];
        let llc_hits = second_pass
            .iter()
            .filter(|&&l| l == ServiceLevel::Llc)
            .count();
        assert!(
            llc_hits > 1500,
            "most second-pass accesses should hit the LLC: {llc_hits}"
        );
    }

    #[test]
    fn partitioned_domains_are_isolated() {
        // Domain 1 thrashing its own partition must not evict domain 0's
        // lines.
        let mut sys = System::new(small_machine(), 2, LlcMode::Partitioned);
        let mut warm = loads(0..2048);
        while sys.step(0, &mut warm).is_some() {}
        // Domain 1 hammers the same line indexes (its own partition).
        let mut noise = loads((0..4096).map(|l| l * 17));
        while sys.step(1, &mut noise).is_some() {}
        // Domain 0 re-touches: still LLC/L1, never DRAM.
        let mut again = loads(0..2048);
        let mut dram = 0;
        while let Some(ev) = sys.step(0, &mut again) {
            if ev.level == Some(ServiceLevel::Dram) {
                dram += 1;
            }
        }
        assert_eq!(dram, 0, "partitioning must isolate domains");
    }

    #[test]
    fn shared_mode_lets_domains_conflict() {
        let mut sys = System::new(small_machine(), 2, LlcMode::Shared);
        // Domain 0 warms 2048 lines; domain 1 floods 4 MB+ with lines
        // mapping over the whole cache; domain 0 then sees DRAM misses.
        let mut warm = loads(0..2048);
        while sys.step(0, &mut warm).is_some() {}
        let mut flood = loads(0..600_000);
        while sys.step(1, &mut flood).is_some() {}
        let mut again = loads(0..2048);
        let mut dram = 0;
        while let Some(ev) = sys.step(0, &mut again) {
            if ev.level == Some(ServiceLevel::Dram) {
                dram += 1;
            }
        }
        assert!(dram > 1000, "shared LLC must allow conflicts: {dram}");
    }

    #[test]
    fn resize_changes_effective_capacity() {
        let mut sys = System::new(small_machine(), 1, LlcMode::Partitioned);
        assert_eq!(sys.partition_size(0), PartitionSize::MB2);
        sys.resize(0, PartitionSize::KB128);
        assert_eq!(sys.partition_size(0), PartitionSize::KB128);
        // 128 kB = 2048 lines; a 1 MB footprint now thrashes.
        let lines: Vec<u64> = (0..16384).collect();
        let mut src = loads(lines.iter().copied().chain(lines.iter().copied()));
        let mut llc_hits = 0;
        while let Some(ev) = sys.step(0, &mut src) {
            if ev.level == Some(ServiceLevel::Llc) {
                llc_hits += 1;
            }
        }
        assert!(
            llc_hits < 3000,
            "128 kB partition cannot hold 1 MB: {llc_hits} hits"
        );
    }

    #[test]
    fn laggard_tracks_min_cycles() {
        let mut sys = System::new(small_machine(), 3, LlcMode::Partitioned);
        sys.stall(0, 100.0);
        sys.stall(2, 50.0);
        assert_eq!(sys.laggard(), 1);
        sys.stall(1, 500.0);
        assert_eq!(sys.laggard(), 2);
    }

    #[test]
    fn laggard_ties_go_to_the_lowest_index() {
        let mut sys = System::new(small_machine(), 4, LlcMode::Partitioned);
        // Every clock starts at 0.
        assert_eq!(sys.laggard(), 0);
        sys.stall(0, 10.0);
        assert_eq!(sys.laggard(), 1);
        sys.stall(1, 30.0);
        sys.stall(2, 30.0);
        sys.stall(3, 30.0);
        // Domain 0 lags alone; then three domains share the minimum.
        assert_eq!(sys.laggard(), 0);
        sys.stall(0, 20.0);
        assert_eq!(sys.laggard(), 0);
        sys.stall(0, 1.0);
        assert_eq!(sys.laggard(), 1);
        sys.stall(1, 1.0);
        assert_eq!(sys.laggard(), 2);
    }

    #[test]
    fn laggard_is_the_argmin_of_cycles_over_a_mixed_run() {
        use untangle_trace::synth::{WorkingSetConfig, WorkingSetModel};
        for mode in [LlcMode::Partitioned, LlcMode::Shared] {
            let mut sys = System::new(small_machine(), 3, mode);
            let mut sources: Vec<Box<dyn TraceSource>> = vec![
                Box::new(VecSource::once(vec![Instr::compute(); 4096])),
                Box::new(loads((0..4096).map(|l| l * 3))),
                Box::new(WorkingSetModel::new(
                    WorkingSetConfig {
                        working_set_bytes: 1 << 20,
                        ..WorkingSetConfig::default()
                    },
                    7,
                )),
            ];
            for i in 0..6000 {
                let d = sys.laggard();
                let argmin = (0..sys.domains())
                    .min_by(|&a, &b| sys.cycles(a).total_cmp(&sys.cycles(b)))
                    .expect("domains");
                assert_eq!(d, argmin, "{mode:?} step {i}");
                if sys.step(d, &mut sources[d]).is_none() {
                    sys.stall(d, 50.0);
                }
            }
        }
    }

    #[test]
    fn compute_instructions_touch_no_cache() {
        let mut sys = System::new(small_machine(), 1, LlcMode::Partitioned);
        let mut src = VecSource::once(vec![Instr::compute(); 16]);
        while let Some(ev) = sys.step(0, &mut src) {
            assert_eq!(ev.level, None);
        }
        let s = sys.stats(0);
        assert_eq!(s.mem_accesses, 0);
        assert!((s.cycles - 2.0).abs() < 1e-9); // 16 instrs / 8-wide
    }

    #[test]
    #[should_panic(expected = "domains must be in")]
    fn rejects_too_many_domains() {
        let _ = System::new(small_machine(), 9, LlcMode::Partitioned);
    }
}
