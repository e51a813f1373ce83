//! Machine description: cache geometries, partition sizes, latencies.
//!
//! Defaults follow Table 3 of the paper: 8 out-of-order x86 cores at
//! 2 GHz, 8-commit, 32 kB 8-way private L1s, a 16 MB 16-way shared LLC
//! (2 MB per slice), 50 ns DRAM round trip, and nine supported partition
//! sizes per domain.

use std::fmt;

/// Cache line size in bytes (Table 3: 64 B lines everywhere).
pub const LINE_BYTES: u64 = 64;

/// The nine supported LLC partition sizes of the paper's evaluation
/// (Table 3). A resizing action sets a domain's partition to one of
/// these.
///
/// The discriminant order is the size order, so `PartitionSize` values
/// compare meaningfully:
///
/// ```
/// use untangle_sim::PartitionSize;
/// assert!(PartitionSize::KB128 < PartitionSize::MB8);
/// assert_eq!(PartitionSize::MB2.bytes(), 2 << 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum PartitionSize {
    /// 128 kB.
    KB128 = 0,
    /// 256 kB.
    KB256 = 1,
    /// 512 kB.
    KB512 = 2,
    /// 1 MB.
    MB1 = 3,
    /// 2 MB (the Static scheme's fixed per-domain share).
    MB2 = 4,
    /// 3 MB.
    MB3 = 5,
    /// 4 MB.
    MB4 = 6,
    /// 6 MB.
    MB6 = 7,
    /// 8 MB (half the LLC; the largest supported partition).
    MB8 = 8,
}

impl PartitionSize {
    /// All supported sizes in ascending order.
    pub const ALL: [PartitionSize; 9] = [
        PartitionSize::KB128,
        PartitionSize::KB256,
        PartitionSize::KB512,
        PartitionSize::MB1,
        PartitionSize::MB2,
        PartitionSize::MB3,
        PartitionSize::MB4,
        PartitionSize::MB6,
        PartitionSize::MB8,
    ];

    /// Number of supported sizes (9 ⇒ `log2 9 ≈ 3.17` bits per
    /// assessment for the Time scheme, §9).
    pub const COUNT: usize = Self::ALL.len();

    /// Partition capacity in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            PartitionSize::KB128 => 128 << 10,
            PartitionSize::KB256 => 256 << 10,
            PartitionSize::KB512 => 512 << 10,
            PartitionSize::MB1 => 1 << 20,
            PartitionSize::MB2 => 2 << 20,
            PartitionSize::MB3 => 3 << 20,
            PartitionSize::MB4 => 4 << 20,
            PartitionSize::MB6 => 6 << 20,
            PartitionSize::MB8 => 8 << 20,
        }
    }

    /// Index into [`PartitionSize::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The size at `index` of [`PartitionSize::ALL`], if in range.
    pub const fn from_index(index: usize) -> Option<Self> {
        if index < Self::COUNT {
            Some(Self::ALL[index])
        } else {
            None
        }
    }

    /// The next larger supported size, if any.
    pub const fn next_up(self) -> Option<Self> {
        Self::from_index(self.index() + 1)
    }

    /// The next smaller supported size, if any.
    pub const fn next_down(self) -> Option<Self> {
        let i = self.index();
        if i == 0 {
            None
        } else {
            Self::from_index(i - 1)
        }
    }

    /// The smallest supported size that is at least `bytes`, or the
    /// largest size if none suffices.
    pub fn at_least(bytes: u64) -> Self {
        for s in Self::ALL {
            if s.bytes() >= bytes {
                return s;
            }
        }
        PartitionSize::MB8
    }

    /// Number of sets this partition occupies in a cache with the given
    /// associativity (set partitioning: `bytes / (line × ways)`).
    pub const fn sets(self, ways: usize) -> usize {
        (self.bytes() / (LINE_BYTES * ways as u64)) as usize
    }
}

impl fmt::Display for PartitionSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.bytes();
        if b >= 1 << 20 {
            write!(f, "{}MB", b >> 20)
        } else {
            write!(f, "{}kB", b >> 10)
        }
    }
}

/// Geometry of one set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of sets.
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheGeometry {
    /// Geometry from a capacity in bytes and associativity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a whole number of sets.
    pub fn from_capacity(bytes: u64, ways: usize) -> Self {
        let denom = LINE_BYTES * ways as u64;
        assert!(
            bytes.is_multiple_of(denom) && bytes > 0,
            "capacity {bytes} not divisible into {ways}-way sets"
        );
        Self {
            sets: (bytes / denom) as usize,
            ways,
        }
    }

    /// Total capacity in bytes.
    pub const fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * LINE_BYTES
    }
}

/// Memory-hierarchy latencies and core timing parameters.
///
/// Cycle figures follow Table 3 at 2 GHz: L1 2-cycle round trip, LLC
/// 8-cycle round trip, 50 ns (100-cycle) DRAM round trip after the LLC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// Instructions the core can commit per cycle (Table 3: 8).
    pub commit_width: u32,
    /// L1 round-trip latency in cycles.
    pub l1_latency: u64,
    /// LLC round-trip latency in cycles (beyond the core).
    pub llc_latency: u64,
    /// DRAM round-trip latency in cycles after the LLC.
    pub dram_latency: u64,
    /// Fraction of a miss latency that the out-of-order core cannot hide
    /// (`0.0` = perfect overlap, `1.0` = fully blocking). A fixed factor
    /// approximating memory-level parallelism.
    pub exposed_miss_fraction: f64,
    /// Core frequency in Hz — converts cycles to wall-clock time for the
    /// leakage model (Table 3: 2 GHz).
    pub frequency_hz: u64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self {
            commit_width: 8,
            l1_latency: 2,
            llc_latency: 8,
            dram_latency: 100,
            exposed_miss_fraction: 0.35,
            frequency_hz: 2_000_000_000,
        }
    }
}

/// Full machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of cores / security domains (Table 3: 8).
    pub cores: usize,
    /// Private L1 data cache capacity in bytes (32 kB).
    pub l1_bytes: u64,
    /// Private L1 associativity (8).
    pub l1_ways: usize,
    /// Shared LLC capacity in bytes (16 MB).
    pub llc_bytes: u64,
    /// LLC associativity (16).
    pub llc_ways: usize,
    /// Timing parameters.
    pub timing: TimingConfig,
    /// UMON sampling ratio: the monitor simulates `1/sample_ratio` of
    /// each candidate cache's sets (must divide every candidate set
    /// count).
    pub umon_sample_ratio: usize,
    /// UMON window `M_w`: assessments consider the past `M_w` retired
    /// public memory instructions (Table 3: 1 M; scaled runs use less).
    pub umon_window: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            cores: 8,
            l1_bytes: 32 << 10,
            l1_ways: 8,
            llc_bytes: 16 << 20,
            llc_ways: 16,
            timing: TimingConfig::default(),
            umon_sample_ratio: 8,
            umon_window: 100_000,
        }
    }
}

impl MachineConfig {
    /// Geometry of one private L1.
    pub fn l1_geometry(&self) -> CacheGeometry {
        CacheGeometry::from_capacity(self.l1_bytes, self.l1_ways)
    }

    /// Geometry of the full shared LLC.
    pub fn llc_geometry(&self) -> CacheGeometry {
        CacheGeometry::from_capacity(self.llc_bytes, self.llc_ways)
    }

    /// Geometry of the LLC sub-cache for one partition size.
    pub fn partition_geometry(&self, size: PartitionSize) -> CacheGeometry {
        CacheGeometry {
            sets: size.sets(self.llc_ways),
            ways: self.llc_ways,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_sizes_are_ascending_and_match_table3() {
        let bytes: Vec<u64> = PartitionSize::ALL.iter().map(|s| s.bytes()).collect();
        assert_eq!(
            bytes,
            vec![
                128 << 10,
                256 << 10,
                512 << 10,
                1 << 20,
                2 << 20,
                3 << 20,
                4 << 20,
                6 << 20,
                8 << 20
            ]
        );
        for w in PartitionSize::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn index_roundtrip() {
        for s in PartitionSize::ALL {
            assert_eq!(PartitionSize::from_index(s.index()), Some(s));
        }
        assert_eq!(PartitionSize::from_index(9), None);
    }

    #[test]
    fn neighbors() {
        assert_eq!(PartitionSize::KB128.next_down(), None);
        assert_eq!(PartitionSize::KB128.next_up(), Some(PartitionSize::KB256));
        assert_eq!(PartitionSize::MB8.next_up(), None);
        assert_eq!(PartitionSize::MB8.next_down(), Some(PartitionSize::MB6));
    }

    #[test]
    fn at_least_picks_smallest_sufficient() {
        assert_eq!(PartitionSize::at_least(1), PartitionSize::KB128);
        assert_eq!(PartitionSize::at_least(2 << 20), PartitionSize::MB2);
        assert_eq!(PartitionSize::at_least((2 << 20) + 1), PartitionSize::MB3);
        assert_eq!(PartitionSize::at_least(1 << 30), PartitionSize::MB8);
    }

    #[test]
    fn set_counts_for_16_way_llc() {
        assert_eq!(PartitionSize::KB128.sets(16), 128);
        assert_eq!(PartitionSize::MB2.sets(16), 2048);
        assert_eq!(PartitionSize::MB3.sets(16), 3072);
        assert_eq!(PartitionSize::MB8.sets(16), 8192);
    }

    #[test]
    fn sample_ratio_divides_every_candidate() {
        let m = MachineConfig::default();
        for s in PartitionSize::ALL {
            assert_eq!(
                s.sets(m.llc_ways) % m.umon_sample_ratio,
                0,
                "sample ratio must divide {s}'s set count"
            );
        }
    }

    #[test]
    fn default_machine_matches_table3() {
        let m = MachineConfig::default();
        assert_eq!(m.cores, 8);
        assert_eq!(m.l1_geometry().sets, 64);
        assert_eq!(m.llc_geometry().sets, 16384);
        assert_eq!(m.llc_geometry().capacity_bytes(), 16 << 20);
        assert_eq!(m.timing.commit_width, 8);
    }

    #[test]
    fn display_formats() {
        assert_eq!(PartitionSize::KB128.to_string(), "128kB");
        assert_eq!(PartitionSize::MB8.to_string(), "8MB");
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn geometry_rejects_ragged_capacity() {
        let _ = CacheGeometry::from_capacity(1000, 8);
    }
}
