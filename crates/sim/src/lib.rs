//! Cache-hierarchy and timing substrate for the Untangle reproduction.
//!
//! The paper evaluates Untangle on an 8-core system with private L1
//! caches and a shared, set-partitioned 16 MB last-level cache (LLC),
//! simulated with gem5 (Table 3). This crate is the from-scratch
//! substitute (see DESIGN.md, "Substitutions"):
//!
//! * [`config`] — the simulated machine description: cache geometries,
//!   the nine supported partition sizes (128 kB…8 MB), latencies, and the
//!   timing parameters.
//! * [`cache`] — a set-associative, LRU, tag-only cache model used for
//!   the L1s, the LLC partitions, the shared LLC, and the monitor.
//! * [`umon`] — the UMON-style utility monitor (§7): per-domain tag-only
//!   sampled caches simulating *every* candidate partition size over a
//!   sliding window of the last `M_w` retired public memory
//!   instructions, plus the lookahead partition chooser that maximizes
//!   global hits.
//! * [`tlb`] — the §6.3 generality demonstration: a page-granular TLB
//!   twin of the LLC machinery (resizable TLB slices and a
//!   timing-independent TLB utility monitor), resized by the same
//!   schedule and leakage accountant as the LLC.
//! * [`timing`] — a trace-driven timing model: base CPI at the commit
//!   width plus level-dependent miss penalties with a bounded
//!   memory-level-parallelism overlap factor.
//! * [`system`] — the multicore system tying it together: per-domain
//!   trace execution, LLC partitioning/sharing, per-domain clocks, and
//!   resize operations.
//! * [`stats`] — per-domain and system-wide statistics (IPC and cache
//!   counters).
//!
//! # Example
//!
//! ```
//! use untangle_sim::config::{MachineConfig, PartitionSize};
//! use untangle_sim::system::{LlcMode, System};
//! use untangle_trace::synth::{WorkingSetModel, WorkingSetConfig};
//!
//! let machine = MachineConfig::default();
//! let mut system = System::new(machine, 1, LlcMode::Partitioned);
//! let mut src = WorkingSetModel::new(WorkingSetConfig::default(), 1);
//! system.resize(0, PartitionSize::MB2);
//! for _ in 0..10_000 {
//!     system.step(0, &mut src);
//! }
//! assert!(system.stats(0).instructions == 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod stats;
pub mod system;
pub mod timing;
pub mod tlb;
pub mod umon;

pub use config::{MachineConfig, PartitionSize};
pub use system::{LlcMode, System};
