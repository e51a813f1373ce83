//! Crash-consistent durability primitives, shared by the experiment
//! engine (`untangle-bench` checkpoints) and the serve daemon
//! (`untangle-serve --wal`).
//!
//! The layer sits at the bottom of the workspace DAG next to
//! `untangle-obs` and owns every raw persistence syscall the rest of
//! the workspace performs (`untangle-lint` flags `File::create` /
//! `fs::rename` outside this crate). It provides three primitives, all
//! built on the same FNV-1a checksum and the same fault-injection
//! choke point:
//!
//! * [`atomic::atomic_write`] — full-file replacement through a temp
//!   file, `fsync` on the file **and** its parent directory, then
//!   `rename`. After a crash the destination holds either the old or
//!   the new bytes, never a mix, and a completed rename implies the
//!   data is on disk.
//! * [`wal::Wal`] — a checksummed append-only write-ahead log with
//!   per-record `[len u32 LE][fnv1a u64 LE][payload]` frames. Opening a
//!   log recovers the longest valid prefix of records: a torn tail
//!   (short frame, bad checksum) is *detected* and truncated to the
//!   last complete record, never silently parsed.
//! * [`slot::Slot`] — a *detectable* checkpoint: a single-value store
//!   whose load distinguishes `Missing` / `Valid` / `Corrupt`. A
//!   header carrying the payload length and checksum makes any
//!   truncation or trailing garbage detectable instead of a lucky or
//!   unlucky parse downstream.
//!
//! [`linelog::LineLog`] rounds these out for the serve daemon's output
//! stream: an append-only text file recovered to its last complete
//! (`\n`-terminated) line.
//!
//! # Fault injection
//!
//! Every durable write funnels through `fault::before_write`, which
//! honors two `UNTANGLE_FAULT_INJECT` budgets:
//!
//! * `kill_at_write:N` — abort the process *before* the Nth durable
//!   write transfers a byte (a clean power-cut at a write boundary);
//! * `torn_write:N` — persist a strict prefix of the Nth write, then
//!   abort (a power-cut mid-write, the torn-tail case).
//!
//! The kill-point harnesses in `untangle-bench` and `untangle-serve`
//! sweep `N` over enumerated and randomized values and assert that
//! recovery reproduces the uninterrupted run byte for byte.
//!
//! # Observability
//!
//! The layer emits `durable.writes` (every durable write),
//! `durable.wal_appends`, `durable.recoveries` (WAL opens that found
//! an existing non-empty log), and `durable.torn_tails_truncated`.

pub mod atomic;
pub mod fault;
pub mod linelog;
pub mod slot;
pub mod wal;

use std::fmt;
use std::path::{Path, PathBuf};

/// An error from a durability primitive: the path it was touching, the
/// operation, and the OS or format-level reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableError {
    /// The file the operation targeted.
    pub path: PathBuf,
    /// Short operation name (`"atomic_write"`, `"wal_open"`, …).
    pub op: &'static str,
    /// Human-readable failure reason.
    pub reason: String,
}

impl DurableError {
    pub(crate) fn new(path: &Path, op: &'static str, reason: impl fmt::Display) -> Self {
        Self {
            path: path.to_path_buf(),
            op,
            reason: reason.to_string(),
        }
    }
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "durable {} {}: {}",
            self.op,
            self.path.display(),
            self.reason
        )
    }
}

impl std::error::Error for DurableError {}

/// FNV-1a over a byte slice: the workspace's deterministic,
/// platform-independent checksum, also the serve engine's shard-routing
/// hash and `untangle-bench`'s checkpoint fingerprint.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Offset basis for the empty input; a known vector for "a".
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn error_display_includes_op_and_path() {
        let e = DurableError::new(Path::new("/tmp/x"), "wal_open", "boom");
        assert_eq!(e.to_string(), "durable wal_open /tmp/x: boom");
    }
}
