//! Crash fault injection at the durability layer's write boundary.
//!
//! `UNTANGLE_FAULT_INJECT` (the same variable `untangle-bench` uses for
//! `worker_panic:N`) gains two durability-specific budgets:
//!
//! * `kill_at_write:N` — the Nth durable write in the process aborts
//!   *before* transferring a single byte. Models a power cut at a
//!   write boundary: everything before the write is durable, nothing
//!   of the write itself exists.
//! * `torn_write:N` — the Nth durable write persists a strict prefix
//!   of its payload (half, rounded down), syncs it, then aborts.
//!   Models a power cut mid-write: the torn tail must be *detected*
//!   by recovery, never parsed.
//!
//! `N` is 1-based and counts durable writes process-wide across every
//! primitive: one per [`crate::wal::Wal::append_batch`] (a whole batch
//! of records, one record for [`crate::wal::Wal::append`]), one per
//! [`crate::atomic::atomic_write`] and one per
//! [`crate::linelog::LineLog::append_lines`]. A kill-point harness can
//! therefore sweep `N` to place a crash at every persistence boundary
//! of a real binary. The abort is `std::process::abort` — no unwinding, no
//! destructors, exactly what a crash leaves behind.

use std::sync::atomic::{AtomicUsize, Ordering};

use untangle_obs as obs;

/// The environment variable carrying the fault budget (shared with
/// `untangle-bench`'s `worker_panic:N`; unrecognized prefixes are
/// ignored by each consumer).
pub const ENV: &str = "UNTANGLE_FAULT_INJECT";

/// Process-wide durable-write counter (1-based after increment).
static WRITES: AtomicUsize = AtomicUsize::new(0);

/// What the injector decided for one durable write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Injected {
    /// Proceed normally.
    None,
    /// Persist only the first `keep` bytes, sync, then abort.
    Torn {
        /// Prefix length to persist before aborting.
        keep: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Kill,
    Torn,
}

/// Parses the fault budget from the environment. Per-call parsing keeps
/// the semantics identical to `untangle-bench`'s injector and lets
/// in-process tests flip the variable between phases.
fn budget() -> Option<(Kind, usize)> {
    let raw = obs::env::trimmed_var(ENV)?;
    if let Some(n) = raw.strip_prefix("kill_at_write:") {
        return n.parse().ok().map(|n| (Kind::Kill, n));
    }
    if let Some(n) = raw.strip_prefix("torn_write:") {
        return n.parse().ok().map(|n| (Kind::Torn, n));
    }
    None
}

/// Durable writes performed by this process so far.
pub fn durable_writes() -> usize {
    WRITES.load(Ordering::Relaxed)
}

/// The write-boundary choke point: counts the write, and if its 1-based
/// sequence number matches the configured fault, either aborts
/// immediately (`kill_at_write`) or instructs the caller to persist a
/// torn prefix of the `len`-byte payload (`torn_write`).
pub(crate) fn before_write(len: usize) -> Injected {
    let seq = WRITES.fetch_add(1, Ordering::Relaxed) + 1;
    obs::counter_add("durable.writes", 1);
    let Some((kind, n)) = budget() else {
        return Injected::None;
    };
    if seq != n {
        return Injected::None;
    }
    match kind {
        Kind::Kill => {
            // A visible last gasp so harness logs show which write died.
            eprintln!("untangle-durable: injected kill_at_write:{n} (durable write {seq})");
            std::process::abort();
        }
        Kind::Torn => Injected::Torn { keep: len / 2 },
    }
}

/// Aborts after a torn prefix has been persisted. Split from
/// [`before_write`] so the caller can sync the prefix first — a torn
/// write that left nothing on disk would be indistinguishable from a
/// clean kill and would under-test recovery.
pub(crate) fn abort_torn(n_bytes_kept: usize) -> ! {
    eprintln!("untangle-durable: injected torn_write ({n_bytes_kept} bytes kept)");
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Parsing is exercised directly; the abort paths are covered by the
    // process-spawning kill-point harnesses in bench and serve.
    #[test]
    fn budget_parses_both_kinds_and_ignores_foreign_values() {
        // Sequence numbers far beyond anything this test binary's other
        // threads can reach: the variable is process-global and other
        // unit tests perform durable writes concurrently, so a small N
        // here could fire for real.
        std::env::set_var(ENV, "kill_at_write:999999999");
        assert_eq!(budget(), Some((Kind::Kill, 999_999_999)));
        std::env::set_var(ENV, "torn_write:999999998");
        assert_eq!(budget(), Some((Kind::Torn, 999_999_998)));
        std::env::set_var(ENV, "worker_panic:2");
        assert_eq!(budget(), None);
        std::env::set_var(ENV, "kill_at_write:x");
        assert_eq!(budget(), None);
        std::env::remove_var(ENV);
        assert_eq!(budget(), None);
    }

    #[test]
    fn before_write_counts_without_a_budget() {
        let start = durable_writes();
        assert_eq!(before_write(100), Injected::None);
        assert!(durable_writes() > start);
    }
}
