//! The crash-consistent serve driver: write-ahead journal, periodic
//! engine snapshots, and a durable output log that recovers to a
//! byte-identical decision stream.
//!
//! # Protocol
//!
//! [`DurableServer`] wraps a [`ServeEngine`] with three durable files:
//!
//! * `serve.wal` — a checksummed [`Wal`]. **Journal-before-apply**:
//!   each chunk's events are appended (each with its global ingest
//!   index) as one batch — one write, one `sync_all` — *before* the
//!   engine sees any of them, so any event whose effects could have
//!   reached the output log is recoverable from disk.
//! * the output [`LineLog`] — the decision stream itself, appended one
//!   chunk at a time after the chunk's events are journaled and
//!   applied. That append acknowledges the chunk, so the chunk is the
//!   commit unit of both files.
//! * `snapshot.slot` — a [`Slot`] holding the engine serialization
//!   ([`ServeEngine::snapshot_json`]) plus the output log's length at
//!   snapshot time. Storing a snapshot is followed by [`Wal::reset`]:
//!   the slot then covers every applied event, so the journal restarts
//!   empty.
//!
//! # Recovery
//!
//! [`DurableServer::open`] loads the snapshot (if any), replays the
//! WAL records the snapshot does not cover through the restored
//! engine — deterministically, since serve output is a pure function
//! of the event sequence and chunking never changes a byte — then
//! rewinds the output log to the snapshot's recorded offset and
//! re-appends the regenerated lines. The rewrite is idempotent, so a
//! crash *during recovery* recovers again to the same bytes. Because
//! a chunk's whole batch is durable before any of its events is
//! applied, a kill or torn write at **any** durability boundary
//! recovers a byte-identical stream: a torn batch leaves whole records
//! plus a torn tail, none of them applied yet, so truncating the tail
//! loses nothing that was emitted and the whole records replay.
//!
//! # Fail-closed budgets
//!
//! The one genuinely ambiguous case is *mid-log* WAL damage (a bit
//! flip, not a torn tail): checksum verification truncates the log at
//! the damaged record, discarding later records whose decisions were
//! already durably emitted. Recovery detects this — the output log
//! then holds more durable bytes than the snapshot and surviving
//! journal can reproduce — and refuses to guess what those decisions
//! cost: every live budget-spending domain is charged the conventional
//! worst case (`log2 |A|` bits per assessment) via
//! [`ServeEngine::charge_external_all`], counted as
//! `serve.budget_recovered_fail_closed`. Tenant budgets may over-count
//! after damage, never under-count; a domain pushed past its budget
//! freezes through the ordinary taint-audited gate. The output log is
//! rewound to the reproducible prefix so the stream on disk stays
//! well-formed and deterministic.

use std::path::Path;

use untangle_core::scheme::SchemeParams;
use untangle_core::UntangleError;
use untangle_durable::linelog::LineLog;
use untangle_durable::slot::{Slot, SlotState};
use untangle_durable::wal::Wal;
use untangle_durable::DurableError;
use untangle_obs::json::Json;
use untangle_obs::{self as obs};

use crate::engine::{ServeConfig, ServeEngine};
use crate::event::Event;

/// WAL file name inside the state directory.
const WAL_FILE: &str = "serve.wal";
/// Snapshot slot file name inside the state directory.
const SNAPSHOT_FILE: &str = "snapshot.slot";

/// What [`DurableServer::open`] found on disk and did about it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeRecovery {
    /// Events the snapshot already covered (`ingested` at store time).
    pub snapshotted: u64,
    /// Journaled events replayed through the engine on top of the
    /// snapshot.
    pub replayed: usize,
    /// Output-log bytes the snapshot + journal reproduce
    /// deterministically; the log is exactly this long after `open`.
    pub reproducible_out_bytes: u64,
    /// Live budget-spending domains charged fail-closed because the
    /// output log held durable decisions beyond the reproducible
    /// prefix (mid-log journal damage). Zero on every clean or
    /// torn-tail recovery.
    pub fail_closed_domains: usize,
}

/// A [`ServeEngine`] wrapped in the durability protocol described in
/// the module docs.
#[derive(Debug)]
pub struct DurableServer {
    engine: ServeEngine,
    wal: Wal,
    out: LineLog,
    slot: Slot,
    burst: usize,
    snapshot_every: u64,
    since_snapshot: u64,
}

impl DurableServer {
    /// Opens (recovering if needed) a durable server over `state_dir`
    /// (journal + snapshot) and `out_path` (the decision stream).
    /// `burst` is the ingest chunk size; a snapshot is taken every
    /// `snapshot_every` events and at the end of [`DurableServer::serve`].
    ///
    /// # Errors
    ///
    /// [`UntangleError::Checkpoint`] when the state directory cannot be
    /// created, a durable file fails IO, the snapshot slot is damaged
    /// (fail-closed: restarting budgets from zero is the one recovery
    /// this layer must never improvise), the journal does not continue
    /// its snapshot, or the output log is shorter than the snapshot
    /// says it was — plus engine errors re-resolving accounting models.
    pub fn open(
        config: ServeConfig,
        state_dir: &Path,
        out_path: &Path,
        burst: usize,
        snapshot_every: u64,
    ) -> Result<(DurableServer, ServeRecovery), UntangleError> {
        std::fs::create_dir_all(state_dir).map_err(|e| UntangleError::Checkpoint {
            path: state_dir.display().to_string(),
            reason: format!("cannot create state directory: {e}"),
        })?;
        let slot = Slot::new(state_dir.join(SNAPSHOT_FILE));
        let slot_err = |reason: String| UntangleError::Checkpoint {
            path: slot.path().display().to_string(),
            reason,
        };
        let (mut engine, out_base) = match slot.load().map_err(durable_err)? {
            SlotState::Missing => (ServeEngine::new(config)?, 0),
            SlotState::Valid(bytes) => {
                let text = String::from_utf8(bytes)
                    .map_err(|_| slot_err("payload is not UTF-8".to_string()))?;
                let json =
                    Json::parse(&text).map_err(|e| slot_err(format!("unparsable payload: {e}")))?;
                let engine_json = json
                    .get("engine")
                    .ok_or_else(|| slot_err("missing field 'engine'".to_string()))?;
                let out_bytes = json
                    .get("out_bytes")
                    .and_then(Json::as_i64)
                    .and_then(|b| u64::try_from(b).ok())
                    .ok_or_else(|| slot_err("missing field 'out_bytes'".to_string()))?;
                (ServeEngine::restore(config, engine_json)?, out_bytes)
            }
            // The slot is written atomically, so a damaged slot means
            // outside interference. Starting fresh would silently
            // re-zero every tenant's spent leakage — refuse.
            SlotState::Corrupt { reason } => {
                return Err(slot_err(format!(
                    "snapshot damaged ({reason}); refusing to restart tenant budgets \
                     from zero — clear the state directory to start fresh"
                )));
            }
        };

        let (wal, recovery) = Wal::open(&state_dir.join(WAL_FILE)).map_err(durable_err)?;
        let snapshotted = engine.ingested();
        let mut replay = Vec::new();
        let mut expected = snapshotted;
        for (k, record) in recovery.records.iter().enumerate() {
            let (idx, event) =
                decode_record(record).map_err(|reason| UntangleError::Checkpoint {
                    path: wal.path().display().to_string(),
                    reason: format!("record {k}: {reason}"),
                })?;
            // Records the snapshot already covers are benign leftovers
            // of a crash between a snapshot store and its WAL reset.
            if idx < snapshotted {
                continue;
            }
            if idx != expected {
                return Err(UntangleError::Checkpoint {
                    path: wal.path().display().to_string(),
                    reason: format!(
                        "record {k} has ingest index {idx}, expected {expected}: \
                         the journal does not continue its snapshot"
                    ),
                });
            }
            expected += 1;
            replay.push(event);
        }

        let (mut out, durable_out) = LineLog::open(out_path).map_err(durable_err)?;
        if durable_out < out_base {
            return Err(UntangleError::Checkpoint {
                path: out_path.display().to_string(),
                reason: format!(
                    "output log holds {durable_out} bytes but the snapshot covers \
                     {out_base}: the log was truncated outside the daemon"
                ),
            });
        }

        // Deterministic replay of the journaled-but-uncovered suffix.
        let replayed = replay.len();
        let lines = engine.ingest_all(&replay, burst.max(1))?;
        let regenerated: u64 = lines.iter().map(|l| l.len() as u64 + 1).sum();
        let reproducible = out_base + regenerated;

        let mut fail_closed_domains = 0;
        if durable_out > reproducible {
            // Durable decisions exist beyond what the snapshot and the
            // surviving journal explain: mid-log damage dropped their
            // records. Charge the unknowable worst case (module docs).
            fail_closed_domains =
                engine.charge_external_all(SchemeParams::conventional_bits_per_assessment());
            obs::counter_add(
                "serve.budget_recovered_fail_closed",
                fail_closed_domains as u64,
            );
            obs::diag!(
                "warning: output log holds {durable_out} durable bytes but snapshot + journal \
                 reproduce only {reproducible}; journal damage lost emitted decisions — \
                 charged {fail_closed_domains} domain budgets fail-closed"
            );
        }

        // Idempotent re-emit: rewind to the snapshot's trusted offset
        // and re-append the regenerated lines byte for byte.
        out.truncate_to(out_base).map_err(durable_err)?;
        out.append_lines(&lines).map_err(durable_err)?;

        let mut server = DurableServer {
            engine,
            wal,
            out,
            slot,
            burst: burst.max(1),
            snapshot_every: snapshot_every.max(1),
            since_snapshot: replayed as u64,
        };
        // A fail-closed charge exists only in memory until a snapshot
        // covers it; persist immediately so a crash straight after
        // recovery cannot un-charge the budgets.
        if fail_closed_domains > 0 {
            server.snapshot()?;
        }
        Ok((
            server,
            ServeRecovery {
                snapshotted,
                replayed,
                reproducible_out_bytes: reproducible,
                fail_closed_domains,
            },
        ))
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    /// Durable bytes in the output log.
    pub fn out_bytes(&self) -> u64 {
        self.out.bytes()
    }

    /// Journals one chunk of events as one WAL batch, applies it, and
    /// durably emits its lines, snapshotting when the cadence is due.
    /// Journal-before-apply is the crash-consistency invariant: no event
    /// of the chunk reaches the engine or the output before the whole
    /// batch is on disk.
    ///
    /// # Errors
    ///
    /// [`UntangleError::Checkpoint`] on durable-write failures, plus
    /// engine ingest errors.
    pub fn ingest_chunk(&mut self, events: &[Event]) -> Result<(), UntangleError> {
        if events.is_empty() {
            return Ok(());
        }
        let records: Vec<Vec<u8>> = (self.engine.ingested()..)
            .zip(events)
            .map(|(idx, event)| {
                let mut record = idx.to_le_bytes().to_vec();
                record.extend_from_slice(event.render().as_bytes());
                record
            })
            .collect();
        self.wal.append_batch(&records).map_err(durable_err)?;
        let lines = self.engine.ingest(events)?;
        self.out.append_lines(&lines).map_err(durable_err)?;
        self.since_snapshot += events.len() as u64;
        if self.since_snapshot >= self.snapshot_every {
            self.snapshot()?;
        }
        Ok(())
    }

    /// Serves a replayed input stream: skips the prefix a previous life
    /// already ingested (the caller re-reads the same stream from the
    /// start), chunks the rest through [`DurableServer::ingest_chunk`],
    /// and finishes with a snapshot so a clean shutdown leaves an empty
    /// journal.
    ///
    /// # Errors
    ///
    /// [`UntangleError::InvalidConfig`] when the durable state covers
    /// more events than `events` holds (the replay stream is not the
    /// one this state directory was serving); otherwise as
    /// [`DurableServer::ingest_chunk`].
    pub fn serve(&mut self, events: &[Event]) -> Result<(), UntangleError> {
        let skip = usize::try_from(self.engine.ingested()).unwrap_or(usize::MAX);
        if skip > events.len() {
            return Err(UntangleError::InvalidConfig(format!(
                "durable state already covers {skip} events but the replay stream holds \
                 only {}: refusing to serve a different stream",
                events.len()
            )));
        }
        for chunk in events[skip..].chunks(self.burst) {
            self.ingest_chunk(chunk)?;
        }
        self.snapshot()
    }

    /// Atomically persists the engine and the output offset, then
    /// compacts the journal. A crash between the store and the reset is
    /// harmless: leftover records carry indices the snapshot covers and
    /// are skipped on recovery.
    ///
    /// # Errors
    ///
    /// [`UntangleError::Checkpoint`] on durable-write failures.
    pub fn snapshot(&mut self) -> Result<(), UntangleError> {
        let payload = Json::obj(vec![
            ("engine", self.engine.snapshot_json()),
            ("out_bytes", Json::Int(self.out.bytes() as i64)),
        ])
        .render();
        self.slot.store(payload.as_bytes()).map_err(durable_err)?;
        self.wal.reset().map_err(durable_err)?;
        self.since_snapshot = 0;
        Ok(())
    }
}

/// One journal record: the event's global ingest index (8 bytes LE,
/// making records self-describing so replay can skip snapshot-covered
/// leftovers) followed by the event's wire line.
fn decode_record(record: &[u8]) -> Result<(u64, Event), String> {
    if record.len() < 8 {
        return Err("shorter than the index prefix".to_string());
    }
    let mut idx = [0u8; 8];
    idx.copy_from_slice(&record[..8]);
    let line =
        std::str::from_utf8(&record[8..]).map_err(|_| "event payload is not UTF-8".to_string())?;
    let event = Event::parse_line(line).map_err(|e| e.to_string())?;
    Ok((u64::from_le_bytes(idx), event))
}

/// Durable-layer errors surface as checkpoint errors: the path names
/// the damaged file and the reason carries the failed operation.
fn durable_err(e: DurableError) -> UntangleError {
    UntangleError::Checkpoint {
        path: e.path.display().to_string(),
        reason: format!("{} failed: {}", e.op, e.reason),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synth_events, SynthConfig};
    use untangle_durable::wal::FrameReader;

    fn fresh_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "untangle_serve_durable_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn config() -> ServeConfig {
        ServeConfig::test_scale()
    }

    fn fixture() -> Vec<Event> {
        synth_events(
            &config().params,
            &SynthConfig {
                domains: 6,
                rounds: 4,
                tainted_every: 5,
                budget_every: 3,
                include_time: true,
                ..SynthConfig::small()
            },
        )
    }

    #[test]
    fn durable_serve_matches_plain_serve_and_restarts_cleanly() {
        let events = fixture();
        let baseline = {
            let mut engine = ServeEngine::new(config()).expect("engine");
            let lines = engine.ingest_all(&events, 7).expect("ingest");
            lines.join("\n") + "\n"
        };

        let dir = fresh_dir("clean");
        let out_path = dir.join("out.jsonl");
        {
            let (mut server, recovery) =
                DurableServer::open(config(), &dir, &out_path, 7, 10).expect("open");
            assert_eq!(recovery, ServeRecovery::default());
            server.serve(&events).expect("serve");
        }
        assert_eq!(
            std::fs::read(&out_path).expect("read out"),
            baseline.as_bytes(),
            "durable serve must emit the plain engine's exact bytes"
        );

        // A restart over the completed state is a no-op that leaves the
        // stream untouched.
        let (mut server, recovery) =
            DurableServer::open(config(), &dir, &out_path, 7, 10).expect("reopen");
        assert_eq!(recovery.snapshotted, events.len() as u64);
        assert_eq!(recovery.replayed, 0);
        assert_eq!(recovery.fail_closed_domains, 0);
        server.serve(&events).expect("idempotent serve");
        assert_eq!(
            std::fs::read(&out_path).expect("read out"),
            baseline.as_bytes()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_refuses_a_shorter_replay_stream_than_its_state() {
        let events = fixture();
        let dir = fresh_dir("short");
        let out_path = dir.join("out.jsonl");
        {
            let (mut server, _) =
                DurableServer::open(config(), &dir, &out_path, 7, 1_000).expect("open");
            server.serve(&events).expect("serve");
        }
        let (mut server, _) =
            DurableServer::open(config(), &dir, &out_path, 7, 1_000).expect("reopen");
        assert!(matches!(
            server.serve(&events[..events.len() / 2]),
            Err(UntangleError::InvalidConfig(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_snapshot_slot_is_refused_not_reset() {
        let events = fixture();
        let dir = fresh_dir("slotdamage");
        let out_path = dir.join("out.jsonl");
        {
            let (mut server, _) =
                DurableServer::open(config(), &dir, &out_path, 7, 10).expect("open");
            server.serve(&events).expect("serve");
        }
        let slot_path = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&slot_path).expect("read slot");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&slot_path, &bytes).expect("damage slot");
        let err = DurableServer::open(config(), &dir, &out_path, 7, 10)
            .expect_err("damaged slot must refuse");
        assert!(
            err.to_string()
                .contains("refusing to restart tenant budgets"),
            "unexpected error: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn midlog_wal_damage_recovers_fail_closed_without_undercounting() {
        let events = fixture();
        let n_admits = events
            .iter()
            .filter(|e| matches!(e, Event::Admit(_)))
            .count();
        // Chunk A: all admits plus one telemetry round; B and C: the
        // rest, journaled but never snapshotted.
        let split_a = n_admits + 6;
        let split_b = split_a + 6;

        let dir = fresh_dir("bitflip");
        let out_path = dir.join("out.jsonl");
        let (spending, out_after_a, leak_after_a) = {
            let (mut server, _) =
                DurableServer::open(config(), &dir, &out_path, 7, u64::MAX).expect("open");
            server.ingest_chunk(&events[..split_a]).expect("chunk A");
            server.snapshot().expect("snapshot after A");
            let out_after_a = std::fs::read(&out_path).expect("read out");
            let leak_after_a: Vec<(u64, f64)> = (0..n_admits as u64)
                .map(|d| (d, server.engine().leakage_of(d).expect("live").total_bits))
                .collect();
            server
                .ingest_chunk(&events[split_a..split_b])
                .expect("chunk B");
            server
                .ingest_chunk(&events[split_b..split_b + 6])
                .expect("chunk C");
            let spending = (0..n_admits as u64)
                .filter(|&d| {
                    events.iter().any(|e| {
                        matches!(e, Event::Admit(a)
                            if a.domain == d && a.scheme != crate::event::ServeScheme::Static)
                    })
                })
                .count();
            (spending, out_after_a, leak_after_a)
            // Dropped without a final snapshot: the journal holds B + C.
        };

        // Flip one bit inside the first journaled record's payload:
        // checksum verification truncates the whole B + C suffix even
        // though its decisions are already durably in the output log.
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).expect("read wal");
        assert!(bytes.len() > 24, "journal must hold records");
        bytes[20] ^= 0x01;
        std::fs::write(&wal_path, &bytes).expect("flip bit");

        let (server, recovery) =
            DurableServer::open(config(), &dir, &out_path, 7, u64::MAX).expect("recover");
        assert_eq!(
            recovery.fail_closed_domains, spending,
            "every live budget-spending domain must be charged"
        );
        assert_eq!(recovery.replayed, 0, "the damaged journal yields no replay");
        // The stream on disk is rewound to the reproducible prefix.
        assert_eq!(std::fs::read(&out_path).expect("read out"), out_after_a);
        // Budgets never under-count: every spending domain carries the
        // conventional worst-case charge on top of its snapshot state;
        // Static domains are untouched.
        let worst = SchemeParams::conventional_bits_per_assessment();
        for (d, before) in leak_after_a {
            let after = server.engine().leakage_of(d).expect("live").total_bits;
            let is_static = events.iter().any(|e| {
                matches!(e, Event::Admit(a)
                    if a.domain == d && a.scheme == crate::event::ServeScheme::Static)
            });
            if is_static {
                assert_eq!(after, before, "static domain {d} must not be charged");
            } else {
                assert!(
                    (after - (before + worst)).abs() < 1e-12,
                    "domain {d}: expected {} + {worst}, got {after}",
                    before
                );
            }
        }
        drop(server);

        // The daemon continues after the fail-closed recovery: the
        // stream stays well-formed JSON and total accounted leakage is
        // at least the undamaged run's (never under-counted).
        let (mut server, _) =
            DurableServer::open(config(), &dir, &out_path, 7, u64::MAX).expect("reopen");
        server.serve(&events).expect("continue serving");
        let text = std::fs::read_to_string(&out_path).expect("read out");
        for line in text.lines() {
            Json::parse(line).unwrap_or_else(|e| panic!("malformed output line {line:?}: {e}"));
        }
        let mut clean = ServeEngine::new(config()).expect("engine");
        let _ = clean.ingest_all(&events, 7).expect("clean run");
        let leak_of = |text: &str, d: u64| -> f64 {
            text.lines()
                .filter_map(|l| {
                    let j = Json::parse(l).ok()?;
                    (j.get("type").and_then(Json::as_str) == Some("retired")
                        && j.get("domain").and_then(Json::as_i64) == Some(d as i64))
                    .then(|| j.get("leak_bits").and_then(Json::as_f64))?
                })
                .next_back()
                .expect("domain retired")
        };
        let clean_text = clean_output(&events);
        for d in 0..n_admits as u64 {
            assert!(
                leak_of(&text, d) >= leak_of(&clean_text, d) - 1e-12,
                "domain {d} under-counted after fail-closed recovery"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_batch_of_an_unapplied_chunk_replays_its_whole_records() {
        let events = fixture();
        let (split, chunk) = (14, 7);
        let dir = fresh_dir("tornbatch");
        let out_path = dir.join("out.jsonl");
        {
            let (mut server, _) =
                DurableServer::open(config(), &dir, &out_path, chunk, u64::MAX).expect("open");
            server.ingest_chunk(&events[..split]).expect("chunk A");
            server.snapshot().expect("snapshot after A");
            let out_after_a = std::fs::read(&out_path).expect("read out");
            server
                .ingest_chunk(&events[split..split + chunk])
                .expect("chunk B");
            drop(server);
            // A crash after B's journal batch and before B applied: the
            // output log never saw B's lines.
            std::fs::write(&out_path, out_after_a).expect("rewind out");
        }

        // Cut the journal five bytes into B's fourth frame: three whole
        // records and a torn tail survive.
        let wal_path = dir.join(WAL_FILE);
        let mut reader = FrameReader::open(&wal_path).expect("frame open");
        let mut ends = Vec::new();
        let mut frame = Vec::new();
        while reader.next_frame(&mut frame).expect("frame") {
            ends.push(reader.offset());
        }
        assert_eq!(ends.len(), chunk, "the journal holds B's batch alone");
        let whole = 3;
        let bytes = std::fs::read(&wal_path).expect("read wal");
        std::fs::write(&wal_path, &bytes[..ends[whole - 1] as usize + 5]).expect("cut wal");

        let (mut server, recovery) =
            DurableServer::open(config(), &dir, &out_path, chunk, u64::MAX).expect("recover");
        assert_eq!(recovery.snapshotted, split as u64);
        assert_eq!(recovery.replayed, whole);
        assert_eq!(recovery.fail_closed_domains, 0);
        server.serve(&events).expect("finish serving");
        drop(server);
        assert_eq!(
            std::fs::read_to_string(&out_path).expect("read out"),
            clean_output(&events),
            "the finished stream must match the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn clean_output(events: &[Event]) -> String {
        let mut engine = ServeEngine::new(config()).expect("engine");
        let lines = engine.ingest_all(events, 7).expect("ingest");
        lines.join("\n") + "\n"
    }
}
