//! The checksummed append-only write-ahead log.
//!
//! # Record format
//!
//! ```text
//! ┌────────────┬────────────────┬──────────────┐
//! │ len u32 LE │ fnv1a(payload) │ payload      │
//! │            │ u64 LE         │ (len bytes)  │
//! └────────────┴────────────────┴──────────────┘
//! ```
//!
//! [`Wal::append_batch`] is group commit: it frames every record of
//! the batch into one buffer, writes it with one `write_all` and calls
//! `sync_all` once, so every record of a batch that returned is
//! durable. [`Wal::append`] is the one-record batch. Frame bytes do not
//! depend on how records were batched. A crash mid-batch leaves whole
//! frames followed by a *torn tail*: a short header, a short payload,
//! or a payload whose checksum does not match. [`Wal::open`] scans
//! frames from the start and recovers the longest valid prefix — the
//! torn tail is detected, counted (`durable.torn_tails_truncated`), and
//! physically truncated so the log is append-ready again. A bit flip
//! in a record's frame fails its checksum and truncates the log at
//! that record; bytes before it are untouched. Recovery is idempotent:
//! reopening a recovered log yields the same records and truncates
//! nothing.

use std::fs::OpenOptions;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use untangle_obs as obs;

use crate::fault::{self, Injected};
use crate::{fnv1a, DurableError};

/// Frame header size: `u32` length + `u64` checksum.
const HEADER: usize = 4 + 8;

/// Sanity cap on a single record (1 GiB): a corrupt length field must
/// not turn recovery into a huge allocation.
const MAX_RECORD: u32 = 1 << 30;

/// What [`Wal::open`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalRecovery {
    /// The recovered records, oldest first.
    pub records: Vec<Vec<u8>>,
    /// Bytes of torn tail truncated after the last valid record (0 for
    /// a clean log). A non-zero value means a write was interrupted:
    /// consumers whose safety depends on *not under-counting* what the
    /// tail might have recorded must treat it as ambiguous and recover
    /// fail-closed.
    pub torn_tail_bytes: u64,
}

impl WalRecovery {
    /// Whether the log ended in a detected torn write.
    pub fn torn(&self) -> bool {
        self.torn_tail_bytes > 0
    }
}

/// An open write-ahead log positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: std::fs::File,
    path: PathBuf,
}

impl Wal {
    /// Opens (creating if missing) the log at `path`, recovering the
    /// longest valid prefix of records and truncating any torn tail.
    ///
    /// # Errors
    ///
    /// [`DurableError`] with `op = "wal_open"` on IO failure.
    pub fn open(path: &Path) -> Result<(Wal, WalRecovery), DurableError> {
        let mut records = Vec::new();
        let (wal, torn_tail_bytes) = Wal::recover(path, |record| records.push(record.to_vec()))?;
        Ok((
            wal,
            WalRecovery {
                records,
                torn_tail_bytes,
            },
        ))
    }

    /// [`Wal::open`] without collecting the records: hands each
    /// recovered record to `visit`, oldest first, holding one frame in
    /// memory whatever the log's length. Returns the log, positioned
    /// for appending, and the torn-tail bytes truncated (see
    /// [`WalRecovery::torn_tail_bytes`]).
    ///
    /// Only a torn or corrupt frame ends the scan, as the truncation
    /// point; an IO error fails the open.
    ///
    /// # Errors
    ///
    /// [`DurableError`] with `op = "wal_open"` on IO failure.
    pub fn recover(path: &Path, mut visit: impl FnMut(&[u8])) -> Result<(Wal, u64), DurableError> {
        let err = |reason: &dyn std::fmt::Display| DurableError::new(path, "wal_open", reason);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| err(&e))?;
        let mut reader = FrameReader::from_file(file, path).map_err(|e| err(&e.reason))?;
        let mut frame = Vec::new();
        while let Scan::Frame = reader.scan(&mut frame).map_err(|e| err(&e.reason))? {
            visit(&frame);
        }

        let valid_end = reader.offset;
        let file_len = reader.len;
        let mut file = reader.file.into_inner();
        let torn_tail_bytes = file_len - valid_end;
        if torn_tail_bytes > 0 {
            file.set_len(valid_end).map_err(|e| err(&e))?;
            file.sync_all().map_err(|e| err(&e))?;
            obs::counter_add("durable.torn_tails_truncated", 1);
        }
        if file_len > 0 {
            obs::counter_add("durable.recoveries", 1);
        }
        file.seek(SeekFrom::Start(valid_end)).map_err(|e| err(&e))?;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
            },
            torn_tail_bytes,
        ))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and syncs it to disk: the one-record
    /// [`Wal::append_batch`].
    ///
    /// # Errors
    ///
    /// As [`Wal::append_batch`].
    pub fn append(&mut self, payload: &[u8]) -> Result<(), DurableError> {
        self.append_batch(&[payload])
    }

    /// Appends `payloads` as one batch: their frames go out in one
    /// `write_all` followed by one `sync_all`, and the batch is one
    /// durable write for fault-injection purposes — `torn_write`
    /// persists a prefix of the whole batch (and syncs it, so recovery
    /// really sees whole frames plus a torn tail) before aborting.
    /// Every payload is checked against the record cap before a byte is
    /// written; an empty batch writes nothing.
    ///
    /// # Errors
    ///
    /// [`DurableError`] with `op = "wal_append"` if a payload exceeds
    /// the record cap, or on IO failure.
    pub fn append_batch<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> Result<(), DurableError> {
        let err =
            |reason: &dyn std::fmt::Display| DurableError::new(&self.path, "wal_append", reason);
        if payloads.is_empty() {
            return Ok(());
        }
        let mut bytes = 0usize;
        for (k, payload) in payloads.iter().enumerate() {
            let len = payload.as_ref().len();
            if len as u64 > MAX_RECORD as u64 {
                return Err(err(&format!(
                    "record {k} of the batch holds {len} bytes, over the {MAX_RECORD}-byte cap"
                )));
            }
            bytes += HEADER + len;
        }
        let mut frames = Vec::with_capacity(bytes);
        for payload in payloads {
            let payload = payload.as_ref();
            frames.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frames.extend_from_slice(&fnv1a(payload).to_le_bytes());
            frames.extend_from_slice(payload);
        }

        let injected = fault::before_write(frames.len());
        if let Injected::Torn { keep } = injected {
            let _ = self.file.write_all(&frames[..keep]);
            let _ = self.file.sync_all();
            fault::abort_torn(keep);
        }
        self.file.write_all(&frames).map_err(|e| err(&e))?;
        self.file.sync_all().map_err(|e| err(&e))?;
        obs::counter_add("durable.wal_appends", payloads.len() as u64);
        obs::counter_add("durable.wal_syncs", 1);
        Ok(())
    }

    /// Empties the log — snapshot compaction: once a snapshot durably
    /// covers every applied record, the log restarts from zero. Not a
    /// durable "write" for fault-injection purposes (a crash before,
    /// during, or after a truncation is indistinguishable from one
    /// around it: records are self-describing, so replay skips any that
    /// a surviving snapshot already covers).
    ///
    /// # Errors
    ///
    /// [`DurableError`] with `op = "wal_reset"` on IO failure.
    pub fn reset(&mut self) -> Result<(), DurableError> {
        let err =
            |reason: &dyn std::fmt::Display| DurableError::new(&self.path, "wal_reset", reason);
        self.file.set_len(0).map_err(|e| err(&e))?;
        self.file.seek(SeekFrom::Start(0)).map_err(|e| err(&e))?;
        self.file.sync_all().map_err(|e| err(&e))?;
        Ok(())
    }
}

/// What one step of a frame scan found.
enum Scan {
    /// A whole frame whose payload passed its checksum.
    Frame,
    /// A clean end of file.
    End,
    /// A torn or corrupt frame: recovery's truncation point, a strict
    /// reader's error.
    Bad(String),
}

/// A read-only streaming scan over a WAL-framed file: the one frame
/// parser behind [`Wal::recover`] and every framed-file reader.
///
/// It reads one frame at a time into a caller-owned buffer, validating
/// each checksum as it goes, and supports random access by frame
/// offset so a reader can jump straight to a known frame (trace slice
/// replay). Memory stays at one frame whatever the file's length.
///
/// Unlike recovery, a scan through the public methods is *strict*: any
/// torn or corrupt frame is an error, not a truncation point — readers
/// only consume files whose writer finished them, so a bad frame means
/// corruption, not a crash mid-append.
#[derive(Debug)]
pub struct FrameReader {
    file: std::io::BufReader<std::fs::File>,
    path: PathBuf,
    /// Byte offset of the next frame to be read.
    offset: u64,
    len: u64,
}

impl FrameReader {
    /// Opens `path` for streaming frame reads.
    ///
    /// # Errors
    ///
    /// [`DurableError`] with `op = "frame_open"` on IO failure.
    pub fn open(path: &Path) -> Result<Self, DurableError> {
        let file = OpenOptions::new()
            .read(true)
            .open(path)
            .map_err(|e| DurableError::new(path, "frame_open", e))?;
        Self::from_file(file, path)
    }

    fn from_file(file: std::fs::File, path: &Path) -> Result<Self, DurableError> {
        let len = file
            .metadata()
            .map_err(|e| DurableError::new(path, "frame_open", e))?
            .len();
        Ok(Self {
            file: std::io::BufReader::new(file),
            path: path.to_path_buf(),
            offset: 0,
            len,
        })
    }

    /// Byte offset of the next frame [`FrameReader::next_frame`] will
    /// return — capture it *before* the read to index that frame for
    /// later [`FrameReader::read_frame_at`] access.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.len
    }

    /// Reads the frame at the cursor into `payload`, advancing the
    /// cursor past it only when it is whole. An IO failure is an
    /// error; a torn or corrupt frame is [`Scan::Bad`].
    fn scan(&mut self, payload: &mut Vec<u8>) -> Result<Scan, DurableError> {
        if self.offset == self.len {
            return Ok(Scan::End);
        }
        let at = self.offset;
        let io = |what: &str, e: std::io::Error| {
            DurableError::new(
                &self.path,
                "frame_read",
                format!("{what} at offset {at}: {e}"),
            )
        };
        if self.len - at < HEADER as u64 {
            return Ok(Scan::Bad(format!(
                "short frame header at offset {at}: {} bytes left",
                self.len - at
            )));
        }
        let mut head = [0u8; HEADER];
        self.file
            .read_exact(&mut head)
            .map_err(|e| io("header", e))?;
        let payload_len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
        if payload_len > MAX_RECORD {
            return Ok(Scan::Bad(format!(
                "frame at offset {at} declares {payload_len} bytes, over the {MAX_RECORD}-byte cap"
            )));
        }
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&head[4..]);
        let sum = u64::from_le_bytes(sum);
        let left = self.len - at - HEADER as u64;
        if left < u64::from(payload_len) {
            return Ok(Scan::Bad(format!(
                "frame at offset {at} truncated: {payload_len} payload bytes declared, {left} left"
            )));
        }
        // Bounded by the file length just checked, not by the header.
        payload.clear();
        payload.resize(payload_len as usize, 0);
        self.file
            .read_exact(payload)
            .map_err(|e| io("payload", e))?;
        if fnv1a(payload) != sum {
            return Ok(Scan::Bad(format!(
                "checksum mismatch in frame at offset {at}"
            )));
        }
        self.offset = at + HEADER as u64 + u64::from(payload_len);
        Ok(Scan::Frame)
    }

    /// Reads the next frame into `payload` (replacing its contents);
    /// `false` at a clean end of file.
    ///
    /// # Errors
    ///
    /// [`DurableError`] with `op = "frame_read"` on IO failure, if the
    /// file ends mid-frame, a length field exceeds the record cap, or
    /// a payload fails its checksum.
    pub fn next_frame(&mut self, payload: &mut Vec<u8>) -> Result<bool, DurableError> {
        match self.scan(payload)? {
            Scan::Frame => Ok(true),
            Scan::End => Ok(false),
            Scan::Bad(reason) => Err(DurableError::new(&self.path, "frame_read", reason)),
        }
    }

    /// Random access: reads the single frame starting at byte `offset`
    /// into `payload`.
    ///
    /// # Errors
    ///
    /// As [`FrameReader::next_frame`], plus `op = "frame_read"` if
    /// `offset` does not start a valid frame.
    pub fn read_frame_at(
        &mut self,
        offset: u64,
        payload: &mut Vec<u8>,
    ) -> Result<(), DurableError> {
        self.file.seek(SeekFrom::Start(offset)).map_err(|e| {
            DurableError::new(&self.path, "frame_read", format!("seek to {offset}: {e}"))
        })?;
        self.offset = offset;
        if self.next_frame(payload)? {
            Ok(())
        } else {
            Err(DurableError::new(
                &self.path,
                "frame_read",
                format!("no frame at offset {offset} (end of file)"),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_wal(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("untangle-durable-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join("log.wal")
    }

    fn records(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("record {i} payload {}", "x".repeat(i % 7)).into_bytes())
            .collect()
    }

    #[test]
    fn append_then_reopen_replays_all_records() {
        let path = temp_wal("roundtrip");
        let recs = records(5);
        {
            let (mut wal, rec) = Wal::open(&path).expect("open fresh");
            assert!(rec.records.is_empty());
            assert!(!rec.torn());
            for r in &recs {
                wal.append(r).expect("append");
            }
        }
        let (_, rec) = Wal::open(&path).expect("reopen");
        assert_eq!(rec.records, recs);
        assert!(!rec.torn());
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_kept() {
        let path = temp_wal("torn");
        let recs = records(3);
        {
            let (mut wal, _) = Wal::open(&path).expect("open");
            for r in &recs {
                wal.append(r).expect("append");
            }
        }
        // Simulate a crash mid-append: half a frame of a fourth record.
        let mut bytes = std::fs::read(&path).expect("read");
        let clean_len = bytes.len();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 5]);
        std::fs::write(&path, &bytes).expect("plant torn tail");

        let (_, rec) = Wal::open(&path).expect("recover");
        assert_eq!(rec.records, recs);
        assert_eq!(rec.torn_tail_bytes, 9);
        assert_eq!(
            std::fs::metadata(&path).expect("meta").len(),
            clean_len as u64,
            "torn tail must be physically truncated"
        );
        // Idempotent: a second recovery finds a clean log.
        let (_, rec) = Wal::open(&path).expect("recover again");
        assert_eq!(rec.records, recs);
        assert!(!rec.torn());
    }

    #[test]
    fn recovered_log_accepts_new_appends() {
        let path = temp_wal("resume");
        {
            let (mut wal, _) = Wal::open(&path).expect("open");
            wal.append(b"first").expect("append");
        }
        // Torn garbage after the valid record.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&[1, 2, 3]);
        std::fs::write(&path, &bytes).expect("plant");
        {
            let (mut wal, rec) = Wal::open(&path).expect("recover");
            assert!(rec.torn());
            wal.append(b"second").expect("append after recovery");
        }
        let (_, rec) = Wal::open(&path).expect("final open");
        assert_eq!(rec.records, vec![b"first".to_vec(), b"second".to_vec()]);
    }

    #[test]
    fn insane_length_field_truncates_at_the_bad_record() {
        let path = temp_wal("badlen");
        {
            let (mut wal, _) = Wal::open(&path).expect("open");
            wal.append(b"good").expect("append");
        }
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 20]);
        std::fs::write(&path, &bytes).expect("plant");
        let (_, rec) = Wal::open(&path).expect("recover");
        assert_eq!(rec.records, vec![b"good".to_vec()]);
        assert!(rec.torn());
    }

    #[test]
    fn frame_reader_streams_what_wal_wrote() {
        let path = temp_wal("frame-stream");
        let recs = records(6);
        let (mut wal, _) = Wal::open(&path).expect("open");
        for r in &recs {
            wal.append(r).expect("append");
        }
        drop(wal);

        let mut reader = FrameReader::open(&path).expect("frame open");
        let mut offsets = Vec::new();
        let mut seen = Vec::new();
        let mut frame = Vec::new();
        while {
            offsets.push(reader.offset());
            reader.next_frame(&mut frame).expect("frame")
        } {
            seen.push(frame.clone());
        }
        assert_eq!(seen, recs);
        // Random access by captured offset, out of order.
        for k in [3, 0, 5] {
            reader.read_frame_at(offsets[k], &mut frame).expect("seek");
            assert_eq!(frame, recs[k], "frame {k}");
        }
    }

    #[test]
    fn frame_reader_rejects_torn_tail() {
        let path = temp_wal("frame-torn");
        let (mut wal, _) = Wal::open(&path).expect("open");
        wal.append(b"whole").expect("append");
        drop(wal);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&[9, 9, 9]);
        std::fs::write(&path, &bytes).expect("plant torn tail");

        let mut reader = FrameReader::open(&path).expect("frame open");
        let mut frame = Vec::new();
        assert!(reader.next_frame(&mut frame).expect("first"));
        assert_eq!(frame, b"whole");
        let e = reader
            .next_frame(&mut frame)
            .expect_err("torn tail must error");
        assert_eq!(e.op, "frame_read");
    }

    #[test]
    fn frame_reader_rejects_corrupt_checksum() {
        let path = temp_wal("frame-corrupt");
        let (mut wal, _) = Wal::open(&path).expect("open");
        wal.append(b"payload-bytes").expect("append");
        drop(wal);
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("flip bit");

        let mut reader = FrameReader::open(&path).expect("frame open");
        let e = reader
            .next_frame(&mut Vec::new())
            .expect_err("bit flip must error");
        assert!(e.reason.contains("checksum"), "{e}");
    }

    #[test]
    fn reset_empties_the_log() {
        let path = temp_wal("reset");
        let (mut wal, _) = Wal::open(&path).expect("open");
        wal.append(b"a").expect("append");
        wal.reset().expect("reset");
        wal.append(b"b").expect("append after reset");
        drop(wal);
        let (_, rec) = Wal::open(&path).expect("reopen");
        assert_eq!(rec.records, vec![b"b".to_vec()]);
    }
}
