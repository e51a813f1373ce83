//! An append-only, crash-recoverable text log of complete lines.
//!
//! The serve daemon's durable output stream: every append is a batch of
//! `\n`-terminated lines followed by `sync_all`, so the file on disk is
//! always a durable prefix of the logical stream plus at most one torn
//! final line. [`LineLog::open`] recovers by truncating to the last
//! complete line; [`LineLog::truncate_to`] lets a recovery protocol
//! rewind further (to a snapshot's recorded offset) before re-emitting
//! deterministically replayed lines.

use std::fs::OpenOptions;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use crate::fault::{self, Injected};
use crate::DurableError;

/// Bytes [`LineLog::open`] reads per step of its backward scan for the
/// last `\n`: recovery holds one chunk whatever the log's length.
const SCAN_CHUNK: u64 = 8 << 10;

/// An open line log positioned for appending.
#[derive(Debug)]
pub struct LineLog {
    file: std::fs::File,
    path: PathBuf,
    bytes: u64,
}

impl LineLog {
    /// Opens (creating if missing) the log, truncating any torn final
    /// line. Returns the log and the recovered length in bytes — the
    /// durable prefix of complete lines. The last `\n` is found by a
    /// backward scan that holds one fixed-size chunk, whatever the
    /// log's length.
    ///
    /// # Errors
    ///
    /// [`DurableError`] with `op = "linelog_open"` on IO failure.
    pub fn open(path: &Path) -> Result<(LineLog, u64), DurableError> {
        let err = |reason: &dyn std::fmt::Display| DurableError::new(path, "linelog_open", reason);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| err(&e))?;
        let len = file.metadata().map_err(|e| err(&e))?.len();
        let complete = complete_prefix(&mut file, len).map_err(|e| err(&e))?;
        if complete < len {
            file.set_len(complete).map_err(|e| err(&e))?;
            file.sync_all().map_err(|e| err(&e))?;
        }
        file.seek(SeekFrom::Start(complete)).map_err(|e| err(&e))?;
        Ok((
            LineLog {
                file,
                path: path.to_path_buf(),
                bytes: complete,
            },
            complete,
        ))
    }

    /// Current durable length in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Rewinds the log to `bytes` (a recovery protocol's trusted
    /// offset, e.g. a snapshot's recorded output length).
    ///
    /// # Errors
    ///
    /// [`DurableError`] with `op = "linelog_truncate"` if `bytes`
    /// exceeds the current length or on IO failure.
    pub fn truncate_to(&mut self, bytes: u64) -> Result<(), DurableError> {
        let err = |reason: &dyn std::fmt::Display| {
            DurableError::new(&self.path, "linelog_truncate", reason)
        };
        if bytes > self.bytes {
            return Err(err(&format!(
                "cannot truncate to {bytes} bytes: log holds only {}",
                self.bytes
            )));
        }
        self.file.set_len(bytes).map_err(|e| err(&e))?;
        self.file.sync_all().map_err(|e| err(&e))?;
        self.file
            .seek(SeekFrom::Start(bytes))
            .map_err(|e| err(&e))?;
        self.bytes = bytes;
        Ok(())
    }

    /// Appends `lines` (each gains a trailing `\n`) as one durable
    /// write and syncs. `torn_write` persists a prefix of the batch —
    /// possibly mid-line — and aborts; recovery truncates back to the
    /// last complete line.
    ///
    /// # Errors
    ///
    /// [`DurableError`] with `op = "linelog_append"` on IO failure.
    pub fn append_lines<S: AsRef<str>>(&mut self, lines: &[S]) -> Result<(), DurableError> {
        if lines.is_empty() {
            return Ok(());
        }
        let err = |reason: &dyn std::fmt::Display| {
            DurableError::new(&self.path, "linelog_append", reason)
        };
        let mut buf = String::new();
        for line in lines {
            buf.push_str(line.as_ref());
            buf.push('\n');
        }
        let injected = fault::before_write(buf.len());
        if let Injected::Torn { keep } = injected {
            let _ = self.file.write_all(&buf.as_bytes()[..keep]);
            let _ = self.file.sync_all();
            fault::abort_torn(keep);
        }
        self.file.write_all(buf.as_bytes()).map_err(|e| err(&e))?;
        self.file.sync_all().map_err(|e| err(&e))?;
        self.bytes += buf.len() as u64;
        Ok(())
    }
}

/// The length of the longest prefix of the `len`-byte `file` that ends
/// in `\n` (0 if none does), found by reading backwards from the end
/// one [`SCAN_CHUNK`] at a time.
fn complete_prefix(file: &mut std::fs::File, len: u64) -> std::io::Result<u64> {
    let mut chunk = vec![0u8; SCAN_CHUNK.min(len) as usize];
    let mut end = len;
    while end > 0 {
        let start = end.saturating_sub(SCAN_CHUNK);
        let window = &mut chunk[..(end - start) as usize];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(window)?;
        if let Some(pos) = window.iter().rposition(|&b| b == b'\n') {
            return Ok(start + pos as u64 + 1);
        }
        end = start;
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "untangle-durable-linelog-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join("out.jsonl")
    }

    #[test]
    fn append_and_reopen() {
        let path = temp_log("roundtrip");
        {
            let (mut log, recovered) = LineLog::open(&path).expect("open");
            assert_eq!(recovered, 0);
            log.append_lines(&["one", "two"]).expect("append");
        }
        let (log, recovered) = LineLog::open(&path).expect("reopen");
        assert_eq!(recovered, 8);
        assert_eq!(log.bytes(), 8);
        assert_eq!(std::fs::read(&path).expect("read"), b"one\ntwo\n");
    }

    #[test]
    fn torn_final_line_is_truncated() {
        let path = temp_log("torn");
        {
            let (mut log, _) = LineLog::open(&path).expect("open");
            log.append_lines(&["complete"]).expect("append");
        }
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(b"torn partial li");
        std::fs::write(&path, &bytes).expect("plant");
        let (mut log, recovered) = LineLog::open(&path).expect("recover");
        assert_eq!(recovered, 9);
        log.append_lines(&["next"]).expect("append after recovery");
        assert_eq!(std::fs::read(&path).expect("read"), b"complete\nnext\n");
    }

    #[test]
    fn a_log_without_a_newline_truncates_to_zero() {
        let path = temp_log("no-newline");
        std::fs::write(&path, b"torn first line, never completed").expect("plant");
        let (mut log, recovered) = LineLog::open(&path).expect("recover");
        assert_eq!(recovered, 0);
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), 0);
        log.append_lines(&["first"]).expect("append after recovery");
        assert_eq!(std::fs::read(&path).expect("read"), b"first\n");
    }

    #[test]
    fn the_last_newline_is_found_several_chunks_from_the_end() {
        let path = temp_log("far-newline");
        // Whole lines spanning more than one chunk, then a torn tail
        // without a newline three and a half chunks long.
        let line = "x".repeat(999);
        let mut bytes = Vec::new();
        while bytes.len() as u64 <= 2 * SCAN_CHUNK {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        let complete = bytes.len() as u64;
        bytes.resize(bytes.len() + (7 * SCAN_CHUNK / 2) as usize, b'y');
        std::fs::write(&path, &bytes).expect("plant");

        let (log, recovered) = LineLog::open(&path).expect("recover");
        assert_eq!(recovered, complete);
        assert_eq!(log.bytes(), complete);
        assert_eq!(
            std::fs::read(&path).expect("read"),
            &bytes[..complete as usize]
        );
        // A clean log reopens to its full length.
        drop(log);
        assert_eq!(LineLog::open(&path).expect("reopen").1, complete);
    }

    #[test]
    fn truncate_to_rewinds_for_rewrite() {
        let path = temp_log("rewind");
        let (mut log, _) = LineLog::open(&path).expect("open");
        log.append_lines(&["keep", "rewritten"]).expect("append");
        log.truncate_to(5).expect("rewind past the second line");
        log.append_lines(&["replay"]).expect("rewrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"keep\nreplay\n");
        assert!(log.truncate_to(1_000).is_err(), "cannot truncate forward");
    }
}
