//! Property-style WAL recovery coverage (ISSUE 8 satellite):
//!
//! * any byte-level prefix truncation recovers to the longest valid
//!   prefix of records;
//! * a torn final record is dropped, earlier records survive;
//! * a single bit flip anywhere in the tail record's frame drops at
//!   most that record — never yields a record that was not written;
//! * replay after recovery is deterministic: recover-recover yields
//!   identical records and a byte-identical file;
//! * a batch is framed exactly like the same records appended one at a
//!   time, and a batch that fails its cap check or holds no records
//!   makes no durable write.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use untangle_durable::fault::durable_writes;
use untangle_durable::wal::Wal;

/// The durable-write counter is process-wide: every test here holds
/// this lock, so a test that checks the counter sees only its own
/// writes.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "untangle-wal-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Writes `payloads` through the real append path and returns the raw
/// file image plus the frame end offsets.
fn build_wal(dir: &Path, payloads: &[Vec<u8>]) -> (PathBuf, Vec<u8>, Vec<usize>) {
    let path = dir.join("log.wal");
    let _ = std::fs::remove_file(&path);
    let mut ends = Vec::new();
    {
        let (mut wal, rec) = Wal::open(&path).expect("open fresh");
        assert!(rec.records.is_empty());
        for p in payloads {
            wal.append(p).expect("append");
            ends.push(std::fs::metadata(&path).expect("meta").len() as usize);
        }
    }
    let image = std::fs::read(&path).expect("read image");
    assert_eq!(*ends.last().expect("non-empty"), image.len());
    (path, image, ends)
}

/// Writes `payloads` through one [`Wal::append_batch`] and returns what
/// [`build_wal`] returns, the frame ends computed from the frame layout
/// (a 12-byte header before each payload).
fn build_wal_batched(dir: &Path, payloads: &[Vec<u8>]) -> (PathBuf, Vec<u8>, Vec<usize>) {
    let path = dir.join("batched.wal");
    let _ = std::fs::remove_file(&path);
    {
        let (mut wal, rec) = Wal::open(&path).expect("open fresh");
        assert!(rec.records.is_empty());
        wal.append_batch(payloads).expect("append batch");
    }
    let ends = payloads
        .iter()
        .scan(0, |end, p| {
            *end += 12 + p.len();
            Some(*end)
        })
        .collect();
    let image = std::fs::read(&path).expect("read image");
    (path, image, ends)
}

fn payloads() -> Vec<Vec<u8>> {
    // Varied lengths, including empty and newline-bearing payloads.
    vec![
        b"".to_vec(),
        b"a".to_vec(),
        b"{\"ev\":\"admit\",\"domain\":3}".to_vec(),
        vec![0u8; 37],
        (0..=255u8).collect(),
    ]
}

/// The number of complete records entirely contained in `len` bytes.
fn records_within(ends: &[usize], len: usize) -> usize {
    ends.iter().take_while(|&&e| e <= len).count()
}

#[test]
fn every_prefix_truncation_recovers_the_longest_valid_prefix() {
    let _serial = serial();
    let dir = temp_dir("prefix");
    let payloads = payloads();
    for (path, image, ends) in [
        build_wal(&dir, &payloads),
        build_wal_batched(&dir, &payloads),
    ] {
        assert_eq!(*ends.last().expect("non-empty"), image.len());
        every_prefix_recovers(&path, &image, &ends, &payloads);
    }
}

fn every_prefix_recovers(path: &Path, image: &[u8], ends: &[usize], payloads: &[Vec<u8>]) {
    for keep in 0..=image.len() {
        std::fs::write(path, &image[..keep]).expect("truncate");
        let (_, rec) = Wal::open(path).expect("recover");
        let expect = records_within(ends, keep);
        assert_eq!(
            rec.records,
            payloads[..expect].to_vec(),
            "prefix of {keep} bytes must recover exactly {expect} records"
        );
        let boundary = ends[..expect].last().copied().unwrap_or(0);
        assert_eq!(rec.torn_tail_bytes as usize, keep - boundary);
        assert_eq!(
            std::fs::metadata(path).expect("meta").len() as usize,
            boundary,
            "file must be truncated to the last record boundary"
        );
    }
}

#[test]
fn a_batch_writes_the_bytes_of_one_append_per_record() {
    let _serial = serial();
    let dir = temp_dir("batch-bytes");
    let payloads = payloads();
    let (_, single, single_ends) = build_wal(&dir, &payloads);
    let before = durable_writes();
    let (path, batched, batched_ends) = build_wal_batched(&dir, &payloads);
    assert_eq!(durable_writes() - before, 1, "a batch is one durable write");
    assert_eq!(batched, single);
    assert_eq!(batched_ends, single_ends);
    let (_, rec) = Wal::open(&path).expect("reopen");
    assert_eq!(rec.records, payloads);
}

#[test]
fn an_oversized_payload_anywhere_in_a_batch_writes_nothing() {
    let _serial = serial();
    let dir = temp_dir("batch-oversized");
    let path = dir.join("log.wal");
    let (mut wal, _) = Wal::open(&path).expect("open");
    wal.append(b"kept").expect("append");
    let len = std::fs::metadata(&path).expect("meta").len();
    // One byte over the 1 GiB record cap. Zeroed, so the allocation
    // stays virtual unless the payload is read.
    let huge = vec![0u8; (1 << 30) + 1];
    let before = durable_writes();
    for batch in [
        vec![&huge[..], b"a"],
        vec![b"a", &huge[..]],
        vec![b"a", &huge[..], b"b"],
    ] {
        let e = wal.append_batch(&batch).expect_err("over the cap");
        assert_eq!(e.op, "wal_append");
        assert!(e.reason.contains("cap"), "{e}");
    }
    assert_eq!(durable_writes(), before, "a refused batch makes no write");
    assert_eq!(std::fs::metadata(&path).expect("meta").len(), len);
    drop(wal);
    let (_, rec) = Wal::open(&path).expect("reopen");
    assert_eq!(rec.records, vec![b"kept".to_vec()]);
}

#[test]
fn an_empty_batch_makes_no_durable_write() {
    let _serial = serial();
    let dir = temp_dir("batch-empty");
    let path = dir.join("log.wal");
    let (mut wal, _) = Wal::open(&path).expect("open");
    wal.append(b"kept").expect("append");
    let len = std::fs::metadata(&path).expect("meta").len();
    let before = durable_writes();
    wal.append_batch::<&[u8]>(&[]).expect("empty batch");
    assert_eq!(durable_writes(), before);
    assert_eq!(std::fs::metadata(&path).expect("meta").len(), len);
}

#[test]
fn single_bit_flips_in_the_tail_never_fabricate_records() {
    let _serial = serial();
    let dir = temp_dir("bitflip");
    let payloads = payloads();
    let (path, image, ends) = build_wal(&dir, &payloads);
    let tail_start = ends[ends.len() - 2];
    for byte in tail_start..image.len() {
        for bit in 0..8 {
            let mut damaged = image.clone();
            damaged[byte] ^= 1 << bit;
            std::fs::write(&path, &damaged).expect("plant");
            let (_, rec) = Wal::open(&path).expect("recover");
            // The flip is confined to the final record's frame: every
            // earlier record must survive intact, and the final record
            // either verifies as exactly what was written (a flip that
            // the checksum happens to... never, with distinct bytes) or
            // is dropped. Under no circumstances may a record differ
            // from what was appended.
            assert!(
                rec.records.len() >= ends.len() - 1 && rec.records.len() <= ends.len(),
                "byte {byte} bit {bit}: {} records",
                rec.records.len()
            );
            for (i, r) in rec.records.iter().enumerate() {
                assert_eq!(
                    r, &payloads[i],
                    "byte {byte} bit {bit}: record {i} must match what was written"
                );
            }
            if rec.records.len() == ends.len() {
                // The flip verified — only possible if it produced the
                // identical frame, i.e. it did not actually change the
                // accepted record.
                assert_eq!(rec.records.last().expect("tail"), &payloads[ends.len() - 1]);
            }
        }
    }
}

#[test]
fn recovery_then_replay_is_deterministic() {
    let _serial = serial();
    let dir = temp_dir("determinism");
    let payloads = payloads();
    let (path, image, _) = build_wal(&dir, &payloads);
    // Damage: torn tail (half the final frame) plus a flipped bit in it.
    let cut = image.len() - 7;
    let mut damaged = image[..cut].to_vec();
    let at = damaged.len() - 1;
    damaged[at] ^= 0x10;
    std::fs::write(&path, &damaged).expect("plant");

    let (_, first) = Wal::open(&path).expect("first recovery");
    let first_image = std::fs::read(&path).expect("read");
    let (_, second) = Wal::open(&path).expect("second recovery");
    let second_image = std::fs::read(&path).expect("read");

    assert_eq!(
        first.records, second.records,
        "replay must be deterministic"
    );
    assert_eq!(first_image, second_image, "recovery must be idempotent");
    assert!(!second.torn(), "second open sees a clean log");
}
