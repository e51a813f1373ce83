//! The on-disk untangle-trace format.
//!
//! A trace file is a sequence of `untangle-durable` WAL frames
//! (`[len u32 LE][fnv1a(payload) u64 LE][payload]` — the same framing
//! and checksum discipline as every other durable artifact in the
//! workspace), holding three record kinds:
//!
//! ```text
//! header  "UTRC" + format version u32 LE + block_instrs u32 LE + meta (UTF-8)
//! block   'B' + n_instrs u32 LE + raw_len u32 LE + LZ77-compressed body
//! trailer 'E' + total_instrs u64 LE
//! ```
//!
//! The block body encodes one tag byte per instruction (mem/store/
//! secret_data/secret_ctrl bits) plus, for memory instructions, a
//! zigzag-varint *delta* of the cache-line index against the previous
//! memory access — blocks are self-contained (the delta chain restarts
//! at every block) so a reader can decode any block in isolation,
//! which slice replay depends on. Bodies are squeezed by the
//! hand-rolled [`pack`] compressor.
//!
//! # Crash-consistent generation
//!
//! [`TraceWriter`] appends whole blocks through [`Wal::append`], so
//! every block is durable (and fault-injectable via
//! `UNTANGLE_FAULT_INJECT`) and a kill mid-generation leaves a valid
//! prefix of blocks — [`TraceWriter::open`] reports how many
//! instructions are already on disk, the caller fast-forwards its
//! deterministic generator by that count and continues. Because block
//! boundaries are a pure function of the instruction stream, a resumed
//! file is byte-identical to an uninterrupted one. A file without its
//! trailer is *incomplete*: readers refuse it, writers resume it.
//!
//! [`FileSource`] streams a finished file block by block (validating
//! every frame checksum up front, holding only the index plus one
//! decoded block in memory) and exposes random access by instruction
//! offset for the SimPoint slice replay in
//! [`simpoint`](crate::simpoint).

use std::fmt;
use std::path::{Path, PathBuf};

use untangle_durable::wal::{FrameReader, Wal};
use untangle_durable::DurableError;
use untangle_obs as obs;

use crate::instr::{Annotations, Instr, InstrKind, LineAddr, MemAccess, MemKind};
use crate::pack;
use crate::source::TraceSource;

/// Magic bytes opening every trace-file header record.
pub const MAGIC: [u8; 4] = *b"UTRC";
/// On-disk format version; bump on any encoding change.
pub const FORMAT_VERSION: u32 = 1;
/// Default instructions per block: small enough for cheap slice seeks,
/// large enough that tag-byte streams compress well.
pub const DEFAULT_BLOCK_INSTRS: u32 = 4096;

const TAG_BLOCK: u8 = b'B';
const TAG_TRAILER: u8 = b'E';

const BIT_MEM: u8 = 1 << 0;
const BIT_STORE: u8 = 1 << 1;
const BIT_SECRET_DATA: u8 = 1 << 2;
const BIT_SECRET_CTRL: u8 = 1 << 3;

/// An error reading or writing a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFileError {
    /// The file involved.
    pub path: PathBuf,
    /// Short operation name (`"trace_open"`, `"trace_append"`, …).
    pub op: &'static str,
    /// Human-readable failure reason.
    pub reason: String,
}

impl TraceFileError {
    fn new(path: &Path, op: &'static str, reason: impl fmt::Display) -> Self {
        Self {
            path: path.to_path_buf(),
            op,
            reason: reason.to_string(),
        }
    }
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace {} {}: {}",
            self.op,
            self.path.display(),
            self.reason
        )
    }
}

impl std::error::Error for TraceFileError {}

impl From<DurableError> for TraceFileError {
    fn from(e: DurableError) -> Self {
        Self {
            path: e.path,
            op: "durable",
            reason: format!("{}: {}", e.op, e.reason),
        }
    }
}

/// Appends a u64 as a little-endian-group LEB128 varint.
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint at `*pos`, advancing it.
fn read_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Zigzag-encodes the wrapping line-index delta so small moves in
/// either direction stay short.
fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

fn unzigzag(zz: u64) -> i64 {
    ((zz >> 1) as i64) ^ -((zz & 1) as i64)
}

/// Encodes a block body: one tag byte per instruction, plus a
/// zigzag-varint line delta for memory instructions. The delta chain
/// starts from line 0 at every block.
fn encode_block(instrs: &[Instr]) -> Vec<u8> {
    let mut out = Vec::with_capacity(instrs.len() * 2);
    let mut prev_line = 0u64;
    for instr in instrs {
        let mut tag = 0u8;
        if instr.annotations.secret_data {
            tag |= BIT_SECRET_DATA;
        }
        if instr.annotations.secret_ctrl {
            tag |= BIT_SECRET_CTRL;
        }
        match instr.kind {
            InstrKind::Compute => out.push(tag),
            InstrKind::Mem(access) => {
                tag |= BIT_MEM;
                if access.kind == MemKind::Store {
                    tag |= BIT_STORE;
                }
                out.push(tag);
                let line = access.addr.line_index();
                push_varint(&mut out, zigzag(line.wrapping_sub(prev_line) as i64));
                prev_line = line;
            }
        }
    }
    out
}

/// Decodes a block body produced by [`encode_block`].
fn decode_block(body: &[u8], n_instrs: usize) -> Result<Vec<Instr>, String> {
    let mut instrs = Vec::with_capacity(n_instrs);
    let mut prev_line = 0u64;
    let mut pos = 0usize;
    for i in 0..n_instrs {
        let tag = *body
            .get(pos)
            .ok_or_else(|| format!("block body ends at instruction {i} of {n_instrs}"))?;
        pos += 1;
        if tag & !(BIT_MEM | BIT_STORE | BIT_SECRET_DATA | BIT_SECRET_CTRL) != 0 {
            return Err(format!("unknown tag bits {tag:#04x} at instruction {i}"));
        }
        let annotations = Annotations {
            secret_data: tag & BIT_SECRET_DATA != 0,
            secret_ctrl: tag & BIT_SECRET_CTRL != 0,
        };
        let kind = if tag & BIT_MEM != 0 {
            let zz = read_varint(body, &mut pos)
                .ok_or_else(|| format!("truncated address varint at instruction {i}"))?;
            let line = prev_line.wrapping_add(unzigzag(zz) as u64);
            prev_line = line;
            InstrKind::Mem(MemAccess {
                addr: LineAddr::new(line),
                kind: if tag & BIT_STORE != 0 {
                    MemKind::Store
                } else {
                    MemKind::Load
                },
            })
        } else {
            if tag & BIT_STORE != 0 {
                return Err(format!("store bit without mem bit at instruction {i}"));
            }
            InstrKind::Compute
        };
        instrs.push(Instr { kind, annotations });
    }
    if pos != body.len() {
        return Err(format!(
            "{} trailing bytes after {n_instrs} instructions",
            body.len() - pos
        ));
    }
    Ok(instrs)
}

fn header_payload(block_instrs: u32, meta: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + meta.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&block_instrs.to_le_bytes());
    out.extend_from_slice(meta.as_bytes());
    out
}

fn parse_header(payload: &[u8]) -> Result<(u32, String), String> {
    if payload.len() < 12 {
        return Err(format!("header record too short: {} bytes", payload.len()));
    }
    if payload[..4] != MAGIC {
        return Err("bad magic: not an untangle trace file".to_string());
    }
    let version = u32::from_le_bytes([payload[4], payload[5], payload[6], payload[7]]);
    if version != FORMAT_VERSION {
        return Err(format!(
            "format version {version}, this build reads {FORMAT_VERSION}"
        ));
    }
    let block_instrs = u32::from_le_bytes([payload[8], payload[9], payload[10], payload[11]]);
    if block_instrs == 0 {
        return Err("header declares zero instructions per block".to_string());
    }
    let meta = String::from_utf8(payload[12..].to_vec())
        .map_err(|_| "header meta is not UTF-8".to_string())?;
    Ok((block_instrs, meta))
}

/// What [`TraceWriter::open`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// No prior file (or an empty one): generation starts at zero.
    Fresh,
    /// A valid prefix of `instrs` instructions without a trailer — a
    /// prior generation was interrupted. Fast-forward the deterministic
    /// generator by `instrs` and continue appending.
    Partial {
        /// Instructions already durable on disk.
        instrs: u64,
    },
    /// The file is finished; appending is rejected.
    Complete {
        /// Total instructions recorded by the trailer.
        instrs: u64,
    },
}

/// Streams instructions into a trace file, block by durable block.
#[derive(Debug)]
pub struct TraceWriter {
    wal: Wal,
    block_instrs: u32,
    pending: Vec<Instr>,
    /// Instructions durably appended (excludes `pending`).
    durable_instrs: u64,
    finished: bool,
}

impl TraceWriter {
    /// Opens `path` for generation, creating the file (with its header
    /// record) if missing and otherwise recovering the valid prefix —
    /// including truncating a torn tail — exactly like every other WAL
    /// in the workspace.
    ///
    /// `block_instrs` and `meta` must match a preexisting header: they
    /// define the byte layout, so silently mixing configurations would
    /// break the byte-identical resume guarantee.
    ///
    /// # Errors
    ///
    /// [`TraceFileError`] on IO failure, a foreign/mismatched header,
    /// or malformed records.
    pub fn open(
        path: &Path,
        block_instrs: u32,
        meta: &str,
    ) -> Result<(Self, Resume), TraceFileError> {
        let err = |op, reason: &dyn fmt::Display| TraceFileError::new(path, op, reason);
        if block_instrs == 0 {
            return Err(err("trace_open", &"block_instrs must be positive"));
        }
        let (mut wal, recovery) = Wal::open(path)?;
        let mut writer = Self {
            block_instrs,
            pending: Vec::with_capacity(block_instrs as usize),
            durable_instrs: 0,
            finished: false,
            wal: {
                if recovery.records.is_empty() {
                    wal.append(&header_payload(block_instrs, meta))?;
                }
                wal
            },
        };
        if recovery.records.is_empty() {
            return Ok((writer, Resume::Fresh));
        }

        let (found_block_instrs, found_meta) =
            parse_header(&recovery.records[0]).map_err(|e| err("trace_open", &e))?;
        if found_block_instrs != block_instrs || found_meta != meta {
            return Err(err(
                "trace_open",
                &format!(
                    "header mismatch: on disk block_instrs={found_block_instrs} \
                     meta={found_meta:?}, requested block_instrs={block_instrs} meta={meta:?}"
                ),
            ));
        }
        let mut total = 0u64;
        let mut trailer: Option<u64> = None;
        for (i, record) in recovery.records[1..].iter().enumerate() {
            if trailer.is_some() {
                return Err(err(
                    "trace_open",
                    &format!("record {} after trailer", i + 1),
                ));
            }
            match record.first() {
                Some(&TAG_BLOCK) if record.len() >= 9 => {
                    let n = u32::from_le_bytes([record[1], record[2], record[3], record[4]]);
                    total += u64::from(n);
                }
                Some(&TAG_TRAILER) if record.len() == 9 => {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&record[1..9]);
                    trailer = Some(u64::from_le_bytes(b));
                }
                _ => return Err(err("trace_open", &format!("malformed record {}", i + 1))),
            }
        }
        writer.durable_instrs = total;
        if let Some(declared) = trailer {
            if declared != total {
                return Err(err(
                    "trace_open",
                    &format!("trailer declares {declared} instructions, blocks hold {total}"),
                ));
            }
            writer.finished = true;
            return Ok((writer, Resume::Complete { instrs: total }));
        }
        Ok((writer, Resume::Partial { instrs: total }))
    }

    /// Instructions durably on disk (buffered ones excluded).
    pub fn durable_instrs(&self) -> u64 {
        self.durable_instrs
    }

    /// Appends one instruction, flushing a durable block whenever the
    /// buffer reaches the configured block size.
    ///
    /// # Errors
    ///
    /// [`TraceFileError`] on IO failure or if the file is finished.
    pub fn append(&mut self, instr: Instr) -> Result<(), TraceFileError> {
        if self.finished {
            return Err(TraceFileError::new(
                self.wal.path(),
                "trace_append",
                "trace file already finished",
            ));
        }
        self.pending.push(instr);
        if self.pending.len() == self.block_instrs as usize {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Drains up to `limit` instructions from `source` into the file.
    /// Returns how many were appended (less than `limit` only if the
    /// source ended).
    ///
    /// # Errors
    ///
    /// As [`TraceWriter::append`].
    pub fn append_source<S: TraceSource>(
        &mut self,
        source: &mut S,
        limit: u64,
    ) -> Result<u64, TraceFileError> {
        let mut appended = 0u64;
        while appended < limit {
            let Some(instr) = source.next_instr() else {
                break;
            };
            self.append(instr)?;
            appended += 1;
        }
        Ok(appended)
    }

    fn flush_block(&mut self) -> Result<(), TraceFileError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let raw = encode_block(&self.pending);
        let packed = pack::compress(&raw);
        let mut payload = Vec::with_capacity(9 + packed.len());
        payload.push(TAG_BLOCK);
        payload.extend_from_slice(&(self.pending.len() as u32).to_le_bytes());
        payload.extend_from_slice(&(raw.len() as u32).to_le_bytes());
        payload.extend_from_slice(&packed);
        self.wal.append(&payload)?;
        self.durable_instrs += self.pending.len() as u64;
        self.pending.clear();
        obs::counter_add("trace.blocks_written", 1);
        Ok(())
    }

    /// Flushes any partial final block and appends the trailer, sealing
    /// the file. Idempotent on an already-finished file. Returns the
    /// total instruction count.
    ///
    /// # Errors
    ///
    /// [`TraceFileError`] on IO failure.
    pub fn finish(mut self) -> Result<u64, TraceFileError> {
        if self.finished {
            return Ok(self.durable_instrs);
        }
        self.flush_block()?;
        let mut payload = Vec::with_capacity(9);
        payload.push(TAG_TRAILER);
        payload.extend_from_slice(&self.durable_instrs.to_le_bytes());
        self.wal.append(&payload)?;
        self.finished = true;
        obs::counter_add("trace.files_finished", 1);
        Ok(self.durable_instrs)
    }
}

/// Parsed header + index facts about a finished trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFileInfo {
    /// Instructions per (non-final) block.
    pub block_instrs: u32,
    /// Free-form writer metadata from the header.
    pub meta: String,
    /// Total instructions, from the trailer.
    pub total_instrs: u64,
    /// Number of blocks.
    pub blocks: usize,
}

#[derive(Debug, Clone, Copy)]
struct BlockEntry {
    /// Byte offset of the block's frame in the file.
    offset: u64,
    /// Instructions in the block.
    n_instrs: u32,
}

/// A [`TraceSource`] streaming a finished trace file.
///
/// Opening validates every frame checksum and builds a block index
/// (two words per block); replay then holds one decoded block at a
/// time, so memory stays O(block) regardless of trace length.
///
/// `next_instr` cannot surface IO errors through the [`TraceSource`]
/// contract; a read failure after the successful open (vanishing file,
/// media error) marks the source *poisoned* — it ends the stream and
/// records the error for [`FileSource::poisoned`], which drivers check
/// after a run. The `trace.read_errors` counter observes the same
/// event.
#[derive(Debug)]
pub struct FileSource {
    reader: FrameReader,
    path: PathBuf,
    index: Vec<BlockEntry>,
    info: TraceFileInfo,
    current: Vec<Instr>,
    current_pos: usize,
    next_block: usize,
    /// Instructions to drop from the first decoded block (slice skip).
    skip_in_block: u64,
    /// Instructions still to yield.
    remaining: u64,
    poisoned: Option<TraceFileError>,
}

impl FileSource {
    /// Opens a finished trace file for full replay.
    ///
    /// # Errors
    ///
    /// [`TraceFileError`] on IO failure, checksum mismatch, a foreign
    /// or version-mismatched header, or a missing trailer (an
    /// unfinished generation — resume it with [`TraceWriter::open`]).
    pub fn open(path: &Path) -> Result<Self, TraceFileError> {
        Self::open_slice(path, 0, u64::MAX)
    }

    /// Opens a finished trace file, skipping `skip` instructions and
    /// yielding at most `len` — the primitive SimPoint slice replay is
    /// built on. Whole blocks before the slice are skipped by index,
    /// never decoded.
    ///
    /// # Errors
    ///
    /// As [`FileSource::open`], plus if `skip` lies past the end of the
    /// trace.
    pub fn open_slice(path: &Path, skip: u64, len: u64) -> Result<Self, TraceFileError> {
        let err = |reason: &dyn fmt::Display| TraceFileError::new(path, "trace_open", reason);
        let mut reader = FrameReader::open(path)?;
        let header = reader
            .next_frame()?
            .ok_or_else(|| err(&"empty file: no header record"))?;
        let (block_instrs, meta) = parse_header(&header).map_err(|e| err(&e))?;

        let mut index = Vec::new();
        let mut total = 0u64;
        let mut trailer = None;
        loop {
            let offset = reader.offset();
            let Some(frame) = reader.next_frame()? else {
                break;
            };
            if trailer.is_some() {
                return Err(err(&"record after trailer"));
            }
            match frame.first() {
                Some(&TAG_BLOCK) if frame.len() >= 9 => {
                    let n = u32::from_le_bytes([frame[1], frame[2], frame[3], frame[4]]);
                    index.push(BlockEntry {
                        offset,
                        n_instrs: n,
                    });
                    total += u64::from(n);
                }
                Some(&TAG_TRAILER) if frame.len() == 9 => {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&frame[1..9]);
                    trailer = Some(u64::from_le_bytes(b));
                }
                _ => return Err(err(&format!("malformed record at offset {offset}"))),
            }
        }
        let declared = trailer.ok_or_else(|| {
            err(&"no trailer: the trace is unfinished (crashed generation?) — resume it first")
        })?;
        if declared != total {
            return Err(err(&format!(
                "trailer declares {declared} instructions, blocks hold {total}"
            )));
        }
        if skip > total {
            return Err(err(&format!(
                "slice skip {skip} past the end of the {total}-instruction trace"
            )));
        }

        // Position the cursor: drop whole blocks before the slice.
        let mut next_block = 0usize;
        let mut skipped = 0u64;
        while next_block < index.len() && skipped + u64::from(index[next_block].n_instrs) <= skip {
            skipped += u64::from(index[next_block].n_instrs);
            next_block += 1;
        }
        let blocks = index.len();
        Ok(Self {
            reader,
            path: path.to_path_buf(),
            index,
            info: TraceFileInfo {
                block_instrs,
                meta,
                total_instrs: total,
                blocks,
            },
            current: Vec::new(),
            current_pos: 0,
            next_block,
            skip_in_block: skip - skipped,
            remaining: len.min(total - skip),
            poisoned: None,
        })
    }

    /// Header and index facts about the file.
    pub fn info(&self) -> &TraceFileInfo {
        &self.info
    }

    /// The read error that ended the stream early, if any. Drivers
    /// check this after a run: a poisoned source yielded a truncated
    /// stream, so its results must be discarded.
    pub fn poisoned(&self) -> Option<&TraceFileError> {
        self.poisoned.as_ref()
    }

    fn load_next_block(&mut self) -> Result<bool, TraceFileError> {
        let Some(entry) = self.index.get(self.next_block).copied() else {
            return Ok(false);
        };
        self.next_block += 1;
        let frame = self.reader.read_frame_at(entry.offset)?;
        let path = self.path.clone();
        let fail = |reason: String| TraceFileError::new(&path, "trace_read", reason);
        if frame.len() < 9 || frame[0] != TAG_BLOCK {
            return Err(fail("indexed frame is not a block".to_string()));
        }
        let n = u32::from_le_bytes([frame[1], frame[2], frame[3], frame[4]]);
        if n != entry.n_instrs {
            return Err(fail("block instruction count changed under us".to_string()));
        }
        let raw_len = u32::from_le_bytes([frame[5], frame[6], frame[7], frame[8]]);
        let raw =
            pack::decompress(&frame[9..], raw_len as usize).map_err(|e| fail(e.to_string()))?;
        let mut instrs = decode_block(&raw, n as usize).map_err(fail)?;
        if self.skip_in_block > 0 {
            instrs.drain(..self.skip_in_block as usize);
            self.skip_in_block = 0;
        }
        self.current = instrs;
        self.current_pos = 0;
        Ok(true)
    }
}

impl TraceSource for FileSource {
    fn next_instr(&mut self) -> Option<Instr> {
        if self.remaining == 0 || self.poisoned.is_some() {
            return None;
        }
        while self.current_pos >= self.current.len() {
            match self.load_next_block() {
                Ok(true) => {}
                Ok(false) => {
                    self.remaining = 0;
                    return None;
                }
                Err(e) => {
                    obs::counter_add("trace.read_errors", 1);
                    obs::diag!("trace read error: {e}");
                    self.poisoned = Some(e);
                    self.remaining = 0;
                    return None;
                }
            }
        }
        let instr = self.current[self.current_pos];
        self.current_pos += 1;
        self.remaining -= 1;
        Some(instr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::{RegionAnnotator, SecretRegion};
    use crate::synth::{WorkingSetConfig, WorkingSetModel};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("untangle-trace-file-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// A deterministic annotated source: working-set model with a
    /// secret region, so blocks carry every tag-bit combination.
    fn sample_source(seed: u64) -> impl TraceSource {
        let model = WorkingSetModel::new(
            WorkingSetConfig {
                working_set_bytes: 256 << 10,
                ..WorkingSetConfig::default()
            },
            seed,
        );
        let region = SecretRegion::new(LineAddr::new(300), 64 * 200);
        RegionAnnotator::new(model, vec![region], true)
    }

    fn collect(src: &mut impl TraceSource, n: usize) -> Vec<Instr> {
        (0..n).map(|_| src.next_instr().expect("instr")).collect()
    }

    #[test]
    fn varint_roundtrips() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_roundtrips() {
        for d in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
        // Small magnitudes stay small in either direction.
        assert!(zigzag(-3) < 8);
        assert!(zigzag(3) < 8);
    }

    #[test]
    fn block_encode_decode_roundtrips() {
        let mut src = sample_source(11);
        let instrs = collect(&mut src, 5000);
        let body = encode_block(&instrs);
        assert_eq!(decode_block(&body, instrs.len()).expect("decode"), instrs);
    }

    #[test]
    fn write_then_read_full_trace() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("t.trace");
        let mut src = sample_source(42);
        let expect = collect(&mut src, 10_000);

        let (mut w, resume) = TraceWriter::open(&path, 512, "seed=42").expect("open");
        assert_eq!(resume, Resume::Fresh);
        let mut replay = sample_source(42);
        assert_eq!(
            w.append_source(&mut replay, 10_000).expect("append"),
            10_000
        );
        assert_eq!(w.finish().expect("finish"), 10_000);

        let mut file = FileSource::open(&path).expect("read open");
        assert_eq!(file.info().total_instrs, 10_000);
        assert_eq!(file.info().block_instrs, 512);
        assert_eq!(file.info().meta, "seed=42");
        // 19 full blocks + 1 partial (10_000 = 19*512 + 272).
        assert_eq!(file.info().blocks, 20);
        let got: Vec<Instr> = file.iter_instrs().collect();
        assert_eq!(got, expect);
        assert!(file.poisoned().is_none());
    }

    #[test]
    fn slices_match_the_contiguous_stream() {
        let dir = temp_dir("slices");
        let path = dir.join("t.trace");
        let (mut w, _) = TraceWriter::open(&path, 256, "m").expect("open");
        let mut gen = sample_source(7);
        w.append_source(&mut gen, 4000).expect("append");
        w.finish().expect("finish");

        let mut full = FileSource::open(&path).expect("open");
        let all: Vec<Instr> = full.iter_instrs().collect();
        // Slice boundaries landing mid-block, on block edges, at the
        // very start and running off the end.
        for (skip, len) in [
            (0u64, 100u64),
            (255, 2),
            (256, 256),
            (1000, 999),
            (3900, 500),
        ] {
            let mut slice = FileSource::open_slice(&path, skip, len).expect("slice");
            let got: Vec<Instr> = slice.iter_instrs().collect();
            let want: Vec<Instr> = all
                .iter()
                .skip(skip as usize)
                .take(len as usize)
                .copied()
                .collect();
            assert_eq!(got, want, "slice ({skip}, {len})");
        }
    }

    #[test]
    fn interrupted_generation_resumes_byte_identical() {
        let dir = temp_dir("resume");
        let clean = dir.join("clean.trace");
        let resumed = dir.join("resumed.trace");
        let total = 2000u64;
        let block = 300u32;

        let (mut w, _) = TraceWriter::open(&clean, block, "m").expect("open clean");
        let mut gen = sample_source(9);
        w.append_source(&mut gen, total).expect("append");
        w.finish().expect("finish");

        // "Crash" after 2.33 blocks: append 700 instructions and drop
        // the writer without finish — the two durable blocks survive,
        // the 100 buffered instructions are lost.
        {
            let (mut w, resume) = TraceWriter::open(&resumed, block, "m").expect("open");
            assert_eq!(resume, Resume::Fresh);
            let mut gen = sample_source(9);
            w.append_source(&mut gen, 700).expect("append");
            // w dropped here without finish().
        }
        let (mut w, resume) = TraceWriter::open(&resumed, block, "m").expect("reopen");
        assert_eq!(resume, Resume::Partial { instrs: 600 });
        let mut gen = sample_source(9);
        for _ in 0..600 {
            gen.next_instr().expect("fast-forward");
        }
        w.append_source(&mut gen, total - 600).expect("append rest");
        w.finish().expect("finish");

        assert_eq!(
            std::fs::read(&clean).expect("clean bytes"),
            std::fs::read(&resumed).expect("resumed bytes"),
            "resumed trace must be byte-identical to the uninterrupted one"
        );
    }

    #[test]
    fn finished_file_reports_complete_and_rejects_appends() {
        let dir = temp_dir("complete");
        let path = dir.join("t.trace");
        let (mut w, _) = TraceWriter::open(&path, 128, "m").expect("open");
        let mut gen = sample_source(1);
        w.append_source(&mut gen, 200).expect("append");
        w.finish().expect("finish");

        let (mut w, resume) = TraceWriter::open(&path, 128, "m").expect("reopen");
        assert_eq!(resume, Resume::Complete { instrs: 200 });
        let e = w.append(Instr::compute()).expect_err("must reject");
        assert_eq!(e.op, "trace_append");
        // finish() is idempotent on a complete file.
        assert_eq!(w.finish().expect("noop finish"), 200);
    }

    #[test]
    fn reader_refuses_unfinished_file() {
        let dir = temp_dir("unfinished");
        let path = dir.join("t.trace");
        let (mut w, _) = TraceWriter::open(&path, 128, "m").expect("open");
        let mut gen = sample_source(2);
        w.append_source(&mut gen, 256).expect("append");
        drop(w); // no finish(): no trailer.
        let e = FileSource::open(&path).expect_err("must refuse");
        assert!(e.reason.contains("trailer"), "{e}");
    }

    #[test]
    fn reopen_rejects_mismatched_header() {
        let dir = temp_dir("mismatch");
        let path = dir.join("t.trace");
        let (w, _) = TraceWriter::open(&path, 128, "meta-a").expect("open");
        drop(w);
        let e = TraceWriter::open(&path, 128, "meta-b").expect_err("meta mismatch");
        assert!(e.reason.contains("mismatch"), "{e}");
        let e = TraceWriter::open(&path, 64, "meta-a").expect_err("block mismatch");
        assert!(e.reason.contains("mismatch"), "{e}");
    }

    #[test]
    fn reader_refuses_foreign_file() {
        let dir = temp_dir("foreign");
        let path = dir.join("t.trace");
        // A valid WAL whose first record is not a trace header.
        let (mut wal, _) = Wal::open(&path).expect("wal");
        wal.append(b"not a trace").expect("append");
        drop(wal);
        let e = FileSource::open(&path).expect_err("must refuse");
        assert_eq!(e.op, "trace_open");
    }

    #[test]
    fn compression_pays_for_itself() {
        let dir = temp_dir("ratio");
        let path = dir.join("t.trace");
        let n = 50_000u64;
        let (mut w, _) = TraceWriter::open(&path, 4096, "m").expect("open");
        let mut gen = sample_source(5);
        w.append_source(&mut gen, n).expect("append");
        w.finish().expect("finish");
        let file_len = std::fs::metadata(&path).expect("meta").len();
        // A naive in-memory Instr is ~24 bytes; the format should land
        // well under 4 bytes/instruction on this workload.
        assert!(
            file_len < n * 4,
            "expected < 4 B/instr, got {} B for {n} instrs",
            file_len
        );
    }
}
