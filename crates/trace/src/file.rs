//! The on-disk untangle-trace format.
//!
//! A trace file is a sequence of `untangle-durable` WAL frames
//! (`[len u32 LE][fnv1a(payload) u64 LE][payload]` — the same framing
//! and checksum discipline as every other durable artifact in the
//! workspace), holding three record kinds:
//!
//! ```text
//! header  "UTRC" + format version u32 LE + block_instrs u32 LE + meta (UTF-8)
//! block   'B' + n_instrs u32 LE + body
//! trailer 'E' + total_instrs u64 LE
//! ```
//!
//! The block body encodes one tag byte per instruction (mem/store/
//! secret_data/secret_ctrl bits) plus, for memory instructions, a
//! zigzag-varint *delta* of the cache-line index against the previous
//! memory access — blocks are self-contained (the delta chain restarts
//! at every block) so a reader can decode any block in isolation,
//! which slice replay depends on. Bodies are stored as encoded, about
//! 1.7 bytes per instruction on the scenario sweep's traces.
//!
//! The instruction count a block header declares is what a reader
//! allocates for the block, so every reader bounds it before decoding
//! the body: `1 ≤ n_instrs ≤ block_instrs ≤` [`MAX_BLOCK_INSTRS`], and
//! the body at most 11 bytes per instruction (a tag byte plus a
//! ten-byte varint).
//!
//! # Crash-consistent generation
//!
//! [`TraceWriter`] encodes whole blocks and stages them, committing the
//! staged blocks through [`Wal::append_batch`] — one write and one
//! `sync_all` — whenever they reach a fixed budget of about 256 KiB,
//! and at [`TraceWriter::finish`] together with the trailer. Each batch
//! is one durable write (fault-injectable via `UNTANGLE_FAULT_INJECT`),
//! and a kill mid-generation leaves a valid prefix of blocks: the
//! committed batches, plus the whole frames of a torn one. Staged
//! blocks are lost with the process. [`TraceWriter::open`] reports how
//! many instructions are on disk, the caller fast-forwards its
//! deterministic generator by that count and continues. Because block
//! boundaries are a pure function of the instruction stream and frame
//! bytes do not depend on batching, a resumed file is byte-identical
//! to an uninterrupted one. A file without its trailer is
//! *incomplete*: readers refuse it, writers resume it.
//!
//! # Reading
//!
//! [`TraceFile::open`] scans a finished file once — every frame
//! checksum, every block header, the trailer — and keeps the block
//! index (two words per block). Every stream of the file is cut from
//! that handle without rescanning, and every block a stream reads
//! verifies its own frame checksum again:
//!
//! * [`TraceFile::stream`] reads from disk one block at a time and
//!   decodes it from the frame it read, so a full-trace pass holds one
//!   block whatever the trace's length;
//! * [`SliceBuffer::fill`] reads the blocks covering one SimPoint slice
//!   (see [`simpoint`](crate::simpoint)) once, keeping their bodies,
//!   and [`SliceBuffer::replay`] replays them from memory as often as
//!   needed — one read per slice for every scheme replaying it.
//!
//! Both feed one block decoder, which decodes into buffers each stream
//! reuses. A read error after the open poisons the handle
//! ([`TraceFile::poisoned`]). [`FileSource::open`] and
//! [`FileSource::open_slice`] open a handle and cut one stream from it.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use untangle_durable::wal::{FrameReader, Wal};
use untangle_durable::DurableError;
use untangle_obs as obs;

use crate::instr::{Annotations, Instr, InstrKind, LineAddr, MemAccess, MemKind};
use crate::source::TraceSource;

/// Magic bytes opening every trace-file header record.
pub const MAGIC: [u8; 4] = *b"UTRC";
/// On-disk format version; bump on any encoding change.
pub const FORMAT_VERSION: u32 = 2;
/// Default instructions per block: small enough for cheap slice seeks,
/// large enough that the per-block frame and index entry stay a small
/// share of the file.
pub const DEFAULT_BLOCK_INSTRS: u32 = 4096;
/// Most instructions per block a header may declare. It bounds what a
/// reader allocates for one block (24 MiB of decoded instructions).
pub const MAX_BLOCK_INSTRS: u32 = 1 << 20;

/// Most body bytes one instruction encodes to: a tag byte plus a
/// ten-byte varint.
const MAX_INSTR_BYTES: u64 = 11;

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
    /// Short operation name (`"trace_open"`, `"trace_read"`,
    /// `"trace_append"`, …).
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

/// Appends a block body to `out`: one tag byte per instruction, plus a
/// zigzag-varint line delta for memory instructions. The delta chain
/// starts from line 0 at every block.
fn encode_block(instrs: &[Instr], out: &mut Vec<u8>) {
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
                push_varint(out, zigzag(line.wrapping_sub(prev_line) as i64));
                prev_line = line;
            }
        }
    }
}

/// The block record holding `instrs`: the tag, the instruction count
/// and the body.
fn block_record(instrs: &[Instr]) -> Vec<u8> {
    let mut record = Vec::with_capacity(5 + instrs.len() * 2);
    record.push(TAG_BLOCK);
    // At most `MAX_BLOCK_INSTRS` instructions, so the count fits a u32.
    record.extend_from_slice(&(instrs.len() as u32).to_le_bytes());
    encode_block(instrs, &mut record);
    record
}

/// Decodes a block body produced by [`encode_block`] into `out`,
/// replacing its contents: the one block decoder of every stream.
/// `out` never grows past `n_instrs`, nor past one instruction per
/// body byte.
fn decode_block_into(body: &[u8], n_instrs: usize, out: &mut Vec<Instr>) -> Result<(), String> {
    out.clear();
    out.reserve(n_instrs.min(body.len()));
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
        out.push(Instr { kind, annotations });
    }
    if pos != body.len() {
        return Err(format!(
            "{} trailing bytes after {n_instrs} instructions",
            body.len() - pos
        ));
    }
    Ok(())
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
    if block_instrs == 0 || block_instrs > MAX_BLOCK_INSTRS {
        return Err(format!(
            "header declares {block_instrs} instructions per block, outside 1..={MAX_BLOCK_INSTRS}"
        ));
    }
    let meta = String::from_utf8(payload[12..].to_vec())
        .map_err(|_| "header meta is not UTF-8".to_string())?;
    Ok((block_instrs, meta))
}

/// A block record: its instruction count, checked against the format
/// bounds, and its encoded body.
#[derive(Debug)]
struct Block<'a> {
    n_instrs: u32,
    body: &'a [u8],
}

impl<'a> Block<'a> {
    /// Parses a block record of a file with `block_instrs` instructions
    /// per block. The instruction count is what a reader allocates for
    /// the block, so it is bounded here, and the body against it,
    /// before the body is decoded.
    fn parse(record: &'a [u8], block_instrs: u32) -> Result<Self, String> {
        if record.len() < 5 || record[0] != TAG_BLOCK {
            return Err("malformed block record".to_string());
        }
        let n_instrs = u32::from_le_bytes([record[1], record[2], record[3], record[4]]);
        if n_instrs == 0 || n_instrs > block_instrs {
            return Err(format!(
                "block declares {n_instrs} instructions, outside 1..={block_instrs}"
            ));
        }
        let body = &record[5..];
        if body.len() as u64 > MAX_INSTR_BYTES * u64::from(n_instrs) {
            return Err(format!(
                "block holds a {}-byte body for {n_instrs} instructions, \
                 over {MAX_INSTR_BYTES} bytes each",
                body.len()
            ));
        }
        Ok(Self { n_instrs, body })
    }
}

/// The walk over the records after a trace's header: blocks, then at
/// most one trailer, which must match their total. The reader's index
/// scan and the writer's recovery both take their records through it.
#[derive(Debug, Default)]
struct RecordWalk {
    /// Instructions in the blocks taken so far.
    total: u64,
    trailer: Option<u64>,
}

impl RecordWalk {
    /// Takes the next record; returns the block it holds, if any.
    fn take<'a>(
        &mut self,
        record: &'a [u8],
        block_instrs: u32,
    ) -> Result<Option<Block<'a>>, String> {
        if self.trailer.is_some() {
            return Err("record after trailer".to_string());
        }
        match record.first() {
            Some(&TAG_BLOCK) => {
                let block = Block::parse(record, block_instrs)?;
                self.total = self
                    .total
                    .checked_add(u64::from(block.n_instrs))
                    .ok_or("instruction count overflows u64")?;
                Ok(Some(block))
            }
            Some(&TAG_TRAILER) if record.len() == 9 => {
                let mut b = [0u8; 8];
                b.copy_from_slice(&record[1..9]);
                let declared = u64::from_le_bytes(b);
                if declared != self.total {
                    return Err(format!(
                        "trailer declares {declared} instructions, blocks hold {}",
                        self.total
                    ));
                }
                self.trailer = Some(declared);
                Ok(None)
            }
            _ => Err("malformed record".to_string()),
        }
    }
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

/// Encoded block bytes a [`TraceWriter`] stages before committing them
/// as one WAL batch: one `sync_all` covers many blocks, and the staged
/// bytes stay bounded whatever the block size.
const COMMIT_BYTES: usize = 256 << 10;

/// Streams instructions into a trace file, block by block, committing
/// the encoded blocks to disk in batches.
#[derive(Debug)]
pub struct TraceWriter {
    wal: Wal,
    block_instrs: u32,
    pending: Vec<Instr>,
    /// Encoded block records not yet committed, oldest first.
    staged: Vec<Vec<u8>>,
    /// Bytes in `staged`.
    staged_bytes: usize,
    /// Instructions in `staged`.
    staged_instrs: u64,
    /// Instructions durably appended (excludes `pending` and `staged`).
    durable_instrs: u64,
    finished: bool,
}

impl TraceWriter {
    /// Opens `path` for generation, creating the file (with its header
    /// record) if missing and otherwise recovering the valid prefix —
    /// including truncating a torn tail — exactly like every other WAL
    /// in the workspace. Recovery takes the records one at a time, so
    /// it holds one frame whatever the file's length.
    ///
    /// `block_instrs` and `meta` must match a preexisting header: they
    /// define the byte layout, so silently mixing configurations would
    /// break the byte-identical resume guarantee.
    ///
    /// # Errors
    ///
    /// [`TraceFileError`] on IO failure, a `block_instrs` outside
    /// `1..=`[`MAX_BLOCK_INSTRS`], a foreign/mismatched header, or
    /// malformed records.
    pub fn open(
        path: &Path,
        block_instrs: u32,
        meta: &str,
    ) -> Result<(Self, Resume), TraceFileError> {
        let err = |reason: &dyn fmt::Display| TraceFileError::new(path, "trace_open", reason);
        if block_instrs == 0 || block_instrs > MAX_BLOCK_INSTRS {
            return Err(err(&format!(
                "block_instrs {block_instrs} outside 1..={MAX_BLOCK_INSTRS}"
            )));
        }
        let mut records = 0usize;
        let mut walk = RecordWalk::default();
        let mut failure: Option<String> = None;
        let (mut wal, _) = Wal::recover(path, |record| {
            if failure.is_some() {
                return;
            }
            let checked = if records == 0 {
                check_header(record, block_instrs, meta)
            } else {
                walk.take(record, block_instrs)
                    .map(drop)
                    .map_err(|e| format!("record {records}: {e}"))
            };
            failure = checked.err();
            records += 1;
        })?;
        if let Some(reason) = failure {
            return Err(err(&reason));
        }
        let resume = match (records, walk.trailer) {
            (0, _) => {
                wal.append(&header_payload(block_instrs, meta))?;
                Resume::Fresh
            }
            (_, Some(instrs)) => Resume::Complete { instrs },
            (_, None) => Resume::Partial { instrs: walk.total },
        };
        Ok((
            Self {
                wal,
                block_instrs,
                pending: Vec::with_capacity(block_instrs as usize),
                staged: Vec::new(),
                staged_bytes: 0,
                staged_instrs: 0,
                durable_instrs: walk.total,
                finished: matches!(resume, Resume::Complete { .. }),
            },
            resume,
        ))
    }

    /// Instructions durably on disk (buffered and staged ones
    /// excluded).
    pub fn durable_instrs(&self) -> u64 {
        self.durable_instrs
    }

    /// Appends one instruction. Each full block is encoded and staged,
    /// and the staged blocks are committed as one WAL batch once they
    /// reach a fixed byte budget.
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

    /// Encodes the buffered instructions as one block and stages it,
    /// committing the staged blocks once they reach [`COMMIT_BYTES`].
    fn flush_block(&mut self) -> Result<(), TraceFileError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let record = block_record(&self.pending);
        self.staged_bytes += record.len();
        self.staged_instrs += self.pending.len() as u64;
        self.staged.push(record);
        self.pending.clear();
        obs::counter_add("trace.blocks_written", 1);
        if self.staged_bytes >= COMMIT_BYTES {
            self.commit()?;
        }
        Ok(())
    }

    /// Appends the staged records to the file as one durable batch.
    fn commit(&mut self) -> Result<(), TraceFileError> {
        self.wal.append_batch(&self.staged)?;
        self.durable_instrs += self.staged_instrs;
        self.staged.clear();
        self.staged_bytes = 0;
        self.staged_instrs = 0;
        Ok(())
    }

    /// Flushes any partial final block and appends the trailer, sealing
    /// the file: the trailer rides in the batch that commits the last
    /// staged blocks. Idempotent on an already-finished file. Returns
    /// the total instruction count.
    ///
    /// # Errors
    ///
    /// [`TraceFileError`] on IO failure.
    pub fn finish(mut self) -> Result<u64, TraceFileError> {
        if self.finished {
            return Ok(self.durable_instrs);
        }
        self.flush_block()?;
        let total = self.durable_instrs + self.staged_instrs;
        let mut payload = Vec::with_capacity(9);
        payload.push(TAG_TRAILER);
        payload.extend_from_slice(&total.to_le_bytes());
        self.staged.push(payload);
        self.commit()?;
        self.finished = true;
        obs::counter_add("trace.files_finished", 1);
        Ok(self.durable_instrs)
    }
}

/// Checks an existing file's header record against the layout a writer
/// asks for.
fn check_header(record: &[u8], block_instrs: u32, meta: &str) -> Result<(), String> {
    let (found_block_instrs, found_meta) = parse_header(record)?;
    if found_block_instrs != block_instrs || found_meta != meta {
        return Err(format!(
            "header mismatch: on disk block_instrs={found_block_instrs} \
             meta={found_meta:?}, requested block_instrs={block_instrs} meta={meta:?}"
        ));
    }
    Ok(())
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

/// Where a stream of `[skip, skip + len)` starts and how long it runs.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    /// Index of the block holding instruction `skip`.
    first_block: usize,
    /// Instructions of that block before `skip`.
    skip_in_block: usize,
    /// Instructions the stream yields (`len` clamped to the trace).
    len: u64,
}

#[derive(Debug)]
struct TraceIndex {
    path: PathBuf,
    info: TraceFileInfo,
    blocks: Vec<BlockEntry>,
    /// The first read error of any stream cut from the handle.
    poison: OnceLock<TraceFileError>,
}

/// A finished trace file, scanned once: the handle every stream of it
/// is cut from.
///
/// [`TraceFile::open`] verifies every frame checksum, every block
/// header against the format bounds and the trailer, and keeps the
/// block index (two words per block). [`TraceFile::stream`] and
/// [`TraceFile::slice_buffer`] then reach any instruction offset by
/// index, without rescanning. Clones share the index and one poison
/// cell.
///
/// `next_instr` cannot surface IO errors through the [`TraceSource`]
/// contract; a read or decode failure after the open (vanishing file,
/// media error, a block corrupted since the scan) ends that stream and
/// records the first such error in the handle's poison cell, which
/// drivers check after every replay ([`TraceFile::poisoned`]). The
/// `trace.read_errors` counter observes the same event.
#[derive(Debug, Clone)]
pub struct TraceFile {
    index: Arc<TraceIndex>,
}

impl TraceFile {
    /// Opens and scans a finished trace file. Every scan of a file
    /// that opens is counted by the `trace.index_scans` counter.
    ///
    /// # Errors
    ///
    /// [`TraceFileError`] on IO failure, checksum mismatch, a foreign
    /// or version-mismatched header, a block header outside the format
    /// bounds, or a missing trailer (an unfinished generation — resume
    /// it with [`TraceWriter::open`]).
    pub fn open(path: &Path) -> Result<Self, TraceFileError> {
        let err = |reason: &dyn fmt::Display| TraceFileError::new(path, "trace_open", reason);
        let mut reader = FrameReader::open(path)?;
        obs::counter_add("trace.index_scans", 1);
        let mut frame = Vec::new();
        if !reader.next_frame(&mut frame)? {
            return Err(err(&"empty file: no header record"));
        }
        let (block_instrs, meta) = parse_header(&frame).map_err(|e| err(&e))?;

        let mut blocks = Vec::new();
        let mut walk = RecordWalk::default();
        loop {
            let offset = reader.offset();
            if !reader.next_frame(&mut frame)? {
                break;
            }
            let taken = walk
                .take(&frame, block_instrs)
                .map_err(|e| err(&format!("record at offset {offset}: {e}")))?;
            if let Some(block) = taken {
                blocks.push(BlockEntry {
                    offset,
                    n_instrs: block.n_instrs,
                });
            }
        }
        if walk.trailer.is_none() {
            return Err(err(
                &"no trailer: the trace is unfinished (crashed generation?) — resume it first",
            ));
        }
        Ok(Self {
            index: Arc::new(TraceIndex {
                path: path.to_path_buf(),
                info: TraceFileInfo {
                    block_instrs,
                    meta,
                    total_instrs: walk.total,
                    blocks: blocks.len(),
                },
                blocks,
                poison: OnceLock::new(),
            }),
        })
    }

    /// Header and index facts about the file.
    pub fn info(&self) -> &TraceFileInfo {
        &self.index.info
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.index.path
    }

    /// The first read error of any stream cut from this handle, if
    /// any. Drivers check this after every replay: a poisoned stream
    /// ended early, so the run's results must be discarded.
    pub fn poisoned(&self) -> Option<&TraceFileError> {
        self.index.poison.get()
    }

    /// A disk stream skipping `skip` instructions and yielding at most
    /// `len`. Whole blocks before the slice are skipped by index, never
    /// read; the stream then holds one block at a time.
    ///
    /// # Errors
    ///
    /// [`TraceFileError`] if `skip` lies past the end of the trace or
    /// the file cannot be opened.
    pub fn stream(&self, skip: u64, len: u64) -> Result<FileSource, TraceFileError> {
        let span = self.span(skip, len)?;
        Ok(FileSource {
            trace: self.clone(),
            feed: Feed::Disk {
                reader: FrameReader::open(self.path())?,
                frame: Vec::new(),
            },
            next_block: span.first_block,
            current: Vec::new(),
            pos: 0,
            skip_in_block: span.skip_in_block,
            remaining: span.len,
        })
    }

    /// An empty slice buffer bound to this trace; see
    /// [`SliceBuffer::fill`].
    pub fn slice_buffer(&self) -> SliceBuffer {
        SliceBuffer {
            trace: self.clone(),
            span: Span::default(),
            bodies: Vec::new(),
            blocks: Vec::new(),
            frame: Vec::new(),
        }
    }

    fn span(&self, skip: u64, len: u64) -> Result<Span, TraceFileError> {
        let total = self.index.info.total_instrs;
        if skip > total {
            return Err(TraceFileError::new(
                self.path(),
                "trace_open",
                format!("slice skip {skip} past the end of the {total}-instruction trace"),
            ));
        }
        let mut first_block = 0usize;
        let mut skipped = 0u64;
        for entry in &self.index.blocks {
            let next = skipped + u64::from(entry.n_instrs);
            if next > skip {
                break;
            }
            skipped = next;
            first_block += 1;
        }
        Ok(Span {
            first_block,
            // Below the block's instruction count, itself a u32.
            skip_in_block: (skip - skipped) as usize,
            len: len.min(total - skip),
        })
    }

    /// Reads the block at `entry` from disk into `frame`, verifying its
    /// frame checksum and header again, and returns its body. Counted
    /// by the `trace.blocks_read` counter.
    fn read_block<'f>(
        &self,
        reader: &mut FrameReader,
        entry: BlockEntry,
        frame: &'f mut Vec<u8>,
    ) -> Result<&'f [u8], TraceFileError> {
        let fail =
            |reason: &dyn fmt::Display| TraceFileError::new(self.path(), "trace_read", reason);
        reader
            .read_frame_at(entry.offset, frame)
            .map_err(|e| fail(&format!("{}: {}", e.op, e.reason)))?;
        let block = Block::parse(frame, self.index.info.block_instrs).map_err(|e| fail(&e))?;
        if block.n_instrs != entry.n_instrs {
            return Err(fail(&"block instruction count changed under us"));
        }
        obs::counter_add("trace.blocks_read", 1);
        Ok(block.body)
    }
}

/// A block of a [`SliceBuffer`]: its instruction count and the byte
/// range of its body.
#[derive(Debug, Clone, Copy)]
struct SliceBlock {
    n_instrs: u32,
    start: usize,
    end: usize,
}

/// One slice of a trace, read from disk once and replayed from memory.
///
/// [`SliceBuffer::fill`] reads the blocks covering a slice — each frame
/// checksum-verified — and keeps their bodies in one buffer of about
/// 1.7 bytes per instruction (the encoded form, not decoded
/// instructions). [`SliceBuffer::replay`] cuts any number of streams
/// from it, each decoding the same bodies through the one block
/// decoder. Filling again reuses the buffer, so memory stays at one
/// slice's blocks whatever the trace's length.
#[derive(Debug, Clone)]
pub struct SliceBuffer {
    trace: TraceFile,
    span: Span,
    /// The bodies of the blocks covering `span`, back to back.
    bodies: Vec<u8>,
    blocks: Vec<SliceBlock>,
    /// Frame buffer reused across block reads.
    frame: Vec<u8>,
}

impl SliceBuffer {
    /// Replaces the buffer's contents with the slice skipping `skip`
    /// instructions and holding at most `len`, reading each block it
    /// covers once.
    ///
    /// # Errors
    ///
    /// [`TraceFileError`] if `skip` lies past the end of the trace, or
    /// a block cannot be read, fails its checksum or declares a header
    /// outside the format bounds.
    pub fn fill(&mut self, skip: u64, len: u64) -> Result<(), TraceFileError> {
        let span = self.trace.span(skip, len)?;
        // A fill that fails part-way leaves a buffer that replays nothing.
        self.span = Span::default();
        self.bodies.clear();
        self.blocks.clear();
        if span.len > 0 {
            // Instructions from the first block's start to the slice's end.
            let mut pending = span.skip_in_block as u64 + span.len;
            let mut reader = FrameReader::open(self.trace.path())?;
            for &entry in self.trace.index.blocks.iter().skip(span.first_block) {
                let body = self.trace.read_block(&mut reader, entry, &mut self.frame)?;
                let start = self.bodies.len();
                self.bodies.extend_from_slice(body);
                self.blocks.push(SliceBlock {
                    n_instrs: entry.n_instrs,
                    start,
                    end: self.bodies.len(),
                });
                pending = pending.saturating_sub(u64::from(entry.n_instrs));
                if pending == 0 {
                    break;
                }
            }
        }
        self.span = span;
        Ok(())
    }

    /// A stream over the slice last filled, read from memory.
    pub fn replay(self: &Arc<Self>) -> FileSource {
        FileSource {
            trace: self.trace.clone(),
            feed: Feed::Memory(Arc::clone(self)),
            next_block: 0,
            current: Vec::new(),
            pos: 0,
            skip_in_block: self.span.skip_in_block,
            remaining: self.span.len,
        }
    }
}

/// Where a [`FileSource`] takes its block bodies from.
#[derive(Debug)]
enum Feed {
    /// Block frames read from disk one at a time, into a reused buffer
    /// the block is decoded from.
    Disk { reader: FrameReader, frame: Vec<u8> },
    /// The bodies a [`SliceBuffer`] holds.
    Memory(Arc<SliceBuffer>),
}

/// A [`TraceSource`] over a finished trace file: a stream cut from a
/// [`TraceFile`] handle, from disk ([`TraceFile::stream`]) or from a
/// [`SliceBuffer`] ([`SliceBuffer::replay`]). It holds one decoded
/// block and yields from a cursor into it.
///
/// A read or decode failure ends the stream and poisons the handle
/// (see [`TraceFile`]); [`FileSource::poisoned`] reports it.
#[derive(Debug)]
pub struct FileSource {
    trace: TraceFile,
    feed: Feed,
    /// Next block to decode: an index into the trace's blocks (disk) or
    /// the slice buffer's (memory).
    next_block: usize,
    /// The decoded current block; `current[pos..]` is still to yield.
    current: Vec<Instr>,
    pos: usize,
    /// Instructions to skip in the next decoded block (a slice start
    /// inside a block).
    skip_in_block: usize,
    /// Instructions still to yield.
    remaining: u64,
}

impl FileSource {
    /// Opens a finished trace file for full replay.
    ///
    /// # Errors
    ///
    /// As [`TraceFile::open`].
    pub fn open(path: &Path) -> Result<Self, TraceFileError> {
        TraceFile::open(path)?.stream(0, u64::MAX)
    }

    /// Opens a finished trace file, skipping `skip` instructions and
    /// yielding at most `len`: [`TraceFile::open`] then
    /// [`TraceFile::stream`].
    ///
    /// # Errors
    ///
    /// As [`TraceFile::open`] and [`TraceFile::stream`].
    pub fn open_slice(path: &Path, skip: u64, len: u64) -> Result<Self, TraceFileError> {
        TraceFile::open(path)?.stream(skip, len)
    }

    /// Header and index facts about the file.
    pub fn info(&self) -> &TraceFileInfo {
        self.trace.info()
    }

    /// The read error that poisoned this stream's handle, if any.
    /// Drivers check this after a run: a poisoned source yielded a
    /// truncated stream, so its results must be discarded.
    pub fn poisoned(&self) -> Option<&TraceFileError> {
        self.trace.poisoned()
    }

    /// Decodes the next block into `current`; `false` past the last.
    fn load_next_block(&mut self) -> Result<bool, TraceFileError> {
        let (body, n_instrs) = match &mut self.feed {
            Feed::Disk { reader, frame } => {
                let Some(&entry) = self.trace.index.blocks.get(self.next_block) else {
                    return Ok(false);
                };
                (self.trace.read_block(reader, entry, frame)?, entry.n_instrs)
            }
            Feed::Memory(slice) => {
                let Some(&block) = slice.blocks.get(self.next_block) else {
                    return Ok(false);
                };
                (&slice.bodies[block.start..block.end], block.n_instrs)
            }
        };
        decode_block_into(body, n_instrs as usize, &mut self.current)
            .map_err(|e| TraceFileError::new(self.trace.path(), "trace_read", e))?;
        self.pos = std::mem::take(&mut self.skip_in_block);
        self.next_block += 1;
        Ok(true)
    }
}

impl TraceSource for FileSource {
    fn next_instr(&mut self) -> Option<Instr> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            if let Some(&instr) = self.current.get(self.pos) {
                self.pos += 1;
                self.remaining -= 1;
                return Some(instr);
            }
            match self.load_next_block() {
                Ok(true) => {}
                Ok(false) => {
                    self.remaining = 0;
                    return None;
                }
                Err(e) => {
                    obs::counter_add("trace.read_errors", 1);
                    obs::diag!("trace read error: {e}");
                    // The first error wins; later ones repeat its cause.
                    let _ = self.trace.index.poison.set(e);
                    self.remaining = 0;
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::{RegionAnnotator, SecretRegion};
    use crate::synth::{TraceRng, WorkingSetConfig, WorkingSetModel};

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

    fn trailer_record(total: u64) -> Vec<u8> {
        let mut record = vec![TAG_TRAILER];
        record.extend_from_slice(&total.to_le_bytes());
        record
    }

    /// Writes `records` after a header through the raw WAL, bypassing
    /// the writer's own checks.
    fn write_raw(path: &Path, block_instrs: u32, records: &[Vec<u8>]) {
        let _ = std::fs::remove_file(path);
        let (mut wal, _) = Wal::open(path).expect("wal");
        wal.append(&header_payload(block_instrs, "m"))
            .expect("header");
        for record in records {
            wal.append(record).expect("record");
        }
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
        let mut body = Vec::new();
        encode_block(&instrs, &mut body);
        let mut decoded = vec![Instr::compute(); 3];
        decode_block_into(&body, instrs.len(), &mut decoded).expect("decode");
        assert_eq!(decoded, instrs);
    }

    /// The version-2 layout, byte for byte: a header record and the
    /// block record of three instructions in a four-instruction block,
    /// stored as encoded.
    #[test]
    fn block_record_bytes_are_pinned() {
        let dir = temp_dir("pinned");
        let path = dir.join("t.trace");
        let instrs = [
            Instr::compute().with_annotations(Annotations {
                secret_data: false,
                secret_ctrl: true,
            }),
            Instr::load(LineAddr::new(5)),
            Instr::store(LineAddr::new(300)).with_annotations(Annotations {
                secret_data: true,
                secret_ctrl: false,
            }),
        ];
        let (mut w, _) = TraceWriter::open(&path, 4, "m").expect("open");
        for instr in instrs {
            w.append(instr).expect("append");
        }
        assert_eq!(w.finish().expect("finish"), 3);

        let mut reader = FrameReader::open(&path).expect("reader");
        let mut frame = Vec::new();
        assert!(reader.next_frame(&mut frame).expect("header"));
        assert_eq!(frame, b"UTRC\x02\x00\x00\x00\x04\x00\x00\x00m");
        assert!(reader.next_frame(&mut frame).expect("block"));
        // Tag and n_instrs; a compute instruction (secret_ctrl); a load
        // (line delta +5); a store (secret_data, line delta +295).
        let block = [b'B', 3, 0, 0, 0, 0x08, 0x01, 0x0a, 0x07, 0xce, 0x04];
        assert_eq!(frame, block);
        assert!(reader.next_frame(&mut frame).expect("trailer"));
        assert_eq!(frame, trailer_record(3));
        assert!(!reader.next_frame(&mut frame).expect("end"));

        let got: Vec<Instr> = FileSource::open(&path)
            .expect("open")
            .iter_instrs()
            .collect();
        assert_eq!(got, instrs);
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

    /// Every way to cut `[skip, skip + len)` — a fresh `open_slice`, a
    /// disk stream from one shared handle, and a replay of one reused
    /// slice buffer — yields that part of the contiguous stream.
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
        let trace = TraceFile::open(&path).expect("handle");
        let mut buffer = Arc::new(trace.slice_buffer());
        // Slice boundaries landing mid-block, on block edges, at the
        // very start, running off the end, and empty.
        for (skip, len) in [
            (0u64, 100u64),
            (255, 2),
            (256, 256),
            (1000, 999),
            (3900, 500),
            (512, 0),
            (4000, 10),
        ] {
            let want: Vec<Instr> = all
                .iter()
                .skip(skip as usize)
                .take(len as usize)
                .copied()
                .collect();
            let mut opened = FileSource::open_slice(&path, skip, len).expect("slice");
            let got: Vec<Instr> = opened.iter_instrs().collect();
            assert_eq!(got, want, "open_slice ({skip}, {len})");
            let mut cut = trace.stream(skip, len).expect("stream");
            let got: Vec<Instr> = cut.iter_instrs().collect();
            assert_eq!(got, want, "stream ({skip}, {len})");
            Arc::make_mut(&mut buffer).fill(skip, len).expect("fill");
            for replay in 0..2 {
                let got: Vec<Instr> = buffer.replay().iter_instrs().collect();
                assert_eq!(got, want, "slice buffer ({skip}, {len}) replay {replay}");
            }
        }
        assert!(trace.poisoned().is_none());
        assert!(trace.stream(4001, 1).is_err());
        assert!(Arc::make_mut(&mut buffer).fill(4001, 1).is_err());
    }

    #[test]
    fn interrupted_generation_resumes_byte_identical() {
        let dir = temp_dir("resume");
        let clean = dir.join("clean.trace");
        let resumed = dir.join("resumed.trace");
        let block = 300u32;

        // "Crash" after the first committed batch: append until the
        // staged blocks reach the commit budget, then 2.33 blocks more,
        // and drop the writer without finish — the committed blocks
        // survive, the two staged blocks and the 100 buffered
        // instructions are lost.
        let durable = {
            let (mut w, resume) = TraceWriter::open(&resumed, block, "m").expect("open");
            assert_eq!(resume, Resume::Fresh);
            let mut gen = sample_source(9);
            while w.durable_instrs() == 0 {
                w.append(gen.next_instr().expect("instr")).expect("append");
            }
            let durable = w.durable_instrs();
            w.append_source(&mut gen, 700).expect("append");
            assert_eq!(w.durable_instrs(), durable, "staged blocks are not durable");
            durable
            // w dropped here without finish().
        };
        assert_eq!(durable % u64::from(block), 0);
        let total = durable + 2000;

        let (mut w, _) = TraceWriter::open(&clean, block, "m").expect("open clean");
        let mut gen = sample_source(9);
        w.append_source(&mut gen, total).expect("append");
        w.finish().expect("finish");

        let (mut w, resume) = TraceWriter::open(&resumed, block, "m").expect("reopen");
        assert_eq!(resume, Resume::Partial { instrs: durable });
        let mut gen = sample_source(9);
        for _ in 0..durable {
            gen.next_instr().expect("fast-forward");
        }
        w.append_source(&mut gen, total - durable)
            .expect("append rest");
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

    /// A block declaring more instructions than the header's block
    /// size — with a body that really holds them and valid checksums —
    /// is refused by the reader and by the writer's recovery, before
    /// anything is allocated for it.
    #[test]
    fn oversized_block_is_refused() {
        let dir = temp_dir("oversized");
        let path = dir.join("t.trace");
        let block_instrs = 64u32;
        let instrs = collect(&mut sample_source(3), block_instrs as usize + 1);
        write_raw(
            &path,
            block_instrs,
            &[block_record(&instrs), trailer_record(instrs.len() as u64)],
        );
        let e = TraceFile::open(&path).expect_err("reader must refuse");
        assert_eq!(e.op, "trace_open");
        assert!(e.reason.contains("outside 1..=64"), "{e}");
        let e = TraceWriter::open(&path, block_instrs, "m").expect_err("writer must refuse");
        assert_eq!(e.op, "trace_open");
        assert!(e.reason.contains("outside 1..=64"), "{e}");

        // A body over 11 bytes per instruction, and a header over the
        // format's block-size cap, are refused the same way.
        let mut record = block_record(&instrs[..8]);
        record.resize(5 + 89, 0);
        write_raw(&path, block_instrs, &[record, trailer_record(8)]);
        let e = TraceFile::open(&path).expect_err("body over the bound");
        assert!(e.reason.contains("89-byte body"), "{e}");
        write_raw(&path, MAX_BLOCK_INSTRS + 1, &[]);
        assert!(TraceFile::open(&path).is_err());
        assert!(TraceWriter::open(&path, MAX_BLOCK_INSTRS + 1, "m").is_err());
    }

    /// A block whose frame and header are sound but whose body does not
    /// decode passes the index scan; the stream that reaches it, from
    /// disk or from a slice buffer, ends and poisons the one handle both
    /// were cut from.
    #[test]
    fn a_decode_error_poisons_the_shared_handle() {
        let dir = temp_dir("poison");
        let path = dir.join("t.trace");
        let good = collect(&mut sample_source(4), 32);
        let mut bad = vec![TAG_BLOCK];
        bad.extend_from_slice(&4u32.to_le_bytes());
        bad.extend_from_slice(&[0xF0u8; 4]);
        write_raw(&path, 32, &[block_record(&good), bad, trailer_record(36)]);

        let trace = TraceFile::open(&path).expect("the scan does not decode");
        let mut buffer = Arc::new(trace.slice_buffer());
        Arc::make_mut(&mut buffer).fill(30, 6).expect("fill");
        let mut replay = buffer.replay();
        assert_eq!(replay.iter_instrs().count(), 2);
        let e = trace.poisoned().expect("poisoned").clone();
        assert_eq!(e.op, "trace_read");
        assert!(e.reason.contains("unknown tag bits"), "{e}");

        let mut stream = trace.stream(0, 36).expect("stream");
        assert_eq!(stream.iter_instrs().count(), 32);
        assert_eq!(stream.poisoned(), Some(&e));
    }

    /// Hostile block frames — valid ones truncated at random points,
    /// with single bytes flipped, and random bytes — go through the
    /// header bounds and the block decoder: each returns `Ok` or `Err`,
    /// none panics, and no buffer grows past what the bounded header
    /// allows.
    #[test]
    fn hostile_block_frames_never_panic_or_overallocate() {
        let block_instrs = 256u32;
        let mut rng = TraceRng::new(0x0b10_c4ed);
        let mut src = sample_source(5);
        let mut frames = Vec::new();
        for _ in 0..24 {
            let n = 1 + rng.below(u64::from(block_instrs)) as usize;
            let record = block_record(&collect(&mut src, n));
            let cut = rng.below(record.len() as u64 + 1) as usize;
            frames.push(record[..cut].to_vec());
            for _ in 0..8 {
                let mut flipped = record.clone();
                let at = rng.below(record.len() as u64) as usize;
                flipped[at] ^= 1 << rng.below(8);
                frames.push(flipped);
            }
            frames.push(record);
            // Random bytes, and random bodies behind an in-bounds header.
            let noise = |rng: &mut TraceRng| -> Vec<u8> {
                (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect()
            };
            frames.push(noise(&mut rng));
            let n = 1 + rng.below(u64::from(block_instrs)) as u32;
            let mut forged = vec![TAG_BLOCK];
            forged.extend_from_slice(&n.to_le_bytes());
            forged.extend(noise(&mut rng));
            frames.push(forged);
        }
        let mut decoded_ok = 0;
        for frame in &frames {
            let Ok(block) = Block::parse(frame, block_instrs) else {
                continue;
            };
            assert!(block.body.len() as u64 <= MAX_INSTR_BYTES * u64::from(block.n_instrs));
            let mut instrs = Vec::new();
            if decode_block_into(block.body, block.n_instrs as usize, &mut instrs).is_ok() {
                decoded_ok += 1;
            }
            assert!(instrs.len() <= block.n_instrs as usize);
            assert!(instrs.capacity() <= block_instrs as usize);
        }
        // The untouched frames still decode.
        assert!(decoded_ok >= 24, "{decoded_ok}");
    }

    #[test]
    fn delta_varint_encoding_stays_under_four_bytes_per_instr() {
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
