//! Retired-instruction trace model for the Untangle reproduction.
//!
//! Untangle's design principles (§5.2 of the paper) make resizing
//! decisions depend only on the *retired dynamic instruction sequence* —
//! never on instruction timing. This crate provides that sequence:
//!
//! * [`instr`] — the instruction model: memory/compute operations,
//!   cache-line addresses, and the secret [`Annotations`] that the
//!   paper's static analyses would insert (data-dependent resource use,
//!   control-dependence on secrets).
//! * [`source`] — the [`TraceSource`] abstraction plus combinators
//!   ([`source::Take`], [`source::Chain`], [`source::Interleave`]) used to
//!   compose workloads (e.g. the paper's 1 M crypto / 10 M SPEC loop).
//! * [`synth`] — parameterized synthetic address-stream generators that
//!   stand in for SPEC17 SimPoint slices and OpenSSL kernels (see
//!   DESIGN.md, "Substitutions").
//! * [`annotate`] — §7's coarse (page-table-bit style) annotation
//!   transport: region-based annotation of legacy traces.
//! * [`file`](mod@file) — the on-disk trace format: WAL-framed, checksummed,
//!   block-compressed, with annotations in-band; [`file::TraceWriter`]
//!   journals generation durably (crash-resumable, byte-identical) and
//!   [`file::FileSource`] streams finished traces block by block.
//! * [`pack`] — the hand-rolled, dependency-free LZ77 block compressor
//!   behind the file format.
//! * [`bbv`] + [`simpoint`] — SimPoint-style phase sampling: interval
//!   region-touch vectors, deterministic seeded k-means, and the
//!   weighted [`simpoint::SliceReplay`] source.
//! * [`snippets`] — the three leaking code patterns of Figure 1
//!   (secret-gated traversal, secret-strided traversal, secret-delayed
//!   traversal), used by tests and examples to demonstrate action and
//!   scheduling leakage.
//!
//! # Example
//!
//! ```
//! use untangle_trace::source::TraceSource;
//! use untangle_trace::synth::{WorkingSetModel, WorkingSetConfig};
//!
//! let mut src = WorkingSetModel::new(WorkingSetConfig {
//!     working_set_bytes: 1 << 20,
//!     ..WorkingSetConfig::default()
//! }, 42);
//! let instr = src.next_instr().expect("infinite source");
//! assert!(!instr.annotations.secret_data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotate;
pub mod bbv;
pub mod file;
pub mod instr;
pub mod pack;
pub mod simpoint;
pub mod snippets;
pub mod source;
pub mod synth;

pub use instr::{Annotations, Instr, InstrKind, LineAddr, MemAccess, MemKind};
pub use source::TraceSource;
