//! `untangle-serve`: a sharded, multi-tenant partitioning-as-a-service
//! daemon over the Untangle decision core.
//!
//! The batch driver (`untangle_core::runner`) owns its workloads end to
//! end: it simulates the cache, computes the utilization metric, and
//! decides resizing actions in one loop. This crate runs the *decision
//! half* of that loop as a long-lived service instead: clients admit
//! and retire security domains at runtime and stream per-domain
//! utilization telemetry (line-delimited JSON events); the service
//! answers with resizing decisions, applying the identical §5 machinery
//! — progress-based schedules, the leakage accountant with per-tenant
//! budgets, the random action delay δ, Maintain-optimized `R_max`
//! charging — through the shared [`untangle_core::DecisionCore`] step.
//!
//! # Architecture
//!
//! * [`event`] — the wire format: `admit` / `telemetry` / `retire`
//!   events in, typed decision/summary lines out, parsed and rendered
//!   with the workspace's hand-rolled JSON value.
//! * [`domain`] — [`domain::DomainDecider`], one admitted domain's
//!   decision pipeline: schedule → budget gate → taint-guarded
//!   heuristic → [`untangle_core::DecisionCore::commit`].
//! * [`engine`] — [`engine::ServeEngine`], the sharded ingest engine.
//!   Domains are assigned to shards by a deterministic FNV-1a hash;
//!   each shard **exclusively owns** its domains' mutable state, so the
//!   fan-out (one `std::thread` per shard) shares no mutable hot state. Read-only state — the scheme
//!   parameters and the precomputed `R_max` accounting models, resolved
//!   through the process-wide `RmaxCache` — is shared by reference.
//!   Output lines carry their ingest index and are merged
//!   deterministically, so the emitted stream is byte-identical for any
//!   shard count.
//! * [`synth`] — deterministic synthetic event streams for tests and
//!   benchmarks, plus the batch-equivalence harness that exports a
//!   `Runner` run's telemetry tap and replays it through the service.
//! * [`durable`] — [`durable::DurableServer`], the crash-consistent
//!   driver: journal-before-apply WAL, periodic engine snapshots, and a
//!   recoverable output log that replays to a byte-identical decision
//!   stream after a kill or torn write at any durability boundary.
//!   Tenant budgets recover **fail-closed**: ambiguity from mid-log
//!   journal damage is charged at the conventional worst case, never
//!   under-counted.
//!
//! # Security posture
//!
//! Taint is enforced, not assumed: telemetry payloads enter as
//! [`untangle_core::Labeled`] values (the event's `tainted` flag sets
//! the label), Untangle-scheme domains consume them through the
//! mandatory-public guard, and a tenant whose leakage budget is
//! exhausted has its payload *tainted and refused* at the named site
//! [`untangle_core::taint::sites::TENANT_BUDGET_EXHAUSTED`] — the
//! fail-closed path is a recorded taint violation, not a bypassable
//! branch. Every shard drains its queue inside a taint-audit capture;
//! `untangle-analysis` turns the captured logs into a certificate
//! (`Certificate::from_audit`) for the live service.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domain;
pub mod durable;
pub mod engine;
pub mod event;
pub mod synth;

pub use domain::{Decision, DomainDecider, Outcome};
pub use durable::{DurableServer, ServeRecovery};
pub use engine::{ServeConfig, ServeEngine};
pub use event::{Admit, Event, ServeScheme, Telemetry};
