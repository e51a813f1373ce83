//! The scenario sweep behind `exp_scenarios`: on-disk trace generation,
//! SimPoint-style phase sampling, and weighted slice replay, measured
//! against full-trace references.
//!
//! The pipeline per scenario (all deterministic, all resumable):
//!
//! 1. **Generate** the scenario's trace into `<out>/traces/` through
//!    [`TraceWriter`] — blocks are committed to the durable WAL in
//!    batches, so a kill mid-generation (including under
//!    `UNTANGLE_FAULT_INJECT`) leaves a valid prefix that
//!    [`generate_trace`] resumes to a byte-identical file. A trace
//!    already finished with the sweep's header is opened read-only,
//!    without the writer's recovery pass.
//! 2. **Profile** the trace into interval vectors
//!    ([`untangle_trace::bbv`]) and cluster them into weighted
//!    representative slices ([`untangle_trace::simpoint`]).
//! 3. **Replay** each slice under every scheme with instruction-count
//!    warmup ([`RunnerConfig::warmup_instrs`]): the slice's trace
//!    prefix replays with measurement off, so both the cache and the
//!    scheme's partition state are reconstructed before the measured
//!    window — which then aligns *exactly* with the representative
//!    interval. The replay is slice-major: each slice's blocks are read
//!    from disk once into a [`SliceBuffer`](untangle_trace::file::SliceBuffer)
//!    and all five schemes replay it from memory. Per-slice results
//!    combine by cluster weight in *CPI* space
//!    ([`untangle_sim::stats::weighted_mean`] over cycles per
//!    instruction): intervals hold instructions constant, so cycles —
//!    not IPC — are what add across the trace.
//! 4. **Validate** every `validate_every`-th scenario against a
//!    full-trace run under the same warmup treatment, streamed from
//!    disk a block at a time, recording the sampled-vs-full IPC and
//!    leakage error ([`untangle_sim::stats::relative_error`]).
//!
//! Steps 2–4 cut every stream from one [`TraceFile`] handle, so the
//! trace is scanned once per scenario, and fail the scenario when a
//! read error poisons that handle.
//!
//! The sweep runs through the same engine as the mix sweep,
//! [`crate::checkpoint::run_sweep`]: completed scenarios checkpoint
//! through a [`CheckpointStore`], fingerprinted over every sweep
//! setting plus both format versions, so `--resume` can never replay a
//! checkpoint into a differently-configured sweep.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use untangle_core::runner::{DomainReport, Runner, RunnerConfig};
use untangle_core::scheme::SchemeKind;
use untangle_core::UntangleError;
use untangle_obs as obs;
use untangle_sim::config::PartitionSize;
use untangle_sim::stats::{relative_error, stable_sum, weighted_mean};
use untangle_trace::bbv::{interval_vectors, BbvConfig};
use untangle_trace::file::{
    FileSource, TraceFile, TraceFileError, TraceWriter, DEFAULT_BLOCK_INSTRS,
};
use untangle_trace::simpoint::{choose_slices, SimPointConfig, Slice};
use untangle_trace::TraceSource;
use untangle_workloads::scenario::{scenario_set, Scenario};

use crate::checkpoint::{
    self, run_sweep, Checkpoint, CheckpointStore, SweepOutcome, FORMAT_VERSION,
};
use crate::parallel::RetryPolicy;
use crate::report::Json;

/// The schemes every scenario is swept over: the paper's four plus
/// SecDcp (which, with every domain defaulting to Sensitive, pins the
/// static floor — a useful reference column).
pub const SCHEMES: [SchemeKind; 5] = [
    SchemeKind::Static,
    SchemeKind::Time,
    SchemeKind::Untangle,
    SchemeKind::Shared,
    SchemeKind::SecDcp,
];

/// All knobs of one sweep. Every field is part of the checkpoint
/// fingerprint: change anything and previously-saved scenarios are
/// recomputed rather than resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSettings {
    /// Scenarios to generate and evaluate (class-balanced round-robin).
    pub count: usize,
    /// Instructions per scenario trace.
    pub trace_instrs: u64,
    /// Instructions per on-disk trace block.
    pub block_instrs: u32,
    /// SimPoint profiling interval (the unit of slice replay).
    pub interval_instrs: u64,
    /// Maximum representative slices per trace.
    pub max_slices: usize,
    /// Every `validate_every`-th scenario also runs the full trace and
    /// records the sampling error. `0` disables validation.
    pub validate_every: usize,
}

impl SweepSettings {
    /// The full sweep: 120 scenarios of 2.4 M instructions. Six
    /// 25 k-instruction slices behind a 250 k warmup replay 1.65 M
    /// instructions per scheme — a 1.45x saving over the full trace
    /// that grows with trace length, since the warmup cost is flat.
    /// `validate_every` is deliberately coprime to the four-class
    /// round-robin: 10 would validate only the phase-shift and bursty
    /// classes, 9 walks through all four.
    pub fn full() -> Self {
        Self {
            count: 120,
            trace_instrs: 2_400_000,
            block_instrs: DEFAULT_BLOCK_INSTRS,
            interval_instrs: 25_000,
            max_slices: 6,
            validate_every: 9,
        }
    }

    /// A CI-sized smoke sweep: two scenarios per class, short traces.
    pub fn smoke() -> Self {
        Self {
            count: 8,
            trace_instrs: 24_000,
            block_instrs: 1024,
            interval_instrs: 4_000,
            max_slices: 3,
            validate_every: 4,
        }
    }

    /// Warmup prefix replayed before a measured span: two full
    /// profiling intervals, floored at two average working-set fills,
    /// sized (together with the small machine of
    /// [`SweepSettings::runner_config`]) so the state a slice inherits
    /// — cache contents, the scheme's partition size, and its
    /// rate-limiter maturity — can actually be reconstructed before
    /// measurement starts. An under-warmed replay underestimates IPC on
    /// every warm-cache phase: at half an interval of warmup the
    /// sweep's validation error was 30–70%, dominated entirely by cold
    /// misses, and at one interval the 8 k-line shared cache was still
    /// cold enough to cost Shared/Time 12–50%. The 250 k-instruction
    /// floor is where the *scheme* trajectory converges, not the cache:
    /// a demand-driven scheme regrows its partition from the initial
    /// 128 kB share on every replay, but only when the warmup window
    /// contains demand — so the prefix must span the workload's phase
    /// recurrence (~125 k instructions for the phase-shifting class),
    /// not just the cache-fill cost. Prefix probes: 57–67% IPC error at
    /// a 50 k warmup, a heavily-weighted slice still 48% low at 150 k
    /// (its warmup window fell inside a low-demand phase), under 0.1%
    /// from 250 k on. The floor — not the two intervals — yields to a
    /// quarter of the trace so tiny smoke sweeps still measure more
    /// than they warm.
    pub fn warmup_instrs(&self) -> u64 {
        let floor = 250_000.min(self.trace_instrs / 4);
        (2 * self.interval_instrs).max(floor)
    }

    /// Whether the scenario at `index` runs the full-trace validation.
    pub fn validated(&self, index: usize) -> bool {
        self.validate_every > 0 && index.is_multiple_of(self.validate_every)
    }

    /// The runner configuration shared by every run of the sweep.
    ///
    /// Starts from the unit-test scale, then makes two changes that the
    /// sampling methodology depends on:
    ///
    /// * **A small machine.** The LLC shrinks to 512 kB with a 128 kB
    ///   initial share, so the *largest* cache state a dynamic scheme
    ///   can build (8 k lines) refills within one interval of warmup.
    ///   On the full-size machine a 2 MB share takes ~80 k instructions
    ///   to fill — longer than a whole slice — and replayed slices
    ///   systematically underestimate IPC by 30–70%.
    /// * **Tight assessment schedules.** Both schedules drop to an
    ///   eighth of the profiling interval, so even a single replayed
    ///   slice sees several assessments — without that, per-slice
    ///   leakage would quantize to zero and the sampling-error
    ///   measurement would be meaningless.
    pub fn runner_config(&self, kind: SchemeKind) -> RunnerConfig {
        let mut config = RunnerConfig::test_scale(kind, 1);
        config.machine.llc_bytes = 512 << 10;
        config.machine.umon_window = 1024;
        config.initial_partition = PartitionSize::KB128;
        config.params.heuristic.min_window_fill = config.machine.umon_window / 2;
        let assess = (self.interval_instrs / 8).max(256);
        config.params.progress_interval_instrs = assess;
        config.params.time_interval_cycles = assess as f64;
        config
    }

    fn bbv_config(&self) -> BbvConfig {
        BbvConfig {
            interval_instrs: self.interval_instrs,
            ..BbvConfig::default()
        }
    }

    fn simpoint_config(&self) -> SimPointConfig {
        SimPointConfig {
            max_slices: self.max_slices,
            ..SimPointConfig::default()
        }
    }
}

fn trace_err(e: TraceFileError) -> UntangleError {
    UntangleError::Io(e.to_string())
}

/// The on-disk path of one scenario's trace.
pub fn trace_path(dir: &Path, scenario: &Scenario) -> PathBuf {
    dir.join(format!("{}.trace", scenario.name()))
}

/// The header metadata of a scenario's trace: the scenario identity and
/// the sweep's trace length.
fn trace_meta(scenario: &Scenario, settings: &SweepSettings) -> String {
    format!("{} instrs={}", scenario.meta(), settings.trace_instrs)
}

/// Generates (or resumes, or validates) the scenario's trace file.
///
/// Idempotent and crash-consistent: a fresh call generates the whole
/// trace, a call over a killed generation fast-forwards the
/// deterministic source by the durable prefix and appends the rest
/// (byte-identical to an uninterrupted run), and a call over a finished
/// file verifies its length and returns immediately. The header carries
/// the scenario metadata *and* the target length, so a settings change
/// surfaces as a header-mismatch error instead of silently mixing
/// layouts.
///
/// # Errors
///
/// [`UntangleError`] on IO failure, a mismatched header, or a finished
/// file of the wrong length.
pub fn generate_trace(
    dir: &Path,
    scenario: &Scenario,
    settings: &SweepSettings,
) -> Result<PathBuf, UntangleError> {
    let path = trace_path(dir, scenario);
    let meta = trace_meta(scenario, settings);
    let (mut writer, resume) =
        TraceWriter::open(&path, settings.block_instrs, &meta).map_err(trace_err)?;
    let already = match resume {
        untangle_trace::file::Resume::Complete { instrs } => {
            if instrs != settings.trace_instrs {
                return Err(UntangleError::InvalidConfig(format!(
                    "trace {} is finished with {instrs} instructions, sweep wants {}",
                    path.display(),
                    settings.trace_instrs
                )));
            }
            return Ok(path);
        }
        untangle_trace::file::Resume::Fresh => 0,
        untangle_trace::file::Resume::Partial { instrs } => {
            if instrs > settings.trace_instrs {
                return Err(UntangleError::InvalidConfig(format!(
                    "unfinished trace {} already holds {instrs} instructions, sweep wants {}",
                    path.display(),
                    settings.trace_instrs
                )));
            }
            obs::counter_add("scenarios.traces_resumed", 1);
            obs::diag!(
                "resuming {} at instruction {instrs} of {}",
                path.display(),
                settings.trace_instrs
            );
            instrs
        }
    };
    let mut source = scenario.source();
    for _ in 0..already {
        if source.next_instr().is_none() {
            return Err(UntangleError::InvalidConfig(format!(
                "scenario {} ended before its durable prefix of {already}",
                scenario.name()
            )));
        }
    }
    let want = settings.trace_instrs - already;
    let appended = writer.append_source(&mut source, want).map_err(trace_err)?;
    if appended != want {
        return Err(UntangleError::InvalidConfig(format!(
            "scenario {} ended after {appended} of {want} instructions",
            scenario.name()
        )));
    }
    writer.finish().map_err(trace_err)?;
    obs::counter_add("scenarios.traces_generated", 1);
    Ok(path)
}

/// Profiles a finished trace and picks its weighted representative
/// slices: [`TraceFile::open`] then [`sample_trace`].
///
/// # Errors
///
/// As [`sample_trace`], plus if the trace cannot be opened.
pub fn sample_slices(path: &Path, settings: &SweepSettings) -> Result<Vec<Slice>, UntangleError> {
    sample_trace(&TraceFile::open(path).map_err(trace_err)?, settings)
}

/// Profiles an opened trace — one disk stream over the whole file —
/// and picks its weighted representative slices.
///
/// # Errors
///
/// [`UntangleError`] if the profile stream cannot be opened or poisons
/// mid-profile.
pub fn sample_trace(
    trace: &TraceFile,
    settings: &SweepSettings,
) -> Result<Vec<Slice>, UntangleError> {
    let mut source = trace.stream(0, u64::MAX).map_err(trace_err)?;
    let total = trace.info().total_instrs;
    let vectors = interval_vectors(&mut source, &settings.bbv_config());
    if let Some(e) = trace.poisoned() {
        return Err(trace_err(e.clone()));
    }
    // Cluster only the intervals the full-trace reference measures:
    // everything from the warmup boundary on. Early intervals are both
    // outside the reference window and impossible to replay faithfully
    // (a slice at offset 0 has no prefix to warm from), so including
    // them skews the cluster weights against the comparable region.
    let interval = settings.interval_instrs;
    let base = (settings.warmup_instrs().min(total).div_ceil(interval) as usize)
        .min(vectors.len().saturating_sub(1));
    let mut slices = choose_slices(
        &vectors[base..],
        interval,
        total - base as u64 * interval,
        &settings.simpoint_config(),
    );
    for slice in &mut slices {
        slice.interval += base;
        slice.offset_instrs += base as u64 * interval;
    }
    Ok(slices)
}

/// Replays one stream of `trace` under `kind`: the first `prefix`
/// instructions run with measurement off (instruction-count warmup, so
/// the measured window starts exactly after them), then `len` are
/// measured. Returns the domain report of the measured span.
///
/// # Errors
///
/// [`UntangleError`] if the runner fails, or if the trace's handle is
/// poisoned after the run: a read error ended the stream early, and
/// the estimate it left must not be recorded.
fn measured_run(
    trace: &TraceFile,
    kind: SchemeKind,
    settings: &SweepSettings,
    prefix: u64,
    len: u64,
    source: FileSource,
) -> Result<DomainReport, UntangleError> {
    let mut config = settings.runner_config(kind);
    config.warmup_instrs = Some(prefix);
    config.slice_instrs = len;
    let report = Runner::new(config, vec![Box::new(source)])?
        .run()
        .domains
        .into_iter()
        .next()
        .ok_or_else(|| UntangleError::InvalidConfig("runner produced no domains".to_string()))?;
    match trace.poisoned() {
        Some(e) => Err(trace_err(e.clone())),
        None => Ok(report),
    }
}

/// One scheme's sampled estimate for a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeEstimate {
    /// Scheme name (matches [`SchemeKind::name`]).
    pub kind: String,
    /// Sampled IPC estimate (cluster weights combined in CPI space).
    pub ipc: f64,
    /// Sampled leakage estimate in bits per assessment (weighted total
    /// bits over weighted total assessments).
    pub bits_per_assessment: f64,
    /// Total assessments across the replayed slices.
    pub assessments: u64,
    /// Maintain decisions across the replayed slices.
    pub maintains: u64,
    /// Instructions simulated to produce the estimate.
    pub simulated_instrs: u64,
}

/// The sampled-vs-full check for one scheme of a validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeValidation {
    /// Scheme name.
    pub kind: String,
    /// IPC of the full-trace reference run.
    pub full_ipc: f64,
    /// Leakage of the reference run in bits per assessment.
    pub full_bits_per_assessment: f64,
    /// Relative IPC error of the sampled estimate.
    pub ipc_error: f64,
    /// Relative leakage error (absolute gap when the reference is 0).
    pub leakage_error: f64,
}

/// Everything the sweep records about one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario id within the sweep.
    pub id: u32,
    /// Stable scenario name, e.g. `bursty_002`.
    pub name: String,
    /// Scenario class name.
    pub class: String,
    /// Trace length in instructions.
    pub trace_instrs: u64,
    /// Representative slices chosen by the sampler.
    pub slices: usize,
    /// Estimates in [`SCHEMES`] order.
    pub schemes: Vec<SchemeEstimate>,
    /// Full-trace validation, present on every `validate_every`-th
    /// scenario (in [`SCHEMES`] order, same length as `schemes`).
    pub validation: Vec<SchemeValidation>,
}

impl ScenarioResult {
    /// Instructions simulated across every scheme's sampled estimate.
    pub fn sampled_instrs(&self) -> u64 {
        self.schemes.iter().map(|s| s.simulated_instrs).sum()
    }

    /// Serializes to the checkpoint JSON payload.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::Int(i64::from(self.id))),
            ("name", Json::Str(self.name.clone())),
            ("class", Json::Str(self.class.clone())),
            ("trace_instrs", Json::Int(self.trace_instrs as i64)),
            ("slices", Json::Int(self.slices as i64)),
            (
                "schemes",
                Json::Arr(
                    self.schemes
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("kind", Json::Str(s.kind.clone())),
                                ("ipc", Json::Num(s.ipc)),
                                ("bits_per_assessment", Json::Num(s.bits_per_assessment)),
                                ("assessments", Json::Int(s.assessments as i64)),
                                ("maintains", Json::Int(s.maintains as i64)),
                                ("simulated_instrs", Json::Int(s.simulated_instrs as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "validation",
                Json::Arr(
                    self.validation
                        .iter()
                        .map(|v| {
                            Json::obj(vec![
                                ("kind", Json::Str(v.kind.clone())),
                                ("full_ipc", Json::Num(v.full_ipc)),
                                (
                                    "full_bits_per_assessment",
                                    Json::Num(v.full_bits_per_assessment),
                                ),
                                ("ipc_error", Json::Num(v.ipc_error)),
                                ("leakage_error", Json::Num(v.leakage_error)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes a checkpoint JSON payload.
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<ScenarioResult, String> {
        let str_field = |j: &Json, key: &str| -> Result<String, String> {
            checkpoint::field(j, key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("'{key}' is not a string"))
        };
        let num_field = |j: &Json, key: &str| -> Result<f64, String> {
            checkpoint::field(j, key)?
                .as_f64()
                .ok_or_else(|| format!("'{key}' is not a number"))
        };
        let int_field = |j: &Json, key: &str| -> Result<u64, String> {
            checkpoint::field(j, key)?
                .as_i64()
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| format!("'{key}' is not a non-negative integer"))
        };
        let schemes = checkpoint::field(json, "schemes")?
            .as_arr()
            .ok_or("'schemes' is not an array")?
            .iter()
            .map(|s| {
                Ok(SchemeEstimate {
                    kind: str_field(s, "kind")?,
                    ipc: num_field(s, "ipc")?,
                    bits_per_assessment: num_field(s, "bits_per_assessment")?,
                    assessments: int_field(s, "assessments")?,
                    maintains: int_field(s, "maintains")?,
                    simulated_instrs: int_field(s, "simulated_instrs")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let validation = checkpoint::field(json, "validation")?
            .as_arr()
            .ok_or("'validation' is not an array")?
            .iter()
            .map(|v| {
                Ok(SchemeValidation {
                    kind: str_field(v, "kind")?,
                    full_ipc: num_field(v, "full_ipc")?,
                    full_bits_per_assessment: num_field(v, "full_bits_per_assessment")?,
                    ipc_error: num_field(v, "ipc_error")?,
                    leakage_error: num_field(v, "leakage_error")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ScenarioResult {
            id: int_field(json, "id")
                .and_then(|i| u32::try_from(i).map_err(|_| "'id' does not fit u32".to_string()))?,
            name: str_field(json, "name")?,
            class: str_field(json, "class")?,
            trace_instrs: int_field(json, "trace_instrs")?,
            slices: checkpoint::field(json, "slices")?
                .as_i64()
                .and_then(|i| usize::try_from(i).ok())
                .ok_or("'slices' is not a non-negative integer")?,
            schemes,
            validation,
        })
    }
}

impl Checkpoint for ScenarioResult {
    const PAYLOAD_KEY: &'static str = "result";

    fn file_name(id: usize) -> String {
        format!("scenario{id:03}.json")
    }

    fn id(&self) -> usize {
        self.id as usize
    }

    fn to_payload(&self) -> Json {
        self.to_json()
    }

    fn from_payload(json: &Json) -> Result<Self, String> {
        ScenarioResult::from_json(json)
    }
}

/// One scheme's per-slice results, pushed in slice order.
#[derive(Debug, Default)]
struct SliceSums {
    cpi_pairs: Vec<(f64, f64)>,
    bit_pairs: Vec<(f64, f64)>,
    assess_pairs: Vec<(f64, f64)>,
    assessments: u64,
    maintains: u64,
    simulated: u64,
}

/// Estimates every scheme in [`SCHEMES`] order from the weighted slices,
/// slice by slice: each slice — its warmup prefix plus span — is read
/// from disk once into one shared buffer, and every scheme replays it
/// from there.
fn estimate_schemes(
    trace: &TraceFile,
    slices: &[Slice],
    settings: &SweepSettings,
) -> Result<Vec<SchemeEstimate>, UntangleError> {
    let path = trace.path();
    let mut sums: Vec<SliceSums> = SCHEMES.iter().map(|_| SliceSums::default()).collect();
    let mut buffer = Arc::new(trace.slice_buffer());
    for slice in slices {
        let prefix = settings.warmup_instrs().min(slice.offset_instrs);
        Arc::make_mut(&mut buffer)
            .fill(slice.offset_instrs - prefix, prefix + slice.len_instrs)
            .map_err(trace_err)?;
        for (kind, sums) in SCHEMES.iter().zip(&mut sums) {
            let report = measured_run(
                trace,
                *kind,
                settings,
                prefix,
                slice.len_instrs,
                buffer.replay(),
            )?;
            let ipc = report.ipc();
            if !(ipc.is_finite() && ipc > 0.0) {
                return Err(UntangleError::InvalidConfig(format!(
                    "slice at instruction {} of {} measured a non-positive IPC ({ipc})",
                    slice.offset_instrs,
                    path.display()
                )));
            }
            // Every slice measures the same number of instructions, so
            // the full-trace IPC (total instructions over total cycles)
            // is the weight-combined *CPI*, not IPC: cycles add across
            // intervals while a high-IPC slice contributes few of them.
            // Averaging IPC directly overestimates phase-shifting traces
            // by the arithmetic/harmonic mean gap (nearly 2x on synthetic
            // phase traces). Leakage combines the same way: weighted
            // total bits over weighted total assessments, since both are
            // per-interval counts.
            sums.cpi_pairs.push((ipc.recip(), slice.weight));
            sums.bit_pairs
                .push((report.leakage.total_bits, slice.weight));
            sums.assess_pairs
                .push((report.leakage.assessments as f64, slice.weight));
            sums.assessments += report.leakage.assessments;
            sums.maintains += report.leakage.maintains;
            sums.simulated += prefix + slice.len_instrs;
        }
    }
    let combined = |pairs: &[(f64, f64)]| -> Result<f64, UntangleError> {
        weighted_mean(pairs).ok_or_else(|| {
            UntangleError::InvalidConfig(format!(
                "ill-posed weighted mean over {} slices of {}",
                pairs.len(),
                path.display()
            ))
        })
    };
    SCHEMES
        .iter()
        .zip(sums)
        .map(|(kind, sums)| {
            let mean_assess = combined(&sums.assess_pairs)?;
            let bits_per_assessment = if mean_assess > 0.0 {
                combined(&sums.bit_pairs)? / mean_assess
            } else {
                0.0
            };
            Ok(SchemeEstimate {
                kind: kind.name().to_string(),
                ipc: combined(&sums.cpi_pairs)?.recip(),
                bits_per_assessment,
                assessments: sums.assessments,
                maintains: sums.maintains,
                simulated_instrs: sums.simulated,
            })
        })
        .collect()
}

/// Measures `kind` over the whole trace after the warmup prefix — a
/// disk stream, one block at a time — and compares `estimate` with it.
fn validate_scheme(
    trace: &TraceFile,
    kind: SchemeKind,
    estimate: &SchemeEstimate,
    settings: &SweepSettings,
) -> Result<SchemeValidation, UntangleError> {
    let warmup = settings.warmup_instrs().min(settings.trace_instrs);
    let source = trace.stream(0, settings.trace_instrs).map_err(trace_err)?;
    let full = measured_run(
        trace,
        kind,
        settings,
        warmup,
        settings.trace_instrs - warmup,
        source,
    )?;
    let full_ipc = full.ipc();
    let full_bits = full.leakage.bits_per_assessment();
    let err = |est: f64, reference: f64| -> Result<f64, UntangleError> {
        relative_error(est, reference).ok_or_else(|| {
            UntangleError::InvalidConfig(format!(
                "non-finite validation pair ({est}, {reference}) for {}",
                kind.name()
            ))
        })
    };
    Ok(SchemeValidation {
        kind: kind.name().to_string(),
        full_ipc,
        full_bits_per_assessment: full_bits,
        ipc_error: err(estimate.ipc, full_ipc)?,
        leakage_error: err(estimate.bits_per_assessment, full_bits)?,
    })
}

/// Runs one scenario end to end: open the trace (generating or resuming
/// it first when it is not finished with the sweep's settings), pick
/// slices, estimate every scheme, and — when `validate` — measure the
/// estimates against full-trace references. Every stream is cut from
/// the one [`TraceFile`] handle, and each slice is read from disk once
/// for all schemes.
///
/// # Errors
///
/// [`UntangleError`] on any stage failure; the sweep records it and
/// moves on.
pub fn evaluate_scenario(
    trace_dir: &Path,
    scenario: &Scenario,
    settings: &SweepSettings,
    validate: bool,
) -> Result<ScenarioResult, UntangleError> {
    let trace = open_trace(trace_dir, scenario, settings)?;
    let slices = sample_trace(&trace, settings)?;
    if slices.is_empty() {
        return Err(UntangleError::InvalidConfig(format!(
            "sampler produced no slices for {}",
            scenario.name()
        )));
    }
    let schemes = estimate_schemes(&trace, &slices, settings)?;
    let mut validation = Vec::new();
    if validate {
        for (kind, estimate) in SCHEMES.iter().zip(&schemes) {
            validation.push(validate_scheme(&trace, *kind, estimate, settings)?);
        }
    }
    Ok(ScenarioResult {
        id: scenario.id,
        name: scenario.name(),
        class: scenario.class.name().to_string(),
        trace_instrs: settings.trace_instrs,
        slices: slices.len(),
        schemes,
        validation,
    })
}

/// Opens the scenario's trace read-only when it is finished with the
/// sweep's header and length, so a rerun scans it once. Otherwise —
/// missing, unfinished, torn or written under other settings — it goes
/// through [`generate_trace`], which resumes or repairs it, or refuses
/// a mismatched header, and then opens it.
fn open_trace(
    dir: &Path,
    scenario: &Scenario,
    settings: &SweepSettings,
) -> Result<TraceFile, UntangleError> {
    if let Ok(trace) = TraceFile::open(&trace_path(dir, scenario)) {
        let info = trace.info();
        if info.block_instrs == settings.block_instrs
            && info.total_instrs == settings.trace_instrs
            && info.meta == trace_meta(scenario, settings)
        {
            return Ok(trace);
        }
    }
    let path = generate_trace(dir, scenario, settings)?;
    TraceFile::open(&path).map_err(trace_err)
}

/// The fingerprint tying a scenario checkpoint to one exact sweep
/// configuration: both format versions (checkpoint layout and trace
/// encoding), the scenario identity and seed, every [`SweepSettings`]
/// field, whether this scenario validates, and the scheme list.
pub fn scenario_fingerprint(
    scenario: &Scenario,
    settings: &SweepSettings,
    validate: bool,
) -> String {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&u64::from(FORMAT_VERSION).to_le_bytes());
    bytes.extend_from_slice(&u64::from(untangle_trace::file::FORMAT_VERSION).to_le_bytes());
    bytes.extend_from_slice(&u64::from(scenario.id).to_le_bytes());
    bytes.extend_from_slice(&scenario.seed().to_le_bytes());
    bytes.extend_from_slice(scenario.class.name().as_bytes());
    bytes.extend_from_slice(&(settings.count as u64).to_le_bytes());
    bytes.extend_from_slice(&settings.trace_instrs.to_le_bytes());
    bytes.extend_from_slice(&u64::from(settings.block_instrs).to_le_bytes());
    bytes.extend_from_slice(&settings.interval_instrs.to_le_bytes());
    bytes.extend_from_slice(&(settings.max_slices as u64).to_le_bytes());
    bytes.extend_from_slice(&(settings.validate_every as u64).to_le_bytes());
    bytes.push(u8::from(validate));
    for kind in SCHEMES {
        bytes.extend_from_slice(kind.name().as_bytes());
    }
    format!("{:016x}", untangle_durable::fnv1a(&bytes))
}

/// Runs the whole sweep: generation, sampling, per-scheme estimation,
/// and validation for all `settings.count` scenarios, through
/// [`run_sweep`] — fanned out with per-item panic isolation and
/// checkpoint resume.
///
/// Trace files land in `<out>/traces/`; checkpoints go to `store`.
/// `resume` controls whether existing checkpoints are consulted; they
/// are always written when a store is given.
///
/// # Errors
///
/// [`UntangleError`] only when the trace directory cannot be created;
/// per-scenario failures are recorded in the outcome instead.
pub fn run_scenario_sweep(
    out_dir: &Path,
    settings: &SweepSettings,
    store: Option<&CheckpointStore<ScenarioResult>>,
    resume: bool,
    policy: RetryPolicy,
) -> Result<SweepOutcome<ScenarioResult>, UntangleError> {
    let trace_dir = out_dir.join("traces");
    std::fs::create_dir_all(&trace_dir)?;
    let scenarios = scenario_set(settings.count);
    let keys: Vec<(usize, String)> = scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let fingerprint = scenario_fingerprint(s, settings, settings.validated(i));
            (s.id as usize, fingerprint)
        })
        .collect();
    Ok(run_sweep(&keys, store, resume, policy, |i| {
        evaluate_scenario(&trace_dir, &scenarios[i], settings, settings.validated(i))
    }))
}

/// Per-scheme aggregate over the whole sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeAggregate {
    /// Scheme name.
    pub kind: String,
    /// Mean sampled IPC across completed scenarios.
    pub mean_ipc: f64,
    /// Mean sampled leakage (bits per assessment).
    pub mean_bits_per_assessment: f64,
    /// Validated scenarios contributing to the error statistics.
    pub validated: usize,
    /// Mean relative IPC error on the validation subset.
    pub mean_ipc_error: f64,
    /// Worst relative IPC error on the validation subset.
    pub max_ipc_error: f64,
    /// Mean leakage error on the validation subset.
    pub mean_leakage_error: f64,
    /// Worst leakage error on the validation subset.
    pub max_leakage_error: f64,
}

/// Sweep-level aggregates for the report and the text tables.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Scenarios attempted.
    pub scenarios: usize,
    /// Scenarios that completed.
    pub completed: usize,
    /// Instructions simulated by the sampled estimates.
    pub sampled_instrs: u64,
    /// Instructions a full-trace sweep of the same runs would simulate
    /// (`completed × schemes × trace length`).
    pub full_instrs: u64,
    /// Aggregates in [`SCHEMES`] order.
    pub per_scheme: Vec<SchemeAggregate>,
}

impl SweepSummary {
    /// Simulation-cost ratio of sampled replay vs full traces.
    pub fn speedup(&self) -> f64 {
        if self.sampled_instrs == 0 {
            0.0
        } else {
            self.full_instrs as f64 / self.sampled_instrs as f64
        }
    }

    /// Worst IPC error across schemes (the headline acceptance number).
    pub fn worst_ipc_error(&self) -> f64 {
        self.per_scheme
            .iter()
            .map(|s| s.max_ipc_error)
            .fold(0.0, f64::max)
    }

    /// Worst leakage error across schemes.
    pub fn worst_leakage_error(&self) -> f64 {
        self.per_scheme
            .iter()
            .map(|s| s.max_leakage_error)
            .fold(0.0, f64::max)
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stable_sum(values) / values.len() as f64
    }
}

/// Aggregates completed scenario results into the sweep summary.
pub fn summarize(results: &[Option<ScenarioResult>], settings: &SweepSettings) -> SweepSummary {
    let completed: Vec<&ScenarioResult> = results.iter().flatten().collect();
    let mut per_scheme = Vec::with_capacity(SCHEMES.len());
    for (k, kind) in SCHEMES.iter().enumerate() {
        let ipcs: Vec<f64> = completed
            .iter()
            .filter_map(|r| r.schemes.get(k).map(|s| s.ipc))
            .collect();
        let bits: Vec<f64> = completed
            .iter()
            .filter_map(|r| r.schemes.get(k).map(|s| s.bits_per_assessment))
            .collect();
        let ipc_errors: Vec<f64> = completed
            .iter()
            .filter_map(|r| r.validation.get(k).map(|v| v.ipc_error))
            .collect();
        let leak_errors: Vec<f64> = completed
            .iter()
            .filter_map(|r| r.validation.get(k).map(|v| v.leakage_error))
            .collect();
        per_scheme.push(SchemeAggregate {
            kind: kind.name().to_string(),
            mean_ipc: mean(&ipcs),
            mean_bits_per_assessment: mean(&bits),
            validated: ipc_errors.len(),
            mean_ipc_error: mean(&ipc_errors),
            max_ipc_error: ipc_errors.iter().copied().fold(0.0, f64::max),
            mean_leakage_error: mean(&leak_errors),
            max_leakage_error: leak_errors.iter().copied().fold(0.0, f64::max),
        });
    }
    SweepSummary {
        scenarios: results.len(),
        completed: completed.len(),
        sampled_instrs: completed.iter().map(|r| r.sampled_instrs()).sum(),
        full_instrs: completed.len() as u64 * SCHEMES.len() as u64 * settings.trace_instrs,
        per_scheme,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use untangle_durable::wal::FrameReader;
    use untangle_workloads::scenario::ScenarioClass;

    fn tiny_settings() -> SweepSettings {
        SweepSettings {
            count: 2,
            trace_instrs: 6_000,
            block_instrs: 512,
            interval_instrs: 2_000,
            max_slices: 2,
            validate_every: 2,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("untangle-scenarios-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn scenario(id: u32) -> Scenario {
        Scenario {
            id,
            class: ScenarioClass::ALL[id as usize % ScenarioClass::ALL.len()],
        }
    }

    #[test]
    fn generation_is_idempotent_and_resumes_partial_files() {
        let settings = tiny_settings();
        let dir = temp_dir("gen");
        let s = scenario(1);

        let path = generate_trace(&dir, &s, &settings).expect("generate");
        let clean = std::fs::read(&path).expect("bytes");
        // A second call verifies and leaves the file untouched.
        generate_trace(&dir, &s, &settings).expect("idempotent");
        assert_eq!(std::fs::read(&path).expect("bytes"), clean);

        // Simulate a crashed generation: a crash leaves a byte prefix
        // of the finished file — here the header, 4 whole blocks and a
        // torn fifth — then resume through generate_trace.
        let dir2 = temp_dir("gen-resume");
        let path2 = trace_path(&dir2, &s);
        let mut frames = FrameReader::open(&path).expect("frame open");
        let mut frame = Vec::new();
        for _ in 0..5 {
            assert!(frames.next_frame(&mut frame).expect("frame"));
        }
        let cut = frames.offset() as usize + 7;
        std::fs::write(&path2, &clean[..cut]).expect("plant partial trace");
        generate_trace(&dir2, &s, &settings).expect("resume");
        assert_eq!(
            std::fs::read(&path2).expect("bytes"),
            clean,
            "resumed trace must be byte-identical to the uninterrupted one"
        );
    }

    /// An unfinished trace already longer than the sweep's trace
    /// length (same header) is refused, not resumed with a negative
    /// remainder.
    #[test]
    fn overlong_partial_trace_is_refused() {
        let settings = tiny_settings();
        let dir = temp_dir("gen-overlong");
        let s = scenario(1);
        let meta = trace_meta(&s, &settings);
        {
            let path = trace_path(&dir, &s);
            let (mut w, _) = TraceWriter::open(&path, settings.block_instrs, &meta).expect("open");
            w.append_source(&mut s.source(), 8_192).expect("append");
            w.finish().expect("finish");
            // Strip the trailer frame (a 12-byte frame header and a
            // 9-byte record): 16 durable blocks, no trailer.
            let bytes = std::fs::read(&path).expect("read");
            std::fs::write(&path, &bytes[..bytes.len() - (12 + 9)]).expect("strip trailer");
        }
        let e = generate_trace(&dir, &s, &settings).expect_err("must refuse");
        assert!(e.to_string().contains("8192"), "{e}");
    }

    /// A block corrupted on disk after the handle was opened fails the
    /// replay that reaches it — the slice read and the full-trace
    /// stream — instead of recording an estimate from a truncated
    /// stream.
    #[test]
    fn a_read_error_after_open_fails_the_replay() {
        let settings = tiny_settings();
        let dir = temp_dir("poisoned");
        let s = scenario(0);
        let path = generate_trace(&dir, &s, &settings).expect("generate");
        let trace = TraceFile::open(&path).expect("open");
        let slices = sample_trace(&trace, &settings).expect("sample");
        let estimates = estimate_schemes(&trace, &slices, &settings).expect("estimate");

        // Flip one byte inside the last block's body.
        let mut bytes = std::fs::read(&path).expect("read");
        let trailer_frame = 12 + 9;
        let at = bytes.len() - trailer_frame - 1;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).expect("corrupt");

        let last = Slice {
            interval: 0,
            offset_instrs: settings.trace_instrs - 100,
            len_instrs: 100,
            weight: 1.0,
        };
        let e = estimate_schemes(&trace, &[last], &settings).expect_err("slice read");
        assert!(e.to_string().contains("trace_read"), "{e}");
        assert!(trace.poisoned().is_none(), "the slice read fails directly");
        let e = validate_scheme(&trace, SCHEMES[0], &estimates[0], &settings)
            .expect_err("full-trace stream");
        assert!(e.to_string().contains("checksum"), "{e}");
        assert!(trace.poisoned().is_some());
    }

    #[test]
    fn mismatched_settings_are_rejected_not_mixed() {
        let settings = tiny_settings();
        let dir = temp_dir("gen-mismatch");
        let s = scenario(2);
        generate_trace(&dir, &s, &settings).expect("generate");
        let longer = SweepSettings {
            trace_instrs: settings.trace_instrs * 2,
            ..settings
        };
        let e = generate_trace(&dir, &s, &longer).expect_err("must reject");
        assert!(e.to_string().contains("mismatch"), "{e}");
        let e = evaluate_scenario(&dir, &s, &longer, false).expect_err("must reject");
        assert!(e.to_string().contains("mismatch"), "{e}");
    }

    #[test]
    fn evaluation_is_deterministic_and_validates() {
        let settings = tiny_settings();
        let dir = temp_dir("eval");
        let s = scenario(0);
        let a = evaluate_scenario(&dir, &s, &settings, true).expect("evaluate");
        let b = evaluate_scenario(&dir, &s, &settings, true).expect("evaluate again");
        assert_eq!(a, b, "evaluation must be bit-stable");
        assert_eq!(a.schemes.len(), SCHEMES.len());
        assert_eq!(a.validation.len(), SCHEMES.len());
        assert!(a.slices >= 1 && a.slices <= settings.max_slices);
        // Static never assesses; Time always does.
        assert_eq!(a.schemes[0].assessments, 0);
        assert!(a.schemes[1].assessments > 0, "{:?}", a.schemes[1]);
        for v in &a.validation {
            assert!(v.ipc_error.is_finite() && v.ipc_error >= 0.0, "{v:?}");
            assert!(
                v.leakage_error.is_finite() && v.leakage_error >= 0.0,
                "{v:?}"
            );
        }
    }

    #[test]
    fn result_json_roundtrips_bit_identically() {
        let settings = tiny_settings();
        let dir = temp_dir("json");
        let s = scenario(3);
        let result = evaluate_scenario(&dir, &s, &settings, true).expect("evaluate");
        let parsed =
            ScenarioResult::from_json(&Json::parse(&result.to_json().render()).expect("parse"))
                .expect("from_json");
        assert_eq!(parsed, result);
    }

    #[test]
    fn store_roundtrips_and_fingerprint_separates_settings() {
        let settings = tiny_settings();
        let dir = temp_dir("store");
        let s = scenario(1);
        let result = evaluate_scenario(&dir, &s, &settings, false).expect("evaluate");
        let store = CheckpointStore::<ScenarioResult>::new(dir.join("checkpoints")).expect("store");
        let fp = scenario_fingerprint(&s, &settings, false);
        assert!(store.load(1, &fp).expect("empty").is_none());
        store.save(&result, &fp).expect("save");
        assert_eq!(store.load(1, &fp).expect("load"), Some(result));

        // Any settings change — or the validation flag — recomputes.
        let other = SweepSettings {
            max_slices: settings.max_slices + 1,
            ..settings.clone()
        };
        assert_ne!(fp, scenario_fingerprint(&s, &other, false));
        assert_ne!(fp, scenario_fingerprint(&s, &settings, true));
        assert!(store
            .load(1, &scenario_fingerprint(&s, &other, false))
            .expect("mismatch is clean")
            .is_none());

        // Damage is detected, not parsed.
        std::fs::write(store.path_for(1), b"{ torn").expect("damage");
        assert!(matches!(
            store.load(1, &fp),
            Err(UntangleError::Checkpoint { .. })
        ));
    }

    #[test]
    fn sweep_completes_resumes_and_summarizes() {
        let settings = tiny_settings();
        let out = temp_dir("sweep");
        let store = CheckpointStore::<ScenarioResult>::new(out.join("checkpoints")).expect("store");
        let outcome =
            run_scenario_sweep(&out, &settings, Some(&store), false, RetryPolicy::default())
                .expect("sweep");
        assert!(outcome.is_complete(), "{:?}", outcome.errors);
        assert_eq!(outcome.resumed, 0);

        let summary = summarize(&outcome.results, &settings);
        assert_eq!(summary.scenarios, settings.count);
        assert_eq!(summary.completed, settings.count);
        assert_eq!(summary.per_scheme.len(), SCHEMES.len());
        // At this tiny scale (3 intervals, up to 2 slices + probe
        // warmup) sampling is *not* cheaper than the full trace; the
        // speedup claim is asserted on real settings by exp_scenarios.
        assert!(summary.sampled_instrs > 0 && summary.speedup() > 0.0);
        // Scenario 0 validated (validate_every = 2 over ids 0 and 1).
        assert_eq!(summary.per_scheme[0].validated, 1);

        // A resumed sweep restores every scenario from checkpoints and
        // produces identical results.
        let again = run_scenario_sweep(&out, &settings, Some(&store), true, RetryPolicy::default())
            .expect("resumed sweep");
        assert_eq!(again.resumed, settings.count);
        assert_eq!(again.results, outcome.results);
    }
}
