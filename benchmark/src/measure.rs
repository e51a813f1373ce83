//! Measurement plumbing shared by every workload: the result records a
//! workload process reports, the untraced pass (set-up repeats, a fixed
//! job count, medians), the per-source instruction counter with its
//! operation clock, the block-prefetching trace-source timer, and the
//! in-memory span recorder of the traced pass.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use untangle_obs::json::Json;
use untangle_trace::{Instr, TraceSource};

use crate::Workload;

/// Instructions a counting or prefetching wrapper handles per block: the
/// granularity of every clock read the benchmark adds to a trace source.
pub const BLOCK_INSTRS: usize = 4096;

/// Everything a workload process needs to know about its run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed: selects the generated inputs.
    pub seed: u64,
    /// Times the untraced pass runs the workload's job.
    pub jobs: usize,
    /// Run the CI-sized inputs instead of the full ones.
    pub smoke: bool,
    /// Scratch directory for traces and state files (removed by the
    /// parent afterwards).
    pub work: PathBuf,
}

/// One timed run of a workload's fixed job.
#[derive(Debug, Default)]
pub struct Job {
    /// Host seconds of the timed part.
    pub busy_s: f64,
    /// Latency of each operation in milliseconds.
    pub op_ms: Vec<f64>,
    /// Units of work (simulated instructions or decision lines) each
    /// operation of `op_ms` completed.
    pub op_work: Vec<u64>,
    /// Operations attempted (domain-runs, scenarios or events).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Human-readable description of every failed check.
    pub problems: Vec<String>,
    /// Digest of the job's outputs.
    pub digest: u64,
}

impl Job {
    /// Records a failed check that spoils `ops` operations.
    pub fn fail(&mut self, ops: u64, problem: String) {
        self.failed = (self.failed + ops).min(self.attempted);
        self.problems.push(problem);
    }
}

/// What a workload process reports back to the parent process.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Every failed check.
    pub problems: Vec<String>,
    /// Output digest (identical across repetitions and passes).
    pub digest: u64,
    /// Median host seconds of one timed job.
    pub job_s: f64,
    /// Measured metrics by name; units come from `BENCHMARK.json`.
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// The value of metric `name`, if measured.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Adds or replaces a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// Serializes for the process boundary.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            (
                "problems",
                Json::Arr(self.problems.iter().cloned().map(Json::Str).collect()),
            ),
            ("digest", Json::Str(format!("{:016x}", self.digest))),
            ("job_s", Json::Num(self.job_s)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses [`Outcome::to_json`] output.
    pub fn from_json(json: &Json) -> Result<Outcome, String> {
        let int = |key: &str| {
            json.get(key)
                .and_then(Json::as_i64)
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| format!("outcome field '{key}' missing"))
        };
        let digest = json
            .get("digest")
            .and_then(Json::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("outcome field 'digest' missing")?;
        let problems = json
            .get("problems")
            .and_then(Json::as_arr)
            .ok_or("outcome field 'problems' missing")?
            .iter()
            .filter_map(|p| p.as_str().map(str::to_string))
            .collect();
        let metrics = match json.get("metrics") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or(format!("metric {k}"))?)))
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("outcome field 'metrics' missing".to_string()),
        };
        Ok(Outcome {
            attempted: int("attempted")?,
            failed: int("failed")?,
            problems,
            digest,
            job_s: json
                .get("job_s")
                .and_then(Json::as_f64)
                .ok_or("outcome field 'job_s' missing")?,
            metrics,
        })
    }
}

/// Folds per-item hashes into one output digest, reusing the FNV-1a of
/// `untangle-durable` rather than a hash of its own.
#[derive(Debug, Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    /// Adds one item's bytes.
    pub fn add(&mut self, bytes: &[u8]) {
        self.0
            .extend_from_slice(&untangle_durable::fnv1a(bytes).to_le_bytes());
    }

    /// The digest of every item added, in order.
    pub fn finish(&self) -> u64 {
        untangle_durable::fnv1a(&self.0)
    }
}

/// Median (mean of the middle pair for an even count); `0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `[0, 1]`; `0` when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process in MB (`VmHWM`), or `0` where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The quantile every end-to-end time is read at: the fastest tenth of the
/// set-ups and of the operations. Other tenants of a shared host slow a
/// share of a run's operations that changes from run to run and from
/// minute to minute; the fastest tenth is what they leave alone, so it
/// follows the program and not the neighbours.
pub const FAST_QUANTILE: f64 = 0.10;

/// Slices the timed part of an untraced pass is cut into for
/// `op.work_per_s`.
const RATE_SLICES: usize = 16;

/// The median, over [`RATE_SLICES`] runs of consecutive operations, of
/// work done per second.
fn sliced_rate(op_ms: &[f64], op_work: &[u64]) -> f64 {
    let per_slice = op_ms.len().div_ceil(RATE_SLICES).max(1);
    let rates: Vec<f64> = op_ms
        .chunks(per_slice)
        .zip(op_work.chunks(per_slice))
        .map(|(ms, work)| frac(work.iter().sum::<u64>() as f64 * 1e3, ms.iter().sum()))
        .collect();
    median(&rates)
}

/// Runs a workload's untraced pass: `setup_reps` timed set-ups (the last
/// one's product feeds the first job), then `ctx.jobs` jobs, each after
/// the first with an untimed set-up of its own. Reports the end-to-end
/// metrics, scaled to nominal host speed (see [`host_slowdown`]), and
/// the operation-latency tail.
pub fn untraced_pass<R>(
    ctx: &Ctx,
    setup_reps: usize,
    mut setup: impl FnMut() -> Result<R, String>,
    mut job: impl FnMut(R) -> Result<Job, String>,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(setup_reps);
    let mut ready = None;
    for _ in 0..setup_reps.max(1) {
        let t = Instant::now();
        let r = setup()?;
        setup_s.push(t.elapsed().as_secs_f64());
        probe_due();
        ready = Some(r);
    }
    let mut jobs: Vec<Job> = Vec::with_capacity(ctx.jobs);
    while let Some(r) = ready.take() {
        jobs.push(job(r)?);
        if jobs.len() < ctx.jobs {
            ready = Some(setup()?);
        }
    }

    let mut out = Outcome {
        digest: jobs[0].digest,
        job_s: median(&jobs.iter().map(|j| j.busy_s).collect::<Vec<_>>()),
        ..Outcome::default()
    };
    let (mut op_ms, mut op_work) = (Vec::new(), Vec::new());
    for (i, j) in jobs.iter_mut().enumerate() {
        out.attempted += j.attempted;
        out.failed += j.failed;
        out.problems.append(&mut j.problems);
        if j.digest != out.digest {
            out.failed += j.attempted;
            out.problems.push(format!(
                "repetition {i} digest {:016x} differs from the first {:016x}",
                j.digest, out.digest
            ));
        }
        op_ms.extend_from_slice(&j.op_ms);
        op_work.extend_from_slice(&j.op_work);
    }
    out.failed = out.failed.min(out.attempted);
    let slowdown = host_slowdown();
    out.set("setup_s", percentile(&setup_s, FAST_QUANTILE) / slowdown);
    out.set("op_p10_ms", percentile(&op_ms, FAST_QUANTILE) / slowdown);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("op.samples", op_ms.len() as f64);
    out.set("op.p50_ms", median(&op_ms) / slowdown);
    out.set("op.p90_ms", percentile(&op_ms, 0.90) / slowdown);
    out.set("op.p99_ms", percentile(&op_ms, 0.99) / slowdown);
    out.set("op.work_per_s", sliced_rate(&op_ms, &op_work) * slowdown);
    Ok(out)
}

// ---------------------------------------------------------------------
// Host-speed probe
// ---------------------------------------------------------------------

/// Seconds [`probe_kernel`] takes on the calibration machine of
/// `README.md` at its usual speed: the speed every end-to-end time is
/// scaled to.
const PROBE_NOMINAL_S: f64 = 0.000_5;
/// Least host time between two probes, which keeps them near 1% of a run.
const PROBE_EVERY_S: f64 = 0.05;

#[derive(Debug, Default)]
struct Probes {
    last: Option<Instant>,
    secs: Vec<f64>,
    total_s: f64,
}

thread_local! {
    static PROBES: RefCell<Probes> = RefCell::new(Probes::default());
}

/// A fixed chain of dependent integer operations that touches no memory.
/// Its time follows only the speed the host gives this thread (clock rate,
/// a busy sibling hyperthread), and no code in the repository runs in it.
fn probe_kernel() -> u64 {
    let mut y = 0u64;
    for i in 0..std::hint::black_box(600_000u64) {
        y = y.wrapping_add(i.wrapping_mul(i)) ^ (y >> 3);
    }
    y
}

/// Times [`probe_kernel`] once if at least [`PROBE_EVERY_S`] passed since
/// the last probe. Workloads call it between operations, outside every
/// timed interval.
pub fn probe_due() {
    PROBES.with(|p| {
        let mut p = p.borrow_mut();
        if p.last.is_some_and(|t| secs(t) < PROBE_EVERY_S) {
            return;
        }
        let t = Instant::now();
        std::hint::black_box(probe_kernel());
        let s = secs(t);
        p.secs.push(s);
        p.total_s += s;
        p.last = Some(Instant::now());
    });
}

/// Host seconds spent in probes so far, for intervals that enclose some.
pub fn probe_s() -> f64 {
    PROBES.with(|p| p.borrow().total_s)
}

/// How much slower than nominal the host ran this process: the median
/// probe time over [`PROBE_NOMINAL_S`], or 1 before any probe. Dividing a
/// measured time by it gives the time at nominal host speed. Other
/// tenants of a shared machine change its speed over seconds to minutes;
/// the probe runs amid the workload, so the ratio cancels the part of that
/// drift that slows every instruction alike, though not contention for
/// the shared cache and memory.
pub fn host_slowdown() -> f64 {
    PROBES.with(|p| {
        let p = p.borrow();
        if p.secs.is_empty() {
            1.0
        } else {
            median(&p.secs) / PROBE_NOMINAL_S
        }
    })
}

// ---------------------------------------------------------------------
// Counting sources and the operation clock
// ---------------------------------------------------------------------

/// Per-thread tally behind [`Counted`]: instructions delivered per source
/// and a latency sample every `op_instrs` instructions across all sources.
#[derive(Debug, Default)]
struct OpClock {
    per_source: Vec<u64>,
    total: u64,
    op_instrs: u64,
    next_mark: u64,
    last: Option<Instant>,
    op_ms: Vec<f64>,
}

thread_local! {
    static CLOCK: RefCell<OpClock> = RefCell::new(OpClock::default());
}

/// Resets the operation clock for `sources` sources and starts timing.
pub fn clock_start(sources: usize, op_instrs: u64) {
    CLOCK.with(|c| {
        *c.borrow_mut() = OpClock {
            per_source: vec![0; sources],
            op_instrs,
            next_mark: op_instrs,
            last: Some(Instant::now()),
            ..OpClock::default()
        }
    });
}

fn clock_add(source: usize, n: u64) {
    CLOCK.with(|c| {
        let mut c = c.borrow_mut();
        if let Some(slot) = c.per_source.get_mut(source) {
            *slot += n;
        }
        c.total += n;
        if c.op_instrs > 0 && c.total >= c.next_mark {
            if let Some(last) = c.last {
                c.op_ms.push(secs(last) * 1e3);
            }
            probe_due();
            c.last = Some(Instant::now());
            while c.next_mark <= c.total {
                c.next_mark += c.op_instrs;
            }
        }
    });
}

/// Stops the clock: instructions delivered per source and the latency of
/// every completed operation.
pub fn clock_finish() -> (Vec<u64>, Vec<f64>) {
    CLOCK.with(|c| {
        let c = std::mem::take(&mut *c.borrow_mut());
        (c.per_source, c.op_ms)
    })
}

/// Counts the instructions a source delivers, reporting them to the
/// operation clock one block at a time (and the remainder on drop).
#[derive(Debug)]
pub struct Counted<S> {
    inner: S,
    source: usize,
    pending: u64,
}

impl<S> Counted<S> {
    /// Wraps `inner` as source number `source`.
    pub fn new(inner: S, source: usize) -> Self {
        Self {
            inner,
            source,
            pending: 0,
        }
    }
}

impl<S: TraceSource> TraceSource for Counted<S> {
    fn next_instr(&mut self) -> Option<Instr> {
        let instr = self.inner.next_instr();
        if instr.is_some() {
            self.pending += 1;
            if self.pending == BLOCK_INSTRS as u64 {
                clock_add(self.source, self.pending);
                self.pending = 0;
            }
        }
        instr
    }
}

impl<S> Drop for Counted<S> {
    fn drop(&mut self) {
        if self.pending > 0 {
            clock_add(self.source, self.pending);
        }
    }
}

// ---------------------------------------------------------------------
// Traced pass: spans and the prefetching source timer
// ---------------------------------------------------------------------

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    op: &'static str,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// Per-operation totals over every timed interval, spans or not.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpTotal {
    /// Intervals timed.
    pub calls: u64,
    /// Items the intervals processed (instructions, events, ...).
    pub items: u64,
    /// Summed duration in seconds.
    pub secs: f64,
}

#[derive(Debug)]
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u64>,
    totals: BTreeMap<&'static str, OpTotal>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        totals: BTreeMap::new(),
    });
}

/// An open timed interval; closing it (drop) records its duration under
/// its operation and, for a span, the span itself.
#[derive(Debug)]
pub struct Timed {
    op: &'static str,
    span: Option<usize>,
    start: Instant,
    items: u64,
}

impl Timed {
    /// Sets how many items the interval processed.
    pub fn items(&mut self, n: u64) {
        self.items = n;
    }
}

/// Opens a span `op`/`name` whose parent is the innermost open span.
pub fn span(op: &'static str, name: impl Into<String>) -> Timed {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let id = t.spans.len() as u64 + 1;
        let start = Instant::now();
        let start_ns = (start - t.epoch).as_nanos() as u64;
        let parent = t.open.last().copied();
        t.spans.push(Span {
            id,
            parent,
            op,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
        });
        t.open.push(id);
        Timed {
            op,
            span: Some(t.spans.len() - 1),
            start,
            items: 0,
        }
    })
}

/// Opens an interval that only adds to the totals of `op` (no span):
/// for replay internals that would otherwise flood the span file.
pub fn timed(op: &'static str) -> Timed {
    Timed {
        op,
        span: None,
        start: Instant::now(),
        items: 0,
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        let end = Instant::now();
        let secs = (end - self.start).as_secs_f64();
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let total = t.totals.entry(self.op).or_default();
            total.calls += 1;
            total.items += self.items;
            total.secs += secs;
            if let Some(i) = self.span {
                let end_ns = (end - t.epoch).as_nanos() as u64;
                t.spans[i].end_ns = end_ns;
                let id = t.spans[i].id;
                if let Some(pos) = t.open.iter().rposition(|&o| o == id) {
                    t.open.remove(pos);
                }
            }
        });
    }
}

/// Totals recorded so far under `op`.
pub fn total(op: &str) -> OpTotal {
    TRACER.with(|t| t.borrow().totals.get(op).copied().unwrap_or_default())
}

/// Every recorded span as JSONL: `{id, parent, op, name, start_ns,
/// end_ns}` per line, ids shifted by `base`, times in nanoseconds since
/// the first span.
pub fn spans_jsonl(base: u64) -> String {
    TRACER.with(|t| {
        let t = t.borrow();
        let mut out = String::new();
        for s in &t.spans {
            let line = Json::obj(vec![
                ("id", Json::Int((s.id + base) as i64)),
                (
                    "parent",
                    s.parent
                        .map_or(Json::Null, |p| Json::Int((p + base) as i64)),
                ),
                ("op", Json::Str(s.op.to_string())),
                ("name", Json::Str(s.name.clone())),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    })
}

/// A trace source read ahead in blocks of [`BLOCK_INSTRS`]: each refill
/// is one timed interval under `op` (a span when `name` is set), so the
/// generator's or decoder's cost is measured without a clock read per
/// instruction.
#[derive(Debug)]
pub struct Prefetch<S> {
    inner: S,
    op: &'static str,
    name: Option<String>,
    buf: Vec<Instr>,
    pos: usize,
    done: bool,
}

impl<S: TraceSource> Prefetch<S> {
    /// Wraps `inner`; refills are recorded under `op`, as spans named
    /// `name` when given.
    pub fn new(inner: S, op: &'static str, name: Option<String>) -> Self {
        Self {
            inner,
            op,
            name,
            buf: Vec::with_capacity(BLOCK_INSTRS),
            pos: 0,
            done: false,
        }
    }

    fn refill(&mut self) {
        let mut t = match &self.name {
            Some(name) => span(self.op, name.clone()),
            None => timed(self.op),
        };
        self.buf.clear();
        self.pos = 0;
        while self.buf.len() < BLOCK_INSTRS {
            match self.inner.next_instr() {
                Some(i) => self.buf.push(i),
                None => {
                    self.done = true;
                    break;
                }
            }
        }
        t.items(self.buf.len() as u64);
    }
}

impl<S: TraceSource> TraceSource for Prefetch<S> {
    fn next_instr(&mut self) -> Option<Instr> {
        if self.pos == self.buf.len() {
            if self.done {
                return None;
            }
            self.refill();
            if self.buf.is_empty() {
                return None;
            }
        }
        let i = self.buf[self.pos];
        self.pos += 1;
        Some(i)
    }
}

/// Removes `dir` and everything under it, if it exists.
pub fn clear_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot clear {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `part / whole`, or `0` when `whole` is not positive.
pub fn frac(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}
