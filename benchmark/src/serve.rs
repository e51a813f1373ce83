//! `serve_mem` and `serve_wal`: the `untangle-serve` decision daemon on
//! `synth_events` streams (100 telemetry rounds per domain, Untangle and
//! Static tenants with two Maintain credits).
//!
//! * `serve_mem` — one long-lived in-memory `ServeEngine` serves 24
//!   tenant generations of 1200 domains whose ids are offset per
//!   generation, so tenants arrive and retire. Each 64-event chunk is
//!   rendered to JSONL by the client (untimed); `Event::parse_line` and
//!   `ingest` are timed.
//! * `serve_wal` — one generation of 600 domains through
//!   `DurableServer::ingest_chunk` in a fresh state directory: a journal
//!   fsync per event, a line-log fsync per chunk and a snapshot every 1024
//!   events.
//!
//! An operation is one event; the unit of work is one decision line; the
//! latency sample is one chunk.

use std::path::{Path, PathBuf};
use std::time::Instant;

use untangle_core::scheme::SchemeParams;
use untangle_durable::linelog::LineLog;
use untangle_durable::slot::Slot;
use untangle_durable::wal::Wal;
use untangle_info::{RateTable, RmaxCache};
use untangle_obs::json::Json;
use untangle_serve::durable::DurableServer;
use untangle_serve::event::{Event, ServeScheme};
use untangle_serve::synth::{synth_events, SynthConfig};
use untangle_serve::{ServeConfig, ServeEngine};

use crate::measure::{self, frac, secs, Ctx, Digest, Job, Outcome};

/// Events per ingest chunk.
const BURST: usize = 64;
/// Snapshot cadence in events (the daemon's default).
const SNAPSHOT_EVERY: u64 = 1024;
/// Chunk size of the untimed reference runs: different from [`BURST`],
/// since serve output must not depend on chunking.
const ORACLE_BURST: usize = 1000;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

fn config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        ..ServeConfig::test_scale()
    }
}

/// One tenant generation (domains `0..domains`) and the generation count.
fn inputs(ctx: &Ctx, durable: bool) -> (Vec<Event>, u64, u64) {
    let (domains, rounds, generations) = match (ctx.smoke, durable) {
        (false, false) => (1200, 100, 24),
        (false, true) => (600, 100, 1),
        (true, false) => (100, 10, 2),
        (true, true) => (100, 10, 1),
    };
    let synth = SynthConfig {
        domains,
        rounds,
        seed: 7u64.wrapping_add(ctx.seed),
        ..SynthConfig::small()
    };
    (synth_events(&config().params, &synth), domains, generations)
}

/// `event` with its domain id shifted by `by`.
fn offset(event: &Event, by: u64) -> Event {
    let mut e = event.clone();
    match &mut e {
        Event::Admit(a) => a.domain += by,
        Event::Telemetry(t) => t.domain += by,
        Event::Retire { domain } => *domain += by,
    }
    e
}

/// The client's wire lines of one generation, rendered once around the
/// domain id, so any generation's lines are the id spliced back in: the
/// client's rendering is untimed but still takes wall time, and this keeps
/// it cheaper than the serving it feeds.
struct Wire(Vec<(String, u64, String)>);

impl Wire {
    fn new(events: &[Event]) -> Result<Wire, String> {
        let key = "\"domain\":";
        events
            .iter()
            .map(|e| {
                let line = e.render();
                let id = e.domain().to_string();
                let at = line
                    .find(&format!("{key}{id}"))
                    .filter(|at| {
                        !line[at + key.len() + id.len()..].starts_with(|c: char| c.is_ascii_digit())
                    })
                    .ok_or_else(|| format!("no domain field in {line}"))?;
                let (head, tail) = line.split_at(at + key.len());
                Ok((head.to_string(), e.domain(), tail[id.len()..].to_string()))
            })
            .collect::<Result<_, String>>()
            .map(Wire)
    }

    /// Line `i` with its domain id shifted by `by`.
    fn line(&self, i: usize, by: u64) -> String {
        let (head, id, tail) = &self.0[i];
        format!("{head}{}{tail}", id + by)
    }
}

/// Engine set-up beyond construction: the `R_max` rate table of every
/// Maintain credit the stream's Untangle tenants use, solved from a cold
/// cache through the same batched call the engine makes on first admit.
fn solve_rate_tables(config: &ServeConfig, events: &[Event]) -> Result<(), String> {
    let mut credits: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            Event::Admit(a) if a.scheme == ServeScheme::Untangle => {
                Some(a.credit.unwrap_or(config.params.max_maintain_credit))
            }
            _ => None,
        })
        .collect();
    credits.sort_unstable();
    credits.dedup();
    let mut specs = Vec::with_capacity(credits.len());
    let mut options = None;
    for credit in credits {
        let params = SchemeParams {
            max_maintain_credit: credit,
            ..config.params.clone()
        };
        let (spec, opts) = params
            .rate_table_spec(config.commit_width)
            .map_err(|e| e.to_string())?;
        specs.push(spec);
        options.get_or_insert(opts);
    }
    if let Some(options) = options {
        RateTable::precompute_many_batched_cached(&specs, &options, RmaxCache::global())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Set-up: `open` (engine construction or durable open), then the rate
/// tables from a cold solver cache. Returns what `open` built and the
/// seconds the rate tables took.
fn start<T>(
    events: &[Event],
    open: impl FnOnce() -> Result<T, String>,
) -> Result<(T, f64), String> {
    RmaxCache::global().clear();
    let ready = open()?;
    let t = Instant::now();
    solve_rate_tables(&config(), events)?;
    Ok((ready, secs(t)))
}

/// [`start`] as a `setup` span; returns the rate tables' share of it.
fn traced_start<T>(
    ctx: &Ctx,
    events: &[Event],
    open: impl FnOnce() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let _span = measure::span("setup", ctx.workload.name());
    let t = Instant::now();
    let (ready, rate_s) = start(events, open)?;
    Ok((ready, frac(rate_s, secs(t))))
}

/// Output lines by type.
#[derive(Debug, Default)]
struct Tally {
    admitted: u64,
    decisions: u64,
    retired: u64,
    errors: u64,
}

impl Tally {
    fn add<S: AsRef<str>>(&mut self, lines: &[S]) {
        for line in lines {
            let line = line.as_ref();
            if line.starts_with(r#"{"type":"decision""#) {
                self.decisions += 1;
            } else if line.starts_with(r#"{"type":"admitted""#) {
                self.admitted += 1;
            } else if line.starts_with(r#"{"type":"retired""#) {
                self.retired += 1;
            } else if line.starts_with(r#"{"type":"serve_error""#) {
                self.errors += 1;
            }
        }
    }

    /// Fails `job` for every error line and for admits or retires that
    /// did not each produce exactly one line; returns the error lines.
    fn check(&self, job: &mut Job, domains: u64) -> u64 {
        if self.errors > 0 {
            job.fail(self.errors, format!("{} serve_error lines", self.errors));
        }
        if self.admitted != domains || self.retired != domains || self.decisions == 0 {
            job.fail(
                0,
                format!(
                    "{} admitted, {} retired, {} decisions for {domains} domains",
                    self.admitted, self.retired, self.decisions
                ),
            );
        }
        self.errors
    }
}

/// Renders output lines the way the daemon writes them.
fn text(lines: &[String]) -> String {
    let mut s = String::new();
    for l in lines {
        s.push_str(l);
        s.push('\n');
    }
    s
}

/// The same stream through a fresh in-memory engine in different chunks.
fn reference_output(events: &[Event]) -> Result<String, String> {
    let mut engine = ServeEngine::new(config()).map_err(|e| e.to_string())?;
    let lines = engine
        .ingest_all(events, ORACLE_BURST)
        .map_err(|e| e.to_string())?;
    Ok(text(&lines))
}

fn serve_generations(
    engine: &mut ServeEngine,
    base: &[Event],
    domains: u64,
    generations: u64,
    traced: bool,
) -> Result<(Job, u64), String> {
    let mut job = Job {
        attempted: base.len() as u64 * generations,
        ..Job::default()
    };
    let mut digest = Digest::default();
    let mut tally = Tally::default();
    let mut first = String::new();
    let wire = Wire::new(base)?;
    // The splice must render exactly what the event would.
    if let Some(i) =
        (0..base.len()).find(|&i| wire.line(i, domains) != offset(&base[i], domains).render())
    {
        return Err(format!("wire line {i} differs from the rendered event"));
    }
    for g in 0..generations {
        for (c, start) in (0..base.len()).step_by(BURST).enumerate() {
            // Client side, untimed: the wire lines of this chunk.
            let lines: Vec<String> = (start..base.len().min(start + BURST))
                .map(|i| wire.line(i, g * domains))
                .collect();
            let t = Instant::now();
            let events: Vec<Event> = {
                let _span = traced.then(|| measure::span("serve.event.parse", format!("g{g}c{c}")));
                lines
                    .iter()
                    .filter_map(|l| Event::parse_line(l).ok())
                    .collect()
            };
            let out = {
                let _span =
                    traced.then(|| measure::span("serve.engine.ingest", format!("g{g}c{c}")));
                engine.ingest(&events).map_err(|e| e.to_string())?
            };
            let dt = secs(t);
            job.busy_s += dt;
            job.op_ms.push(dt * 1e3);
            measure::probe_due();
            let bad = (lines.len() - events.len()) as u64;
            if bad > 0 {
                job.fail(bad, format!("{bad} lines of chunk {c} failed to parse"));
            }
            let chunk_text = text(&out);
            digest.add(chunk_text.as_bytes());
            if g == 0 {
                first.push_str(&chunk_text);
            }
            let before = tally.decisions;
            tally.add(&out);
            job.op_work.push(tally.decisions - before);
        }
    }
    let errors = tally.check(&mut job, domains * generations);
    if reference_output(base)? != first {
        job.fail(
            base.len() as u64,
            "first generation differs from a fresh engine's output".to_string(),
        );
    }
    job.digest = digest.finish();
    Ok((job, errors))
}

/// `serve_mem`, untraced: engine construction plus rate tables as
/// set-up, parse + ingest of every chunk timed.
pub fn mem_untraced(ctx: &Ctx) -> Result<Outcome, String> {
    let (base, domains, generations) = inputs(ctx, false);
    measure::untraced_pass(
        ctx,
        SETUP_REPS,
        || {
            Ok(start(&base, || {
                ServeEngine::new(config()).map_err(|e| e.to_string())
            })?
            .0)
        },
        |mut engine| Ok(serve_generations(&mut engine, &base, domains, generations, false)?.0),
    )
}

/// `serve_mem`, traced: parse and ingest are the benchmark's own calls,
/// so both are spans of the real run and need no replay.
pub fn mem_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let (base, domains, generations) = inputs(ctx, false);
    let (mut engine, rate_frac) = traced_start(ctx, &base, || {
        ServeEngine::new(config()).map_err(|e| e.to_string())
    })?;
    let pass = measure::span("pass", "serve.chunks");
    let (job, errors) = serve_generations(&mut engine, &base, domains, generations, true)?;
    drop(pass);
    let wall = job.busy_s;
    let parse = measure::total("serve.event.parse");
    let ingest = measure::total("serve.engine.ingest");
    let events = job.attempted as f64;
    let mut out = outcome(job, errors, rate_frac);
    out.set("serve.event.parse_busy_frac", frac(parse.secs, wall));
    out.set(
        "serve.event.parse_kevents_per_s",
        frac(events, parse.secs) / 1e3,
    );
    out.set("serve.engine.ingest_busy_frac", frac(ingest.secs, wall));
    out.set(
        "serve.engine.kevents_per_s",
        frac(events, ingest.secs) / 1e3,
    );
    Ok(out)
}

/// The traced job's result as an outcome with the error-line count and
/// the solver's share of set-up.
fn outcome(job: Job, errors: u64, rate_frac: f64) -> Outcome {
    let mut out = Outcome {
        attempted: job.attempted,
        failed: job.failed,
        problems: job.problems,
        digest: job.digest,
        job_s: job.busy_s,
        metrics: Vec::new(),
    };
    out.set("serve.engine.error_lines", errors as f64);
    out.set("info.rate_table.setup_frac", rate_frac);
    out.set(
        "info.rmax_cache.hit_frac",
        RmaxCache::global().stats().hit_rate(),
    );
    out
}

fn open_durable(dir: &Path) -> Result<DurableServer, String> {
    measure::clear_dir(dir)?;
    let (server, _) =
        DurableServer::open(config(), dir, &dir.join("out.jsonl"), BURST, SNAPSHOT_EVERY)
            .map_err(|e| e.to_string())?;
    Ok(server)
}

/// One generation served through a [`DurableServer`].
struct Served {
    /// The job, without its output checks.
    job: Job,
    /// Chunks that carried a snapshot.
    snapshots: u64,
    /// Length of the output file after each chunk.
    ends: Vec<u64>,
}

/// Runs one generation through `server` chunk by chunk.
fn serve_durable(
    mut server: DurableServer,
    events: &[Event],
    traced: bool,
) -> Result<Served, String> {
    let mut served = Served {
        job: Job {
            attempted: events.len() as u64,
            ..Job::default()
        },
        snapshots: 0,
        ends: Vec::new(),
    };
    let job = &mut served.job;
    let mut since = 0u64;
    for (c, chunk) in events.chunks(BURST).enumerate() {
        let t = Instant::now();
        {
            let _span =
                traced.then(|| measure::span("serve.durable.ingest_chunk", format!("c{c}")));
            server.ingest_chunk(chunk).map_err(|e| e.to_string())?;
        }
        let dt = secs(t);
        job.busy_s += dt;
        job.op_ms.push(dt * 1e3);
        measure::probe_due();
        served.ends.push(server.out_bytes());
        since += chunk.len() as u64;
        if since >= SNAPSHOT_EVERY {
            served.snapshots += 1;
            since = 0;
        }
    }
    Ok(served)
}

/// Checks the durable output file against an in-memory engine's output
/// for the same stream (byte for byte), counts each chunk's decisions
/// from the file offsets in `served.ends`, and digests the file.
/// Returns the error lines.
fn check_durable(
    served: &mut Served,
    dir: &Path,
    events: &[Event],
    domains: u64,
) -> Result<u64, String> {
    let job = &mut served.job;
    let path = dir.join("out.jsonl");
    let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let durable =
        String::from_utf8(bytes).map_err(|_| "durable output is not UTF-8".to_string())?;
    let mut tally = Tally::default();
    let mut start = 0;
    for &end in &served.ends {
        let chunk = durable
            .get(start..end as usize)
            .ok_or("the output file is shorter than the server reported")?;
        let before = tally.decisions;
        tally.add(&chunk.lines().collect::<Vec<_>>());
        job.op_work.push(tally.decisions - before);
        start = end as usize;
    }
    let errors = tally.check(job, domains);
    if reference_output(events)? != durable {
        job.fail(
            events.len() as u64,
            "durable output differs from the in-memory engine's".to_string(),
        );
    }
    let mut digest = Digest::default();
    digest.add(durable.as_bytes());
    job.digest = digest.finish();
    Ok(errors)
}

/// `serve_wal`, untraced: `DurableServer::open` in a fresh state
/// directory plus rate tables as set-up, every `ingest_chunk` timed.
pub fn wal_untraced(ctx: &Ctx) -> Result<Outcome, String> {
    let (events, domains, _) = inputs(ctx, true);
    let mut opened = 0u32;
    measure::untraced_pass(
        ctx,
        SETUP_REPS,
        || {
            opened += 1;
            let dir = ctx.work.join(format!("wal{opened}"));
            Ok((start(&events, || open_durable(&dir))?.0, dir))
        },
        |(server, dir): (DurableServer, PathBuf)| {
            let mut served = serve_durable(server, &events, false)?;
            check_durable(&mut served, &dir, &events, domains)?;
            Ok(served.job)
        },
    )
}

/// `serve_wal`, traced: the real chunks as spans, then a replay of the
/// durable layer's public calls with the records, lines and snapshot
/// payloads `DurableServer` writes, at its cadence, next to an in-memory
/// engine — which separates journal, engine, line log and snapshot time
/// from the wrapper's own.
pub fn wal_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let (events, domains, _) = inputs(ctx, true);
    let dir = ctx.work.join("wal");
    let (server, rate_frac) = traced_start(ctx, &events, || open_durable(&dir))?;
    let pass = measure::span("pass", "serve.durable");
    let mut served = serve_durable(server, &events, true)?;
    drop(pass);
    let errors = check_durable(&mut served, &dir, &events, domains)?;
    let Served { job, snapshots, .. } = served;
    let wall = job.busy_s;
    let chunks = job.op_ms.len() as f64;

    let replay = measure::span("replay", "serve.durable");
    let rdir = ctx.work.join("wal-replay");
    std::fs::create_dir_all(&rdir).map_err(|e| format!("cannot create {}: {e}", rdir.display()))?;
    let derr = |e: untangle_durable::DurableError| e.to_string();
    let (mut wal, _) = Wal::open(&rdir.join("serve.wal")).map_err(derr)?;
    let (mut log, _) = LineLog::open(&rdir.join("out.jsonl")).map_err(derr)?;
    let slot = Slot::new(rdir.join("snapshot.slot"));
    let mut engine = ServeEngine::new(config()).map_err(|e| e.to_string())?;
    let mut since = 0u64;
    for (idx, chunk) in (0u64..).step_by(BURST).zip(events.chunks(BURST)) {
        let records: Vec<Vec<u8>> = (idx..)
            .zip(chunk)
            .map(|(i, e)| {
                let mut r = i.to_le_bytes().to_vec();
                r.extend_from_slice(e.render().as_bytes());
                r
            })
            .collect();
        {
            let mut t = measure::timed("durable.wal.append");
            t.items(records.len() as u64);
            for r in &records {
                wal.append(r).map_err(derr)?;
            }
        }
        let lines = {
            let _t = measure::timed("serve.engine.ingest");
            engine.ingest(chunk).map_err(|e| e.to_string())?
        };
        {
            let _t = measure::timed("durable.linelog.append");
            log.append_lines(&lines).map_err(derr)?;
        }
        since += chunk.len() as u64;
        if since >= SNAPSHOT_EVERY {
            let payload = Json::obj(vec![
                ("engine", engine.snapshot_json()),
                ("out_bytes", Json::Int(log.bytes() as i64)),
            ])
            .render();
            {
                let _t = measure::timed("durable.slot.store");
                slot.store(payload.as_bytes()).map_err(derr)?;
            }
            {
                let _t = measure::timed("durable.wal.reset");
                wal.reset().map_err(derr)?;
            }
            since = 0;
        }
    }
    drop(replay);

    let append = measure::total("durable.wal.append");
    let wal_s = append.secs + measure::total("durable.wal.reset").secs;
    let ingest = measure::total("serve.engine.ingest");
    let log_s = measure::total("durable.linelog.append").secs;
    let store = measure::total("durable.slot.store");
    let self_s = wall - wal_s - ingest.secs - log_s - store.secs;
    let events_n = events.len() as f64;
    let mut out = outcome(job, errors, rate_frac);
    out.set("serve.engine.ingest_busy_frac", frac(ingest.secs, wall));
    out.set(
        "serve.engine.kevents_per_s",
        frac(events_n, ingest.secs) / 1e3,
    );
    out.set("serve.snapshot_chunk_frac", frac(snapshots as f64, chunks));
    out.set("durable.wal.appends", append.items as f64);
    out.set("durable.wal.busy_frac", frac(wal_s, wall));
    out.set(
        "durable.wal.appends_per_s",
        frac(append.items as f64, append.secs),
    );
    out.set("durable.linelog.busy_frac", frac(log_s, wall));
    out.set("durable.slot.stores", store.calls as f64);
    out.set("durable.slot.busy_frac", frac(store.secs, wall));
    out.set("serve.durable.self_frac", frac(self_s, wall));
    Ok(out)
}
