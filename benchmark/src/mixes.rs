//! `mix_untangle` and `mix_static`: Mix 4 of the paper (eight
//! LLC-sensitive SPEC-like benchmarks, each interleaved with a crypto
//! kernel) through the multi-domain `Runner` at `eval_scale(0.01)`, under
//! Untangle and under Static.
//!
//! An operation is one domain-run; the unit of work is one simulated
//! instruction, and the latency samples are the host time of every
//! 2^20 instructions pulled from the eight sources (a partial last one is
//! not a sample).

use std::time::Instant;

use untangle_bench::experiments::MIX_SEED_BASE;
use untangle_core::metric::{HitCurveMetric, MetricPolicy};
use untangle_core::runner::{RunReport, Runner, RunnerConfig};
use untangle_core::scheme::SchemeKind;
use untangle_info::RmaxCache;
use untangle_sim::system::{LlcMode, System};
use untangle_trace::TraceSource;
use untangle_workloads::mix::{mix_by_id, Mix, WorkloadSource};

use crate::measure::{self, frac, secs, Counted, Ctx, Digest, Job, Outcome, Prefetch};
use crate::spec::repo_root;

/// The mix both workloads run: every domain LLC-sensitive.
const MIX_ID: usize = 4;
/// Instructions per latency sample (full size; smoke runs use 2^16).
const OP_INSTRS: u64 = 1 << 20;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// The generated inputs of one run.
#[derive(Debug, Clone)]
struct Inputs {
    mix: Mix,
    kind: SchemeKind,
    scale: f64,
    /// Secret seed of the crypto kernels (`0xfeed ^ 4` at seed 0).
    secret: u64,
    config: RunnerConfig,
    /// Instructions per latency sample.
    op_instrs: u64,
}

fn inputs(ctx: &Ctx, kind: SchemeKind) -> Result<Inputs, String> {
    let mix = mix_by_id(MIX_ID).ok_or("mix 4 is missing")?;
    let scale = if ctx.smoke { 0.0002 } else { 0.01 };
    let mut config = RunnerConfig::eval_scale(kind, scale).map_err(|e| e.to_string())?;
    config.seed = 42u64.wrapping_add(ctx.seed);
    Ok(Inputs {
        mix,
        kind,
        scale,
        secret: (MIX_SEED_BASE ^ MIX_ID as u64).wrapping_add(ctx.seed),
        config,
        op_instrs: if ctx.smoke { OP_INSTRS >> 4 } else { OP_INSTRS },
    })
}

impl Inputs {
    /// Domain `d`'s source, exactly as `Mix::sources` builds it.
    fn source(&self, d: usize) -> WorkloadSource {
        self.mix.workloads[d].source_scaled(d, self.secret ^ d as u64, self.scale)
    }

    fn domains(&self) -> usize {
        self.mix.workloads.len()
    }
}

/// The untraced pass: sources plus `Runner::new` (rate model included,
/// from a cold solver cache) as set-up, `Runner::run` timed less the
/// host-speed probes the operation clock runs inside it.
pub fn untraced(ctx: &Ctx, kind: SchemeKind) -> Result<Outcome, String> {
    let inp = inputs(ctx, kind)?;
    let check_csv = ctx.seed == 0 && !ctx.smoke && kind == SchemeKind::Untangle;
    measure::untraced_pass(
        ctx,
        SETUP_REPS,
        || {
            RmaxCache::global().clear();
            let sources = (0..inp.domains())
                .map(|d| Box::new(Counted::new(inp.source(d), d)) as Box<dyn TraceSource>)
                .collect();
            Runner::new(inp.config.clone(), sources).map_err(|e| e.to_string())
        },
        |runner| {
            measure::clock_start(inp.domains(), inp.op_instrs);
            let t = Instant::now();
            let probed = measure::probe_s();
            let report = runner.run();
            let busy_s = secs(t) - (measure::probe_s() - probed);
            let (_, op_ms) = measure::clock_finish();
            let mut job = check(&inp, &report, check_csv)?;
            job.busy_s = busy_s;
            job.op_work = vec![inp.op_instrs; op_ms.len()];
            job.op_ms = op_ms;
            Ok(job)
        },
    )
}

/// Digest and checks of one run: every domain retired its slice, charged
/// leakage stays within the scheme's bounds, and (seed 0, full size,
/// Untangle) the per-domain leakage reproduces `results/mix04.csv`.
fn check(inp: &Inputs, report: &RunReport, check_csv: bool) -> Result<Job, String> {
    let mut job = Job {
        attempted: report.domains.len() as u64,
        ..Job::default()
    };
    let mut digest = Digest::default();
    let max_bits = (untangle_sim::config::PartitionSize::COUNT as f64).log2() + 1e-9;
    for (d, dom) in report.domains.iter().enumerate() {
        let s = &dom.stats;
        let l = &dom.leakage;
        let mut bytes = Vec::new();
        for v in [
            s.instructions,
            s.cycles.to_bits(),
            s.mem_accesses,
            s.l1_hits,
            s.llc_hits,
            s.llc_misses,
            l.total_bits.to_bits(),
            l.assessments,
            l.visible_actions,
            l.maintains,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for a in dom.trace.action_sequence() {
            bytes.extend_from_slice(&a.size.bytes().to_le_bytes());
        }
        digest.add(&bytes);

        let problem = if s.instructions != inp.config.slice_instrs {
            Some(format!(
                "domain {d} retired {} of {} measured instructions",
                s.instructions, inp.config.slice_instrs
            ))
        } else if l.bits_per_assessment() > max_bits || l.total_bits < 0.0 {
            Some(format!(
                "domain {d} charged {} bits per assessment",
                l.bits_per_assessment()
            ))
        } else if inp.kind == SchemeKind::Static && (l.assessments > 0 || !dom.trace.is_empty()) {
            Some(format!(
                "static domain {d} assessed {} times",
                l.assessments
            ))
        } else if inp.kind == SchemeKind::Untangle && l.assessments == 0 {
            Some(format!("untangle domain {d} never assessed"))
        } else {
            None
        };
        if let Some(p) = problem {
            job.fail(1, p);
        }
    }
    if check_csv {
        let path = repo_root().join("results/mix04.csv");
        let csv = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
        let col = header
            .iter()
            .position(|&h| h == "leak_untangle")
            .ok_or("results/mix04.csv has no leak_untangle column")?;
        let committed: Vec<String> = lines
            .map(|l| l.split(',').nth(col).unwrap_or_default().to_string())
            .collect();
        for (d, dom) in report.domains.iter().enumerate() {
            let ours = format!("{:.3}", dom.leakage.bits_per_assessment());
            if committed.get(d) != Some(&ours) {
                job.fail(
                    1,
                    format!(
                        "domain {d} leak_untangle {ours} differs from results/mix04.csv ({:?})",
                        committed.get(d)
                    ),
                );
            }
        }
    }
    job.digest = digest.finish();
    Ok(job)
}

/// The traced pass. The real run wraps every source in a prefetching
/// timer (one `trace.synth.refill` span per 4096 instructions); the
/// layers called inside `Runner` are then timed by replaying their public
/// functions on regenerated streams of the same per-domain lengths.
pub fn traced(ctx: &Ctx, kind: SchemeKind) -> Result<Outcome, String> {
    let inp = inputs(ctx, kind)?;
    let n = inp.domains();

    // Set-up, with the rate-table precompute timed on its own.
    RmaxCache::global().clear();
    let setup = measure::span("setup", ctx.workload.name());
    let t = Instant::now();
    let rate_s = if kind == SchemeKind::Untangle {
        let _span = measure::span("info.rate_table.build", "rate_model");
        let t = Instant::now();
        inp.config
            .params
            .build_rate_model(inp.config.machine.timing.commit_width)
            .map_err(|e| e.to_string())?;
        secs(t)
    } else {
        0.0
    };
    let sources = (0..n)
        .map(|d| {
            let timed = Prefetch::new(
                inp.source(d),
                "trace.synth.refill",
                Some(format!("domain{d}")),
            );
            Box::new(Counted::new(timed, d)) as Box<dyn TraceSource>
        })
        .collect();
    let runner = Runner::new(inp.config.clone(), sources).map_err(|e| e.to_string())?;
    let setup_s = secs(t);
    drop(setup);

    // The real run.
    let pass = measure::span("pass", "runner.run");
    measure::clock_start(n, inp.op_instrs);
    let t = Instant::now();
    let probed = measure::probe_s();
    let report = runner.run();
    let wall = secs(t) - (measure::probe_s() - probed);
    let (delivered, _) = measure::clock_finish();
    drop(pass);
    let mut job = check(&inp, &report, false)?;
    let synth = measure::total("trace.synth.refill");

    // Replay 1: System::step in laggard order over regenerated streams
    // with the real per-domain lengths. Partitions keep their initial
    // size, so hit rates approximate the real run's.
    let replay = measure::span("replay", "sim.system.step");
    let mut system = System::new(inp.config.machine.clone(), n, LlcMode::Partitioned);
    let mut streams: Vec<_> = (0..n)
        .map(|d| {
            system.resize(d, inp.config.initial_partition);
            Prefetch::new(inp.source(d), "replay.trace.synth.refill", None)
        })
        .collect();
    let mut left = delivered.clone();
    let mut live = n;
    for (d, _) in left.iter().enumerate().filter(|(_, &c)| c == 0) {
        // Park a domain with nothing to replay beyond every other clock.
        system.stall(d, 1e30);
        live -= 1;
    }
    let t = Instant::now();
    while live > 0 {
        let d = system.laggard();
        if system.step(d, &mut streams[d]).is_none() {
            return Err(format!("replayed domain {d} ended early"));
        }
        left[d] -= 1;
        if left[d] == 0 {
            system.stall(d, 1e30);
            live -= 1;
        }
    }
    let step_s = secs(t) - measure::total("replay.trace.synth.refill").secs;
    drop(replay);
    let (mut mem, mut l1, mut llc, mut llc_miss) = (0u64, 0u64, 0u64, 0u64);
    for d in 0..n {
        let s = system.stats(d);
        mem += s.mem_accesses;
        l1 += s.l1_hits;
        llc += s.llc_hits;
        llc_miss += s.llc_misses;
    }

    // Replay 2: the UMON candidate caches, once per domain (Untangle
    // only; Static installs no metric).
    let mut observe_s = 0.0;
    let mut observes = 0u64;
    if kind == SchemeKind::Untangle {
        let before = measure::total("replay.trace.synth.refill").secs;
        let t = Instant::now();
        for (d, &count) in delivered.iter().enumerate() {
            let _span = measure::span("replay", format!("sim.umon.observe/domain{d}"));
            let mut metric = HitCurveMetric::new(&inp.config.machine, MetricPolicy::PublicOnly);
            let mut stream = Prefetch::new(inp.source(d), "replay.trace.synth.refill", None);
            for _ in 0..count {
                let instr = stream.next_instr().ok_or("observe replay ended early")?;
                metric.observe(&instr);
            }
            std::hint::black_box(metric.hit_curve());
            observes += count;
        }
        observe_s = secs(t) - (measure::total("replay.trace.synth.refill").secs - before);
    }

    let steps: u64 = delivered.iter().sum();
    let real = report
        .domains
        .iter()
        .fold((0u64, 0u64, 0u64, 0u64), |acc, d| {
            let s = &d.stats;
            (
                acc.0 + s.mem_accesses,
                acc.1 + s.l1_hits,
                acc.2 + s.llc_hits,
                acc.3 + s.llc_misses,
            )
        });
    let (assessments, visible) = report.domains.iter().fold((0u64, 0u64), |acc, d| {
        (
            acc.0 + d.leakage.assessments,
            acc.1 + d.leakage.visible_actions,
        )
    });
    let self_s = wall - synth.secs - step_s - observe_s;
    if self_s < 0.0 {
        job.fail(
            0,
            format!("core.runner self time came out negative ({self_s:.3} s)"),
        );
    }

    let mut out = Outcome {
        attempted: job.attempted,
        failed: job.failed,
        problems: job.problems,
        digest: job.digest,
        job_s: wall,
        metrics: Vec::new(),
    };
    out.set("trace.synth.instrs", synth.items as f64);
    out.set("trace.synth.busy_frac", frac(synth.secs, wall));
    out.set(
        "trace.synth.minstr_per_s",
        frac(synth.items as f64, synth.secs) / 1e6,
    );
    out.set("sim.system.steps", steps as f64);
    out.set("sim.system.busy_frac", frac(step_s, wall));
    out.set("sim.system.msteps_per_s", frac(steps as f64, step_s) / 1e6);
    out.set("sim.system.l1_hit_frac", frac(real.1 as f64, real.0 as f64));
    out.set(
        "sim.system.llc_hit_frac",
        frac(real.2 as f64, (real.2 + real.3) as f64),
    );
    out.set("sim.system.replay_l1_hit_frac", frac(l1 as f64, mem as f64));
    out.set(
        "sim.system.replay_llc_hit_frac",
        frac(llc as f64, (llc + llc_miss) as f64),
    );
    out.set("sim.umon.observes", observes as f64);
    out.set("sim.umon.busy_frac", frac(observe_s, wall));
    out.set(
        "sim.umon.mobserves_per_s",
        frac(observes as f64, observe_s) / 1e6,
    );
    out.set("core.runner.self_frac", frac(self_s, wall));
    out.set("core.decision.assessments", assessments as f64);
    out.set(
        "core.decision.visible_frac",
        frac(visible as f64, assessments as f64),
    );
    out.set("info.rate_table.setup_frac", frac(rate_s, setup_s));
    out.set(
        "info.rmax_cache.hit_frac",
        RmaxCache::global().stats().hit_rate(),
    );
    Ok(out)
}
