//! `scenario_sweep`: 16 generated scenarios, four per class, through the
//! `exp_scenarios` pipeline — on-disk trace generation as set-up, then
//! `evaluate_scenario` (BBV profile, SimPoint slices, weighted replay
//! under five schemes on the sweep's 512 kB-LLC machine) timed, with one
//! scenario per class also validated against its full trace.
//!
//! An operation is one scenario evaluation, which is also the latency
//! sample; the unit of work is one simulated instruction.

use std::path::{Path, PathBuf};
use std::time::Instant;

use untangle_bench::scenarios::{
    evaluate_scenario, generate_trace, sample_slices, trace_path, ScenarioResult, SweepSettings,
    SCHEMES,
};
use untangle_core::scheme::SchemeKind;
use untangle_info::RmaxCache;
use untangle_trace::file::FileSource;
use untangle_trace::TraceSource;
use untangle_workloads::scenario::{Scenario, ScenarioClass};

use crate::measure::{self, frac, secs, Ctx, Digest, Job, Outcome};

/// Set-ups per untraced run; `setup_s` is their median. Two, not more,
/// because each takes about 3 s.
const SETUP_REPS: usize = 2;

fn settings(ctx: &Ctx) -> SweepSettings {
    // `validate_every = 5` over 16 consecutive ids validates indices 0,
    // 5, 10 and 15 — one scenario of each of the four classes.
    if ctx.smoke {
        SweepSettings {
            count: 4,
            validate_every: 5,
            ..SweepSettings::smoke()
        }
    } else {
        SweepSettings {
            count: 16,
            validate_every: 5,
            ..SweepSettings::full()
        }
    }
}

/// Scenario ids `[count * k, count * k + count)`, where `k` is `seed`
/// modulo the number of whole blocks of `count` ids in `u32`, so every
/// seed selects a set: seed `s` selects `[16s, 16s + 16)` for any `s`
/// below about 2.7e8.
fn scenarios(seed: u64, settings: &SweepSettings) -> Vec<Scenario> {
    // 4 or 16, from `settings`.
    let count = settings.count as u32;
    let first = (seed % u64::from(u32::MAX / count)) as u32 * count;
    (first..first + count)
        .map(|id| Scenario {
            id,
            class: ScenarioClass::ALL[id as usize % ScenarioClass::ALL.len()],
        })
        .collect()
}

fn generate(dir: &Path, set: &[Scenario], settings: &SweepSettings) -> Result<(), String> {
    measure::clear_dir(dir)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for s in set {
        generate_trace(dir, s, settings).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Instructions a scenario's evaluation simulated: the sampled replays
/// plus, when validated, one full-trace run per scheme.
fn simulated(result: &ScenarioResult, settings: &SweepSettings) -> u64 {
    let validation = if result.validation.is_empty() {
        0
    } else {
        SCHEMES.len() as u64 * settings.trace_instrs
    };
    result.sampled_instrs() + validation
}

/// Sanity checks on one result; `None` when it passes.
fn problem(result: &ScenarioResult, validated: bool) -> Option<String> {
    let max_bits = (untangle_sim::config::PartitionSize::COUNT as f64).log2() + 1e-9;
    if result.schemes.len() != SCHEMES.len() {
        return Some(format!(
            "{}: {} scheme estimates",
            result.name,
            result.schemes.len()
        ));
    }
    if result.validation.len() != if validated { SCHEMES.len() } else { 0 } {
        return Some(format!(
            "{}: {} validations",
            result.name,
            result.validation.len()
        ));
    }
    for s in &result.schemes {
        if !(s.ipc.is_finite() && s.ipc > 0.0) {
            return Some(format!("{} {}: IPC {}", result.name, s.kind, s.ipc));
        }
        if !(0.0..=max_bits).contains(&s.bits_per_assessment) {
            return Some(format!(
                "{} {}: {} bits per assessment",
                result.name, s.kind, s.bits_per_assessment
            ));
        }
        if s.kind == SchemeKind::Static.name() && s.assessments > 0 {
            return Some(format!("{}: Static assessed", result.name));
        }
    }
    result
        .validation
        .iter()
        .find(|v| !(v.ipc_error.is_finite() && v.leakage_error.is_finite()))
        .map(|v| format!("{} {}: non-finite validation error", result.name, v.kind))
}

fn evaluate_all(
    dir: &Path,
    set: &[Scenario],
    settings: &SweepSettings,
    traced: bool,
) -> (Job, Vec<ScenarioResult>) {
    let mut job = Job {
        attempted: set.len() as u64,
        ..Job::default()
    };
    let mut digest = Digest::default();
    let mut results = Vec::with_capacity(set.len());
    for (i, s) in set.iter().enumerate() {
        measure::probe_due();
        let _span = traced.then(|| measure::span("bench.scenarios.evaluate", s.name()));
        let t = Instant::now();
        let validated = settings.validated(i);
        let outcome = evaluate_scenario(dir, s, settings, validated);
        let dt = secs(t);
        job.busy_s += dt;
        job.op_ms.push(dt * 1e3);
        job.op_work
            .push(outcome.as_ref().map_or(0, |r| simulated(r, settings)));
        match outcome {
            Ok(result) => {
                digest.add(result.to_json().render().as_bytes());
                if let Some(p) = problem(&result, validated) {
                    job.fail(1, p);
                }
                results.push(result);
            }
            Err(e) => {
                digest.add(format!("error {e}").as_bytes());
                job.fail(1, format!("{}: {e}", s.name()));
            }
        }
    }
    job.digest = digest.finish();
    (job, results)
}

/// The untraced pass: trace generation as set-up, the evaluations timed.
pub fn untraced(ctx: &Ctx) -> Result<Outcome, String> {
    let settings = settings(ctx);
    let set = scenarios(ctx.seed, &settings);
    let dir = ctx.work.join("traces");
    measure::untraced_pass(
        ctx,
        SETUP_REPS,
        || generate(&dir, &set, &settings).map(|()| dir.clone()),
        |dir: PathBuf| Ok(evaluate_all(&dir, &set, &settings, false).0),
    )
}

/// Drains `[skip, skip + len)` of a trace file; returns the instructions
/// decoded and the seconds spent (open, index scan and decode).
fn drain(path: &Path, skip: u64, len: u64) -> Result<(u64, f64), String> {
    let t = Instant::now();
    let mut source = FileSource::open_slice(path, skip, len).map_err(|e| e.to_string())?;
    let mut n = 0u64;
    while source.next_instr().is_some() {
        n += 1;
    }
    if let Some(e) = source.poisoned() {
        return Err(e.to_string());
    }
    Ok((n, secs(t)))
}

/// The traced pass: the real evaluations as spans, then a replay of the
/// trace layer's public calls on the same files — `sample_slices`, and a
/// `FileSource` drain for every stream the evaluations opened — so
/// decode and profiling time can be separated from the slice replay.
pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let settings = settings(ctx);
    let set = scenarios(ctx.seed, &settings);
    let dir = ctx.work.join("traces");

    let setup = measure::span("setup", ctx.workload.name());
    let t = Instant::now();
    generate(&dir, &set, &settings)?;
    let write_s = secs(t);
    drop(setup);
    let written = set.len() as u64 * settings.trace_instrs;
    let bytes: u64 = set
        .iter()
        .map(|s| std::fs::metadata(trace_path(&dir, s)).map_or(0, |m| m.len()))
        .sum();

    let pass = measure::span("pass", "evaluate_scenario");
    let (mut job, results) = evaluate_all(&dir, &set, &settings, true);
    drop(pass);
    let wall = job.busy_s;

    let (mut decode_s, mut decoded, mut profile_s) = (0.0, 0u64, 0.0);
    let warmup = settings.warmup_instrs();
    for (i, s) in set.iter().enumerate() {
        let _span = measure::span("replay", s.name());
        let path = trace_path(&dir, s);
        let t = Instant::now();
        let slices = sample_slices(&path, &settings).map_err(|e| e.to_string())?;
        let sample_s = secs(t);
        let (n, full_s) = drain(&path, 0, u64::MAX)?;
        profile_s += sample_s - full_s;
        decode_s += full_s;
        decoded += n;
        // Every scheme opens the same streams: decode each once and count
        // it once per scheme.
        let schemes = SCHEMES.len() as u64;
        for slice in &slices {
            let prefix = warmup.min(slice.offset_instrs);
            let (n, s) = drain(
                &path,
                slice.offset_instrs - prefix,
                prefix + slice.len_instrs,
            )?;
            decode_s += s * schemes as f64;
            decoded += n * schemes;
        }
        if settings.validated(i) {
            let (n, s) = drain(&path, 0, settings.trace_instrs)?;
            decode_s += s * schemes as f64;
            decoded += n * schemes;
        }
    }
    let replay_s = wall - decode_s - profile_s;
    if replay_s < 0.0 {
        job.fail(
            0,
            format!("bench.scenarios self time came out negative ({replay_s:.3} s)"),
        );
    }

    let (assessments, maintains) = results
        .iter()
        .flat_map(|r| &r.schemes)
        .fold((0u64, 0u64), |acc, s| {
            (acc.0 + s.assessments, acc.1 + s.maintains)
        });
    let mut out = Outcome {
        attempted: job.attempted,
        failed: job.failed,
        problems: job.problems,
        digest: job.digest,
        job_s: wall,
        metrics: Vec::new(),
    };
    out.set("trace.file.decode_instrs", decoded as f64);
    out.set("trace.file.decode_busy_frac", frac(decode_s, wall));
    out.set(
        "trace.file.decode_minstr_per_s",
        frac(decoded as f64, decode_s) / 1e6,
    );
    out.set(
        "trace.file.write_minstr_per_s",
        frac(written as f64, write_s) / 1e6,
    );
    out.set(
        "trace.file.bytes_per_instr",
        frac(bytes as f64, written as f64),
    );
    out.set("trace.profile.busy_frac", frac(profile_s, wall));
    out.set("bench.scenarios.replay_frac", frac(replay_s, wall));
    out.set("core.decision.assessments", assessments as f64);
    out.set(
        "core.decision.visible_frac",
        frac((assessments - maintains) as f64, assessments as f64),
    );
    out.set(
        "info.rmax_cache.hit_frac",
        RmaxCache::global().stats().hit_rate(),
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_selects_four_scenarios_of_each_class() {
        let settings = SweepSettings {
            count: 16,
            ..SweepSettings::full()
        };
        let ids = |seed| -> Vec<u32> { scenarios(seed, &settings).iter().map(|s| s.id).collect() };
        assert_eq!(ids(0), (0..16).collect::<Vec<_>>());
        assert_eq!(ids(3), (48..64).collect::<Vec<_>>());
        for seed in [268_435_454, 268_435_455, 3_000_000_000, u64::MAX] {
            let set = scenarios(seed, &settings);
            assert_eq!(set.len(), 16, "seed {seed}");
            for class in ScenarioClass::ALL {
                assert_eq!(set.iter().filter(|s| s.class == class).count(), 4);
            }
        }
    }
}
