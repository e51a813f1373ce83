//! The repository benchmark: five single-threaded, closed-loop workloads
//! over the simulator and the serve daemon, end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced run, with
//! every run's outputs checked. See `README.md` for the workloads, the
//! metric definitions and the span format.
//!
//! ```text
//! untangle-perfbench run [--workload W] [--seed S] [--seconds N]
//!                        [--traced | --trace 0|1] [--smoke] [--out FILE]
//! untangle-perfbench calibrate [--runs K] [--workload W] [--seed S]
//!                              [--seconds N] [--smoke]
//! ```
//!
//! `run` prints `workload metric value unit` lines; with one workload it
//! ends with a JSON line `{"correct", "attempted", "failed", "metrics"}`
//! holding the end-to-end metrics, or the per-layer ones when traced.
//! `--trace 0|1` is `--traced` in the form benchmark runners pass it, next
//! to `--seconds N`, which sets how many jobs a run does (see
//! [`Workload::jobs`]). Every workload runs in a child process of its own
//! (with `UNTANGLE_OBS=off`, `UNTANGLE_THREADS=1`, `UNTANGLE_SHARDS=1`),
//! so peak memory is per workload. The exit code is 0 only when every
//! output check passed.

mod measure;
mod mixes;
mod scenarios;
mod serve;
mod spec;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use untangle_core::scheme::SchemeKind;
use untangle_obs::json::Json;

use measure::{Ctx, Outcome};
use spec::{bench_dir, golden_digest, MetricSpec, Spec};

/// The benchmark's workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Mix 4 under Untangle at the committed-results scale.
    MixUntangle,
    /// The same mix under Static.
    MixStatic,
    /// 16 generated scenarios through the phase-sampling pipeline.
    ScenarioSweep,
    /// 24 tenant generations through an in-memory serve engine.
    ServeMem,
    /// 600 domains through the durable serve path.
    ServeWal,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 5] = [
        Workload::MixUntangle,
        Workload::MixStatic,
        Workload::ScenarioSweep,
        Workload::ServeMem,
        Workload::ServeWal,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MixUntangle => "mix_untangle",
            Workload::MixStatic => "mix_static",
            Workload::ScenarioSweep => "scenario_sweep",
            Workload::ServeMem => "serve_mem",
            Workload::ServeWal => "serve_wal",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload '{name}'"))
    }

    /// Jobs an untraced pass runs per 10 s of budget. One job of a mix
    /// lasts about as long as one phase of the shared host's load (see
    /// `README.md`, "Noise"), so the mixes run two: the fastest tenth of
    /// their operations then seldom lies wholly in a slow phase.
    fn jobs_per_10s(self) -> f64 {
        match self {
            Workload::MixUntangle | Workload::MixStatic => 2.0,
            Workload::ScenarioSweep | Workload::ServeMem | Workload::ServeWal => 1.0,
        }
    }

    /// Jobs an untraced pass runs for a `seconds` budget: [`jobs_per_10s`]
    /// scaled to it, at least one. The count depends on `seconds` alone,
    /// never on how fast the host runs, so two runs with the same flags do
    /// the same work.
    ///
    /// [`jobs_per_10s`]: Workload::jobs_per_10s
    fn jobs(self, seconds: f64, smoke: bool) -> usize {
        if smoke {
            1
        } else {
            ((seconds / 10.0 * self.jobs_per_10s()).round() as usize).max(1)
        }
    }
}

/// Command-line flags shared by the subcommands.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    runs: Option<usize>,
    pass: Option<String>,
    work: Option<PathBuf>,
    spans: Option<PathBuf>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut f = Flags::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            let number = |v: String| {
                v.parse::<f64>()
                    .map_err(|_| format!("{flag}: bad number {v:?}"))
            };
            let count = |v: String| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: bad count {v:?}"))
            };
            match flag.as_str() {
                "--workload" => f.workload = Some(Workload::parse(&value()?)?),
                "--seed" => f.seed = Some(count(value()?)?),
                "--seconds" => f.seconds = Some(number(value()?)?.max(0.0)),
                "--trace" => {
                    f.traced = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                    }
                }
                "--traced" => f.traced = true,
                "--smoke" => f.smoke = true,
                "--out" => f.out = Some(PathBuf::from(value()?)),
                "--runs" => f.runs = Some(count(value()?)? as usize),
                "--pass" => f.pass = Some(value()?),
                "--work" => f.work = Some(PathBuf::from(value()?)),
                "--spans" => f.spans = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(f)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(rest),
        Some("calibrate") => cmd_calibrate(rest),
        Some("child") => cmd_child(rest).map(|()| 0),
        _ => Err("usage: untangle-perfbench run|calibrate [flags] (see README.md)".to_string()),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("untangle-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// `(name, value, unit)` of each metric, in `BENCHMARK.json` order.
type Metrics = Vec<(String, f64, String)>;

/// One workload's combined result, ready to print.
#[derive(Debug)]
struct Report {
    workload: Workload,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    digest: u64,
    /// End-to-end metrics, from the untraced pass.
    end_to_end: Metrics,
    /// Per-layer metrics; empty unless the run was traced.
    per_layer: Metrics,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Prints every metric of the run, end-to-end first.
    fn print(&self) {
        let w = self.workload.name();
        for p in &self.problems {
            eprintln!("{w}: FAILED CHECK: {p}");
        }
        println!("{w} output_digest {:016x} fnv1a", self.digest);
        println!(
            "{w} failed_frac {} ratio",
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for (name, value, unit) in self.end_to_end.iter().chain(&self.per_layer) {
            println!("{w} {name} {value} {unit}");
        }
    }

    /// The result line: the per-layer metrics of a traced run, the
    /// end-to-end metrics otherwise.
    fn json(&self) -> Json {
        let metrics = if self.per_layer.is_empty() {
            &self.end_to_end
        } else {
            &self.per_layer
        };
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            (
                "metrics",
                Json::Obj(
                    metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            (
                                name.clone(),
                                Json::obj(vec![
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::Str(unit.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Settings of one benchmark invocation.
#[derive(Debug)]
struct Run {
    seed: u64,
    seconds: f64,
    smoke: bool,
    /// Per-invocation scratch root, removed when the invocation ends.
    work: PathBuf,
}

impl Run {
    fn new(flags: &Flags, spec: &Spec) -> Result<Run, String> {
        // Fail fast (and print no result) outside a full checkout.
        for needed in ["crates", "results/mix04.csv"] {
            if !spec::repo_root().join(needed).exists() {
                return Err(format!(
                    "{needed} is missing: run from a full repository checkout"
                ));
            }
        }
        let work = bench_dir()
            .join("out")
            .join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        Ok(Run {
            seed: flags.seed.unwrap_or(0),
            seconds: flags.seconds.unwrap_or(spec.run_seconds),
            smoke: flags.smoke,
            work,
        })
    }

    /// Runs one pass of `workload` with a `seconds` budget in a child
    /// process and waits for it.
    fn child(
        &self,
        workload: Workload,
        pass: &str,
        obs: &str,
        seconds: f64,
        spans: Option<&Path>,
    ) -> Result<Outcome, String> {
        let work = self.work.join(format!("{}-{pass}-{obs}", workload.name()));
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("child")
            .args(["--workload", workload.name()])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--pass", pass])
            .arg("--work")
            .arg(&work);
        if self.smoke {
            cmd.arg("--smoke");
        }
        if let Some(spans) = spans {
            cmd.arg("--spans").arg(spans);
        }
        cmd.env("UNTANGLE_OBS", obs)
            .env("UNTANGLE_THREADS", "1")
            .env("UNTANGLE_SHARDS", "1")
            .env_remove("UNTANGLE_OBS_FILE")
            .env_remove("UNTANGLE_FAULT_INJECT")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let output = cmd.output();
        let _ = std::fs::remove_dir_all(&work);
        let output = output.map_err(|e| format!("cannot start the {pass} pass: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "{} {pass} pass failed ({})",
                workload.name(),
                output.status
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let json = Json::parse(last)
            .map_err(|e| format!("{} {pass} pass printed no result: {e}", workload.name()))?;
        Outcome::from_json(&json)
    }

    /// Runs `workload` untraced (and, when `traced`, also traced and, for
    /// `mix_untangle`, under `UNTANGLE_OBS=summary`) and assembles its
    /// report.
    fn workload(
        &self,
        spec: &Spec,
        workload: Workload,
        traced: bool,
        spans_out: Option<&Path>,
    ) -> Result<Report, String> {
        // A traced run is for its layer metrics: every pass of it runs one
        // job, which keeps it within a few times an untraced run's time.
        let seconds = if traced { 0.0 } else { self.seconds };
        let plain = self.child(workload, "untraced", "off", seconds, None)?;
        let mut report = Report {
            workload,
            attempted: plain.attempted,
            failed: plain.failed,
            problems: plain.problems.clone(),
            digest: plain.digest,
            end_to_end: declared(spec, &spec.end_to_end, &plain)?,
            per_layer: Vec::new(),
        };
        if self.seed == 0 {
            match golden_digest(workload.name(), self.smoke)? {
                Some(g) if g == plain.digest => {}
                Some(g) => {
                    report.failed = report.attempted;
                    report.problems.push(format!(
                        "output digest {:016x} differs from golden.json ({g:016x})",
                        plain.digest
                    ));
                }
                None => report
                    .problems
                    .push("golden.json pins no digest for this workload".to_string()),
            }
        }

        if traced {
            let spans = match spans_out {
                Some(out) => out.to_path_buf(),
                None => {
                    let own = bench_dir()
                        .join("out")
                        .join(format!("spans-{}.jsonl", workload.name()));
                    let _ = std::fs::remove_file(&own);
                    own
                }
            };
            let mut layers = self.child(workload, "traced", "off", seconds, Some(&spans))?;
            // The observability layer's cost is measured on the headline
            // workload only; it reads 0 elsewhere.
            let summary = if workload == Workload::MixUntangle {
                Some(self.child(workload, "untraced", "summary", seconds, None)?)
            } else {
                None
            };
            for (pass, other) in [("traced", Some(&layers)), ("obs-summary", summary.as_ref())] {
                let Some(other) = other else { continue };
                if other.digest != plain.digest {
                    report.failed = report.attempted;
                    report.problems.push(format!(
                        "{pass} digest {:016x} differs from the untraced {:016x}",
                        other.digest, plain.digest
                    ));
                }
                report.problems.extend(other.problems.iter().cloned());
            }
            for tail in [
                "op.samples",
                "op.p50_ms",
                "op.p90_ms",
                "op.p99_ms",
                "op.work_per_s",
            ] {
                layers.set(tail, plain.metric(tail).unwrap_or(0.0));
            }
            layers.set(
                "harness.trace_overhead_frac",
                layers.job_s / plain.job_s - 1.0,
            );
            if let Some(summary) = &summary {
                layers.set(
                    "obs.summary_overhead_frac",
                    summary.job_s / plain.job_s - 1.0,
                );
            }
            report.per_layer = declared(spec, &spec.per_layer, &layers)?;
        }
        Ok(report)
    }
}

/// The `declared` metrics as measured in `outcome`. A layer the workload
/// does not run did no work: it reads 0. A measured metric that
/// `BENCHMARK.json` does not declare is an error.
fn declared(spec: &Spec, declared: &[MetricSpec], outcome: &Outcome) -> Result<Metrics, String> {
    if let Some((name, _)) = outcome
        .metrics
        .iter()
        .find(|(n, _)| spec.metric(n).is_none())
    {
        return Err(format!(
            "{name} is measured but not declared in BENCHMARK.json"
        ));
    }
    Ok(declared
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                outcome.metric(&m.name).unwrap_or(0.0),
                m.unit.clone(),
            )
        })
        .collect())
}

impl Drop for Run {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

fn selected(flags: &Flags) -> Vec<Workload> {
    flags
        .workload
        .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w])
}

fn load_spec() -> Result<Spec, String> {
    let spec = Spec::load()?;
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if spec.workloads != ours {
        return Err(format!(
            "BENCHMARK.json declares workloads {:?}, the benchmark runs {ours:?}",
            spec.workloads
        ));
    }
    Ok(spec)
}

fn cmd_run(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args)?;
    let spec = load_spec()?;
    let run = Run::new(&flags, &spec)?;
    if let Some(out) = &flags.out {
        let _ = std::fs::remove_file(out);
    }
    let mut reports = Vec::new();
    for w in selected(&flags) {
        let report = run.workload(&spec, w, flags.traced, flags.out.as_deref())?;
        report.print();
        reports.push(report);
    }
    let correct = reports.iter().all(Report::correct);
    if let [report] = reports.as_slice() {
        println!("{}", report.json().render());
    } else {
        println!(
            "all correct={correct} attempted={} failed={}",
            reports.iter().map(|r| r.attempted).sum::<u64>(),
            reports.iter().map(|r| r.failed).sum::<u64>()
        );
    }
    Ok(if correct { 0 } else { 1 })
}

/// The first and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` (exclusive method) computes them.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn cmd_calibrate(args: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(args)?;
    let spec = load_spec()?;
    let run = Run::new(&flags, &spec)?;
    let runs = flags.runs.unwrap_or(5).max(1);
    let workloads = selected(&flags);
    let mut values: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); spec.end_to_end.len()]; workloads.len()];
    let mut correct = true;
    // Every run measures the same inputs, as a comparison between two
    // commits does, so the spread is the run-to-run noise alone.
    for r in 0..runs {
        // Alternate the order so drift over time does not favour one
        // workload.
        let order: Vec<usize> = if r % 2 == 0 {
            (0..workloads.len()).collect()
        } else {
            (0..workloads.len()).rev().collect()
        };
        for i in order {
            let report = run.workload(&spec, workloads[i], false, None)?;
            correct &= report.correct();
            for (k, (_, value, _)) in report.end_to_end.iter().enumerate() {
                values[i][k].push(*value);
            }
            eprintln!(
                "calibrate: run {} of {runs}: {} done",
                r + 1,
                workloads[i].name()
            );
        }
    }
    println!(
        "# calibrate: {runs} runs per workload, seed {}, nproc {}",
        run.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("# workload metric median q1 q3 iqr/median bound");
    let mut flagged = 0;
    for (i, w) in workloads.iter().enumerate() {
        for (k, m) in spec.end_to_end.iter().enumerate() {
            let med = measure::median(&values[i][k]);
            let (q1, q3) = quartiles(&values[i][k]);
            let spread = measure::frac(q3 - q1, med);
            let bound = m.bound.unwrap_or(f64::INFINITY);
            let flag = if spread > bound {
                flagged += 1;
                "  SPREAD EXCEEDS BOUND"
            } else {
                ""
            };
            println!(
                "{} {} {med:.6} {q1:.6} {q3:.6} {spread:.4} {bound}{flag}",
                w.name(),
                m.name
            );
        }
    }
    println!("# {flagged} metric(s) spread beyond their bound; outputs correct: {correct}");
    Ok(if correct { 0 } else { 1 })
}

fn cmd_child(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let workload = flags.workload.ok_or("child needs --workload")?;
    let ctx = Ctx {
        workload,
        seed: flags.seed.unwrap_or(0),
        jobs: workload.jobs(flags.seconds.unwrap_or(0.0), flags.smoke),
        smoke: flags.smoke,
        work: flags.work.ok_or("child needs --work")?,
    };
    std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("cannot create {}: {e}", ctx.work.display()))?;
    let traced = match flags.pass.as_deref() {
        Some("untraced") => false,
        Some("traced") => true,
        other => return Err(format!("unknown pass {other:?}")),
    };
    let mut outcome = match (ctx.workload, traced) {
        (Workload::MixUntangle, false) => mixes::untraced(&ctx, SchemeKind::Untangle),
        (Workload::MixUntangle, true) => mixes::traced(&ctx, SchemeKind::Untangle),
        (Workload::MixStatic, false) => mixes::untraced(&ctx, SchemeKind::Static),
        (Workload::MixStatic, true) => mixes::traced(&ctx, SchemeKind::Static),
        (Workload::ScenarioSweep, false) => scenarios::untraced(&ctx),
        (Workload::ScenarioSweep, true) => scenarios::traced(&ctx),
        (Workload::ServeMem, false) => serve::mem_untraced(&ctx),
        (Workload::ServeMem, true) => serve::mem_traced(&ctx),
        (Workload::ServeWal, false) => serve::wal_untraced(&ctx),
        (Workload::ServeWal, true) => serve::wal_traced(&ctx),
    }?;
    // Passes are compared at nominal host speed, as the end-to-end times
    // are; the layer metrics of a traced pass stay in host time.
    let slowdown = measure::host_slowdown();
    outcome.job_s /= slowdown;
    outcome.set("host.slowdown", slowdown);
    if let Some(path) = &flags.spans {
        // Append after the spans already in the file, continuing its ids.
        let base = std::fs::read_to_string(path).map_or(0, |t| t.lines().count() as u64);
        let io = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(measure::spans_jsonl(base).as_bytes()))
            .map_err(io)?;
    }
    println!("{}", outcome.to_json().render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
