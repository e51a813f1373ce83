//! Throughput of the `untangle-serve` engine across shard counts.
//!
//! Feeds one deterministic multi-tenant event stream (default: 1200
//! domains × 10 telemetry rounds, Untangle/Static mix with two Maintain
//! credits) through engines at 1, 2, 4 and 8 shards, checks the output
//! is byte-identical at every shard count, and records decisions/sec
//! per shard count in the `serve` section of `BENCH_serve.json`.
//!
//! Two determinism gates run alongside the timing:
//!
//! * every shard count must emit byte-identical output for the fixed
//!   input interleaving (shard fan-out is unobservable);
//! * a 1-shard engine must reproduce a batch `Runner` tap replay's
//!   decision traces bit for bit (`tap_equivalent` in the report).
//!
//! A gate that fails ends the run with a diagnostic and exit status 1.
//!
//! The container this repo builds in is single-core, so the per-shard
//! numbers chart the sharding overhead floor rather than a speedup;
//! they become a scaling curve on real hardware.
//!
//! Usage: `cargo run --release -p untangle-bench --bin serve_bench
//! [--domains 1200] [--rounds 10] [--burst 1024] [--out BENCH_serve.json]`

use std::path::Path;

use untangle_bench::harness::timed;
use untangle_bench::report::{update_section, Json};
use untangle_bench::{parse_flag, table::TextTable};
use untangle_core::UntangleError;
use untangle_obs as obs;
use untangle_serve::synth::{synth_events, tap_replay, SynthConfig};
use untangle_serve::{ServeConfig, ServeEngine};

fn main() {
    if let Err(e) = run() {
        eprintln!("serve_bench: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), UntangleError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let domains: u64 = parse_flag(&args, "--domains", 1200)?;
    let rounds: u64 = parse_flag(&args, "--rounds", 10)?;
    let burst: usize = parse_flag(&args, "--burst", 1024)?;
    let out = parse_flag(&args, "--out", "BENCH_serve.json".to_string())?;

    let config = ServeConfig::test_scale();
    let synth = SynthConfig {
        domains,
        rounds,
        ..SynthConfig::small()
    };
    let events = synth_events(&config.params, &synth);
    obs::diag!(
        "# serve_bench: {domains} domains x {rounds} rounds = {} events",
        events.len()
    );

    let mut table = TextTable::new(vec!["shards", "decisions", "secs", "decisions/sec"]);
    let mut sections = Vec::new();
    let mut reference: Option<Vec<String>> = None;
    for shards in [1usize, 2, 4, 8] {
        let mut engine = ServeEngine::new(ServeConfig {
            shards,
            // The audit capture is part of the serving cost, so it stays
            // on for the timed runs, exactly as the daemon runs it.
            ..config.clone()
        })?;
        let (lines, wall) = timed(|| engine.ingest_all(&events, burst));
        let lines = lines?;
        if *reference.get_or_insert_with(|| lines.clone()) != lines {
            return Err(UntangleError::InvalidConfig(format!(
                "output is not byte-identical at {shards} shard(s)"
            )));
        }
        let decisions = lines.iter().filter(|l| l.contains("\"decision\"")).count();
        if (decisions as u64) < domains / 2 {
            return Err(UntangleError::InvalidConfig(format!(
                "the stream drove only {decisions} decisions over {domains} domains"
            )));
        }
        let secs = wall.as_secs_f64();
        let rate = decisions as f64 / secs.max(1e-9);
        table.row(vec![
            shards.to_string(),
            decisions.to_string(),
            format!("{secs:.3}"),
            format!("{rate:.0}"),
        ]);
        sections.push((
            format!("shards{shards}"),
            Json::obj(vec![
                ("shards", Json::Int(shards as i64)),
                ("events", Json::Int(events.len() as i64)),
                ("decisions", Json::Int(decisions as i64)),
                ("secs", Json::Num(secs)),
                ("decisions_per_sec", Json::Num(rate)),
            ]),
        ));
    }

    // Equivalence gate: the serve path must still be the batch path.
    let replay = tap_replay(3, 42, None, false);
    let mut engine = ServeEngine::new(replay.config.clone())?;
    let _ = engine.ingest_all(&replay.events, burst)?;
    let tap_equivalent = replay
        .traces
        .iter()
        .enumerate()
        .all(|(d, trace)| engine.trace_of(d as u64) == Some(trace));
    if !tap_equivalent {
        return Err(UntangleError::InvalidConfig(
            "1-shard replay diverged from the batch runner".to_string(),
        ));
    }

    println!("{}", table.render());
    println!("byte-identical across shard counts: yes");
    println!("tap replay bit-identical to the batch runner: yes");

    let mut payload: Vec<(&str, Json)> = vec![
        ("domains", Json::Int(domains as i64)),
        ("rounds", Json::Int(rounds as i64)),
        ("burst", Json::Int(burst as i64)),
        ("identical_across_shards", Json::Bool(true)),
        ("tap_equivalent", Json::Bool(tap_equivalent)),
    ];
    for (name, value) in &sections {
        payload.push((name.as_str(), value.clone()));
    }
    update_section(Path::new(&out), "serve", &Json::obj(payload))?;
    obs::diag!("wrote section `serve` of {out}");
    Ok(())
}
