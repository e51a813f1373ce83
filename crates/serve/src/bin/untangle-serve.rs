//! The `untangle-serve` daemon binary, in file-replay form.
//!
//! CI has no sockets, so the ingest transport is a file of
//! line-delimited JSON events (`--replay`); the decision stream goes to
//! `--out` or stdout. The same binary doubles as the deterministic
//! fixture generator (`--synth-domains`/`--synth-rounds` render a
//! synthetic event stream instead of serving one).
//!
//! ```text
//! untangle-serve --replay examples/serve_events.jsonl --shards 2 --certify
//! untangle-serve --synth-domains 32 --synth-rounds 6 --out events.jsonl
//! ```
//!
//! Flags:
//!
//! * `--replay FILE` — parse FILE and ingest it through a
//!   [`ServeEngine`], printing one output line per admit/decision/
//!   retire/error.
//! * `--shards N` — shard count (default: `UNTANGLE_SHARDS`, else 1).
//! * `--burst N` — ingest chunk size in events (default 512).
//! * `--scale F` — paper-ratio parameters at time scale F (default:
//!   the small test-scale configuration).
//! * `--certify` — append a `{"type":"certificate",...}` line built by
//!   `untangle-analysis` from the live shards' taint-audit logs.
//! * `--synth-domains N`, `--synth-rounds R`, `--synth-time`,
//!   `--synth-tainted-every K`, `--synth-budget-every K`, `--seed S` —
//!   generate a synthetic event stream (fixture mode; mutually
//!   exclusive with `--replay`).
//! * `--out FILE` — write output lines to FILE instead of stdout.
//! * `--wal DIR` — crash-consistent mode: journal each `--burst` chunk
//!   of events to `DIR` as one batch (one fsync) before applying it
//!   and snapshot the engine periodically, so a killed daemon
//!   restarted with the same flags recovers and finishes a
//!   byte-identical `--out` stream. Requires `--replay` and `--out`;
//!   `--certify` is unsupported here (the decision stream is the
//!   durable artifact).
//! * `--snapshot-every N` — snapshot cadence in events for `--wal`
//!   (default 1024).

use std::process::ExitCode;

use untangle_analysis::certify::{sites_json, Certificate};
use untangle_obs::json::Json;
use untangle_obs::{self as obs};
use untangle_serve::synth::{synth_events, SynthConfig};
use untangle_serve::{DurableServer, Event, ServeConfig, ServeEngine};

/// What the daemon was asked to do.
enum Mode {
    /// Render a synthetic event stream (fixture mode).
    Synth(SynthConfig),
    /// Serve the events of a replay file.
    Replay(String),
    /// Serve the events of a replay file crash-consistently: journal
    /// them to `state_dir` and write the decision stream to `out`.
    Wal {
        replay: String,
        state_dir: String,
        out: String,
    },
}

/// The options beside the mode.
struct Args {
    shards: usize,
    burst: usize,
    scale: Option<f64>,
    /// Where [`Mode::Synth`] and [`Mode::Replay`] write (stdout when
    /// absent); [`Mode::Wal`] carries its own.
    out: Option<String>,
    certify: bool,
    snapshot_every: u64,
}

fn parse_args() -> Result<(Mode, Args), String> {
    let mut replay = None;
    let mut synth_domains = None;
    let mut synth = SynthConfig {
        domains: 0,
        rounds: 6,
        seed: 7,
        include_time: false,
        tainted_every: 0,
        budget_every: 0,
    };
    let mut wal = None;
    let mut args = Args {
        shards: obs::env::positive_count("UNTANGLE_SHARDS").unwrap_or(1),
        burst: 512,
        scale: None,
        out: None,
        certify: false,
        snapshot_every: 1024,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--replay" => replay = Some(value("--replay")?),
            "--synth-domains" => synth_domains = Some(parse_num(&value("--synth-domains")?)?),
            "--synth-rounds" => synth.rounds = parse_num(&value("--synth-rounds")?)?,
            "--synth-time" => synth.include_time = true,
            "--synth-tainted-every" => {
                synth.tainted_every = parse_num(&value("--synth-tainted-every")?)?;
            }
            "--synth-budget-every" => {
                synth.budget_every = parse_num(&value("--synth-budget-every")?)?;
            }
            "--seed" => synth.seed = parse_num(&value("--seed")?)?,
            "--shards" => {
                args.shards = parse_num::<usize>(&value("--shards")?)?;
                if args.shards == 0 {
                    return Err("--shards must be positive".to_string());
                }
            }
            "--burst" => args.burst = parse_num::<usize>(&value("--burst")?)?.max(1),
            "--scale" => {
                let raw = value("--scale")?;
                args.scale = Some(
                    raw.parse::<f64>()
                        .map_err(|e| format!("--scale {raw}: {e}"))?,
                );
            }
            "--out" => args.out = Some(value("--out")?),
            "--certify" => args.certify = true,
            "--wal" => wal = Some(value("--wal")?),
            "--snapshot-every" => {
                args.snapshot_every = parse_num::<u64>(&value("--snapshot-every")?)?.max(1);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let mode = match (replay, synth_domains, wal) {
        (Some(_), Some(_), _) => {
            return Err("--replay and --synth-domains are mutually exclusive".to_string())
        }
        (None, None, _) => {
            return Err(
                "nothing to do: pass --replay FILE or --synth-domains N (see the module docs)"
                    .to_string(),
            )
        }
        (replay, _, Some(state_dir)) => {
            let (Some(replay), Some(out)) = (replay, args.out.take()) else {
                return Err("--wal requires --replay FILE and --out FILE".to_string());
            };
            if args.certify {
                return Err("--certify is not supported with --wal".to_string());
            }
            Mode::Wal {
                replay,
                state_dir,
                out,
            }
        }
        (Some(replay), None, None) => Mode::Replay(replay),
        (None, Some(domains), None) => Mode::Synth(SynthConfig { domains, ..synth }),
    };
    Ok((mode, args))
}

fn parse_num<T: std::str::FromStr>(raw: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse::<T>().map_err(|e| format!("{raw}: {e}"))
}

fn config_for(args: &Args) -> Result<ServeConfig, String> {
    let mut config = match args.scale {
        Some(scale) => ServeConfig::eval_scale(scale).map_err(|e| e.to_string())?,
        None => ServeConfig::test_scale(),
    };
    config.shards = args.shards;
    Ok(config)
}

fn write_lines(out: Option<&str>, lines: &[String]) -> Result<(), String> {
    let text = lines.join("\n") + "\n";
    match out {
        Some(path) => {
            untangle_durable::atomic::atomic_write(path.as_ref(), text.as_bytes())
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let (mode, args) = parse_args()?;
    let config = config_for(&args)?;

    let path = match &mode {
        Mode::Synth(synth) => {
            let lines: Vec<String> = synth_events(&config.params, synth)
                .iter()
                .map(Event::render)
                .collect();
            return write_lines(args.out.as_deref(), &lines);
        }
        Mode::Replay(path) | Mode::Wal { replay: path, .. } => path,
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let events = Event::parse_stream(&text).map_err(|e| e.to_string())?;

    if let Mode::Wal { state_dir, out, .. } = &mode {
        let (mut server, recovery) = DurableServer::open(
            config,
            std::path::Path::new(state_dir),
            std::path::Path::new(out),
            args.burst,
            args.snapshot_every,
        )
        .map_err(|e| e.to_string())?;
        if recovery.snapshotted > 0 || recovery.replayed > 0 {
            obs::diag!(
                "recovered: {} events from snapshot, {} replayed from journal{}",
                recovery.snapshotted,
                recovery.replayed,
                if recovery.fail_closed_domains > 0 {
                    " (budgets charged fail-closed)"
                } else {
                    ""
                }
            );
        }
        server.serve(&events).map_err(|e| e.to_string())?;
        obs::emit_summary();
        return Ok(());
    }

    let mut engine = ServeEngine::new(config).map_err(|e| e.to_string())?;
    let mut lines = engine
        .ingest_all(&events, args.burst)
        .map_err(|e| e.to_string())?;

    if args.certify {
        let cert = Certificate::from_audit("UNTANGLE-SERVE", &engine.audit_logs());
        lines.push(
            Json::obj(vec![
                ("type", Json::Str("certificate".to_string())),
                ("scheme", Json::Str(cert.scheme.clone())),
                ("verdict", Json::Str(cert.verdict.name().to_string())),
                ("declassified_sites", sites_json(&cert.declassified_sites)),
                ("violations", sites_json(&cert.violations)),
            ])
            .render(),
        );
    }
    write_lines(args.out.as_deref(), &lines)?;
    obs::emit_summary();
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("untangle-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}
