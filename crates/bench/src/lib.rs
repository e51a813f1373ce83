//! Experiment harness regenerating the paper's tables and figures.
//!
//! Each binary in `src/bin/` regenerates one artifact (see DESIGN.md's
//! per-experiment index); the logic lives here so integration tests can
//! reuse it:
//!
//! * [`experiments::sensitivity_study`] — Fig. 11: normalized IPC of
//!   every benchmark under every partition size, and the derived
//!   adequate LLC sizes.
//! * [`experiments::run_mix_sweep`] — Figs. 10, 12–17 and Table 6: each
//!   mix under all four schemes, distilled into a
//!   [`checkpoint::MixSummary`] (normalized IPC, leakage per assessment,
//!   partition-size distribution).
//! * [`experiments::leakage_summary`] — Table 6: average per-assessment
//!   and total leakage under Time and Untangle.
//! * [`experiments::active_attacker_study`] — §9's worst-case leakage
//!   without the Maintain optimization, under squeeze pressure.
//! * [`experiments::rmax_vs_cooldown`] / [`experiments::rmax_vs_delay`] /
//!   [`experiments::strategy_example`] — §5.3's covert-channel behaviour:
//!   the strategy trade-off example, `R_max` against cooldown, delay
//!   width, and Maintain credit.
//! * [`table`] — plain-text table rendering for the binaries.
//! * [`plot`] — ASCII bar charts and sparklines for figure-shaped
//!   output.
//! * [`parallel`] — deterministic fan-out of experiment work across
//!   threads (`UNTANGLE_THREADS`), with per-item panic isolation and
//!   bounded retries.
//! * [`checkpoint`] — the one sweep engine ([`checkpoint::run_sweep`]):
//!   persisted work items and the `--resume` flow, so a killed sweep
//!   recomputes at most the items that were in flight.
//! * [`scenarios`] — the `exp_scenarios` sweep: on-disk trace
//!   generation, SimPoint-style slice sampling, weighted slice replay
//!   under every scheme, and sampled-vs-full validation.
//! * [`harness`] — the wall-clock timer the binaries report with.
//! * [`report`] — the machine-readable `BENCH_experiments.json` perf
//!   trajectory emitted by `exp_mixes` and `exp_table6`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod experiments;
pub mod harness;
pub mod parallel;
pub mod plot;
pub mod report;
pub mod scenarios;
pub mod table;

use untangle_core::UntangleError;

/// Parses a `--flag value` style argument from `args`, with a default.
///
/// ```
/// let args = vec!["--scale".to_string(), "0.05".to_string()];
/// let scale: f64 = untangle_bench::parse_flag(&args, "--scale", 0.01).unwrap();
/// assert_eq!(scale, 0.05);
/// ```
///
/// # Errors
///
/// An absent flag yields `default`; a present flag with a missing or
/// unparsable value is [`UntangleError::InvalidConfig`] naming the flag
/// and the value, so a typo never silently runs the default.
pub fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, UntangleError> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| UntangleError::InvalidConfig(format!("{flag} needs a value")))?;
    value
        .parse()
        .map_err(|_| UntangleError::InvalidConfig(format!("{flag}: cannot parse '{value}'")))
}

/// Whether a bare `--flag` is present.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Atomically writes an experiment artifact (a CSV, a report fragment),
/// folding the durability error into [`UntangleError`] so the binaries
/// can `?` it: every experiment binary reports failures through its exit
/// status instead of panicking (the `untangle-lint` panic-free rule
/// covers `src/bin/`).
pub fn write_artifact(path: &str, bytes: &[u8]) -> Result<(), UntangleError> {
    untangle_durable::atomic::atomic_write(path.as_ref(), bytes)
        .map_err(|e| UntangleError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_flag_reads_a_present_value() {
        let a = args(&["--mix", "3", "--scale", "0.25"]);
        assert_eq!(parse_flag(&a, "--mix", 0usize).unwrap(), 3);
        assert_eq!(parse_flag(&a, "--scale", 0.01).unwrap(), 0.25);
        assert_eq!(
            parse_flag(&a, "--out", "results".to_string()).unwrap(),
            "results"
        );
    }

    #[test]
    fn parse_flag_rejects_an_unparsable_value() {
        let err = parse_flag(&args(&["--mix", "one"]), "--mix", 0usize).unwrap_err();
        assert!(matches!(err, UntangleError::InvalidConfig(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("--mix") && msg.contains("'one'"), "{msg}");
        assert!(parse_flag(&args(&["--scale", "0.0o1"]), "--scale", 0.01).is_err());
        assert!(parse_flag(&args(&["--retries", "-1"]), "--retries", 1usize).is_err());
    }

    #[test]
    fn parse_flag_rejects_a_missing_value() {
        let err = parse_flag(&args(&["--out", "x", "--scale"]), "--scale", 0.01).unwrap_err();
        assert!(err.to_string().contains("--scale needs a value"), "{err}");
    }
}
