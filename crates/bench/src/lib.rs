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

use std::str::FromStr;

use untangle_core::UntangleError;

/// The command-line flags of an experiment binary, read by name inside
/// [`Flags::read`]: `--flag value` pairs through [`Flags::value`],
/// bare switches through [`Flags::switch`].
#[derive(Debug)]
pub struct Flags {
    args: Vec<String>,
    /// Which of `args` a read consumed.
    consumed: Vec<bool>,
}

impl Flags {
    /// Runs `read` over `args`, then rejects every argument it did not
    /// consume — a misspelled or unsupported flag, a repeated flag, a
    /// stray value — so a typo never silently runs the defaults.
    ///
    /// ```
    /// use untangle_bench::Flags;
    ///
    /// let scale = |args: [&str; 2]| Flags::read(args.map(String::from), |f| f.value("--scale", 0.01));
    /// assert_eq!(scale(["--scale", "0.05"]).unwrap(), 0.05);
    /// assert!(scale(["--scael", "0.05"]).is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// Whatever `read` returns, else [`UntangleError::InvalidConfig`]
    /// naming the first argument `read` left unconsumed.
    pub fn read<T>(
        args: impl IntoIterator<Item = String>,
        read: impl FnOnce(&mut Flags) -> Result<T, UntangleError>,
    ) -> Result<T, UntangleError> {
        let args: Vec<String> = args.into_iter().collect();
        let consumed = vec![false; args.len()];
        let mut flags = Flags { args, consumed };
        let value = read(&mut flags)?;
        match flags.consumed.iter().position(|&c| !c) {
            None => Ok(value),
            Some(i) => {
                let arg = &flags.args[i];
                Err(UntangleError::InvalidConfig(format!(
                    "unknown argument '{arg}'"
                )))
            }
        }
    }

    /// The value of `--flag value`, or `default` when the flag is
    /// absent.
    ///
    /// # Errors
    ///
    /// A present flag with a missing or unparsable value is
    /// [`UntangleError::InvalidConfig`] naming the flag and the value.
    pub fn value<T: FromStr>(&mut self, flag: &str, default: T) -> Result<T, UntangleError> {
        let Some(i) = self.find(flag) else {
            return Ok(default);
        };
        let value = self
            .args
            .get(i + 1)
            .ok_or_else(|| UntangleError::InvalidConfig(format!("{flag} needs a value")))?;
        self.consumed[i + 1] = true;
        value
            .parse()
            .map_err(|_| UntangleError::InvalidConfig(format!("{flag}: cannot parse '{value}'")))
    }

    /// Whether the bare switch `--flag` is present.
    pub fn switch(&mut self, flag: &str) -> bool {
        self.find(flag).is_some()
    }

    /// The position of `flag`'s first occurrence, now consumed.
    fn find(&mut self, flag: &str) -> Option<usize> {
        let i = self.args.iter().position(|a| a == flag)?;
        self.consumed[i] = true;
        Some(i)
    }
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

    fn read<T>(
        items: &[&str],
        f: impl FnOnce(&mut Flags) -> Result<T, UntangleError>,
    ) -> Result<T, UntangleError> {
        Flags::read(items.iter().map(|s| s.to_string()), f)
    }

    #[test]
    fn value_reads_a_present_flag_or_the_default() {
        let got = read(&["--mix", "3", "--scale", "0.25", "--resume"], |f| {
            Ok((
                f.value("--mix", 0usize)?,
                f.value("--scale", 0.01)?,
                f.value("--out", "results".to_string())?,
                f.switch("--resume"),
                f.switch("--smoke"),
            ))
        });
        assert_eq!(got.unwrap(), (3, 0.25, "results".to_string(), true, false));
    }

    #[test]
    fn value_rejects_an_unparsable_value() {
        let err = read(&["--mix", "one"], |f| f.value("--mix", 0usize)).unwrap_err();
        assert!(matches!(err, UntangleError::InvalidConfig(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("--mix") && msg.contains("'one'"), "{msg}");
        assert!(read(&["--scale", "0.0o1"], |f| f.value("--scale", 0.01)).is_err());
        assert!(read(&["--retries", "-1"], |f| f.value("--retries", 1usize)).is_err());
    }

    #[test]
    fn value_rejects_a_missing_value() {
        let err = read(&["--out", "x", "--scale"], |f| {
            f.value("--out", String::new())?;
            f.value("--scale", 0.01)
        })
        .unwrap_err();
        assert!(err.to_string().contains("--scale needs a value"), "{err}");
    }

    #[test]
    fn read_rejects_every_argument_it_did_not_consume() {
        let scale = |items: &[&str]| read(items, |f| f.value("--scale", 0.01));
        for (items, unknown) in [
            (&["--scael", "0.001"][..], "'--scael'"),
            (&["--scale", "0.1", "--scale", "0.2"][..], "'--scale'"),
            (&["--scale", "0.1", "extra"][..], "'extra'"),
            (&["--resume"][..], "'--resume'"),
        ] {
            let err = scale(items).unwrap_err();
            assert!(matches!(err, UntangleError::InvalidConfig(_)), "{err:?}");
            assert!(err.to_string().contains(unknown), "{items:?}: {err}");
        }
        assert_eq!(scale(&[]).unwrap(), 0.01);
    }
}
