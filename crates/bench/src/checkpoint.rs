//! Checkpoint/resume for long sweeps.
//!
//! `exp_mixes` at full scale is hours of wall clock; a crash at mix 15
//! used to throw all of it away. This module persists each completed
//! work item (one mix × four schemes, distilled into a [`MixSummary`])
//! as one JSON file under `<out>/checkpoints/`, and `--resume` skips
//! items whose checkpoint **fingerprint** — an FNV-1a hash over the mix
//! id, the evaluation scale, the RNG seed base, every
//! [`DinkelbachOptions`] field, the scheme list, and the format version
//! — matches the current invocation. A checkpoint written under
//! different settings can therefore never be replayed into the wrong
//! sweep: it is simply recomputed. (Before format version 2 the solver
//! configuration was *not* part of the fingerprint, so tightening or
//! loosening the Dinkelbach tolerance silently resumed checkpoints
//! computed under the old solver settings.)
//!
//! Three properties make resume sound:
//!
//! * **Bit-identical serialization.** [`crate::report::Json`] renders
//!   floats with Rust's shortest-roundtrip `Display` and
//!   [`crate::report::Json::parse`] reads them back bit-for-bit, so a
//!   resumed report is byte-identical to an uninterrupted one.
//! * **Durable, detectable writes.** Checkpoints are stored through
//!   [`untangle_durable::slot::Slot`]: written to a `.tmp` sibling,
//!   fsynced (file *and* parent directory), renamed into place, and
//!   framed with a length + FNV-1a checksum header. A kill mid-write
//!   leaves either the old checkpoint or the new one, never a mix, and
//!   any truncation, bit-rot, or trailing garbage is *detected* —
//!   [`CheckpointStore::load`] returns it as a recoverable
//!   [`UntangleError::Checkpoint`] (the sweep logs a diagnostic and
//!   recomputes the item fresh) instead of a lucky or unlucky parse.
//!   Version and fingerprint mismatches are *not* corruption: a
//!   checkpoint written under different settings loads as `Ok(None)`
//!   and is silently recomputed.
//! * **Write-on-completion.** The worker saves an item's checkpoint the
//!   moment the item finishes (see
//!   [`crate::experiments::run_all_mixes_resumable`]), so killing the
//!   process loses at most the items currently in flight — at most one
//!   per worker.

use std::path::PathBuf;

use untangle_core::scheme::SchemeKind;
use untangle_core::UntangleError;
use untangle_durable::slot::{Slot, SlotState};
use untangle_info::DinkelbachOptions;
use untangle_sim::stats::{geometric_mean, stable_sum};

use crate::experiments::MixEvaluation;
use crate::report::Json;

/// Bumped whenever the checkpoint layout or fingerprint inputs change;
/// part of the fingerprint, so old files are recomputed rather than
/// misread. Version 2 added the solver-configuration digest; version 3
/// moved storage into the checksummed [`Slot`] container (a version-2
/// file has no slot header, so it classifies as corrupt and is
/// recomputed after a diagnostic). Version 4 is shared with the
/// scenario-sweep checkpoints of [`crate::scenarios`], whose
/// fingerprints additionally fold in the on-disk trace format version.
pub const FORMAT_VERSION: u32 = 4;

/// The fingerprint tying a checkpoint to one exact work item: mix id,
/// evaluation scale (exact bits), RNG seed base, the full solver
/// configuration (every [`DinkelbachOptions`] field, float fields as
/// exact bit patterns), scheme list, and format version. Rendered as 16
/// hex digits.
pub fn sweep_fingerprint(
    mix_id: usize,
    scale: f64,
    seed_base: u64,
    options: &DinkelbachOptions,
) -> String {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(FORMAT_VERSION as u64).to_le_bytes());
    bytes.extend_from_slice(&(mix_id as u64).to_le_bytes());
    bytes.extend_from_slice(&scale.to_bits().to_le_bytes());
    bytes.extend_from_slice(&seed_base.to_le_bytes());
    bytes.extend_from_slice(&options.tolerance.to_bits().to_le_bytes());
    bytes.extend_from_slice(&(options.max_outer_iterations as u64).to_le_bytes());
    bytes.extend_from_slice(&(options.max_inner_iterations as u64).to_le_bytes());
    bytes.extend_from_slice(&options.inner_gap_tolerance.to_bits().to_le_bytes());
    bytes.extend_from_slice(&options.upper_bound_margin.to_bits().to_le_bytes());
    bytes.extend_from_slice(&(options.max_margin_doublings as u64).to_le_bytes());
    for kind in SchemeKind::ALL {
        bytes.extend_from_slice(kind.name().as_bytes());
    }
    format!("{:016x}", untangle_durable::fnv1a(&bytes))
}

/// Everything `exp_mixes` reports about one scheme's run over a mix,
/// in serializable form (per-domain vectors in chart order).
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeSummary {
    /// Scheme name (matches [`SchemeKind::name`]).
    pub kind: String,
    /// Per-domain IPC over the measured slice.
    pub ipc: Vec<f64>,
    /// Per-domain total leaked bits.
    pub total_bits: Vec<f64>,
    /// Per-domain assessment counts.
    pub assessments: Vec<u64>,
    /// Per-domain Maintain decision counts.
    pub maintains: Vec<u64>,
    /// Per-domain partition-size quartile labels
    /// `[min, q1, median, q3, max]`; `None` without samples.
    pub quartiles: Vec<Option<[String; 5]>>,
}

/// The distilled, serializable result of one mix under all four schemes
/// — exactly what the `exp_mixes` output (tables, charts, CSV) needs,
/// so a resumed run prints byte-identical artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct MixSummary {
    /// Mix id (1-based).
    pub mix_id: usize,
    /// Per-workload chart labels.
    pub labels: Vec<String>,
    /// Whether each workload's SPEC part is LLC-sensitive.
    pub sensitive: Vec<bool>,
    /// Total LLC demand in MB.
    pub total_demand_mb: f64,
    /// Summaries in [`SchemeKind::ALL`] order.
    pub schemes: Vec<SchemeSummary>,
}

impl MixSummary {
    /// Distills a full [`MixEvaluation`] (which holds entire run
    /// reports) into the checkpointable summary.
    pub fn from_evaluation(eval: &MixEvaluation) -> MixSummary {
        MixSummary {
            mix_id: eval.mix_id,
            labels: eval.labels.clone(),
            sensitive: eval.sensitive.clone(),
            total_demand_mb: eval.total_demand_mb,
            schemes: eval
                .runs
                .iter()
                .map(|run| SchemeSummary {
                    kind: run.kind.name().to_string(),
                    ipc: run.report.domains.iter().map(|d| d.ipc()).collect(),
                    total_bits: run
                        .report
                        .domains
                        .iter()
                        .map(|d| d.leakage.total_bits)
                        .collect(),
                    assessments: run
                        .report
                        .domains
                        .iter()
                        .map(|d| d.leakage.assessments)
                        .collect(),
                    maintains: run
                        .report
                        .domains
                        .iter()
                        .map(|d| d.leakage.maintains)
                        .collect(),
                    quartiles: run
                        .report
                        .domains
                        .iter()
                        .map(|d| {
                            d.size_quartiles().map(|(min, q1, med, q3, max)| {
                                [
                                    min.to_string(),
                                    q1.to_string(),
                                    med.to_string(),
                                    q3.to_string(),
                                    max.to_string(),
                                ]
                            })
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// The summary for one scheme.
    pub fn scheme(&self, kind: SchemeKind) -> &SchemeSummary {
        self.schemes
            .iter()
            .find(|s| s.kind == kind.name())
            .expect("summary covers all four schemes")
    }

    /// Per-domain leakage in bits per assessment under `kind` (same
    /// division and zero-guard as `LeakageReport::bits_per_assessment`,
    /// so resumed numbers match recomputed ones exactly).
    pub fn leakage_per_assessment(&self, kind: SchemeKind) -> Vec<f64> {
        let s = self.scheme(kind);
        s.total_bits
            .iter()
            .zip(&s.assessments)
            .map(|(&bits, &n)| if n == 0 { 0.0 } else { bits / n as f64 })
            .collect()
    }

    /// Per-workload IPC of `kind` normalized to Static.
    pub fn normalized_ipc(&self, kind: SchemeKind) -> Vec<f64> {
        let base = &self.scheme(SchemeKind::Static).ipc;
        self.scheme(kind)
            .ipc
            .iter()
            .zip(base)
            .map(|(&ipc, &b)| if b > 0.0 { ipc / b } else { 0.0 })
            .collect()
    }

    /// Geometric-mean speedup of `kind` over Static.
    pub fn speedup(&self, kind: SchemeKind) -> f64 {
        geometric_mean(&self.normalized_ipc(kind))
    }

    /// Fraction of all Untangle assessments that chose Maintain.
    pub fn maintain_fraction(&self) -> f64 {
        let s = self.scheme(SchemeKind::Untangle);
        let maintains: u64 = s.maintains.iter().sum();
        let total: u64 = s.assessments.iter().sum();
        if total == 0 {
            0.0
        } else {
            maintains as f64 / total as f64
        }
    }

    /// Average per-workload total leakage in bits under `kind`.
    pub fn avg_total_leakage(&self, kind: SchemeKind) -> f64 {
        let bits = &self.scheme(kind).total_bits;
        stable_sum(bits) / bits.len() as f64
    }

    /// Serializes to the checkpoint JSON payload.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mix_id", Json::Int(self.mix_id as i64)),
            (
                "labels",
                Json::Arr(self.labels.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "sensitive",
                Json::Arr(self.sensitive.iter().map(|&b| Json::Bool(b)).collect()),
            ),
            ("total_demand_mb", Json::Num(self.total_demand_mb)),
            (
                "schemes",
                Json::Arr(
                    self.schemes
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("kind", Json::Str(s.kind.clone())),
                                ("ipc", nums(&s.ipc)),
                                ("total_bits", nums(&s.total_bits)),
                                ("assessments", ints(&s.assessments)),
                                ("maintains", ints(&s.maintains)),
                                (
                                    "quartiles",
                                    Json::Arr(
                                        s.quartiles
                                            .iter()
                                            .map(|q| match q {
                                                None => Json::Null,
                                                Some(labels) => Json::Arr(
                                                    labels.iter().cloned().map(Json::Str).collect(),
                                                ),
                                            })
                                            .collect(),
                                    ),
                                ),
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
    /// Describes the first missing or mistyped field; the store treats
    /// any error as "no checkpoint" and recomputes the item.
    pub fn from_json(json: &Json) -> Result<MixSummary, String> {
        let schemes = field(json, "schemes")?
            .as_arr()
            .ok_or("'schemes' is not an array")?
            .iter()
            .map(|s| {
                Ok(SchemeSummary {
                    kind: field(s, "kind")?
                        .as_str()
                        .ok_or("'kind' is not a string")?
                        .to_string(),
                    ipc: f64_vec(s, "ipc")?,
                    total_bits: f64_vec(s, "total_bits")?,
                    assessments: u64_vec(s, "assessments")?,
                    maintains: u64_vec(s, "maintains")?,
                    quartiles: field(s, "quartiles")?
                        .as_arr()
                        .ok_or("'quartiles' is not an array")?
                        .iter()
                        .map(|q| match q {
                            Json::Null => Ok(None),
                            other => {
                                let items = other.as_arr().ok_or("quartile is not an array")?;
                                let labels: Vec<String> = items
                                    .iter()
                                    .map(|l| {
                                        l.as_str()
                                            .map(str::to_string)
                                            .ok_or("quartile label is not a string")
                                    })
                                    .collect::<Result<_, _>>()?;
                                <[String; 5]>::try_from(labels)
                                    .map(Some)
                                    .map_err(|_| "quartile needs exactly 5 labels")
                            }
                        })
                        .collect::<Result<_, &str>>()
                        .map_err(str::to_string)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(MixSummary {
            mix_id: field(json, "mix_id")?
                .as_i64()
                .and_then(|i| usize::try_from(i).ok())
                .ok_or("'mix_id' is not a non-negative integer")?,
            labels: field(json, "labels")?
                .as_arr()
                .ok_or("'labels' is not an array")?
                .iter()
                .map(|l| {
                    l.as_str()
                        .map(str::to_string)
                        .ok_or("label is not a string")
                })
                .collect::<Result<_, _>>()?,
            sensitive: field(json, "sensitive")?
                .as_arr()
                .ok_or("'sensitive' is not an array")?
                .iter()
                .map(|b| b.as_bool().ok_or("sensitivity flag is not a bool"))
                .collect::<Result<_, _>>()?,
            total_demand_mb: field(json, "total_demand_mb")?
                .as_f64()
                .ok_or("'total_demand_mb' is not a number")?,
            schemes,
        })
    }
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&x| Json::Num(x)).collect())
}

fn ints(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&x| Json::Int(x as i64)).collect())
}

pub(crate) fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key)
        .ok_or_else(|| format!("missing field '{key}'"))
}

fn f64_vec(json: &Json, key: &str) -> Result<Vec<f64>, String> {
    field(json, key)?
        .as_arr()
        .ok_or_else(|| format!("'{key}' is not an array"))?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| format!("'{key}' element is not a number"))
        })
        .collect()
}

fn u64_vec(json: &Json, key: &str) -> Result<Vec<u64>, String> {
    field(json, key)?
        .as_arr()
        .ok_or_else(|| format!("'{key}' is not an array"))?
        .iter()
        .map(|v| {
            v.as_i64()
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| format!("'{key}' element is not a non-negative integer"))
        })
        .collect()
}

/// The on-disk checkpoint directory for one sweep.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) the checkpoint directory.
    ///
    /// # Errors
    ///
    /// [`UntangleError::Checkpoint`] when the directory cannot be
    /// created.
    pub fn new(dir: impl Into<PathBuf>) -> Result<CheckpointStore, UntangleError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| UntangleError::Checkpoint {
            path: dir.display().to_string(),
            reason: format!("cannot create directory: {e}"),
        })?;
        Ok(CheckpointStore { dir })
    }

    /// The checkpoint path for one mix.
    pub fn path_for(&self, mix_id: usize) -> PathBuf {
        self.dir.join(format!("mix{mix_id:02}.json"))
    }

    /// Persists one completed item through the durable [`Slot`]
    /// (checksummed header, `.tmp` + rename, fsync on the file and its
    /// parent directory), tagged with its fingerprint.
    ///
    /// # Errors
    ///
    /// [`UntangleError::Checkpoint`] on any I/O failure; callers treat
    /// this as best-effort (the sweep result is unaffected, only
    /// resumability of this item is lost).
    pub fn save(&self, summary: &MixSummary, fingerprint: &str) -> Result<(), UntangleError> {
        let path = self.path_for(summary.mix_id);
        let payload = Json::obj(vec![
            ("version", Json::Int(FORMAT_VERSION as i64)),
            ("fingerprint", Json::Str(fingerprint.to_string())),
            ("summary", summary.to_json()),
        ]);
        Slot::new(&path)
            .store((payload.render() + "\n").as_bytes())
            .map_err(|e| UntangleError::Checkpoint {
                path: path.display().to_string(),
                reason: e.to_string(),
            })
    }

    /// Loads the checkpoint for `mix_id`.
    ///
    /// `Ok(Some(_))` means a valid checkpoint carrying the expected
    /// fingerprint; `Ok(None)` means "recompute, nothing wrong" — the
    /// file is missing or was written under different sweep settings
    /// (version or fingerprint mismatch).
    ///
    /// # Errors
    ///
    /// [`UntangleError::Checkpoint`] when a file is *present but
    /// damaged*: truncated, bit-flipped, carrying trailing garbage, or
    /// (despite an intact checksum) unparsable. The slot header makes
    /// every strict byte prefix of a checkpoint detectable, so a torn
    /// file can never be half-read. Callers log the diagnostic and
    /// recompute the item fresh — the error is recoverable by design.
    pub fn load(
        &self,
        mix_id: usize,
        fingerprint: &str,
    ) -> Result<Option<MixSummary>, UntangleError> {
        let path = self.path_for(mix_id);
        let corrupt = |reason: String| UntangleError::Checkpoint {
            path: path.display().to_string(),
            reason,
        };
        let bytes = match Slot::new(&path)
            .load()
            .map_err(|e| corrupt(e.to_string()))?
        {
            SlotState::Missing => return Ok(None),
            SlotState::Corrupt { reason } => return Err(corrupt(reason)),
            SlotState::Valid(bytes) => bytes,
        };
        let text =
            String::from_utf8(bytes).map_err(|_| corrupt("payload is not UTF-8".to_string()))?;
        let json = Json::parse(&text).map_err(|e| corrupt(format!("unparsable payload: {e}")))?;
        // Version / fingerprint mismatches are not corruption: the file
        // is intact, just written under different settings.
        let matches = json.get("version").and_then(Json::as_i64) == Some(FORMAT_VERSION as i64)
            && json.get("fingerprint").and_then(Json::as_str) == Some(fingerprint);
        if !matches {
            return Ok(None);
        }
        let summary = json
            .get("summary")
            .ok_or_else(|| corrupt("missing field 'summary'".to_string()))
            .and_then(|s| MixSummary::from_json(s).map_err(corrupt))?;
        // A checkpoint renamed across mixes cannot leak into the wrong
        // slot (the fingerprint covers the id, but be explicit).
        Ok((summary.mix_id == mix_id).then_some(summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary(mix_id: usize) -> MixSummary {
        let scheme = |kind: SchemeKind, with_samples: bool| SchemeSummary {
            kind: kind.name().to_string(),
            ipc: vec![1.25, 0.1 + 0.2],
            total_bits: vec![12.5, 0.0],
            assessments: vec![40, 0],
            maintains: vec![36, 0],
            quartiles: if with_samples {
                vec![
                    Some([
                        "1 MB".into(),
                        "1 MB".into(),
                        "2 MB".into(),
                        "2 MB".into(),
                        "4 MB".into(),
                    ]),
                    None,
                ]
            } else {
                vec![None, None]
            },
        };
        MixSummary {
            mix_id,
            labels: vec!["mcf_0".into(), "povray_0".into()],
            sensitive: vec![true, false],
            total_demand_mb: 18.5,
            schemes: SchemeKind::ALL
                .into_iter()
                .map(|k| scheme(k, k != SchemeKind::Static))
                .collect(),
        }
    }

    #[test]
    fn summary_roundtrips_bit_identically() {
        let original = sample_summary(3);
        let parsed =
            MixSummary::from_json(&Json::parse(&original.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed, original);
        // Float fields survive exactly, not approximately.
        assert_eq!(parsed.schemes[0].ipc[1].to_bits(), (0.1 + 0.2f64).to_bits());
    }

    #[test]
    fn derived_metrics_guard_zero_assessments() {
        let s = sample_summary(1);
        let leak = s.leakage_per_assessment(SchemeKind::Untangle);
        assert_eq!(leak, vec![12.5 / 40.0, 0.0]);
        assert!((s.maintain_fraction() - 36.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn store_roundtrips_and_rejects_mismatches() {
        let dir = std::env::temp_dir().join("untangle_ckpt_unit");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        let summary = sample_summary(7);
        let opts = DinkelbachOptions::default();
        let fp = sweep_fingerprint(7, 0.01, 0xfeed, &opts);

        assert!(
            store.load(7, &fp).unwrap().is_none(),
            "empty store has no items"
        );
        store.save(&summary, &fp).unwrap();
        assert_eq!(store.load(7, &fp).unwrap(), Some(summary.clone()));

        // A different scale produces a different fingerprint: a clean
        // skip (`Ok(None)`), not corruption.
        let other = sweep_fingerprint(7, 0.02, 0xfeed, &opts);
        assert_ne!(fp, other);
        assert!(store.load(7, &other).unwrap().is_none());

        // A file without the slot header (e.g. a pre-version-3
        // checkpoint, or hand-damaged bytes) is *detected* as corrupt —
        // a recoverable diagnostic, never a silent parse.
        std::fs::write(store.path_for(7), "{ torn").unwrap();
        let err = store.load(7, &fp).unwrap_err();
        assert!(
            matches!(err, UntangleError::Checkpoint { .. }),
            "got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_and_trailing_garbage_is_detected() {
        // Regression test for torn checkpoint files: every strict byte
        // prefix of a saved checkpoint — a kill at any point of a
        // non-atomic write — must load as a *detected* corruption, and
        // so must appended garbage. Nothing may silently parse.
        let dir = std::env::temp_dir().join("untangle_ckpt_truncation_sweep");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        let summary = sample_summary(5);
        let fp = sweep_fingerprint(5, 0.01, 0xfeed, &DinkelbachOptions::default());
        store.save(&summary, &fp).unwrap();
        let path = store.path_for(5);
        let full = std::fs::read(&path).unwrap();
        assert!(full.len() > 64, "checkpoint should be non-trivial");

        for len in 0..full.len() {
            std::fs::write(&path, &full[..len]).unwrap();
            let result = store.load(5, &fp);
            assert!(
                result.is_err(),
                "{len}-byte prefix of a {}-byte checkpoint must be detected, got {result:?}",
                full.len()
            );
        }

        let mut padded = full.clone();
        padded.extend_from_slice(b"tail");
        std::fs::write(&path, &padded).unwrap();
        assert!(
            store.load(5, &fp).is_err(),
            "trailing garbage must be detected"
        );

        // The intact bytes still load — detection is precise.
        std::fs::write(&path, &full).unwrap();
        assert_eq!(store.load(5, &fp).unwrap(), Some(summary));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_separates_every_input() {
        let opts = DinkelbachOptions::default();
        let base = sweep_fingerprint(1, 0.01, 0xfeed, &opts);
        assert_ne!(base, sweep_fingerprint(2, 0.01, 0xfeed, &opts));
        assert_ne!(base, sweep_fingerprint(1, 0.011, 0xfeed, &opts));
        assert_ne!(base, sweep_fingerprint(1, 0.01, 0xbeef, &opts));
        assert_eq!(base, sweep_fingerprint(1, 0.01, 0xfeed, &opts));
    }

    #[test]
    fn fingerprint_covers_every_solver_option() {
        // Regression test for the stale-resume bug: changing any
        // DinkelbachOptions field used to leave the fingerprint (and
        // therefore resumed checkpoints) unchanged.
        let defaults = DinkelbachOptions::default();
        let base = sweep_fingerprint(1, 0.01, 0xfeed, &defaults);
        let variants = [
            DinkelbachOptions {
                tolerance: 1e-6,
                ..defaults.clone()
            },
            DinkelbachOptions {
                max_outer_iterations: 32,
                ..defaults.clone()
            },
            DinkelbachOptions {
                max_inner_iterations: 2000,
                ..defaults.clone()
            },
            DinkelbachOptions {
                inner_gap_tolerance: 1e-8,
                ..defaults.clone()
            },
            DinkelbachOptions {
                upper_bound_margin: 1e-5,
                ..defaults.clone()
            },
            DinkelbachOptions {
                max_margin_doublings: 12,
                ..defaults.clone()
            },
        ];
        for (i, opts) in variants.iter().enumerate() {
            assert_ne!(
                base,
                sweep_fingerprint(1, 0.01, 0xfeed, opts),
                "option variant {i} must change the fingerprint"
            );
        }
        assert_eq!(base, sweep_fingerprint(1, 0.01, 0xfeed, &defaults.clone()));
    }

    #[test]
    fn solver_config_change_invalidates_saved_checkpoint() {
        // End-to-end: an item checkpointed under the default solver
        // options must NOT resume once the tolerance changes.
        let dir = std::env::temp_dir().join("untangle_ckpt_solver_cfg");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        let summary = sample_summary(3);
        let defaults = DinkelbachOptions::default();
        let fp_default = sweep_fingerprint(3, 0.01, 0xfeed, &defaults);
        store.save(&summary, &fp_default).unwrap();
        assert_eq!(store.load(3, &fp_default).unwrap(), Some(summary.clone()));

        let loosened = DinkelbachOptions {
            tolerance: 1e-6,
            ..defaults
        };
        let fp_loosened = sweep_fingerprint(3, 0.01, 0xfeed, &loosened);
        assert!(
            store.load(3, &fp_loosened).unwrap().is_none(),
            "checkpoint computed under different solver options must be recomputed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
