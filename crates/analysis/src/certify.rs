//! Non-interference certification by secret-equivalence-class replay.
//!
//! §3.2's ground-truth recipe, specialized to a *certificate*: fix the
//! public part of the input (the workload mix — one **secret-
//! equivalence class**), enumerate the victim's secret within the
//! class, and run the scheme once per secret. A scheme is action-leak
//! free (§5.1) iff the resizing-action trace is constant within every
//! class — the attacker-visible actions then carry zero bits about the
//! secret.
//!
//! Two independent detectors feed the verdict:
//!
//! * the **taint audit** ([`untangle_core::taint::audit`]): every
//!   secret-labeled value that crossed into a resizing decision did so
//!   through a named `declassify` site, and the capture records them.
//!   This is the *sound* detector — it flags the flow even when the
//!   realized traces happen to coincide.
//! * **trace divergence**: action sequences that differ across secrets
//!   within a class, plus the measured within-class action entropy via
//!   [`untangle_core::enumerate::measure_leakage`]. This is the
//!   *refuting* detector — divergence proves leakage, agreement alone
//!   proves nothing.
//!
//! A scheme certifies [`Verdict::ActionLeakFree`] only when both
//! detectors are silent; otherwise the certificate names the exact
//! declassification sites, matching the paper's Fig. 2 edges ① (metric
//! demand on all accesses) and ③ (wall-clock schedule timing).

use untangle_core::enumerate::measure_leakage;
use untangle_core::runner::{Runner, RunnerConfig};
use untangle_core::scheme::{DomainTier, SchemeKind};
use untangle_core::taint::audit;
use untangle_core::UntangleError;
use untangle_obs::json::Json;
use untangle_trace::synth::{CryptoConfig, CryptoModel, WorkingSetConfig, WorkingSetModel};
use untangle_trace::TraceSource;

use std::collections::BTreeMap;

/// Attacker time resolution (cycles per observation unit) used when
/// quantizing traces for the within-class entropy measurement.
const RESOLUTION_CYCLES: f64 = 10_000.0;

/// How the certifier builds its secret-equivalence classes.
#[derive(Debug, Clone)]
pub struct CertifyConfig {
    /// Number of enumerated secrets per class (secret values
    /// `0..secrets`).
    pub secrets: u64,
    /// One public workload per class: the co-running working-set size
    /// in bytes. Each entry fixes the public input of one class.
    pub class_working_sets: Vec<u64>,
    /// Trace-model seed (shared across secrets so only the secret
    /// varies within a class).
    pub seed: u64,
}

impl Default for CertifyConfig {
    fn default() -> Self {
        Self {
            secrets: 3,
            class_working_sets: vec![512 << 10, 3 << 20],
            seed: 11,
        }
    }
}

/// The certified property, or its failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// All classes kept constant action traces and no secret-labeled
    /// value was declassified into a resizing decision.
    ActionLeakFree,
    /// Secret data reached the resizing decision; the certificate
    /// lists the declassification sites and/or divergent classes.
    LeakSites,
}

impl Verdict {
    /// Stable string form used in the JSON certificate.
    pub const fn name(self) -> &'static str {
        match self {
            Verdict::ActionLeakFree => "ActionLeakFree",
            Verdict::LeakSites => "LeakSites",
        }
    }
}

/// A named taint-audit site with its hit count, summed over all runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRecord {
    /// The `untangle_core::taint::sites` name.
    pub site: String,
    /// Total declassifications (or violations) recorded at the site.
    pub hits: u64,
}

/// Machine-readable non-interference certificate for one scheme.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Scheme display name (`UNTANGLE`, `TIME`, …).
    pub scheme: String,
    /// The overall verdict.
    pub verdict: Verdict,
    /// Number of secret-equivalence classes checked.
    pub classes: usize,
    /// Secrets enumerated per class.
    pub secrets_per_class: u64,
    /// Classes whose action traces differed across secrets.
    pub divergent_classes: usize,
    /// Largest within-class action leakage measured (bits; §5.1).
    pub max_action_bits: f64,
    /// Declassification sites through which secret data flowed into
    /// decisions, with hit counts (empty for `ActionLeakFree`).
    pub declassified_sites: Vec<SiteRecord>,
    /// Fail-closed rejections recorded by `require_public` (these are
    /// *blocked* flows, reported for visibility — they are not leaks).
    pub violations: Vec<SiteRecord>,
}

impl Certificate {
    /// The certificate as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("scheme", Json::Str(self.scheme.clone())),
            ("verdict", Json::Str(self.verdict.name().to_string())),
            ("classes", Json::Int(self.classes as i64)),
            (
                "secrets_per_class",
                Json::Int(self.secrets_per_class as i64),
            ),
            (
                "divergent_classes",
                Json::Int(self.divergent_classes as i64),
            ),
            ("max_action_bits", Json::Num(self.max_action_bits)),
            ("declassified_sites", sites_json(&self.declassified_sites)),
            ("violations", sites_json(&self.violations)),
        ])
    }

    /// Builds a certificate from captured taint-audit logs alone — the
    /// *sound-detector half* of [`certify_scheme`], for systems (the
    /// serve daemon's live shards) whose inputs arrive over a wire and
    /// cannot be re-enumerated per secret. The verdict is
    /// [`Verdict::ActionLeakFree`] iff no secret value was declassified
    /// into a decision; `require_public` refusals are *blocked* flows
    /// and are reported without failing the verdict. Because the
    /// trace-divergence refutation cannot run, the class/entropy fields
    /// are zero: this certificate asserts the audited-flow property
    /// only.
    pub fn from_audit(scheme: &str, logs: &[audit::AuditLog]) -> Certificate {
        let mut tally = SiteTally::default();
        for log in logs {
            tally.add(log);
        }
        let (declassified_sites, violations) = tally.into_records();
        let verdict = if declassified_sites.is_empty() {
            Verdict::ActionLeakFree
        } else {
            Verdict::LeakSites
        };
        Certificate {
            scheme: scheme.to_string(),
            verdict,
            classes: 0,
            secrets_per_class: 0,
            divergent_classes: 0,
            max_action_bits: 0.0,
            declassified_sites,
            violations,
        }
    }
}

/// Per-site hit counts summed over audit logs, in site-name order.
#[derive(Default)]
struct SiteTally {
    declassified: BTreeMap<&'static str, u64>,
    violations: BTreeMap<&'static str, u64>,
}

impl SiteTally {
    fn add(&mut self, log: &audit::AuditLog) {
        for s in &log.declassified {
            *self.declassified.entry(s.site).or_insert(0) += s.hits;
        }
        for s in &log.violations {
            *self.violations.entry(s.site).or_insert(0) += s.hits;
        }
    }

    /// The declassification and violation records.
    fn into_records(self) -> (Vec<SiteRecord>, Vec<SiteRecord>) {
        let records = |m: BTreeMap<&'static str, u64>| {
            m.into_iter()
                .map(|(site, hits)| SiteRecord {
                    site: site.to_string(),
                    hits,
                })
                .collect()
        };
        (records(self.declassified), records(self.violations))
    }
}

/// Site records as a JSON array of `{"site":…,"hits":…}` objects — the
/// shape of both the offline certificate's site lists and the serve
/// daemon's live certificate line.
pub fn sites_json(records: &[SiteRecord]) -> Json {
    Json::Arr(
        records
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("site", Json::Str(r.site.clone())),
                    ("hits", Json::Int(r.hits as i64)),
                ])
            })
            .collect(),
    )
}

/// Builds the mixed trace source for one (class, secret) cell: a
/// crypto region whose footprint scales with the secret, interleaved
/// with the class's fixed public working set.
fn class_source(working_set_bytes: u64, secret: u64, seed: u64) -> Box<dyn TraceSource> {
    let crypto = CryptoModel::new(
        CryptoConfig {
            secret,
            secret_scales_footprint: true,
            region_base: untangle_trace::LineAddr::new(1 << 40),
            ..CryptoConfig::default()
        },
        seed,
    );
    let public = WorkingSetModel::new(
        WorkingSetConfig {
            working_set_bytes,
            ..WorkingSetConfig::default()
        },
        seed,
    );
    Box::new(untangle_trace::source::Interleave::new(
        crypto, 2_000, public, 20_000,
    ))
}

/// Certifies one scheme against the configured equivalence classes.
///
/// # Errors
///
/// * [`UntangleError::InvalidConfig`] — `SHARED` is rejected up front:
///   with no partitions there are no resizing actions to certify, so
///   action-leakage certification is out of scope for it (its leakage
///   is through contention, not resizing). Also returned for an empty
///   class list or fewer than two secrets (no class to compare).
/// * Any simulator or entropy-measurement error, converted through
///   `UntangleError`.
pub fn certify_scheme(
    kind: SchemeKind,
    config: &CertifyConfig,
) -> Result<Certificate, UntangleError> {
    if kind == SchemeKind::Shared {
        return Err(UntangleError::InvalidConfig(
            "SHARED has no partitions to resize, so action-leakage \
             certification is out of scope (its leakage channel is \
             contention, not resizing actions)"
                .to_string(),
        ));
    }
    if config.class_working_sets.is_empty() {
        return Err(UntangleError::InvalidConfig(
            "certifier needs at least one secret-equivalence class".to_string(),
        ));
    }
    if config.secrets < 2 {
        return Err(UntangleError::InvalidConfig(
            "certifier needs at least two secrets per class to compare".to_string(),
        ));
    }

    let mut tally = SiteTally::default();
    let mut divergent_classes = 0usize;
    let mut max_action_bits = 0.0f64;

    for &working_set in &config.class_working_sets {
        // One run per enumerated secret, audited. Every run in the
        // class shares the public input; only the secret varies.
        let mut class_traces = Vec::new();
        for secret in 0..config.secrets {
            let (report, log) = audit::capture(|| -> Result<_, UntangleError> {
                let mut sources = vec![class_source(working_set, secret, config.seed)];
                let mut runner_config = RunnerConfig::test_scale(kind, 1);
                if kind == SchemeKind::SecDcp {
                    // SecDCP needs a public-tier domain to drive
                    // resizing; the secret-bearing domain is Sensitive.
                    sources.push(Box::new(WorkingSetModel::new(
                        WorkingSetConfig::default(),
                        config.seed,
                    )));
                    runner_config.tiers = Some(vec![DomainTier::Sensitive, DomainTier::Public]);
                }
                Ok(Runner::new(runner_config, sources)?.run())
            });
            let report = report?;
            tally.add(&log);
            class_traces.push(
                report
                    .domains
                    .into_iter()
                    .map(|d| d.trace)
                    .collect::<Vec<_>>(),
            );
        }

        // Within-class constancy: every domain's action sequence must
        // match the first secret's, for every enumerated secret.
        let baseline: Vec<_> = class_traces
            .first()
            .map(|doms| doms.iter().map(|t| t.action_sequence()).collect())
            .unwrap_or_default();
        let diverged = class_traces
            .iter()
            .any(|doms| doms.iter().map(|t| t.action_sequence()).collect::<Vec<_>>() != baseline);
        if diverged {
            divergent_classes += 1;
        }

        // Quantify the within-class action leakage (uniform secrets):
        // H of the realized action-trace ensemble, per §5.1. Taken per
        // domain; the certificate reports the worst case.
        let probs = vec![1.0 / config.secrets as f64; config.secrets as usize];
        let domains = class_traces.first().map(Vec::len).unwrap_or(0);
        // `d` picks the domain (inner index) while the enumerated input
        // `i` (outer index) is supplied by `measure_leakage`, so an
        // iterator over `class_traces` cannot replace this loop.
        #[allow(clippy::needless_range_loop)]
        for d in 0..domains {
            let breakdown =
                measure_leakage(&probs, RESOLUTION_CYCLES, |i| class_traces[i][d].clone())?;
            max_action_bits = max_action_bits.max(breakdown.action_bits);
        }
    }

    let (declassified_sites, violations) = tally.into_records();
    let verdict = if declassified_sites.is_empty() && divergent_classes == 0 {
        Verdict::ActionLeakFree
    } else {
        Verdict::LeakSites
    };
    Ok(Certificate {
        scheme: kind.name().to_string(),
        verdict,
        classes: config.class_working_sets.len(),
        secrets_per_class: config.secrets,
        divergent_classes,
        max_action_bits,
        declassified_sites,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use untangle_core::taint::sites;

    fn quick_config() -> CertifyConfig {
        CertifyConfig {
            secrets: 2,
            class_working_sets: vec![3 << 20],
            seed: 11,
        }
    }

    #[test]
    fn from_audit_distills_captured_logs() {
        use untangle_core::{Label, Labeled};
        let ((), clean_log) = audit::capture(|| {
            let v = Labeled::new(3u64, Label::Secret);
            // A refused flow is fail-closed, not a leak.
            assert!(v.require_public(sites::SERVE_TELEMETRY_INPUT).is_err());
        });
        let cert = Certificate::from_audit("UNTANGLE-SERVE", &[clean_log.clone(), clean_log]);
        assert_eq!(cert.verdict, Verdict::ActionLeakFree);
        assert!(cert.declassified_sites.is_empty());
        assert_eq!(cert.violations.len(), 1);
        assert_eq!(cert.violations[0].site, sites::SERVE_TELEMETRY_INPUT);
        assert_eq!(cert.violations[0].hits, 2, "logs merge additively");

        let ((), leaky_log) = audit::capture(|| {
            let v = Labeled::new(3u64, Label::Secret);
            let _ = v.declassify(sites::CONVENTIONAL_METRIC);
        });
        let cert = Certificate::from_audit("TIME", &[leaky_log]);
        assert_eq!(cert.verdict, Verdict::LeakSites);
        assert_eq!(cert.declassified_sites[0].site, sites::CONVENTIONAL_METRIC);
    }

    #[test]
    fn static_certifies_action_leak_free() {
        let cert = certify_scheme(SchemeKind::Static, &quick_config()).unwrap();
        assert_eq!(cert.verdict, Verdict::ActionLeakFree, "{cert:?}");
        assert!(cert.declassified_sites.is_empty());
        assert_eq!(cert.divergent_classes, 0);
        assert!(cert.max_action_bits.abs() < 1e-9);
    }

    #[test]
    fn untangle_certifies_action_leak_free() {
        let cert = certify_scheme(SchemeKind::Untangle, &quick_config()).unwrap();
        assert_eq!(cert.verdict, Verdict::ActionLeakFree, "{cert:?}");
        assert!(
            cert.declassified_sites.is_empty(),
            "Untangle's decision path must not declassify: {:?}",
            cert.declassified_sites
        );
        assert_eq!(cert.divergent_classes, 0);
    }

    #[test]
    fn time_is_flagged_with_exact_declassify_sites() {
        let cert = certify_scheme(SchemeKind::Time, &quick_config()).unwrap();
        assert_eq!(cert.verdict, Verdict::LeakSites, "{cert:?}");
        let names: Vec<&str> = cert
            .declassified_sites
            .iter()
            .map(|s| s.site.as_str())
            .collect();
        assert!(
            names.contains(&sites::TIME_SCHEDULE_WALL_CLOCK),
            "wall-clock schedule site missing: {names:?}"
        );
        assert!(
            names.contains(&sites::CONVENTIONAL_METRIC),
            "all-accesses metric site missing: {names:?}"
        );
        assert!(cert.declassified_sites.iter().all(|s| s.hits > 0));
    }

    #[test]
    fn secdcp_is_flagged_with_exact_declassify_sites() {
        let cert = certify_scheme(SchemeKind::SecDcp, &quick_config()).unwrap();
        assert_eq!(cert.verdict, Verdict::LeakSites, "{cert:?}");
        let names: Vec<&str> = cert
            .declassified_sites
            .iter()
            .map(|s| s.site.as_str())
            .collect();
        assert!(
            names.contains(&sites::TIME_SCHEDULE_WALL_CLOCK),
            "SecDCP's public-tier wall-clock schedule should surface: {names:?}"
        );
    }

    #[test]
    fn shared_is_rejected_out_of_scope() {
        let err = certify_scheme(SchemeKind::Shared, &quick_config()).unwrap_err();
        match err {
            UntangleError::InvalidConfig(msg) => {
                assert!(msg.contains("out of scope"), "{msg}");
                assert!(msg.contains("SHARED"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let mut cfg = quick_config();
        cfg.class_working_sets.clear();
        assert!(matches!(
            certify_scheme(SchemeKind::Static, &cfg),
            Err(UntangleError::InvalidConfig(_))
        ));
        let mut cfg = quick_config();
        cfg.secrets = 1;
        assert!(matches!(
            certify_scheme(SchemeKind::Static, &cfg),
            Err(UntangleError::InvalidConfig(_))
        ));
    }

    #[test]
    fn certificate_json_roundtrips_the_fields() {
        let cert = Certificate {
            scheme: "TIME".to_string(),
            verdict: Verdict::LeakSites,
            classes: 2,
            secrets_per_class: 3,
            divergent_classes: 1,
            max_action_bits: 1.5,
            declassified_sites: vec![SiteRecord {
                site: sites::TIME_SCHEDULE_WALL_CLOCK.to_string(),
                hits: 42,
            }],
            violations: vec![],
        };
        let json = cert.to_json().render();
        assert_eq!(
            json,
            "{\"scheme\":\"TIME\",\"verdict\":\"LeakSites\",\"classes\":2,\
             \"secrets_per_class\":3,\"divergent_classes\":1,\"max_action_bits\":1.5,\
             \"declassified_sites\":[{\"site\":\"schedule::time::wall_clock\",\"hits\":42}],\
             \"violations\":[]}"
        );
        let parsed = Json::parse(&json).expect("renders valid JSON");
        assert_eq!(parsed.render(), json);
    }
}
