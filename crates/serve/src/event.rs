//! The serve wire format: line-delimited JSON ingest events.
//!
//! One event per line, discriminated by the `"ev"` field:
//!
//! ```json
//! {"ev":"admit","domain":3,"tenant":"acme","scheme":"untangle","quota_mb":16}
//! {"ev":"telemetry","domain":3,"cycles":24000,"progress":16000,"fill":2048,"curve":[0,4,9,9,9,9,9,9,9]}
//! {"ev":"retire","domain":3}
//! ```
//!
//! Parsing and rendering go through the workspace's hand-rolled
//! [`Json`] value, whose float formatting is shortest-roundtrip — a
//! render → parse cycle reproduces every cycle count bit for bit, which
//! the cross-shard determinism guarantee leans on.

use untangle_core::UntangleError;
use untangle_info::rate_table::RateTableConfig;
use untangle_obs::json::Json;
use untangle_sim::config::PartitionSize;
use untangle_sim::umon::HitCurve;

/// Which resizing scheme an admitted domain runs under. The service
/// exposes the three single-domain schemes; `Shared` and SecDCP's
/// cross-domain tiers have no per-domain decision pipeline to serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeScheme {
    /// Never assess, never resize: the admitted quota is the partition.
    Static,
    /// Conventional wall-clock schedule with the all-seeing metric;
    /// charges `log2 |A|` bits per assessment.
    Time,
    /// Progress-based schedule, public-only telemetry, `R_max`
    /// rate-table charging.
    Untangle,
}

impl ServeScheme {
    /// Stable lowercase wire name.
    pub const fn name(self) -> &'static str {
        match self {
            ServeScheme::Static => "static",
            ServeScheme::Time => "time",
            ServeScheme::Untangle => "untangle",
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<ServeScheme> {
        match name {
            "static" => Some(ServeScheme::Static),
            "time" => Some(ServeScheme::Time),
            "untangle" => Some(ServeScheme::Untangle),
            _ => None,
        }
    }
}

/// Admission of a new security domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Admit {
    /// Service-wide domain id (also the shard-routing key).
    pub domain: u64,
    /// Owning tenant; budgets and reporting are per tenant-owned
    /// domain.
    pub tenant: String,
    /// The resizing scheme this domain runs under.
    pub scheme: ServeScheme,
    /// The tenant's capacity quota for this domain in MiB: the
    /// decision heuristic's capacity horizon (the batch driver's LLC
    /// size, per tenant).
    pub quota_mb: u64,
    /// Optional per-tenant leakage budget in bits; resizing freezes —
    /// fail-closed through the taint layer — once it is exhausted.
    pub budget_bits: Option<f64>,
    /// Optional consecutive-Maintain credit override for the `R_max`
    /// accounting table (defaults to the engine's scheme parameters).
    pub credit: Option<usize>,
}

/// One utilization telemetry report for an admitted domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    /// The reporting domain.
    pub domain: u64,
    /// The domain clock in cycles. Wall-clock time is secret-dependent
    /// (Edge ③), and the service treats it so regardless of `tainted`.
    pub cycles: f64,
    /// Counted retired instructions since the previous report. Public
    /// by the §6 annotation contract (`secret_ctrl` retirements are
    /// excluded client-side).
    pub progress: u64,
    /// Monitor-window fill backing the utilization payload.
    pub fill: usize,
    /// Hit curve over the nine candidate sizes, if the client runs a
    /// hit-curve monitor.
    pub curve: Option<HitCurve>,
    /// Recent public-footprint bytes, if the client runs a footprint
    /// monitor instead.
    pub footprint: Option<u64>,
    /// Client declaration that the utilization payload is
    /// secret-influenced. Untangle-scheme domains refuse such payloads
    /// fail-closed.
    pub tainted: bool,
}

/// One ingest event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Admit a new domain.
    Admit(Admit),
    /// Utilization telemetry for an admitted domain.
    Telemetry(Telemetry),
    /// Retire a domain, releasing its state and reporting its totals.
    Retire {
        /// The domain to retire.
        domain: u64,
    },
}

fn bad(line_kind: &str, what: &str) -> UntangleError {
    UntangleError::InvalidConfig(format!("serve event ({line_kind}): {what}"))
}

fn field_u64(j: &Json, key: &str, kind: &str) -> Result<Option<u64>, UntangleError> {
    match j.get(key) {
        None => Ok(None),
        Some(v) => {
            let i = v
                .as_i64()
                .ok_or_else(|| bad(kind, &format!("field \"{key}\" must be an integer")))?;
            u64::try_from(i)
                .map(Some)
                .map_err(|_| bad(kind, &format!("field \"{key}\" must be non-negative")))
        }
    }
}

fn require_domain(j: &Json, kind: &str) -> Result<u64, UntangleError> {
    field_u64(j, "domain", kind)?.ok_or_else(|| bad(kind, "missing \"domain\""))
}

/// An admit's optional Maintain credit, at most
/// [`RateTableConfig::MAX_MAINTAINS`]: the engine precomputes
/// `credit + 1` rate-table entries before it writes any output, so an
/// unbounded credit would stall or crash the daemon — and, journaled
/// ahead of apply, every restart after it.
fn admit_credit(j: &Json) -> Result<Option<usize>, UntangleError> {
    match field_u64(j, "credit", "admit")? {
        Some(c) if c > RateTableConfig::MAX_MAINTAINS as u64 => Err(bad(
            "admit",
            &format!(
                "field \"credit\" must be at most {}",
                RateTableConfig::MAX_MAINTAINS
            ),
        )),
        credit => Ok(credit.map(|c| c as usize)),
    }
}

impl Event {
    /// The domain the event addresses — the shard-routing key.
    pub fn domain(&self) -> u64 {
        match self {
            Event::Admit(a) => a.domain,
            Event::Telemetry(t) => t.domain,
            Event::Retire { domain } => *domain,
        }
    }

    /// Parses one event line.
    ///
    /// # Errors
    ///
    /// [`UntangleError::InvalidConfig`] on malformed JSON, an unknown
    /// `"ev"` discriminator, or missing/ill-typed fields.
    pub fn parse_line(line: &str) -> Result<Event, UntangleError> {
        let j = Json::parse(line.trim()).map_err(|e| bad("line", &format!("invalid JSON: {e}")))?;
        let ev = j
            .get("ev")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("line", "missing string \"ev\" discriminator"))?;
        match ev {
            "admit" => {
                let scheme_name = j.get("scheme").and_then(Json::as_str).unwrap_or("untangle");
                let scheme = ServeScheme::parse(scheme_name)
                    .ok_or_else(|| bad("admit", &format!("unknown scheme \"{scheme_name}\"")))?;
                Ok(Event::Admit(Admit {
                    domain: require_domain(&j, "admit")?,
                    tenant: j
                        .get("tenant")
                        .and_then(Json::as_str)
                        .unwrap_or("default")
                        .to_string(),
                    scheme,
                    quota_mb: field_u64(&j, "quota_mb", "admit")?.unwrap_or(16),
                    budget_bits: j.get("budget_bits").and_then(Json::as_f64),
                    credit: admit_credit(&j)?,
                }))
            }
            "telemetry" => {
                let curve = match j.get("curve") {
                    None => None,
                    Some(v) => {
                        let arr = v
                            .as_arr()
                            .ok_or_else(|| bad("telemetry", "\"curve\" must be an array"))?;
                        if arr.len() != PartitionSize::COUNT {
                            return Err(bad(
                                "telemetry",
                                &format!("\"curve\" must have {} entries", PartitionSize::COUNT),
                            ));
                        }
                        let mut curve = [0u64; PartitionSize::COUNT];
                        for (slot, item) in curve.iter_mut().zip(arr) {
                            let hits = item
                                .as_i64()
                                .and_then(|i| u64::try_from(i).ok())
                                .ok_or_else(|| {
                                    bad("telemetry", "\"curve\" entries must be non-negative ints")
                                })?;
                            *slot = hits;
                        }
                        Some(curve)
                    }
                };
                Ok(Event::Telemetry(Telemetry {
                    domain: require_domain(&j, "telemetry")?,
                    cycles: j
                        .get("cycles")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| bad("telemetry", "missing numeric \"cycles\""))?,
                    progress: field_u64(&j, "progress", "telemetry")?.unwrap_or(0),
                    fill: field_u64(&j, "fill", "telemetry")?.unwrap_or(0) as usize,
                    curve,
                    footprint: field_u64(&j, "footprint", "telemetry")?,
                    tainted: j.get("tainted").and_then(Json::as_bool).unwrap_or(false),
                }))
            }
            "retire" => Ok(Event::Retire {
                domain: require_domain(&j, "retire")?,
            }),
            other => Err(bad("line", &format!("unknown event kind \"{other}\""))),
        }
    }

    /// Renders the event back to its one-line wire form.
    pub fn render(&self) -> String {
        let int = |v: u64| Json::Int(v as i64);
        match self {
            Event::Admit(a) => {
                let mut fields = vec![
                    ("ev", Json::Str("admit".to_string())),
                    ("domain", int(a.domain)),
                    ("tenant", Json::Str(a.tenant.clone())),
                    ("scheme", Json::Str(a.scheme.name().to_string())),
                    ("quota_mb", int(a.quota_mb)),
                ];
                if let Some(bits) = a.budget_bits {
                    fields.push(("budget_bits", Json::Num(bits)));
                }
                if let Some(credit) = a.credit {
                    fields.push(("credit", int(credit as u64)));
                }
                Json::obj(fields).render()
            }
            Event::Telemetry(t) => {
                let mut fields = vec![
                    ("ev", Json::Str("telemetry".to_string())),
                    ("domain", int(t.domain)),
                    ("cycles", Json::Num(t.cycles)),
                    ("progress", int(t.progress)),
                    ("fill", int(t.fill as u64)),
                ];
                if let Some(curve) = &t.curve {
                    fields.push((
                        "curve",
                        Json::Arr(curve.iter().map(|&h| Json::Int(h as i64)).collect()),
                    ));
                }
                if let Some(fp) = t.footprint {
                    fields.push(("footprint", int(fp)));
                }
                if t.tainted {
                    fields.push(("tainted", Json::Bool(true)));
                }
                Json::obj(fields).render()
            }
            Event::Retire { domain } => Json::obj(vec![
                ("ev", Json::Str("retire".to_string())),
                ("domain", int(*domain)),
            ])
            .render(),
        }
    }

    /// Parses a whole replay file: one event per non-empty line.
    ///
    /// # Errors
    ///
    /// The first line-level parse failure, with its line number.
    pub fn parse_stream(text: &str) -> Result<Vec<Event>, UntangleError> {
        let mut events = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            events.push(
                Event::parse_line(line).map_err(|e| {
                    UntangleError::InvalidConfig(format!("line {}: {e}", lineno + 1))
                })?,
            );
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_roundtrip_through_the_wire_form() {
        let events = vec![
            Event::Admit(Admit {
                domain: 7,
                tenant: "acme".to_string(),
                scheme: ServeScheme::Untangle,
                quota_mb: 8,
                budget_bits: Some(6.5),
                credit: Some(4),
            }),
            Event::Telemetry(Telemetry {
                domain: 7,
                cycles: 16_000.25,
                progress: 16_000,
                fill: 2048,
                curve: Some([0, 1, 2, 3, 4, 5, 6, 7, 8]),
                footprint: None,
                tainted: true,
            }),
            Event::Telemetry(Telemetry {
                domain: 9,
                cycles: 1.0,
                progress: 0,
                fill: 10,
                curve: None,
                footprint: Some(1 << 20),
                tainted: false,
            }),
            Event::Retire { domain: 7 },
        ];
        for ev in events {
            let line = ev.render();
            assert_eq!(Event::parse_line(&line).unwrap(), ev, "{line}");
        }
    }

    #[test]
    fn admit_defaults_apply() {
        let ev = Event::parse_line(r#"{"ev":"admit","domain":1}"#).unwrap();
        let Event::Admit(a) = ev else { panic!("admit") };
        assert_eq!(a.tenant, "default");
        assert_eq!(a.scheme, ServeScheme::Untangle);
        assert_eq!(a.quota_mb, 16);
        assert_eq!(a.budget_bits, None);
        assert_eq!(a.credit, None);
    }

    #[test]
    fn malformed_events_are_rejected_with_context() {
        for line in [
            "not json",
            r#"{"domain":1}"#,
            r#"{"ev":"resize","domain":1}"#,
            r#"{"ev":"admit"}"#,
            r#"{"ev":"admit","domain":-1}"#,
            r#"{"ev":"admit","domain":1,"scheme":"shared"}"#,
            r#"{"ev":"telemetry","domain":1}"#,
            r#"{"ev":"telemetry","domain":1,"cycles":5,"curve":[1,2]}"#,
        ] {
            assert!(
                matches!(
                    Event::parse_line(line),
                    Err(UntangleError::InvalidConfig(_))
                ),
                "should reject: {line}"
            );
        }
    }

    #[test]
    fn admit_credit_is_bounded() {
        let admit = |credit: &str| {
            Event::parse_line(&format!(r#"{{"ev":"admit","domain":1,"credit":{credit}}}"#))
        };
        let Event::Admit(a) = admit("64").unwrap() else {
            panic!("admit")
        };
        assert_eq!(a.credit, Some(RateTableConfig::MAX_MAINTAINS));
        for credit in ["65", &i64::MAX.to_string()] {
            assert!(
                matches!(admit(credit), Err(UntangleError::InvalidConfig(_))),
                "should reject credit {credit}"
            );
        }
    }

    #[test]
    fn parse_stream_reports_the_offending_line() {
        let text = "{\"ev\":\"retire\",\"domain\":1}\n\nnope\n";
        let err = Event::parse_stream(text).unwrap_err();
        let UntangleError::InvalidConfig(msg) = err else {
            panic!("config error")
        };
        assert!(msg.starts_with("line 3:"), "{msg}");
    }
}
