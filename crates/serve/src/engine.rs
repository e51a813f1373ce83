//! The sharded ingest engine: deterministic domain→shard assignment,
//! per-shard exclusive ownership, shared read-only accounting models,
//! and shard-count-independent output.
//!
//! # Sharding contract
//!
//! A domain is assigned to shard `fnv1a(domain) % shards` (FNV-1a over
//! the id's little-endian bytes, [`untangle_durable::fnv1a`]) for its whole
//! lifetime, and each shard exclusively owns the mutable state of
//! its domains — there is no cross-shard mutable data, so the fan-out
//! (one `std::thread` per shard) needs no locks. Because every
//! [`DomainDecider`] consults only its own domain's events, a domain's
//! decision trace is a pure function of its event subsequence; output
//! lines carry their global ingest index and are merged by it, so the
//! emitted stream is **byte-identical for any shard count and for any
//! interleaving that preserves per-domain event order**. The shard
//! property test in `tests/serve.rs` enforces exactly that.

use std::collections::{BTreeMap, HashMap};

use untangle_core::action::ResizingTrace;
use untangle_core::leakage::{AccountingMode, LeakageReport};
use untangle_core::runner::RunnerConfig;
use untangle_core::schedule::Schedule;
use untangle_core::scheme::{SchemeKind, SchemeParams};
use untangle_core::taint::audit::{self, AuditLog, SiteCount};
use untangle_core::taint::sites;
use untangle_core::UntangleError;
use untangle_info::{RateTable, RmaxCache};
use untangle_obs::json::Json;
use untangle_obs::{self as obs};
use untangle_sim::config::PartitionSize;

use crate::domain::DomainDecider;
use crate::event::{Admit, Event, ServeScheme};

/// Service-wide configuration: the scheme parameters every tenant
/// shares, the modeled core width (which fixes Untangle's structural
/// cooldown), and the shard count.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Dynamic-scheme parameters (schedules, heuristic, accounting).
    /// `params.leakage_budget_bits` is the default tenant budget; an
    /// admit event's `budget_bits` overrides it per domain.
    pub params: SchemeParams,
    /// Commit width of the modeled client cores (Table 3: 8); with the
    /// progress interval it fixes the cooldown `T_c` the rate tables
    /// are solved against.
    pub commit_width: u32,
    /// Every domain's starting partition size.
    pub initial_partition: PartitionSize,
    /// Base seed for the per-domain delay RNGs (domain `d` draws from
    /// `seed + d`, mixed — the batch driver's derivation).
    pub seed: u64,
    /// Number of shards. Decision output is independent of this; only
    /// the fan-out width changes.
    pub shards: usize,
    /// Record taint-audit logs per shard drain (the input to live
    /// certification). Costs one thread-local capture per drain.
    pub capture_audit: bool,
}

impl ServeConfig {
    /// The configuration whose domains decide like `runner`'s: the same
    /// scheme parameters, core width, starting size and delay-RNG base
    /// seed, on one shard with audit capture on.
    pub fn mirroring(runner: &RunnerConfig) -> Self {
        Self {
            params: runner.params.clone(),
            commit_width: runner.machine.timing.commit_width,
            initial_partition: runner.initial_partition,
            seed: runner.seed,
            shards: 1,
            capture_audit: true,
        }
    }

    /// A deliberately small configuration for unit tests and doctests:
    /// [`RunnerConfig::test_scale`] mirrored, so serve replays of batch
    /// telemetry are bit-comparable.
    pub fn test_scale() -> Self {
        Self::mirroring(&RunnerConfig::test_scale(SchemeKind::Untangle, 1))
    }

    /// Paper-ratio configuration at a linear time `scale`:
    /// [`RunnerConfig::eval_scale`] mirrored.
    ///
    /// # Errors
    ///
    /// Exactly the scales [`RunnerConfig::eval_scale`] rejects, with
    /// its [`UntangleError::InvalidConfig`].
    pub fn eval_scale(scale: f64) -> Result<Self, UntangleError> {
        RunnerConfig::eval_scale(SchemeKind::Untangle, scale).map(|runner| Self::mirroring(&runner))
    }
}

/// One shard: the domains it exclusively owns and the taint-audit log
/// accumulated over its drains.
#[derive(Debug, Default)]
struct Shard {
    domains: HashMap<u64, DomainDecider>,
    audit: AuditLog,
}

/// An output line queued for the deterministic merge: global ingest
/// index, sub-index within the event, rendered text.
type Line = (u64, u32, String);

/// The sharded, multi-tenant ingest engine. See the module docs for
/// the sharding contract.
#[derive(Debug)]
pub struct ServeEngine {
    config: ServeConfig,
    /// Precomputed `R_max` accounting models keyed by Maintain credit,
    /// resolved lazily (one rate table per new credit) and shared
    /// read-only by every shard.
    models: HashMap<usize, AccountingMode>,
    shards: Vec<Shard>,
    /// Global ingest index: position of the next event across all
    /// `ingest` calls, the primary merge key for output lines.
    ingested: u64,
}

impl ServeEngine {
    /// Builds an engine with `config.shards` empty shards.
    ///
    /// # Errors
    ///
    /// Returns [`UntangleError::InvalidConfig`] for a zero shard count
    /// or a schedule interval a scheme cannot run on
    /// ([`Schedule::check`]).
    pub fn new(config: ServeConfig) -> Result<Self, UntangleError> {
        if config.shards == 0 {
            return Err(UntangleError::InvalidConfig(
                "serve engine needs at least one shard".to_string(),
            ));
        }
        // Any scheme's domain may be admitted later.
        for kind in SchemeKind::ALL {
            Schedule::check(kind, &config.params)?;
        }
        let shards = (0..config.shards).map(|_| Shard::default()).collect();
        Ok(Self {
            config,
            models: HashMap::new(),
            shards,
            ingested: 0,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The shard a domain is (and will always be) assigned to.
    pub fn shard_of(&self, domain: u64) -> usize {
        (untangle_durable::fnv1a(&domain.to_le_bytes()) % self.shards.len() as u64) as usize
    }

    /// Number of currently admitted domains across all shards.
    pub fn live_domains(&self) -> usize {
        self.shards.iter().map(|s| s.domains.len()).sum()
    }

    /// The decision trace of a live domain.
    pub fn trace_of(&self, domain: u64) -> Option<&ResizingTrace> {
        self.shards[self.shard_of(domain)]
            .domains
            .get(&domain)
            .map(DomainDecider::trace)
    }

    /// The running leakage report of a live domain.
    pub fn leakage_of(&self, domain: u64) -> Option<LeakageReport> {
        self.shards[self.shard_of(domain)]
            .domains
            .get(&domain)
            .map(DomainDecider::leakage)
    }

    /// Each shard's accumulated taint-audit log, in shard order — the
    /// input to `untangle-analysis`' live certification.
    pub fn audit_logs(&self) -> Vec<AuditLog> {
        self.shards.iter().map(|s| s.audit.clone()).collect()
    }

    /// Total events ingested over the engine's lifetime — the global
    /// merge index of the *next* event, and the durable layer's cursor
    /// into a replayed input stream.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Serializes the engine — ingest cursor, every live domain, and
    /// the per-shard audit logs — for the durable layer's snapshot
    /// slot. Domains are sorted by id and their shard is recomputed
    /// from the id on restore, so the rendering is independent of
    /// `HashMap` iteration order; a restored engine's snapshot renders
    /// byte-identically.
    pub fn snapshot_json(&self) -> Json {
        let mut domains: Vec<(u64, &DomainDecider)> = self
            .shards
            .iter()
            .flat_map(|s| s.domains.iter().map(|(d, dec)| (*d, dec)))
            .collect();
        domains.sort_by_key(|&(d, _)| d);
        Json::obj(vec![
            ("v", Json::Int(1)),
            ("shards", Json::Int(self.shards.len() as i64)),
            ("ingested", Json::Int(self.ingested as i64)),
            (
                "domains",
                Json::Arr(
                    domains
                        .into_iter()
                        .map(|(_, dec)| dec.snapshot_json())
                        .collect(),
                ),
            ),
            (
                "audits",
                Json::Arr(self.shards.iter().map(|s| audit_json(&s.audit)).collect()),
            ),
        ])
    }

    /// Rebuilds an engine from a [`ServeEngine::snapshot_json`] value
    /// under the same configuration. The shard count is re-checked
    /// explicitly: decision output never depends on it, but budgets and
    /// audits are stored per shard, so a restore under a different
    /// fan-out must be an error rather than a silent re-binning.
    ///
    /// # Errors
    ///
    /// [`UntangleError::InvalidConfig`] naming the first malformed
    /// field (the payload arrives checksum-verified, so damage here
    /// means an incompatible writer — refuse, don't guess), plus any
    /// `R_max` precompute failure re-resolving accounting models.
    pub fn restore(config: ServeConfig, snap: &Json) -> Result<Self, UntangleError> {
        let bad =
            |reason: String| UntangleError::InvalidConfig(format!("serve snapshot: {reason}"));
        let mut engine = Self::new(config)?;
        if snap.get("v").and_then(Json::as_i64) != Some(1) {
            return Err(bad("unsupported snapshot version".to_string()));
        }
        let shards = snap
            .get("shards")
            .and_then(Json::as_i64)
            .ok_or_else(|| bad("missing field 'shards'".to_string()))?;
        if shards != engine.shards.len() as i64 {
            return Err(bad(format!(
                "snapshot was taken with {shards} shards, the configuration has {}",
                engine.shards.len()
            )));
        }
        engine.ingested = snap
            .get("ingested")
            .and_then(Json::as_i64)
            .and_then(|i| u64::try_from(i).ok())
            .ok_or_else(|| bad("missing field 'ingested'".to_string()))?;

        let domain_snaps = snap
            .get("domains")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing field 'domains'".to_string()))?;
        let mut admits = Vec::with_capacity(domain_snaps.len());
        for (i, d) in domain_snaps.iter().enumerate() {
            let line = d
                .get("admit")
                .and_then(Json::as_str)
                .ok_or_else(|| bad(format!("domain {i}: missing field 'admit'")))?;
            match Event::parse_line(line).map_err(|e| bad(format!("domain {i}: {e}")))? {
                Event::Admit(admit) => admits.push(admit),
                _ => return Err(bad(format!("domain {i}: 'admit' is not an admit event"))),
            }
        }
        engine.resolve_models(admits.iter())?;
        for (admit, d) in admits.iter().zip(domain_snaps) {
            let accounting = Self::accounting_of(&engine.config, &engine.models, admit)
                .ok_or_else(|| bad(format!("domain {}: no accounting model", admit.domain)))?;
            let decider = DomainDecider::restore(admit, &engine.config, accounting, d)
                .map_err(|e| bad(format!("domain {}: {e}", admit.domain)))?;
            let shard = engine.shard_of(admit.domain);
            if engine.shards[shard]
                .domains
                .insert(admit.domain, decider)
                .is_some()
            {
                return Err(bad(format!("duplicate domain {}", admit.domain)));
            }
        }

        let audits = snap
            .get("audits")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing field 'audits'".to_string()))?;
        if audits.len() != engine.shards.len() {
            return Err(bad(format!(
                "snapshot holds {} audit logs for {} shards",
                audits.len(),
                engine.shards.len()
            )));
        }
        for (shard, log) in engine.shards.iter_mut().zip(audits) {
            shard.audit = audit_restore(log).map_err(bad)?;
        }
        Ok(engine)
    }

    /// Charges `bits` against every live domain whose scheme spends
    /// leakage budget (every non-Static domain) — the durable layer's
    /// fail-closed response when a damaged WAL leaves the true charge
    /// for already-emitted decisions unknowable. Budgets may over-count
    /// after damage, never under-count; domains pushed past their
    /// budget freeze through the ordinary gate. Returns the number of
    /// domains charged.
    pub fn charge_external_all(&mut self, bits: f64) -> usize {
        let mut charged = 0;
        for shard in &mut self.shards {
            for decider in shard.domains.values_mut() {
                if decider.scheme() != ServeScheme::Static {
                    decider.charge_external(bits);
                    charged += 1;
                }
            }
        }
        charged
    }

    /// Ingests a batch of events and returns the rendered output lines
    /// in deterministic (ingest-index) order.
    ///
    /// Malformed *streams* fail at parse time before reaching this
    /// method; semantic errors on well-formed events (duplicate admit,
    /// telemetry for an unknown domain) become `serve_error` output
    /// lines rather than aborting the batch — a multi-tenant daemon
    /// must not let one tenant's stray event take down the rest.
    ///
    /// # Errors
    ///
    /// Returns the first `R_max` precompute failure (Untangle admits
    /// only; the solve happens before any event is applied).
    pub fn ingest(&mut self, events: &[Event]) -> Result<Vec<String>, UntangleError> {
        self.resolve_models(events.iter().filter_map(|e| match e {
            Event::Admit(a) => Some(a),
            _ => None,
        }))?;

        // Route: one queue per shard, each event tagged with its global
        // ingest index.
        let mut queues: Vec<Vec<(u64, Event)>> = Vec::new();
        queues.resize_with(self.shards.len(), Vec::new);
        for event in events {
            let idx = self.ingested;
            self.ingested += 1;
            let shard = self.shard_of(event.domain());
            queues[shard].push((idx, event.clone()));
        }
        for (k, queue) in queues.iter().enumerate() {
            obs::gauge_set(&format!("serve.shard{k}.queue_depth"), queue.len() as f64);
        }

        let mut lines = self.run_shards(queues);
        for (k, shard) in self.shards.iter().enumerate() {
            obs::gauge_set(
                &format!("serve.shard{k}.domains"),
                shard.domains.len() as f64,
            );
        }

        // The deterministic merge: global ingest order, then sub-line
        // order within one event. Shard identity never reaches the
        // output, so shard count cannot change a byte of it.
        lines.sort_by_key(|&(idx, sub, _)| (idx, sub));
        Ok(lines.into_iter().map(|(_, _, text)| text).collect())
    }

    /// [`ServeEngine::ingest`] over `burst`-sized chunks, concatenating
    /// the output — the replay driver's arrival model.
    ///
    /// # Errors
    ///
    /// As for [`ServeEngine::ingest`]; lines from chunks before the
    /// failing one are lost.
    pub fn ingest_all(
        &mut self,
        events: &[Event],
        burst: usize,
    ) -> Result<Vec<String>, UntangleError> {
        let mut out = Vec::new();
        for chunk in events.chunks(burst.max(1)) {
            out.extend(self.ingest(chunk)?);
        }
        Ok(out)
    }

    /// Ensures an accounting model exists for the Maintain credit of
    /// every Untangle domain in `admits`, solving the missing rate
    /// tables in one batch through the process-wide cache (a smaller
    /// credit's table is answered from the leading entries of a larger
    /// one). Ingest calls this with a batch's admits, snapshot restore
    /// with the restored domains'.
    fn resolve_models<'a>(
        &mut self,
        admits: impl Iterator<Item = &'a Admit>,
    ) -> Result<(), UntangleError> {
        let mut missing: Vec<usize> = admits
            .filter(|a| a.scheme == ServeScheme::Untangle)
            .map(|a| credit_of(&self.config, a))
            .filter(|credit| !self.models.contains_key(credit))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        if missing.is_empty() {
            return Ok(());
        }

        let params = &self.config.params;
        let mut specs = Vec::with_capacity(missing.len());
        let mut options = None;
        for &credit in &missing {
            let per_credit = SchemeParams {
                max_maintain_credit: credit,
                ..params.clone()
            };
            let (config, opts) = per_credit.rate_table_spec(self.config.commit_width)?;
            specs.push(config);
            options.get_or_insert(opts);
        }
        let options = options.expect("missing is non-empty");
        let tables =
            RateTable::precompute_many_batched_cached(&specs, &options, RmaxCache::global())?;
        for (credit, (table, _stats)) in missing.into_iter().zip(tables) {
            self.models.insert(
                credit,
                params.rate_accounting(table, self.config.commit_width),
            );
        }
        Ok(())
    }

    /// Drains every shard's queue: one scoped thread per shard when there
    /// is more than one shard, in the caller's thread otherwise.
    fn run_shards(&mut self, queues: Vec<Vec<(u64, Event)>>) -> Vec<Line> {
        let config = &self.config;
        let models = &self.models;
        if self.shards.len() > 1 {
            return std::thread::scope(|scope| {
                let workers: Vec<_> = self
                    .shards
                    .iter_mut()
                    .zip(queues)
                    .map(|(shard, queue)| {
                        scope.spawn(move || Self::drain(config, models, shard, queue))
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("serve shard worker panicked"))
                    .collect()
            });
        }
        self.shards
            .iter_mut()
            .zip(queues)
            .flat_map(|(shard, queue)| Self::drain(config, models, shard, queue))
            .collect()
    }

    /// Drains one shard's queue, recording the taint audit when
    /// configured. Runs on the shard's worker thread when there are
    /// several shards; the audit capture is thread-local, so each
    /// shard's log contains exactly its own domains' crossings.
    fn drain(
        config: &ServeConfig,
        models: &HashMap<usize, AccountingMode>,
        shard: &mut Shard,
        queue: Vec<(u64, Event)>,
    ) -> Vec<Line> {
        if !config.capture_audit {
            return Self::drain_inner(config, models, shard, queue);
        }
        let (lines, log) = audit::capture(|| Self::drain_inner(config, models, shard, queue));
        merge_audit(&mut shard.audit, log);
        lines
    }

    fn drain_inner(
        config: &ServeConfig,
        models: &HashMap<usize, AccountingMode>,
        shard: &mut Shard,
        queue: Vec<(u64, Event)>,
    ) -> Vec<Line> {
        let mut lines = Vec::new();
        for (idx, event) in queue {
            match event {
                Event::Admit(admit) => {
                    if shard.domains.contains_key(&admit.domain) {
                        lines.push(error_line(
                            idx,
                            &format!("domain {} already admitted", admit.domain),
                        ));
                        continue;
                    }
                    let Some(accounting) = Self::accounting_of(config, models, &admit) else {
                        lines.push(error_line(
                            idx,
                            &format!("no accounting model for domain {}", admit.domain),
                        ));
                        continue;
                    };
                    let decider = match DomainDecider::new(&admit, config, accounting) {
                        Ok(decider) => decider,
                        Err(e) => {
                            lines.push(error_line(idx, &format!("domain {}: {e}", admit.domain)));
                            continue;
                        }
                    };
                    shard.domains.insert(admit.domain, decider);
                    obs::counter_add("serve.admitted", 1);
                    lines.push((
                        idx,
                        0,
                        Json::obj(vec![
                            ("type", Json::Str("admitted".to_string())),
                            ("domain", Json::Int(admit.domain as i64)),
                            ("tenant", Json::Str(admit.tenant.clone())),
                            ("scheme", Json::Str(admit.scheme.name().to_string())),
                            ("quota_mb", Json::Int(admit.quota_mb as i64)),
                        ])
                        .render(),
                    ));
                }
                Event::Telemetry(t) => {
                    let Some(decider) = shard.domains.get_mut(&t.domain) else {
                        lines.push(error_line(
                            idx,
                            &format!("telemetry for unknown domain {}", t.domain),
                        ));
                        continue;
                    };
                    let outcome = decider.on_telemetry(&t);
                    let mut sub = 0u32;
                    if outcome.first_exhaustion {
                        lines.push((
                            idx,
                            sub,
                            Json::obj(vec![
                                ("type", Json::Str("budget_exhausted".to_string())),
                                ("domain", Json::Int(t.domain as i64)),
                                ("tenant", Json::Str(decider.tenant().to_string())),
                                ("at", Json::Num(t.cycles)),
                            ])
                            .render(),
                        ));
                        sub += 1;
                    }
                    if let Some(decision) = outcome.decision {
                        lines.push((
                            idx,
                            sub,
                            Json::obj(vec![
                                ("type", Json::Str("decision".to_string())),
                                ("domain", Json::Int(t.domain as i64)),
                                ("tenant", Json::Str(decider.tenant().to_string())),
                                ("seq", Json::Int(decision.seq as i64)),
                                ("action", Json::Str(decision.class.name().to_string())),
                                ("size_kb", Json::Int((decision.size.bytes() / 1024) as i64)),
                                ("decided_at", Json::Num(decision.decided_at)),
                                ("applied_at", Json::Num(decision.applied_at)),
                            ])
                            .render(),
                        ));
                    }
                }
                Event::Retire { domain } => {
                    let Some(decider) = shard.domains.remove(&domain) else {
                        lines.push(error_line(
                            idx,
                            &format!("retire for unknown domain {domain}"),
                        ));
                        continue;
                    };
                    obs::counter_add("serve.retired", 1);
                    let leakage = decider.leakage();
                    lines.push((
                        idx,
                        0,
                        Json::obj(vec![
                            ("type", Json::Str("retired".to_string())),
                            ("domain", Json::Int(domain as i64)),
                            ("tenant", Json::Str(decider.tenant().to_string())),
                            ("decisions", Json::Int(decider.decisions() as i64)),
                            ("visible", Json::Int(decider.trace().visible_count() as i64)),
                            ("leak_bits", Json::Num(leakage.total_bits)),
                            ("exhaustions", Json::Int(decider.exhaustions() as i64)),
                        ])
                        .render(),
                    ));
                }
            }
        }
        lines
    }

    /// The accounting model for an admitted domain, resolvable from the
    /// shared read-only references a shard worker holds: an Untangle
    /// domain charges from its credit's pre-solved rate table, the
    /// others from their scheme's flat model. `None` only if an
    /// Untangle credit was never resolved, which `ingest` prevents.
    fn accounting_of(
        config: &ServeConfig,
        models: &HashMap<usize, AccountingMode>,
        admit: &Admit,
    ) -> Option<AccountingMode> {
        match admit.scheme {
            ServeScheme::Untangle => models.get(&credit_of(config, admit)).cloned(),
            scheme => config
                .params
                .accounting(scheme.kind(), config.commit_width)
                .ok(),
        }
    }
}

/// The Maintain credit an admit resolves to (its own, or the service
/// default).
fn credit_of(config: &ServeConfig, admit: &Admit) -> usize {
    admit.credit.unwrap_or(config.params.max_maintain_credit)
}

/// Renders a `serve_error` output line for the event at `idx`.
fn error_line(idx: u64, msg: &str) -> Line {
    obs::counter_add("serve.errors", 1);
    (
        idx,
        0,
        Json::obj(vec![
            ("type", Json::Str("serve_error".to_string())),
            ("event", Json::Int(idx as i64)),
            ("msg", Json::Str(msg.to_string())),
        ])
        .render(),
    )
}

/// Renders one shard's audit log for the snapshot:
/// `{"declassified":[[site,hits],...],"violations":[...]}`.
fn audit_json(log: &AuditLog) -> Json {
    let render = |counts: &[SiteCount]| {
        Json::Arr(
            counts
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        Json::Str(s.site.to_string()),
                        Json::Int(s.hits as i64),
                    ])
                })
                .collect(),
        )
    };
    Json::obj(vec![
        ("declassified", render(&log.declassified)),
        ("violations", render(&log.violations)),
    ])
}

/// The inverse of [`audit_json`]. Site names resolve back to the
/// `&'static str` constants in [`sites`]; an unknown name is damage.
fn audit_restore(value: &Json) -> Result<AuditLog, String> {
    let parse = |key: &str| -> Result<Vec<SiteCount>, String> {
        value
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("audit log is missing '{key}'"))?
            .iter()
            .map(|entry| {
                let parts = entry
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| format!("malformed '{key}' site entry"))?;
                let site = parts[0]
                    .as_str()
                    .and_then(sites::resolve)
                    .ok_or_else(|| format!("unknown audit site {}", parts[0].render()))?;
                let hits = parts[1]
                    .as_i64()
                    .and_then(|h| u64::try_from(h).ok())
                    .ok_or_else(|| format!("malformed '{key}' hit count"))?;
                Ok(SiteCount { site, hits })
            })
            .collect()
    };
    Ok(AuditLog {
        declassified: parse("declassified")?,
        violations: parse("violations")?,
    })
}

/// Merges one capture's audit log into a shard's accumulated log,
/// keeping site order deterministic.
fn merge_audit(into: &mut AuditLog, from: AuditLog) {
    fn merge(into: &mut Vec<SiteCount>, from: Vec<SiteCount>) {
        let mut by_site: BTreeMap<&'static str, u64> =
            into.iter().map(|s| (s.site, s.hits)).collect();
        for s in from {
            *by_site.entry(s.site).or_insert(0) += s.hits;
        }
        *into = by_site
            .into_iter()
            .map(|(site, hits)| SiteCount { site, hits })
            .collect();
    }
    merge(&mut into.declassified, from.declassified);
    merge(&mut into.violations, from.violations);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Telemetry;

    fn admit_event(domain: u64, scheme: ServeScheme) -> Event {
        Event::Admit(Admit {
            domain,
            tenant: format!("tenant{}", domain % 3),
            scheme,
            quota_mb: 16,
            budget_bits: None,
            credit: None,
        })
    }

    fn telemetry_event(domain: u64, cycles: f64, progress: u64) -> Event {
        let mut curve = [0u64; PartitionSize::COUNT];
        for (i, slot) in curve.iter_mut().enumerate() {
            *slot = 1_000 * (i as u64 + 1);
        }
        Event::Telemetry(Telemetry {
            domain,
            cycles,
            progress,
            fill: 2048,
            curve: Some(curve),
            footprint: None,
            tainted: false,
        })
    }

    fn engine(shards: usize) -> ServeEngine {
        let config = ServeConfig {
            shards,
            ..ServeConfig::test_scale()
        };
        ServeEngine::new(config).expect("valid config")
    }

    fn lifecycle_events() -> Vec<Event> {
        let interval = ServeConfig::test_scale().params.progress_interval_instrs;
        let mut events = Vec::new();
        for d in 0..6u64 {
            events.push(admit_event(d, ServeScheme::Untangle));
        }
        for round in 1..=4u64 {
            for d in 0..6u64 {
                events.push(telemetry_event(d, round as f64 * 3_000.0, interval));
            }
        }
        for d in 0..6u64 {
            events.push(Event::Retire { domain: d });
        }
        events
    }

    #[test]
    fn lifecycle_produces_admit_decision_retire_lines() {
        let mut e = engine(1);
        let lines = e.ingest(&lifecycle_events()).expect("ingest");
        assert_eq!(
            lines.iter().filter(|l| l.contains("\"admitted\"")).count(),
            6
        );
        assert_eq!(
            lines.iter().filter(|l| l.contains("\"retired\"")).count(),
            6
        );
        // Every telemetry event carries a full progress interval, so
        // every one fires an assessment and commits a decision.
        assert_eq!(
            lines.iter().filter(|l| l.contains("\"decision\"")).count(),
            24
        );
        assert_eq!(e.live_domains(), 0);
    }

    #[test]
    fn output_is_byte_identical_across_shard_counts() {
        let events = lifecycle_events();
        let baseline = engine(1).ingest(&events).expect("1 shard");
        for shards in [2, 3, 8] {
            let got = engine(shards).ingest(&events).expect("ingest");
            assert_eq!(got, baseline, "{shards} shards diverged");
        }
    }

    #[test]
    fn semantic_errors_become_lines_not_aborts() {
        let mut e = engine(2);
        let events = vec![
            admit_event(7, ServeScheme::Static),
            admit_event(7, ServeScheme::Static),
            telemetry_event(99, 100.0, 1),
            Event::Retire { domain: 98 },
        ];
        let lines = e.ingest(&events).expect("ingest survives");
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("\"serve_error\""))
                .count(),
            3
        );
        assert_eq!(e.live_domains(), 1);
    }

    #[test]
    fn ingest_all_chunking_matches_one_shot() {
        let events = lifecycle_events();
        let one_shot = engine(2).ingest(&events).expect("one shot");
        let chunked = engine(2).ingest_all(&events, 5).expect("chunked");
        assert_eq!(chunked, one_shot);
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        let e = engine(4);
        for d in 0..256u64 {
            let s = e.shard_of(d);
            assert!(s < 4);
            assert_eq!(s, e.shard_of(d), "assignment must be deterministic");
        }
        // The hash actually spreads consecutive ids.
        let hit: std::collections::HashSet<_> = (0..256u64).map(|d| e.shard_of(d)).collect();
        assert_eq!(hit.len(), 4);
    }

    #[test]
    fn audit_capture_accumulates_per_shard_logs() {
        let mut e = engine(1);
        let interval = ServeConfig::test_scale().params.progress_interval_instrs;
        let mut events = vec![admit_event(1, ServeScheme::Untangle)];
        let mut t = telemetry_event(1, 5_000.0, interval);
        if let Event::Telemetry(t) = &mut t {
            t.tainted = true;
        }
        events.push(t);
        let _ = e.ingest(&events).expect("ingest");
        let logs = e.audit_logs();
        assert_eq!(logs.len(), 1);
        let sites: Vec<_> = logs[0].violations.iter().map(|s| s.site).collect();
        assert!(
            sites.contains(&untangle_core::taint::sites::SERVE_TELEMETRY_INPUT),
            "tainted ingest must be audited, got {sites:?}"
        );
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically_mid_stream() {
        let events = lifecycle_events();
        let split = events.len() / 2;

        let mut live = engine(2);
        let _ = live.ingest(&events[..split]).expect("prefix");
        let snap = live.snapshot_json();
        let audits_at_snap = live.audit_logs();
        let expected_tail = live.ingest(&events[split..]).expect("suffix");

        let parsed = Json::parse(&snap.render()).expect("snapshot JSON parses");
        let config = ServeConfig {
            shards: 2,
            ..ServeConfig::test_scale()
        };
        let mut restored = ServeEngine::restore(config, &parsed).expect("restore");
        assert_eq!(restored.ingested(), split as u64);
        // A restored engine re-renders the identical snapshot ...
        assert_eq!(restored.snapshot_json().render(), snap.render());
        // ... carries the same audit history ...
        assert_eq!(restored.audit_logs(), audits_at_snap);
        // ... and continues the output stream byte for byte.
        let tail = restored.ingest(&events[split..]).expect("resume");
        assert_eq!(tail, expected_tail, "restored engine diverged");
    }

    #[test]
    fn restore_rejects_shard_count_changes_and_damage() {
        let mut live = engine(2);
        let events = lifecycle_events();
        let split = events.len() / 2;
        let _ = live.ingest(&events[..split]).expect("prefix");
        let snap = live.snapshot_json();

        let one_shard = ServeConfig {
            shards: 1,
            ..ServeConfig::test_scale()
        };
        assert!(matches!(
            ServeEngine::restore(one_shard, &snap),
            Err(UntangleError::InvalidConfig(_))
        ));

        let two_shards = || ServeConfig {
            shards: 2,
            ..ServeConfig::test_scale()
        };
        let Json::Obj(fields) = &snap else {
            panic!("snapshot is an object")
        };
        for key in ["v", "ingested", "domains", "audits"] {
            let broken = Json::Obj(fields.iter().filter(|(k, _)| k != key).cloned().collect());
            assert!(
                ServeEngine::restore(two_shards(), &broken).is_err(),
                "dropping '{key}' must be rejected"
            );
        }
    }

    #[test]
    fn charge_external_all_spares_static_domains_and_freezes_over_budget() {
        let mut e = engine(1);
        let events = vec![
            Event::Admit(Admit {
                domain: 0,
                tenant: "t".to_string(),
                scheme: ServeScheme::Untangle,
                quota_mb: 16,
                budget_bits: Some(4.0),
                credit: None,
            }),
            admit_event(1, ServeScheme::Static),
        ];
        let _ = e.ingest(&events).expect("admits");
        let before_static = e.leakage_of(1).expect("static live").total_bits;
        let charged = e.charge_external_all(SchemeParams::conventional_bits_per_assessment());
        assert_eq!(charged, 1, "only the budget-spending domain is charged");
        assert_eq!(
            e.leakage_of(1).expect("static live").total_bits,
            before_static
        );
        assert!(
            e.leakage_of(0).expect("untangle live").total_bits
                >= SchemeParams::conventional_bits_per_assessment()
        );
        // A second conventional charge exceeds the 4-bit budget; the
        // next assessment must fail closed through the ordinary gate.
        let _ = e.charge_external_all(SchemeParams::conventional_bits_per_assessment());
        let interval = ServeConfig::test_scale().params.progress_interval_instrs;
        let lines = e
            .ingest(&[telemetry_event(0, 9_000.0, interval)])
            .expect("telemetry");
        assert!(
            lines.iter().any(|l| l.contains("\"budget_exhausted\"")),
            "over-budget domain must exhaust, got {lines:?}"
        );
        assert!(
            lines
                .iter()
                .all(|l| !l.contains("\"action\":\"expand\"")
                    && !l.contains("\"action\":\"shrink\"")),
            "no visible action may follow a fail-closed charge, got {lines:?}"
        );
    }

    #[test]
    fn eval_scale_accepts_exactly_the_batch_scales() {
        for scale in [1e-7, 1.2e-7, 0.0, -0.5, 1.5, f64::NAN] {
            assert!(
                matches!(
                    ServeConfig::eval_scale(scale),
                    Err(UntangleError::InvalidConfig(_))
                ),
                "scale {scale}"
            );
        }
        for scale in [1.3e-7, 0.001, 1.0] {
            let config = ServeConfig::eval_scale(scale).expect("batch accepts it");
            let batch = RunnerConfig::eval_scale(SchemeKind::Untangle, scale).expect("valid");
            assert_eq!(config.params, batch.params);
            assert!(ServeEngine::new(config).is_ok(), "scale {scale}");
        }
    }

    #[test]
    fn rejects_intervals_a_schedule_cannot_run_on() {
        for bad in [0.0, -1.0, f64::NAN] {
            let mut config = ServeConfig::test_scale();
            config.params.time_interval_cycles = bad;
            assert!(
                matches!(
                    ServeEngine::new(config),
                    Err(UntangleError::InvalidConfig(_))
                ),
                "time interval {bad}"
            );
        }
        let mut config = ServeConfig::test_scale();
        config.params.progress_interval_instrs = 0;
        assert!(matches!(
            ServeEngine::new(config),
            Err(UntangleError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_zero_shards() {
        let config = ServeConfig {
            shards: 0,
            ..ServeConfig::test_scale()
        };
        assert!(matches!(
            ServeEngine::new(config),
            Err(UntangleError::InvalidConfig(_))
        ));
    }
}
