//! Deterministic event-stream generators for tests, benchmarks, and
//! the committed replay fixture, plus the batch-equivalence harness.
//!
//! Two generators live here:
//!
//! * [`synth_events`] — a purely synthetic multi-tenant stream (no
//!   simulator involved): thousands of domains, mixed schemes and
//!   Maintain credits, optional tainted payloads and tiny per-tenant
//!   budgets. This is what the shard-invariance property test and the
//!   benchmark's serve workloads feed the engine.
//! * [`tap_replay`] — the acceptance harness: run single-domain batch
//!   [`Runner`]s with the telemetry tap, convert every exported
//!   [`TelemetrySample`] into a wire [`Telemetry`] event, and return
//!   the batch decision traces alongside. Replaying the events through
//!   a [`crate::ServeEngine`] built from the matching config must
//!   reproduce those traces **bit for bit** — same schedule state, same
//!   budget gates, same delay-RNG draws.

use untangle_core::action::ResizingTrace;
use untangle_core::runner::{Runner, RunnerConfig, TelemetrySample};
use untangle_core::scheme::{MetricKind, SchemeKind, SchemeParams};
use untangle_core::taint::{sites, Label, Labeled};
use untangle_trace::synth::{TraceRng, WorkingSetConfig, WorkingSetModel};

use crate::engine::ServeConfig;
use crate::event::{Admit, Event, ServeScheme, Telemetry};

/// Shape of a [`synth_events`] stream.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Number of concurrent domains.
    pub domains: u64,
    /// Telemetry rounds; every admitted domain gets one event per round.
    pub rounds: u64,
    /// Seed for the per-event cycle jitter.
    pub seed: u64,
    /// Admit every third domain under the conventional Time scheme
    /// (otherwise the stream alternates Untangle/Static only).
    pub include_time: bool,
    /// Mark every `n`-th telemetry payload tainted (0 = never).
    pub tainted_every: u64,
    /// Give every `n`-th domain a tiny leakage budget (0 = never), so
    /// budget exhaustion shows up in the stream.
    pub budget_every: u64,
}

impl SynthConfig {
    /// A small mixed-tenant stream for unit and property tests.
    pub fn small() -> Self {
        Self {
            domains: 24,
            rounds: 6,
            seed: 7,
            include_time: false,
            tainted_every: 0,
            budget_every: 0,
        }
    }
}

/// Generates a deterministic multi-tenant event stream: all admits,
/// then `rounds` round-robin telemetry sweeps with per-event cycle
/// jitter, then all retires. Every domain's subsequence is monotone in
/// cycles, so the stream is a valid input at any shard count.
pub fn synth_events(params: &SchemeParams, synth: &SynthConfig) -> Vec<Event> {
    let mut events = Vec::new();
    let mut rng = TraceRng::new(synth.seed);
    let schemes = if synth.include_time { 3 } else { 2 };
    for d in 0..synth.domains {
        let scheme = match d % schemes {
            0 => ServeScheme::Untangle,
            1 => ServeScheme::Static,
            _ => ServeScheme::Time,
        };
        // Two distinct Maintain credits in one stream exercise the
        // engine's multi-table accounting resolution.
        let credit = if (d / schemes) % 2 == 0 {
            params.max_maintain_credit
        } else {
            (params.max_maintain_credit / 2).max(1)
        };
        events.push(Event::Admit(Admit {
            domain: d,
            tenant: format!("tenant{}", d % 8),
            scheme,
            quota_mb: 16,
            budget_bits: (synth.budget_every > 0 && d.is_multiple_of(synth.budget_every))
                .then_some(8.0),
            credit: (scheme == ServeScheme::Untangle).then_some(credit),
        }));
    }
    // One full progress interval per round keeps Untangle assessing
    // every round; the cycle step covers the Time interval so the
    // conventional tenants assess too.
    let step = params.time_interval_cycles.max(1.0);
    let mut emitted = 0u64;
    for round in 1..=synth.rounds {
        for d in 0..synth.domains {
            emitted += 1;
            let jitter = rng.below((step / 16.0).max(1.0) as u64) as f64;
            let mut curve = [0u64; untangle_sim::config::PartitionSize::COUNT];
            // A monotone synthetic hit curve whose hunger varies by
            // domain, so different domains settle on different sizes.
            let hunger = 500 + (d % 9) * 700;
            for (i, slot) in curve.iter_mut().enumerate() {
                *slot = hunger * (i as u64 + 1);
            }
            events.push(Event::Telemetry(Telemetry {
                domain: d,
                cycles: round as f64 * step + jitter,
                progress: params.progress_interval_instrs,
                fill: 2 * params.heuristic.min_window_fill,
                curve: Some(curve),
                footprint: None,
                tainted: synth.tainted_every > 0 && emitted.is_multiple_of(synth.tainted_every),
            }));
        }
    }
    for d in 0..synth.domains {
        events.push(Event::Retire { domain: d });
    }
    events
}

/// A batch run exported as serve input, with the ground-truth traces.
#[derive(Debug)]
pub struct TapReplay {
    /// Admits followed by the tapped telemetry, merged across domains
    /// in cycle order.
    pub events: Vec<Event>,
    /// Domain `i`'s batch decision trace — what a replay must equal.
    pub traces: Vec<ResizingTrace>,
    /// The serve configuration that mirrors the batch runners.
    pub config: ServeConfig,
}

/// Runs `domains` independent single-domain batch Untangle runners with
/// the telemetry tap and packages the exports as a serve event stream.
///
/// Each runner gets its own working-set size and seed (`base_seed + i`,
/// which is exactly the delay-RNG derivation serve applies to domain
/// `i` under engine seed `base_seed`). Warmup is disabled: the batch
/// warmup reset would clear trace prefixes the service, which has no
/// warmup concept, keeps.
///
/// # Panics
///
/// Panics if a runner rejects its configuration — test-harness code,
/// driven only by configurations this function builds.
pub fn tap_replay(
    domains: usize,
    base_seed: u64,
    budget_bits: Option<f64>,
    footprint: bool,
) -> TapReplay {
    let mut events = Vec::new();
    let mut telemetry: Vec<(f64, u64, Event)> = Vec::new();
    let mut traces = Vec::new();
    let mut config = None;
    for i in 0..domains {
        let mut rc = RunnerConfig::test_scale(SchemeKind::Untangle, 1);
        rc.warmup_cycles = 0.0;
        rc.slice_instrs = 200_000;
        rc.seed = base_seed + i as u64;
        // Start small: the short test-scale runs leave the candidate
        // caches half-warm, so demand contrast (and hence visible
        // expansions for the equivalence check to bite on) only exists
        // below the working-set knee.
        rc.initial_partition = untangle_sim::config::PartitionSize::KB512;
        rc.params.leakage_budget_bits = budget_bits;
        if footprint {
            rc.params.metric_kind = MetricKind::Footprint;
        }
        config.get_or_insert_with(|| ServeConfig {
            seed: base_seed,
            ..ServeConfig::mirroring(&rc)
        });
        events.push(Event::Admit(Admit {
            domain: i as u64,
            tenant: format!("replay{i}"),
            scheme: ServeScheme::Untangle,
            quota_mb: rc.machine.llc_bytes >> 20,
            budget_bits,
            credit: None,
        }));

        let source = WorkingSetModel::new(
            WorkingSetConfig {
                working_set_bytes: (1 + i as u64 % 4) << 20,
                ..WorkingSetConfig::default()
            },
            base_seed + i as u64,
        );
        let mut samples = Vec::new();
        let report = Runner::new(rc, vec![Box::new(source)])
            .expect("tap_replay runner config is valid")
            .run_with_tap(|s| samples.push(s));
        for sample in samples {
            telemetry.push((sample.cycles, i as u64, sample_to_event(i as u64, sample)));
        }
        traces.push(report.domains[0].trace.clone());
    }
    // Merge the per-domain streams into one arrival order. Ties break
    // by domain id; per-domain order (all that correctness needs) is
    // preserved either way.
    telemetry.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    events.extend(telemetry.into_iter().map(|(_, _, e)| e));
    TapReplay {
        events,
        traces,
        config: config.expect("at least one domain"),
    }
}

/// Converts one tap export into its wire form. A secret-labeled payload
/// crosses the serialization boundary through the audited
/// [`sites::TELEMETRY_TAP_EXPORT`] site and arrives with the event's
/// `tainted` flag set, so the receiving service re-labels it `Secret`
/// and its guards see exactly what the batch driver's saw.
fn sample_to_event(domain: u64, sample: TelemetrySample) -> Event {
    let tainted = sample
        .hit_curve
        .as_ref()
        .map(Labeled::label)
        .or_else(|| sample.footprint_bytes.as_ref().map(Labeled::label))
        == Some(Label::Secret);
    Event::Telemetry(Telemetry {
        domain,
        cycles: sample.cycles,
        progress: sample.progress_instrs,
        fill: sample.window_fill,
        curve: sample
            .hit_curve
            .map(|c| c.declassify(sites::TELEMETRY_TAP_EXPORT)),
        footprint: sample
            .footprint_bytes
            .map(|f| f.declassify(sites::TELEMETRY_TAP_EXPORT)),
        tainted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_streams_are_deterministic_and_well_formed() {
        let params = ServeConfig::test_scale().params;
        let synth = SynthConfig::small();
        let a = synth_events(&params, &synth);
        let b = synth_events(&params, &synth);
        assert_eq!(a, b, "same config, same stream");
        assert_eq!(
            a.len() as u64,
            synth.domains * (synth.rounds + 2),
            "admit + rounds + retire per domain"
        );
        // Per-domain cycle monotonicity (the validity condition).
        for d in 0..synth.domains {
            let cycles: Vec<f64> = a
                .iter()
                .filter_map(|e| match e {
                    Event::Telemetry(t) if t.domain == d => Some(t.cycles),
                    _ => None,
                })
                .collect();
            assert_eq!(cycles.len() as u64, synth.rounds);
            assert!(cycles.windows(2).all(|w| w[0] < w[1]), "domain {d}");
        }
    }

    #[test]
    fn synth_taint_and_budget_knobs_show_up() {
        let params = ServeConfig::test_scale().params;
        let synth = SynthConfig {
            tainted_every: 5,
            budget_every: 4,
            include_time: true,
            ..SynthConfig::small()
        };
        let events = synth_events(&params, &synth);
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Telemetry(t) if t.tainted)));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Admit(a) if a.budget_bits.is_some())));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Admit(a) if a.scheme == ServeScheme::Time)));
    }

    #[test]
    fn tap_replay_exports_admits_then_sorted_telemetry() {
        let replay = tap_replay(2, 42, None, false);
        assert_eq!(replay.traces.len(), 2);
        assert!(matches!(replay.events[0], Event::Admit(_)));
        assert!(matches!(replay.events[1], Event::Admit(_)));
        let cycles: Vec<f64> = replay.events[2..]
            .iter()
            .map(|e| match e {
                Event::Telemetry(t) => t.cycles,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert!(!cycles.is_empty(), "taps fired");
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "cycle-sorted");
        // The batch metric is public-only, so no export is tainted.
        assert!(replay.events.iter().all(|e| match e {
            Event::Telemetry(t) => !t.tainted,
            _ => true,
        }));
    }
}
