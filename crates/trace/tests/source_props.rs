//! Property-style tests of trace sources and generators: determinism,
//! combinator algebra, and annotation invariants. Inputs are drawn from
//! a seeded [`TraceRng`] (the registry-free stand-in for a property
//! testing framework): each property runs over dozens of generated
//! cases, and a failing case prints its inputs for reproduction.

use untangle_trace::annotate::{RegionAnnotator, SecretRegion};
use untangle_trace::instr::{Instr, LineAddr};
use untangle_trace::source::{Interleave, TraceSource, VecSource};
use untangle_trace::synth::{
    CryptoConfig, CryptoModel, TraceRng, WorkingSetConfig, WorkingSetModel,
};

fn loads(n: u64) -> Vec<Instr> {
    (0..n).map(|i| Instr::load(LineAddr::new(i))).collect()
}

#[test]
fn take_yields_min_of_cap_and_length() {
    let mut gen = TraceRng::new(0x51ce);
    for _ in 0..64 {
        let len = gen.below(50);
        let cap = gen.below(80);
        let mut s = VecSource::once(loads(len)).take_instrs(cap);
        assert_eq!(
            s.iter_instrs().count() as u64,
            len.min(cap),
            "len {len} cap {cap}"
        );
    }
}

#[test]
fn chain_length_is_sum() {
    let mut gen = TraceRng::new(0xc4a1);
    for _ in 0..64 {
        let a = gen.below(40);
        let b = gen.below(40);
        let mut s = VecSource::once(loads(a)).chain(VecSource::once(loads(b)));
        assert_eq!(s.iter_instrs().count() as u64, a + b, "a {a} b {b}");
    }
}

#[test]
fn interleave_preserves_burst_structure() {
    let mut gen = TraceRng::new(0x1f2e);
    for _ in 0..32 {
        let a_burst = 1 + gen.below(9);
        let b_burst = 1 + gen.below(9);
        let total = 1 + gen.below(199) as usize;
        let a = VecSource::looping(vec![Instr::load(LineAddr::new(1))]);
        let b = VecSource::looping(vec![Instr::load(LineAddr::new(2))]);
        let mut s = Interleave::new(a, a_burst, b, b_burst);
        let stream: Vec<u64> = s
            .iter_instrs()
            .take(total)
            .map(|i| i.mem_access().unwrap().addr.line_index())
            .collect();
        // Check the periodic pattern: position p within a period of
        // a_burst + b_burst determines the source.
        let period = (a_burst + b_burst) as usize;
        for (p, &line) in stream.iter().enumerate() {
            let expect = if (p % period) < a_burst as usize {
                1
            } else {
                2
            };
            assert_eq!(
                line, expect,
                "position {p} (a_burst {a_burst} b_burst {b_burst})"
            );
        }
    }
}

/// Builds every combinator stack the workloads compose —
/// `Take`/`Chain`/`Interleave`/`RegionAnnotator` over
/// [`WorkingSetModel`]s — as a deterministic function of `seed`.
fn combinator_stack(shape: u64, seed: u64) -> Box<dyn TraceSource> {
    let ws = |s: u64| {
        WorkingSetModel::new(
            WorkingSetConfig {
                working_set_bytes: 128 << 10,
                ..WorkingSetConfig::default()
            },
            s,
        )
    };
    let annotated = |s: u64| {
        RegionAnnotator::new(
            ws(s),
            vec![SecretRegion::new(LineAddr::new(50), 64 * 100)],
            true,
        )
    };
    match shape % 4 {
        0 => Box::new(ws(seed).take_instrs(5_000)),
        1 => Box::new(
            ws(seed)
                .take_instrs(1_500)
                .chain(annotated(seed ^ 1).take_instrs(3_500)),
        ),
        2 => Box::new(Interleave::new(
            annotated(seed),
            1 + seed % 7,
            ws(seed ^ 2),
            1 + seed % 11,
        )),
        _ => Box::new(
            Interleave::new(ws(seed).take_instrs(2_000), 3, annotated(seed ^ 3), 5)
                .take_instrs(6_000),
        ),
    }
}

/// The invariant slice replay's correctness rests on: replaying any
/// combinator stack from a `(seed, skip-offset)` pair — rebuild from
/// the seed, discard `skip` instructions — yields a stream
/// bit-identical to the corresponding suffix of the contiguous stream.
/// If any combinator kept hidden timing- or poll-count-dependent state
/// (the pre-fix `Interleave` did), the two streams would diverge.
#[test]
fn replay_from_offset_is_bit_identical_to_contiguous_stream() {
    let mut gen = TraceRng::new(0x000f_f5e7);
    for case in 0..48 {
        let shape = gen.below(4);
        let seed = 1 + gen.below(10_000);
        let skip = gen.below(4_000);

        let mut contiguous = combinator_stack(shape, seed);
        let full: Vec<Option<Instr>> = (0..6_000).map(|_| contiguous.next_instr()).collect();

        let mut replay = combinator_stack(shape, seed);
        for _ in 0..skip {
            replay.next_instr();
        }
        for (i, want) in full.iter().enumerate().skip(skip as usize) {
            assert_eq!(
                replay.next_instr(),
                *want,
                "case {case}: shape {shape} seed {seed} skip {skip} diverged at instr {i}"
            );
        }
        // Exhaustion is also part of the contract: once the contiguous
        // stream ended, the replayed one must stay ended.
        if full.last() == Some(&None) {
            assert_eq!(
                replay.next_instr(),
                None,
                "case {case}: not fused after end"
            );
        }
    }
}

#[test]
fn trace_rng_below_is_uniform_enough() {
    let mut gen = TraceRng::new(0xb0b);
    for _ in 0..24 {
        let seed = 1 + gen.next_u64() / 2;
        let bound = 2 + gen.below(30);
        let mut rng = TraceRng::new(seed);
        let n = 4096;
        let mut counts = vec![0u32; bound as usize];
        for _ in 0..n {
            counts[rng.below(bound) as usize] += 1;
        }
        let expected = n as f64 / bound as f64;
        for (v, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expected * 0.5 && (c as f64) < expected * 1.7,
                "seed {seed} bound {bound}: value {v} count {c} vs expected {expected}"
            );
        }
    }
}

#[test]
fn working_set_model_deterministic_for_any_config() {
    let mut gen = TraceRng::new(0xdec0);
    for _ in 0..24 {
        let seed = gen.below(1000);
        let ws_kb = 1 + gen.below(511);
        let mem_pct = gen.below(101) as u32;
        let cfg = WorkingSetConfig {
            working_set_bytes: ws_kb * 1024,
            mem_fraction: mem_pct as f64 / 100.0,
            hot_fraction: 0.3,
            stream_fraction: 0.1,
            ..WorkingSetConfig::default()
        };
        let mut a = WorkingSetModel::new(cfg.clone(), seed);
        let mut b = WorkingSetModel::new(cfg, seed);
        for _ in 0..200 {
            assert_eq!(
                a.next_instr(),
                b.next_instr(),
                "seed {seed} ws_kb {ws_kb} mem_pct {mem_pct}"
            );
        }
    }
}

#[test]
fn crypto_model_only_touches_its_region() {
    let mut gen = TraceRng::new(0xc0de);
    for _ in 0..24 {
        let secret = gen.below(1000);
        let table_kb = 1 + gen.below(63);
        let base = 1u64 << 30;
        let cfg = CryptoConfig {
            table_bytes: table_kb * 1024,
            secret,
            region_base: LineAddr::new(base),
            ..CryptoConfig::default()
        };
        let lines = cfg.table_bytes / 64;
        let mut m = CryptoModel::new(cfg, 5);
        for i in m.iter_instrs().take(500) {
            assert!(i.annotations.secret_data && i.annotations.secret_ctrl);
            if let Some(a) = i.mem_access() {
                let l = a.addr.line_index();
                assert!(
                    l >= base && l < base + lines,
                    "secret {secret} table_kb {table_kb}: line {l} outside region"
                );
            }
        }
    }
}

#[test]
fn mem_fraction_is_respected() {
    let mut gen = TraceRng::new(0xf7ac);
    for _ in 0..24 {
        let mem_pct = gen.below(101) as u32;
        let cfg = WorkingSetConfig {
            mem_fraction: mem_pct as f64 / 100.0,
            ..WorkingSetConfig::default()
        };
        let mut m = WorkingSetModel::new(cfg, 9);
        let n = 5000;
        let mem = m.iter_instrs().take(n).filter(|i| i.is_mem()).count();
        let expected = n as f64 * mem_pct as f64 / 100.0;
        assert!(
            (mem as f64 - expected).abs() < n as f64 * 0.05 + 10.0,
            "mem_pct {mem_pct}: mem count {mem} vs expected {expected}"
        );
    }
}
