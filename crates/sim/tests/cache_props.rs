//! Property-style tests of the cache model and the partition chooser,
//! driven by a seeded [`TraceRng`] instead of a property-testing
//! framework (the build is offline). Each case prints its sampled
//! inputs on failure for reproduction.
//!
//! The cache model is also checked against [`ReferenceLru`], the
//! timestamp-per-way LRU that the recency-ordered tag sets replaced.

use untangle_sim::cache::SetAssocCache;
use untangle_sim::config::{CacheGeometry, PartitionSize};
use untangle_sim::umon::{choose_partitions, HitCurve};
use untangle_trace::synth::TraceRng;
use untangle_trace::LineAddr;

fn geometry(gen: &mut TraceRng) -> CacheGeometry {
    CacheGeometry {
        sets: 1 + gen.below(31) as usize,
        ways: 1 + gen.below(7) as usize,
    }
}

#[test]
fn accessed_line_is_present() {
    let mut gen = TraceRng::new(0xca11);
    for _ in 0..48 {
        let g = geometry(&mut gen);
        let n = 1 + gen.below(49);
        let mut c = SetAssocCache::new(g);
        for _ in 0..n {
            let l = gen.below(1000);
            c.access(LineAddr::new(l));
            assert!(
                c.probe(LineAddr::new(l)),
                "{g:?}: just-accessed line {l} must be present"
            );
        }
    }
}

#[test]
fn counters_are_consistent() {
    let mut gen = TraceRng::new(0xc0c0);
    for _ in 0..48 {
        let g = geometry(&mut gen);
        let n = gen.below(100);
        let mut c = SetAssocCache::new(g);
        for _ in 0..n {
            c.access(LineAddr::new(gen.below(200)));
        }
        assert_eq!(c.accesses(), n);
        assert_eq!(c.hits() + c.misses(), c.accesses());
        assert!(c.occupancy() <= g.sets * g.ways);
        assert!(
            c.occupancy() as u64 <= c.misses(),
            "{g:?}: every resident line arrived via a miss"
        );
    }
}

#[test]
fn contiguous_working_set_within_capacity_never_misses_after_warmup() {
    let mut gen = TraceRng::new(0xf17);
    for _ in 0..48 {
        let sets = 1 + gen.below(15) as usize;
        let ways = 1 + gen.below(7) as usize;
        // Contiguous line ranges distribute evenly over modulo-mapped
        // sets, so a working set up to the full capacity fits exactly.
        let capacity = (sets * ways) as u64;
        let mut c = SetAssocCache::new(CacheGeometry { sets, ways });
        for l in 0..capacity {
            c.access(LineAddr::new(l));
        }
        for l in 0..capacity {
            assert!(
                c.access(LineAddr::new(l)).is_hit(),
                "sets {sets} ways {ways}: line {l} evicted from a fitting set"
            );
        }
    }
}

#[test]
fn resize_preserves_retained_home_sets() {
    let mut gen = TraceRng::new(0x5e7);
    for _ in 0..48 {
        let ways = 1 + gen.below(3) as usize;
        let sets = 8usize;
        let shrink_to = (1 + gen.below(7) as usize).min(sets);
        let mut c = SetAssocCache::new(CacheGeometry { sets, ways });
        // One line per home set.
        for l in 0..sets as u64 {
            c.access(LineAddr::new(l));
        }
        c.resize_sets(shrink_to);
        for l in 0..shrink_to as u64 {
            assert!(
                c.probe(LineAddr::new(l)),
                "ways {ways} shrink_to {shrink_to}: retained set {l} lost its line"
            );
        }
        // Growing back exposes cold (invalidated) sets only.
        c.resize_sets(sets);
        for l in 0..shrink_to as u64 {
            assert!(c.probe(LineAddr::new(l)));
        }
        for l in shrink_to as u64..sets as u64 {
            assert!(
                !c.probe(LineAddr::new(l)),
                "ways {ways} shrink_to {shrink_to}: surrendered set {l} kept stale data"
            );
        }
    }
}

#[test]
fn chooser_never_exceeds_budget_and_is_deterministic() {
    let mut gen = TraceRng::new(0xc405);
    for _ in 0..48 {
        let domains = 1 + gen.below(8) as usize;
        // Make each curve non-decreasing (a cache never loses hits from
        // more capacity in expectation) to match real monitor output.
        let curves: Vec<HitCurve> = (0..domains)
            .map(|_| {
                let mut c = [0u64; 9];
                let mut acc = 0;
                for slot in c.iter_mut() {
                    acc += gen.below(100_000) / 9;
                    *slot = acc;
                }
                c
            })
            .collect();
        let budget = 16u64 << 20;
        let a = choose_partitions(&curves, budget);
        let b = choose_partitions(&curves, budget);
        assert_eq!(a, b, "chooser must be deterministic");
        let total: u64 = a.iter().map(|s| s.bytes()).sum();
        assert!(total <= budget, "allocated {total} > budget {budget}");
        assert_eq!(a.len(), curves.len());
        for s in &a {
            assert!(PartitionSize::ALL.contains(s));
        }
    }
}

/// One way of the reference cache.
#[derive(Debug, Clone, Copy)]
struct Way {
    /// Full line index; [`INVALID`] marks an invalid way.
    tag: u64,
    /// Clock value of the last touch.
    last_used: u64,
}

const INVALID: u64 = u64::MAX;

/// The timestamp true-LRU cache `SetAssocCache` used to be: every way
/// stores its tag and the global access clock of its last touch, and a
/// miss fills the first invalid way, or else the way with the oldest
/// touch. Kept as the reference the recency-ordered layout must match.
struct ReferenceLru {
    geometry: CacheGeometry,
    effective_sets: usize,
    ways: Vec<Way>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl ReferenceLru {
    fn new(geometry: CacheGeometry) -> Self {
        Self {
            geometry,
            effective_sets: geometry.sets,
            ways: vec![
                Way {
                    tag: INVALID,
                    last_used: 0,
                };
                geometry.sets * geometry.ways
            ],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn resize_sets(&mut self, sets: usize) {
        if sets < self.effective_sets {
            for w in
                &mut self.ways[sets * self.geometry.ways..self.effective_sets * self.geometry.ways]
            {
                w.tag = INVALID;
                w.last_used = 0;
            }
        }
        self.effective_sets = sets;
    }

    fn set_ways(&self, line: u64) -> std::ops::Range<usize> {
        let home = (line % self.geometry.sets as u64) as usize;
        let set = if home < self.effective_sets {
            home
        } else {
            home % self.effective_sets
        };
        set * self.geometry.ways..(set + 1) * self.geometry.ways
    }

    fn access(&mut self, line: u64) -> bool {
        self.clock += 1;
        let range = self.set_ways(line);
        let set = &mut self.ways[range];
        if let Some(w) = set.iter_mut().find(|w| w.tag == line) {
            w.last_used = self.clock;
            self.hits += 1;
            return true;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.tag == INVALID { 0 } else { w.last_used })
            .expect("ways > 0");
        victim.tag = line;
        victim.last_used = self.clock;
        self.misses += 1;
        false
    }

    fn probe(&self, line: u64) -> bool {
        self.ways[self.set_ways(line)].iter().any(|w| w.tag == line)
    }

    fn invalidate_all(&mut self) {
        for w in &mut self.ways {
            w.tag = INVALID;
            w.last_used = 0;
        }
    }

    fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.tag != INVALID).count()
    }
}

/// Asserts that `c` and `r` agree on every observable after an
/// operation, probing `line`.
fn assert_same_state(c: &SetAssocCache, r: &ReferenceLru, line: u64, ctx: &str) {
    assert_eq!(c.hits(), r.hits, "{ctx}: hits");
    assert_eq!(c.misses(), r.misses, "{ctx}: misses");
    assert_eq!(
        c.probe(LineAddr::new(line)),
        r.probe(line),
        "{ctx}: probe {line}"
    );
    assert_eq!(c.occupancy(), r.occupancy(), "{ctx}: occupancy");
}

/// Drives `SetAssocCache` and [`ReferenceLru`] with the same `ops`
/// random operations: mostly accesses, plus probes, resizes (to random
/// set counts and to `resize_to`), full invalidations and counter
/// resets. Lines are drawn so that every set sees about twice its
/// associativity in distinct lines, with extra traffic on a few home
/// sets that fold onto each other when the cache shrinks.
fn run_against_reference(gen: &mut TraceRng, g: CacheGeometry, ops: usize, resize_to: &[usize]) {
    let mut c = SetAssocCache::new(g);
    let mut r = ReferenceLru::new(g);
    let lines_per_set = 2 * g.ways as u64 + 1;
    let hot_homes = [0, 1, 2, g.sets as u64 / 2, g.sets as u64 - 1];
    for op in 0..ops {
        let home = if gen.below(2) == 0 {
            gen.below(g.sets as u64)
        } else {
            hot_homes[gen.below(hot_homes.len() as u64) as usize]
        };
        let line = home + g.sets as u64 * gen.below(lines_per_set);
        let ctx = format!("{g:?} op {op}");
        match gen.below(100) {
            0..=79 => {
                let hit = c.access(LineAddr::new(line)).is_hit();
                assert_eq!(hit, r.access(line), "{ctx}: access {line}");
            }
            // A bare probe: `assert_same_state` below probes `line`.
            80..=89 => {}
            90..=96 => {
                let sets = if resize_to.is_empty() || gen.below(2) == 0 {
                    1 + gen.below(g.sets as u64) as usize
                } else {
                    resize_to[gen.below(resize_to.len() as u64) as usize]
                };
                c.resize_sets(sets);
                r.resize_sets(sets);
                assert_eq!(c.effective_sets(), sets, "{ctx}");
            }
            97 => {
                c.invalidate_all();
                r.invalidate_all();
            }
            _ => {
                c.reset_counters();
                r.reset_counters();
            }
        }
        assert_same_state(&c, &r, line, &ctx);
    }
    for home in 0..g.sets as u64 {
        for j in 0..lines_per_set {
            let line = home + g.sets as u64 * j;
            assert_eq!(
                c.probe(LineAddr::new(line)),
                r.probe(line),
                "{g:?}: final probe {line}"
            );
        }
    }
}

#[test]
fn matches_timestamp_lru_reference_on_random_operations() {
    let mut gen = TraceRng::new(0x1e7a);
    for ways in [1, 2, 8, 16] {
        for _ in 0..12 {
            let sets = 1 + gen.below(48) as usize;
            run_against_reference(&mut gen, CacheGeometry { sets, ways }, 1500, &[]);
        }
    }
}

#[test]
fn matches_timestamp_lru_reference_across_non_power_of_two_resizes() {
    // An 8 MB-partition-shaped cache (8192 sets) shrunk to set counts
    // that are not powers of two, and grown back.
    let mut gen = TraceRng::new(0x8192);
    for ways in [1, 2, 8, 16] {
        run_against_reference(
            &mut gen,
            CacheGeometry { sets: 8192, ways },
            400,
            &[3, 384, 3072, 8192],
        );
    }
}

#[test]
fn stale_copy_from_a_folded_home_set_matches_reference() {
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Resize(usize),
        Access(u64),
    }
    use Op::{Access, Resize};
    // Line 5 is filled while its home set 5 is folded into set 1, the
    // cache grows (line 5 now misses in its cold home set and is filled
    // there too), then shrinks again: set 5 is invalidated and the stale
    // copy in set 1 is what line 5 finds. Further traffic on set 1 then
    // moves the stale copy through the recency order.
    let fold_grow_fold = [
        Resize(2),
        Access(3),
        Access(1),
        Access(5),
        Resize(8),
        Access(5),
        Access(5),
        Resize(2),
    ];
    let set1_traffic = [7, 9, 11, 5, 13, 15, 17, 19, 5].map(Access);
    for ways in [1, 2, 8, 16] {
        let g = CacheGeometry { sets: 8, ways };
        let mut c = SetAssocCache::new(g);
        let mut r = ReferenceLru::new(g);
        for (i, op) in fold_grow_fold.into_iter().chain(set1_traffic).enumerate() {
            let ctx = format!("ways {ways} op {i} {op:?}");
            match op {
                Resize(sets) => {
                    c.resize_sets(sets);
                    r.resize_sets(sets);
                }
                Access(line) => {
                    let hit = c.access(LineAddr::new(line)).is_hit();
                    assert_eq!(hit, r.access(line), "{ctx}");
                }
            }
            assert_same_state(&c, &r, 5, &ctx);
            if i == fold_grow_fold.len() - 1 {
                assert!(c.probe(LineAddr::new(5)), "{ctx}: stale copy visible");
            }
        }
    }
}
