//! Set-associative, tag-only cache model with true-LRU replacement,
//! stored as recency-ordered tag sets.
//!
//! One model serves every cache in the system: private L1s, per-domain
//! LLC partitions, the shared LLC of the insecure baseline, and the
//! UMON monitor's candidate caches (§7's hardware table that "only
//! contains tags but not data").

use crate::config::CacheGeometry;
use untangle_trace::LineAddr;

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (possibly evicting
    /// another line).
    Miss,
}

impl AccessOutcome {
    /// Whether this outcome is a hit.
    pub const fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Tag of an invalid way. Line index `u64::MAX` is reserved for it.
const INVALID: u64 = u64::MAX;

/// A set-associative cache holding line tags with true-LRU replacement.
///
/// Addresses are mapped to a *home set* `h = line_index % geometry.sets`.
/// When the cache is resized to use only its first `k` sets (set
/// partitioning), lines whose home set survives (`h < k`) keep their
/// mapping, and the rest fold into `h % k`. This makes resizes behave
/// like real set repartitioning: growing exposes cold sets and
/// shrinking surrenders sets, but the content of retained sets is
/// never displaced by remapping.
///
/// # Layout
///
/// The state is one flat array of `sets × ways` line tags, eight bytes
/// per way, with no per-way timestamp. Each set's tags are kept in
/// recency order: most recently used first, invalid ways last. A hit
/// moves its tag to the front and shifts the ways before it back by
/// one; a miss shifts the whole set back by one, dropping the last way,
/// and writes the new tag at the front. The way dropped is an invalid
/// one while the set has any, and the least recently used line
/// otherwise, which is exactly true LRU with invalid ways filled first.
/// Ways are invalidated only a whole set at a time (by
/// [`SetAssocCache::resize_sets`] and [`SetAssocCache::invalidate_all`]),
/// so invalid ways never sit in front of valid ones.
///
/// Line index `u64::MAX` is reserved as the invalid marker and must not
/// be accessed.
///
/// # Example
///
/// ```
/// use untangle_sim::cache::SetAssocCache;
/// use untangle_sim::config::CacheGeometry;
/// use untangle_trace::LineAddr;
///
/// let mut c = SetAssocCache::new(CacheGeometry { sets: 2, ways: 2 });
/// assert!(!c.access(LineAddr::new(0)).is_hit()); // cold miss
/// assert!(c.access(LineAddr::new(0)).is_hit());  // now present
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// Sets currently in use (≤ `geometry.sets`); supports set
    /// partitioning, where a domain's share of the LLC grows and
    /// shrinks at runtime.
    effective_sets: usize,
    /// `geometry.ways` tags per set, each set in recency order (see
    /// type docs).
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has zero sets or zero ways.
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(
            geometry.sets > 0 && geometry.ways > 0,
            "degenerate geometry"
        );
        Self {
            geometry,
            effective_sets: geometry.sets,
            tags: vec![INVALID; geometry.sets * geometry.ways],
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry (maximum footprint).
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Sets currently in use.
    pub fn effective_sets(&self) -> usize {
        self.effective_sets
    }

    /// Resizes the cache to use only the first `sets` sets — the
    /// set-partitioning resize operation.
    ///
    /// Shrinking invalidates the lines in the sets being surrendered
    /// (in real hardware those sets are handed to another domain, which
    /// evicts their contents); growing exposes cold sets.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or exceeds the geometry's set count.
    pub fn resize_sets(&mut self, sets: usize) {
        assert!(
            sets > 0 && sets <= self.geometry.sets,
            "resize to {sets} sets outside 1..={}",
            self.geometry.sets
        );
        if sets < self.effective_sets {
            let ways = self.geometry.ways;
            self.tags[sets * ways..self.effective_sets * ways].fill(INVALID);
        }
        self.effective_sets = sets;
    }

    /// The range of `tags` holding the set `line` maps to now: its home
    /// set, or the fold of a surrendered home set (see type docs).
    #[inline]
    fn set_of(&self, line: u64) -> std::ops::Range<usize> {
        let home = (line % self.geometry.sets as u64) as usize;
        let set = if home < self.effective_sets {
            home
        } else {
            home % self.effective_sets
        };
        set * self.geometry.ways..(set + 1) * self.geometry.ways
    }

    /// Accesses `addr`: on a hit refreshes LRU state, on a miss fills the
    /// line, evicting the least recently used way of the set.
    pub fn access(&mut self, addr: LineAddr) -> AccessOutcome {
        let line = addr.line_index();
        let range = self.set_of(line);
        let set = &mut self.tags[range];
        let hit_way = set.iter().position(|&t| t == line);
        // Shift the ways in front of the hit way (or, on a miss, every
        // way but the last, which drops out) back by one, and put
        // `line` at the front.
        let end = hit_way.unwrap_or(set.len() - 1);
        set.copy_within(..end, 1);
        set[0] = line;
        if hit_way.is_some() {
            self.hits += 1;
            AccessOutcome::Hit
        } else {
            self.misses += 1;
            AccessOutcome::Miss
        }
    }

    /// Whether `addr` is currently present, without touching LRU state or
    /// counters.
    pub fn probe(&self, addr: LineAddr) -> bool {
        let line = addr.line_index();
        self.tags[self.set_of(line)].contains(&line)
    }

    /// Invalidates every line (used when a model requires a cold
    /// restart; resizes do *not* flush — see `system`).
    pub fn invalidate_all(&mut self) {
        self.tags.fill(INVALID);
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime access count.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Resets hit/miss counters without touching contents.
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Number of valid lines currently cached.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: usize, ways: usize) -> SetAssocCache {
        SetAssocCache::new(CacheGeometry { sets, ways })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache(4, 2);
        assert_eq!(c.access(LineAddr::new(5)), AccessOutcome::Miss);
        assert_eq!(c.access(LineAddr::new(5)), AccessOutcome::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Direct-mapped on a single set with 2 ways: lines 0, 4, 8 all
        // map to set 0 (4 sets).
        let mut c = cache(4, 2);
        c.access(LineAddr::new(0));
        c.access(LineAddr::new(4));
        c.access(LineAddr::new(0)); // refresh 0 → LRU is 4
        c.access(LineAddr::new(8)); // evicts 4
        assert!(c.probe(LineAddr::new(0)));
        assert!(!c.probe(LineAddr::new(4)));
        assert!(c.probe(LineAddr::new(8)));
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut c = cache(16, 4); // 64 lines capacity
        for round in 0..3 {
            for l in 0..64u64 {
                let out = c.access(LineAddr::new(l));
                if round > 0 {
                    assert!(out.is_hit(), "line {l} should hit in round {round}");
                }
            }
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_under_lru_scan() {
        // Sequential scan of 2× capacity with LRU never hits.
        let mut c = cache(4, 2); // 8 lines
        let mut hits = 0;
        for _ in 0..4 {
            for l in 0..16u64 {
                if c.access(LineAddr::new(l)).is_hit() {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = cache(1, 2);
        c.access(LineAddr::new(0));
        c.access(LineAddr::new(1));
        // Probing 0 must not make it MRU.
        assert!(c.probe(LineAddr::new(0)));
        c.access(LineAddr::new(2)); // evicts 0 (LRU), not 1
        assert!(!c.probe(LineAddr::new(0)));
        assert!(c.probe(LineAddr::new(1)));
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let mut c = cache(2, 2);
        c.access(LineAddr::new(1));
        c.access(LineAddr::new(2));
        assert_eq!(c.occupancy(), 2);
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.probe(LineAddr::new(1)));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = cache(4, 1);
        for l in 0..4u64 {
            c.access(LineAddr::new(l));
        }
        for l in 0..4u64 {
            assert!(c.probe(LineAddr::new(l)));
        }
    }

    #[test]
    fn counters_reset() {
        let mut c = cache(2, 1);
        c.access(LineAddr::new(0));
        c.access(LineAddr::new(0));
        c.reset_counters();
        assert_eq!(c.accesses(), 0);
        // Contents survive.
        assert!(c.probe(LineAddr::new(0)));
    }

    #[test]
    #[should_panic(expected = "degenerate geometry")]
    fn rejects_zero_ways() {
        let _ = cache(4, 0);
    }

    #[test]
    fn shrink_invalidates_surrendered_sets() {
        let mut c = cache(4, 1);
        for l in 0..4u64 {
            c.access(LineAddr::new(l)); // line l in set l
        }
        c.resize_sets(2);
        // Lines 2 and 3 lived in surrendered sets and are gone; lines 0
        // and 1 survive (and still map to the same sets).
        assert!(c.probe(LineAddr::new(0)));
        assert!(c.probe(LineAddr::new(1)));
        assert_eq!(c.occupancy(), 2);
        // Line 2 now maps to set 0 and misses.
        assert!(!c.probe(LineAddr::new(2)));
    }

    #[test]
    fn grow_exposes_cold_sets() {
        let mut c = cache(4, 1);
        c.resize_sets(2);
        c.access(LineAddr::new(2)); // maps to set 0 while shrunk
        c.resize_sets(4);
        // After growth, line 2 maps to set 2, which is cold.
        assert!(!c.probe(LineAddr::new(2)));
        assert_eq!(c.access(LineAddr::new(2)), AccessOutcome::Miss);
        assert_eq!(c.access(LineAddr::new(2)), AccessOutcome::Hit);
    }

    #[test]
    fn smaller_effective_size_causes_more_conflicts() {
        let run = |sets: usize| {
            let mut c = cache(8, 2);
            c.resize_sets(sets);
            let mut hits = 0;
            for _ in 0..10 {
                for l in 0..12u64 {
                    if c.access(LineAddr::new(l)).is_hit() {
                        hits += 1;
                    }
                }
            }
            hits
        };
        assert!(run(8) > run(2));
    }

    #[test]
    fn resize_round_trip_keeps_retained_sets_warm() {
        // Lines whose home set survives a shrink/grow cycle never lose
        // their entries — resizes are not flushes.
        let mut c = cache(8, 1);
        c.access(LineAddr::new(0));
        c.access(LineAddr::new(1));
        c.resize_sets(2);
        c.resize_sets(8);
        assert!(c.probe(LineAddr::new(0)));
        assert!(c.probe(LineAddr::new(1)));
    }

    #[test]
    #[should_panic(expected = "resize to 0 sets")]
    fn rejects_zero_resize() {
        let mut c = cache(4, 1);
        c.resize_sets(0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_oversized_resize() {
        let mut c = cache(4, 1);
        c.resize_sets(5);
    }
}
