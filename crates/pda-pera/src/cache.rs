//! The inertia-keyed evidence cache.
//!
//! "High-inertia attestations are more easily cached since they take
//! longer to expire" (§5.2, Fig. 4). A PERA switch caches each detail
//! level's measured digest and invalidates it when the underlying object
//! changes — tracked by per-level *generation counters* bumped on
//! program reload, table update, or register write. Hardware identity
//! never invalidates; per-packet detail never caches.

use crate::config::DetailLevel;
use pda_crypto::digest::Digest;

/// One slot per detail level, indexed by its position on the detail axis.
const LEVELS: usize = DetailLevel::ALL.len();

/// Cache statistics (reported by experiment E8).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from cache.
    pub hits: u64,
    /// Cacheable lookups that had to re-measure.
    pub misses: u64,
    /// Lookups for levels that can never cache (`Packets`, zero
    /// inertia). Counted apart from `misses`: a per-packet measurement
    /// is not a cache failure, and folding it into the miss column
    /// deflated `hit_rate()` whenever `Packets` was in the detail set.
    pub uncacheable: u64,
}

impl CacheStats {
    /// Total lookups. Derived from the three breakdowns in exactly one
    /// place so they can never drift apart; the switch publishes it as
    /// `pera.cache.lookups`.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.uncacheable
    }

    /// Hit rate in [0, 1] over *cacheable* lookups only; 0 when none
    /// happened. Uncacheable lookups are excluded — they say nothing
    /// about how well the cache is working.
    pub fn hit_rate(&self) -> f64 {
        let cacheable = self.hits + self.misses;
        if cacheable == 0 {
            0.0
        } else {
            self.hits as f64 / cacheable as f64
        }
    }
}

/// Evidence cache: detail level → (generation, digest).
#[derive(Clone, Debug, Default)]
pub struct EvidenceCache {
    entries: [Option<(u64, Digest)>; LEVELS],
    generations: [u64; LEVELS],
    /// Statistics.
    pub stats: CacheStats,
}

impl EvidenceCache {
    /// Empty cache.
    pub fn new() -> EvidenceCache {
        EvidenceCache::default()
    }

    /// Current generation of a detail level.
    pub fn generation(&self, level: DetailLevel) -> u64 {
        self.generations[level as usize]
    }

    /// Invalidate a level (e.g. program reloaded → bump Program; a table
    /// write → bump Tables; a register write → bump ProgState). Bumping
    /// a level also bumps every lower-inertia level: a new program means
    /// new tables and new state.
    pub fn invalidate(&mut self, level: DetailLevel) {
        // Levels are declared in inertia order, so "`level` and every
        // lower-inertia level" is the tail of the array.
        for gen in &mut self.generations[level as usize..] {
            *gen += 1;
        }
    }

    /// Look up `level`'s digest; on miss, call `measure` and cache the
    /// result. `Packets` never caches (zero inertia).
    pub fn get_or_measure(
        &mut self,
        level: DetailLevel,
        measure: impl FnOnce() -> Digest,
    ) -> Digest {
        if level == DetailLevel::Packets {
            self.stats.uncacheable += 1;
            return measure();
        }
        let gen = self.generation(level);
        let slot = &mut self.entries[level as usize];
        if let Some((cached_gen, d)) = *slot {
            if cached_gen == gen {
                self.stats.hits += 1;
                return d;
            }
        }
        self.stats.misses += 1;
        let d = measure();
        *slot = Some((gen, d));
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(tag: u8) -> Digest {
        Digest::of(&[tag])
    }

    #[test]
    fn second_lookup_hits() {
        let mut c = EvidenceCache::new();
        let a = c.get_or_measure(DetailLevel::Program, || d(1));
        let b = c.get_or_measure(DetailLevel::Program, || panic!("must not re-measure"));
        assert_eq!(a, b);
        assert_eq!(
            c.stats,
            CacheStats {
                hits: 1,
                misses: 1,
                uncacheable: 0
            }
        );
    }

    #[test]
    fn invalidation_forces_remeasure() {
        let mut c = EvidenceCache::new();
        c.get_or_measure(DetailLevel::Program, || d(1));
        c.invalidate(DetailLevel::Program);
        let after = c.get_or_measure(DetailLevel::Program, || d(2));
        assert_eq!(after, d(2));
        assert_eq!(c.stats.misses, 2);
    }

    #[test]
    fn invalidation_cascades_to_lower_inertia() {
        let mut c = EvidenceCache::new();
        c.get_or_measure(DetailLevel::Tables, || d(1));
        c.get_or_measure(DetailLevel::ProgState, || d(2));
        c.invalidate(DetailLevel::Program); // program reload
        assert_eq!(c.get_or_measure(DetailLevel::Tables, || d(3)), d(3));
        assert_eq!(c.get_or_measure(DetailLevel::ProgState, || d(4)), d(4));
    }

    #[test]
    fn invalidation_does_not_cascade_upward() {
        let mut c = EvidenceCache::new();
        c.get_or_measure(DetailLevel::Program, || d(1));
        c.invalidate(DetailLevel::ProgState); // register write
        let still = c.get_or_measure(DetailLevel::Program, || panic!("cached"));
        assert_eq!(still, d(1));
    }

    #[test]
    fn hardware_never_invalidated_by_lower_levels() {
        let mut c = EvidenceCache::new();
        c.get_or_measure(DetailLevel::Hardware, || d(9));
        c.invalidate(DetailLevel::Program);
        c.invalidate(DetailLevel::Tables);
        c.invalidate(DetailLevel::ProgState);
        let still = c.get_or_measure(DetailLevel::Hardware, || panic!("cached"));
        assert_eq!(still, d(9));
    }

    #[test]
    fn packets_never_cache() {
        let mut c = EvidenceCache::new();
        c.get_or_measure(DetailLevel::Packets, || d(1));
        let again = c.get_or_measure(DetailLevel::Packets, || d(2));
        assert_eq!(again, d(2));
        assert_eq!(c.stats.hits, 0);
        // Per-packet lookups are not cache failures: they land in the
        // uncacheable column, not misses.
        assert_eq!(c.stats.misses, 0);
        assert_eq!(c.stats.uncacheable, 2);
    }

    #[test]
    fn hit_rate() {
        let mut c = EvidenceCache::new();
        assert_eq!(c.stats.hit_rate(), 0.0);
        c.get_or_measure(DetailLevel::Program, || d(1));
        for _ in 0..9 {
            c.get_or_measure(DetailLevel::Program, || d(1));
        }
        assert!((c.stats.hit_rate() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn uncacheable_lookups_do_not_deflate_hit_rate() {
        // The regression this PR fixes: with Packets in the detail set,
        // a perfectly-warm cache used to report a sinking hit rate.
        let mut c = EvidenceCache::new();
        c.get_or_measure(DetailLevel::Program, || d(1));
        for _ in 0..9 {
            c.get_or_measure(DetailLevel::Program, || d(1));
            c.get_or_measure(DetailLevel::Packets, || d(2));
        }
        assert!((c.stats.hit_rate() - 0.9).abs() < 1e-9);
        assert_eq!(c.stats.uncacheable, 9);
        // The three-way breakdown still accounts for every lookup.
        assert_eq!(c.stats.lookups(), 19);
        assert_eq!(
            c.stats.hits + c.stats.misses + c.stats.uncacheable,
            c.stats.lookups()
        );
    }
}
