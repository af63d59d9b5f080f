//! A fast cache in front of the clue table — Section 3.5's “parts of the
//! clues hash table can be cached and placed into the cache only if
//! touched recently”.
//!
//! The cache is an LRU over clue-table entries. A hit serves the entry
//! from fast memory (one [`clue_trie::Cost::cache_read`]); a miss falls
//! through to the backing table (one ordinary probe) and promotes the
//! entry. Because clue popularity in real traffic is heavily skewed, a
//! cache holding a small fraction of the table reaches the ≈90 % hit
//! rates the paper cites for lookup caches (Section 2, [18, 16]) — but
//! at clue-table prices: the cached object is a tiny FD/Ptr record, not
//! an expensive CAM line.

use clue_trie::Prefix;

use crate::fxhash::{FxBuildHasher, FxHashMap};

clue_telemetry::bundle! {
    /// Telemetry for the clue-table cache (`clue_cache_*`), mirroring
    /// [`CacheStats`].
    pub(crate) struct CacheTelemetry in "clue_cache" {
        hits_total: Counter = "Cache lookups served from the cache",
        misses_total: Counter = "Cache lookups that fell through to the backing store",
        evictions_total: Counter = "Entries evicted to make room",
    }
}

/// Hit/miss/eviction accounting for a [`LruCache`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the backing table.
    pub misses: u64,
    /// Entries evicted by LRU pressure.
    pub(crate) evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 when empty).
    pub fn hit_rate(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// Intrusive doubly-linked LRU list node (indices into the arena).
#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// A fixed-capacity LRU cache.
///
/// Operations are O(1): a `HashMap` finds the slot, an intrusive doubly
/// linked list maintains recency, and eviction pops the tail.
#[derive(Debug)]
pub(crate) struct LruCache<K: Copy + Eq + core::hash::Hash, V> {
    capacity: usize,
    /// Fast-hashed: the cache probe sits on the per-packet path in
    /// front of the clue table.
    map: FxHashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    head: usize,
    tail: usize,
    stats: CacheStats,
    /// Mirrors every stats increment when attached; `None` costs one
    /// predictable branch per operation.
    telemetry: Option<CacheTelemetry>,
}

/// A presence-only cache: tracks *which* clues are resident in fast
/// memory while the entry bytes stay in the backing table — the form
/// [`crate::ClueEngine`] uses internally.
pub(crate) type PresenceCache<A> = LruCache<Prefix<A>, ()>;

impl<K: Copy + Eq + core::hash::Hash, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LruCache {
            capacity,
            map: FxHashMap::with_capacity_and_hasher(capacity, FxBuildHasher),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
            telemetry: None,
        }
    }

    /// Mirrors hit/miss/eviction counts into `telemetry`
    /// (shared metric cells, typically registered in a
    /// [`clue_telemetry::Registry`]) from now on.
    pub(crate) fn attach_telemetry(&mut self, telemetry: CacheTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// The attached telemetry bundle, if any.
    #[cfg(test)]
    pub(crate) fn telemetry(&self) -> Option<&CacheTelemetry> {
        self.telemetry.as_ref()
    }

    /// Number of cached entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Hit/miss statistics so far.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics (e.g. after a warm-up phase).
    #[cfg(test)]
    pub(crate) fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks up a key, recording a hit or miss and refreshing recency.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        match self.map.get(key).copied() {
            Some(i) => {
                self.stats.hits += 1;
                if let Some(t) = &self.telemetry {
                    t.hits_total.inc();
                }
                if self.head != i {
                    self.unlink(i);
                    self.push_front(i);
                }
                Some(&self.slots[i].value)
            }
            None => {
                self.stats.misses += 1;
                if let Some(t) = &self.telemetry {
                    t.misses_total.inc();
                }
                None
            }
        }
    }

    /// Inserts (or refreshes) a key/value, evicting the least recently
    /// used one when full. Returns the evicted key, if any.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<K> {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return None;
        }
        if self.map.len() < self.capacity {
            self.slots.push(Slot { key, value, prev: NIL, next: NIL });
            let i = self.slots.len() - 1;
            self.map.insert(key, i);
            self.push_front(i);
            return None;
        }
        // Full: the tail's slot is reused for the new key.
        let victim = self.tail;
        debug_assert_ne!(victim, NIL, "capacity > 0 implies a tail when full");
        self.unlink(victim);
        let old = self.slots[victim].key;
        self.map.remove(&old);
        self.stats.evictions += 1;
        if let Some(t) = &self.telemetry {
            t.evictions_total.inc();
        }
        self.slots[victim] = Slot { key, value, prev: NIL, next: NIL };
        self.map.insert(key, victim);
        self.push_front(victim);
        Some(old)
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ClueEntry;
    use clue_trie::Ip4;

    /// The Section 3.5 clue cache: LRU over full clue-table entries.
    type ClueCache<A> = LruCache<Prefix<A>, ClueEntry<A>>;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    fn e(s: &str) -> ClueEntry<Ip4> {
        ClueEntry { clue: p(s), fd: Some(p(s)), cont: None }
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c = ClueCache::new(2);
        assert!(c.get(&p("10.0.0.0/8")).is_none());
        c.insert(p("10.0.0.0/8"), e("10.0.0.0/8"));
        assert!(c.get(&p("10.0.0.0/8")).is_some());
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1, ..CacheStats::default() });
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn evictions_are_counted() {
        let mut c = ClueCache::new(2);
        c.insert(p("1.0.0.0/8"), e("1.0.0.0/8"));
        c.insert(p("2.0.0.0/8"), e("2.0.0.0/8"));
        c.insert(p("3.0.0.0/8"), e("3.0.0.0/8")); // evicts 1/8
        assert_eq!(c.stats().evictions, 1);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn telemetry_mirrors_stats() {
        use clue_telemetry::Registry;
        let reg = Registry::new();
        let mut c = ClueCache::new(2);
        c.attach_telemetry(CacheTelemetry::registered(&reg));
        c.insert(p("1.0.0.0/8"), e("1.0.0.0/8"));
        c.insert(p("2.0.0.0/8"), e("2.0.0.0/8"));
        c.insert(p("3.0.0.0/8"), e("3.0.0.0/8"));
        let _ = c.get(&p("3.0.0.0/8"));
        let _ = c.get(&p("1.0.0.0/8"));
        let (s, t) = (c.stats(), c.telemetry().unwrap().clone());
        assert_eq!(s.hits, t.hits_total.get());
        assert_eq!(s.misses, t.misses_total.get());
        assert_eq!(s.evictions, t.evictions_total.get());
        let prom = reg.to_prometheus();
        assert!(prom.contains("clue_cache_hits_total 1"), "{prom}");
        assert!(prom.contains("clue_cache_evictions_total 1"), "{prom}");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = ClueCache::new(2);
        c.insert(p("1.0.0.0/8"), e("1.0.0.0/8"));
        c.insert(p("2.0.0.0/8"), e("2.0.0.0/8"));
        // Touch 1/8 so 2/8 becomes the LRU victim.
        assert!(c.get(&p("1.0.0.0/8")).is_some());
        let evicted = c.insert(p("3.0.0.0/8"), e("3.0.0.0/8"));
        assert_eq!(evicted, Some(p("2.0.0.0/8")));
        assert!(c.get(&p("2.0.0.0/8")).is_none());
        assert!(c.get(&p("1.0.0.0/8")).is_some());
        assert!(c.get(&p("3.0.0.0/8")).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = ClueCache::new(2);
        c.insert(p("1.0.0.0/8"), e("1.0.0.0/8"));
        c.insert(p("2.0.0.0/8"), e("2.0.0.0/8"));
        assert_eq!(c.insert(p("1.0.0.0/8"), e("1.0.0.0/8")), None);
        // The refresh made 2/8 the least recently used entry.
        assert_eq!(c.insert(p("3.0.0.0/8"), e("3.0.0.0/8")), Some(p("2.0.0.0/8")));
    }

    /// Against a most-recent-first `Vec` model: every hit, miss and
    /// eviction the cache reports is the model's.
    #[test]
    fn recency_list_is_consistent_under_churn() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut c = ClueCache::new(8);
        let mut model: Vec<Prefix<Ip4>> = Vec::new();
        for _ in 0..2000 {
            let k = rng.random_range(0u32..32);
            let clue = Prefix::new(Ip4(k << 24), 8);
            let resident = model.iter().position(|&m| m == clue);
            if rng.random_range(0..2) == 0 {
                let evicted = c.insert(clue, ClueEntry { clue, fd: None, cont: None });
                let want = match resident {
                    Some(i) => {
                        model.remove(i);
                        None
                    }
                    None if model.len() == 8 => model.pop(),
                    None => None,
                };
                model.insert(0, clue);
                assert_eq!(evicted, want);
            } else {
                assert_eq!(c.get(&clue).is_some(), resident.is_some());
                if let Some(i) = resident {
                    model.remove(i);
                    model.insert(0, clue);
                }
            }
            assert_eq!(c.len(), model.len());
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ClueCache::<Ip4>::new(0);
    }
}
