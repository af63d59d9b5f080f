//! Memory-access accounting.
//!
//! The paper's evaluation metric is the **number of memory accesses**
//! (“to a table or the trie”) a lookup performs. Every search structure in
//! this workspace takes a `&mut Cost` and ticks the matching category once
//! per access, so experiment harnesses can report both the total and a
//! breakdown.

use core::fmt;
use core::ops::AddAssign;

/// Counter of memory accesses, broken down by the kind of structure
/// touched. The paper reports only the total; the breakdown is useful when
/// analysing *where* a scheme spends its accesses (e.g. the mandatory clue
/// table consult vs. the continued trie walk).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Cost {
    /// Visits to binary-trie or Patricia vertices.
    pub trie_nodes: u64,
    /// Probes of a hash table (clue tables, Log W length tables).
    pub hash_probes: u64,
    /// Probes in a sorted-array binary / B-way search.
    pub range_probes: u64,
    /// Reads of a directly-indexed table (the paper's “indexing technique”).
    pub indexed_reads: u64,
    /// Reads served from a fast on-chip cache in front of the clue table
    /// (Section 3.5's “parts of the clues hash table can be cached”).
    pub cache_reads: u64,
}

impl Cost {
    /// A fresh zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total memory accesses across all categories — the unit of the
    /// paper's Tables 4–9.
    #[inline]
    pub fn total(&self) -> u64 {
        self.trie_nodes + self.hash_probes + self.range_probes + self.indexed_reads
            + self.cache_reads
    }

    /// Accesses that reach slow (off-chip) memory — everything except
    /// cache reads. The quantity a cached deployment optimises.
    #[inline]
    pub fn slow_total(&self) -> u64 {
        self.trie_nodes + self.hash_probes + self.range_probes + self.indexed_reads
    }

    /// Record one trie-node visit.
    #[inline]
    pub fn trie_node(&mut self) {
        self.trie_nodes += 1;
    }

    /// Record one hash-table probe.
    #[inline]
    pub fn hash_probe(&mut self) {
        self.hash_probes += 1;
    }

    /// Record one probe of a sorted range array.
    #[inline]
    pub fn range_probe(&mut self) {
        self.range_probes += 1;
    }

    /// Record one directly-indexed table read.
    #[inline]
    pub fn indexed_read(&mut self) {
        self.indexed_reads += 1;
    }

    /// Record one fast cache read.
    #[inline]
    pub fn cache_read(&mut self) {
        self.cache_reads += 1;
    }

}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Self) {
        self.trie_nodes += rhs.trie_nodes;
        self.hash_probes += rhs.hash_probes;
        self.range_probes += rhs.range_probes;
        self.indexed_reads += rhs.indexed_reads;
        self.cache_reads += rhs.cache_reads;
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses (trie {}, hash {}, range {}, indexed {}, cache {})",
            self.total(),
            self.trie_nodes,
            self.hash_probes,
            self.range_probes,
            self.indexed_reads,
            self.cache_reads
        )
    }
}

/// Accumulates per-lookup costs into an average, the statistic the paper's
/// Tables 4–9 report (“average number of memory accesses over 10,000
/// packets”).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CostStats {
    samples: u64,
    total: u64,
    max: u64,
    sum: Cost,
}

impl CostStats {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the cost of one lookup.
    pub fn record(&mut self, cost: Cost) {
        self.record_with_total(cost, cost.total());
    }

    /// As [`Self::record`] with the total precomputed — for hot
    /// callers that already computed `cost.total()` for their own
    /// accounting and record the same cost into several accumulators.
    ///
    /// # Panics
    /// Debug-asserts that `total == cost.total()`.
    #[inline]
    pub fn record_with_total(&mut self, cost: Cost, total: u64) {
        debug_assert_eq!(total, cost.total());
        self.samples += 1;
        self.total += total;
        self.max = self.max.max(total);
        self.sum += cost;
    }

    /// Number of recorded lookups.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Mean total accesses per lookup (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total as f64 / self.samples as f64
        }
    }

    /// Worst single lookup observed.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds another accumulator into this one (e.g. aggregating
    /// per-hop-position statistics into a steady-state figure).
    pub fn merge(&mut self, other: &CostStats) {
        self.samples += other.samples;
        self.total += other.total;
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_categories() {
        let mut c = Cost::new();
        c.trie_node();
        c.trie_node();
        c.hash_probe();
        c.range_probe();
        c.indexed_read();
        assert_eq!(c.total(), 5);
        assert_eq!(c.trie_nodes, 2);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = Cost::new();
        a.trie_node();
        let mut b = Cost::new();
        b.hash_probe();
        b.hash_probe();
        a += b;
        assert_eq!(a.total(), 3);
        assert_eq!(a.hash_probes, 2);
    }

    #[test]
    fn stats_mean_and_max() {
        let mut s = CostStats::new();
        assert_eq!(s.mean(), 0.0);
        let mut c1 = Cost::new();
        c1.trie_node();
        let mut c2 = Cost::new();
        for _ in 0..3 {
            c2.hash_probe();
        }
        s.record(c1);
        s.record(c2);
        assert_eq!(s.samples(), 2);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.max(), 3);
        assert_eq!(s.sum.hash_probes, 3);
    }

    #[test]
    fn merge_combines_accumulators() {
        let (mut a, mut b) = (CostStats::new(), CostStats::new());
        let mut c1 = Cost::new();
        c1.trie_node();
        a.record(c1);
        let mut c2 = Cost::new();
        for _ in 0..5 {
            c2.hash_probe();
        }
        b.record(c2);
        a.merge(&b);
        assert_eq!(a.samples(), 2);
        assert_eq!(a.mean(), 3.0);
        assert_eq!(a.max(), 5);
        assert_eq!(a.sum.hash_probes, 5);
    }

    #[test]
    fn slow_total_excludes_cache_reads() {
        let mut c = Cost::new();
        c.cache_read();
        c.cache_read();
        c.hash_probe();
        assert_eq!(c.total(), 3);
        assert_eq!(c.slow_total(), 1);
        assert_eq!(c.cache_reads, 2);
    }

    #[test]
    fn display_contains_total() {
        let mut c = Cost::new();
        c.trie_node();
        c.hash_probe();
        assert!(c.to_string().starts_with("2 accesses"));
    }
}
