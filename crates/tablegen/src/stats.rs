//! Table and pair statistics — the quantities of the paper's Tables 1–3.

use std::collections::BTreeSet;

use clue_core::classify_all;
use clue_telemetry::{Registry, PREFIX_LENGTH_BOUNDS};
use clue_trie::{Address, BinaryTrie, Prefix};

/// Number of prefixes two tables share (Table 3, “the intersection
/// size”).
pub(crate) fn intersection_size<A: Address>(a: &[Prefix<A>], b: &[Prefix<A>]) -> usize {
    let sa: BTreeSet<_> = a.iter().collect();
    b.iter().filter(|p| sa.contains(p)).count()
}

/// Number of clues from `sender` for which Claim 1 does **not** hold at
/// `receiver` — the paper's Table 2 (“problematic clues”).
pub(crate) fn problematic_clues<A: Address>(sender: &[Prefix<A>], receiver: &[Prefix<A>]) -> usize {
    let t1: BinaryTrie<A, ()> = sender.iter().map(|p| (*p, ())).collect();
    let t2: BinaryTrie<A, ()> = receiver.iter().map(|p| (*p, ())).collect();
    classify_all(&t1, &t2).iter().filter(|(_, c)| c.is_problematic()).count()
}

/// Prefix-length histogram, indexed by length.
pub fn length_histogram<A: Address>(prefixes: &[Prefix<A>]) -> Vec<usize> {
    let mut h = vec![0usize; A::BITS as usize + 1];
    for p in prefixes {
        h[p.len() as usize] += 1;
    }
    h
}

/// L1 distance between a table's empirical prefix-length distribution
/// and the distribution a [`SynthConfig`](crate::SynthConfig) asked
/// for, after clamping each configured weight to the config's length
/// capacity (a saturated length *cannot* reach its raw weight, and the
/// clamped mass is renormalized over the rest — so a perfectly-behaved
/// generator scores near 0 even when short lengths are full). Range
/// `[0, 2]`; `0` is a perfect match.
pub fn length_l1_distance<A: Address>(
    prefixes: &[Prefix<A>],
    config: &crate::SynthConfig,
) -> f64 {
    if prefixes.is_empty() {
        return 0.0;
    }
    let n = prefixes.len() as f64;
    let total: f64 = config.histogram.iter().map(|(_, w)| w).sum();
    // Clamp each weight to its capacity share, then renormalize.
    let clamped: Vec<(u8, f64)> = config
        .histogram
        .iter()
        .map(|&(l, w)| (l, (w / total).min(config.length_capacity(l) as f64 / n)))
        .collect();
    let clamped_total: f64 = clamped.iter().map(|(_, w)| w).sum();
    let h = length_histogram(prefixes);
    let mut dist = 0.0;
    for (len, count) in h.iter().enumerate() {
        let want = clamped
            .iter()
            .find(|&&(l, _)| l as usize == len)
            .map(|&(_, w)| w / clamped_total)
            .unwrap_or(0.0);
        dist += (*count as f64 / n - want).abs();
    }
    dist
}

/// Summary of a sender→receiver pair, printable like the paper's tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairStats {
    /// Prefixes in the sender's table (Table 1).
    pub sender_size: usize,
    /// Prefixes in the receiver's table (Table 1).
    pub receiver_size: usize,
    /// Shared prefixes (Table 3).
    pub intersection: usize,
    /// Clues violating Claim 1 at the receiver (Table 2).
    pub problematic: usize,
}

impl PairStats {
    /// Computes all pair statistics.
    pub fn compute<A: Address>(sender: &[Prefix<A>], receiver: &[Prefix<A>]) -> Self {
        PairStats {
            sender_size: sender.len(),
            receiver_size: receiver.len(),
            intersection: intersection_size(sender, receiver),
            problematic: problematic_clues(sender, receiver),
        }
    }

    /// Problematic clues as a fraction of the sender's clue set.
    pub fn problematic_fraction(&self) -> f64 {
        if self.sender_size == 0 {
            0.0
        } else {
            self.problematic as f64 / self.sender_size as f64
        }
    }

    /// Intersection as a fraction of the smaller table.
    pub fn similarity(&self) -> f64 {
        let m = self.sender_size.min(self.receiver_size);
        if m == 0 {
            0.0
        } else {
            self.intersection as f64 / m as f64
        }
    }

    /// Mirrors the pair summary into `registry` as
    /// `clue_tablegen_*` gauges — the registry view of a table build.
    pub fn export_into(&self, registry: &Registry) {
        registry
            .gauge("clue_tablegen_sender_size", "Prefixes in the sender's table")
            .set(self.sender_size as f64);
        registry
            .gauge("clue_tablegen_receiver_size", "Prefixes in the receiver's table")
            .set(self.receiver_size as f64);
        registry
            .gauge("clue_tablegen_intersection", "Prefixes shared by the pair")
            .set(self.intersection as f64);
        registry
            .gauge("clue_tablegen_problematic", "Clues violating Claim 1 at the receiver")
            .set(self.problematic as f64);
        registry
            .gauge("clue_tablegen_similarity", "Intersection over the smaller table")
            .set(self.similarity());
        registry
            .gauge(
                "clue_tablegen_problematic_fraction",
                "Problematic clues over the sender's clue set",
            )
            .set(self.problematic_fraction());
    }
}

/// Records every prefix length of `prefixes` into a registry histogram
/// named `{name}` (bounded by [`PREFIX_LENGTH_BOUNDS`]), so exporters can
/// publish the table's length distribution alongside the pair gauges.
pub fn export_length_histogram<A: Address>(
    registry: &Registry,
    name: &str,
    prefixes: &[Prefix<A>],
) {
    let h = registry.histogram(name, "Prefix length distribution", PREFIX_LENGTH_BOUNDS);
    for p in prefixes {
        h.observe(p.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::{derive_neighbor, NeighborConfig};
    use crate::synth::synthesize_ipv4;
    use clue_trie::Ip4;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    #[test]
    fn intersection_counts_shared() {
        let a = vec![p("10.0.0.0/8"), p("20.0.0.0/8")];
        let b = vec![p("20.0.0.0/8"), p("30.0.0.0/8")];
        assert_eq!(intersection_size(&a, &b), 1);
        assert_eq!(intersection_size(&a, &a), 2);
        assert_eq!(intersection_size(&a, &[]), 0);
    }

    #[test]
    fn problematic_clue_count_matches_classifier() {
        let sender = vec![p("10.0.0.0/8"), p("20.0.0.0/8")];
        let receiver = vec![p("10.0.0.0/8"), p("10.5.0.0/16"), p("20.0.0.0/8")];
        assert_eq!(problematic_clues(&sender, &receiver), 1);
    }

    #[test]
    fn histogram_sums_to_len() {
        let t = synthesize_ipv4(700, 1);
        let h = length_histogram(&t);
        assert_eq!(h.iter().sum::<usize>(), 700);
        assert_eq!(h.len(), 33);
    }

    #[test]
    fn pair_stats_export_into_registry() {
        let sender = vec![p("10.0.0.0/8"), p("20.0.0.0/8")];
        let receiver = vec![p("10.0.0.0/8"), p("10.5.0.0/16"), p("20.0.0.0/8")];
        let s = PairStats::compute(&sender, &receiver);
        let registry = Registry::new();
        s.export_into(&registry);
        let gauge = |name: &str| {
            assert!(registry.contains(name), "{name} registered");
            registry.gauge(name, "").get()
        };
        assert_eq!(gauge("clue_tablegen_sender_size"), 2.0);
        assert_eq!(gauge("clue_tablegen_receiver_size"), 3.0);
        assert_eq!(gauge("clue_tablegen_problematic"), 1.0);
        export_length_histogram(&registry, "clue_tablegen_sender_length", &sender);
        assert!(registry.contains("clue_tablegen_sender_length"));
        let h = registry
            .histogram("clue_tablegen_sender_length", "", PREFIX_LENGTH_BOUNDS)
            .snapshot();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 16);
    }

    #[test]
    fn length_l1_distance_scores_shape_fidelity() {
        use crate::synth::{synthesize, SynthConfig};
        let cfg = SynthConfig::ipv4_modern(50_000, 31);
        let t = synthesize::<Ip4>(&cfg);
        let own = length_l1_distance(&t, &cfg);
        assert!(own < 0.2, "own-config distance {own:.4}");
        // A 1999-shaped table is visibly far from the modern histogram.
        let legacy = synthesize_ipv4(50_000, 31);
        let cross = length_l1_distance(&legacy, &cfg);
        assert!(cross > own + 0.1, "cross {cross:.4} vs own {own:.4}");
        assert!(length_l1_distance::<Ip4>(&[], &cfg) == 0.0);
    }

    #[test]
    fn pair_stats_land_in_paper_bands_for_isp_pair() {
        // Calibration check: a same-ISP pair must land in the bands the
        // paper reports (similarity ≥ 0.98, problematic ≤ 3 %).
        let sender = synthesize_ipv4(6000, 21);
        let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(22));
        let s = PairStats::compute(&sender, &receiver);
        assert!(s.similarity() > 0.98, "similarity {}", s.similarity());
        assert!(s.problematic_fraction() < 0.03, "problematic {}", s.problematic_fraction());
        assert!(s.problematic > 0);
    }
}
