//! Destination-address generation following the paper's Section 6
//! methodology.
//!
//! For each simulated packet the paper picks a random destination,
//! computes its BMP at the sending router R1, and keeps the destination
//! only if that BMP is a vertex of the receiving router R2's trie — a
//! proxy for “R2 is a plausible next hop for this packet”. (The paper
//! notes the discarded destinations would only *improve* the results:
//! when the clue is not even a vertex at R2, the clue table answers in
//! the minimum one access.) Both the filtered and unfiltered populations
//! are available here; the experiments report the filtered one like the
//! paper and cite the unfiltered one as a robustness check.

use clue_trie::{Address, BinaryTrie, Prefix};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

/// How raw destinations are drawn before filtering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficModel {
    /// Uniform over the whole address space (mostly misses small
    /// tables; kept for completeness).
    Uniform,
    /// Pick a random sender prefix, then a uniform host inside it — the
    /// paper's implicit model (“a random destination is chosen, and its
    /// BMP in R1 is computed”: a destination with a BMP).
    CoveredBySender,
    /// Like [`TrafficModel::CoveredBySender`] but prefix popularity
    /// follows a Zipf law with the given exponent — the skew real
    /// traffic exhibits and the regime in which the Section 3.5 clue
    /// cache reaches the ≈90 % hit rates the paper cites for lookup
    /// caches.
    ZipfCovered(f64),
}

/// Traffic-generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrafficConfig {
    /// Number of destinations to produce (after filtering).
    pub count: usize,
    /// Raw draw model.
    pub model: TrafficModel,
    /// Apply the paper's vertex-at-receiver filter.
    pub filter_vertex_at_receiver: bool,
    /// RNG seed.
    pub seed: u64,
}

impl TrafficConfig {
    /// The paper's setup: 10 000 covered destinations, vertex-filtered.
    pub fn paper(seed: u64) -> Self {
        TrafficConfig {
            count: 10_000,
            model: TrafficModel::CoveredBySender,
            filter_vertex_at_receiver: true,
            seed,
        }
    }
}

/// A seeded Zipf rank sampler over `n` items: popularity rank is
/// assigned by a deterministic shuffle (so it does not correlate with
/// item order) and draws follow `1/rank^s`. This is the locality
/// model behind [`TrafficModel::ZipfCovered`], shared with the fleet
/// simulator's destination-locality draw.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    order: Vec<usize>,
}

impl ZipfSampler {
    /// Builds the sampler, consuming `n - 1` shuffle draws from `rng`.
    pub fn new(n: usize, exponent: f64, rng: &mut StdRng) -> Self {
        let mut order: Vec<usize> = (0..n).collect();
        // Deterministic shuffle: popularity should not correlate with
        // item value.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let mut acc = 0.0;
        let cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(exponent);
                acc
            })
            .collect();
        ZipfSampler { cdf, order }
    }

    /// Draws one item index (one `rng` draw), `None` if empty.
    pub fn sample(&self, rng: &mut StdRng) -> Option<usize> {
        let &total = self.cdf.last()?;
        let x = rng.random_range(0.0..total);
        let i = self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1);
        Some(self.order[i])
    }
}

/// Generates destinations for a sender/receiver pair per `config`.
///
/// Returns up to `config.count` addresses (fewer only if the acceptance
/// rate is pathologically low, bounded by an attempt cap).
pub fn generate<A: Address>(
    sender: &[Prefix<A>],
    receiver: &[Prefix<A>],
    config: &TrafficConfig,
) -> Vec<A> {
    let t1: BinaryTrie<A, ()> = sender.iter().map(|p| (*p, ())).collect();
    draw(&t1, sender, receiver, config)
}

/// Generates destinations as [`generate`] does, each with the honest
/// clue its sender stamps: the destination's best matching prefix in
/// `sender`, or `None` where that is absent or the empty /0 prefix (a
/// default route says nothing about where the lookup may start). The
/// sender trie is built once and shared by the draw and the clues.
pub fn generate_with_clues<A: Address>(
    sender: &[Prefix<A>],
    receiver: &[Prefix<A>],
    config: &TrafficConfig,
) -> (Vec<A>, Vec<Option<Prefix<A>>>) {
    let t1: BinaryTrie<A, ()> = sender.iter().map(|p| (*p, ())).collect();
    let dests = draw(&t1, sender, receiver, config);
    let clues = dests
        .iter()
        .map(|&d| t1.lookup(d).map(|r| t1.prefix(r)).filter(|c| !c.is_empty()))
        .collect();
    (dests, clues)
}

/// The draw behind [`generate`], over the prebuilt sender trie `t1`.
fn draw<A: Address>(
    t1: &BinaryTrie<A, ()>,
    sender: &[Prefix<A>],
    receiver: &[Prefix<A>],
    config: &TrafficConfig,
) -> Vec<A> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let t2: BinaryTrie<A, ()> = receiver.iter().map(|p| (*p, ())).collect();
    let width_mask: u128 =
        if A::BITS as u32 >= 128 { u128::MAX } else { (1u128 << A::BITS) - 1 };

    // For Zipf draws: rank popularity over a random permutation of
    // sender prefixes (rank 1 = most popular).
    let zipf: Option<ZipfSampler> = match config.model {
        TrafficModel::ZipfCovered(s) => Some(ZipfSampler::new(sender.len(), s, &mut rng)),
        _ => None,
    };

    let mut out = Vec::with_capacity(config.count);
    let mut attempts = 0usize;
    let cap = config.count.saturating_mul(200) + 1000;
    while out.len() < config.count && attempts < cap {
        attempts += 1;
        let raw: u128 = ((rng.random::<u64>() as u128) << 64) | rng.random::<u64>() as u128;
        let dest = match config.model {
            TrafficModel::Uniform => A::from_u128(raw & width_mask),
            TrafficModel::CoveredBySender | TrafficModel::ZipfCovered(_) => {
                let p = match &zipf {
                    None => match sender.choose(&mut rng) {
                        Some(&p) => p,
                        None => break,
                    },
                    Some(sampler) => match sampler.sample(&mut rng) {
                        Some(i) => sender[i],
                        None => break,
                    },
                };
                let span = (A::BITS - p.len()) as u32;
                let host = if span == 0 {
                    0
                } else if span >= 128 {
                    raw
                } else {
                    raw & ((1u128 << span) - 1)
                };
                A::from_u128(p.bits().to_u128() | host)
            }
        };
        if config.filter_vertex_at_receiver {
            // The paper's acceptance test: the sender's BMP for this
            // destination must be a vertex of the receiver's trie.
            let Some(bmp) = t1.lookup(dest).map(|r| t1.prefix(r)) else {
                continue;
            };
            if t2.node_of_prefix(&bmp).is_none() {
                continue;
            }
        }
        out.push(dest);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::{derive_neighbor, NeighborConfig};
    use crate::synth::synthesize_ipv4;
    use clue_trie::Ip4;

    #[test]
    fn generates_requested_count_for_similar_pair() {
        let sender = synthesize_ipv4(2000, 1);
        let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(2));
        let cfg = TrafficConfig { count: 500, ..TrafficConfig::paper(3) };
        let dests = generate(&sender, &receiver, &cfg);
        assert_eq!(dests.len(), 500);
    }

    #[test]
    fn filtered_destinations_satisfy_the_paper_invariant() {
        let sender = synthesize_ipv4(1000, 4);
        let receiver = derive_neighbor(&sender, &NeighborConfig::route_servers(5));
        let cfg = TrafficConfig { count: 300, ..TrafficConfig::paper(6) };
        let t1: clue_trie::BinaryTrie<Ip4, ()> = sender.iter().map(|p| (*p, ())).collect();
        let t2: clue_trie::BinaryTrie<Ip4, ()> = receiver.iter().map(|p| (*p, ())).collect();
        for d in generate(&sender, &receiver, &cfg) {
            let bmp = t1.lookup(d).expect("covered destination");
            assert!(t2.node_of_prefix(&t1.prefix(bmp)).is_some());
        }
    }

    #[test]
    fn covered_model_destinations_match_some_sender_prefix() {
        let sender = synthesize_ipv4(500, 7);
        let cfg = TrafficConfig {
            count: 200,
            model: TrafficModel::CoveredBySender,
            filter_vertex_at_receiver: false,
            seed: 8,
        };
        let t1: clue_trie::BinaryTrie<Ip4, ()> = sender.iter().map(|p| (*p, ())).collect();
        for d in generate(&sender, &sender, &cfg) {
            assert!(t1.lookup(d).is_some());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let sender = synthesize_ipv4(300, 9);
        let cfg = TrafficConfig { count: 100, ..TrafficConfig::paper(10) };
        assert_eq!(generate(&sender, &sender, &cfg), generate(&sender, &sender, &cfg));
    }

    #[test]
    fn zipf_traffic_is_skewed() {
        let sender = synthesize_ipv4(2000, 20);
        let cfg = TrafficConfig {
            count: 3000,
            model: TrafficModel::ZipfCovered(1.1),
            filter_vertex_at_receiver: false,
            seed: 21,
        };
        let t1: clue_trie::BinaryTrie<Ip4, ()> = sender.iter().map(|p| (*p, ())).collect();
        let mut counts = std::collections::HashMap::new();
        for d in generate(&sender, &sender, &cfg) {
            let bmp = t1.lookup(d).map(|r| t1.prefix(r)).unwrap();
            *counts.entry(bmp).or_insert(0usize) += 1;
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // The top 10% of prefixes should carry well over half the traffic.
        let top: usize = freqs.iter().take(freqs.len() / 10 + 1).sum();
        let total: usize = freqs.iter().sum();
        assert!(
            top * 2 > total,
            "Zipf skew too weak: top decile {top} of {total}"
        );
    }

    #[test]
    fn uniform_model_mostly_misses_small_tables() {
        let sender = synthesize_ipv4(100, 11);
        let cfg = TrafficConfig {
            count: 100,
            model: TrafficModel::Uniform,
            filter_vertex_at_receiver: false,
            seed: 12,
        };
        let t1: clue_trie::BinaryTrie<Ip4, ()> = sender.iter().map(|p| (*p, ())).collect();
        let dests = generate(&sender, &sender, &cfg);
        let hits = dests.iter().filter(|&&d| t1.lookup(d).is_some()).count();
        assert!(hits < dests.len() / 2);
    }
}
