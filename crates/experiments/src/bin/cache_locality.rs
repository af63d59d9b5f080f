//! Section 3.5's caching remark, quantified: an LRU cache in front of
//! the clue table under Zipf-skewed traffic.
//!
//! ```sh
//! cargo run --release -p clue-experiments --bin cache_locality
//! ```
//!
//! The paper notes that “parts of the clues hash table can be cached and
//! placed into the cache only if touched recently”, and cites ≈90 % hit
//! rates for (far more expensive) full lookup caches. Because a clue
//! entry is a tiny FD/Ptr record and clue popularity follows traffic
//! skew, a cache holding a few percent of the table absorbs most
//! consults. We sweep the cache size and report hit rate and the mean
//! number of *slow-memory* accesses per lookup (fast cache reads
//! excluded).

use clue_core::{ClueEngine, EngineConfig, Method};
use clue_lookup::Family;
use clue_tablegen::{
    derive_neighbor, generate_with_clues, synthesize_ipv4, NeighborConfig, TrafficConfig, TrafficModel,
};
use clue_trie::Cost;

fn main() {
    let sender = synthesize_ipv4(20_000, 901);
    let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(902));
    let (dests, clues) = generate_with_clues(
        &sender,
        &receiver,
        &TrafficConfig {
            count: 30_000,
            model: TrafficModel::ZipfCovered(1.05),
            filter_vertex_at_receiver: true,
            seed: 903,
        },
    );

    println!("=== Section 3.5: LRU clue cache under Zipf(1.05) traffic ===");
    println!(
        "{} clue-table entries; {} packets; Advance + Patricia\n",
        sender.len(),
        dests.len()
    );
    println!(
        "{:>12} {:>10} {:>12} {:>14} {:>14}",
        "cache size", "% of tbl", "hit rate", "slow acc/pkt", "total acc/pkt"
    );

    for capacity in [0usize, 128, 512, 2048, 8192] {
        let mut engine = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Patricia, Method::Advance),
        );
        if capacity > 0 {
            engine.enable_cache(capacity);
        }
        let (mut slow, mut total) = (0u64, 0u64);
        for (&dest, &clue) in dests.iter().zip(&clues) {
            let mut cost = Cost::new();
            engine.lookup(dest, clue, None, &mut cost);
            slow += cost.slow_total();
            total += cost.total();
        }
        let hit = engine.cache_stats().map(|s| s.hit_rate() * 100.0).unwrap_or(0.0);
        println!(
            "{:>12} {:>9.1}% {:>11.1}% {:>14.3} {:>14.3}",
            capacity,
            100.0 * capacity as f64 / sender.len() as f64,
            hit,
            slow as f64 / dests.len() as f64,
            total as f64 / dests.len() as f64
        );
    }

    println!("\na cache of a few percent of the table absorbs the large majority of");
    println!("consults — the paper's ≈90% lookup-cache hit rates, at FD-record prices.");
}
