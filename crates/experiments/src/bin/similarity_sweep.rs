//! Ablation (ours): how sensitive are Simple and Advance to the paper's
//! core premise — that neighboring forwarding tables are similar?
//!
//! ```sh
//! cargo run --release -p clue-experiments --bin similarity_sweep
//! ```
//!
//! The paper measures pairs that are 93–99 % similar and reports ≈ 1
//! access; it never shows the degradation curve. We sweep the shared
//! fraction from 0.30 to 1.00 and measure the Patricia-family methods.
//! The interesting finding: even quite dissimilar neighbors still
//! benefit, because a clue that *is* known is usually final, and one
//! that is not costs only one extra probe on top of the common lookup.

use clue_core::Method;
use clue_experiments::{mean_accesses, PairWorkload};
use clue_lookup::Family;
use clue_tablegen::{
    derive_neighbor, generate_with_clues, synthesize_ipv4, NeighborConfig, PairStats, TrafficConfig,
};
use clue_trie::BinaryTrie;

fn main() {
    let base = synthesize_ipv4(8_000, 601);
    let traffic = TrafficConfig { count: 4_000, ..TrafficConfig::paper(602) };

    println!("=== Sensitivity to neighbor-table similarity (Patricia family) ===\n");
    println!(
        "{:>6} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "share", "intersect%", "problematic%", "common", "Simple", "Advance"
    );
    for share in [0.30, 0.50, 0.70, 0.85, 0.95, 0.99, 1.00] {
        let receiver = derive_neighbor(&base, &NeighborConfig::with_share(share, 603));
        let stats = PairStats::compute(&base, &receiver);
        let (dests, clues) = generate_with_clues(&base, &receiver, &traffic);
        let t2: BinaryTrie<clue_trie::Ip4, ()> = receiver.iter().map(|p| (*p, ())).collect();
        let wl = PairWorkload {
            clues,
            expected: dests.iter().map(|&d| t2.lookup(d).map(|r| t2.prefix(r))).collect(),
            dests,
        };
        let common = mean_accesses(&base, &receiver, &wl, Family::Patricia, Method::Common);
        let simple = mean_accesses(&base, &receiver, &wl, Family::Patricia, Method::Simple);
        let advance = mean_accesses(&base, &receiver, &wl, Family::Patricia, Method::Advance);
        println!(
            "{:>6.2} {:>11.1}% {:>11.2}% {:>10.2} {:>10.2} {:>10.2}",
            share,
            stats.similarity() * 100.0,
            stats.problematic_fraction() * 100.0,
            common,
            simple,
            advance
        );
    }
    println!("\nthe paper's regime is the bottom rows (≥ 95% similar); the sweep shows");
    println!("the clue advantage decays gracefully rather than collapsing.");
}
