//! Ablation: does table minimization (ORTC, the Section 2(5) related
//! work) help or hurt the clue scheme?
//!
//! ```sh
//! cargo run --release -p clue-experiments --bin ortc_ablation
//! ```
//!
//! ORTC shrinks the receiver's table without changing any forwarding
//! decision. That restructures the trie `t2` the Claim 1 classifier
//! runs against: redundant refinements disappear (fewer problematic
//! clues), but some clue vertices disappear too (more Case 1 entries).
//! The paper never examines this interaction; we measure it.

use clue_core::{ClueEngine, EngineConfig, Method};
use clue_lookup::Family;
use clue_tablegen::{
    derive_neighbor, generate_with_clues, minimize, synthesize_ipv4, NeighborConfig, PairStats,
    TrafficConfig,
};
use clue_trie::{Cost, CostStats, Ip4, Prefix};

fn main() {
    let sender = synthesize_ipv4(10_000, 81);
    let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(82));
    // Assign next hops: a handful of ports, correlated with the top
    // bits the way a real router's are (neighbors cluster by direction).
    let hops_of = |t: &[Prefix<Ip4>]| -> Vec<u32> {
        t.iter().map(|p| (p.bits().0 >> 26) % 6).collect()
    };
    let minimized: Vec<Prefix<Ip4>> = minimize(
        &receiver
            .iter()
            .copied()
            .zip(hops_of(&receiver))
            .collect::<Vec<_>>(),
    )
    .into_iter()
    .map(|(p, _)| p)
    .collect();

    println!("=== ORTC x clues ablation ===");
    println!(
        "receiver table: {} prefixes -> {} after ORTC ({:.1}% of original)\n",
        receiver.len(),
        minimized.len(),
        100.0 * minimized.len() as f64 / receiver.len() as f64
    );

    let (dests, clues) = generate_with_clues(
        &sender,
        &receiver,
        &TrafficConfig { count: 6_000, ..TrafficConfig::paper(83) },
    );

    println!(
        "{:<22} {:>10} {:>14} {:>10} {:>10} {:>10}",
        "receiver table", "prefixes", "problematic%", "common", "Simple", "Advance"
    );
    for (name, table) in [("original", &receiver), ("ORTC-minimized", &minimized)] {
        let stats = PairStats::compute(&sender, table);
        print!(
            "{:<22} {:>10} {:>13.2}%",
            name,
            table.len(),
            stats.problematic_fraction() * 100.0
        );
        for method in Method::all() {
            let mut engine =
                ClueEngine::precomputed(&sender, table, EngineConfig::new(Family::Patricia, method));
            let mut acc = CostStats::new();
            for (&dest, &clue) in dests.iter().zip(&clues) {
                let mut cost = Cost::new();
                engine.lookup(dest, clue, None, &mut cost);
                acc.record(cost);
            }
            print!(" {:>10.2}", acc.mean());
        }
        println!();
    }
    println!("\ncaveat: the minimized table is equivalent for *forwarding decisions*, so");
    println!("the returned BMPs legitimately differ in string (not in next hop). The");
    println!("comparison is about cost structure: fewer prefixes means shallower walks");
    println!("for the clue-less scheme and fewer problematic clues for Advance.");
}
