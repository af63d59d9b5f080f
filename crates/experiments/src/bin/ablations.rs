//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **vertex bits** (Section 4's per-vertex Claim 1 Booleans) — how
//!    much do they shave off the trie continuations?
//! 2. **line capacity** (how many candidates ride in the clue entry's
//!    cache line) — the binary/B-way continuation's free-scan knob;
//! 3. **table kind** — hashed vs the 16-bit indexing technique;
//! 4. **family extension** — the Stride multibit trie vs the paper's
//!    five, with and without clues.
//!
//! ```sh
//! cargo run --release -p clue-experiments --bin ablations
//! ```

use clue_core::{ClueEngine, ClueIndexer, EngineConfig, Method};
use clue_lookup::Family;
use clue_tablegen::{derive_neighbor, generate_with_clues, synthesize_ipv4, NeighborConfig, TrafficConfig};
use clue_trie::{Cost, CostStats};

fn main() {
    let sender = synthesize_ipv4(12_000, 71);
    // A pair with noticeably more refinements than the default, so the
    // continuation paths actually run.
    let receiver = derive_neighbor(
        &sender,
        &NeighborConfig { share: 0.97, refine: 0.05, extra: 0.02, refine_bits: 8, seed: 72 },
    );
    let (dests, clues) = generate_with_clues(
        &sender,
        &receiver,
        &TrafficConfig { count: 8_000, ..TrafficConfig::paper(73) },
    );

    let run = |config: EngineConfig, indexed: bool| -> f64 {
        let mut engine = ClueEngine::precomputed(&sender, &receiver, config);
        // The indexing technique with a *precomputed* table requires the
        // sender to enumerate its clue set in the same order the table
        // was built from (Section 5.3's "the most coordination that may
        // be required"); the learning variant needs no coordination.
        let mut indexer = ClueIndexer::new();
        if indexed {
            for p in &sender {
                indexer.index_of(p);
            }
        }
        let mut acc = CostStats::new();
        for (&dest, &clue) in dests.iter().zip(&clues) {
            let idx = match (indexed, clue) {
                (true, Some(c)) => Some(indexer.index_of(&c)),
                _ => None,
            };
            let mut cost = Cost::new();
            engine.lookup(dest, clue, idx, &mut cost);
            acc.record(cost);
        }
        acc.mean()
    };

    println!("=== ablations ({} prefixes, {} packets, refine-heavy pair) ===", sender.len(), dests.len());

    println!("\n1. Section 4 per-vertex Claim 1 Booleans (trie families, Advance):");
    println!("{:<10} {:>12} {:>12}", "family", "with bits", "without");
    for family in [Family::Regular, Family::Patricia] {
        let mut with = EngineConfig::new(family, Method::Advance);
        with.vertex_bits = true;
        let mut without = with;
        without.vertex_bits = false;
        println!(
            "{:<10} {:>12.3} {:>12.3}",
            family.label(),
            run(with, false),
            run(without, false)
        );
    }

    println!("\n2. cache-line candidate capacity (Binary family, Advance):");
    println!("{:>10} {:>14}", "capacity", "mean accesses");
    for cap in [0usize, 1, 3, 8, 32] {
        let mut cfg = EngineConfig::new(Family::Binary, Method::Advance);
        cfg.line_capacity = cap;
        println!("{:>10} {:>14.3}", cap, run(cfg, false));
    }

    println!("\n3. clue-table addressing (Patricia, Advance):");
    let hashed = EngineConfig::new(Family::Patricia, Method::Advance);
    println!("{:<28} {:>10.3}", "hashed (5 header bits)", run(hashed, false));
    let mut indexed = hashed;
    indexed.table_kind = clue_core::TableKind::Indexed;
    println!("{:<28} {:>10.3}", "indexed (21 header bits)", run(indexed, true));

    println!("\n4. extension family: Stride (multibit 16-8-8) vs the paper's five:");
    println!("{:<10} {:>10} {:>10} {:>10}", "family", "common", "Simple", "Advance");
    for family in Family::all_extended() {
        print!("{:<10}", family.label());
        for method in Method::all() {
            print!(" {:>10.2}", run(EngineConfig::new(family, method), false));
        }
        println!();
    }
    println!("\nStride starts near 3 accesses even clue-less; the clue still buys the");
    println!("last factor — every family converges to ≈1 under Advance.");
}
