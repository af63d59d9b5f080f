//! Telemetry integration: an instrumented engine's registry counters,
//! its `EngineStats`, and the `from_telemetry` view must all agree, for
//! arbitrary lookup workloads.

use clue_core::{ClueEngine, EngineConfig, EngineStats, Method};
use clue_lookup::{reference_bmp, Family};
use clue_telemetry::Registry;
use clue_trie::{Cost, Ip4, Prefix};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Prefix<Ip4>> {
    (0u32..64, prop_oneof![Just(6u8), Just(8), Just(12), Just(16), Just(24)])
        .prop_map(|(bits, len)| Prefix::new(Ip4(bits << 26 | bits << 10), len))
}

/// The class-counter names `ClueEngine::instrument` registers.
const CLASS_COUNTERS: [&str; 5] = [
    "clue_core_lookups_clueless_total",
    "clue_core_lookups_final_total",
    "clue_core_lookups_continued_total",
    "clue_core_lookups_miss_total",
    "clue_core_lookups_malformed_total",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite invariant: over any sequence of lookups, the registry's
    /// total counter equals the number of `lookup` calls, the per-class
    /// counters sum to it, and the `from_telemetry` view reproduces
    /// `engine.stats()` exactly.
    #[test]
    fn counter_sums_equal_lookup_calls(
        sender in proptest::collection::hash_set(arb_prefix(), 1..20),
        receiver in proptest::collection::hash_set(arb_prefix(), 1..20),
        raws in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        let sender: Vec<Prefix<Ip4>> = sender.into_iter().collect();
        let receiver: Vec<Prefix<Ip4>> = receiver.into_iter().collect();
        let registry = Registry::new();
        let mut engine = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        engine.instrument(&registry);

        let mut calls = 0u64;
        for (k, &raw) in raws.iter().enumerate() {
            let dest = Ip4(raw);
            // Mix the three clue shapes: absent, genuine, malformed
            // (the complement differs in the first bit, so it is never
            // a prefix of `dest`).
            let clue = match k % 3 {
                0 => None,
                1 => reference_bmp(&sender, dest).filter(|c| !c.is_empty()),
                _ => Some(Prefix::new(Ip4(!raw), 8)),
            };
            let mut cost = Cost::new();
            engine.lookup(dest, clue, None, &mut cost);
            calls += 1;
        }

        let total = registry.counter("clue_core_lookups_total", "").get();
        prop_assert_eq!(total, calls);
        let class_sum: u64 =
            CLASS_COUNTERS.iter().map(|n| registry.counter(n, "").get()).sum();
        prop_assert_eq!(class_sum, calls);
        let stats = engine.stats();
        prop_assert_eq!(stats.total(), calls);
        let t = engine.telemetry().expect("instrumented");
        prop_assert_eq!(EngineStats::from_telemetry(t), stats);
    }
}

#[test]
fn every_lookup_is_counted_and_reset_clears_both_views() {
    let sender: Vec<Prefix<Ip4>> = ["10.0.0.0/8", "10.1.0.0/16", "20.0.0.0/8"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let registry = Registry::new();
    let mut engine = ClueEngine::precomputed(
        &sender,
        &sender,
        EngineConfig::new(Family::Regular, Method::Advance),
    );
    engine.instrument(&registry);

    let dests = ["10.1.2.3", "10.200.0.1", "20.0.0.7", "99.0.0.1"];
    for d in dests {
        let dest: Ip4 = d.parse().unwrap();
        let clue = reference_bmp(&sender, dest).filter(|c| !c.is_empty());
        let mut cost = Cost::new();
        engine.lookup(dest, clue, None, &mut cost);
    }
    let total = registry.counter("clue_core_lookups_total", "");
    assert_eq!(total.get(), dests.len() as u64);
    assert_eq!(engine.stats().total(), dests.len() as u64);

    engine.reset_stats();
    assert_eq!(engine.stats(), EngineStats::default());
    let t = engine.telemetry().expect("still attached");
    assert_eq!(EngineStats::from_telemetry(t), EngineStats::default());
    assert_eq!(total.get(), 0);
}
