//! Telemetry integration: an instrumented engine's registry counters
//! and its `EngineStats` must agree, for arbitrary lookup workloads.

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

/// The counter `name`, which must be registered: a misspelt name would
/// otherwise read a fresh zero.
fn registered_count(registry: &Registry, name: &str) -> u64 {
    assert!(registry.contains(name), "{name} registered");
    registry.counter(name, "").get()
}

/// `EngineStats` as the registry's per-class counters report them.
fn registry_stats(registry: &Registry) -> EngineStats {
    let count = |name: &str| registered_count(registry, name);
    EngineStats {
        clueless: count(CLASS_COUNTERS[0]),
        finals: count(CLASS_COUNTERS[1]),
        continued: count(CLASS_COUNTERS[2]),
        misses: count(CLASS_COUNTERS[3]),
        malformed: count(CLASS_COUNTERS[4]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite invariant: over any sequence of lookups, the registry's
    /// total counter equals the number of `lookup` calls, the per-class
    /// counters sum to it and reproduce `engine.stats()` class by class.
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

        let total = registered_count(&registry, "clue_core_lookups_total");
        prop_assert_eq!(total, calls);
        let class_sum: u64 = CLASS_COUNTERS.iter().map(|n| registered_count(&registry, n)).sum();
        prop_assert_eq!(class_sum, calls);
        let stats = engine.stats();
        prop_assert_eq!(stats.total(), calls);
        prop_assert_eq!(registry_stats(&registry), stats);
    }
}
