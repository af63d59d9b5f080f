//! Integration tests for `ClueEngine`: correctness of all fifteen method
//! combinations, cost headlines, learning, and the indexing technique.

use clue_core::{ClueEngine, ClueHeader, ClueIndexer, EngineConfig, Method};
use clue_lookup::{reference_bmp, Family};
use clue_trie::{Address, Cost, Ip4, Ip6, Prefix};

fn p(s: &str) -> Prefix<Ip4> {
    s.parse().unwrap()
}

fn a(s: &str) -> Ip4 {
    s.parse().unwrap()
}

/// A sender/receiver pair with all the interesting relations: shared
/// prefixes, receiver-only refinements (problematic), sender-only
/// refinements (Claim 1 coverage), disjoint branches.
fn tables() -> (Vec<Prefix<Ip4>>, Vec<Prefix<Ip4>>) {
    let sender = vec![
        p("10.0.0.0/8"),
        p("10.1.0.0/16"),
        p("10.3.0.0/16"),
        p("20.0.0.0/8"),
        p("30.0.0.0/8"),
        p("30.1.2.0/24"),
        p("40.40.0.0/16"),
    ];
    let receiver = vec![
        p("10.0.0.0/8"),
        p("10.1.0.0/16"),
        p("10.1.2.0/24"), // extends a shared /16: problematic for 10.1/16
        p("10.2.0.0/16"), // receiver-only branch under 10/8
        p("20.0.0.0/8"),
        p("30.0.0.0/8"), // sender refines 30/8 with /24 we lack: covered
        p("50.0.0.0/8"), // receiver-only tree
    ];
    (sender, receiver)
}

fn destinations() -> Vec<Ip4> {
    [
        "10.1.2.3",    // hits the receiver-only /24 refinement
        "10.1.200.1",  // stays at the shared /16
        "10.2.7.7",    // receiver-only /16
        "10.200.1.1",  // only the /8
        "10.3.3.3",    // sender /16 the receiver lacks (clue longer than BMP)
        "20.5.5.5",    // identical on both sides
        "30.1.2.9",    // sender's /24 clue, receiver vertex absent
        "30.7.7.7",    // shared /8
        "40.40.1.1",   // sender-only /16 (receiver vertex absent, no FD)
        "99.99.99.99", // matches nothing anywhere
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect()
}

/// Every (family × method) engine returns exactly the reference BMP when
/// fed honest clues — the paper's invariant that clues change only cost,
/// never the result.
#[test]
fn all_fifteen_combinations_agree_with_reference() {
    let (sender, receiver) = tables();
    for family in Family::all_extended() {
        for method in Method::all() {
            let mut engine = ClueEngine::precomputed(
                &sender,
                &receiver,
                EngineConfig::new(family, method),
            );
            for dest in destinations() {
                let clue = reference_bmp(&sender, dest).filter(|c| !c.is_empty());
                let mut cost = Cost::new();
                let got = engine.lookup(dest, clue, None, &mut cost);
                let want = reference_bmp(&receiver, dest);
                assert_eq!(got, want, "{family}/{method} dest {dest} clue {clue:?}");
                assert!(cost.total() >= 1, "{family}/{method}: free lookups do not exist");
            }
        }
    }
}

/// With identical neighbor tables and the Advance method every clue is
/// covered by Claim 1: each lookup is exactly the one clue-table access —
/// the paper's “near optimal number of memory accesses, 1”.
#[test]
fn advance_on_identical_tables_costs_exactly_one_access() {
    let (_, receiver) = tables();
    for family in Family::all_extended() {
        let mut engine = ClueEngine::precomputed(
            &receiver,
            &receiver,
            EngineConfig::new(family, Method::Advance),
        );
        for dest in destinations() {
            let Some(clue) = reference_bmp(&receiver, dest).filter(|c| !c.is_empty()) else {
                continue;
            };
            let mut cost = Cost::new();
            let got = engine.lookup(dest, Some(clue), None, &mut cost);
            assert_eq!(got, Some(clue), "{family}");
            assert_eq!(cost.total(), 1, "{family}: Claim 1 should finalise every clue");
        }
    }
}

/// The Simple method must also resolve correctly but may continue the
/// search where Advance already knows the answer.
#[test]
fn simple_pays_more_than_advance_but_less_than_common() {
    let (sender, receiver) = tables();
    let mut totals = Vec::new();
    for method in Method::all() {
        let mut engine = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, method),
        );
        let mut sum = 0u64;
        for dest in destinations() {
            let clue = reference_bmp(&sender, dest).filter(|c| !c.is_empty());
            let mut cost = Cost::new();
            engine.lookup(dest, clue, None, &mut cost);
            sum += cost.total();
        }
        totals.push(sum);
    }
    let (common, simple, advance) = (totals[0], totals[1], totals[2]);
    assert!(advance <= simple, "Advance {advance} should not exceed Simple {simple}");
    assert!(simple < common, "Simple {simple} should beat common {common}");
}

/// A clue the engine has never seen falls back to the common lookup; in
/// learning mode the second packet with the same clue is then cheap.
#[test]
fn learning_engine_improves_after_first_packet() {
    let (sender, receiver) = tables();
    let mut engine = ClueEngine::learning(
        &receiver,
        EngineConfig::new(Family::Patricia, Method::Advance),
    );
    let dest = a("20.5.5.5");
    let clue = reference_bmp(&sender, dest);
    let mut first = Cost::new();
    assert_eq!(engine.lookup(dest, clue, None, &mut first), Some(p("20.0.0.0/8")));
    let mut second = Cost::new();
    assert_eq!(engine.lookup(dest, clue, None, &mut second), Some(p("20.0.0.0/8")));
    assert!(second.total() < first.total(), "{} !< {}", second.total(), first.total());
    assert_eq!(second.total(), 1);
    assert_eq!(engine.table().len(), 1);
}

/// Learning with partial knowledge is conservative but correct, and
/// `reclassify_all` tightens entries as knowledge grows.
#[test]
fn learning_reclassification_tightens_entries() {
    let sender = vec![p("10.0.0.0/8"), p("10.1.0.0/16")];
    let receiver = vec![p("10.0.0.0/8"), p("10.1.0.0/16")];
    let mut engine =
        ClueEngine::learning(&receiver, EngineConfig::new(Family::Regular, Method::Advance));
    // First: learn 10/8 while knowing nothing about the sender. The
    // receiver's 10.1/16 makes it problematic under zero knowledge.
    let d8 = a("10.200.0.1");
    engine.lookup(d8, reference_bmp(&sender, d8), None, &mut Cost::new());
    assert!(engine.table().problematic_fraction() > 0.0);
    // Then learn 10.1/16; reclassifying now covers 10/8 by Claim 1.
    let d16 = a("10.1.9.9");
    engine.lookup(d16, reference_bmp(&sender, d16), None, &mut Cost::new());
    engine.reclassify_all();
    assert_eq!(engine.table().problematic_fraction(), 0.0);
    // And the next 10/8-clued packet is final in one access.
    let mut c = Cost::new();
    assert_eq!(engine.lookup(d8, reference_bmp(&sender, d8), None, &mut c), Some(p("10.0.0.0/8")));
    assert_eq!(c.total(), 1);
}

/// The indexing technique: sender stamps 16-bit indices, receiver reads
/// slots directly (no hash), stale slots self-heal by overwrite.
#[test]
fn indexing_technique_end_to_end() {
    let (sender, receiver) = tables();
    let mut engine = ClueEngine::learning(
        &receiver,
        EngineConfig::new(Family::Regular, Method::Advance).with_indexed_table(),
    );
    let mut indexer = ClueIndexer::new();
    // Two passes: first learns, second hits the indexed slots.
    for pass in 0..2 {
        for dest in destinations() {
            let Some(clue) = reference_bmp(&sender, dest).filter(|c| !c.is_empty()) else {
                continue;
            };
            let idx = indexer.index_of(&clue);
            let mut cost = Cost::new();
            let got = engine.lookup(dest, Some(clue), Some(idx), &mut cost);
            assert_eq!(got, reference_bmp(&receiver, dest), "pass {pass} dest {dest}");
            if pass == 1 {
                assert!(cost.indexed_reads >= 1);
                assert_eq!(cost.hash_probes, 0, "indexing eliminates the hash function");
            }
        }
    }
    assert!(engine.table().len() >= 5);
}

/// Headers carry the clue as 5 bits + destination; decoding must feed the
/// engine the identical prefix.
#[test]
fn header_roundtrip_matches_explicit_clue() {
    let (sender, receiver) = tables();
    let mut e1 =
        ClueEngine::precomputed(&sender, &receiver, EngineConfig::new(Family::LogW, Method::Advance));
    let mut e2 =
        ClueEngine::precomputed(&sender, &receiver, EngineConfig::new(Family::LogW, Method::Advance));
    for dest in destinations() {
        let clue = reference_bmp(&sender, dest).filter(|c| !c.is_empty());
        let header = match &clue {
            Some(c) => ClueHeader::with_clue(c),
            None => ClueHeader::none(),
        };
        let (mut c1, mut c2) = (Cost::new(), Cost::new());
        assert_eq!(
            e1.lookup(dest, clue, None, &mut c1),
            e2.lookup_with_header(dest, &header, &mut c2)
        );
        assert_eq!(c1.total(), c2.total());
    }
}

/// Vertex bits (Section 4) are a pure optimisation: same result, no more
/// accesses than the plain continuation walk.
#[test]
fn vertex_bits_preserve_results_and_never_cost_more() {
    let (sender, receiver) = tables();
    for family in [Family::Regular, Family::Patricia] {
        let mut with = EngineConfig::new(family, Method::Advance);
        with.vertex_bits = true;
        let mut without = with;
        without.vertex_bits = false;
        let mut e_with = ClueEngine::precomputed(&sender, &receiver, with);
        let mut e_without = ClueEngine::precomputed(&sender, &receiver, without);
        for dest in destinations() {
            let clue = reference_bmp(&sender, dest).filter(|c| !c.is_empty());
            let (mut cw, mut co) = (Cost::new(), Cost::new());
            let rw = e_with.lookup(dest, clue, None, &mut cw);
            let ro = e_without.lookup(dest, clue, None, &mut co);
            assert_eq!(rw, ro, "{family} dest {dest}");
            assert!(cw.total() <= co.total(), "{family} dest {dest}");
        }
    }
}

/// The Section 3.5 cache: hits replace slow probes with cache reads,
/// results never change, and repeated clues hit after the first miss.
#[test]
fn cache_serves_repeats_from_fast_memory() {
    let (sender, receiver) = tables();
    let mut engine = ClueEngine::precomputed(
        &sender,
        &receiver,
        EngineConfig::new(Family::Patricia, Method::Advance),
    );
    engine.enable_cache(8);
    let dest = a("20.5.5.5");
    let clue = Some(p("20.0.0.0/8"));

    let mut first = Cost::new();
    let r1 = engine.lookup(dest, clue, None, &mut first);
    // Miss: one cache probe + one slow probe.
    assert_eq!(first.cache_reads, 1);
    assert_eq!(first.slow_total(), 1);

    let mut second = Cost::new();
    let r2 = engine.lookup(dest, clue, None, &mut second);
    assert_eq!(r1, r2);
    // Hit: one cache read, zero slow accesses.
    assert_eq!(second.cache_reads, 1);
    assert_eq!(second.slow_total(), 0);

    let stats = engine.cache_stats().unwrap();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
}

/// Telemetry counts every resolution path correctly.
#[test]
fn engine_stats_track_resolution_paths() {
    let (sender, receiver) = tables();
    let mut engine = ClueEngine::precomputed(
        &sender,
        &receiver,
        EngineConfig::new(Family::Patricia, Method::Advance),
    );
    // Final: identical prefix, covered.
    engine.lookup(a("20.5.5.5"), Some(p("20.0.0.0/8")), None, &mut Cost::new());
    // Continued: the 10.1/16 clue has the receiver-only /24 refinement.
    engine.lookup(a("10.1.2.3"), Some(p("10.1.0.0/16")), None, &mut Cost::new());
    // Miss: a clue that is no sender prefix.
    engine.lookup(a("50.1.1.1"), Some(p("50.0.0.0/8")), None, &mut Cost::new());
    // Clue-less.
    engine.lookup(a("20.5.5.5"), None, None, &mut Cost::new());
    // Malformed.
    engine.lookup(a("20.5.5.5"), Some(p("10.0.0.0/8")), None, &mut Cost::new());

    let s = engine.stats();
    assert_eq!(s.finals, 1, "{s:?}");
    assert_eq!(s.continued, 1, "{s:?}");
    assert_eq!(s.misses, 1, "{s:?}");
    assert_eq!(s.clueless, 1, "{s:?}");
    assert_eq!(s.malformed, 1, "{s:?}");
    assert_eq!(s.total(), 5);
}

/// Randomised cross-check of the full 15-scheme matrix on a bigger pair
/// of synthetic tables.
#[test]
fn randomized_matrix_agreement() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xC1DE);
    // Sender: random prefixes; receiver: a mutation of the sender.
    let mut sender: Vec<Prefix<Ip4>> = (0..400)
        .map(|_| {
            let len = *[8u8, 12, 16, 16, 20, 24, 24, 24].get(rng.random_range(0..8usize)).unwrap();
            Prefix::new(Ip4(rng.random()), len)
        })
        .collect();
    sender.sort();
    sender.dedup();
    let mut receiver = sender.clone();
    for _ in 0..40 {
        let i = rng.random_range(0..receiver.len());
        receiver.remove(i);
    }
    for _ in 0..40 {
        let base = sender[rng.random_range(0..sender.len())];
        if base.len() <= 24 {
            let longer = Prefix::new(
                Ip4(base.bits().0 | (rng.random::<u32>() >> base.len())),
                base.len() + 4,
            );
            receiver.push(longer);
        }
    }
    receiver.sort();
    receiver.dedup();

    let dests: Vec<Ip4> = (0..200)
        .map(|_| {
            // Bias destinations into covered space half the time.
            if rng.random_bool(0.5) {
                let p = sender[rng.random_range(0..sender.len())];
                let noise = if p.len() == 32 { 0 } else { rng.random::<u32>() >> p.len() };
                Ip4(p.bits().0 | noise)
            } else {
                Ip4(rng.random())
            }
        })
        .collect();

    for family in Family::all_extended() {
        for method in [Method::Simple, Method::Advance] {
            let mut engine =
                ClueEngine::precomputed(&sender, &receiver, EngineConfig::new(family, method));
            for &dest in &dests {
                let clue = reference_bmp(&sender, dest).filter(|c| !c.is_empty());
                let mut cost = Cost::new();
                let got = engine.lookup(dest, clue, None, &mut cost);
                assert_eq!(got, reference_bmp(&receiver, dest), "{family}/{method} {dest}");
            }
        }
    }
}

/// The profiled scalar lookup must be a perfect mirror of the plain
/// one: same BMP, tick-for-tick the same cost, the same evolving
/// engine state (stats, cache residency) — across every family and
/// method, with honest clues, and with the Section 3.5 cache enabled —
/// at IPv4 and, with the same tables widened into the top of the
/// address, at IPv6.
#[test]
fn profiled_lookup_mirrors_plain_lookup() {
    let (sender, receiver) = tables();
    let dests = destinations();
    mirror_profiled(&sender, &receiver, &dests);

    let widen = |p: &Prefix<Ip4>| Prefix::new(Ip6(u128::from(p.bits().0) << 96), p.len());
    let sender: Vec<_> = sender.iter().map(widen).collect();
    let receiver: Vec<_> = receiver.iter().map(widen).collect();
    let dests: Vec<_> = dests.iter().map(|d| Ip6(u128::from(d.0) << 96)).collect();
    mirror_profiled(&sender, &receiver, &dests);
}

fn mirror_profiled<A: Address>(sender: &[Prefix<A>], receiver: &[Prefix<A>], dests: &[A]) {
    use clue_core::{Stage, StageMeter};
    for family in Family::all_extended() {
        for method in Method::all() {
            for with_cache in [false, true] {
                let config = EngineConfig::new(family, method);
                let mut plain = ClueEngine::precomputed(sender, receiver, config);
                let mut profiled = ClueEngine::precomputed(sender, receiver, config);
                if with_cache {
                    plain.enable_cache(4);
                    profiled.enable_cache(4);
                }
                let mut meter = StageMeter::default();
                let (mut lookups, mut ticks) = (0u64, 0u64);
                for &dest in dests {
                    for clue in [None, reference_bmp(sender, dest)] {
                        let mut pc = Cost::new();
                        let want = plain.lookup(dest, clue, None, &mut pc);
                        meter.cost = Cost::new();
                        let got = profiled.lookup(dest, clue, None, &mut meter);
                        let tag = format!("{family:?}/{method} cache={with_cache} {dest} {clue:?}");
                        assert_eq!(got, want, "{tag}");
                        assert_eq!(meter.cost, pc, "{tag} cost");
                        lookups += 1;
                        ticks += pc.total();
                    }
                }
                let prof = &meter.profiler;
                assert_eq!(plain.stats(), profiled.stats(), "{family:?}/{method} stats");
                assert_eq!(prof.lookups(), lookups);
                assert!(ticks > 0);
                assert_eq!(prof.total_ticks(), ticks, "every tick lands in one stage");
                if with_cache && method != Method::Common {
                    assert!(
                        prof.stage(Stage::Cache).visits > 0,
                        "{family:?}/{method}: cache stage must be exercised"
                    );
                }
            }
        }
    }
}
