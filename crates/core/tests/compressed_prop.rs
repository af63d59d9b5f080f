//! Property tests for the entropy-compressed compiled backend: over
//! arbitrary table pairs and workloads (honest, missing and malformed
//! clues alike), [`CompressedEngine`] must be indistinguishable from
//! both the scalar [`ClueEngine`] and the [`FrozenEngine`] it was
//! compiled from — same BMPs, same [`LookupClass`], same per-packet
//! [`Cost`] tick for tick, under the profiling [`StageMeter`] too — at
//! every interleave group size. The table
//! strategy deliberately mixes in the structures the leaf-pushed
//! bitmap layout finds hardest: the default route, full-length /32
//! hosts, and aggregable sibling pairs; the IPv6 runs widen them and
//! add `/64` and `/128` hosts (see `common::widen`).

mod common;

use clue_core::{
    ClueEngine, CompiledBackend, CompressedConfig, CompressedEngine, EngineConfig, FrozenEngine,
    Method, StageMeter,
};
use clue_lookup::Family;
use clue_trie::{Address, Cost, Ip4, Prefix};
use common::{arb_prefix, widen, workload, workload6};
use proptest::prelude::*;

/// Tables seasoned with the bitmap layout's edge structures: sometimes
/// a default route (depth-0 route bit), sometimes /32 hosts (deepest
/// possible vertices), sometimes an aggregable sibling pair (both
/// children of one vertex routed — the classic leaf-push hazard).
fn arb_tables() -> impl Strategy<Value = (Vec<Prefix<Ip4>>, Vec<Prefix<Ip4>>)> {
    (
        proptest::collection::hash_set(arb_prefix(), 1..40),
        proptest::collection::hash_set(arb_prefix(), 1..40),
        proptest::collection::hash_set(arb_prefix(), 0..20),
        any::<bool>(),
        proptest::collection::vec(any::<u32>(), 0..3),
        (any::<u32>(), 0u8..31),
    )
        .prop_map(|(shared, s_only, r_only, default_route, hosts, (sib, sib_len))| {
            let mut sender: Vec<_> = shared.union(&s_only).copied().collect();
            let mut receiver: Vec<_> = shared.union(&r_only).copied().collect();
            if default_route {
                sender.push(Prefix::new(Ip4(0), 0));
                receiver.push(Prefix::new(Ip4(0), 0));
            }
            for h in hosts {
                receiver.push(Prefix::new(Ip4(h), 32));
            }
            // Sibling pair: p0 and p1 differ only in bit `sib_len`.
            let p0 = Prefix::new(Ip4(sib & !(1 << (31 - sib_len))), sib_len + 1);
            let p1 = Prefix::new(Ip4(sib | (1 << (31 - sib_len))), sib_len + 1);
            receiver.push(p0);
            receiver.push(p1);
            sender.push(p0);
            sender.dedup();
            receiver.dedup();
            (sender, receiver)
        })
}

/// Compressed decisions equal both the scalar engine's and the frozen
/// engine's — BMP, class and cost — for every method.
fn check_matches_scalar_and_frozen<A: Address>(
    sender: &[Prefix<A>],
    receiver: &[Prefix<A>],
    dests: &[A],
    clues: &[Option<Prefix<A>>],
) -> Result<(), TestCaseError> {
    for method in [Method::Common, Method::Simple, Method::Advance] {
        let mut scalar =
            ClueEngine::precomputed(sender, receiver, EngineConfig::new(Family::Regular, method));
        let frozen: FrozenEngine<A> = scalar.freeze().unwrap();
        let compressed: CompressedEngine<A> = frozen.compile_compressed(CompressedConfig);
        let mut out = vec![Default::default(); dests.len()];
        let stats = compressed.lookup_batch(dests, clues, &mut out);
        for ((&dest, &clue), d) in dests.iter().zip(clues).zip(&out) {
            let mut cost = Cost::new();
            let want = scalar.lookup(dest, clue, None, &mut cost);
            prop_assert_eq!(d.bmp, want, "{} dest {} clue {:?}", method, dest, clue);
            prop_assert_eq!(d.cost, cost, "{} dest {} clue {:?}", method, dest, clue);
            let f = frozen.lookup_decision(dest, clue);
            prop_assert_eq!(d, &f, "compressed != frozen for dest {} clue {:?}", dest, clue);
            // The profiling meter runs the same kernel: same answer,
            // same ticks, and every tick lands in exactly one stage.
            let mut meter = StageMeter::default();
            let got = compressed.lookup(dest, clue, &mut meter);
            prop_assert_eq!(
                got, (d.bmp, d.class), "{} profiled dest {} clue {:?}", method, dest, clue);
            prop_assert_eq!(meter.cost, d.cost);
            prop_assert_eq!(meter.profiler.total_ticks(), d.cost.total());
        }
        // Same packets, same classes: the scalar engine's running
        // tallies must equal the batch's return.
        prop_assert_eq!(stats, scalar.stats());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compressed_matches_scalar_and_frozen(
        (sender, receiver) in arb_tables(),
        raws in proptest::collection::vec(any::<u32>(), 1..25),
    ) {
        let (dests, clues) = workload(&sender, &raws, Ip4);
        check_matches_scalar_and_frozen(&sender, &receiver, &dests, &clues)?;
    }

    #[test]
    fn compressed_matches_scalar_and_frozen_ip6(
        (sender, receiver) in arb_tables(),
        hosts in proptest::collection::vec(any::<u64>(), 0..4),
        raws in proptest::collection::vec(any::<u32>(), 1..25),
    ) {
        let (sender, receiver, hosts) = widen(&sender, &receiver, &hosts);
        let (dests, clues) = workload6(&sender, &raws, &hosts);
        check_matches_scalar_and_frozen(&sender, &receiver, &dests, &clues)?;
    }

    /// The interleave group is semantically inert: every group size
    /// (prefetch off, default, clamped-large) yields bit-identical
    /// decisions and stats.
    #[test]
    fn interleave_group_is_inert(
        (sender, receiver) in arb_tables(),
        raws in proptest::collection::vec(any::<u32>(), 1..20),
        group in prop_oneof![Just(0usize), Just(1), Just(3), Just(8), Just(200)],
    ) {
        let (dests, clues) = workload(&sender, &raws, Ip4);
        let engine = ClueEngine::precomputed(
            &sender, &receiver, EngineConfig::new(Family::Regular, Method::Advance));
        let compressed = CompressedEngine::compile(&engine, &CompressedConfig).unwrap();
        let mut baseline = vec![Default::default(); dests.len()];
        let s1 = compressed.lookup_batch(&dests, &clues, &mut baseline);
        let mut out = vec![Default::default(); dests.len()];
        let s2 = compressed.lookup_batch_interleaved(&dests, &clues, &mut out, group);
        prop_assert_eq!(&baseline, &out, "group {} diverged", group);
        prop_assert_eq!(s1, s2);
    }

    /// The route-tag path resolves to the same prefix as the full
    /// lookup, and tags index the shared dictionary consistently with
    /// the frozen backend's tags.
    #[test]
    fn tags_agree_with_frozen(
        (sender, receiver) in arb_tables(),
        raws in proptest::collection::vec(any::<u32>(), 1..15),
    ) {
        let (dests, clues) = workload(&sender, &raws, Ip4);
        let engine = ClueEngine::precomputed(
            &sender, &receiver, EngineConfig::new(Family::Regular, Method::Advance));
        let frozen = engine.freeze().unwrap();
        let compressed = frozen.compile_compressed(CompressedConfig);
        prop_assert_eq!(compressed.tag_prefixes(), frozen.tag_prefixes());
        for (&dest, &clue) in dests.iter().zip(&clues) {
            let mut cost = Cost::new();
            let op = compressed.prepare(dest, clue);
            let (tag, class) = compressed.lookup_finish_tag(op, dest, clue, &mut cost);
            let mut fcost = Cost::new();
            let fop = frozen.prepare(dest, clue);
            let (ftag, fclass) = frozen.lookup_finish_tag(fop, dest, clue, &mut fcost);
            prop_assert_eq!(tag, ftag, "dest {} clue {:?}", dest, clue);
            prop_assert_eq!(class, fclass);
            prop_assert_eq!(cost, fcost);
        }
    }
}
