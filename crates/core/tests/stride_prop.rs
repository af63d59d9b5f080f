//! Property tests for the stride-compiled fast path: over arbitrary
//! table pairs, stride shapes and workloads (honest, missing and
//! malformed clues alike), [`StrideEngine`] must be indistinguishable
//! from both the scalar [`ClueEngine`] and the [`FrozenEngine`] it was
//! compiled from — same BMPs, same [`LookupClass`], same per-packet
//! [`Cost`] tick for tick, under the profiling [`StageMeter`] too — at
//! every interleave group size and at both address widths (IPv6 runs
//! add `/64` and `/128` hosts; see `common::widen`).

mod common;

use clue_core::{
    ClueEngine, CompiledBackend, EngineConfig, FrozenEngine, Method, StageMeter, StrideConfig,
    StrideEngine,
};
use clue_lookup::Family;
use clue_trie::{Address, Cost, Ip4, Prefix};
use common::{arb_tables, widen, workload, workload6};
use proptest::prelude::*;

/// Random but structurally valid stride shapes, including degenerate
/// ones (1-bit root, tiny inner chunks, chunks that do not divide the
/// remaining width evenly). `max_inner` bounds the inner width: a
/// `/128` host below the root costs one `2^inner`-slot node per chunk
/// of its 100-odd remaining bits, so IPv6 runs cap it at 8.
fn arb_stride(max_inner: u8) -> impl Strategy<Value = StrideConfig> {
    (1u8..=20, 1u8..=max_inner).prop_map(|(initial, inner)| StrideConfig::new(initial, inner))
}

/// Stride decisions equal both the scalar engine's and the frozen
/// engine's — BMP, class and cost — for every method.
fn check_matches_scalar_and_frozen<A: Address>(
    sender: &[Prefix<A>],
    receiver: &[Prefix<A>],
    config: StrideConfig,
    dests: &[A],
    clues: &[Option<Prefix<A>>],
) -> Result<(), TestCaseError> {
    for method in [Method::Common, Method::Simple, Method::Advance] {
        let mut scalar =
            ClueEngine::precomputed(sender, receiver, EngineConfig::new(Family::Regular, method));
        let frozen: FrozenEngine<A> = scalar.freeze().unwrap();
        let stride: StrideEngine<A> = frozen.compile_stride(config).unwrap();
        let mut out = vec![Default::default(); dests.len()];
        let stats = stride.lookup_batch(dests, clues, &mut out);
        for ((&dest, &clue), d) in dests.iter().zip(clues).zip(&out) {
            let mut cost = Cost::new();
            let want = scalar.lookup(dest, clue, None, &mut cost);
            prop_assert_eq!(d.bmp, want, "{} {:?} dest {} clue {:?}", method, config, dest, clue);
            prop_assert_eq!(d.cost, cost, "{} {:?} dest {} clue {:?}", method, config, dest, clue);
            let f = frozen.lookup_decision(dest, clue);
            prop_assert_eq!(d, &f, "stride != frozen for dest {} clue {:?}", dest, clue);
            // The profiling meter runs the same kernel: same answer,
            // same ticks, and every tick lands in exactly one stage.
            let mut meter = StageMeter::default();
            let got = stride.lookup(dest, clue, &mut meter);
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
    fn stride_matches_scalar_and_frozen(
        (sender, receiver) in arb_tables(),
        config in arb_stride(16),
        raws in proptest::collection::vec(any::<u32>(), 1..25),
    ) {
        let (dests, clues) = workload(&sender, &raws, Ip4);
        check_matches_scalar_and_frozen(&sender, &receiver, config, &dests, &clues)?;
    }

    #[test]
    fn stride_matches_scalar_and_frozen_ip6(
        (sender, receiver) in arb_tables(),
        hosts in proptest::collection::vec(any::<u64>(), 0..4),
        config in arb_stride(8),
        raws in proptest::collection::vec(any::<u32>(), 1..25),
    ) {
        let (sender, receiver, hosts) = widen(&sender, &receiver, &hosts);
        let (dests, clues) = workload6(&sender, &raws, &hosts);
        check_matches_scalar_and_frozen(&sender, &receiver, config, &dests, &clues)?;
    }

    /// The interleave group is semantically inert: every group size
    /// (prefetch off, default, clamped-large) yields bit-identical
    /// decisions and stats.
    #[test]
    fn interleave_group_is_inert(
        (sender, receiver) in arb_tables(),
        config in arb_stride(16),
        raws in proptest::collection::vec(any::<u32>(), 1..20),
        group in prop_oneof![Just(0usize), Just(1), Just(3), Just(8), Just(200)],
    ) {
        let (dests, clues) = workload(&sender, &raws, Ip4);
        let engine = ClueEngine::precomputed(
            &sender, &receiver, EngineConfig::new(Family::Regular, Method::Advance));
        let frozen = engine.freeze().unwrap();
        let stride = frozen.compile_stride(config).unwrap();
        let mut baseline = vec![Default::default(); dests.len()];
        let s1 = stride.lookup_batch(&dests, &clues, &mut baseline);
        let mut out = vec![Default::default(); dests.len()];
        let s2 = stride.lookup_batch_interleaved(&dests, &clues, &mut out, group);
        prop_assert_eq!(&baseline, &out, "group {} diverged", group);
        prop_assert_eq!(s1, s2);
    }
}
