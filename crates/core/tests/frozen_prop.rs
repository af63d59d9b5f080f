//! Property tests for the frozen pipeline: over arbitrary table pairs
//! and workloads, [`FrozenEngine::lookup_batch`] must be
//! indistinguishable from the scalar [`ClueEngine`] path — same BMPs,
//! same per-packet [`Cost`] tick for tick, same class tallies, and the
//! same again under the profiling [`StageMeter`] — at both address
//! widths. The IPv6 runs widen the IPv4 shapes into the
//! top 32 bits and add `/64` and `/128` hosts, so walks also stop on
//! the `depth >= A::BITS` exit at 128 bits.

mod common;

use clue_core::{ClueEngine, CompiledBackend, EngineConfig, FrozenEngine, Method, StageMeter};
use clue_lookup::Family;
use clue_trie::{Address, Cost, Ip4, Prefix};
use common::{arb_tables, widen, workload, workload6};
use proptest::prelude::*;

/// Batched-frozen decisions equal the scalar engine's, cost included,
/// for every method.
fn check_batch_matches_scalar<A: Address>(
    sender: &[Prefix<A>],
    receiver: &[Prefix<A>],
    dests: &[A],
    clues: &[Option<Prefix<A>>],
) -> Result<(), TestCaseError> {
    for method in [Method::Common, Method::Simple, Method::Advance] {
        let mut scalar =
            ClueEngine::precomputed(sender, receiver, EngineConfig::new(Family::Regular, method));
        let frozen: FrozenEngine<A> = scalar.freeze().unwrap();
        let mut out = vec![Default::default(); dests.len()];
        let batch_stats = frozen.lookup_batch(dests, clues, &mut out);
        for ((&dest, &clue), d) in dests.iter().zip(clues).zip(&out) {
            let mut cost = Cost::new();
            let want = scalar.lookup(dest, clue, None, &mut cost);
            prop_assert_eq!(d.bmp, want, "{} dest {} clue {:?}", method, dest, clue);
            prop_assert_eq!(d.cost, cost, "{} dest {} clue {:?}", method, dest, clue);
            // The profiling meter runs the same kernel: same answer,
            // same ticks, and every tick lands in exactly one stage.
            let mut meter = StageMeter::default();
            let got = frozen.lookup(dest, clue, &mut meter);
            prop_assert_eq!(
                got, (d.bmp, d.class), "{} profiled dest {} clue {:?}", method, dest, clue);
            prop_assert_eq!(meter.cost, d.cost);
            prop_assert_eq!(meter.profiler.total_ticks(), d.cost.total());
        }
        // Same packets, same classes: the scalar engine's running
        // tallies must equal the batch's return.
        prop_assert_eq!(batch_stats, scalar.stats());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn frozen_batch_matches_scalar_engine(
        (sender, receiver) in arb_tables(),
        raws in proptest::collection::vec(any::<u32>(), 1..25),
    ) {
        let (dests, clues) = workload(&sender, &raws, Ip4);
        check_batch_matches_scalar(&sender, &receiver, &dests, &clues)?;
    }

    #[test]
    fn frozen_batch_matches_scalar_engine_ip6(
        (sender, receiver) in arb_tables(),
        hosts in proptest::collection::vec(any::<u64>(), 0..4),
        raws in proptest::collection::vec(any::<u32>(), 1..25),
    ) {
        let (sender, receiver, hosts) = widen(&sender, &receiver, &hosts);
        let (dests, clues) = workload6(&sender, &raws, &hosts);
        check_batch_matches_scalar(&sender, &receiver, &dests, &clues)?;
    }

    /// A frozen engine is a pure function: re-running any batch yields
    /// identical decisions (no hidden learning or cache state).
    #[test]
    fn frozen_lookups_are_stateless(
        (sender, receiver) in arb_tables(),
        raws in proptest::collection::vec(any::<u32>(), 1..20),
    ) {
        let (dests, clues) = workload(&sender, &raws, Ip4);
        let engine = ClueEngine::precomputed(
            &sender, &receiver, EngineConfig::new(Family::Regular, Method::Advance));
        let frozen = engine.freeze().unwrap();
        let mut first = vec![Default::default(); dests.len()];
        let s1 = frozen.lookup_batch(&dests, &clues, &mut first);
        let mut again = vec![Default::default(); dests.len()];
        let s2 = frozen.lookup_batch(&dests, &clues, &mut again);
        prop_assert_eq!(first, again);
        prop_assert_eq!(s1, s2);
    }
}
