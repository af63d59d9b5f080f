//! Property test for the batch kernel's prefetch window, shared by
//! every compiled backend: over arbitrary table pairs and workloads
//! (honest, missing and malformed clues alike), at both address widths,
//! `lookup_batch_interleaved` at any window returns exactly the
//! per-packet `lookup_decision` of every packet — BMP, class and
//! `Cost` — with the matching class tallies. Batches are empty, shorter
//! than the window and longer than it; windows cover prefetch off
//! (0, 1), odd, default, the cap (64) and clamped-large (200).

mod common;

use clue_core::{
    ClueEngine, CompiledBackend, CompressedEngine, Decision, EngineConfig, EngineStats,
    FrozenEngine, Method, StrideConfig, StrideEngine,
};
use clue_lookup::Family;
use clue_telemetry::LookupClass;
use clue_trie::{Address, Ip4, Prefix};
use common::{arb_tables, widen, workload, workload6};
use proptest::prelude::*;

const WINDOWS: [usize; 6] = [0, 1, 3, 8, 64, 200];

/// The class tallies a batch of `decisions` must report.
fn tally<A: Address>(decisions: &[Decision<A>]) -> EngineStats {
    let mut stats = EngineStats::default();
    for d in decisions {
        match d.class {
            LookupClass::Clueless => stats.clueless += 1,
            LookupClass::Final => stats.finals += 1,
            LookupClass::Continued => stats.continued += 1,
            LookupClass::Miss => stats.misses += 1,
            LookupClass::Malformed => stats.malformed += 1,
        }
    }
    stats
}

/// Backend `E` serves every prefix batch (empty, 5 packets, all of
/// them) at every window exactly as its one-packet lookup does.
fn check_windows<A: Address, E: CompiledBackend<A>>(
    sender: &[Prefix<A>],
    receiver: &[Prefix<A>],
    config: &E::Config,
    dests: &[A],
    clues: &[Option<Prefix<A>>],
) -> Result<(), TestCaseError> {
    let engine_config = EngineConfig::new(Family::Regular, Method::Advance);
    let engine = ClueEngine::precomputed(sender, receiver, engine_config);
    let backend = E::compile(&engine, config).unwrap();
    let want: Vec<Decision<A>> =
        dests.iter().zip(clues).map(|(&d, &c)| backend.lookup_decision(d, c)).collect();
    for len in [0, 5.min(dests.len()), dests.len()] {
        for window in WINDOWS {
            let mut out = vec![Decision::default(); len];
            let stats =
                backend.lookup_batch_interleaved(&dests[..len], &clues[..len], &mut out, window);
            prop_assert_eq!(&out[..], &want[..len], "{} window {} batch {}", E::NAME, window, len);
            prop_assert_eq!(stats, tally(&want[..len]), "{} window {} stats", E::NAME, window);
        }
    }
    Ok(())
}

/// Every backend at one address width.
fn check_all_backends<A: Address>(
    sender: &[Prefix<A>],
    receiver: &[Prefix<A>],
    dests: &[A],
    clues: &[Option<Prefix<A>>],
) -> Result<(), TestCaseError> {
    check_windows::<A, FrozenEngine<A>>(sender, receiver, &(), dests, clues)?;
    check_windows::<A, StrideEngine<A>>(sender, receiver, &StrideConfig::new(5, 3), dests, clues)?;
    check_windows::<A, CompressedEngine<A>>(sender, receiver, &Default::default(), dests, clues)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The prefetch window is semantically inert on every backend, at
    /// IPv4 and IPv6.
    #[test]
    fn batch_window_is_inert(
        (sender, receiver) in arb_tables(),
        hosts in proptest::collection::vec(any::<u64>(), 0..4),
        raws in proptest::collection::vec(any::<u32>(), 65..90),
    ) {
        let (dests, clues) = workload(&sender, &raws, Ip4);
        check_all_backends(&sender, &receiver, &dests, &clues)?;
        let (sender, receiver, hosts) = widen(&sender, &receiver, &hosts);
        let (dests, clues) = workload6(&sender, &raws, &hosts);
        check_all_backends(&sender, &receiver, &dests, &clues)?;
    }
}
