//! `generate_with_clues` properties: on random sender/receiver pairs, at
//! both address widths, it draws exactly the destinations `generate`
//! draws and stamps each with the clue the inline derivation gives —
//! the sender trie's BMP, dropped when it is the /0 prefix.

use clue_tablegen::{generate, generate_with_clues, TrafficConfig, TrafficModel};
use clue_trie::{Address, BinaryTrie, Ip4, Ip6, Prefix};
use proptest::prelude::*;

/// The clue every caller used to derive by hand.
fn inline_clues<A: Address>(sender: &[Prefix<A>], dests: &[A]) -> Vec<Option<Prefix<A>>> {
    let t1: BinaryTrie<A, ()> = sender.iter().map(|p| (*p, ())).collect();
    dests
        .iter()
        .map(|&d| t1.lookup(d).map(|r| t1.prefix(r)).filter(|c| !c.is_empty()))
        .collect()
}

/// Both generators on one pair, under every draw model.
fn check<A: Address>(
    sender: &[Prefix<A>],
    receiver: &[Prefix<A>],
    seed: u64,
) -> Result<(), TestCaseError> {
    for model in [
        TrafficModel::CoveredBySender,
        TrafficModel::ZipfCovered(1.05),
        TrafficModel::Uniform,
    ] {
        for filter in [true, false] {
            let config = TrafficConfig {
                count: 40,
                model,
                filter_vertex_at_receiver: filter,
                seed,
            };
            let (dests, clues) = generate_with_clues(sender, receiver, &config);
            prop_assert_eq!(&dests, &generate(sender, receiver, &config), "{:?}", config);
            prop_assert_eq!(clues, inline_clues(sender, &dests), "{:?}", config);
        }
    }
    Ok(())
}

/// A random table over the top bits of the address space, with the /0
/// route present when `default` is set.
fn table<A: Address>(raw: &[(u32, u8)], default: bool, widen: impl Fn(u32) -> A) -> Vec<Prefix<A>> {
    let mut out: Vec<Prefix<A>> = raw
        .iter()
        .map(|&(bits, len)| Prefix::new(widen(bits), len))
        .collect();
    if default {
        out.push(Prefix::new(widen(0), 0));
    }
    out.sort();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The helper's destinations and clues equal `generate` plus the
    /// inline derivation, at `Ip4` and `Ip6`, with and without a
    /// sender default route.
    #[test]
    fn helper_clues_equal_the_inline_derivation(
        sender in proptest::collection::vec((any::<u32>(), 1u8..=24), 1..40),
        extra in proptest::collection::vec((any::<u32>(), 1u8..=28), 0..20),
        default in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let receiver_raw: Vec<(u32, u8)> = sender.iter().chain(&extra).copied().collect();
        let v4 = |bits: u32| Ip4(bits);
        check(&table(&sender, default, v4), &table(&receiver_raw, false, v4), seed)?;
        let v6 = |bits: u32| Ip6(u128::from(bits) << 96);
        check(&table(&sender, default, v6), &table(&receiver_raw, false, v6), seed)?;
    }
}
