//! Property tests for [`CompiledBackend::compile_link`]: a link engine
//! compiled over its router's engine must serve exactly what a
//! standalone [`CompiledBackend::compile`] of the same clue engine
//! serves — same BMP, [`LookupClass`], [`Cost`] and tag for every
//! (destination, clue) pair — on every backend (stride at its four
//! tested shapes), for every [`Method`] of the link and of the router,
//! at both address widths. A link engine over another receiver table
//! must be refused, never served from the router's arena. The scalar
//! link engine a router builds over its own trie
//! ([`ClueEngine::precomputed_over`]) freezes bit-identical to one
//! built from the receiver's prefixes.

mod common;

use clue_core::{
    BackendError, ClueEngine, CompiledBackend, CompressedConfig, CompressedEngine, EngineConfig,
    FrozenEngine, Method, StrideConfig, StrideEngine,
};
use clue_lookup::Family;
use clue_telemetry::LookupClass;
use clue_trie::{Address, Cost, Ip4, Prefix};
use common::{arb_tables, widen, workload, workload6};
use proptest::prelude::*;

fn engine<A: Address>(
    clues: &[Prefix<A>],
    receiver: &[Prefix<A>],
    method: Method,
) -> ClueEngine<A> {
    ClueEngine::precomputed(clues, receiver, EngineConfig::new(Family::Regular, method))
}

/// `compile_link` over a router engine (clue-less, or of the link's
/// own method) equals `compile` of the link, lookup for lookup and tag
/// for tag, and shares the router's arena; a link over `other`, a
/// different receiver table, is refused.
fn check_backend<A: Address, E: CompiledBackend<A>>(
    config: &E::Config,
    sender: &[Prefix<A>],
    receiver: &[Prefix<A>],
    other: &[Prefix<A>],
    dests: &[A],
    clues: &[Option<Prefix<A>>],
) -> Result<(), TestCaseError> {
    for method in Method::all() {
        let link = engine(sender, receiver, method);
        let alone = E::compile(&link, config).unwrap();
        for router_method in [Method::Common, method] {
            let router = E::compile(&engine(&[], receiver, router_method), config).unwrap();
            let shared = E::compile_link(&router, &link).unwrap();
            prop_assert!(shared.shares_arena(&router), "{} {}", E::NAME, method);
            prop_assert_eq!(shared.tag_prefixes(), alone.tag_prefixes());
            for (&dest, &clue) in dests.iter().zip(clues) {
                let at = format!("{} {method} over {router_method}: {dest} {clue:?}", E::NAME);
                prop_assert_eq!(
                    shared.lookup_decision(dest, clue),
                    alone.lookup_decision(dest, clue),
                    "{}",
                    at
                );
                let tag = |e: &E| {
                    e.lookup_finish_tag(e.prepare(dest, clue), dest, clue, &mut Cost::new())
                        .0
                };
                prop_assert_eq!(tag(&shared), tag(&alone), "{}", at);
            }
            prop_assert_eq!(
                E::compile_link(&router, &engine(sender, other, method)).unwrap_err(),
                BackendError::LinkMismatch,
                "{} {}: a link over another table",
                E::NAME,
                method
            );
        }
    }
    Ok(())
}

fn check_all<A: Address>(
    sender: &[Prefix<A>],
    receiver: &[Prefix<A>],
    extra: Prefix<A>,
    dests: &[A],
    clues: &[Option<Prefix<A>>],
) -> Result<(), TestCaseError> {
    for method in Method::all() {
        let link = engine(sender, receiver, method).freeze().unwrap();
        for router_method in [Method::Common, method] {
            let router = engine(&[], receiver, router_method);
            let config = EngineConfig::new(Family::Regular, method);
            let over = ClueEngine::precomputed_over(&router, sender, config);
            prop_assert!(over.freeze().unwrap().bit_identical(&link), "{method}");
        }
    }
    let mut other = receiver.to_vec();
    other.push(extra);
    check_backend::<A, FrozenEngine<A>>(&(), sender, receiver, &other, dests, clues)?;
    check_backend::<A, CompressedEngine<A>>(
        &CompressedConfig,
        sender,
        receiver,
        &other,
        dests,
        clues,
    )?;
    for config in [
        StrideConfig::default(),
        StrideConfig::new(8, 8),
        StrideConfig::new(16, 8),
        StrideConfig::new(5, 3),
    ] {
        check_backend::<A, StrideEngine<A>>(&config, sender, receiver, &other, dests, clues)?;
    }
    Ok(())
}

/// The link's own Claim-1 bits cut a continued walk that the router's
/// bits would let run on. Clue 10.0.0.0/8 is problematic (10.200/16 is
/// not the sender's), but below 10.0.0.0/9 the receiver holds only the
/// sender's 10.1.2.0/24, so the walk toward 10.1.9.9 stops there after
/// two vertices; a clue-less router's bits are all set and would
/// descend along 10.1.2.0/24's path to bit 20.
#[test]
fn link_engines_keep_their_own_claim1_bits() {
    fn check<E: CompiledBackend<Ip4>>(config: &E::Config) {
        let p = |s: &str| s.parse::<Prefix<Ip4>>().unwrap();
        let sender = [p("10.0.0.0/8"), p("10.1.2.0/24")];
        let receiver = [p("10.0.0.0/8"), p("10.1.2.0/24"), p("10.200.0.0/16")];
        let (dest, clue) = ("10.1.9.9".parse().unwrap(), Some(p("10.0.0.0/8")));
        let router = E::compile(&engine(&[], &receiver, Method::Common), config).unwrap();
        let link = engine(&sender, &receiver, Method::Advance);
        let d = E::compile_link(&router, &link)
            .unwrap()
            .lookup_decision(dest, clue);
        assert_eq!(
            d,
            E::compile(&link, config)
                .unwrap()
                .lookup_decision(dest, clue),
            "{}",
            E::NAME
        );
        assert_eq!(
            (d.class, d.cost.trie_nodes),
            (LookupClass::Continued, 2),
            "{}",
            E::NAME
        );
    }
    check::<FrozenEngine<Ip4>>(&());
    check::<CompressedEngine<Ip4>>(&CompressedConfig);
    check::<StrideEngine<Ip4>>(&StrideConfig::default());
}

/// A /30 the table strategies never draw (they stop at /24, and the
/// IPv6 widening adds only /64 and /128 hosts).
fn extra_v4() -> Prefix<Ip4> {
    "10.20.30.40/30".parse().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn link_engines_serve_what_standalone_engines_serve(
        (sender, receiver) in arb_tables(),
        raws in proptest::collection::vec(any::<u32>(), 1..25),
    ) {
        let (dests, clues) = workload(&sender, &raws, Ip4);
        check_all(&sender, &receiver, extra_v4(), &dests, &clues)?;
    }

    #[test]
    fn link_engines_serve_what_standalone_engines_serve_ip6(
        (sender, receiver) in arb_tables(),
        hosts in proptest::collection::vec(any::<u64>(), 0..4),
        raws in proptest::collection::vec(any::<u32>(), 1..25),
    ) {
        let (sender, receiver, hosts) = widen(&sender, &receiver, &hosts);
        let (dests, clues) = workload6(&sender, &raws, &hosts);
        let extra = Prefix::new(common::ip6(extra_v4().bits().0), 30);
        check_all(&sender, &receiver, extra, &dests, &clues)?;
    }
}
