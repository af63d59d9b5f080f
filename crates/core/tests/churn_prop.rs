//! Churn identity property: announcing a receiver route and then
//! withdrawing it must leave the engine indistinguishable from one that
//! never saw the prefix — same lookup answers, same per-lookup costs
//! (a proxy for the Claim-1 classifications driving early exits), same
//! clue-table classifications, and a bit-identical frozen snapshot.
//!
//! This is the single-update core of the live-churn serving contract:
//! `clue churn --check` relies on a whole update stream composing out
//! of such identities. The sequence property at the end checks the
//! composition directly: after every step of a random update stream the
//! incrementally updated engine equals a from-scratch precompute of the
//! same state, at both address widths, and every freeze between
//! multi-update batches (which patches the engine's previous snapshot)
//! is bit-identical to a from-scratch freeze.

use std::collections::BTreeSet;

use clue_core::{ClueEngine, EngineConfig, FrozenEngine, Method};
use clue_lookup::{reference_bmp, Family};
use clue_trie::{Address, Cost, Ip4, Ip6, Prefix};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Prefix<Ip4>> {
    (0u32..256, prop_oneof![Just(6u8), Just(8), Just(12), Just(16), Just(20), Just(24)])
        .prop_map(|(bits, len)| Prefix::new(Ip4(bits << 24 | bits << 16 | bits << 4), len))
}

fn arb_tables() -> impl Strategy<Value = (Vec<Prefix<Ip4>>, Vec<Prefix<Ip4>>)> {
    (
        proptest::collection::hash_set(arb_prefix(), 1..40),
        proptest::collection::hash_set(arb_prefix(), 1..40),
        proptest::collection::hash_set(arb_prefix(), 0..20),
    )
        .prop_map(|(shared, s_only, r_only)| {
            let sender: Vec<_> = shared.union(&s_only).copied().collect();
            let receiver: Vec<_> = shared.union(&r_only).copied().collect();
            (sender, receiver)
        })
}

/// Destinations biased into sender space, each with its honest clue.
fn workload(sender: &[Prefix<Ip4>], raws: &[u32]) -> Vec<(Ip4, Option<Prefix<Ip4>>)> {
    raws.iter()
        .enumerate()
        .map(|(i, &r)| {
            let dest = if i % 2 == 0 {
                let p = sender[i % sender.len()];
                let noise = if p.len() == 32 { 0 } else { r >> p.len() };
                Ip4(p.bits().0 | noise)
            } else {
                Ip4(r)
            };
            (dest, reference_bmp(sender, dest).filter(|c| !c.is_empty()))
        })
        .collect()
}

/// The observable classification of one clue-table entry: which prefix,
/// what final decision, and whether Claim 1 let it stop the search.
fn classifications<A: Address>(
    engine: &ClueEngine<A>,
) -> Vec<(Prefix<A>, Option<Prefix<A>>, bool)> {
    let mut out: Vec<_> =
        engine.table().entries().map(|e| (e.clue, e.fd, e.is_final())).collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `add_receiver_route(p)` followed by `remove_receiver_route(p)`
    /// is the identity on everything observable.
    #[test]
    fn announce_then_withdraw_is_identity(
        (sender, receiver) in arb_tables(),
        extra in arb_prefix(),
        raws in proptest::collection::vec(any::<u32>(), 1..20),
    ) {
        prop_assume!(!receiver.contains(&extra));
        let packets = workload(&sender, &raws);

        for family in [Family::Regular, Family::Patricia, Family::LogW] {
            let config = EngineConfig::new(family, Method::Advance);
            let mut pristine = ClueEngine::precomputed(&sender, &receiver, config);
            let mut churned = ClueEngine::precomputed(&sender, &receiver, config);
            churned.add_receiver_route(extra);
            prop_assert!(churned.remove_receiver_route(&extra), "{family}: remove failed");

            prop_assert_eq!(
                classifications(&pristine),
                classifications(&churned),
                "{}: clue-table classifications diverged",
                family
            );
            for &(dest, clue) in &packets {
                let mut c_p = Cost::new();
                let mut c_c = Cost::new();
                let want = pristine.lookup(dest, clue, None, &mut c_p);
                let got = churned.lookup(dest, clue, None, &mut c_c);
                prop_assert_eq!(got, want, "{} dest {} clue {:?}", family, dest, clue);
                prop_assert_eq!(c_c, c_p, "{} dest {} clue {:?}", family, dest, clue);
            }
            if family == Family::Regular {
                let a = pristine.freeze().unwrap();
                let b = churned.freeze().unwrap();
                prop_assert!(a.bit_identical(&b), "churned snapshot differs bit-for-bit");
            }
        }
    }

    /// The same identity holds when the withdrawn prefix was part of the
    /// original table (withdraw first, re-announce after).
    #[test]
    fn withdraw_then_reannounce_is_identity(
        (sender, receiver) in arb_tables(),
        pick in any::<u32>(),
        raws in proptest::collection::vec(any::<u32>(), 1..15),
    ) {
        let victim = receiver[pick as usize % receiver.len()];
        let packets = workload(&sender, &raws);
        let config = EngineConfig::new(Family::Regular, Method::Advance);
        let pristine = ClueEngine::precomputed(&sender, &receiver, config);
        let mut churned = ClueEngine::precomputed(&sender, &receiver, config);
        prop_assert!(churned.remove_receiver_route(&victim));
        churned.add_receiver_route(victim);

        prop_assert_eq!(classifications(&pristine), classifications(&churned));
        for &(dest, clue) in &packets {
            let mut c = Cost::new();
            let got = churned.lookup(dest, clue, None, &mut c);
            prop_assert_eq!(got, reference_bmp(&receiver, dest), "dest {} clue {:?}", dest, clue);
        }
        prop_assert!(pristine.freeze().unwrap().bit_identical(&churned.freeze().unwrap()));
    }

    /// A random stream of receiver announces, withdraws, modifies,
    /// announce-withdraw flaps and re-announces (so pruned arena slots
    /// are recycled), interleaved with sender announces, leaves the
    /// engine equal to a from-scratch precompute after every step: same
    /// clue-table classifications, same lookup answers and costs. The
    /// freezes cut the stream into batches (empty ones included), and
    /// each is bit-identical to a from-scratch freeze.
    #[test]
    fn update_sequences_match_precomputed_ip4(
        (sender, receiver) in arb_tables(),
        ops in proptest::collection::vec(arb_op(), 1..40),
        raws in proptest::collection::vec(any::<u32>(), 1..12),
    ) {
        check_sequence(&sender, &receiver, &ops, &raws, Ip4)?;
    }

    /// As [`update_sequences_match_precomputed_ip4`], at IPv6 width: the
    /// same prefix shapes in the top 32 bits, with lengths beyond 32.
    #[test]
    fn update_sequences_match_precomputed_ip6(
        (sender, receiver) in arb_tables(),
        ops in proptest::collection::vec(arb_op(), 1..40),
        raws in proptest::collection::vec(any::<u32>(), 1..12),
    ) {
        let widen = |p: &Prefix<Ip4>| Prefix::new(Ip6(u128::from(p.bits().0) << 96), p.len());
        let sender: Vec<_> = sender.iter().map(widen).collect();
        let receiver: Vec<_> = receiver.iter().map(widen).collect();
        check_sequence(&sender, &receiver, &ops, &raws, |v| Ip6(u128::from(v) << 96))?;
    }
}

/// A fixed stream that takes every freeze path at both widths: two
/// freezes with nothing between, a multi-update batch, a flap, a
/// dropped snapshot (the next freeze has no base to patch), and a
/// sender announce (which the patch cannot follow).
#[test]
fn batched_freezes_cover_every_patch_path() {
    use Op::*;
    let ops = [
        Freeze,
        Freeze,
        Announce(3, 5),
        Withdraw(1),
        Modify(2),
        Freeze,
        Flap(5, 3),
        Freeze,
        Announce(9, 7),
        Announce(9, 8),
        FreezeAndDrop,
        Modify(0),
        Freeze,
        SenderAnnounce(9, 6),
        Announce(12, 4),
        Freeze,
        Reannounce,
        Flap(3, 5),
        Freeze,
    ];
    let shapes = |ids: &[(u32, usize)]| -> Vec<Prefix<Ip4>> {
        ids.iter().map(|&(s, l)| shaped(s, l, Ip4)).collect()
    };
    let sender = shapes(&[(1, 1), (3, 3), (5, 2), (9, 4), (12, 1), (7, 6)]);
    let receiver = shapes(&[(1, 1), (1, 4), (3, 3), (3, 6), (9, 2), (9, 7), (12, 3)]);
    check_sequence(&sender, &receiver, &ops, &[7, 1 << 30, 99], Ip4).unwrap();
    let widen = |p: &Prefix<Ip4>| Prefix::new(Ip6(u128::from(p.bits().0) << 96), p.len());
    let sender: Vec<_> = sender.iter().map(widen).collect();
    let receiver: Vec<_> = receiver.iter().map(widen).collect();
    check_sequence(&sender, &receiver, &ops, &[7, 1 << 30, 99], |v| Ip6(u128::from(v) << 96))
        .unwrap();
}

/// One step of an update stream. Prefixes are drawn as `(shape, length
/// index)` so both widths share one strategy; picks select among the
/// receiver's current routes.
#[derive(Debug, Clone, Copy)]
enum Op {
    Announce(u32, usize),
    Withdraw(u32),
    Modify(u32),
    /// Announce a route and withdraw it again.
    Flap(u32, usize),
    /// Re-announce the most recently withdrawn route, if any.
    Reannounce,
    SenderAnnounce(u32, usize),
    /// End the batch: freeze, and keep the snapshot as the churn
    /// driver's epoch cell does.
    Freeze,
    /// End the batch: freeze, and drop the snapshot as the churn
    /// driver's watchdog does with an over-budget one.
    FreezeAndDrop,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..32, 0usize..9).prop_map(|(s, l)| Op::Announce(s, l)),
        any::<u32>().prop_map(Op::Withdraw),
        any::<u32>().prop_map(Op::Modify),
        (0u32..32, 0usize..9).prop_map(|(s, l)| Op::Flap(s, l)),
        Just(Op::Reannounce),
        (0u32..32, 0usize..9).prop_map(|(s, l)| Op::SenderAnnounce(s, l)),
        Just(Op::Freeze),
        Just(Op::Freeze),
        Just(Op::FreezeAndDrop),
    ]
}

/// Nested shapes: the shape's bits repeat at three offsets, so short
/// and long prefixes of different shapes share ancestors.
fn shaped<A: Address>(shape: u32, len_index: usize, addr: fn(u32) -> A) -> Prefix<A> {
    let lens = [6u8, 8, 12, 16, 20, 24, 28, 32, 48];
    let len = lens[len_index % lens.len()].min(A::BITS);
    Prefix::new(addr(shape << 27 | shape << 16 | shape << 4), len)
}

fn check_sequence<A: Address>(
    sender: &[Prefix<A>],
    receiver: &[Prefix<A>],
    ops: &[Op],
    raws: &[u32],
    addr: fn(u32) -> A,
) -> Result<(), TestCaseError> {
    let families = [Family::Regular, Family::Patricia, Family::Binary, Family::LogW];
    let mut sender_now: BTreeSet<Prefix<A>> = sender.iter().copied().collect();
    let mut receiver_now: BTreeSet<Prefix<A>> = receiver.iter().copied().collect();
    let mut engines: Vec<ClueEngine<A>> = families
        .iter()
        .map(|&f| ClueEngine::precomputed(sender, receiver, EngineConfig::new(f, Method::Advance)))
        .collect();
    let mut withdrawn: Vec<Prefix<A>> = Vec::new();
    // The Regular engine's last kept snapshot: what its next freeze
    // patches.
    let mut kept: Option<FrozenEngine<A>> = None;
    let pick = |set: &BTreeSet<Prefix<A>>, k: u32| {
        (!set.is_empty()).then(|| *set.iter().nth(k as usize % set.len()).expect("in range"))
    };

    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Announce(s, l) => {
                let p = shaped(s, l, addr);
                receiver_now.insert(p);
                engines.iter_mut().for_each(|e| e.add_receiver_route(p));
            }
            Op::Withdraw(k) => {
                if let Some(p) = pick(&receiver_now, k) {
                    receiver_now.remove(&p);
                    withdrawn.push(p);
                    for e in &mut engines {
                        prop_assert!(e.remove_receiver_route(&p), "step {}: withdraw {}", step, p);
                    }
                }
            }
            Op::Modify(k) => {
                if let Some(p) = pick(&receiver_now, k) {
                    for e in &mut engines {
                        prop_assert!(e.remove_receiver_route(&p), "step {}: modify {}", step, p);
                        e.add_receiver_route(p);
                    }
                }
            }
            Op::Flap(s, l) => {
                let p = shaped(s, l, addr);
                receiver_now.remove(&p);
                for e in &mut engines {
                    e.add_receiver_route(p);
                    prop_assert!(e.remove_receiver_route(&p), "step {}: flap {}", step, p);
                }
            }
            Op::Reannounce => {
                if let Some(p) = withdrawn.pop() {
                    receiver_now.insert(p);
                    engines.iter_mut().for_each(|e| e.add_receiver_route(p));
                }
            }
            Op::SenderAnnounce(s, l) => {
                let p = shaped(s, l, addr);
                sender_now.insert(p);
                engines.iter_mut().for_each(|e| e.add_sender_prefix(p));
            }
            Op::Freeze | Op::FreezeAndDrop => {}
        }
        let freeze = matches!(op, Op::Freeze | Op::FreezeAndDrop) || step + 1 == ops.len();

        let sender_v: Vec<_> = sender_now.iter().copied().collect();
        let receiver_v: Vec<_> = receiver_now.iter().copied().collect();
        let packets: Vec<(A, Option<Prefix<A>>)> = raws
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                // Even packets land inside a sender prefix, odd ones anywhere.
                let base = sender_v[i % sender_v.len()];
                let noise = u128::from(r) >> base.len().min(32);
                let dest = if i % 2 == 0 {
                    A::from_u128(base.bits().to_u128() | noise)
                } else {
                    addr(r)
                };
                (dest, reference_bmp(&sender_v, dest).filter(|c| !c.is_empty()))
            })
            .collect();
        for (engine, &family) in engines.iter_mut().zip(&families) {
            let mut fresh = ClueEngine::precomputed(
                &sender_v,
                &receiver_v,
                EngineConfig::new(family, Method::Advance),
            );
            prop_assert_eq!(
                classifications(engine),
                classifications(&fresh),
                "step {} ({:?}): {} classifications diverged",
                step,
                op,
                family
            );
            for &(dest, clue) in &packets {
                let (mut c_inc, mut c_fresh) = (Cost::new(), Cost::new());
                let got = engine.lookup(dest, clue, None, &mut c_inc);
                let want = fresh.lookup(dest, clue, None, &mut c_fresh);
                let at = format!("step {step} {family}: dest {dest} clue {clue:?}");
                prop_assert_eq!(got, want, "{}", at);
                prop_assert_eq!(c_inc, c_fresh, "cost at {}", at);
            }
            if family == Family::Regular && freeze {
                let got = engine.freeze().expect("Regular engines freeze");
                let want = fresh.freeze().expect("Regular engines freeze");
                prop_assert!(got.bit_identical(&want), "step {} ({:?}): freeze differs", step, op);
                kept = (!matches!(op, Op::FreezeAndDrop)).then_some(got);
            }
        }
    }
    drop(kept);
    Ok(())
}
