//! Route dynamics and robustness: clue tables must stay correct while
//! routes come and go and while malformed clues arrive.

use clue_core::{ClueEngine, EngineConfig, Method};
use clue_lookup::{reference_bmp, Family};
use clue_trie::{Cost, Ip4, Prefix};

fn p(s: &str) -> Prefix<Ip4> {
    s.parse().unwrap()
}

fn a(s: &str) -> Ip4 {
    s.parse().unwrap()
}

fn engines_for_all_families(
    sender: &[Prefix<Ip4>],
    receiver: &[Prefix<Ip4>],
) -> Vec<ClueEngine<Ip4>> {
    Family::all()
        .into_iter()
        .map(|f| ClueEngine::precomputed(sender, receiver, EngineConfig::new(f, Method::Advance)))
        .collect()
}

#[test]
fn malformed_clue_falls_back_to_common_lookup() {
    let sender = vec![p("10.0.0.0/8"), p("20.0.0.0/8")];
    let receiver = vec![p("10.0.0.0/8"), p("10.1.0.0/16"), p("20.0.0.0/8")];
    for (i, engine) in engines_for_all_families(&sender, &receiver).iter_mut().enumerate() {
        let dest = a("10.1.2.3");
        // A clue that is NOT a prefix of the destination (e.g. a
        // corrupted header decoded against the wrong packet).
        let bogus = Some(p("20.0.0.0/8"));
        let mut cost = Cost::new();
        let got = engine.lookup(dest, bogus, None, &mut cost);
        assert_eq!(got, Some(p("10.1.0.0/16")), "engine {i}");
        assert!(cost.total() >= 1);
    }
}

#[test]
fn receiver_route_addition_reclassifies() {
    let sender = vec![p("10.0.0.0/8")];
    let receiver = vec![p("10.0.0.0/8")];
    for family in Family::all_extended() {
        let mut engine =
            ClueEngine::precomputed(&sender, &receiver, EngineConfig::new(family, Method::Advance));
        let dest = a("10.5.1.2");
        // Initially the clue is final.
        let mut c = Cost::new();
        assert_eq!(engine.lookup(dest, Some(p("10.0.0.0/8")), None, &mut c), Some(p("10.0.0.0/8")));
        assert_eq!(c.total(), 1, "{family}");

        // The receiver learns a refinement covering the destination.
        engine.add_receiver_route(p("10.5.0.0/16"));
        let mut c = Cost::new();
        assert_eq!(
            engine.lookup(dest, Some(p("10.0.0.0/8")), None, &mut c),
            Some(p("10.5.0.0/16")),
            "{family}: stale final entry survived the route addition"
        );
        // And the common path agrees.
        let mut cc = Cost::new();
        assert_eq!(engine.common_lookup(dest, &mut cc), Some(p("10.5.0.0/16")), "{family}");
    }
}

#[test]
fn receiver_route_removal_reclassifies() {
    let sender = vec![p("10.0.0.0/8")];
    let receiver = vec![p("10.0.0.0/8"), p("10.5.0.0/16")];
    for family in Family::all_extended() {
        let mut engine =
            ClueEngine::precomputed(&sender, &receiver, EngineConfig::new(family, Method::Advance));
        let dest = a("10.5.1.2");
        assert_eq!(
            engine.lookup(dest, Some(p("10.0.0.0/8")), None, &mut Cost::new()),
            Some(p("10.5.0.0/16"))
        );
        assert!(engine.remove_receiver_route(&p("10.5.0.0/16")));
        assert!(!engine.remove_receiver_route(&p("10.5.0.0/16")), "double remove");
        let mut c = Cost::new();
        assert_eq!(
            engine.lookup(dest, Some(p("10.0.0.0/8")), None, &mut c),
            Some(p("10.0.0.0/8")),
            "{family}"
        );
        // After removal the clue is covered again: final in one access.
        assert_eq!(c.total(), 1, "{family}");
    }
}

#[test]
fn sender_announcement_tightens_claim1() {
    // Receiver refines 10/8 with 10.5/16; the sender initially lacks it,
    // so the 10/8 clue is problematic. Once the sender announces
    // 10.5/16 too, Claim 1 covers the 10/8 clue.
    let sender = vec![p("10.0.0.0/8")];
    let receiver = vec![p("10.0.0.0/8"), p("10.5.0.0/16")];
    let mut engine = ClueEngine::precomputed(
        &sender,
        &receiver,
        EngineConfig::new(Family::Regular, Method::Advance),
    );
    let dest = a("10.9.9.9"); // not under the refinement
    let mut c = Cost::new();
    engine.lookup(dest, Some(p("10.0.0.0/8")), None, &mut c);
    assert!(c.total() > 1, "problematic clue should continue the search");

    engine.add_sender_prefix(p("10.5.0.0/16"));
    let mut c = Cost::new();
    assert_eq!(engine.lookup(dest, Some(p("10.0.0.0/8")), None, &mut c), Some(p("10.0.0.0/8")));
    assert_eq!(c.total(), 1, "Claim 1 should now finalise the clue");
    // The new prefix also works as a clue itself.
    let under = a("10.5.7.7");
    let mut c = Cost::new();
    assert_eq!(
        engine.lookup(under, Some(p("10.5.0.0/16")), None, &mut c),
        Some(p("10.5.0.0/16"))
    );
    assert_eq!(c.total(), 1);
}

#[test]
fn sender_withdrawal_loosens_claim1_safely() {
    let sender = vec![p("10.0.0.0/8"), p("10.5.0.0/16")];
    let receiver = vec![p("10.0.0.0/8"), p("10.5.0.0/16")];
    let mut engine = ClueEngine::precomputed(
        &sender,
        &receiver,
        EngineConfig::new(Family::Patricia, Method::Advance),
    );
    engine.remove_sender_prefix(&p("10.5.0.0/16"));
    // Correctness holds either way; a destination under the refinement
    // with the now-stale 10/8 clue must still find the /16.
    let dest = a("10.5.7.7");
    let got = engine.lookup(dest, Some(p("10.0.0.0/8")), None, &mut Cost::new());
    assert_eq!(got, Some(p("10.5.0.0/16")));
}

#[test]
fn stale_clue_naming_a_withdrawn_route_still_resolves() {
    // The sender's table (and therefore its clue set) is unchanged while
    // the receiver withdraws refinements, so packets keep arriving with
    // clues that name routes the receiver no longer has. Correctness
    // must not depend on the clue being live on the receiving side.
    let sender = vec![p("10.0.0.0/8"), p("10.5.0.0/16")];
    let receiver = vec![p("10.0.0.0/8"), p("10.5.0.0/16"), p("10.5.7.0/24")];
    for family in Family::all_extended() {
        let mut engine =
            ClueEngine::precomputed(&sender, &receiver, EngineConfig::new(family, Method::Advance));
        let dest = a("10.5.7.7");
        assert_eq!(
            engine.lookup(dest, Some(p("10.5.0.0/16")), None, &mut Cost::new()),
            Some(p("10.5.7.0/24")),
            "{family}"
        );

        assert!(engine.remove_receiver_route(&p("10.5.7.0/24")));
        assert!(engine.remove_receiver_route(&p("10.5.0.0/16")));
        // The stale /16 clue must now fall back to the remaining /8 —
        // not to the withdrawn /16 it names, and not to a miss.
        let mut c = Cost::new();
        assert_eq!(
            engine.lookup(dest, Some(p("10.5.0.0/16")), None, &mut c),
            Some(p("10.0.0.0/8")),
            "{family}: stale clue produced a withdrawn BMP"
        );
        assert!(c.total() >= 1, "{family}");
        // And the common path agrees on the post-withdrawal answer.
        assert_eq!(engine.common_lookup(dest, &mut Cost::new()), Some(p("10.0.0.0/8")), "{family}");
    }
}

#[test]
fn stale_sender_clues_survive_bulk_receiver_withdrawals() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(4242);
    let mut sender: Vec<Prefix<Ip4>> = (0..100)
        .map(|_| {
            Prefix::new(Ip4(rng.random()), *[8u8, 16, 24].get(rng.random_range(0..3usize)).unwrap())
        })
        .collect();
    sender.sort();
    sender.dedup();
    let mut receiver = sender.clone();

    for family in [Family::Regular, Family::Patricia, Family::LogW] {
        let mut engine =
            ClueEngine::precomputed(&sender, &receiver, EngineConfig::new(family, Method::Advance));
        // Withdraw half the receiver's routes; the sender (and its clue
        // stream) never hears about it.
        while receiver.len() > sender.len() / 2 {
            let i = rng.random_range(0..receiver.len());
            let gone = receiver.swap_remove(i);
            assert!(engine.remove_receiver_route(&gone), "{family}");
        }
        // Every destination still carries the clue computed against the
        // ORIGINAL sender table; answers must match the shrunken
        // receiver table exactly.
        for _ in 0..200 {
            let base = sender[rng.random_range(0..sender.len())];
            let noise = if base.len() == 32 { 0 } else { rng.random::<u32>() >> base.len() };
            let dest = Ip4(base.bits().0 | noise);
            let clue = reference_bmp(&sender, dest).filter(|c| !c.is_empty());
            let want = reference_bmp(&receiver, dest);
            let got = engine.lookup(dest, clue, None, &mut Cost::new());
            assert_eq!(got, want, "{family} dest {dest} stale clue {clue:?}");
        }
        receiver = sender.clone();
    }
}

#[test]
fn learning_table_growth_is_bounded() {
    let receiver = vec![p("10.0.0.0/8")];
    let mut cfg = EngineConfig::new(Family::Patricia, Method::Advance);
    cfg.max_learned_entries = Some(4);
    let mut engine = ClueEngine::learning(&receiver, cfg);
    // A flood of distinct (bogus but well-formed) clues.
    for i in 0..100u32 {
        let dest = Ip4(0x0A00_0000 | i << 8);
        let clue = Some(Prefix::new(dest, 24));
        let got = engine.lookup(dest, clue, None, &mut Cost::new());
        assert_eq!(got, Some(p("10.0.0.0/8")), "results stay correct during the flood");
    }
    assert!(engine.table().len() <= 4, "table grew to {}", engine.table().len());
}

#[test]
fn randomized_churn_preserves_correctness() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(777);
    let mut sender: Vec<Prefix<Ip4>> = (0..120)
        .map(|_| Prefix::new(Ip4(rng.random()), *[8u8, 16, 24].get(rng.random_range(0..3usize)).unwrap()))
        .collect();
    sender.sort();
    sender.dedup();
    let mut receiver = sender.clone();

    for family in [Family::Regular, Family::Patricia, Family::LogW] {
        let mut engine =
            ClueEngine::precomputed(&sender, &receiver, EngineConfig::new(family, Method::Advance));
        for step in 0..60 {
            // Churn: add or remove a receiver route.
            if rng.random_bool(0.5) || receiver.len() < 20 {
                let base = sender[rng.random_range(0..sender.len())];
                let longer_len = (base.len() + 8).min(32);
                let refin = Prefix::new(
                    Ip4(base.bits().0 | (rng.random::<u32>() >> base.len().min(31))),
                    longer_len,
                );
                if !receiver.contains(&refin) {
                    receiver.push(refin);
                    engine.add_receiver_route(refin);
                }
            } else {
                let i = rng.random_range(0..receiver.len());
                let gone = receiver.swap_remove(i);
                engine.remove_receiver_route(&gone);
            }
            // Validate on a handful of destinations with honest clues.
            for _ in 0..10 {
                let base = sender[rng.random_range(0..sender.len())];
                let span = 32 - base.len();
                let noise = if span == 0 { 0 } else { rng.random::<u32>() >> base.len() };
                let dest = Ip4(base.bits().0 | noise);
                let clue = reference_bmp(&sender, dest).filter(|c| !c.is_empty());
                let want = reference_bmp(&receiver, dest);
                let got = engine.lookup(dest, clue, None, &mut Cost::new());
                assert_eq!(got, want, "{family} step {step} dest {dest} clue {clue:?}");
            }
        }
    }
}
