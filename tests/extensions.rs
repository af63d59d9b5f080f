//! Facade-level integration of the extension crates: wire format,
//! classification and the clue cache composing with the core engines.

use clue_routing::classify::{Action, ClueClassifier, Filter, FlowKey, RuleSet};
use clue_routing::prelude::*;
use clue_routing::wire::{Ipv4Packet, Ipv6Packet};

fn p(s: &str) -> Prefix<Ip4> {
    s.parse().unwrap()
}

/// A router loop at the byte level: parse → engine lookup → rewrite →
/// serialize, ten hops deep, with the engine results checked against a
/// reference at every hop.
#[test]
fn ten_hop_wire_loop_stays_consistent() {
    let tables: Vec<Vec<Prefix<Ip4>>> = (0..10)
        .map(|i| {
            let mut t = vec![p("10.0.0.0/8"), p("10.1.0.0/16")];
            if i >= 5 {
                t.push(p("10.1.2.0/24")); // downstream half holds detail
            }
            t
        })
        .collect();
    let cfg = EngineConfig::new(Family::Patricia, Method::Advance);
    let mut engines: Vec<ClueEngine<Ip4>> = (0..10)
        .map(|i| {
            let upstream = if i == 0 { Vec::new() } else { tables[i - 1].clone() };
            ClueEngine::precomputed(&upstream, &tables[i], cfg)
        })
        .collect();

    let dest: Ip4 = "10.1.2.3".parse().unwrap();
    let mut bytes = Ipv4Packet::new("192.0.2.1".parse().unwrap(), dest, 6).to_bytes();
    let mut total_cost = 0u64;
    for (i, engine) in engines.iter_mut().enumerate() {
        let mut pkt = Ipv4Packet::parse(&bytes).expect("header verifies at every hop");
        let mut cost = Cost::new();
        let header = pkt.clue;
        let bmp = engine.lookup_with_header(pkt.dst, &header, &mut cost);
        assert_eq!(bmp, reference_bmp(&tables[i], dest), "hop {i}");
        total_cost += cost.total();
        pkt.ttl -= 1;
        if let Some(b) = bmp {
            pkt.clue = ClueHeader::with_clue(&b);
        }
        bytes = pkt.to_bytes();
    }
    // First hop pays a full lookup; the boundary hop (5) pays a short
    // continuation; everything else is one access.
    assert!(total_cost < 10 + 8 + 4, "path cost too high: {total_cost}");
    let last = Ipv4Packet::parse(&bytes).unwrap();
    assert_eq!(last.ttl, 54);
    assert_eq!(last.clue.decode(dest), Some(p("10.1.2.0/24")));
}

/// IPv6 end to end through the facade: 7-bit clues on the wire feeding
/// an IPv6 engine.
#[test]
fn ipv6_wire_to_engine() {
    let sender: Vec<Prefix<Ip6>> = vec!["2001:db8::/32".parse().unwrap()];
    let receiver: Vec<Prefix<Ip6>> =
        vec!["2001:db8::/32".parse().unwrap(), "2001:db8:1::/48".parse().unwrap()];
    let mut engine = ClueEngine::precomputed(
        &sender,
        &receiver,
        EngineConfig::new(Family::LogW, Method::Advance),
    );
    let dest: Ip6 = "2001:db8:1::42".parse().unwrap();
    let pkt = Ipv6Packet::new("2001:db8::1".parse().unwrap(), dest, 17)
        .with_clue(ClueHeader::with_clue(&sender[0]));
    let parsed = Ipv6Packet::parse(&pkt.to_bytes()).unwrap();
    let mut cost = Cost::new();
    let bmp = engine.lookup_with_header(parsed.dst, &parsed.clue, &mut cost);
    assert_eq!(bmp, Some("2001:db8:1::/48".parse().unwrap()));
}

/// Classification and routing clues coexist: a flow is clue-routed to
/// its BMP and clue-classified by its filter, both in a handful of
/// accesses.
#[test]
fn routing_and_classification_clues_compose() {
    let table = vec![p("10.0.0.0/8"), p("10.1.0.0/16")];
    let mut engine =
        ClueEngine::precomputed(&table, &table, EngineConfig::new(Family::Binary, Method::Advance));

    let rules = vec![
        Filter::<Ip4> {
            dst: p("10.1.0.0/16"),
            dst_ports: 80..=80,
            priority: 10,
            ..Filter::default_rule(Action::Permit)
        },
        Filter::default_rule(Action::Deny),
    ];
    let cc = ClueClassifier::new(RuleSet::new(rules.clone()), RuleSet::new(rules));

    let key = FlowKey::<Ip4> {
        src: "192.0.2.9".parse().unwrap(),
        dst: "10.1.2.3".parse().unwrap(),
        src_port: 50000,
        dst_port: 80,
        proto: 6,
    };
    let mut route_cost = Cost::new();
    let bmp = engine.lookup(key.dst, Some(p("10.1.0.0/16")), None, &mut route_cost);
    assert_eq!(bmp, Some(p("10.1.0.0/16")));
    assert_eq!(route_cost.total(), 1);

    let clue = cc.upstream().classify_uncounted(&key).and_then(|f| cc.upstream().position_of(f));
    let mut class_cost = Cost::new();
    let verdict = cc.classify(&key, clue, &mut class_cost).unwrap();
    assert_eq!(verdict.action, Action::Permit);
    assert!(class_cost.total() <= 3);
}

/// The cache composes with learning engines: flood guard + LRU keep the
/// table and cache bounded while repeats get cheap.
#[test]
fn cached_learning_engine_stays_bounded_and_fast() {
    let receiver = vec![p("10.0.0.0/8"), p("10.1.0.0/16")];
    let mut cfg = EngineConfig::new(Family::Patricia, Method::Advance);
    cfg.max_learned_entries = Some(8);
    let mut engine = ClueEngine::learning(&receiver, cfg);
    engine.enable_cache(4);

    let dest: Ip4 = "10.1.2.3".parse().unwrap();
    let clue = Some(p("10.1.0.0/16"));
    engine.lookup(dest, clue, None, &mut Cost::new()); // learn
    let mut warm = Cost::new();
    engine.lookup(dest, clue, None, &mut warm); // cache miss, promote
    let mut hot = Cost::new();
    engine.lookup(dest, clue, None, &mut hot); // cache hit
    assert_eq!(hot.slow_total(), 0, "{hot}");
    assert!(warm.slow_total() >= 1);
    assert!(engine.table().len() <= 8);
}

/// Section 5.2 across two routers: the upstream resolves a packet with
/// the clue-less BGP-then-IGP double lookup and stamps both BMPs; the
/// downstream, holding the same tables, resolves it to the same
/// interface in one clue-table access per stage.
#[test]
fn recursive_lookup_takes_both_clues_from_the_upstream() {
    use clue_routing::core::recursive::RecursiveLookup;
    let a = |s: &str| -> Ip4 { s.parse().unwrap() };
    let bgp = vec![
        (p("20.0.0.0/8"), a("192.168.0.1")),
        (p("20.5.0.0/16"), a("192.168.0.2")),
        (p("30.0.0.0/8"), a("192.168.0.2")),
    ];
    let igp = vec![(p("192.168.0.0/30"), 1u32), (p("192.168.0.2/31"), 2u32)];
    let bgp_prefixes: Vec<Prefix<Ip4>> = bgp.iter().map(|(q, _)| *q).collect();
    let igp_prefixes: Vec<Prefix<Ip4>> = igp.iter().map(|(q, _)| *q).collect();
    let router = || {
        let config = EngineConfig::new(Family::Patricia, Method::Advance);
        RecursiveLookup::new(bgp.clone(), igp.clone(), &bgp_prefixes, &igp_prefixes, config)
    };
    let (upstream, mut downstream) = (router(), router());
    for dest in ["20.1.2.3", "20.5.9.9", "30.7.0.1"].map(a) {
        let stamped = upstream.lookup(dest, &mut Cost::new()).expect("routable");
        let mut cost = Cost::new();
        let got = downstream
            .lookup_with_clues(dest, Some(stamped.bgp_bmp), Some(stamped.igp_bmp), &mut cost)
            .expect("routable");
        assert_eq!(got, stamped, "{dest}");
        assert_eq!(cost.total(), 2, "{dest}: {cost}");
    }
    assert!(upstream.lookup(a("99.0.0.1"), &mut Cost::new()).is_none());
}
