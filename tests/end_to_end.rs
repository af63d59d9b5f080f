//! Workspace-spanning integration tests: tablegen → core → lookup →
//! netsim, exercising the public API exactly as the examples and
//! experiment harnesses do.

use clue_routing::prelude::*;
use rand::SeedableRng;

/// The full Tables 4–9 pipeline on a small pair: every one of the
/// fifteen (family × method) combinations must return the reference BMP
/// for every generated packet, and the Advance mean must be ≈ 1.
#[test]
fn fifteen_scheme_pipeline_is_correct_and_fast() {
    let sender = synthesize_ipv4(1_500, 11);
    let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(12));
    let dests = generate(
        &sender,
        &receiver,
        &TrafficConfig { count: 800, ..TrafficConfig::paper(13) },
    );
    assert!(dests.len() >= 700, "traffic generator starved: {}", dests.len());

    for family in Family::all() {
        for method in Method::all() {
            let mut engine =
                ClueEngine::precomputed(&sender, &receiver, EngineConfig::new(family, method));
            let mut acc = CostStats::new();
            for &dest in &dests {
                let clue = reference_bmp(&sender, dest).filter(|c| !c.is_empty());
                let mut cost = Cost::new();
                let got = engine.lookup(dest, clue, None, &mut cost);
                assert_eq!(got, reference_bmp(&receiver, dest), "{family}/{method} {dest}");
                acc.record(cost);
            }
            if method == Method::Advance {
                assert!(
                    acc.mean() < 1.3,
                    "{family}/Advance mean {:.2} should be ≈ 1 (paper's headline)",
                    acc.mean()
                );
            }
        }
    }
}

/// The paper's speed-up factors, end to end on generated data: Advance
/// beats the Regular baseline by an order of magnitude (paper: ≈ 22×)
/// and beats Log W by more than 2× (paper: ≈ 3.5×).
#[test]
fn headline_speedups_hold() {
    let sender = synthesize_ipv4(3_000, 21);
    let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(22));
    let dests = generate(
        &sender,
        &receiver,
        &TrafficConfig { count: 1_000, ..TrafficConfig::paper(23) },
    );

    let mean_for = |family: Family, method: Method| -> f64 {
        let mut engine =
            ClueEngine::precomputed(&sender, &receiver, EngineConfig::new(family, method));
        let mut acc = CostStats::new();
        for &dest in &dests {
            let clue = reference_bmp(&sender, dest).filter(|c| !c.is_empty());
            let mut cost = Cost::new();
            engine.lookup(dest, clue, None, &mut cost);
            acc.record(cost);
        }
        acc.mean()
    };

    let regular_common = mean_for(Family::Regular, Method::Common);
    let regular_advance = mean_for(Family::Regular, Method::Advance);
    let logw_common = mean_for(Family::LogW, Method::Common);
    let patricia_simple = mean_for(Family::Patricia, Method::Simple);

    assert!(
        regular_common / regular_advance > 10.0,
        "Advance speedup over Regular too small: {regular_common:.2}/{regular_advance:.2}"
    );
    assert!(
        logw_common / regular_advance > 2.0,
        "Advance speedup over Log W too small: {logw_common:.2}/{regular_advance:.2}"
    );
    // Simple alone already beats the best clue-less scheme (paper: ~50%
    // improvement over Log W).
    assert!(
        patricia_simple < logw_common,
        "Simple+Patricia {patricia_simple:.2} should beat Log W common {logw_common:.2}"
    );
}

/// Learning engines converge to the same steady-state cost as
/// precomputed ones, without any coordination (Section 3.3.1).
#[test]
fn learning_converges_to_precomputed_costs() {
    let sender = synthesize_ipv4(800, 31);
    let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(32));
    let dests = generate(
        &sender,
        &receiver,
        &TrafficConfig { count: 600, ..TrafficConfig::paper(33) },
    );

    let cfg = EngineConfig::new(Family::Patricia, Method::Advance);
    let mut pre = ClueEngine::precomputed(&sender, &receiver, cfg);
    let mut learn = ClueEngine::learning(&receiver, cfg);

    // Warm-up pass teaches the learner every clue in the workload.
    for &dest in &dests {
        let clue = reference_bmp(&sender, dest).filter(|c| !c.is_empty());
        learn.lookup(dest, clue, None, &mut Cost::new());
    }
    learn.reclassify_all();

    let (mut cp, mut cl) = (CostStats::new(), CostStats::new());
    for &dest in &dests {
        let clue = reference_bmp(&sender, dest).filter(|c| !c.is_empty());
        let (mut a, mut b) = (Cost::new(), Cost::new());
        let rp = pre.lookup(dest, clue, None, &mut a);
        let rl = learn.lookup(dest, clue, None, &mut b);
        assert_eq!(rp, rl);
        cp.record(a);
        cl.record(b);
    }
    assert!(
        (cl.mean() - cp.mean()).abs() < 0.3,
        "learned {:.2} vs precomputed {:.2}",
        cl.mean(),
        cp.mean()
    );
}

/// The network simulator preserves lookup correctness hop by hop and
/// delivers everything on a connected topology.
#[test]
fn network_simulation_is_sound() {
    let (topo, edges) = Topology::backbone(5, 2);
    let mut cfg =
        NetworkConfig::new(edges.clone(), EngineConfig::new(Family::Regular, Method::Advance));
    cfg.specifics_per_origin = 15;
    cfg.seed = 5;
    let mut net: Network<Ip4> = Network::build(topo, cfg);
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);

    for _ in 0..50 {
        let src = edges[0];
        let dest = net.random_destination(edges.len() - 1, &mut rng);
        let trace = net.route_packet(src, dest);
        assert!(trace.delivered);
        for h in &trace.hops {
            let fib = &net.routers()[h.router].fib;
            let want = fib.lookup(dest).map(|r| fib.prefix(r));
            assert_eq!(h.bmp, want, "router {} diverged from its own FIB", h.router);
        }
        // Figure 1 invariant: BMP length never shrinks along the path.
        let lens: Vec<u8> = trace.hops.iter().map(|h| h.bmp.map_or(0, |p| p.len())).collect();
        assert!(lens.windows(2).all(|w| w[0] <= w[1]), "{lens:?}");
    }
}

/// IPv6: the clue scheme carries over unchanged (7-bit clues), and the
/// Advance headline holds there too — the paper's scaling argument.
#[test]
fn ipv6_engines_work_end_to_end() {
    use clue_routing::tablegen::synthesize_ipv6;
    let sender = synthesize_ipv6(800, 41);
    let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(42));
    let dests = generate(
        &sender,
        &receiver,
        &TrafficConfig { count: 400, ..TrafficConfig::paper(43) },
    );
    assert!(!dests.is_empty());

    for family in [Family::Patricia, Family::LogW] {
        let mut engine = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(family, Method::Advance),
        );
        let mut acc = CostStats::new();
        for &dest in &dests {
            let clue = reference_bmp(&sender, dest).filter(|c| !c.is_empty());
            let mut cost = Cost::new();
            let got = engine.lookup(dest, clue, None, &mut cost);
            assert_eq!(got, reference_bmp(&receiver, dest));
            acc.record(cost);
        }
        assert!(acc.mean() < 1.3, "{family} IPv6 mean {:.2}", acc.mean());
    }
}

/// Parsing a serialized synthetic table and rebuilding the engine gives
/// identical results — the real-data path.
#[test]
fn text_roundtrip_preserves_engine_behaviour() {
    use clue_routing::tablegen::{format_prefixes, parse_prefixes};
    let sender = synthesize_ipv4(400, 51);
    let receiver = derive_neighbor(&sender, &NeighborConfig::route_servers(52));
    let receiver2: Vec<Prefix<Ip4>> =
        parse_prefixes(&format_prefixes(&receiver)).expect("roundtrip parses");
    assert_eq!(receiver, receiver2);

    let cfg = EngineConfig::new(Family::Binary, Method::Advance);
    let mut a = ClueEngine::precomputed(&sender, &receiver, cfg);
    let mut b = ClueEngine::precomputed(&sender, &receiver2, cfg);
    let dests = generate(&sender, &receiver, &TrafficConfig { count: 200, ..TrafficConfig::paper(53) });
    for &dest in &dests {
        let clue = reference_bmp(&sender, dest).filter(|c| !c.is_empty());
        let (mut ca, mut cb) = (Cost::new(), Cost::new());
        assert_eq!(a.lookup(dest, clue, None, &mut ca), b.lookup(dest, clue, None, &mut cb));
        assert_eq!(ca, cb);
    }
}
