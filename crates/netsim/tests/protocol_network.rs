//! End-to-end: a path-vector protocol converges, its RIBs become a
//! packet-forwarding network with per-link clue engines, and packets
//! flow correctly and cheaply — Section 3.3.2 closed into a loop.

use clue_core::{EngineConfig, Method};
use clue_lookup::Family;
use clue_netsim::{Aggregation, Hop, Network, NetworkConfig, PathVector, Topology};
use clue_trie::{Ip4, Prefix};
use proptest::prelude::*;
use rand::SeedableRng;

fn p(s: &str) -> Prefix<Ip4> {
    s.parse().unwrap()
}

fn converged_two_as() -> PathVector<Ip4> {
    let topo = Topology::line(6);
    let as_of = vec![1, 1, 1, 2, 2, 2];
    let mut originated: Vec<Vec<Prefix<Ip4>>> = vec![Vec::new(); 6];
    originated[0] = (0..20u32).map(|j| Prefix::new(Ip4(0x0A00_0000 | j << 8), 24)).collect();
    originated[5] = (0..20u32).map(|j| Prefix::new(Ip4(0x1400_0000 | j << 8), 24)).collect();
    let mut pv = PathVector::new(topo, as_of, originated, Aggregation::OwnAtBorder(16));
    pv.converge(64).expect("converges");
    pv
}

#[test]
fn packets_flow_over_protocol_fibs() {
    let pv = converged_two_as();
    let cfg = NetworkConfig::new(vec![], EngineConfig::new(Family::Patricia, Method::Advance));
    let mut net = Network::from_path_vector(&pv, cfg);
    assert_eq!(net.config().origins, vec![0, 5]);

    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    for _ in 0..40 {
        let dest = net.random_destination(1, &mut rng); // router 5's space
        let trace = net.route_packet(0, dest);
        assert!(trace.delivered, "{trace:?}");
        assert_eq!(trace.hops.last().unwrap().router, 5);
        // Every hop's BMP equals its own FIB's reference lookup.
        for h in &trace.hops {
            let fib = &net.routers()[h.router].fib;
            assert_eq!(h.bmp, fib.lookup(dest).map(|r| fib.prefix(r)));
        }
    }
}

#[test]
fn border_aggregation_shows_in_hop_bmps() {
    let pv = converged_two_as();
    let cfg = NetworkConfig::new(vec![], EngineConfig::new(Family::Patricia, Method::Advance));
    let mut net = Network::from_path_vector(&pv, cfg);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let dest = net.random_destination(1, &mut rng);
    let trace = net.route_packet(0, dest);
    let lens: Vec<u8> = trace.hops.iter().map(|h| h.bmp.map_or(0, |p| p.len())).collect();
    // AS 1 routers see only AS 2's /16 aggregate; once inside AS 2 the
    // /24 specific applies. (Both ASes contain routers 3..=5.)
    assert_eq!(lens[0], 16, "{lens:?}");
    assert_eq!(*lens.last().unwrap(), 24, "{lens:?}");
    // Clue routing over the protocol FIBs stays cheap past the first hop.
    let steady: u64 = trace.hops[1..].iter().map(|h| h.cost.total()).sum();
    assert!(
        steady <= 2 * (trace.hops.len() as u64 - 1) + 8,
        "steady-state hops too expensive: {:?}",
        trace.work()
    );
}

#[test]
fn withdrawn_space_stops_being_routable() {
    let mut pv = converged_two_as();
    let victim = pv.originated(5)[0];
    pv.withdraw(5, &victim);
    pv.converge(64).unwrap();
    let cfg = NetworkConfig::new(vec![], EngineConfig::new(Family::Regular, Method::Advance));
    let net = Network::from_path_vector(&pv, cfg);
    // The /24 is gone from every FIB…
    for r in net.routers() {
        assert!(r.fib.get(&victim).is_none());
    }
    // …but the AS-2 aggregate still routes the rest of the block from
    // AS 1 (it is regenerated from the remaining specifics).
    let fib0 = &net.routers()[0].fib;
    assert!(fib0.get(&p("20.0.0.0/16")).is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random connected topologies: the protocol converges, paths are
    /// consistent (following FIB next hops from any router reaches the
    /// prefix's origin without loops).
    #[test]
    fn path_vector_fibs_are_consistent(
        n in 3usize..16,
        extra in 0usize..8,
        seed in any::<u64>(),
        origin_count in 1usize..4,
    ) {
        let topo = Topology::random_connected(n, extra, seed);
        let mut originated: Vec<Vec<Prefix<Ip4>>> = vec![Vec::new(); n];
        let origins: Vec<usize> = (0..origin_count.min(n)).map(|i| i * (n - 1) / origin_count.max(1)).collect();
        for (i, &o) in origins.iter().enumerate() {
            originated[o].push(Prefix::new(Ip4(((i as u32) + 1) << 24), 8));
        }
        let mut pv = PathVector::new(topo, vec![1; n], originated.clone(), Aggregation::None);
        prop_assert!(pv.converge(4 * n + 8).is_some(), "did not converge");

        for (i, &o) in origins.iter().enumerate() {
            let prefix = originated[o][0];
            for start in 0..n {
                // Follow next hops; must reach o within n steps.
                let mut cur = start;
                for _ in 0..=n {
                    match pv.ribs()[cur].next_hop(&prefix) {
                        Some(None) => {
                            prop_assert_eq!(cur, o, "local delivery at a non-origin");
                            break;
                        }
                        Some(Some(nh)) => cur = nh,
                        None => prop_assert!(false, "router {} lost prefix {} (origin {}, i {})", cur, prefix, o, i),
                    }
                }
                prop_assert_eq!(cur, o, "walk from {} did not reach origin", start);
            }
        }
    }
}

#[test]
fn from_fibs_rejects_mismatched_sizes() {
    let topo = Topology::line(3);
    let cfg = NetworkConfig::new(vec![0], EngineConfig::new(Family::Regular, Method::Common));
    let fibs: Vec<clue_trie::BinaryTrie<Ip4, Hop>> = vec![clue_trie::BinaryTrie::new()];
    let result = std::panic::catch_unwind(|| Network::from_fibs(topo, cfg, fibs, vec![vec![]]));
    assert!(result.is_err(), "size mismatch must panic");
}
