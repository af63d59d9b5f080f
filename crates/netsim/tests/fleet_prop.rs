//! Property tests for the fleet simulator's routing substrate: on
//! arbitrary connected topologies, the all-pairs BFS [`RouteTree`]s and
//! ECMP DAGs must be loop-free and hop-minimal, and the per-flow
//! hashed ECMP choice must be stable under router renumbering — the
//! invariant the fleet's deterministic packet leg leans on. On small
//! built fleets, the sharded flow leg must equal the sequential
//! reference at every worker count and flow count, including empty and
//! partial last jobs.

use clue_netsim::{Fleet, FleetConfig, Topology, TopologyKind};
use proptest::prelude::*;

const MAX_N: usize = 40;

/// An arbitrary connected topology as an explicit edge-insertion
/// sequence: a random spanning tree (router `i` attaches to some
/// earlier router) plus random chord links. The *sequence* matters —
/// adjacency order is insertion order, and the renumbering property is
/// about replaying the same insertions under a relabeling. Raw
/// ingredients are fixed-size and sliced by `n` (the shim has no
/// dependent `prop_flat_map`).
fn arb_edges() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (
        4usize..MAX_N,
        proptest::collection::vec(0usize..10_000, MAX_N - 1),
        proptest::collection::vec((0usize..10_000, 0usize..10_000), 0..MAX_N),
    )
        .prop_map(|(n, parents, chords)| {
            let mut edges: Vec<(usize, usize)> = parents[..n - 1]
                .iter()
                .enumerate()
                .map(|(i, &p)| (i + 1, p % (i + 1)))
                .collect();
            edges.extend(chords.iter().map(|&(a, b)| (a % n, b % n)).filter(|&(a, b)| a != b));
            (n, edges)
        })
}

fn build(n: usize, edges: &[(usize, usize)]) -> Topology {
    let mut t = Topology::new(n);
    for &(a, b) in edges {
        t.add_link(a, b);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All-pairs BFS and ECMP trees are hop-minimal and loop-free on
    /// any connected topology: every ECMP next hop is exactly one hop
    /// closer over a real link, every materialized path has length
    /// equal to the BFS distance, and no path revisits a router.
    #[test]
    fn all_pairs_routes_are_loop_free_and_hop_minimal(
        (n, edges) in arb_edges(),
        keys in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        let t = build(n, &edges);
        for dest in 0..n {
            let (route, ecmp) = (t.routes_toward(dest), t.ecmp_toward(dest));
            for src in 0..n {
                // Spanning-tree construction ⇒ everything reachable,
                // and both tree kinds agree on the metric.
                let d = route.distance(src).expect("connected by construction");
                prop_assert_eq!(ecmp.distance(src), Some(d));

                // Every equal-cost next hop is a neighbor exactly one
                // hop closer — the strict descent that rules loops out.
                for &nh in &ecmp.next_hops[src] {
                    prop_assert!(t.has_link(src, nh));
                    prop_assert_eq!(ecmp.distance(nh).map(|h| h + 1), Some(d));
                }
                prop_assert_eq!(ecmp.next_hops[src].is_empty(), src == dest);

                // The single-path BFS tree is hop-minimal too.
                let path = route.path_from(src).expect("reachable");
                prop_assert_eq!(path.len(), d + 1);

                for &key in &keys {
                    let path = ecmp.path_from(src, key).expect("reachable");
                    prop_assert_eq!(path.len(), d + 1, "flow path not hop-minimal");
                    let mut seen = vec![false; n];
                    for pair in path.windows(2) {
                        prop_assert!(t.has_link(pair[0], pair[1]));
                        prop_assert!(!seen[pair[0]], "path revisits router {}", pair[0]);
                        seen[pair[0]] = true;
                    }
                }
            }
        }
    }

    /// The hashed per-flow ECMP choice is stable under router
    /// renumbering: relabel every router through a permutation, replay
    /// the same link insertions under the relabeling, and every flow's
    /// path maps elementwise through the permutation. This is what
    /// lets the fleet compare sharded runs bit for bit — worker count
    /// and router numbering never leak into path choice.
    #[test]
    fn ecmp_choice_is_stable_under_renumbering(
        (n, edges) in arb_edges(),
        perm_keys in proptest::collection::vec(any::<u64>(), MAX_N),
        keys in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        // A permutation of 0..n from random sort keys (ties broken by
        // index, so it is always a bijection).
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (perm_keys[i], i));
        let mut perm = vec![0usize; n];
        for (new, &old) in order.iter().enumerate() {
            perm[old] = new;
        }

        let t1 = build(n, &edges);
        let mapped: Vec<(usize, usize)> =
            edges.iter().map(|&(a, b)| (perm[a], perm[b])).collect();
        let t2 = build(n, &mapped);

        for dest in 0..n {
            let e1 = t1.ecmp_toward(dest);
            let e2 = t2.ecmp_toward(perm[dest]);
            for src in 0..n {
                for &key in &keys {
                    let p1: Vec<usize> = e1
                        .path_from(src, key)
                        .expect("connected")
                        .into_iter()
                        .map(|r| perm[r])
                        .collect();
                    let p2 = e2.path_from(perm[src], key).expect("connected");
                    prop_assert_eq!(&p1, &p2, "renumbering changed the flow path");
                }
            }
        }
    }
}

/// A small fleet: 16–96 routers, either topology family, half or full
/// participation, eight origins of four specifics each.
fn arb_fleet() -> impl Strategy<Value = Fleet> {
    (16usize..=96, any::<bool>(), any::<bool>(), any::<u64>()).prop_map(
        |(routers, preferential, half, seed)| {
            let mut c = FleetConfig::new(routers, seed);
            c.topology =
                if preferential { TopologyKind::Preferential } else { TopologyKind::TransitStub };
            c.participation = if half { 0.5 } else { 1.0 };
            c.origins = 8;
            c.specifics_per_origin = 4;
            Fleet::build(c).expect("a small fleet compiles")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The sharded flow leg is bit-identical to the sequential
    /// reference at 1..=8 workers, for no flows, one flow, flow counts
    /// on either side of a 1024-flow job boundary and a random count:
    /// every index is walked exactly once whatever the job cut and the
    /// walk order.
    #[test]
    fn sharded_flows_match_sequential_at_every_worker_count(
        fleet in arb_fleet(),
        extra in 0usize..=2500,
    ) {
        for flows in [0, 1, 1023, 1024, 1025, extra] {
            let reference = fleet.run_flows_sequential(flows);
            prop_assert_eq!(reference.flows, flows as u64);
            for workers in 1..=8 {
                let run = fleet.run_flows(flows, workers);
                prop_assert_eq!(
                    &run.stats,
                    &reference,
                    "{} flows diverged at {} workers",
                    flows,
                    workers
                );
            }
        }
    }
}
