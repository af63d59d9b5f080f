//! Network topologies and shortest-path route computation.
//!
//! The simulator needs only unweighted shortest paths (the paper's
//! arguments are about *which prefixes* neighboring tables hold, not
//! about link metrics), so routing is all-pairs BFS producing, per
//! destination router, a next-hop tree — the role OSPF/BGP play in
//! Section 3.3.2.

use std::collections::VecDeque;

use clue_core::FxHashSet;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Index of a router in the topology.
pub type RouterId = usize;

/// An undirected multigraph-free topology over `n` routers.
#[derive(Debug, Clone)]
pub struct Topology {
    n: usize,
    adjacency: Vec<Vec<RouterId>>,
    /// Every link as an ordered `(min, max)` pair, so `add_link`'s
    /// dedup and `has_link` are O(1) instead of an O(degree) scan of
    /// the adjacency list (which goes quadratic on the dense generated
    /// graphs the fleet simulator builds).
    edges: FxHashSet<(RouterId, RouterId)>,
}

impl Topology {
    /// An empty topology with `n` routers and no links.
    pub fn new(n: usize) -> Self {
        Topology { n, adjacency: vec![Vec::new(); n], edges: FxHashSet::default() }
    }

    /// Number of routers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff the topology has no routers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `true` iff an (undirected) link `a – b` exists.
    pub fn has_link(&self, a: RouterId, b: RouterId) -> bool {
        self.edges.contains(&(a.min(b), a.max(b)))
    }

    /// Adds an undirected link (idempotent).
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or self-loops.
    pub fn add_link(&mut self, a: RouterId, b: RouterId) {
        assert!(a < self.n && b < self.n, "link endpoint out of range");
        assert_ne!(a, b, "self-loops are not allowed");
        if self.edges.insert((a.min(b), a.max(b))) {
            self.adjacency[a].push(b);
            self.adjacency[b].push(a);
        }
    }

    /// The neighbors of a router.
    pub(crate) fn neighbors(&self, r: RouterId) -> &[RouterId] {
        &self.adjacency[r]
    }

    /// Total number of undirected links.
    pub(crate) fn link_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// A simple path `0 – 1 – … – n-1`: the backbone-transit shape of the
    /// paper's Figure 1.
    pub fn line(n: usize) -> Self {
        let mut t = Topology::new(n);
        for i in 1..n {
            t.add_link(i - 1, i);
        }
        t
    }

    /// A ring.
    #[cfg(test)]
    pub(crate) fn ring(n: usize) -> Self {
        let mut t = Topology::line(n);
        if n > 2 {
            t.add_link(n - 1, 0);
        }
        t
    }

    /// A star with router 0 in the center.
    #[cfg(test)]
    pub(crate) fn star(n: usize) -> Self {
        let mut t = Topology::new(n);
        for i in 1..n {
            t.add_link(0, i);
        }
        t
    }

    /// A two-level ISP-like topology: a ring of `core` backbone routers,
    /// each with `edges_per_core` stub routers attached. Returns the
    /// topology and the list of edge (stub) routers — the natural packet
    /// sources/sinks.
    pub fn backbone(core: usize, edges_per_core: usize) -> (Self, Vec<RouterId>) {
        assert!(core >= 1, "need at least one core router");
        let n = core + core * edges_per_core;
        let mut t = Topology::new(n);
        for i in 1..core {
            t.add_link(i - 1, i);
        }
        if core > 2 {
            t.add_link(core - 1, 0);
        }
        let mut edges = Vec::new();
        for c in 0..core {
            for e in 0..edges_per_core {
                let id = core + c * edges_per_core + e;
                t.add_link(c, id);
                edges.push(id);
            }
        }
        (t, edges)
    }

    /// A connected random graph: a spanning random tree plus `extra`
    /// random chords. Deterministic in the seed.
    pub fn random_connected(n: usize, extra: usize, seed: u64) -> Self {
        assert!(n >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Topology::new(n);
        for i in 1..n {
            let parent = rng.random_range(0..i);
            t.add_link(parent, i);
        }
        let mut added = 0;
        let mut guard = 0;
        while added < extra && guard < extra * 20 + 50 && n > 2 {
            guard += 1;
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            if a != b && !t.has_link(a, b) {
                t.add_link(a, b);
                added += 1;
            }
        }
        t
    }

    /// A GT-ITM-style hierarchical transit-stub topology: `domains`
    /// transit domains (each a ring of `transit_size` routers with a
    /// chord) joined into a ring of domains, and `stubs_per_transit`
    /// stub domains hanging off every transit router (each stub a
    /// random tree of `stub_size` routers plus one chord, attached by
    /// a single uplink; a small fraction are multihomed to a second
    /// transit router). Returns the topology and the stub routers —
    /// the natural packet sources and sinks. Deterministic in the
    /// seed.
    ///
    /// # Panics
    /// Panics unless `domains`, `transit_size` and `stub_size` are
    /// all at least 1.
    pub(crate) fn transit_stub(
        domains: usize,
        transit_size: usize,
        stubs_per_transit: usize,
        stub_size: usize,
        seed: u64,
    ) -> (Self, Vec<RouterId>) {
        assert!(domains >= 1 && transit_size >= 1 && stub_size >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let transit_n = domains * transit_size;
        let n = transit_n + transit_n * stubs_per_transit * stub_size;
        let mut t = Topology::new(n);

        // Transit domains: ring + one chord each, domains joined in a
        // ring through random member pairs.
        for d in 0..domains {
            let base = d * transit_size;
            for i in 1..transit_size {
                t.add_link(base + i - 1, base + i);
            }
            if transit_size > 2 {
                t.add_link(base + transit_size - 1, base);
                let a = base + rng.random_range(0..transit_size);
                let b = base + rng.random_range(0..transit_size);
                if a != b {
                    t.add_link(a, b);
                }
            }
        }
        for d in 0..domains {
            if domains > 1 {
                let next = (d + 1) % domains;
                if d < next || domains > 2 {
                    let a = d * transit_size + rng.random_range(0..transit_size);
                    let b = next * transit_size + rng.random_range(0..transit_size);
                    t.add_link(a, b);
                }
            }
        }

        // Stub domains: a random tree plus one chord, single-homed to
        // the owning transit router (every ~8th stub multihomes to a
        // random second transit router).
        let mut stubs = Vec::new();
        let mut next_id = transit_n;
        let mut stub_index = 0usize;
        for tr in 0..transit_n {
            for _ in 0..stubs_per_transit {
                let base = next_id;
                next_id += stub_size;
                for i in 1..stub_size {
                    let parent = base + rng.random_range(0..i);
                    t.add_link(parent, base + i);
                }
                if stub_size > 2 {
                    let a = base + rng.random_range(0..stub_size);
                    let b = base + rng.random_range(0..stub_size);
                    if a != b {
                        t.add_link(a, b);
                    }
                }
                t.add_link(tr, base + rng.random_range(0..stub_size));
                if stub_index % 8 == 7 && transit_n > 1 {
                    let other = rng.random_range(0..transit_n);
                    if other != tr {
                        t.add_link(other, base + rng.random_range(0..stub_size));
                    }
                }
                stubs.extend(base..base + stub_size);
                stub_index += 1;
            }
        }
        (t, stubs)
    }

    /// A Barabási–Albert preferential-attachment graph: routers join
    /// one at a time and link to `m` distinct existing routers chosen
    /// proportional to current degree, yielding the heavy-tailed
    /// degree distribution of AS-level maps. Connected by
    /// construction; deterministic in the seed.
    ///
    /// # Panics
    /// Panics unless `1 <= m < n`.
    pub(crate) fn preferential_attachment(n: usize, m: usize, seed: u64) -> Self {
        assert!(m >= 1 && m < n, "need 1 <= m < n");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Topology::new(n);
        // Seed clique over the first m+1 routers.
        for a in 0..=m {
            for b in a + 1..=m {
                t.add_link(a, b);
            }
        }
        // One entry per link endpoint: sampling it uniformly is
        // sampling routers proportional to degree.
        let mut endpoints: Vec<RouterId> = Vec::with_capacity(2 * m * n);
        for a in 0..=m {
            for b in a + 1..=m {
                endpoints.push(a);
                endpoints.push(b);
            }
        }
        for v in m + 1..n {
            let mut picked = Vec::with_capacity(m);
            let mut guard = 0;
            while picked.len() < m && guard < 50 * m + 100 {
                guard += 1;
                let u = endpoints[rng.random_range(0..endpoints.len())];
                if u != v && !picked.contains(&u) {
                    picked.push(u);
                }
            }
            // Degenerate fallback (tiny graphs): fill from low ids.
            let mut u = 0;
            while picked.len() < m {
                if u != v && !picked.contains(&u) {
                    picked.push(u);
                }
                u += 1;
            }
            for &u in &picked {
                t.add_link(u, v);
                endpoints.push(u);
                endpoints.push(v);
            }
        }
        t
    }

    /// BFS from `dest` keeping **every** shortest-path next hop: the
    /// ECMP variant of [`Self::routes_toward`]. Next-hop sets are in
    /// adjacency-list order, which makes them *permutation-covariant*:
    /// relabeling routers (and replaying the same link insertions
    /// under the relabeling) maps each set elementwise, so a hashed
    /// choice by set index is stable under renumbering.
    pub fn ecmp_toward(&self, dest: RouterId) -> EcmpTree {
        assert!(dest < self.n, "destination out of range");
        let mut dist = vec![usize::MAX; self.n];
        let mut q = VecDeque::new();
        dist[dest] = 0;
        q.push_back(dest);
        while let Some(u) = q.pop_front() {
            for &v in &self.adjacency[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    q.push_back(v);
                }
            }
        }
        let next_hops = (0..self.n)
            .map(|r| {
                if r == dest || dist[r] == usize::MAX {
                    return Vec::new();
                }
                // Every neighbor exactly one hop closer is a valid
                // equal-cost next hop; order = adjacency order.
                self.adjacency[r].iter().copied().filter(|&v| dist[v] + 1 == dist[r]).collect()
            })
            .collect();
        EcmpTree { dest, dist, next_hops }
    }

    /// BFS from `dest`: per router, its distance to `dest` and the next
    /// hop toward it (`None` at `dest` itself and on unreachable
    /// routers).
    pub fn routes_toward(&self, dest: RouterId) -> RouteTree {
        assert!(dest < self.n, "destination out of range");
        let mut dist = vec![usize::MAX; self.n];
        let mut next_hop: Vec<Option<RouterId>> = vec![None; self.n];
        let mut q = VecDeque::new();
        dist[dest] = 0;
        q.push_back(dest);
        while let Some(u) = q.pop_front() {
            for &v in &self.adjacency[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    // v reaches dest through u.
                    next_hop[v] = Some(u);
                    q.push_back(v);
                }
            }
        }
        RouteTree { dest, dist, next_hop }
    }
}

/// The shortest-path tree toward one destination router.
#[derive(Debug, Clone)]
pub struct RouteTree {
    /// The tree's destination.
    pub(crate) dest: RouterId,
    /// Hop distance per router (`usize::MAX` if unreachable).
    pub(crate) dist: Vec<usize>,
    /// Next hop toward `dest` per router.
    pub(crate) next_hop: Vec<Option<RouterId>>,
}

impl RouteTree {
    /// Hop distance from `r` to the destination, `None` if unreachable.
    pub fn distance(&self, r: RouterId) -> Option<usize> {
        (self.dist[r] != usize::MAX).then_some(self.dist[r])
    }

    /// The path from `r` to the destination (inclusive of both ends).
    pub fn path_from(&self, r: RouterId) -> Option<Vec<RouterId>> {
        self.distance(r)?;
        let mut path = vec![r];
        let mut cur = r;
        while cur != self.dest {
            cur = self.next_hop[cur].expect("reachable router has a next hop");
            path.push(cur);
        }
        Some(path)
    }
}

/// The equal-cost multipath DAG toward one destination router: per
/// router, *all* next hops that lie on some shortest path, in
/// adjacency-list order.
#[derive(Debug, Clone)]
pub struct EcmpTree {
    /// The DAG's destination.
    pub(crate) dest: RouterId,
    /// Hop distance per router (`usize::MAX` if unreachable).
    pub(crate) dist: Vec<usize>,
    /// All equal-cost next hops per router (empty at `dest` and on
    /// unreachable routers), in adjacency-list order.
    pub next_hops: Vec<Vec<RouterId>>,
}

/// SplitMix64 finalizer — the same integer avalanche the sharded
/// workload drivers use for per-packet streams, reused here to mix a
/// flow key with a hop position.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl EcmpTree {
    /// Hop distance from `r` to the destination, `None` if unreachable.
    pub fn distance(&self, r: RouterId) -> Option<usize> {
        (self.dist[r] != usize::MAX).then_some(self.dist[r])
    }

    /// The deterministic per-flow next hop at `r`: the equal-cost set
    /// indexed by a hash of `(flow_key, hop position)`. The hash never
    /// sees a router id — only the flow key, the position along the
    /// path, and the set's *size* — so the choice is stable under
    /// router renumbering (the set itself maps elementwise, and the
    /// chosen index is unchanged). Mixing the hop position in keeps a
    /// flow from always landing on the same index at every hop, which
    /// would polarize traffic the way real ECMP hash reuse does.
    pub(crate) fn next_hop(&self, r: RouterId, flow_key: u64, hop: usize) -> Option<RouterId> {
        let set = &self.next_hops[r];
        if set.is_empty() {
            return None;
        }
        let pick = mix64(flow_key ^ mix64(hop as u64)) as usize % set.len();
        Some(set[pick])
    }

    /// The flow's full path from `r` to the destination (inclusive of
    /// both ends), following [`Self::next_hop`] at every hop. Finite
    /// by construction: every choice strictly decreases `dist`.
    pub fn path_from(&self, r: RouterId, flow_key: u64) -> Option<Vec<RouterId>> {
        self.distance(r)?;
        let mut path = vec![r];
        let mut cur = r;
        let mut hop = 0;
        while cur != self.dest {
            cur = self.next_hop(cur, flow_key, hop).expect("reachable router has a next hop");
            path.push(cur);
            hop += 1;
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_routes_and_distances() {
        let t = Topology::line(5);
        assert_eq!(t.link_count(), 4);
        let rt = t.routes_toward(4);
        assert_eq!(rt.distance(0), Some(4));
        assert_eq!(rt.next_hop[0], Some(1));
        assert_eq!(rt.path_from(0).unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(rt.next_hop[4], None);
    }

    #[test]
    fn ring_takes_the_short_way() {
        let t = Topology::ring(6);
        let rt = t.routes_toward(0);
        assert_eq!(rt.distance(5), Some(1));
        assert_eq!(rt.distance(3), Some(3));
    }

    #[test]
    fn star_is_two_hops_between_leaves() {
        let t = Topology::star(5);
        let rt = t.routes_toward(3);
        assert_eq!(rt.distance(4), Some(2));
        assert_eq!(rt.next_hop[4], Some(0));
    }

    #[test]
    fn backbone_shape() {
        let (t, edges) = Topology::backbone(4, 2);
        assert_eq!(t.len(), 12);
        assert_eq!(edges.len(), 8);
        // Every edge router hangs off exactly one core router.
        for &e in &edges {
            assert_eq!(t.neighbors(e).len(), 1);
            assert!(t.neighbors(e)[0] < 4);
        }
    }

    #[test]
    fn random_connected_is_connected() {
        for seed in 0..5 {
            let t = Topology::random_connected(30, 10, seed);
            let rt = t.routes_toward(0);
            assert!((0..30).all(|r| rt.distance(r).is_some()), "seed {seed} disconnected");
        }
    }

    #[test]
    fn unreachable_routers_have_no_route() {
        let t = Topology::new(3); // no links at all
        let rt = t.routes_toward(0);
        assert_eq!(rt.distance(1), None);
        assert_eq!(rt.path_from(1), None);
        assert_eq!(rt.path_from(0).unwrap(), vec![0]);
    }

    #[test]
    fn add_link_is_idempotent() {
        let mut t = Topology::new(3);
        t.add_link(0, 1);
        t.add_link(1, 0);
        assert_eq!(t.link_count(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        Topology::new(2).add_link(1, 1);
    }

    #[test]
    fn has_link_tracks_add_link() {
        let mut t = Topology::new(4);
        t.add_link(2, 1);
        assert!(t.has_link(1, 2) && t.has_link(2, 1));
        assert!(!t.has_link(0, 1));
    }

    #[test]
    fn transit_stub_is_connected_and_sized() {
        let (t, stubs) = Topology::transit_stub(3, 4, 2, 5, 7);
        assert_eq!(t.len(), 12 + 12 * 2 * 5);
        assert_eq!(stubs.len(), 12 * 2 * 5);
        let rt = t.routes_toward(0);
        assert!((0..t.len()).all(|r| rt.distance(r).is_some()), "disconnected");
        // Stub ids are exactly the non-transit ids.
        assert!(stubs.iter().all(|&s| s >= 12));
    }

    #[test]
    fn preferential_attachment_is_connected_with_hubs() {
        let t = Topology::preferential_attachment(200, 2, 11);
        let rt = t.routes_toward(0);
        assert!((0..200).all(|r| rt.distance(r).is_some()), "disconnected");
        // Heavy tail: some router far exceeds the mean degree.
        let max_deg = (0..200).map(|r| t.neighbors(r).len()).max().unwrap();
        assert!(max_deg >= 10, "no hub emerged (max degree {max_deg})");
    }

    #[test]
    fn ecmp_keeps_every_shortest_next_hop() {
        // A 4-cycle: 0-1-3 and 0-2-3 are both shortest 0→3 paths.
        let mut t = Topology::new(4);
        t.add_link(0, 1);
        t.add_link(0, 2);
        t.add_link(1, 3);
        t.add_link(2, 3);
        let e = t.ecmp_toward(3);
        assert_eq!(e.next_hops[0], vec![1, 2]); // adjacency order
        assert_eq!(e.next_hops[1], vec![3]);
        assert!(e.next_hops[3].is_empty());
        // Both flows terminate on shortest paths.
        for flow in 0..16u64 {
            let p = e.path_from(0, flow).unwrap();
            assert_eq!(p.len(), 3);
            assert_eq!(*p.last().unwrap(), 3);
        }
        // Different flows actually spread over both next hops.
        let picks: std::collections::BTreeSet<RouterId> =
            (0..16u64).map(|f| e.next_hop(0, f, 0).unwrap()).collect();
        assert_eq!(picks.len(), 2, "hashed choice never spread");
    }

    #[test]
    fn ecmp_choice_varies_by_hop_position() {
        let mut t = Topology::new(6);
        // Two parallel 2-choice stages toward 5.
        t.add_link(0, 1);
        t.add_link(0, 2);
        t.add_link(1, 3);
        t.add_link(1, 4);
        t.add_link(2, 3);
        t.add_link(2, 4);
        t.add_link(3, 5);
        t.add_link(4, 5);
        let e = t.ecmp_toward(5);
        // Across many flows, the (stage-0 index, stage-1 index) pairs
        // must not be perfectly correlated — hop mixing breaks
        // polarization.
        let mut seen = std::collections::BTreeSet::new();
        for flow in 0..64u64 {
            let p = e.path_from(0, flow).unwrap();
            seen.insert((p[1], p[2]));
        }
        assert!(seen.len() >= 3, "ECMP polarized: {seen:?}");
    }
}
