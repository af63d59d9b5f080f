//! A path-vector routing protocol (BGP-like), run to convergence over a
//! topology — the distributed counterpart of the centralized BFS route
//! computation in [`crate::Network::build`].
//!
//! This grounds two claims of the paper in an actual protocol:
//!
//! * Section 3: “the computation of a forwarding table at a router is
//!   based on the forwarding tables of its neighbors and thus is
//!   strongly related to these tables” — here tables literally *are*
//!   functions of the neighbors' announcements, and the measured
//!   similarity of converged neighbor tables is what the clue scheme
//!   feeds on;
//! * Section 3: “aggregation is done inside some domains (ASes) and at
//!   the borders of the ASes; once the prefixes are sent outside of the
//!   AS they are not aggregated anymore” — the export policy aggregates
//!   own-AS specifics exactly once, at the border.
//!
//! The protocol is a synchronous-round path-vector: each round every
//! router exports its best routes to each neighbor (applying the border
//! aggregation policy), imports what it hears (rejecting paths that
//! contain itself — loop freedom), and recomputes best routes by path
//! length. Rounds repeat until a fixpoint.

use std::collections::BTreeMap;

use clue_trie::{Address, Prefix};

use crate::topology::{RouterId, Topology};

/// Export-time aggregation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Propagate every prefix unchanged.
    None,
    /// At an AS border, replace *own-AS-originated* specifics by their
    /// aggregate of the given length; foreign routes pass unchanged
    /// (BGP's “may not aggregate prefixes it does not administer”).
    OwnAtBorder(u8),
}

/// One route in a RIB: the prefix's path back to its origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Route {
    /// Routers from origin (first) to the announcer (last).
    pub(crate) path: Vec<RouterId>,
}

impl Route {
    fn origin(&self) -> RouterId {
        *self.path.first().expect("a route has an origin")
    }
}

/// The converged state of one router.
#[derive(Debug, Clone)]
pub struct Rib<A: Address> {
    /// Best route per prefix, with the neighbor it was learned from
    /// (`None` = originated here).
    pub(crate) best: BTreeMap<Prefix<A>, (Route, Option<RouterId>)>,
}

impl<A: Address> Default for Rib<A> {
    fn default() -> Self {
        Rib { best: BTreeMap::new() }
    }
}

impl<A: Address> Rib<A> {
    /// The router's prefix set (its forwarding-table keys).
    pub fn prefixes(&self) -> Vec<Prefix<A>> {
        self.best.keys().copied().collect()
    }

    /// Next hop for a prefix (`None` = local delivery).
    pub fn next_hop(&self, p: &Prefix<A>) -> Option<Option<RouterId>> {
        self.best.get(p).map(|(_, nh)| *nh)
    }
}

/// A path-vector protocol instance over a topology.
#[derive(Debug)]
pub struct PathVector<A: Address> {
    topology: Topology,
    /// AS number per router.
    as_of: Vec<u32>,
    /// Prefixes originated per router.
    originated: Vec<Vec<Prefix<A>>>,
    aggregation: Aggregation,
    ribs: Vec<Rib<A>>,
}

impl<A: Address> PathVector<A> {
    /// Creates the instance; every router starts knowing only what it
    /// originates.
    ///
    /// # Panics
    /// Panics if the per-router vectors disagree with the topology size.
    pub fn new(
        topology: Topology,
        as_of: Vec<u32>,
        originated: Vec<Vec<Prefix<A>>>,
        aggregation: Aggregation,
    ) -> Self {
        assert_eq!(as_of.len(), topology.len(), "as_of length mismatch");
        assert_eq!(originated.len(), topology.len(), "originated length mismatch");
        let mut ribs: Vec<Rib<A>> = vec![Rib::default(); topology.len()];
        for (r, prefixes) in originated.iter().enumerate() {
            for p in prefixes {
                ribs[r].best.insert(*p, (Route { path: vec![r] }, None));
            }
        }
        PathVector { topology, as_of, originated, aggregation, ribs }
    }

    /// The converged (or current) RIBs.
    pub fn ribs(&self) -> &[Rib<A>] {
        &self.ribs
    }

    /// The underlying topology.
    pub(crate) fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The prefixes a router originates.
    pub fn originated(&self, r: RouterId) -> &[Prefix<A>] {
        &self.originated[r]
    }

    /// The AS of a router.
    pub fn as_of(&self, r: RouterId) -> u32 {
        self.as_of[r]
    }

    /// What `from` exports to `to` this round: its best routes with
    /// itself appended to the path, border aggregation applied, and
    /// split-horizon (no route back to the neighbor it came from, nor
    /// any path already containing the receiver).
    fn export(&self, from: RouterId, to: RouterId) -> Vec<(Prefix<A>, Route)> {
        let border = self.as_of[from] != self.as_of[to];
        let mut out: BTreeMap<Prefix<A>, Route> = BTreeMap::new();
        for (prefix, (route, learned_from)) in &self.ribs[from].best {
            if route.path.contains(&to) || *learned_from == Some(to) {
                continue; // loop prevention + split horizon
            }
            // Stored paths end at the router that told us (ourselves,
            // for originated routes) — append `from` only when it is not
            // already the terminal element.
            let mut path = route.path.clone();
            if path.last() != Some(&from) {
                path.push(from);
            }
            let exported_prefix = match self.aggregation {
                Aggregation::OwnAtBorder(agg_len)
                    if border
                        && self.as_of[route.origin()] == self.as_of[from]
                        && prefix.len() > agg_len =>
                {
                    prefix.truncate(agg_len)
                }
                _ => *prefix,
            };
            // Several specifics may collapse into one aggregate: keep
            // the shortest path among them.
            match out.get(&exported_prefix) {
                Some(existing) if existing.path.len() <= path.len() => {}
                _ => {
                    out.insert(exported_prefix, Route { path });
                }
            }
        }
        out.into_iter().collect()
    }

    /// Runs one synchronous round. Returns `true` if any RIB changed.
    pub(crate) fn step(&mut self) -> bool {
        let n = self.topology.len();
        // Collect all announcements first (synchronous semantics).
        let mut inbox: Vec<Vec<(RouterId, Prefix<A>, Route)>> = vec![Vec::new(); n];
        for from in 0..n {
            for &to in self.topology.neighbors(from) {
                for (prefix, route) in self.export(from, to) {
                    inbox[to].push((from, prefix, route));
                }
            }
        }
        // Import with best-path selection: shorter path wins; ties break
        // toward the lower announcing neighbor for determinism.
        let mut changed = false;
        for (r, mail) in inbox.into_iter().enumerate() {
            // Candidate set per prefix: keep current best (if not
            // originated-stale) and challenge it with the mail.
            let mut best: BTreeMap<Prefix<A>, (Route, Option<RouterId>)> = BTreeMap::new();
            for p in &self.originated[r] {
                best.insert(*p, (Route { path: vec![r] }, None));
            }
            for (from, prefix, route) in mail {
                if route.path.contains(&r) {
                    continue; // never accept a looped path
                }
                match best.get(&prefix) {
                    Some((cur, cur_nh)) => {
                        let better = route.path.len() < cur.path.len()
                            || (route.path.len() == cur.path.len()
                                && Some(from) < cur_nh.or(Some(usize::MAX)));
                        let replace = match cur_nh {
                            None => false, // originated routes are sticky
                            Some(_) => better,
                        };
                        if replace {
                            best.insert(prefix, (route, Some(from)));
                        }
                    }
                    None => {
                        best.insert(prefix, (route, Some(from)));
                    }
                }
            }
            if best != self.ribs[r].best {
                self.ribs[r].best = best;
                changed = true;
            }
        }
        changed
    }

    /// Runs rounds to a fixpoint (bounded by `max_rounds`). Returns the
    /// number of rounds taken, or `None` if it did not converge.
    pub fn converge(&mut self, max_rounds: usize) -> Option<usize> {
        (1..=max_rounds).find(|_| !self.step())
    }

    /// Announces a new prefix at a router (then call
    /// [`Self::converge`]).
    pub fn announce(&mut self, r: RouterId, prefix: Prefix<A>) {
        if !self.originated[r].contains(&prefix) {
            self.originated[r].push(prefix);
        }
        self.ribs[r].best.insert(prefix, (Route { path: vec![r] }, None));
    }

    /// Withdraws an originated prefix; stale copies wash out during
    /// reconvergence.
    pub fn withdraw(&mut self, r: RouterId, prefix: &Prefix<A>) {
        self.originated[r].retain(|p| p != prefix);
        self.ribs[r].best.remove(prefix);
        // Synchronous-round path vector has no explicit withdraw
        // messages here; purge the prefix everywhere whose best path
        // originates at r (the paper's routing substrate needs only the
        // converged states).
        for rib in &mut self.ribs {
            rib.best.retain(|p, (route, _)| !(p == prefix && route.origin() == r));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_trie::Ip4;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    /// Line of 4 routers, two ASes: {0,1} and {2,3}. Router 0 and 3
    /// originate address space.
    fn two_as_line(aggregation: Aggregation) -> PathVector<Ip4> {
        let topo = Topology::line(4);
        let as_of = vec![1, 1, 2, 2];
        let originated = vec![
            vec![p("10.0.0.0/16"), p("10.0.1.0/24"), p("10.0.2.0/24")],
            vec![],
            vec![],
            vec![p("20.0.0.0/16"), p("20.0.5.0/24")],
        ];
        PathVector::new(topo, as_of, originated, aggregation)
    }

    #[test]
    fn converges_on_a_line() {
        let mut pv = two_as_line(Aggregation::None);
        let rounds = pv.converge(32).expect("must converge");
        assert!(rounds <= 6, "took {rounds} rounds");
        // Everyone knows everything without aggregation.
        for r in 0..4 {
            assert_eq!(pv.ribs()[r].prefixes().len(), 5, "router {r}");
        }
        // Next hops point the right way.
        assert_eq!(pv.ribs()[1].next_hop(&p("20.0.0.0/16")), Some(Some(2)));
        assert_eq!(pv.ribs()[2].next_hop(&p("10.0.0.0/16")), Some(Some(1)));
        assert_eq!(pv.ribs()[0].next_hop(&p("10.0.0.0/16")), Some(None));
    }

    #[test]
    fn paths_are_loop_free() {
        let mut pv = PathVector::new(
            Topology::ring(6),
            vec![1; 6],
            (0..6).map(|i| vec![Prefix::new(Ip4((i as u32) << 24), 8)]).collect(),
            Aggregation::None,
        );
        pv.converge(32).expect("must converge");
        for rib in pv.ribs() {
            for (route, _) in rib.best.values() {
                let mut seen = route.path.clone();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), route.path.len(), "loop in {:?}", route.path);
            }
        }
    }

    #[test]
    fn ring_prefers_the_short_side() {
        let mut pv = PathVector::new(
            Topology::ring(6),
            vec![1; 6],
            (0..6).map(|i| vec![Prefix::new(Ip4((i as u32 + 1) << 24), 8)]).collect(),
            Aggregation::None,
        );
        pv.converge(32).unwrap();
        // Router 1's route to router 5's prefix goes via 0 (2 hops), not
        // via 2-3-4 (4 hops).
        let (route, nh) = &pv.ribs()[1].best[&Prefix::new(Ip4(6 << 24), 8)];
        assert_eq!(*nh, Some(0));
        assert_eq!(route.path.len(), 2);
    }

    #[test]
    fn border_aggregation_hides_specifics_outside_the_as() {
        let mut pv = two_as_line(Aggregation::OwnAtBorder(16));
        pv.converge(32).expect("must converge");
        // Inside AS 1, router 1 sees 10.0/16 plus both /24 specifics.
        let r1: Vec<String> =
            pv.ribs()[1].prefixes().iter().map(|q| q.to_string()).collect();
        assert!(r1.contains(&"10.0.1.0/24".to_owned()), "{r1:?}");
        // Outside (router 2, AS 2), only the /16 aggregate of AS 1.
        let r2: Vec<String> =
            pv.ribs()[2].prefixes().iter().map(|q| q.to_string()).collect();
        assert!(r2.contains(&"10.0.0.0/16".to_owned()), "{r2:?}");
        assert!(!r2.iter().any(|s| s.ends_with("/24") && s.starts_with("10.")), "{r2:?}");
        // And once exported, never re-aggregated: router 3 still sees
        // the /16 (not some shorter form).
        assert!(pv.ribs()[3].prefixes().contains(&p("10.0.0.0/16")));
    }

    #[test]
    fn neighbor_tables_are_similar_inside_an_as() {
        let (topo, edges) = Topology::backbone(4, 2);
        let n = topo.len();
        let mut originated = vec![Vec::new(); n];
        for (i, &e) in edges.iter().enumerate() {
            let block = (i as u32 + 1) << 20;
            originated[e] = (0..8)
                .map(|j| Prefix::new(Ip4(block | (j << 8)), 24))
                .collect();
        }
        let mut pv = PathVector::new(topo, vec![1; n], originated, Aggregation::None);
        pv.converge(64).expect("must converge");
        // Any two adjacent core routers hold identical prefix sets.
        let a = pv.ribs()[0].prefixes();
        let b = pv.ribs()[1].prefixes();
        assert_eq!(a, b, "converged neighbor tables must agree on prefixes");
        assert_eq!(a.len(), 8 * edges.len());
    }

    #[test]
    fn announce_and_withdraw_reconverge() {
        let mut pv = two_as_line(Aggregation::None);
        pv.converge(32).unwrap();
        pv.announce(3, p("20.0.9.0/24"));
        pv.converge(32).expect("reconverges after announce");
        assert_eq!(pv.ribs()[0].next_hop(&p("20.0.9.0/24")), Some(Some(1)));

        pv.withdraw(3, &p("20.0.9.0/24"));
        pv.converge(32).expect("reconverges after withdraw");
        for r in 0..4 {
            assert!(
                !pv.ribs()[r].prefixes().contains(&p("20.0.9.0/24")),
                "router {r} kept a withdrawn route"
            );
        }
    }

    #[test]
    fn originated_routes_are_sticky() {
        let mut pv = two_as_line(Aggregation::None);
        pv.converge(32).unwrap();
        // Router 0 must still prefer its own origination of 10.0/16.
        assert_eq!(pv.ribs()[0].next_hop(&p("10.0.0.0/16")), Some(None));
    }
}
