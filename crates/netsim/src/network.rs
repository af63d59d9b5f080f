//! The simulated network: address plan, per-router forwarding tables and
//! per-link clue engines.
//!
//! The build models how real tables acquire the structure the paper
//! depends on:
//!
//! * every **origin** router owns a disjoint address block and advertises
//!   `specifics_per_origin` long prefixes inside it;
//! * routers install each origin's space at a *detail level that decays
//!   with distance* — nearby routers hold the full specifics, the
//!   backbone holds only aggregates. This is Section 3's BGP-aggregation
//!   story, and it is exactly what produces the paper's Figure 1 shape:
//!   the best matching prefix of a packet grows as it approaches its
//!   destination, and clue work concentrates at the detail boundaries;
//! * the clue set a router keeps for an incoming link is precisely “the
//!   prefixes the upstream router routes through me” (Section 2's trust
//!   argument).

use std::collections::HashMap;

use clue_core::{ClueEngine, ClueHeader, EngineConfig};
use clue_trie::{Address, BinaryTrie, Cost, Prefix};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

use crate::topology::{RouteTree, RouterId, Topology};

/// A forwarding decision target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hop {
    /// The prefix terminates here (this router originates it).
    Local,
    /// Forward to this neighbor.
    Via(RouterId),
}

/// How much detail a router installs for an origin, by hop distance:
/// `(max_distance_inclusive, installed_prefix_length)`, checked in order.
pub(crate) type DetailBands = Vec<(usize, u8)>;

/// Address-plan and engine configuration for [`Network::build`].
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Routers that originate address space (typically the topology's
    /// edge routers).
    pub origins: Vec<RouterId>,
    /// Long prefixes advertised per origin.
    pub specifics_per_origin: usize,
    /// Length of the advertised specifics.
    pub(crate) specific_len: u8,
    /// Disjointness length of origin blocks (every band length must be
    /// ≥ this; supports `2^block_len` origins).
    pub(crate) block_len: u8,
    /// Distance-decaying detail bands.
    pub bands: DetailBands,
    /// Clue-engine configuration used by every participating router.
    pub(crate) engine: EngineConfig,
    /// Fraction of routers that participate in the clue scheme
    /// (Section 5.3's heterogeneous deployment); selected by seed.
    pub participation: f64,
    /// Routers designated as backbone/core (used by the Section 5.4
    /// load-shifting mode).
    pub core: Vec<RouterId>,
    /// Section 5.4: senders perform the next router's lookup themselves
    /// when forwarding *into the core*, so core lookups are final.
    pub shift_work_to_edges: bool,
    /// Section 5.4's aggressive variant (“reducing the aggregation”):
    /// edge (origin) routers install full-detail specifics for *every*
    /// origin, so the clue they stamp is final at every core router —
    /// the backbone coasts at one access while the periphery pays for
    /// the deep lookups.
    pub edge_detail: bool,
    /// Put an LRU cache of this many entries in front of every clue
    /// table (Section 3.5); `None` = no caching.
    pub(crate) cache_capacity: Option<usize>,
    /// RNG seed (address plan + participation draw).
    pub seed: u64,
}

impl NetworkConfig {
    /// Defaults mirroring the paper's environment: /24 specifics,
    /// aggregation to /20 then /14 with distance, full participation.
    pub fn new(origins: Vec<RouterId>, engine: EngineConfig) -> Self {
        NetworkConfig {
            origins,
            specifics_per_origin: 40,
            specific_len: 24,
            block_len: 14,
            bands: vec![(1, 24), (3, 20), (usize::MAX, 14)],
            engine,
            participation: 1.0,
            core: Vec::new(),
            shift_work_to_edges: false,
            edge_detail: false,
            cache_capacity: None,
            seed: 0,
        }
    }
}

/// One simulated router.
#[derive(Debug)]
pub struct RouterNode<A: Address> {
    /// The forwarding table (value = forwarding decision).
    pub fib: BinaryTrie<A, Hop>,
    /// Clue engines, one per incoming neighbor (participants only).
    pub(crate) engines: HashMap<RouterId, ClueEngine<A>>,
    /// The clue-less engine used for packets with no usable clue.
    pub(crate) base: ClueEngine<A>,
    /// Whether this router participates in the clue scheme.
    pub(crate) participates: bool,
}

/// One hop of a packet's journey.
#[derive(Debug, Clone)]
pub struct HopRecord<A: Address> {
    /// The router doing the lookup.
    pub router: RouterId,
    /// The BMP found here.
    pub bmp: Option<Prefix<A>>,
    /// Memory accesses this router spent on its own lookup.
    pub cost: Cost,
    /// Extra accesses spent resolving the packet in the *next* router's
    /// table under the Section 5.4 load-shifting mode.
    pub(crate) shift_cost: Cost,
    /// Whether this router used a clue for the lookup.
    pub used_clue: bool,
}

/// A packet's full journey.
#[derive(Debug, Clone)]
pub struct PathTrace<A: Address> {
    /// Per-hop records, source first.
    pub hops: Vec<HopRecord<A>>,
    /// `true` iff the packet reached a router that originates its BMP.
    pub delivered: bool,
}

impl<A: Address> PathTrace<A> {
    /// Total memory accesses along the path (own + shifted work).
    pub fn total_cost(&self) -> u64 {
        self.hops.iter().map(|h| h.cost.total() + h.shift_cost.total()).sum()
    }

    /// The per-hop work (own + shifted) — the paper's Figure 1 bottom
    /// curve.
    pub fn work(&self) -> Vec<u64> {
        self.hops.iter().map(|h| h.cost.total() + h.shift_cost.total()).collect()
    }
}

/// The simulated network.
#[derive(Debug)]
pub struct Network<A: Address> {
    topology: Topology,
    config: NetworkConfig,
    routers: Vec<RouterNode<A>>,
    /// Specific prefixes per origin (parallel to `config.origins`).
    specifics: Vec<Vec<Prefix<A>>>,
}

impl<A: Address> Network<A> {
    /// Builds the network: address plan, FIBs, and clue engines.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent (band lengths shorter
    /// than the block length, too many origins for the block length,
    /// out-of-range origin ids).
    pub fn build(topology: Topology, config: NetworkConfig) -> Self {
        assert!(
            config.bands.iter().all(|&(_, l)| l >= config.block_len && l <= A::BITS),
            "band lengths must lie in [block_len, address width]"
        );
        assert!(config.specific_len <= A::BITS);
        assert!(
            (config.origins.len() as u128) <= (1u128 << config.block_len.min(64)),
            "too many origins for the block length"
        );
        assert!(config.origins.iter().all(|&o| o < topology.len()));
        assert!(!config.bands.is_empty(), "need at least one detail band");

        let mut rng = StdRng::seed_from_u64(config.seed);

        // Address plan: disjoint blocks, random specifics inside.
        let specifics: Vec<Vec<Prefix<A>>> = (0..config.origins.len())
            .map(|oi| {
                let block: u128 = (oi as u128) << (A::BITS - config.block_len) as u32;
                let span = (config.specific_len - config.block_len) as u32;
                let mut set = std::collections::BTreeSet::new();
                let mut guard = 0;
                while set.len() < config.specifics_per_origin && guard < 10_000 {
                    guard += 1;
                    let noise: u128 = rng.random::<u64>() as u128;
                    let inner = if span == 0 { 0 } else { noise & ((1u128 << span) - 1) };
                    let bits = block | (inner << (A::BITS - config.specific_len) as u32);
                    set.insert(Prefix::new(A::from_u128(bits), config.specific_len));
                }
                set.into_iter().collect()
            })
            .collect();

        // Shortest-path trees toward every origin.
        let route_trees: Vec<RouteTree> =
            config.origins.iter().map(|&o| topology.routes_toward(o)).collect();

        let band_len = |dist: usize| -> u8 {
            config
                .bands
                .iter()
                .find(|&&(max, _)| dist <= max)
                .map(|&(_, l)| l)
                .unwrap_or_else(|| config.bands.last().expect("non-empty bands").1)
        };

        // FIBs: per router, per origin, the origin's specifics truncated
        // to this router's band (duplicates collapse into one aggregate).
        let mut fibs: Vec<BinaryTrie<A, Hop>> =
            (0..topology.len()).map(|_| BinaryTrie::new()).collect();
        for (oi, tree) in route_trees.iter().enumerate() {
            for (r, fib) in fibs.iter_mut().enumerate() {
                let Some(dist) = tree.distance(r) else { continue };
                let hop = match tree.next_hop[r] {
                    None => Hop::Local,
                    Some(nh) => Hop::Via(nh),
                };
                let len = if config.edge_detail && config.origins.contains(&r) {
                    config.specific_len
                } else {
                    band_len(dist)
                };
                for s in &specifics[oi] {
                    fib.insert(s.truncate(len), hop);
                }
            }
        }

        // Participation draw.
        let participates: Vec<bool> =
            (0..topology.len()).map(|_| rng.random_bool(config.participation)).collect();

        Self::assemble(topology, config, fibs, participates, specifics)
    }

    /// Builds a network from externally computed FIBs — e.g. the
    /// converged RIBs of [`crate::PathVector`] — instead of the built-in
    /// distance-band address plan. Per-link clue engines are constructed
    /// the same way: the clue set for the link `nb → r` is exactly the
    /// prefixes `nb` routes through `r`.
    ///
    /// `config.origins` and the matching `specifics` drive
    /// [`Self::random_destination`]; the band/plan fields of `config`
    /// are ignored.
    pub fn from_fibs(
        topology: Topology,
        config: NetworkConfig,
        fibs: Vec<BinaryTrie<A, Hop>>,
        specifics: Vec<Vec<Prefix<A>>>,
    ) -> Self {
        assert_eq!(fibs.len(), topology.len(), "one FIB per router");
        assert_eq!(
            specifics.len(),
            config.origins.len(),
            "one specifics list per origin"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let participates: Vec<bool> =
            (0..topology.len()).map(|_| rng.random_bool(config.participation)).collect();
        Self::assemble(topology, config, fibs, participates, specifics)
    }

    /// Builds a network from a **converged** path-vector instance: FIBs
    /// come from the protocol's RIBs, origins/specifics from its
    /// originated prefixes.
    pub fn from_path_vector(pv: &crate::PathVector<A>, mut config: NetworkConfig) -> Self {
        let topology = pv.topology().clone();
        let fibs: Vec<BinaryTrie<A, Hop>> = pv
            .ribs()
            .iter()
            .map(|rib| {
                rib.best
                    .iter()
                    .map(|(p, (_, nh))| (*p, nh.map_or(Hop::Local, Hop::Via)))
                    .collect()
            })
            .collect();
        let (origins, specifics): (Vec<RouterId>, Vec<Vec<Prefix<A>>>) = (0..topology.len())
            .filter(|&r| !pv.originated(r).is_empty())
            .map(|r| (r, pv.originated(r).to_vec()))
            .unzip();
        config.origins = origins;
        Self::from_fibs(topology, config, fibs, specifics)
    }

    fn assemble(
        topology: Topology,
        config: NetworkConfig,
        fibs: Vec<BinaryTrie<A, Hop>>,
        participates: Vec<bool>,
        specifics: Vec<Vec<Prefix<A>>>,
    ) -> Self {
        // Engines: per participating router, one per incoming neighbor,
        // with the clue set = the neighbor's prefixes routed through us.
        // Built before the FIBs are moved into their routers, because a
        // router's engines read its *neighbors'* FIBs.
        type Built<A> = Vec<(ClueEngine<A>, HashMap<RouterId, ClueEngine<A>>)>;
        let built: Built<A> = (0..topology.len())
            .map(|r| {
                let own: Vec<Prefix<A>> = fibs[r].prefixes().collect();
                let base = ClueEngine::precomputed(&[], &own, config.engine);
                let mut engines = HashMap::new();
                if participates[r] {
                    for &nb in topology.neighbors(r) {
                        let mut clues: Vec<Prefix<A>> = fibs[nb]
                            .iter()
                            .filter(|(_, _, hop)| **hop == Hop::Via(r))
                            .map(|(_, p, _)| p)
                            .collect();
                        if config.shift_work_to_edges {
                            // Section 5.4 senders stamp *this* router's
                            // own BMP as the clue, so the table must
                            // cover the router's own prefixes too.
                            clues.extend(own.iter().copied());
                            clues.sort_unstable();
                            clues.dedup();
                        }
                        if !clues.is_empty() {
                            let mut engine =
                                ClueEngine::precomputed(&clues, &own, config.engine);
                            if let Some(cap) = config.cache_capacity {
                                engine.enable_cache(cap);
                            }
                            engines.insert(nb, engine);
                        }
                    }
                }
                (base, engines)
            })
            .collect();

        let routers: Vec<RouterNode<A>> = built
            .into_iter()
            .zip(fibs)
            .zip(&participates)
            .map(|(((base, engines), fib), &participates)| RouterNode {
                fib,
                engines,
                base,
                participates,
            })
            .collect();

        Network { topology, config, routers, specifics }
    }

    /// The underlying topology.
    pub(crate) fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The build configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The routers.
    pub fn routers(&self) -> &[RouterNode<A>] {
        &self.routers
    }

    /// A random destination address covered by origin `i`'s space.
    pub fn random_destination(&self, i: usize, rng: &mut StdRng) -> A {
        let s = self.specifics[i].choose(rng).expect("origin has specifics");
        let span = (A::BITS - s.len()) as u32;
        let host =
            if span == 0 { 0 } else { (rng.random::<u64>() as u128) & ((1u128 << span) - 1) };
        A::from_u128(s.bits().to_u128() | host)
    }

    /// Forwards one packet from `src` to `dest`, recording per-hop BMPs
    /// and costs. This is the end-to-end distributed-lookup procedure:
    /// each participating router consults its clue engine for the
    /// incoming link and stamps its own BMP as the outgoing clue;
    /// non-participants do a full lookup and *relay* the incoming clue
    /// unchanged (Section 5.3).
    pub fn route_packet(&mut self, src: RouterId, dest: A) -> PathTrace<A> {
        let mut hops = Vec::new();
        let mut header = ClueHeader::none();
        let mut prev: Option<RouterId> = None;
        let mut cur = src;
        let mut delivered = false;
        let max_hops = self.topology.len() * 2 + 4;

        for _ in 0..max_hops {
            let shift = self.config.shift_work_to_edges;
            let mut cost = Cost::new();
            let node = &mut self.routers[cur];
            let used_clue = node.participates
                && prev.is_some_and(|p| node.engines.contains_key(&p))
                && header.clue.is_some();
            let bmp = if used_clue {
                let engine = node
                    .engines
                    .get_mut(&prev.expect("used_clue implies prev"))
                    .expect("used_clue implies engine");
                engine.lookup_with_header(dest, &header, &mut cost)
            } else {
                node.base.common_lookup(dest, &mut cost)
            };

            let next = bmp.and_then(|p| node.fib.get(&p)).map(|r| *node.fib.value(r));
            let participates = node.participates;

            // Outgoing clue: participants stamp their BMP. Under the
            // Section 5.4 load-shifting mode a sender forwarding into
            // the core resolves the packet in the *core router's* table
            // itself — continuing from its own BMP, so the extra work is
            // just the detail gap — and stamps that BMP, guaranteeing
            // the core lookup is final. The shifted work is accounted
            // separately.
            let mut shift_cost = Cost::new();
            if participates {
                if let Some(p) = bmp {
                    header = ClueHeader::with_clue(&p);
                }
                if shift {
                    if let Some(Hop::Via(nh)) = next {
                        if self.config.core.contains(&nh) {
                            let nb_bmp = {
                                let nb_fib = &self.routers[nh].fib;
                                match bmp.and_then(|p| nb_fib.node_of_prefix(&p)) {
                                    Some(start) => nb_fib
                                        .lookup_from(start, dest, &mut shift_cost)
                                        .map(|r| nb_fib.prefix(r)),
                                    None => nb_fib
                                        .lookup_counted(dest, &mut shift_cost)
                                        .map(|r| nb_fib.prefix(r)),
                                }
                            };
                            if let Some(p) = nb_bmp {
                                header = ClueHeader::with_clue(&p);
                            }
                        }
                    }
                }
            }

            hops.push(HopRecord { router: cur, bmp, cost, shift_cost, used_clue });

            match next {
                Some(Hop::Local) => {
                    delivered = true;
                    break;
                }
                Some(Hop::Via(nh)) => {
                    prev = Some(cur);
                    cur = nh;
                }
                None => break, // no route: dropped
            }
        }
        PathTrace { hops, delivered }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_core::Method;
    use clue_lookup::Family;

    fn line_network(method: Method) -> Network<clue_trie::Ip4> {
        let topo = Topology::line(6);
        let mut cfg = NetworkConfig::new(vec![0, 5], EngineConfig::new(Family::Regular, method));
        cfg.specifics_per_origin = 10;
        cfg.seed = 7;
        Network::build(topo, cfg)
    }

    #[test]
    fn packets_are_delivered_end_to_end() {
        let mut net = line_network(Method::Advance);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let dest = net.random_destination(1, &mut rng); // origin router 5
            let trace = net.route_packet(0, dest);
            assert!(trace.delivered, "undelivered: {trace:?}");
            assert_eq!(trace.hops.last().unwrap().router, 5);
            assert_eq!(trace.hops.len(), 6);
        }
    }

    #[test]
    fn bmp_lengths_grow_toward_the_destination() {
        let mut net = line_network(Method::Advance);
        let mut rng = StdRng::seed_from_u64(2);
        let dest = net.random_destination(1, &mut rng);
        let trace = net.route_packet(0, dest);
        // The per-hop BMP lengths: the paper's Figure 1 top curve.
        let lens: Vec<u8> = trace.hops.iter().map(|h| h.bmp.map_or(0, |p| p.len())).collect();
        assert!(lens.windows(2).all(|w| w[0] <= w[1]), "non-monotone {lens:?}");
        assert!(lens[0] < *lens.last().unwrap(), "no growth at all: {lens:?}");
        assert_eq!(*lens.last().unwrap(), 24);
    }

    #[test]
    fn clue_routing_beats_clueless_after_first_hop() {
        let mut net = line_network(Method::Advance);
        let mut rng = StdRng::seed_from_u64(3);
        let dest = net.random_destination(1, &mut rng);
        let trace = net.route_packet(0, dest);
        // First hop has no clue: full lookup.
        assert!(!trace.hops[0].used_clue);
        assert!(trace.hops[0].cost.total() > 5);
        // Later hops use clues, most of them final in 1 access.
        let clue_hops = &trace.hops[1..];
        assert!(clue_hops.iter().all(|h| h.used_clue));
        let ones = clue_hops.iter().filter(|h| h.cost.total() == 1).count();
        assert!(ones * 2 >= clue_hops.len(), "too few final hops: {:?}", trace.work());
    }

    #[test]
    fn every_hop_bmp_matches_a_reference_lookup() {
        let mut net = line_network(Method::Advance);
        let mut rng = StdRng::seed_from_u64(4);
        for src in [0usize, 2] {
            for oi in [0usize, 1] {
                let dest = net.random_destination(oi, &mut rng);
                let trace = net.route_packet(src, dest);
                for h in &trace.hops {
                    let fib = &net.routers()[h.router].fib;
                    let want = fib.lookup(dest).map(|r| fib.prefix(r));
                    assert_eq!(h.bmp, want, "router {} clue divergence", h.router);
                }
            }
        }
    }

    #[test]
    fn nonparticipants_relay_clues() {
        let topo = Topology::line(6);
        let mut cfg =
            NetworkConfig::new(vec![0, 5], EngineConfig::new(Family::Regular, Method::Advance));
        cfg.specifics_per_origin = 10;
        cfg.seed = 9;
        cfg.participation = 1.0;
        let mut net: Network<clue_trie::Ip4> = Network::build(topo, cfg);
        // Knock out router 2 manually for determinism.
        net.routers[2].participates = false;
        let mut rng = StdRng::seed_from_u64(5);
        let dest = net.random_destination(1, &mut rng);
        let trace = net.route_packet(0, dest);
        assert!(trace.delivered);
        let h2 = &trace.hops[2];
        assert_eq!(h2.router, 2);
        assert!(!h2.used_clue);
        // Router 3 still gets a clue — relayed from router 1 — and its
        // result stays correct.
        let h3 = &trace.hops[3];
        let fib = &net.routers()[3].fib;
        assert_eq!(h3.bmp, fib.lookup(dest).map(|r| fib.prefix(r)));
    }

    #[test]
    fn load_shift_makes_core_lookups_final() {
        let (topo, edges) = Topology::backbone(4, 1);
        let engine = EngineConfig::new(Family::Regular, Method::Advance);
        let mut cfg = NetworkConfig::new(edges.clone(), engine);
        cfg.specifics_per_origin = 8;
        cfg.core = vec![0, 1, 2, 3];
        cfg.shift_work_to_edges = true;
        cfg.seed = 11;
        let mut net: Network<clue_trie::Ip4> = Network::build(topo, cfg);
        let mut rng = StdRng::seed_from_u64(6);
        let dest = net.random_destination(3, &mut rng); // last edge's space
        let trace = net.route_packet(edges[0], dest);
        assert!(trace.delivered);
        let mut core_clue_hops = 0;
        for h in &trace.hops {
            if net.config().core.contains(&h.router) && h.used_clue {
                core_clue_hops += 1;
                assert_eq!(
                    h.cost.total(),
                    1,
                    "core router {} own lookup not final: {trace:?}",
                    h.router
                );
            }
        }
        assert!(core_clue_hops > 0, "no core hops exercised: {trace:?}");
        // The shifted work exists and sits on the senders.
        assert!(trace.hops.iter().any(|h| h.shift_cost.total() > 0));
    }

    #[test]
    fn edge_detail_gives_edges_full_specifics() {
        let (topo, edges) = Topology::backbone(4, 1);
        let engine = EngineConfig::new(Family::Regular, Method::Advance);
        let mut cfg = NetworkConfig::new(edges.clone(), engine);
        cfg.specifics_per_origin = 6;
        cfg.edge_detail = true;
        cfg.seed = 13;
        let mut net: Network<clue_trie::Ip4> = Network::build(topo, cfg);
        // The source edge router's first lookup already resolves the
        // destination's full /24 — no aggregation at the edge.
        let mut rng = StdRng::seed_from_u64(14);
        let dest = net.random_destination(3, &mut rng);
        let trace = net.route_packet(edges[0], dest);
        assert!(trace.delivered);
        assert_eq!(trace.hops[0].bmp.map(|p| p.len()), Some(24), "{trace:?}");
    }

    #[test]
    fn per_link_caches_record_hits() {
        let topo = Topology::line(4);
        let engine = EngineConfig::new(Family::Patricia, Method::Advance);
        let mut cfg = NetworkConfig::new(vec![0, 3], engine);
        cfg.specifics_per_origin = 6;
        cfg.cache_capacity = Some(16);
        cfg.seed = 15;
        let mut net: Network<clue_trie::Ip4> = Network::build(topo, cfg);
        let mut rng = StdRng::seed_from_u64(16);
        let dest = net.random_destination(1, &mut rng);
        let first = net.route_packet(0, dest);
        let second = net.route_packet(0, dest);
        assert!(first.delivered && second.delivered);
        // The repeat packet's clue hops come from the caches: strictly
        // fewer slow accesses.
        let slow = |t: &PathTrace<clue_trie::Ip4>| {
            t.hops.iter().map(|h| h.cost.slow_total()).sum::<u64>()
        };
        assert!(slow(&second) < slow(&first), "{} !< {}", slow(&second), slow(&first));
        let stats = net.routers()[1]
            .engines
            .get(&0)
            .and_then(|e| e.cache_stats())
            .expect("cache enabled");
        assert!(stats.hits >= 1);
    }

    #[test]
    fn unreachable_destination_is_dropped() {
        let mut net = line_network(Method::Advance);
        let dest = clue_trie::Ip4(u32::MAX); // outside every origin block
        let trace = net.route_packet(0, dest);
        assert!(!trace.delivered);
        assert_eq!(trace.hops.len(), 1);
        assert_eq!(trace.hops[0].bmp, None);
    }
}
