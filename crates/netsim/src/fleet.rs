//! Fleet-scale topology simulator with clue-coverage analytics.
//!
//! Where [`Network`](crate::Network) studies one clue deployment in a
//! handful of routers, this module asks the *deployment* question:
//! what does "Routing with a Clue" buy across an internet-like fleet
//! of thousands of routers?  It layers three things on the existing
//! pieces:
//!
//! * **Internet-like topologies** — the hierarchical transit-stub and
//!   preferential-attachment generators of
//!   [`Topology`](crate::Topology), sized to a target router count;
//! * **ECMP forwarding** — every origin gets an [`EcmpTree`] keeping
//!   *all* shortest next hops, and each flow picks one per hop by a
//!   hash of its flow key and hop position (never of router ids, so
//!   choices survive renumbering — see `ecmp_renumbering` proptests);
//! * **Stride-compiled routers behind epoch cells** — every router's
//!   forwarding state is the serving runtime's compiled clue router
//!   ([`ClueRouter`] on [`StrideEngine`]: one clue-less base engine
//!   plus one precomputed clue engine per incoming link, their tags
//!   resolving to origins). The router holds one stride arena: each
//!   link engine shares the base engine's root array, inner nodes and
//!   tag dictionary and owns only its clue buckets and the binary
//!   nodes carrying its Claim-1 bits ([`Fleet::memory`] counts the
//!   parts). It is compiled once and published through an
//!   [`EpochCell`], so a churn builder can republish routers
//!   barrier-free while serving workers keep routing off pinned
//!   snapshots.
//!
//! The packet leg runs on the serving runtime's job driver. Each call
//! first sorts its flows by destination, so consecutive flows cross
//! the same routers and engine lines, then deals 1024-flow runs of
//! that order round-robin to the workers as jobs, with per-worker
//! integer accumulators merged after the run. Each flow's drawing RNG is a
//! private SplitMix64-seeded stream of its *index*, and every merge is
//! a commutative integer add or max, so neither the walk order nor the
//! job cut can change a result: [`Fleet::run_flows`] is bit-identical
//! to [`Fleet::run_flows_sequential`] (index order) at any worker
//! count — the `--check` mode of `clue fleet` asserts exactly that.
//! Every leg — packet, churn and adversarial — walks flows through one
//! hop-by-hop walk; an honest flow is simply one with no attack. Each
//! hop runs [`ClueRouter`]'s per-hop rule, the runtime's; the walk adds
//! the fleet's own concerns around it: link slots, quarantine
//! admission, baseline pricing, ECMP, the attack and per-link
//! attribution.
//!
//! What comes out is the fleet view the paper never had room for:
//! per-link clue hit / problematic / clueless rates, per-hop-position
//! and end-to-end memory-reference savings against a clue-less
//! baseline run over the *same* hops, and churn-induced staleness per
//! router. [`FleetTelemetry`] (`clue_fleet_*`) carries it to a scrape.

use std::time::Instant;

use clue_core::{
    BackendError, BatchSignals, ClueEngine, ClueHeader, EngineConfig, EpochCell, EpochGuard,
    EpochReader, Method, ReputationBook, ReputationConfig, StrideConfig, StrideEngine,
};
use clue_lookup::Family;
use clue_tablegen::{rebase_into_block, synthesize_ipv4, ZipfSampler};
use clue_telemetry::LookupClass;
use clue_trie::{Address, Cost, Ip4, Prefix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::adversary::{
    deepest_mismatch_clue, flood_clue, AdversaryTelemetry, AttackProfile, ReputationTelemetry,
};
use crate::faults::{DegradationTelemetry, FaultClass};
use crate::runtime::{drive_jobs, drive_while, expect_workers, ClueRouter, EngineMemory};
use crate::sim::packet_seed;
use crate::topology::{EcmpTree, RouterId, Topology};

/// Origin sentinel for a tag whose prefix is not in the router's FIB.
const NO_ORIGIN: u32 = u32::MAX;

/// Salt separating the flow-drawing streams from the seed's other
/// uses (topology build, participation draw, churn).
const FLOW_SALT: u64 = 0x5EED_F10E;

/// Stride shape of every router's compiled engines. A fleet expands
/// one stride arena per router; each of its `2·links` link engines
/// shares its router's and owns only its binary nodes and clue
/// buckets. The root array is `2^initial_bits` slots per router, so
/// it stays small.
const FLEET_STRIDE: StrideConfig = StrideConfig { initial_bits: 8, inner_bits: 4 };

/// Flows per job of the sharded walk. Every job pins one epoch guard
/// per router, so short jobs pay that pinning on every few flows;
/// 100k flows still make ~100 jobs, plenty to balance 8 workers.
const FLOW_JOB: usize = 1024;

/// The flow index of a [`Fleet::flow_order`] key.
#[inline]
fn flow_index(key: u64) -> u64 {
    u64::from(key as u32)
}

/// Per-link outcome rows: hit / problematic / miss / clueless.
const LINK_HIT: usize = 0;
const LINK_PROBLEMATIC: usize = 1;
const LINK_MISS: usize = 2;
const LINK_CLUELESS: usize = 3;

/// Which topology family the fleet is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Hierarchical transit-stub (Zegura-style): transit domains in a
    /// ring, stub domains hanging off transit routers, some stubs
    /// multihomed.
    TransitStub,
    /// Preferential attachment (Barabási–Albert): heavy-tailed degree
    /// distribution with a few hub routers.
    Preferential,
}

/// Disjointness length of origin blocks.
const BLOCK_LEN: u8 = 14;

/// Distance-decaying detail bands `(max_distance, prefix_len)`, checked
/// in order; the last is the origin-block aggregate, so every router
/// can route every flow.
const BANDS: [(usize, u8); 3] = [(1, 24), (3, 20), (usize::MAX, BLOCK_LEN)];

/// Zipf exponent of the destination-locality draw over origins.
const ZIPF_EXPONENT: f64 = 0.9;

/// Configuration of a [`Fleet`] build.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Target router count; the generated topology has at least this
    /// many routers (transit-stub rounds up to whole stub domains).
    pub routers: usize,
    /// Topology family.
    pub topology: TopologyKind,
    /// Routers that originate address space (spread over the stub /
    /// low-degree routers). Capped at `2^BLOCK_LEN`.
    pub origins: usize,
    /// Specifics advertised per origin (before rebase dedup).
    pub specifics_per_origin: usize,
    /// Clue-engine configuration for the per-link engines.
    pub engine: EngineConfig,
    /// Fraction of routers that participate in the clue scheme
    /// (Section 5.3's heterogeneous deployment).
    pub participation: f64,
    /// Seed for topology, address plan, participation and flows.
    pub(crate) seed: u64,
}

impl FleetConfig {
    /// Defaults for a fleet of at least `routers` routers: transit-stub
    /// topology, `routers/12` origins (8..=192), 6 specifics each in
    /// disjoint /14 blocks, detail decaying /24 → /20 → /14, Advance
    /// method, full participation, Zipf(0.9) destination locality.
    pub fn new(routers: usize, seed: u64) -> Self {
        FleetConfig {
            routers,
            topology: TopologyKind::TransitStub,
            origins: (routers / 12).clamp(8, 192),
            specifics_per_origin: 6,
            engine: EngineConfig::new(Family::Regular, Method::Advance),
            participation: 1.0,
            seed,
        }
    }
}

/// One synthetic flow: a source router, a destination address inside
/// some origin's block, and the flow key hashed for ECMP choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Flow {
    /// Router the flow enters the fleet at.
    pub(crate) src: RouterId,
    /// Destination address.
    pub(crate) dest: Ip4,
    /// Random flow key; the only flow input to ECMP tie-breaks.
    pub(crate) key: u64,
}

/// One router's compiled forwarding state, the value inside its
/// [`EpochCell`]: a clue-less base engine (`Method::Common`), the
/// baseline and the resolver for clueless hops; for participants, one
/// clue engine per incoming link over the base engine's arena, indexed
/// by the position of the upstream router in `topology.neighbors(r)`;
/// and tag codes that are origin indices ([`NO_ORIGIN`] when the tag
/// prefix left the FIB).
type StrideRouter = ClueRouter<Ip4, StrideEngine<Ip4>>;

clue_telemetry::bundle! {
    /// Telemetry for the fleet-scale simulator (`clue_fleet_*`).
    ///
    /// Both legs accumulate plain integers and flush here once at the
    /// end of a leg; nothing in this bundle is touched per packet.
    pub struct FleetTelemetry in "clue_fleet" {
        routers: Gauge = "Routers in the generated fleet topology",
        links: Gauge = "Undirected links in the generated fleet topology",
        flows_total: Counter = "Flows routed end to end",
        hops_total: Counter = "Router-hops walked across all flows",
        clue_hops_total: Counter = "Hops resolved through a per-link clue engine",
        delivered_total: Counter = "Flows delivered to their destination's origin router",
        link_hits_total: Counter = "Clued hops resolved final by the clue table (Case 2)",
        link_problematic_total: Counter =
            "Clued hops that ran a problematic-clue continuation (Case 3)",
        link_misses_total: Counter =
            "Clued hops whose clue was absent from the link's table (Case 1)",
        link_clueless_total: Counter =
            "Hops through a clue-capable link that carried no usable clue",
        clue_refs_total: Counter = "Memory references spent by the clue deployment",
        baseline_refs_total: Counter =
            "Memory references the clue-less baseline needs for the same hops",
        savings_ratio: Gauge = "Fleet-wide memory-reference savings (1 - clue/baseline)",
        /// One sample per directed link with clued traffic.
        link_hit_rate_pct: Histogram(&[10, 25, 50, 70, 80, 90, 95, 99, 100]) =
            "Per-link clue hit rate in percent of clued lookups",
        churn_events_total: Counter = "Churn events applied by the fleet builder",
        republished_total: Counter = "Per-router engine-bundle publishes triggered by churn",
        /// Set once per churn leg, like every gauge here: `clue fleet`
        /// runs at most one leg.
        rebuild_us: Gauge =
            "Mean per-router engine-bundle rebuild latency of one churn leg, in microseconds",
        staleness_epochs: Gauge = "Worst epochs a pinned router \
            snapshot lagged the writer in one churn leg (0 = current)",
    }
}

impl FleetTelemetry {
    /// Records the fleet's topology: its router and link counts.
    pub fn record_topology(&self, fleet: &Fleet) {
        self.routers.set(fleet.router_count() as f64);
        self.links.set(fleet.link_count() as f64);
    }

    /// Flushes a run's statistics (and optionally a churn report)
    /// along with the fleet's topology.
    pub fn record_run(&self, fleet: &Fleet, stats: &FleetStats, churn: Option<&FleetChurnReport>) {
        self.record_topology(fleet);
        self.flows_total.add(stats.flows);
        self.hops_total.add(stats.hops);
        self.clue_hops_total.add(stats.clue_hops);
        self.delivered_total.add(stats.delivered);
        self.link_hits_total.add(stats.link_hits());
        self.link_problematic_total.add(stats.link_problematic());
        self.link_misses_total.add(stats.link_misses());
        self.link_clueless_total.add(stats.link_clueless());
        self.clue_refs_total.add(stats.clue_refs);
        self.baseline_refs_total.add(stats.baseline_refs);
        self.savings_ratio.set(stats.savings());
        for link in &stats.per_link {
            let clued = link.hits + link.problematic + link.misses;
            if let Some(pct) = (link.hits * 100).checked_div(clued) {
                self.link_hit_rate_pct.observe(pct);
            }
        }
        if let Some(c) = churn {
            self.churn_events_total.add(c.events);
            self.republished_total.add(c.republished);
            if c.republished > 0 {
                self.rebuild_us.set(c.rebuild_ns as f64 / 1e3 / c.republished as f64);
            }
            self.staleness_epochs.set(c.stats.max_staleness as f64);
        }
    }
}

/// The built fleet: topology, address plan, ECMP trees, and one
/// epoch-published `StrideRouter` per router.
pub struct Fleet {
    config: FleetConfig,
    topology: Topology,
    /// Origin index → the router originating that block.
    origin_routers: Vec<RouterId>,
    /// Router → origin index it originates, [`NO_ORIGIN`] otherwise.
    origin_of_router: Vec<u32>,
    /// Per-origin rebased specifics (sorted, disjoint across origins).
    specifics: Vec<Vec<Prefix<Ip4>>>,
    /// Per-origin ECMP shortest-path DAGs.
    ecmp: Vec<EcmpTree>,
    /// Routers flows may enter at (stub / low-degree routers).
    sources: Vec<RouterId>,
    /// Destination-locality sampler over origins.
    zipf: ZipfSampler,
    /// Per-router participation, drawn once at build.
    participates: Vec<bool>,
    /// Per-router compiled state behind epoch cells.
    cells: Vec<EpochCell<StrideRouter>>,
    /// Router → first dense directed-link slot (prefix sum of degree).
    link_base: Vec<u32>,
    /// Dense directed-link slot → upstream router.
    link_from: Vec<RouterId>,
}

/// Sizes a transit-stub build so the total reaches at least `target`.
fn transit_stub_shape(target: usize) -> (usize, usize, usize, usize) {
    let domains = (target / 300 + 2).clamp(2, 8);
    let transit_size = 4;
    let stub_size = 8;
    let transit = domains * transit_size;
    let per_transit_capacity = transit * stub_size;
    let stubs_per_transit =
        target.saturating_sub(transit).div_ceil(per_transit_capacity).max(1);
    (domains, transit_size, stubs_per_transit, stub_size)
}

impl Fleet {
    /// Builds the fleet: topology, per-origin specifics rebased into
    /// disjoint blocks, per-router FIBs with distance-decaying detail,
    /// ECMP trees, and every router's engine bundle compiled and
    /// published at epoch 0.
    pub fn build(config: FleetConfig) -> Result<Self, BackendError> {
        assert!(config.routers >= 2, "a fleet needs at least two routers");
        assert!(config.specifics_per_origin > 0, "origins must advertise something");
        let mut rng = StdRng::seed_from_u64(config.seed);

        // -- Topology and roles ---------------------------------------
        let (topology, mut sources) = match config.topology {
            TopologyKind::TransitStub => {
                let (d, ts, spt, ss) = transit_stub_shape(config.routers);
                Topology::transit_stub(d, ts, spt, ss, config.seed)
            }
            TopologyKind::Preferential => {
                let t = Topology::preferential_attachment(config.routers, 2, config.seed);
                // Flows enter at the fringe: routers of minimal degree.
                let min_deg =
                    (0..t.len()).map(|r| t.neighbors(r).len()).min().unwrap_or(0);
                let sources: Vec<RouterId> =
                    (0..t.len()).filter(|&r| t.neighbors(r).len() == min_deg).collect();
                (t, sources)
            }
        };
        if sources.is_empty() {
            sources = (0..topology.len()).collect();
        }
        let n = topology.len();

        // Origins: an even spread over the source routers.
        let origins = config.origins.clamp(1, 1 << BLOCK_LEN).min(sources.len());
        let origin_routers: Vec<RouterId> =
            (0..origins).map(|i| sources[i * sources.len() / origins]).collect();
        let mut origin_of_router = vec![NO_ORIGIN; n];
        for (oi, &r) in origin_routers.iter().enumerate() {
            origin_of_router[r] = oi as u32;
        }

        // -- Address plan ---------------------------------------------
        let min_len = BLOCK_LEN + 2;
        let max_len = 28.max(min_len);
        let specifics: Vec<Vec<Prefix<Ip4>>> = (0..origins)
            .map(|oi| {
                let raw = synthesize_ipv4(
                    config.specifics_per_origin,
                    config.seed ^ (oi as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                rebase_into_block(&raw, oi as u128, BLOCK_LEN, min_len, max_len)
            })
            .collect();
        let ecmp: Vec<EcmpTree> =
            origin_routers.iter().map(|&r| topology.ecmp_toward(r)).collect();

        // Destination locality over origins, drawn once at build time.
        let zipf = ZipfSampler::new(origins, ZIPF_EXPONENT, &mut rng);

        // -- Per-router FIBs ------------------------------------------
        let fibs: Vec<Vec<(Prefix<Ip4>, u32)>> = (0..n)
            .map(|r| router_fib(&specifics, &origin_of_router, &ecmp, r))
            .collect();

        // -- Participation --------------------------------------------
        let participates: Vec<bool> =
            (0..n).map(|_| rng.random_bool(config.participation.clamp(0.0, 1.0))).collect();

        // -- Dense directed-link indexing -----------------------------
        let mut link_base = Vec::with_capacity(n + 1);
        let mut link_from = Vec::new();
        let mut acc = 0u32;
        for r in 0..n {
            link_base.push(acc);
            for &nb in topology.neighbors(r) {
                link_from.push(nb);
                acc += 1;
            }
        }
        link_base.push(acc);

        // -- Compile and publish every router -------------------------
        let mut cells = Vec::with_capacity(n);
        for (r, &active) in participates.iter().enumerate() {
            let router = compile_router(&topology, &fibs, &ecmp, r, active, &config)?;
            cells.push(EpochCell::new(router));
        }

        Ok(Fleet {
            config,
            topology,
            origin_routers,
            origin_of_router,
            specifics,
            ecmp,
            sources,
            zipf,
            participates,
            cells,
            link_base,
            link_from,
        })
    }

    /// The build configuration.
    #[cfg(test)]
    pub(crate) fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The generated topology.
    #[cfg(test)]
    pub(crate) fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Routers in the fleet.
    pub fn router_count(&self) -> usize {
        self.topology.len()
    }

    /// Undirected links in the fleet.
    pub fn link_count(&self) -> usize {
        self.topology.link_count()
    }

    /// Directed links (potential clue attachment points).
    pub fn directed_link_count(&self) -> usize {
        self.link_from.len()
    }

    /// Origin routers, by origin index.
    pub fn origin_routers(&self) -> &[RouterId] {
        &self.origin_routers
    }

    /// Resident bytes of every router's current compiled state, each
    /// shared array counted once (`EngineMemory`).
    pub fn memory(&self) -> EngineMemory {
        self.readers()
            .iter_mut()
            .map(|reader| reader.pin().memory())
            .sum()
    }

    /// One registered epoch reader per router — a worker registers its
    /// set once and re-pins at batch boundaries.
    fn readers(&self) -> Vec<EpochReader<'_, StrideRouter>> {
        self.cells.iter().map(|c| c.reader()).collect()
    }

    /// Draws flow `index` of the seeded workload: a private RNG stream
    /// per index, so any order or sharding of the indices sees the same
    /// flows.
    pub(crate) fn draw_flow(&self, index: u64) -> Flow {
        let mut rng =
            StdRng::seed_from_u64(packet_seed(self.config.seed ^ FLOW_SALT, index));
        let src = self.sources[rng.random_range(0..self.sources.len())];
        let oi = self.zipf.sample(&mut rng).expect("a fleet has at least one origin");
        let specs = &self.specifics[oi];
        let p = specs[rng.random_range(0..specs.len())];
        let span = (Ip4::BITS - p.len()) as u32;
        let host = if span == 0 { 0 } else { (rng.random::<u64>() as u128) & ((1u128 << span) - 1) };
        let dest = Ip4::from_u128(p.bits().to_u128() | host);
        let key = rng.random::<u64>();
        Flow { src, dest, key }
    }

    /// Position of `upstream` in `router`'s neighbor list: the clue
    /// engine serving traffic from it, and `router`'s offset into the
    /// dense directed-link slots.
    #[inline]
    fn link_slot(&self, router: RouterId, upstream: RouterId) -> usize {
        self.topology
            .neighbors(router)
            .iter()
            .position(|&x| x == upstream)
            .expect("upstream is a neighbor of router")
    }

    /// Walks flow `index` ([`Self::draw_flow`]) hop by hop. Every hop
    /// runs the per-hop rule of [`ClueRouter`], the one the serving
    /// runtime's walk runs: pick the engine, resolve the BMP and its
    /// tag code (here an origin), stamp the BMP as the next hop's clue
    /// if the router participates. Clued hops additionally run the clue-less
    /// base lookup on the same (router, destination) to price the
    /// baseline — soundness guarantees both resolve the same BMP, so
    /// the baseline run walks the *same* path and the per-hop savings
    /// are exact.
    ///
    /// An honest flow has no `attack`. Under one, adversaries override
    /// the clue they stamp (deepest-mismatch crafting against the next
    /// router's own engine, or flooding garbage injected at the lookup
    /// boundary), links the round does not admit serve clue-less, and
    /// every clued hop is differentially checked — resolved BMP
    /// against the clue-less base lookup, cost against the soundness
    /// bound — while per-link [`BatchSignals`] accumulate in the
    /// tally for the reputation fold.
    fn route_flow(
        &self,
        guards: &[EpochGuard<'_, StrideRouter>],
        index: u64,
        acc: &mut FleetAccum,
        mut attack: Option<(&Attack<'_>, &mut AttackTally)>,
    ) {
        let flow = self.draw_flow(index);
        acc.flows += 1;
        let mut header = ClueHeader::none();
        // Flood clues never contain the destination, so the wire
        // cannot carry them: they ride this one-hop side channel, the
        // lookup-boundary injection a compromised engine would use.
        let mut forced: Option<Prefix<Ip4>> = None;
        let mut prev: Option<RouterId> = None;
        let mut cur = flow.src;
        // ECMP choices strictly decrease the distance to the origin,
        // so a walk can't loop; the cap is pure defence.
        let max_hops = self.topology.len() + 4;
        for pos in 0..max_hops {
            // Guards are pinned per job batch (the runtime's epoch
            // refresh at job boundaries): a hop served while the churn
            // builder has moved on counts as stale.
            let lag = guards[cur].lag();
            acc.max_staleness = acc.max_staleness.max(lag);
            acc.lagged_hops += u64::from(lag > 0);
            let node: &StrideRouter = &guards[cur];

            // Engine choice is the serving runtime's
            // ([`ClueRouter::engine`]). A link the round does not
            // admit — the quarantine switch — passes no slot, so its
            // hop serves clue-less.
            let slot = prev.map(|p| self.link_slot(cur, p));
            let link = slot.map(|s| self.link_base[cur] as usize + s);
            let clue = forced.take().or_else(|| header.decode(flow.dest));
            let admitted = match (&attack, link) {
                (Some((a, _)), Some(l)) => a.use_clues[l],
                _ => true,
            };
            let engine = node.engine(slot.filter(|_| admitted), clue);

            let mut cost = Cost::new();
            let (found, class) = node.lookup(engine, flow.dest, clue, &mut cost);

            // Baseline: what the same hop costs with no clue at all.
            let (base_found, base_cost) = match engine {
                Some(_) => {
                    let mut c = Cost::new();
                    let (f, _) = node.lookup(None, flow.dest, None, &mut c);
                    (f, c)
                }
                None => (found, cost),
            };

            // The differential check, in-walk: the clue-less lookup on
            // the same (router, destination) must resolve the same BMP
            // (soundness of the *decision*) and the clued cost may
            // exceed it by at most one probe (soundness of the
            // *cost*).
            if let (Some(_), Some((_, tally))) = (engine, attack.as_mut()) {
                if found.map(|(p, _)| p) != base_found.map(|(p, _)| p) {
                    tally.divergences += 1;
                }
                let overhead = cost.total().saturating_sub(base_cost.total());
                tally.overhead_max = tally.overhead_max.max(overhead);
                if overhead > 1 {
                    tally.bound_violations += 1;
                }
                let l = link.expect("a clue engine implies an incoming link");
                tally.signals[l].lookups += 1;
                tally.signals[l].malformed += u64::from(class == LookupClass::Malformed);
                tally.signals[l].overruns += u64::from(overhead >= 1);
            }

            // Per-link attribution (only hops that crossed a link).
            if let Some(l) = link {
                debug_assert_eq!(Some(self.link_from[l]), prev);
                let row = match (engine, class) {
                    (Some(_), LookupClass::Final) => LINK_HIT,
                    (Some(_), LookupClass::Continued) => LINK_PROBLEMATIC,
                    (Some(_), LookupClass::Miss) => LINK_MISS,
                    _ => LINK_CLUELESS,
                };
                acc.per_link[l][row] += 1;
            }

            acc.record_hop(pos, engine.is_some(), &cost, &base_cost);

            // No BMP, or one that left the FIB: nowhere to forward.
            let Some((bmp, origin)) = found.filter(|&(_, origin)| origin != NO_ORIGIN) else {
                acc.dropped += 1;
                return;
            };

            // Participants stamp their BMP as the next hop's clue;
            // non-participants relay the incoming header (Section 5.3).
            if node.participates {
                header = ClueHeader::with_clue(&bmp);
            }

            if self.origin_routers[origin as usize] == cur {
                acc.delivered += 1;
                return;
            }
            let Some(next) = self.ecmp[origin as usize].next_hop(cur, flow.key, pos) else {
                acc.dropped += 1;
                return;
            };

            // The attack: an adversary overrides what it just stamped.
            // Crafting happens *after* the next hop is known, because
            // the deepest-mismatch clue is priced against the next
            // router's own engine for this link — the strongest
            // table-aware attacker.
            if let Some((a, tally)) = attack.as_mut() {
                if a.hostile && a.adversaries[cur] {
                    tally.attacked_hops += 1;
                    match a.profile {
                        AttackProfile::Flooding => {
                            forced = Some(flood_clue(
                                flow.dest,
                                self.config.seed,
                                index * 64 + pos as u64,
                            ));
                            tally.floods += 1;
                        }
                        _ => {
                            // Crafted against the engine the next
                            // router runs for the clue just stamped.
                            let nnode: &StrideRouter = &guards[next];
                            let s = Some(self.link_slot(next, cur));
                            if let Some(e) = nnode.engine(s, Some(bmp)) {
                                let crafted = deepest_mismatch_clue(flow.dest, |c| {
                                    let mut cc = Cost::new();
                                    nnode.lookup(Some(e), flow.dest, c, &mut cc);
                                    cc.total()
                                });
                                header = ClueHeader::with_clue(&crafted);
                                tally.crafted += 1;
                            }
                        }
                    }
                }
            }
            prev = Some(cur);
            cur = next;
        }
        acc.dropped += 1;
    }

    /// Routes `flows` flows on one thread — the reference the sharded
    /// run must match bit for bit.
    pub fn run_flows_sequential(&self, flows: usize) -> FleetStats {
        let mut readers = self.readers();
        let guards: Vec<EpochGuard<'_, StrideRouter>> =
            readers.iter_mut().map(|r| r.pin()).collect();
        let mut acc = FleetAccum::new(self.link_from.len());
        for i in 0..flows as u64 {
            self.route_flow(&guards, i, &mut acc, None);
        }
        drop(guards);
        self.finish(acc)
    }

    /// Flow indices `lo..hi` in destination order, as `(destination <<
    /// 32) | index` keys ([`flow_index`] recovers the index).
    /// Consecutive flows toward one destination cross the same routers
    /// and engine lines, so walking them back to back keeps the fleet's
    /// working set in cache. Only the visiting order changes: every
    /// walk and every merge is the same.
    fn flow_order(&self, lo: u64, hi: u64) -> Vec<u64> {
        assert!(hi <= u64::from(u32::MAX), "flow indices must fit in 32 bits");
        let mut order: Vec<u64> =
            (lo..hi).map(|i| (u64::from(self.draw_flow(i).dest.0) << 32) | i).collect();
        order.sort_unstable();
        order
    }

    /// Routes `flows` flows over `workers` OS threads. The flows are
    /// first sorted into destination order (`Self::flow_order`), then
    /// dealt out round-robin as jobs of `FLOW_JOB` consecutive
    /// positions; per-worker accumulators merge in worker order. Every merge is a commutative add or max, so the result is
    /// bit-identical to [`Self::run_flows_sequential`] (index order)
    /// at any worker count.
    ///
    /// The report's `elapsed_ns` is the wall clock of the whole serving
    /// call: the ordering pass plus the walk.
    pub fn run_flows(&self, flows: usize, workers: usize) -> FleetRunReport {
        let workers = workers.max(1);
        let links = self.link_from.len();
        let t = Instant::now();
        let order = self.flow_order(0, flows as u64);
        let order_ns = t.elapsed().as_nanos() as u64;
        let (shards, walk_ns) = drive_jobs(
            order.chunks(FLOW_JOB),
            workers,
            // Priming = registering this worker's epoch readers (one
            // per router), hoisted out of the timed region like every
            // driver's priming.
            |_| (self.readers(), FleetAccum::new(links)),
            |(readers, acc), keys| {
                // Pin per job, as `serve_lookups` does: a publish is
                // seen at the next job boundary.
                let guards: Vec<EpochGuard<'_, StrideRouter>> =
                    readers.iter_mut().map(|r| r.pin()).collect();
                for &key in keys {
                    self.route_flow(&guards, flow_index(key), acc, None);
                }
                keys.len()
            },
        );
        let mut acc = FleetAccum::new(links);
        for ((_, shard), _) in &shards {
            acc.merge(shard);
        }
        FleetRunReport { stats: self.finish(acc), elapsed_ns: order_ns + walk_ns }
    }

    /// Folds an accumulator into the reported statistics.
    fn finish(&self, acc: FleetAccum) -> FleetStats {
        let per_link: Vec<LinkStats> = acc
            .per_link
            .iter()
            .enumerate()
            .filter(|(_, rows)| rows.iter().any(|&c| c > 0))
            .map(|(slot, rows)| {
                let router = match self.link_base.binary_search(&(slot as u32)) {
                    Ok(mut i) => {
                        // Zero-degree routers repeat the same offset;
                        // take the last router starting at this slot.
                        while i + 1 < self.link_base.len() - 1
                            && self.link_base[i + 1] == slot as u32
                        {
                            i += 1;
                        }
                        i
                    }
                    Err(i) => i - 1,
                };
                LinkStats {
                    router,
                    from: self.link_from[slot],
                    hits: rows[LINK_HIT],
                    problematic: rows[LINK_PROBLEMATIC],
                    misses: rows[LINK_MISS],
                    clueless: rows[LINK_CLUELESS],
                }
            })
            .collect();
        let per_hop = acc
            .per_hop
            .iter()
            .map(|&(clue_refs, base_refs, hops)| HopSavings { clue_refs, base_refs, hops })
            .collect();
        FleetStats {
            flows: acc.flows,
            delivered: acc.delivered,
            dropped: acc.dropped,
            hops: acc.hops,
            clue_hops: acc.clue_hops,
            clue_refs: acc.clue_refs,
            baseline_refs: acc.base_refs,
            max_staleness: acc.max_staleness,
            lagged_hops: acc.lagged_hops,
            per_hop,
            per_link,
        }
    }

    /// Runs the churn leg: a builder on the calling thread applies
    /// `config.events` origin re-advertisements — resynthesizing the
    /// origin's specifics, patching the FIBs of routers within
    /// `detail_radius`, recompiling and republishing their engine
    /// bundles through the epoch cells — while `config.workers`
    /// workers of the job driver, each at least once, keep routing
    /// flows off pinned snapshots and record how stale the fleet got.
    /// The cells reclaim once every worker has stopped, so `reclaimed`
    /// equals `republished`. A worker panic is re-raised.
    pub fn run_churn(&self, config: &FleetChurnConfig) -> FleetChurnReport {
        let links = self.link_from.len();
        let mut events = 0u64;
        let mut republished = 0u64;
        let mut rebuild_ns = 0u64;
        let mut reclaimed = 0u64;

        // The builder: one mutable copy of the address plan, events
        // applied in sequence.
        let build = || {
            let mut rng = StdRng::seed_from_u64(config.seed);
            let mut specifics = self.specifics.clone();
            let min_len = BLOCK_LEN + 2;
            let max_len = 28.max(min_len);
            for e in 0..config.events {
                let oi = rng.random_range(0..specifics.len());
                let raw = synthesize_ipv4(
                    self.config.specifics_per_origin,
                    config.seed ^ (e as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                specifics[oi] = rebase_into_block(&raw, oi as u128, BLOCK_LEN, min_len, max_len);
                events += 1;

                // Only routers close enough to hold the origin's
                // specifics see a FIB change: beyond the detail bands
                // the origin is one fixed /14 aggregate — the
                // BGP-aggregation containment the paper leans on.
                let t0 = Instant::now();
                for r in 0..self.topology.len() {
                    let dist = self.ecmp[oi].distance(r).unwrap_or(usize::MAX);
                    if dist > config.detail_radius && self.origin_of_router[r] != oi as u32 {
                        continue;
                    }
                    reclaimed += self.republish(&specifics, r) as u64;
                    republished += 1;
                }
                rebuild_ns += t0.elapsed().as_nanos() as u64;
            }
        };

        let ((), slots) = drive_while(
            build,
            config.workers,
            |w| {
                let base = config.seed ^ (w as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
                (self.readers(), FleetAccum::new(links), base, 0u64)
            },
            |(readers, acc, base, i)| {
                // Worker-private flow stream: churn serving is about
                // liveness and staleness, not the bit-determinism of
                // the packet leg. A whole batch routes off one set of
                // pinned snapshots, so a builder publish mid-batch
                // shows up as genuine staleness; the next batch re-pins
                // fresh.
                let guards: Vec<EpochGuard<'_, StrideRouter>> =
                    readers.iter_mut().map(|r| r.pin()).collect();
                for _ in 0..CHURN_SERVE_BATCH {
                    self.route_flow(&guards, packet_seed(*base, *i), acc, None);
                    *i += 1;
                }
                CHURN_SERVE_BATCH
            },
        );

        // Every worker has stopped; dropping its readers here lets each
        // cell reclaim everything the builder retired.
        let mut acc = FleetAccum::new(links);
        for ((_, shard, _, _), _) in expect_workers(slots) {
            acc.merge(&shard);
        }
        for cell in &self.cells {
            reclaimed += cell.reclaim() as u64;
        }
        let stats = self.finish(acc);
        FleetChurnReport { events, republished, rebuild_ns, reclaimed, stats }
    }

    /// Recompiles router `r` under an updated address plan and
    /// publishes it through its epoch cell, returning the snapshots the
    /// publish reclaimed. `compile_router` reads only the FIBs of `r`
    /// and its neighbors, so only those are built; the others stay
    /// empty.
    fn republish(&self, specifics: &[Vec<Prefix<Ip4>>], r: RouterId) -> usize {
        let mut fibs: Vec<Vec<(Prefix<Ip4>, u32)>> = vec![Vec::new(); self.topology.len()];
        for &x in std::iter::once(&r).chain(self.topology.neighbors(r)) {
            fibs[x] = router_fib(specifics, &self.origin_of_router, &self.ecmp, x);
        }
        let router =
            compile_router(&self.topology, &fibs, &self.ecmp, r, self.participates[r], &self.config)
                .expect("the build already compiled this shape");
        self.cells[r].publish(router).reclaimed
    }

    /// Picks the fleet's adversaries deterministically: participating
    /// non-origin routers of highest degree (an attacker wants to sit
    /// on as many paths as possible), ties broken by router id.
    pub(crate) fn adversary_routers(&self, count: usize) -> Vec<RouterId> {
        let mut candidates: Vec<RouterId> = (0..self.topology.len())
            .filter(|&r| self.participates[r] && self.origin_of_router[r] == NO_ORIGIN)
            .collect();
        candidates
            .sort_by_key(|&r| (std::cmp::Reverse(self.topology.neighbors(r).len()), r));
        candidates.truncate(count);
        candidates
    }

    /// Runs the adversarial leg: `config.rounds` rounds of
    /// `config.flows_per_round` flows, with the chosen adversaries
    /// misbehaving ([`AttackProfile`]) for the first
    /// `config.attack_rounds` rounds while every router scores its
    /// incoming links in a [`ReputationBook`] and quarantines bad
    /// clue sources. Quarantine decisions are frozen per round — each
    /// round starts from a snapshot of every link's
    /// [`ReputationBook::uses_clues`] — and every
    /// clued hop is differentially checked in-walk: the clued tag must
    /// resolve the same BMP as the clue-less base lookup, and its cost
    /// may exceed the baseline by at most one probe.
    ///
    /// Each round also routes the *same* flow indices through the
    /// honest walk, so the report can state attacked savings against
    /// the honest-fleet baseline round by round.
    ///
    /// # Panics
    /// Panics unless the fleet was built with [`Method::Simple`]: the
    /// Advance method *trusts* the clue epoch (its Claim-1 pruning is
    /// only sound for clues drawn from the sender table it was
    /// precomputed against), so handing it an adversary's crafted
    /// clues would be a genuine soundness break, not a finding.
    pub fn run_adversarial(
        &self,
        config: &FleetAdversaryConfig,
        adversary_telemetry: Option<&AdversaryTelemetry>,
        reputation_telemetry: Option<&ReputationTelemetry>,
        degradation_telemetry: Option<&DegradationTelemetry>,
    ) -> FleetAdversaryReport {
        assert_eq!(
            self.config.engine.method,
            Method::Simple,
            "adversarial runs require Method::Simple — Advance trusts the clue epoch"
        );
        let adversaries = self.adversary_routers(config.adversaries);
        let mut is_adversary = vec![false; self.topology.len()];
        for &a in &adversaries {
            is_adversary[a] = true;
        }
        let links = self.link_from.len();
        let mut book = ReputationBook::new(links, ReputationConfig::default());
        let mut readers = self.readers();
        let guards: Vec<EpochGuard<'_, StrideRouter>> =
            readers.iter_mut().map(|r| r.pin()).collect();
        let fault_class = match config.attack {
            AttackProfile::Flooding => FaultClass::AdversarialClue,
            _ => FaultClass::LyingNeighbor,
        };

        let mut rounds = Vec::with_capacity(config.rounds);
        let mut divergences = 0u64;
        let mut bound_violations = 0u64;
        let mut quarantine_round = None;
        let mut readmit_round = None;
        for round in 0..config.rounds {
            let hostile =
                round < config.attack_rounds && config.attack.hostile(round as u64);
            // Frozen for the whole round: the per-batch gate snapshot.
            let use_clues: Vec<bool> = (0..links).map(|l| book.uses_clues(l)).collect();
            let quarantined_links = use_clues.iter().filter(|&&u| !u).count();

            let attack = Attack {
                adversaries: &is_adversary,
                profile: config.attack,
                hostile,
                use_clues: &use_clues,
            };

            // Both passes walk in destination order; every tally field
            // is a sum or a max and flood clues seed from the flow
            // index, so the order changes no result.
            let lo = (round * config.flows_per_round) as u64;
            let order = self.flow_order(lo, lo + config.flows_per_round as u64);
            let mut acc = AdversaryAccum::new(links);
            for &key in &order {
                let tally = Some((&attack, &mut acc.tally));
                self.route_flow(&guards, flow_index(key), &mut acc.base, tally);
            }
            // The honest reference: the same flow indices, nobody lies,
            // nothing quarantined.
            let mut honest = FleetAccum::new(links);
            for &key in &order {
                self.route_flow(&guards, flow_index(key), &mut honest, None);
            }
            let tally = &acc.tally;

            divergences += tally.divergences;
            bound_violations += tally.bound_violations;
            let malformed: u64 = tally.signals.iter().map(|s| s.malformed).sum();

            // Fold the round's evidence. Every link is observed — an
            // idle or quarantined batch still ticks hold-downs — so
            // the state machine's time base is rounds, not traffic.
            for l in 0..links {
                book.observe(l, &tally.signals[l]);
            }
            if quarantined_links > 0 && quarantine_round.is_none() {
                quarantine_round = Some(round);
            }
            if quarantine_round.is_some()
                && readmit_round.is_none()
                && book.readmissions() > 0
                && book.quarantined() == 0
            {
                readmit_round = Some(round);
            }

            if let Some(t) = adversary_telemetry {
                t.record_round(
                    tally.attacked_hops,
                    tally.crafted,
                    tally.floods,
                    tally.bound_violations,
                    tally.overhead_max,
                );
            }
            if let Some(t) = reputation_telemetry {
                t.record_round(links as u64, &book);
            }
            if let Some(t) = degradation_telemetry {
                t.record_attack(fault_class, tally.attacked_hops, malformed, tally.divergences);
            }

            rounds.push(AdversaryRound {
                hostile,
                overhead_max: tally.overhead_max,
                clue_refs: acc.base.clue_refs,
                baseline_refs: acc.base.base_refs,
                honest_clue_refs: honest.clue_refs,
                honest_baseline_refs: honest.base_refs,
            });
        }
        if let Some(t) = reputation_telemetry {
            t.record_transitions(&book);
        }
        drop(guards);

        FleetAdversaryReport {
            attack: config.attack,
            adversaries,
            window: config.window,
            rounds,
            divergences,
            bound_violations,
            quarantine_round,
            readmit_round,
            quarantines: book.quarantines(),
            probations: book.probations(),
            readmissions: book.readmissions(),
        }
    }
}

/// Router `r`'s FIB under an address plan: `(prefix, origin)` pairs,
/// sorted and deduplicated. An origin installs its own specifics whole;
/// every other router installs them truncated to the detail band of its
/// ECMP distance from the origin. Origins' blocks are disjoint, so the
/// merged table is conflict-free. Serves the build and every churn
/// republish.
fn router_fib(
    specifics: &[Vec<Prefix<Ip4>>],
    origin_of_router: &[u32],
    ecmp: &[EcmpTree],
    r: RouterId,
) -> Vec<(Prefix<Ip4>, u32)> {
    let mut fib: Vec<(Prefix<Ip4>, u32)> = Vec::new();
    for (oi, specs) in specifics.iter().enumerate() {
        if origin_of_router[r] == oi as u32 {
            fib.extend(specs.iter().map(|&p| (p, oi as u32)));
            continue;
        }
        let dist = ecmp[oi].distance(r).unwrap_or(usize::MAX);
        let len = BANDS.iter().find(|&&(max_d, _)| dist <= max_d).map_or(BLOCK_LEN, |&(_, l)| l);
        let mut seen: Option<Prefix<Ip4>> = None;
        for s in specs {
            let t = s.truncate(len.min(s.len()));
            if seen != Some(t) {
                // Truncation collapses sorted neighbors; a full dedup
                // pass still runs below.
                fib.push((t, oi as u32));
                seen = Some(t);
            }
        }
    }
    fib.sort_unstable();
    fib.dedup();
    fib
}

/// Compiles router `r`'s engine bundle from the FIB tables: a
/// `Method::Common` base engine, and (for participants) one
/// precomputed clue engine per incoming link, built over the base
/// engine's trie and compiled over its arena, whose clue set is
/// exactly "the upstream's FIB prefixes it ECMP-routes through me".
/// Serves the build and every churn republish.
fn compile_router(
    topology: &Topology,
    fibs: &[Vec<(Prefix<Ip4>, u32)>],
    ecmp: &[EcmpTree],
    r: RouterId,
    participates: bool,
    config: &FleetConfig,
) -> Result<StrideRouter, BackendError> {
    let fib = &fibs[r];
    let own: Vec<Prefix<Ip4>> = fib.iter().map(|&(p, _)| p).collect();
    let origin_of = |prefix: &Prefix<Ip4>| -> u32 {
        match fib.binary_search_by(|(p, _)| p.cmp(prefix)) {
            Ok(i) => fib[i].1,
            Err(_) => NO_ORIGIN,
        }
    };

    let base_config = EngineConfig::new(config.engine.family, Method::Common);
    let base = ClueEngine::precomputed(&[], &own, base_config);

    // Built one at a time, each dropped once compiled.
    let links = topology.neighbors(r).iter().filter(|_| participates).map(|&nb| {
        let clues: Vec<Prefix<Ip4>> = fibs[nb]
            .iter()
            .filter(|&&(_, oi)| ecmp[oi as usize].next_hops[nb].contains(&r))
            .map(|&(p, _)| p)
            .collect();
        ClueEngine::precomputed_over(&base, &clues, config.engine)
    });
    ClueRouter::compile(participates, &base, links, &FLEET_STRIDE, origin_of)
}

/// Flows each churn-serving worker routes between epoch re-pins.
const CHURN_SERVE_BATCH: usize = 16;

/// Shard-local integer accumulator; every field merges with a
/// commutative add, which is what makes the sharded run's fold
/// order-independent and therefore bit-identical to the sequential
/// reference.
struct FleetAccum {
    flows: u64,
    delivered: u64,
    dropped: u64,
    hops: u64,
    clue_hops: u64,
    clue_refs: u64,
    base_refs: u64,
    max_staleness: u64,
    lagged_hops: u64,
    /// Per directed link: [hit, problematic, miss, clueless].
    per_link: Vec<[u64; 4]>,
    /// Per hop position: (clue refs, baseline refs, hops recorded).
    per_hop: Vec<(u64, u64, u64)>,
}

impl FleetAccum {
    fn new(links: usize) -> Self {
        FleetAccum {
            flows: 0,
            delivered: 0,
            dropped: 0,
            hops: 0,
            clue_hops: 0,
            clue_refs: 0,
            base_refs: 0,
            max_staleness: 0,
            lagged_hops: 0,
            per_link: vec![[0; 4]; links],
            per_hop: Vec::new(),
        }
    }

    #[inline]
    fn record_hop(&mut self, pos: usize, clued: bool, cost: &Cost, base: &Cost) {
        self.hops += 1;
        self.clue_hops += u64::from(clued);
        let refs = cost.total();
        let base_refs = base.total();
        self.clue_refs += refs;
        self.base_refs += base_refs;
        if pos >= self.per_hop.len() {
            self.per_hop.resize(pos + 1, (0, 0, 0));
        }
        let h = &mut self.per_hop[pos];
        h.0 += refs;
        h.1 += base_refs;
        h.2 += 1;
    }

    fn merge(&mut self, other: &FleetAccum) {
        self.flows += other.flows;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.hops += other.hops;
        self.clue_hops += other.clue_hops;
        self.clue_refs += other.clue_refs;
        self.base_refs += other.base_refs;
        self.max_staleness = self.max_staleness.max(other.max_staleness);
        self.lagged_hops += other.lagged_hops;
        for (a, b) in self.per_link.iter_mut().zip(&other.per_link) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        if other.per_hop.len() > self.per_hop.len() {
            self.per_hop.resize(other.per_hop.len(), (0, 0, 0));
        }
        for (a, b) in self.per_hop.iter_mut().zip(&other.per_hop) {
            a.0 += b.0;
            a.1 += b.1;
            a.2 += b.2;
        }
    }
}

/// Clue outcomes on one directed link (traffic entering `router` from
/// `from`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LinkStats {
    /// The receiving router.
    pub(crate) router: RouterId,
    /// The upstream router.
    pub(crate) from: RouterId,
    /// Clued lookups the clue table answered final (Case 2).
    pub(crate) hits: u64,
    /// Clued lookups that ran a problematic-clue continuation (Case 3).
    pub(crate) problematic: u64,
    /// Clued lookups whose clue was absent from the table (Case 1).
    pub(crate) misses: u64,
    /// Hops that crossed this link without a usable clue.
    pub(crate) clueless: u64,
}

/// Memory-reference accounting at one hop position (0 = ingress).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopSavings {
    /// References the clue deployment spent at this position.
    pub clue_refs: u64,
    /// References the clue-less baseline spent on the same lookups.
    pub base_refs: u64,
    /// Lookups recorded at this position.
    pub hops: u64,
}

impl HopSavings {
    /// Savings at this position: `1 - clue/baseline`.
    pub fn savings(&self) -> f64 {
        if self.base_refs == 0 {
            0.0
        } else {
            1.0 - self.clue_refs as f64 / self.base_refs as f64
        }
    }
}

/// What a fleet run measured. `PartialEq` so the `--check` mode can
/// assert bit-identity across worker counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetStats {
    /// Flows routed.
    pub flows: u64,
    /// Flows delivered at their destination's origin router.
    pub delivered: u64,
    /// Flows dropped (no route / ECMP dead end / hop cap).
    pub dropped: u64,
    /// Router-hops walked.
    pub hops: u64,
    /// Hops resolved through a clue engine.
    pub clue_hops: u64,
    /// Memory references the clue deployment spent.
    pub clue_refs: u64,
    /// References the clue-less baseline spent on the same hops.
    pub baseline_refs: u64,
    /// Worst epoch lag any pinned snapshot had (0 outside churn).
    pub max_staleness: u64,
    /// Hops routed off a stale (lagging) snapshot.
    pub lagged_hops: u64,
    /// Reference accounting by hop position.
    pub per_hop: Vec<HopSavings>,
    /// Clue outcomes per directed link with traffic.
    pub(crate) per_link: Vec<LinkStats>,
}

impl FleetStats {
    /// Fleet-wide clue hits (Case 2 finals).
    pub fn link_hits(&self) -> u64 {
        self.per_link.iter().map(|l| l.hits).sum()
    }

    /// Fleet-wide problematic-clue continuations.
    pub fn link_problematic(&self) -> u64 {
        self.per_link.iter().map(|l| l.problematic).sum()
    }

    /// Fleet-wide clue-table misses.
    pub fn link_misses(&self) -> u64 {
        self.per_link.iter().map(|l| l.misses).sum()
    }

    /// Fleet-wide clueless link crossings.
    pub fn link_clueless(&self) -> u64 {
        self.per_link.iter().map(|l| l.clueless).sum()
    }

    /// End-to-end memory-reference savings: `1 - clue/baseline`.
    pub fn savings(&self) -> f64 {
        if self.baseline_refs == 0 {
            0.0
        } else {
            1.0 - self.clue_refs as f64 / self.baseline_refs as f64
        }
    }
}

/// A sharded packet-leg run: the (bit-deterministic) statistics plus
/// wall-clock attribution.
#[derive(Debug, Clone)]
pub struct FleetRunReport {
    /// The statistics — identical at any `workers`.
    pub stats: FleetStats,
    /// Steady-state nanoseconds (reader registration hoisted out).
    pub elapsed_ns: u64,
}

/// Configuration of the churn leg.
#[derive(Debug, Clone, Copy)]
pub struct FleetChurnConfig {
    /// Origin re-advertisement events to apply.
    pub events: usize,
    /// Serving worker threads routing during the churn.
    pub workers: usize,
    /// Routers within this ECMP distance of a churned origin get their
    /// FIBs patched and bundles republished; beyond it the origin's
    /// /14 aggregate is unchanged, so nothing needs rebuilding.
    pub(crate) detail_radius: usize,
    /// Seed for event targets and the serving flow streams.
    pub(crate) seed: u64,
}

impl FleetChurnConfig {
    /// Defaults: 8 events, 2 serving workers, the detail bands' reach.
    pub fn new(seed: u64) -> Self {
        FleetChurnConfig { events: 8, workers: 2, detail_radius: 3, seed }
    }
}

/// What the churn leg did.
#[derive(Debug, Clone)]
pub struct FleetChurnReport {
    /// Events applied.
    pub events: u64,
    /// Router bundles republished.
    pub republished: u64,
    /// Total nanoseconds spent rebuilding and publishing bundles.
    pub rebuild_ns: u64,
    /// Retired snapshots reclaimed after their grace period.
    pub reclaimed: u64,
    /// What the serving workers measured while the fleet churned.
    pub stats: FleetStats,
}

/// Configuration of the adversarial leg ([`Fleet::run_adversarial`]).
#[derive(Debug, Clone, Copy)]
pub struct FleetAdversaryConfig {
    /// Adversarial routers to plant (highest-degree participating
    /// transit routers; see `Fleet::adversary_routers`).
    pub adversaries: usize,
    /// How they misbehave.
    pub(crate) attack: AttackProfile,
    /// Total rounds (reputation batches) to run.
    pub rounds: usize,
    /// Rounds at the start during which the attack profile is active;
    /// the remainder are honest, so the report can show reconvergence.
    pub attack_rounds: usize,
    /// Flows routed per round.
    pub flows_per_round: usize,
    /// Trailing rounds over which final savings are measured.
    pub window: usize,
}

impl FleetAdversaryConfig {
    /// Defaults sized so that with [`ReputationConfig::default`] a
    /// sustained attacker quarantines within two rounds and an honest
    /// link walks all the way back through probation to re-admission
    /// well before the final measurement window.
    pub fn new(attack: AttackProfile, adversaries: usize) -> Self {
        FleetAdversaryConfig {
            adversaries,
            attack,
            rounds: 20,
            attack_rounds: 6,
            flows_per_round: 1_000,
            window: 4,
        }
    }
}

/// One round of the adversarial leg.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdversaryRound {
    /// Whether the attack profile was active this round.
    pub(crate) hostile: bool,
    /// Worst per-hop overhead seen this round.
    pub(crate) overhead_max: u64,
    /// References the (attacked, quarantining) fleet spent.
    pub(crate) clue_refs: u64,
    /// References the clue-less baseline spent on the same hops.
    pub(crate) baseline_refs: u64,
    /// References the honest fleet spent on the same flow indices.
    pub(crate) honest_clue_refs: u64,
    /// The honest fleet's clue-less baseline references.
    pub(crate) honest_baseline_refs: u64,
}

/// What the adversarial leg measured.
#[derive(Debug, Clone)]
pub struct FleetAdversaryReport {
    /// The attack profile that ran.
    pub attack: AttackProfile,
    /// Routers that were adversarial.
    pub adversaries: Vec<RouterId>,
    /// Trailing rounds the final-savings window covers.
    pub(crate) window: usize,
    /// Per-round measurements.
    pub(crate) rounds: Vec<AdversaryRound>,
    /// Total BMP divergences (0 on a sound build).
    pub divergences: u64,
    /// Total soundness-bound violations (0 on a sound build).
    pub bound_violations: u64,
    /// First round that began with links quarantined, if any.
    pub quarantine_round: Option<usize>,
    /// First round after which every quarantined link had been
    /// re-admitted, if reconvergence completed.
    pub readmit_round: Option<usize>,
    /// Healthy→Quarantined transitions across all links.
    pub quarantines: u64,
    /// Quarantined→Probation transitions.
    pub probations: u64,
    /// Probation→Healthy re-admissions.
    pub readmissions: u64,
}

impl FleetAdversaryReport {
    /// Whether every clued hop of every round resolved the same BMP as
    /// the clue-less baseline and stayed within the +1 cost bound.
    pub fn sound(&self) -> bool {
        self.divergences == 0 && self.bound_violations == 0
    }

    /// Worst per-hop overhead across the whole run.
    pub fn overhead_max(&self) -> u64 {
        self.rounds.iter().map(|r| r.overhead_max).max().unwrap_or(0)
    }

    fn window_rounds(&self) -> &[AdversaryRound] {
        let n = self.rounds.len();
        &self.rounds[n.saturating_sub(self.window)..]
    }

    /// Savings over the final measurement window (post-attack,
    /// post-quarantine steady state).
    pub fn final_savings(&self) -> f64 {
        let (clue, base) = self
            .window_rounds()
            .iter()
            .fold((0u64, 0u64), |(c, b), r| (c + r.clue_refs, b + r.baseline_refs));
        if base == 0 { 0.0 } else { 1.0 - clue as f64 / base as f64 }
    }

    /// The honest fleet's savings over the same window and flows.
    pub fn honest_final_savings(&self) -> f64 {
        let (clue, base) = self.window_rounds().iter().fold((0u64, 0u64), |(c, b), r| {
            (c + r.honest_clue_refs, b + r.honest_baseline_refs)
        });
        if base == 0 { 0.0 } else { 1.0 - clue as f64 / base as f64 }
    }

    /// Whether post-quarantine savings came back to within `tolerance`
    /// (absolute) of the honest fleet's.
    pub fn reconverged(&self, tolerance: f64) -> bool {
        (self.final_savings() - self.honest_final_savings()).abs() <= tolerance
    }
}

/// One adversarial round as the fleet walk sees it — plain data, fixed
/// for the whole round.
struct Attack<'a> {
    /// Router → is it an adversary?
    adversaries: &'a [bool],
    /// How the adversaries misbehave.
    profile: AttackProfile,
    /// Whether the profile is active this round.
    hostile: bool,
    /// Directed link → are its clues admitted this round? (`false` =
    /// quarantined: the per-batch gate snapshot.)
    use_clues: &'a [bool],
}

/// What an attacked walk records beyond the ordinary fleet accounting:
/// the differential-check outcomes and the per-link reputation
/// evidence.
struct AttackTally {
    signals: Vec<BatchSignals>,
    attacked_hops: u64,
    crafted: u64,
    floods: u64,
    divergences: u64,
    bound_violations: u64,
    overhead_max: u64,
}

/// Accumulator of the adversarial walk: the ordinary fleet accounting
/// plus the attack's tally.
struct AdversaryAccum {
    base: FleetAccum,
    tally: AttackTally,
}

impl AdversaryAccum {
    fn new(links: usize) -> Self {
        AdversaryAccum {
            base: FleetAccum::new(links),
            tally: AttackTally {
                signals: vec![BatchSignals::default(); links],
                attacked_hops: 0,
                crafted: 0,
                floods: 0,
                divergences: 0,
                bound_violations: 0,
                overhead_max: 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_telemetry::Registry;

    /// The counter `name`, which must be registered: a misspelt name
    /// would otherwise read a fresh zero.
    fn counter(registry: &Registry, name: &str) -> u64 {
        assert!(registry.contains(name), "{name} registered");
        registry.counter(name, "").get()
    }

    /// The gauge `name`, which must be registered.
    fn gauge(registry: &Registry, name: &str) -> f64 {
        assert!(registry.contains(name), "{name} registered");
        registry.gauge(name, "").get()
    }

    fn small_config() -> FleetConfig {
        let mut c = FleetConfig::new(64, 11);
        c.origins = 8;
        c.specifics_per_origin = 4;
        c
    }

    #[test]
    fn builds_to_at_least_the_target() {
        let fleet = Fleet::build(FleetConfig::new(300, 3)).unwrap();
        assert!(fleet.router_count() >= 300, "got {}", fleet.router_count());
        assert_eq!(fleet.origin_routers().len(), fleet.config().origins);
    }

    #[test]
    fn preferential_fleet_builds() {
        let mut c = small_config();
        c.topology = TopologyKind::Preferential;
        let fleet = Fleet::build(c).unwrap();
        assert_eq!(fleet.router_count(), 64);
        let stats = fleet.run_flows_sequential(200);
        assert_eq!(stats.flows, 200);
        assert!(stats.delivered + stats.dropped == 200);
        assert!(stats.delivered > 150, "delivered {}", stats.delivered);
    }

    #[test]
    fn flows_deliver_and_clues_save_references() {
        let fleet = Fleet::build(small_config()).unwrap();
        let stats = fleet.run_flows_sequential(500);
        assert_eq!(stats.flows, 500);
        assert_eq!(stats.dropped, 0, "no flow should drop in a full-detail fleet");
        assert_eq!(stats.delivered, 500);
        assert!(stats.clue_hops > 0, "multi-hop flows must cross clued links");
        assert!(
            stats.savings() > 0.2,
            "clues should save references fleet-wide: {}",
            stats.savings()
        );
        // Per-link outcomes account for every clued hop.
        let clued = stats.link_hits() + stats.link_problematic() + stats.link_misses();
        assert_eq!(clued, stats.clue_hops);
    }

    #[test]
    fn link_engines_share_their_routers_arena() {
        let fleet = Fleet::build(small_config()).unwrap();
        let mut links = 0;
        for reader in &mut fleet.readers() {
            links += reader.pin().assert_one_arena();
        }
        assert_eq!(links, fleet.directed_link_count(), "every participant's link is compiled");
        let m = fleet.memory();
        assert!(m.arena > 0 && m.link > 0 && m.buckets > 0 && m.codes > 0, "{m:?}");
    }

    #[test]
    fn sharded_run_matches_sequential_bit_for_bit() {
        let fleet = Fleet::build(small_config()).unwrap();
        let reference = fleet.run_flows_sequential(400);
        for workers in [1, 2, 4] {
            let run = fleet.run_flows(400, workers);
            assert_eq!(run.stats, reference, "divergence at {workers} workers");
        }
    }

    #[test]
    fn empty_and_excess_worker_runs_match_sequential() {
        let fleet = Fleet::build(small_config()).unwrap();
        let none = fleet.run_flows(0, 4);
        assert_eq!(none.stats, fleet.run_flows_sequential(0));
        assert_eq!((none.stats.flows, none.stats.hops, none.stats.clue_refs), (0, 0, 0));
        assert!(none.stats.per_hop.is_empty() && none.stats.per_link.is_empty());
        // Three flows fit one job: seven of the eight workers idle.
        let few = fleet.run_flows(3, 8);
        assert_eq!(few.stats, fleet.run_flows_sequential(3));
    }

    #[test]
    fn walk_order_does_not_change_the_stats() {
        let mut c = small_config();
        c.participation = 0.5;
        let fleet = Fleet::build(c).unwrap();
        let mut readers = fleet.readers();
        let guards: Vec<EpochGuard<'_, StrideRouter>> =
            readers.iter_mut().map(|r| r.pin()).collect();
        let links = fleet.link_from.len();
        let (mut forward, mut reversed) = (FleetAccum::new(links), FleetAccum::new(links));
        for i in 100..400 {
            fleet.route_flow(&guards, i, &mut forward, None);
        }
        for i in (100..400).rev() {
            fleet.route_flow(&guards, i, &mut reversed, None);
        }
        drop(guards);
        let (forward, reversed) = (fleet.finish(forward), fleet.finish(reversed));
        assert_eq!(forward.flows, 300);
        assert!(forward.clue_hops > 0);
        assert_eq!(forward, reversed);
    }

    #[test]
    fn draw_flow_is_a_pure_function_of_the_index() {
        let fleet = Fleet::build(small_config()).unwrap();
        assert_eq!(fleet.draw_flow(7), fleet.draw_flow(7));
        assert_ne!(fleet.draw_flow(7), fleet.draw_flow(8));
    }

    #[test]
    fn partial_participation_still_delivers() {
        let mut c = small_config();
        c.participation = 0.5;
        let fleet = Fleet::build(c).unwrap();
        let stats = fleet.run_flows_sequential(300);
        assert_eq!(stats.delivered + stats.dropped, 300);
        assert_eq!(stats.dropped, 0);
        assert!(stats.clue_hops < stats.hops);
    }

    #[test]
    fn churn_republishes_and_keeps_serving() {
        let fleet = Fleet::build(small_config()).unwrap();
        let report = fleet.run_churn(&FleetChurnConfig {
            events: 4,
            workers: 2,
            detail_radius: 2,
            seed: 99,
        });
        assert_eq!(report.events, 4);
        assert!(report.republished >= 4, "each event republishes at least the origin");
        assert!(report.stats.flows > 0, "serving workers routed during churn");
        // Liveness: serving never wedges; delivery may dip but the
        // aggregate keeps flows routable.
        assert!(report.stats.delivered > 0);
    }

    #[test]
    fn republishing_the_unchanged_plan_changes_nothing() {
        // The churn republish path (FIB, compile, publish) run over the
        // build's own address plan must reproduce what the build
        // published, for participants and bystanders alike.
        let fleet = Fleet::build(FleetConfig { participation: 0.5, ..small_config() }).unwrap();
        let (stats, memory) = (fleet.run_flows_sequential(400), fleet.memory());
        for r in 0..fleet.router_count() {
            fleet.republish(&fleet.specifics, r);
        }
        assert!(fleet.cells.iter().all(|c| c.current_epoch() == 1));
        assert_eq!(fleet.run_flows_sequential(400), stats);
        assert_eq!(fleet.memory(), memory);
    }

    #[test]
    fn churn_reclaims_every_retired_snapshot() {
        for seed in [11, 12, 13, 14] {
            let fleet = Fleet::build(FleetConfig { seed, ..small_config() }).unwrap();
            let report = fleet.run_churn(&FleetChurnConfig {
                events: 6,
                workers: 2,
                detail_radius: 3,
                seed,
            });
            assert!(report.republished >= 6, "seed {seed}");
            assert_eq!(report.reclaimed, report.republished, "seed {seed}");
            assert!(fleet.cells.iter().all(|c| c.retired_count() == 0), "seed {seed}");
        }
    }

    #[test]
    fn an_instant_churn_leg_still_serves_on_every_worker() {
        let fleet = Fleet::build(small_config()).unwrap();
        let workers = 3;
        let report =
            fleet.run_churn(&FleetChurnConfig { events: 0, workers, detail_radius: 2, seed: 5 });
        assert_eq!((report.events, report.republished, report.reclaimed), (0, 0, 0));
        assert!(report.stats.flows >= (workers * CHURN_SERVE_BATCH) as u64);
    }

    #[test]
    fn telemetry_flush_covers_the_run() {
        let fleet = Fleet::build(small_config()).unwrap();
        let stats = fleet.run_flows_sequential(200);
        let registry = Registry::new();
        let t = FleetTelemetry::registered(&registry);
        t.record_run(&fleet, &stats, None);
        assert_eq!(t.routers.get(), fleet.router_count() as f64);
        assert_eq!(t.flows_total.get(), 200);
        assert_eq!(t.hops_total.get(), stats.hops);
        assert!(t.savings_ratio.get() > 0.0);
        assert!(t.link_hit_rate_pct.snapshot().count > 0);
        assert_eq!(t.churn_events_total.get(), 0, "no churn report, no churn series");
        // A churn leg sets its two gauges: the mean rebuild over its
        // publishes, and its worst staleness.
        let churn = FleetChurnReport {
            events: 2,
            republished: 4,
            rebuild_ns: 10_000,
            reclaimed: 4,
            stats: FleetStats { max_staleness: 3, ..stats.clone() },
        };
        t.record_run(&fleet, &stats, Some(&churn));
        assert_eq!(t.rebuild_us.get(), 2.5);
        assert_eq!(t.staleness_epochs.get(), 3.0);
    }

    #[test]
    fn detached_counts() {
        let t = FleetTelemetry::registered(&Registry::new());
        t.routers.set(1024.0);
        t.flows_total.add(500);
        t.link_hits_total.add(400);
        t.link_problematic_total.add(20);
        t.clue_refs_total.add(900);
        t.baseline_refs_total.add(4000);
        t.savings_ratio.set(1.0 - 900.0 / 4000.0);
        t.link_hit_rate_pct.observe(92);
        t.staleness_epochs.set(1.0);
        assert_eq!(t.routers.get(), 1024.0);
        assert_eq!(t.flows_total.get(), 500);
        assert_eq!(t.link_hit_rate_pct.snapshot().count, 1);
        assert!(t.savings_ratio.get() > 0.7);
    }

    fn simple_fleet() -> Fleet {
        let mut c = small_config();
        c.engine.method = Method::Simple;
        Fleet::build(c).unwrap()
    }

    #[test]
    fn adversary_routers_are_deterministic_transit_hubs() {
        let fleet = simple_fleet();
        let a = fleet.adversary_routers(4);
        assert_eq!(a, fleet.adversary_routers(4));
        assert_eq!(a.len(), 4);
        for &r in &a {
            assert!(
                !fleet.origin_routers().contains(&r),
                "adversaries must be transit routers, got origin {r}"
            );
        }
        // Highest-degree first.
        let degree = |r: RouterId| fleet.topology().neighbors(r).len();
        for w in a.windows(2) {
            assert!(degree(w[0]) >= degree(w[1]));
        }
    }

    #[test]
    fn lying_adversaries_stay_sound_quarantine_and_reconverge() {
        let fleet = simple_fleet();
        let config = FleetAdversaryConfig::new(AttackProfile::Lying, 4);
        let report = fleet.run_adversarial(&config, None, None, None);
        assert!(report.sound(), "divergences or bound violations under lying attack");
        assert!(report.overhead_max() <= 1);
        let q = report.quarantine_round.expect("lying links must quarantine");
        assert!(q <= 3, "quarantine engaged too late: round {q}");
        assert!(report.quarantines > 0);
        assert!(
            report.readmit_round.is_some(),
            "honest behaviour after the attack must re-admit every link"
        );
        assert!(
            report.reconverged(0.05),
            "final savings {:.4} vs honest {:.4}",
            report.final_savings(),
            report.honest_final_savings()
        );
        // During the attack the attacked fleet saves less than honest,
        // and the worst crafted clue costs exactly the one-probe bound.
        let first = &report.rounds[0];
        assert!(first.hostile);
        let ratio = |clue: u64, base: u64| clue as f64 / base as f64;
        assert!(
            ratio(first.clue_refs, first.baseline_refs)
                > ratio(first.honest_clue_refs, first.honest_baseline_refs),
            "the attacked round saves less than the honest one"
        );
        assert_eq!(first.overhead_max, 1, "the soundness bound caps the damage at one probe");
    }

    #[test]
    fn attack_free_round_routes_exactly_like_the_honest_walk() {
        let fleet = simple_fleet();
        let config = FleetAdversaryConfig::new(AttackProfile::Lying, 0);
        let registry = Registry::new();
        let at = AdversaryTelemetry::registered(&registry);
        let report = fleet.run_adversarial(&config, Some(&at), None, None);
        // With no adversary planted nobody lies and no link is ever
        // quarantined, so round 0 is the honest walk over flows
        // 0..flows_per_round.
        assert_eq!(report.quarantine_round, None);
        assert_eq!(counter(&registry, "clue_adversary_attacked_hops_total"), 0);
        let first = &report.rounds[0];
        assert_eq!(first.clue_refs, first.honest_clue_refs);
        assert_eq!(first.baseline_refs, first.honest_baseline_refs);
        let honest = fleet.run_flows_sequential(config.flows_per_round);
        assert_eq!((first.clue_refs, first.baseline_refs), (honest.clue_refs, honest.baseline_refs));
        assert_eq!((report.divergences, report.bound_violations), (0, 0));
    }

    #[test]
    fn flooding_adversaries_trip_malformed_accounting() {
        let fleet = simple_fleet();
        let mut config = FleetAdversaryConfig::new(AttackProfile::Flooding, 4);
        config.rounds = 8;
        config.attack_rounds = 3;
        let report = fleet.run_adversarial(&config, None, None, None);
        assert!(report.sound());
        // Flood clues never contain the destination: every forced clue
        // decodes Malformed, which costs zero extra references. One
        // hostile round, before any link is quarantined, counts them.
        config.rounds = 1;
        config.attack_rounds = 1;
        let registry = Registry::new();
        let at = AdversaryTelemetry::registered(&registry);
        let dt = DegradationTelemetry::registered(&registry, &[]);
        let report = fleet.run_adversarial(&config, Some(&at), None, Some(&dt));
        assert!(report.sound());
        let attacked = counter(&registry, "clue_adversary_attacked_hops_total");
        assert!(attacked > 0);
        assert_eq!(
            counter(&registry, "clue_fault_degraded_lookups_total"),
            attacked,
            "at full participation every flood clue hits the malformed path"
        );
    }

    #[test]
    fn oscillating_liar_cannot_dodge_fleet_hysteresis() {
        let fleet = simple_fleet();
        let config = FleetAdversaryConfig::new(AttackProfile::Oscillating, 4);
        let report = fleet.run_adversarial(&config, None, None, None);
        assert!(report.sound());
        assert!(
            report.quarantine_round.is_some(),
            "alternating honest epochs must not evade quarantine"
        );
        assert!(report.reconverged(0.05));
    }

    #[test]
    fn adversarial_run_feeds_telemetry() {
        let fleet = simple_fleet();
        let mut config = FleetAdversaryConfig::new(AttackProfile::Lying, 2);
        config.rounds = 6;
        config.attack_rounds = 2;
        let registry = Registry::new();
        let at = AdversaryTelemetry::registered(&registry);
        let rt = ReputationTelemetry::registered(&registry);
        let dt = DegradationTelemetry::registered(
            &registry,
            &[FaultClass::LyingNeighbor, FaultClass::AdversarialClue],
        );
        let report = fleet.run_adversarial(&config, Some(&at), Some(&rt), Some(&dt));
        let attacked = counter(&registry, "clue_adversary_attacked_hops_total");
        assert!(attacked > 0);
        assert!(counter(&registry, "clue_adversary_crafted_clues_total") > 0);
        assert_eq!(counter(&registry, "clue_adversary_bound_violations_total"), 0);
        assert!(gauge(&registry, "clue_adversary_worst_overhead") <= 1.0);
        assert!(counter(&registry, "clue_reputation_batches_observed_total") > 0);
        assert_eq!(counter(&registry, "clue_reputation_quarantines_total"), report.quarantines);
        assert_eq!(counter(&registry, "clue_fault_injected_total"), attacked);
        assert_eq!(counter(&registry, "clue_fault_lying_neighbor_injected_total"), attacked);
        assert_eq!(counter(&registry, "clue_fault_adversarial_clue_injected_total"), 0);
    }
}
