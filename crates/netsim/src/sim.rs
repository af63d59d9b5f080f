//! Workload runner: many packets over a network, with the per-router and
//! per-hop aggregations the paper's Figure 1 and Sections 5.3–5.4 need.
//!
//! [`run_workload`] draws every packet from one sequential RNG stream.
//! [`run_workload_per_packet`] instead gives packet `i` its own stream
//! ([`packet_seed`]), which is what lets the multi-core runtime
//! ([`CompiledNetwork`](crate::CompiledNetwork)) split the workload
//! into jobs and still reproduce it bit for bit. Both streams draw
//! packets the same way and route them through one loop that folds
//! every hop into an integer [`Accum`].

use clue_telemetry::{Registry, MEMORY_REFERENCE_BOUNDS, PREFIX_LENGTH_BOUNDS};
use clue_trie::{Address, Cost, CostStats};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

use crate::network::{Network, PathTrace};
use crate::topology::RouterId;

clue_telemetry::bundle! {
    /// The simulator's per-hop metric bundle (`clue_netsim_*`).
    struct HopTelemetry in "clue_netsim" {
        packets_total: Counter = "Packets injected",
        delivered_total: Counter = "Packets that reached their destination",
        hops_total: Counter = "Hops taken across all packets",
        clue_hops_total: Counter = "Hops that consulted a clue",
        hop_memory_references: Histogram(MEMORY_REFERENCE_BOUNDS) =
            "Memory references per hop (including Section 5.4 shift work)",
        bmp_length: Histogram(PREFIX_LENGTH_BOUNDS) = "Length of the BMP found at each hop",
    }
}

impl HopTelemetry {
    /// Records one routed packet and each of its hops.
    fn record<A: Address>(&self, trace: &PathTrace<A>) {
        self.packets_total.inc();
        if trace.delivered {
            self.delivered_total.inc();
        }
        for hop in &trace.hops {
            self.hops_total.inc();
            if hop.used_clue {
                self.clue_hops_total.inc();
            }
            self.hop_memory_references.observe(hop.cost.total() + hop.shift_cost.total());
            self.bmp_length.observe(hop.bmp.map_or(0, |p| p.len()) as u64);
        }
    }
}

/// Mirrors one [`CostStats`] accumulator into `registry` as gauges
/// `{name}_mean_accesses`, `{name}_max_accesses` and `{name}_samples` —
/// the registry view of the paper's per-table averages.
pub(crate) fn export_cost_stats(registry: &Registry, name: &str, stats: &CostStats) {
    registry
        .gauge(&format!("{name}_mean_accesses"), "Mean memory accesses per lookup")
        .set(stats.mean());
    registry
        .gauge(&format!("{name}_max_accesses"), "Worst single lookup observed")
        .set(stats.max() as f64);
    registry
        .gauge(&format!("{name}_samples"), "Lookups accumulated")
        .set(stats.samples() as f64);
}

/// Aggregated results of a multi-packet run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Per-router access statistics (indexed by router id).
    pub per_router: Vec<CostStats>,
    /// Access statistics by hop position along the path (0 = source).
    pub per_hop_position: Vec<CostStats>,
    /// Mean BMP length by hop position.
    pub bmp_len_by_position: Vec<f64>,
    /// Packets routed.
    pub packets: usize,
    /// Packets that reached their destination.
    pub delivered: usize,
    /// Total accesses across the whole run.
    pub total_accesses: u64,
    /// Hops that actually consulted a clue.
    pub clue_hops: u64,
    /// All hops taken.
    pub total_hops: u64,
}

impl RunStats {
    /// Mean accesses per hop over the whole run.
    pub fn mean_per_hop(&self) -> f64 {
        let hops: u64 = self.per_router.iter().map(|s| s.samples()).sum();
        if hops == 0 {
            0.0
        } else {
            self.total_accesses as f64 / hops as f64
        }
    }

    /// Mean accesses per hop, excluding each packet's first (clue-less)
    /// hop — the steady-state cost of a clue-routed core.
    pub fn mean_per_clue_hop(&self) -> f64 {
        let (mut total, mut n) = (0.0, 0u64);
        for s in self.per_hop_position.iter().skip(1) {
            total += s.mean() * s.samples() as f64;
            n += s.samples();
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }

    /// Mirrors the run's summary figures into `registry` as gauges
    /// (`clue_netsim_mean_accesses_per_hop`, …) plus [`CostStats`]
    /// mirrors for the first-hop and steady-state positions — the
    /// registry view of a netsim report.
    pub(crate) fn export_into(&self, registry: &Registry) {
        registry
            .gauge("clue_netsim_mean_accesses_per_hop", "Mean memory accesses per hop")
            .set(self.mean_per_hop());
        registry
            .gauge(
                "clue_netsim_mean_accesses_per_clue_hop",
                "Mean memory accesses per hop, first hops excluded",
            )
            .set(self.mean_per_clue_hop());
        registry
            .gauge("clue_netsim_clue_hop_fraction", "Fraction of hops that consulted a clue")
            .set(if self.total_hops == 0 {
                0.0
            } else {
                self.clue_hops as f64 / self.total_hops as f64
            });
        registry
            .gauge("clue_netsim_delivery_rate", "Fraction of packets delivered")
            .set(if self.packets == 0 {
                0.0
            } else {
                self.delivered as f64 / self.packets as f64
            });
        if let Some(first) = self.per_hop_position.first() {
            export_cost_stats(registry, "clue_netsim_first_hop", first);
        }
        if self.per_hop_position.len() > 1 {
            let mut steady = CostStats::new();
            for s in &self.per_hop_position[1..] {
                steady.merge(s);
            }
            export_cost_stats(registry, "clue_netsim_clue_hop", &steady);
        }
    }
}

/// SplitMix64 finalizer over a (seed, packet index) pair: the root of
/// packet `i`'s private RNG stream. Cheap, and two distinct indices
/// never collide for a fixed seed (the finalizer is a bijection).
pub(crate) fn packet_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws packet `i`'s (source, destination) pair from its private
/// stream — the shared half of the determinism contract between
/// [`run_workload_per_packet`] and the multi-core runtime.
pub(crate) fn draw_packet<A: Address>(
    net: &Network<A>,
    sources: &[RouterId],
    origins: &[RouterId],
    seed: u64,
    index: u64,
) -> (RouterId, A) {
    draw(net, sources, origins, &mut StdRng::seed_from_u64(packet_seed(seed, index)))
}

/// Draws one (source, destination) pair from `rng`: a random source,
/// then a destination in a random origin's address space (excluding an
/// origin co-located with the source, so every packet actually crosses
/// the network).
fn draw<A: Address>(
    net: &Network<A>,
    sources: &[RouterId],
    origins: &[RouterId],
    rng: &mut StdRng,
) -> (RouterId, A) {
    let src = *sources.choose(rng).expect("non-empty sources");
    let oi = loop {
        let i = rng.random_range(0..origins.len());
        if origins[i] != src || origins.len() == 1 {
            break i;
        }
    };
    (src, net.random_destination(oi, rng))
}

/// Order-merged shard accumulator; integer-only so merge grouping
/// cannot change the result — every field is a sum or a maximum, so
/// the merge is commutative and associative, and *any* exactly-once
/// partition of the packet stream (the one-packet-at-a-time reference
/// here, dealt batches in [`crate::runtime`]) folds to the same
/// [`RunStats`].
pub(crate) struct Accum {
    per_router: Vec<CostStats>,
    per_hop_position: Vec<CostStats>,
    bmp_len_sum: Vec<(u64, u64)>,
    delivered: usize,
    total: u64,
    clue_hops: u64,
    total_hops: u64,
}

impl Accum {
    pub(crate) fn new(routers: usize) -> Self {
        Accum {
            per_router: vec![CostStats::new(); routers],
            per_hop_position: Vec::new(),
            bmp_len_sum: Vec::new(),
            delivered: 0,
            total: 0,
            clue_hops: 0,
            total_hops: 0,
        }
    }

    pub(crate) fn record<A: Address>(&mut self, trace: &PathTrace<A>) {
        if trace.delivered {
            self.record_delivered();
        }
        for (pos, hop) in trace.hops.iter().enumerate() {
            let mut full = hop.cost;
            full += hop.shift_cost;
            self.record_hop(pos, hop.router, hop.bmp.map_or(0, |p| p.len()), full, hop.used_clue);
        }
    }

    /// One hop, recorded without materialising a [`PathTrace`] — the
    /// allocation-free twin of [`Self::record`] used by the serving
    /// runtime's inline walk. `full` is the hop's own cost plus its
    /// Section 5.4 shifted work, exactly as `record` folds them.
    #[inline]
    pub(crate) fn record_hop(
        &mut self,
        pos: usize,
        router: RouterId,
        bmp_len: u8,
        full: Cost,
        used_clue: bool,
    ) {
        let t = full.total();
        self.per_router[router].record_with_total(full, t);
        if self.per_hop_position.len() <= pos {
            self.per_hop_position.resize(pos + 1, CostStats::new());
            self.bmp_len_sum.resize(pos + 1, (0, 0));
        }
        self.per_hop_position[pos].record_with_total(full, t);
        let (s, c) = &mut self.bmp_len_sum[pos];
        *s += bmp_len as u64;
        *c += 1;
        self.total += t;
        self.total_hops += 1;
        if used_clue {
            self.clue_hops += 1;
        }
    }

    pub(crate) fn record_delivered(&mut self) {
        self.delivered += 1;
    }

    pub(crate) fn merge(&mut self, other: &Accum) {
        for (a, b) in self.per_router.iter_mut().zip(&other.per_router) {
            a.merge(b);
        }
        if self.per_hop_position.len() < other.per_hop_position.len() {
            self.per_hop_position.resize(other.per_hop_position.len(), CostStats::new());
            self.bmp_len_sum.resize(other.bmp_len_sum.len(), (0, 0));
        }
        for (a, b) in self.per_hop_position.iter_mut().zip(&other.per_hop_position) {
            a.merge(b);
        }
        for (a, b) in self.bmp_len_sum.iter_mut().zip(&other.bmp_len_sum) {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.delivered += other.delivered;
        self.total += other.total;
        self.clue_hops += other.clue_hops;
        self.total_hops += other.total_hops;
    }

    pub(crate) fn finish(self, packets: usize) -> RunStats {
        RunStats {
            per_router: self.per_router,
            bmp_len_by_position: self
                .bmp_len_sum
                .iter()
                .map(|&(s, c)| if c == 0 { 0.0 } else { s as f64 / c as f64 })
                .collect(),
            per_hop_position: self.per_hop_position,
            packets,
            delivered: self.delivered,
            total_accesses: self.total,
            clue_hops: self.clue_hops,
            total_hops: self.total_hops,
        }
    }
}

/// The scalar reference for the multi-core runtime: routes packet `i`
/// of the seeded workload from its own RNG stream (`packet_seed`),
/// one packet at a time, through the **live**
/// [`ClueEngine`](clue_core::ClueEngine)s. For any compilable network,
/// `run_workload_per_packet(net, …) ==
/// CompiledNetwork::compile(net, …)?.run_workload(…, workers)` on every
/// backend and at every worker count — the property
/// `tests/runtime_equivalence.rs` pins down. (It is not draw-for-draw
/// identical to [`run_workload`], which shares one sequential RNG
/// stream across packets.)
pub fn run_workload_per_packet<A: Address>(
    net: &mut Network<A>,
    sources: &[RouterId],
    packets: usize,
    seed: u64,
) -> RunStats {
    let origins = origins(net, sources);
    route_all(net, packets, None, |net, i| draw_packet(net, sources, &origins, seed, i as u64))
}

/// Runs `packets` random edge-to-edge packets over the network, all
/// drawn from one sequential RNG stream seeded with `seed`.
///
/// Sources are drawn from `sources`; destinations from random origins'
/// address space (excluding an origin co-located with the source, so
/// every packet actually crosses the network).
pub fn run_workload<A: Address>(
    net: &mut Network<A>,
    sources: &[RouterId],
    packets: usize,
    seed: u64,
) -> RunStats {
    let origins = origins(net, sources);
    let mut rng = StdRng::seed_from_u64(seed);
    route_all(net, packets, None, |net, _| draw(net, sources, &origins, &mut rng))
}

/// As [`run_workload`], additionally recording per-hop telemetry
/// (`clue_netsim_*` counters and histograms) into `registry` while the
/// run progresses and mirroring the final [`RunStats`] summary into it.
pub fn run_workload_instrumented<A: Address>(
    net: &mut Network<A>,
    sources: &[RouterId],
    packets: usize,
    seed: u64,
    registry: &Registry,
) -> RunStats {
    let origins = origins(net, sources);
    let mut rng = StdRng::seed_from_u64(seed);
    let telemetry = HopTelemetry::registered(registry);
    let stats = route_all(net, packets, Some(&telemetry), |net, _| {
        draw(net, sources, &origins, &mut rng)
    });
    stats.export_into(registry);
    stats
}

/// The network's origins, once both ends of a workload are known to be
/// non-empty.
fn origins<A: Address>(net: &Network<A>, sources: &[RouterId]) -> Vec<RouterId> {
    assert!(!sources.is_empty(), "need at least one source");
    let origins = net.config().origins.clone();
    assert!(!origins.is_empty(), "need at least one origin");
    origins
}

/// The one workload loop: routes packets `0..packets`, each drawn by
/// `next`, folding every trace into an [`Accum`] (a router's load
/// includes any Section 5.4 work it performs on behalf of its
/// downstream neighbor) and into `telemetry` when given.
fn route_all<A: Address>(
    net: &mut Network<A>,
    packets: usize,
    telemetry: Option<&HopTelemetry>,
    mut next: impl FnMut(&Network<A>, usize) -> (RouterId, A),
) -> RunStats {
    let mut acc = Accum::new(net.topology().len());
    for i in 0..packets {
        let (src, dest) = next(net, i);
        let trace = net.route_packet(src, dest);
        acc.record(&trace);
        if let Some(t) = telemetry {
            t.record(&trace);
        }
    }
    acc.finish(packets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use crate::topology::Topology;
    use clue_core::{EngineConfig, Method};
    use clue_lookup::Family;
    use clue_trie::Ip4;

    fn build(method: Method, participation: f64) -> (Network<Ip4>, Vec<RouterId>) {
        let (topo, edges) = Topology::backbone(4, 2);
        let mut cfg = NetworkConfig::new(edges.clone(), EngineConfig::new(Family::Regular, method));
        cfg.specifics_per_origin = 12;
        cfg.participation = participation;
        cfg.seed = 42;
        (Network::build(topo, cfg), edges)
    }

    #[test]
    fn workload_delivers_everything_on_connected_topology() {
        let (mut net, edges) = build(Method::Advance, 1.0);
        let stats = run_workload(&mut net, &edges, 200, 1);
        assert_eq!(stats.packets, 200);
        assert_eq!(stats.delivered, 200);
        assert!(stats.total_accesses > 0);
        // Pins the sequential RNG stream: any change to the draw order
        // or the fold moves these figures.
        assert_eq!((stats.total_accesses, stats.total_hops, stats.clue_hops), (5898, 836, 636));
    }

    #[test]
    fn clue_hops_are_much_cheaper_than_first_hops() {
        let (mut net, edges) = build(Method::Advance, 1.0);
        let stats = run_workload(&mut net, &edges, 300, 2);
        let first = stats.per_hop_position[0].mean();
        let steady = stats.mean_per_clue_hop();
        assert!(
            steady * 3.0 < first,
            "steady {steady:.2} not ≪ first-hop {first:.2}"
        );
    }

    #[test]
    fn advance_beats_common_network_wide() {
        let (mut adv, edges) = build(Method::Advance, 1.0);
        let (mut com, _) = build(Method::Common, 1.0);
        let sa = run_workload(&mut adv, &edges, 200, 3);
        let sc = run_workload(&mut com, &edges, 200, 3);
        assert!(
            sa.total_accesses * 2 < sc.total_accesses,
            "advance {} vs common {}",
            sa.total_accesses,
            sc.total_accesses
        );
    }

    #[test]
    fn partial_participation_still_helps() {
        let (mut full, edges) = build(Method::Advance, 1.0);
        let (mut half, _) = build(Method::Advance, 0.5);
        let (mut none, _) = build(Method::Common, 1.0);
        let sf = run_workload(&mut full, &edges, 200, 4);
        let sh = run_workload(&mut half, &edges, 200, 4);
        let sn = run_workload(&mut none, &edges, 200, 4);
        assert!(sf.total_accesses <= sh.total_accesses);
        assert!(
            sh.total_accesses < sn.total_accesses,
            "half {} should beat none {}",
            sh.total_accesses,
            sn.total_accesses
        );
    }

    #[test]
    fn instrumented_run_mirrors_stats_into_registry() {
        let (mut net, edges) = build(Method::Advance, 1.0);
        let registry = Registry::new();
        let stats = run_workload_instrumented(&mut net, &edges, 100, 7, &registry);
        let counter = |name: &str| {
            assert!(registry.contains(name), "{name} registered");
            registry.counter(name, "").get()
        };
        assert_eq!(counter("clue_netsim_packets_total"), stats.packets as u64);
        assert_eq!(counter("clue_netsim_delivered_total"), stats.delivered as u64);
        assert_eq!(counter("clue_netsim_hops_total"), stats.total_hops);
        assert_eq!(counter("clue_netsim_clue_hops_total"), stats.clue_hops);
        assert!(registry.contains("clue_netsim_hop_memory_references"));
        let refs = registry
            .histogram("clue_netsim_hop_memory_references", "", MEMORY_REFERENCE_BOUNDS)
            .snapshot();
        assert_eq!(refs.count, stats.total_hops);
        assert_eq!(refs.sum, stats.total_accesses);
        // Summary gauges are mirrored too.
        assert!(registry.contains("clue_netsim_mean_accesses_per_hop"));
        assert!(registry.contains("clue_netsim_delivery_rate"));
        assert!(registry.contains("clue_netsim_first_hop_mean_accesses"));
        assert!(registry.contains("clue_netsim_clue_hop_mean_accesses"));
        // Instrumenting the run does not change it.
        let (mut plain, _) = build(Method::Advance, 1.0);
        assert_eq!(stats, run_workload(&mut plain, &edges, 100, 7));
    }

    #[test]
    fn bmp_length_curve_is_increasing() {
        let (mut net, edges) = build(Method::Advance, 1.0);
        let stats = run_workload(&mut net, &edges, 200, 5);
        let curve = &stats.bmp_len_by_position;
        assert!(curve.len() >= 3);
        assert!(
            curve.last().unwrap() > &curve[0],
            "BMP curve should grow: {curve:?}"
        );
    }
}
