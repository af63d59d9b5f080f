//! Sharded, multi-threaded workload driver over a frozen network.
//!
//! [`run_workload`](crate::run_workload) routes packets one at a time
//! through mutable [`ClueEngine`](clue_core::ClueEngine)s. This module
//! freezes every engine into its read-only
//! [`FrozenEngine`](clue_core::FrozenEngine) compilation
//! ([`FrozenNetwork`]) and fans the packet stream out across OS threads
//! with [`std::thread::scope`] — no locks, no new dependencies.
//!
//! ## The determinism-under-sharding contract
//!
//! [`run_workload_parallel`] is **bit-identical for a given seed
//! regardless of thread count**. Three ingredients make that hold:
//!
//! 1. *Per-packet RNG streams.* Packet `i` draws from its own
//!    `StdRng` seeded with `splitmix64(seed, i)` instead of sharing one
//!    sequential stream, so a packet's draws do not depend on which
//!    thread runs it or what ran before it. (This is also why the
//!    parallel driver is not draw-for-draw identical to the sequential
//!    [`run_workload`](crate::run_workload); [`run_workload_per_packet`]
//!    is the scalar reference with the same derivation.)
//! 2. *Contiguous shards, merged in order.* Thread `t` owns packets
//!    `[t·chunk, (t+1)·chunk)` and accumulates into its own
//!    [`CostStats`] set; shards are merged left to right, so every
//!    merge tree reduces to the same integer sums and maxima.
//! 3. *Integer accumulation.* Per-position BMP-length sums are kept as
//!    `u64` and divided once at the end — no float-association drift.
//!
//! Frozen engines are stateless, so per-packet work is genuinely
//! independent: the same property that makes the run parallelizable
//! makes it deterministic.

use clue_core::{
    BackendError, ClueHeader, CompiledBackend, FreezeError, FrozenEngine, Meter, StageMeter,
    StageProfiler,
};
use clue_trie::{Address, Cost, CostStats};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

use crate::network::{Hop, HopRecord, Network, PathTrace};
use crate::sim::RunStats;
use crate::topology::RouterId;

/// “No per-neighbor engine” sentinel in
/// [`CompiledRouter::by_neighbor`].
const NO_ENGINE: u32 = u32::MAX;

/// One router's compiled lookup state (the FIB stays borrowed from the
/// live [`Network`]).
///
/// Per-neighbor engines live in a dense vector behind a
/// direct-indexed `by_neighbor` table: the live network keys them by
/// neighbor id in a `HashMap`, but a SipHash probe per hop is real
/// money on the forwarding path, and router ids are small dense
/// integers anyway.
#[derive(Debug)]
struct CompiledRouter<E> {
    base: E,
    /// Neighbor id → index into `engines`, [`NO_ENGINE`] if none.
    by_neighbor: Vec<u32>,
    engines: Vec<E>,
    participates: bool,
}

/// A read-only view of a [`Network`] with every clue engine compiled
/// to one [`CompiledBackend`]: routable from `&self`, shareable across
/// threads. Every backend routes bit-identically (the Cost-parity
/// contract); the generic exists so the sharded driver can be pointed
/// at any compiled layout.
#[derive(Debug)]
pub struct PacketNetwork<'n, A: Address, E: CompiledBackend<A>> {
    net: &'n Network<A>,
    routers: Vec<CompiledRouter<E>>,
}

/// The sharded driver on the frozen backend — the historical name.
pub type FrozenNetwork<'n, A> = PacketNetwork<'n, A, FrozenEngine<A>>;

impl<'n, A: Address> FrozenNetwork<'n, A> {
    /// Freezes every engine in `net`. Fails if any engine is not
    /// freezable (non-Regular family, indexed table, or an LRU cache —
    /// caches make per-packet cost history-dependent, which the
    /// deterministic sharded driver cannot reproduce).
    pub fn freeze(net: &'n Network<A>) -> Result<Self, FreezeError> {
        Self::compile(net, &()).map_err(|e| match e {
            BackendError::Freeze(e) => e,
            BackendError::Stride(_) => unreachable!("frozen compilation has no stride stage"),
        })
    }
}

impl<'n, A: Address, E: CompiledBackend<A>> PacketNetwork<'n, A, E> {
    /// Compiles every engine in `net` to backend `E`. Fails like a
    /// freeze fails, or if the backend rejects its configuration.
    pub fn compile(net: &'n Network<A>, config: &E::Config) -> Result<Self, BackendError> {
        let n = net.topology().len();
        let routers = net
            .routers()
            .iter()
            .map(|r| {
                let mut by_neighbor = vec![NO_ENGINE; n];
                let mut engines = Vec::with_capacity(r.engines.len());
                for (&nb, e) in &r.engines {
                    by_neighbor[nb] = engines.len() as u32;
                    engines.push(E::compile(e, config)?);
                }
                Ok(CompiledRouter {
                    base: E::compile(&r.base, config)?,
                    by_neighbor,
                    engines,
                    participates: r.participates,
                })
            })
            .collect::<Result<Vec<_>, BackendError>>()?;
        Ok(PacketNetwork { net, routers })
    }

    /// The live network this view was frozen from.
    pub fn network(&self) -> &'n Network<A> {
        self.net
    }

    /// Forwards one packet exactly like
    /// [`Network::route_packet`] — same hops, same per-hop [`Cost`],
    /// same Section 5.4 shifted work — but from `&self`, through the
    /// compiled engines.
    pub fn route_packet(&self, src: RouterId, dest: A) -> PathTrace<A> {
        self.route_packet_with(src, dest, &mut Cost::new())
    }

    /// As [`Self::route_packet`], charging every hop's engine lookup
    /// to `meter` (reset to a zero [`Cost`] at each hop, whose ticks
    /// the hop record keeps). With a [`StageMeter`] the lookups are
    /// attributed to pipeline stages; the route is the same either way
    /// (see [`clue_core::Meter`]). The Section 5.4 shifted-work leg is
    /// raw FIB trie work rather than an engine lookup and is charged
    /// to the hop's `shift_cost`, outside the meter.
    pub fn route_packet_with<M: Meter>(
        &self,
        src: RouterId,
        dest: A,
        meter: &mut M,
    ) -> PathTrace<A> {
        let config = self.net.config();
        let routers = self.net.routers();
        let mut hops = Vec::new();
        let mut header = ClueHeader::none();
        let mut prev: Option<RouterId> = None;
        let mut cur = src;
        let mut delivered = false;
        let max_hops = self.net.topology().len() * 2 + 4;

        for _ in 0..max_hops {
            *meter.cost() = Cost::new();
            let node = &self.routers[cur];
            let fib = &routers[cur].fib;
            let engine_slot =
                prev.map_or(NO_ENGINE, |p| node.by_neighbor.get(p).copied().unwrap_or(NO_ENGINE));
            let used_clue =
                node.participates && engine_slot != NO_ENGINE && header.clue.is_some();
            let bmp = if used_clue {
                let engine = &node.engines[engine_slot as usize];
                engine.lookup(dest, header.decode(dest), meter).0
            } else {
                node.base.lookup(dest, None, meter).0
            };
            let cost = *meter.cost();

            let next = bmp.and_then(|p| fib.get(&p)).map(|r| *fib.value(r));

            let mut shift_cost = Cost::new();
            if node.participates {
                if let Some(p) = bmp {
                    header = ClueHeader::with_clue(&p);
                }
                if config.shift_work_to_edges {
                    if let Some(Hop::Via(nh)) = next {
                        if config.core.contains(&nh) {
                            let nb_fib = &routers[nh].fib;
                            let nb_bmp = match bmp.and_then(|p| nb_fib.node_of_prefix(&p)) {
                                Some(start) => nb_fib
                                    .lookup_from(start, dest, &mut shift_cost)
                                    .map(|r| nb_fib.prefix(r)),
                                None => nb_fib
                                    .lookup_counted(dest, &mut shift_cost)
                                    .map(|r| nb_fib.prefix(r)),
                            };
                            if let Some(p) = nb_bmp {
                                header = ClueHeader::with_clue(&p);
                            }
                        }
                    }
                }
            }

            hops.push(HopRecord { router: cur, from: prev, bmp, cost, shift_cost, used_clue });

            match next {
                Some(Hop::Local) => {
                    delivered = true;
                    break;
                }
                Some(Hop::Via(nh)) => {
                    prev = Some(cur);
                    cur = nh;
                }
                None => break,
            }
        }
        PathTrace { dest, hops, delivered }
    }
}

impl<'n, A: Address, E: CompiledBackend<A>> PacketNetwork<'n, A, E> {
    /// Routes `packets` random packets through this already-compiled
    /// view, sharded over `threads` scoped OS threads — the hot half
    /// of [`run_workload_parallel`], with the one-off freeze hoisted
    /// out. Callers that already hold a compiled view (or want to
    /// time the steady state without the setup) use this directly.
    ///
    /// Results are bit-identical for a given `seed` regardless of
    /// `threads` (see the module docs).
    ///
    /// # Panics
    /// Panics if `sources` is empty, the network has no origins, or
    /// `threads` is zero.
    pub fn run_workload(
        &self,
        sources: &[RouterId],
        packets: usize,
        seed: u64,
        threads: usize,
    ) -> RunStats {
        self.drive::<Cost>(sources, packets, seed, threads).0
    }

    /// As [`Self::run_workload`], additionally aggregating a
    /// [`StageProfiler`] across every hop's engine lookup: per-thread
    /// profilers, merged left to right like the cost shards, so the
    /// predicted half of the attribution (visits, ticks, bytes) is
    /// bit-identical for a given seed regardless of thread count —
    /// only the measured nanoseconds vary with the machine.
    ///
    /// # Panics
    /// As [`Self::run_workload`].
    pub fn profile_workload(
        &self,
        sources: &[RouterId],
        packets: usize,
        seed: u64,
        threads: usize,
    ) -> (RunStats, StageProfiler) {
        let (stats, meters) = self.drive::<StageMeter>(sources, packets, seed, threads);
        let mut prof = StageProfiler::new();
        for m in &meters {
            prof.merge(&m.profiler);
        }
        (stats, prof)
    }

    /// The sharded driver behind both entry points: thread `t` routes
    /// packets `[t·chunk, (t+1)·chunk)` through its own meter and cost
    /// shard; shards merge in spawn order and the meters come back in
    /// that order too.
    fn drive<M: Meter + Default + Send>(
        &self,
        sources: &[RouterId],
        packets: usize,
        seed: u64,
        threads: usize,
    ) -> (RunStats, Vec<M>) {
        assert!(threads > 0, "need at least one thread");
        assert!(!sources.is_empty(), "need at least one source");
        let origins = self.net.config().origins.clone();
        assert!(!origins.is_empty(), "need at least one origin");

        let n = self.net.topology().len();
        let chunk = packets.div_ceil(threads);
        let mut acc = Accum::new(n);
        let mut meters = Vec::with_capacity(threads);

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = (t * chunk).min(packets);
                    let hi = ((t + 1) * chunk).min(packets);
                    let (compiled, origins, sources) = (&*self, &origins, sources);
                    scope.spawn(move || {
                        let mut shard = Accum::new(n);
                        let mut meter = M::default();
                        for i in lo..hi {
                            let (src, dest) =
                                draw_packet(compiled.network(), sources, origins, seed, i as u64);
                            shard.record(&compiled.route_packet_with(src, dest, &mut meter));
                        }
                        (shard, meter)
                    })
                })
                .collect();
            // Join in spawn order: shard t covers packets
            // [t·chunk, …), so a left-to-right merge is packet order.
            for h in handles {
                let (shard, meter) = h.join().expect("shard thread panicked");
                acc.merge(&shard);
                meters.push(meter);
            }
        });
        (acc.finish(packets), meters)
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
/// stream — the shared half of the scalar/parallel determinism
/// contract.
pub(crate) fn draw_packet<A: Address>(
    net: &Network<A>,
    sources: &[RouterId],
    origins: &[RouterId],
    seed: u64,
    index: u64,
) -> (RouterId, A) {
    let mut rng = StdRng::seed_from_u64(packet_seed(seed, index));
    let src = *sources.choose(&mut rng).expect("non-empty sources");
    let oi = loop {
        let i = rng.random_range(0..origins.len());
        if origins[i] != src || origins.len() == 1 {
            break i;
        }
    };
    (src, net.random_destination(oi, &mut rng))
}

/// Order-merged shard accumulator; integer-only so merge grouping
/// cannot change the result — every field is a sum or a maximum, so
/// the merge is commutative and associative, and *any* exactly-once
/// partition of the packet stream (contiguous shards here, channel-fed
/// batches in [`crate::runtime`]) folds to the same [`RunStats`].
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

/// The scalar reference for [`run_workload_parallel`]: routes the
/// identical per-packet stream sequentially through the **live**
/// [`ClueEngine`](clue_core::ClueEngine)s. For any freezable network,
/// `run_workload_per_packet(net, …) ==
/// run_workload_parallel(net, …, threads)` for every thread count —
/// the property `tests/parallel.rs` pins down.
pub fn run_workload_per_packet<A: Address>(
    net: &mut Network<A>,
    sources: &[RouterId],
    packets: usize,
    seed: u64,
) -> RunStats {
    assert!(!sources.is_empty(), "need at least one source");
    let origins = net.config().origins.clone();
    assert!(!origins.is_empty(), "need at least one origin");
    let mut acc = Accum::new(net.topology().len());
    for i in 0..packets {
        let (src, dest) = draw_packet(net, sources, &origins, seed, i as u64);
        let trace = net.route_packet(src, dest);
        acc.record(&trace);
    }
    acc.finish(packets)
}

/// Freezes `net` and routes `packets` random packets through it,
/// sharded over `threads` scoped OS threads.
///
/// This is the freeze-and-run convenience; the freeze is one-off
/// setup, so anything timing the steady state (or running several
/// workloads over one table) should call [`FrozenNetwork::freeze`]
/// once and [`FrozenNetwork::run_workload`] per run instead.
///
/// Results are bit-identical for a given `seed` regardless of
/// `threads`, and equal to [`run_workload_per_packet`] on the live
/// network (see the module docs for why, and for how this relates to
/// the sequential [`run_workload`](crate::run_workload)).
///
/// # Errors
/// Propagates the [`FreezeError`] if any engine cannot be frozen.
///
/// # Panics
/// Panics if `sources` is empty, the network has no origins, or
/// `threads` is zero.
pub fn run_workload_parallel<A: Address>(
    net: &Network<A>,
    sources: &[RouterId],
    packets: usize,
    seed: u64,
    threads: usize,
) -> Result<RunStats, FreezeError> {
    Ok(FrozenNetwork::freeze(net)?.run_workload(sources, packets, seed, threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use crate::topology::Topology;
    use clue_core::{CompressedConfig, CompressedEngine, EngineConfig, Method};
    use clue_lookup::Family;
    use clue_trie::Ip4;

    fn build(method: Method) -> (Network<Ip4>, Vec<RouterId>) {
        let (topo, edges) = Topology::backbone(4, 2);
        let mut cfg = NetworkConfig::new(edges.clone(), EngineConfig::new(Family::Regular, method));
        cfg.specifics_per_origin = 12;
        cfg.seed = 42;
        (Network::build(topo, cfg), edges)
    }

    #[test]
    fn frozen_routing_matches_live_routing() {
        let (mut net, edges) = build(Method::Advance);
        let origins = net.config().origins.clone();
        let mut packets = Vec::new();
        for i in 0..50u64 {
            packets.push(draw_packet(&net, &edges, &origins, 9, i));
        }
        let frozen_traces: Vec<_> = {
            let frozen = FrozenNetwork::freeze(&net).unwrap();
            packets.iter().map(|&(src, dest)| frozen.route_packet(src, dest)).collect()
        };
        for (&(src, dest), f) in packets.iter().zip(&frozen_traces) {
            let l = net.route_packet(src, dest);
            assert_eq!(f.delivered, l.delivered);
            assert_eq!(f.hops.len(), l.hops.len());
            for (fh, lh) in f.hops.iter().zip(&l.hops) {
                assert_eq!((fh.router, fh.bmp, fh.used_clue), (lh.router, lh.bmp, lh.used_clue));
                assert_eq!(fh.cost, lh.cost, "cost parity at router {}", fh.router);
                assert_eq!(fh.shift_cost, lh.shift_cost);
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (net, edges) = build(Method::Advance);
        let r1 = run_workload_parallel(&net, &edges, 120, 7, 1).unwrap();
        let r2 = run_workload_parallel(&net, &edges, 120, 7, 2).unwrap();
        let r8 = run_workload_parallel(&net, &edges, 120, 7, 8).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1, r8);
        assert_eq!(r1.packets, 120);
        assert!(r1.delivered > 0);
    }

    #[test]
    fn frozen_run_workload_matches_the_convenience_wrapper() {
        let (net, edges) = build(Method::Advance);
        let frozen = FrozenNetwork::freeze(&net).unwrap();
        let a = frozen.run_workload(&edges, 80, 13, 2);
        let b = frozen.run_workload(&edges, 80, 13, 5);
        let c = run_workload_parallel(&net, &edges, 80, 13, 3).unwrap();
        assert_eq!(a, b, "reusing one frozen view is thread-count invariant");
        assert_eq!(a, c, "freeze-once equals freeze-and-run");
    }

    #[test]
    fn parallel_equals_scalar_reference() {
        let (mut net, edges) = build(Method::Advance);
        let par = run_workload_parallel(&net, &edges, 100, 3, 4).unwrap();
        let seq = run_workload_per_packet(&mut net, &edges, 100, 3);
        assert_eq!(par, seq);
    }

    #[test]
    fn uneven_and_excess_shards_cover_every_packet() {
        let (net, edges) = build(Method::Simple);
        let a = run_workload_parallel(&net, &edges, 17, 5, 3).unwrap();
        let b = run_workload_parallel(&net, &edges, 17, 5, 32).unwrap();
        assert_eq!(a, b);
        let hops: u64 = a.per_router.iter().map(CostStats::samples).sum();
        assert_eq!(hops, a.total_hops);
    }

    #[test]
    fn profiled_routing_is_semantically_inert() {
        let (net, edges) = build(Method::Advance);
        let origins = net.config().origins.clone();
        let frozen = FrozenNetwork::freeze(&net).unwrap();
        let mut meter = StageMeter::default();
        let mut charged = 0u64;
        for i in 0..60u64 {
            let (src, dest) = draw_packet(&net, &edges, &origins, 21, i);
            let plain = frozen.route_packet(src, dest);
            let profiled = frozen.route_packet_with(src, dest, &mut meter);
            assert_eq!(plain.delivered, profiled.delivered);
            assert_eq!(plain.hops.len(), profiled.hops.len());
            for (p, q) in plain.hops.iter().zip(&profiled.hops) {
                assert_eq!((p.router, p.bmp, p.used_clue), (q.router, q.bmp, q.used_clue));
                assert_eq!(p.cost, q.cost, "cost parity at router {}", p.router);
                assert_eq!(p.shift_cost, q.shift_cost);
                charged += p.cost.total();
            }
        }
        // Every charged tick is attributed to exactly one stage; the
        // unprofiled shift leg charges shift_cost, not cost.
        let prof = &meter.profiler;
        assert_eq!(prof.total_ticks(), charged);
        assert!(prof.lookups() > 0);
        assert!(prof.stage(clue_core::Stage::Root).visits > 0);
    }

    #[test]
    fn profile_workload_matches_run_workload_and_is_thread_invariant() {
        let (net, edges) = build(Method::Advance);
        // Any backend profiles; the compressed one attributes the same
        // ticks as the frozen one, since both charge the paper's model.
        let compressed =
            PacketNetwork::<Ip4, CompressedEngine<Ip4>>::compile(&net, &CompressedConfig).unwrap();
        let (sc, pc) = compressed.profile_workload(&edges, 90, 17, 2);
        let frozen = FrozenNetwork::freeze(&net).unwrap();
        let plain = frozen.run_workload(&edges, 90, 17, 3);
        let (s1, p1) = frozen.profile_workload(&edges, 90, 17, 1);
        let (s4, p4) = frozen.profile_workload(&edges, 90, 17, 4);
        assert_eq!(plain, s1, "profiling must not change the workload stats");
        assert_eq!(s1, s4);
        assert_eq!(p1.lookups(), s1.total_hops, "one profiled lookup per hop");
        assert_eq!(p1.lookups(), p4.lookups());
        // The predicted half of the attribution is deterministic; only
        // the measured nanoseconds depend on the machine and threads.
        assert_eq!(p1.total_ticks(), p4.total_ticks());
        assert_eq!(p1.total_bytes(), p4.total_bytes());
        for stage in clue_core::Stage::all() {
            assert_eq!(p1.stage(stage).visits, p4.stage(stage).visits, "{}", stage.label());
            assert_eq!(p1.stage(stage).ticks, p4.stage(stage).ticks, "{}", stage.label());
        }
        assert!(p1.total_ticks() > 0);
        assert_eq!(sc, s1, "backends route identically");
        assert_eq!(pc.total_ticks(), p1.total_ticks());
        assert_eq!(pc.lookups(), p1.lookups());
    }

    #[test]
    fn cached_networks_refuse_to_freeze() {
        let (topo, edges) = Topology::backbone(4, 2);
        let mut cfg =
            NetworkConfig::new(edges.clone(), EngineConfig::new(Family::Regular, Method::Advance));
        cfg.specifics_per_origin = 8;
        cfg.cache_capacity = Some(16);
        cfg.seed = 1;
        let net: Network<Ip4> = Network::build(topo, cfg);
        assert_eq!(
            run_workload_parallel(&net, &edges, 10, 1, 2).unwrap_err(),
            FreezeError::CacheEnabled
        );
    }

    #[test]
    fn shift_work_mode_survives_freezing() {
        let (topo, edges) = Topology::backbone(4, 1);
        let mut cfg =
            NetworkConfig::new(edges.clone(), EngineConfig::new(Family::Regular, Method::Advance));
        cfg.specifics_per_origin = 8;
        cfg.core = vec![0, 1, 2, 3];
        cfg.shift_work_to_edges = true;
        cfg.seed = 11;
        let mut net: Network<Ip4> = Network::build(topo, cfg);
        let par = run_workload_parallel(&net, &edges, 60, 2, 4).unwrap();
        let seq = run_workload_per_packet(&mut net, &edges, 60, 2);
        assert_eq!(par, seq);
        assert!(par.per_router.iter().any(|s| s.sum().total() > 0));
    }
}
