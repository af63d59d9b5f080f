//! Multi-core serving runtime: the one compiled view of a [`Network`].
//!
//! [`CompiledNetwork`] compiles every router's clue engines to one
//! [`CompiledBackend`] and routes seeded workloads through
//! run-to-completion workers (after flashroute's "mutex or rwlock
//! free; all inter-task communications through message channels or
//! atomic operations"). A 1-worker run is the
//! compiled sequential reference; [`CompiledNetwork::profile_workload`]
//! runs the same walk under a [`StageMeter`], so the per-stage
//! attribution comes from the walk that serves. The job driver behind
//! it ([`drive_jobs`]) also drives [`serve_lookups`] and
//! [`Fleet::run_flows`](crate::Fleet::run_flows), its open-ended job
//! source ([`drive_while`]) both churn loops, and the compiled router
//! each hop runs ([`ClueRouter`]) is the fleet's too.
//!
//! * **Shared read-only engines.** Every worker reads the compiled
//!   routers, or the published engine, in place. A compiled engine is
//!   immutable between publishes and holds no telemetry handle, so
//!   workers share it without a copy or a lock; each owns only its
//!   accumulators, its meter and its epoch reader, built before the
//!   timed region starts.
//! * **Jobs dealt up front.** The driver deals the caller's jobs
//!   round-robin into one list per worker before any worker starts,
//!   so a worker never waits for work and nothing passes between
//!   threads while they serve; each worker hands its state back once,
//!   when it is joined. [`serve_lookups`] jobs are disjoint slices of
//!   the output that workers fill in place, so no job sends a result
//!   message.
//! * **Panics end the call, never hang it.** A worker that panics
//!   drops its state and the rest of its job list and reports the
//!   message in its slot: a job list re-raises it, an open-ended run's
//!   caller attributes it.
//! * **Deterministic partitioning.** Network jobs are contiguous
//!   packet-index ranges and every packet derives its own SplitMix64
//!   RNG stream from its index, so what a worker computes is
//!   independent of which worker computes it; the per-worker
//!   accumulators fold with commutative integer merges.
//!   [`StrideNetwork::run_workload`] is therefore **bit-identical to
//!   [`run_workload_per_packet`](crate::run_workload_per_packet) at
//!   any worker count** — the property `tests/runtime_equivalence.rs`
//!   pins down.
//! * **Churn seen at job boundaries.** [`serve_lookups`] serves from
//!   an [`EpochCell`]: each worker registers an [`EpochReader`], pins
//!   the cell once per job and serves the job from that guard, so a
//!   publish reaches every core at its next job with no barrier and
//!   no coordination with other cores. The guard's epochs-behind lag
//!   is attributed per core ([`CoreStats::max_staleness`]).
//!
//! Three details make the network driver fast enough to clear the
//! floors `scripts/verify.sh` gates on — `backend_speedup` ≥ 1.56 (one
//! worker over the scalar walk) and `scaling_efficiency` ≥ 0.59 (N
//! workers over one) — even before true parallelism:
//! router lookups run on stride-compiled engines (a direct-indexed
//! root plus multibit nodes instead of a bit-by-bit trie walk);
//! next-hop resolution — `fib.get(&bmp)`, an *uncharged* binary-trie
//! descent on the live path — is tag-indexed, the compiled lookup
//! returning a dense payload index ([`CompiledBackend::lookup_finish_tag`])
//! into the tag codes that [`ClueRouter`] fills at compile time from
//! `fib.get` of every tag's prefix (one array per router: its link
//! engines share its arena and tag dictionary); and each worker walks
//! [`WALK_LANES`] packets in lockstep, decoding-and-prefetching every
//! packet's next lookup ([`CompiledBackend::prepare`]) a full lane
//! rotation before resolving it, so the dependent loads of one walk
//! hide behind the other lanes' work. None of the three changes any
//! recorded statistic: the stride engines are tick-parity with the
//! scalar engines (the `stride_prop` suite), the tag codes resolve
//! exactly what the FIB walk resolves while both charge nothing, and
//! lane order only permutes commutative accumulator merges.

use std::any::Any;
use std::borrow::Borrow;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use clue_core::{
    BackendError, ClueEngine, ClueHeader, CompiledBackend, Decision, EngineStats,
    EpochCell, EpochReader, Meter, PreparedLookup, StageMeter, StageProfiler,
    StrideConfig, StrideEngine, DEFAULT_INTERLEAVE, NO_TAG,
};
use clue_telemetry::LookupClass;
use clue_trie::{Address, Cost, Prefix};

use crate::network::{Hop, Network};
use crate::sim::{draw_packet, Accum, RunStats};
use crate::topology::RouterId;

clue_telemetry::bundle! {
    /// Telemetry for the multi-core serving runtime (`clue_runtime_*`).
    ///
    /// The hot loop touches no shared cell per packet: workers
    /// accumulate plain integers and flush them once per run; only the
    /// staleness histogram is observed once per job.
    pub struct RuntimeTelemetry in "clue_runtime" {
        workers: Gauge = "Worker cores in the most recent serving run",
        batches_total: Counter = "Packet batches served by runtime worker cores",
        packets_total: Counter = "Packets served by runtime worker cores",
        /// Observed once per served job, from the guard it was served
        /// from.
        staleness_epochs: Histogram(&[0, 1, 2, 4, 8, 16]) =
            "Epochs behind the writer per served batch (0 = current)",
    }
}

impl RuntimeTelemetry {
    /// Flushes per-core attribution: the worker gauge and each core's
    /// counters.
    fn record_cores(&self, cores: &[CoreStats]) {
        self.workers.set(cores.len() as f64);
        for c in cores {
            self.packets_total.add(c.packets);
            self.batches_total.add(c.batches);
        }
    }
}

/// The number of worker cores [`RuntimeConfig::default`] uses: every
/// core the OS reports, falling back to one.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Tuning knobs of the serving runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker cores (default: [`available_workers`]).
    pub workers: usize,
    /// Packets per job — the unit the driver deals to the workers.
    /// [`serve_lookups`] pins the published engine once per job, so
    /// churn is observed at job boundaries.
    pub batch: usize,
    /// Prefetch window of the workers' batch loops (engine serving
    /// only; `<= 1` prepares then finishes each packet, no lookahead).
    pub prefetch: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: available_workers(),
            batch: 512,
            prefetch: DEFAULT_INTERLEAVE,
        }
    }
}

impl RuntimeConfig {
    /// A config with the given worker count and every other knob at
    /// its default.
    pub fn with_workers(workers: usize) -> Self {
        RuntimeConfig { workers, ..Default::default() }
    }
}

/// One worker core's attribution for a run.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    /// Packets this core served.
    pub packets: u64,
    /// Jobs this core served.
    pub batches: u64,
    /// Nanoseconds spent serving jobs (excludes priming and the wait
    /// for the other workers).
    pub busy_ns: u64,
    /// Nanoseconds this core spent priming its state, before the
    /// timed region.
    pub(crate) priming_ns: u64,
    /// Worst epochs-behind-the-writer this core served a batch at.
    pub max_staleness: u64,
    /// Always 0: every worker's jobs are dealt before it starts, so it
    /// never finds its feed empty. Kept only while the benchmark still
    /// reads it.
    pub backpressure: u64,
}

impl CoreStats {
    /// This core's packets per second of its own busy time — its
    /// serving rate, independent of how long it sat idle.
    pub fn pps(&self) -> f64 {
        self.packets as f64 / (self.busy_ns.max(1) as f64 / 1e9)
    }
}

/// What a runtime run did, beyond its workload result: wall-clock of
/// the timed region and per-core attribution.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Nanoseconds from "every worker primed" to "every worker
    /// joined" — the steady-state serving time.
    pub elapsed_ns: u64,
    /// Per-core attribution, indexed by worker.
    pub cores: Vec<CoreStats>,
}

impl RuntimeReport {
    /// Packets per second over the timed region.
    pub fn pps(&self) -> f64 {
        let packets: u64 = self.cores.iter().map(|c| c.packets).sum();
        packets as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }
}

// ---------------------------------------------------------------------
// Prefix → hop resolution
// ---------------------------------------------------------------------

/// Next-hop codes in the runtime's tag tables: a router id, or one of
/// these two sentinels.
const EMPTY_HOP: u32 = u32::MAX;
const LOCAL_HOP: u32 = u32::MAX - 1;

/// A forwarding decision as a tag-table code ([`EMPTY_HOP`] for a
/// prefix not in the FIB).
fn hop_code(hop: Option<Hop>) -> u32 {
    match hop {
        None => EMPTY_HOP,
        Some(Hop::Local) => LOCAL_HOP,
        Some(Hop::Via(nh)) => {
            let nh = nh as u32;
            assert!(nh < LOCAL_HOP, "router id collides with hop sentinel");
            nh
        }
    }
}

/// The forwarding decision a tag-table code stands for.
#[inline]
fn hop_of(code: u32) -> Option<Hop> {
    match code {
        EMPTY_HOP => None,
        LOCAL_HOP => Some(Hop::Local),
        nh => Some(Hop::Via(nh as RouterId)),
    }
}

// ---------------------------------------------------------------------
// The compiled clue router
// ---------------------------------------------------------------------

/// One router's compiled clue state, shared by the network runtime and
/// the fleet: a clue-less base engine, one clue engine per incoming
/// link slot (the owner maps links to slots) and a code for each tag —
/// a next hop in the runtime, an origin in the fleet — so the hot walk
/// turns "look the found prefix up in the FIB" into one tag-addressed
/// array read.
///
/// The router holds one walk arena (paper §3.4): every link engine is
/// compiled over the base engine ([`CompiledBackend::compile_link`])
/// and `Arc`-shares its clue-independent arrays and tag dictionary, so
/// a link owns only its clue buckets and the array carrying its
/// Claim-1 bits, and one code array serves every engine.
///
/// It owns the per-hop rule of the paper's network-wide scheme
/// (Sections 3 and 5.3): a participating router runs the clue engine of
/// the incoming link when the packet carries a clue, and its own
/// clue-less table otherwise ([`Self::engine`]). The owner then stamps
/// the resolved BMP as the next hop's clue if the router participates.
#[derive(Debug)]
pub(crate) struct ClueRouter<A: Address, E: CompiledBackend<A>> {
    /// Does this router use (and stamp) clues? Non-participants route
    /// with the base engine and relay the incoming header (Section
    /// 5.3).
    pub(crate) participates: bool,
    base: E,
    engines: Vec<E>,
    /// Tag codes, parallel to the tag dictionary every engine shares
    /// ([`CompiledBackend::tag_prefixes`]).
    codes: Box<[u32]>,
    family: PhantomData<A>,
}

/// Resident bytes of compiled routers, each array counted once however
/// many engines share it ([`Fleet::memory`](crate::Fleet::memory)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMemory {
    /// The routers' own engines: walk arena and tag dictionary, which
    /// every link engine shares.
    pub arena: u64,
    /// The link engines' Claim-1 arrays
    /// ([`CompiledBackend::claim_bytes`]), one per link.
    pub link: u64,
    /// Clue-probe structures of every engine (a base engine's hold no
    /// clue).
    pub buckets: u64,
    /// Tag code arrays, one per router.
    pub codes: u64,
}

impl EngineMemory {
    /// All four parts.
    pub fn total(&self) -> u64 {
        self.arena + self.link + self.buckets + self.codes
    }
}

impl std::iter::Sum for EngineMemory {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(EngineMemory::default(), |a, b| EngineMemory {
            arena: a.arena + b.arena,
            link: a.link + b.link,
            buckets: a.buckets + b.buckets,
            codes: a.codes + b.codes,
        })
    }
}

impl<A: Address, E: CompiledBackend<A>> ClueRouter<A, E> {
    /// Compiles a router: `base` with [`CompiledBackend::compile`] and
    /// each of `links` over it with [`CompiledBackend::compile_link`],
    /// then fills the tag codes with `code` of each tag's prefix.
    ///
    /// # Panics
    /// Panics if a link engine does not share the base engine's arena
    /// and tag dictionary ([`CompiledBackend::shares_arena`]).
    pub(crate) fn compile<L: Borrow<ClueEngine<A>>>(
        participates: bool,
        base: &ClueEngine<A>,
        links: impl IntoIterator<Item = L>,
        config: &E::Config,
        code: impl Fn(&Prefix<A>) -> u32,
    ) -> Result<Self, BackendError> {
        let base = E::compile(base, config)?;
        let engines: Vec<E> = links
            .into_iter()
            .map(|e| E::compile_link(&base, e.borrow()))
            .collect::<Result<_, _>>()?;
        assert!(
            engines.iter().all(|e| e.shares_arena(&base)),
            "every link engine shares its router's arena and tag dictionary"
        );
        let codes = base.tag_prefixes().iter().map(code).collect();
        Ok(ClueRouter { participates, base, engines, codes, family: PhantomData })
    }

    /// Resident bytes by part. [`Self::compile`] has checked that every
    /// link shares the base engine's arena, so the shared arrays are
    /// counted once, from the base.
    pub(crate) fn memory(&self) -> EngineMemory {
        EngineMemory {
            arena: self.base.arena_bytes() + self.base.dict_bytes(),
            link: self.engines.iter().map(E::claim_bytes).sum(),
            buckets: std::iter::once(&self.base).chain(&self.engines).map(E::bucket_bytes).sum(),
            codes: std::mem::size_of_val(&*self.codes) as u64,
        }
    }

    /// Panics unless every link engine `Arc`-shares the base engine's
    /// arena and dictionary and the one code array is parallel to it;
    /// returns the link count.
    #[cfg(test)]
    pub(crate) fn assert_one_arena(&self) -> usize {
        for e in &self.engines {
            assert!(e.shares_arena(&self.base), "a link engine copies its router's arena");
            assert!(std::ptr::eq(e.tag_prefixes(), self.base.tag_prefixes()));
        }
        assert_eq!(self.codes.len(), self.base.tag_prefixes().len());
        self.engines.len()
    }

    /// The engine a hop runs: the clue engine of incoming link `slot`
    /// if this router participates, has one for that link and the
    /// packet carries a clue; `None`, the clue-less base engine,
    /// otherwise.
    #[inline]
    pub(crate) fn engine(&self, slot: Option<usize>, clue: Option<Prefix<A>>) -> Option<usize> {
        slot.filter(|&s| self.participates && clue.is_some() && s < self.engines.len())
    }

    #[inline]
    fn at(&self, engine: Option<usize>) -> &E {
        match engine {
            None => &self.base,
            Some(e) => &self.engines[e],
        }
    }

    /// Decodes `engine`'s lookup of `dest` and prefetches its first
    /// line. The base engine runs clue-less whatever `clue` is.
    #[inline]
    pub(crate) fn prepare(
        &self,
        engine: Option<usize>,
        dest: A,
        clue: Option<Prefix<A>>,
    ) -> PreparedLookup {
        self.at(engine).prepare(dest, clue.filter(|_| engine.is_some()))
    }

    /// Resolves a lookup [`Self::prepare`]d with the same arguments,
    /// charging `meter`: the BMP found and its code (`None` for no
    /// match), and the lookup class.
    #[inline]
    pub(crate) fn finish<M: Meter>(
        &self,
        engine: Option<usize>,
        op: PreparedLookup,
        dest: A,
        clue: Option<Prefix<A>>,
        meter: &mut M,
    ) -> (Option<(Prefix<A>, u32)>, LookupClass) {
        let e = self.at(engine);
        let clue = clue.filter(|_| engine.is_some());
        let (tag, class) = e.lookup_finish_tag(op, dest, clue, meter);
        let found =
            (tag != NO_TAG).then(|| (e.tag_prefixes()[tag as usize], self.codes[tag as usize]));
        (found, class)
    }

    /// [`Self::prepare`] and [`Self::finish`] back to back.
    #[inline]
    pub(crate) fn lookup<M: Meter>(
        &self,
        engine: Option<usize>,
        dest: A,
        clue: Option<Prefix<A>>,
        meter: &mut M,
    ) -> (Option<(Prefix<A>, u32)>, LookupClass) {
        let op = self.prepare(engine, dest, clue);
        self.finish(engine, op, dest, clue, meter)
    }
}

// ---------------------------------------------------------------------
// Backend-compiled network
// ---------------------------------------------------------------------

/// "No clue engine for this neighbor" sentinel in
/// [`CompiledNetwork`]'s neighbor → slot maps.
const NO_ENGINE: u32 = u32::MAX;

/// A read-only view of a [`Network`] with every router compiled to a
/// `ClueRouter` on one [`CompiledBackend`], its tags resolved to next
/// hops, generic over the compiled layout. Every backend serves
/// bit-identical results (the Cost-parity contract); they differ only
/// in bytes touched per lookup.
#[derive(Debug)]
pub struct CompiledNetwork<'n, A: Address, E: CompiledBackend<A>> {
    net: &'n Network<A>,
    routers: Vec<ClueRouter<A, E>>,
    /// Per router: neighbor id → the slot of that link's clue engine
    /// ([`NO_ENGINE`] for none).
    slots: Vec<Vec<u32>>,
}

/// The serving runtime on the multibit stride backend — the historical
/// name, and still the default the CLI and fleet drive.
pub type StrideNetwork<'n, A> = CompiledNetwork<'n, A, StrideEngine<A>>;

impl<'n, A: Address> StrideNetwork<'n, A> {
    /// Stride-compiles every engine in `net`: [`Self::compile`] at
    /// stride shape `stride`.
    pub fn freeze(net: &'n Network<A>, stride: StrideConfig) -> Result<Self, BackendError> {
        Self::compile(net, &stride)
    }
}

impl<'n, A: Address, E: CompiledBackend<A>> CompiledNetwork<'n, A, E> {
    /// Compiles every engine in `net` to backend `E`. Fails like a
    /// freeze fails (non-Regular family, indexed table, cache) or if
    /// the backend rejects its configuration.
    pub fn compile(net: &'n Network<A>, config: &E::Config) -> Result<Self, BackendError> {
        let n = net.topology().len();
        let mut slots = Vec::with_capacity(n);
        let routers = net
            .routers()
            .iter()
            .map(|r| {
                let mut by_neighbor = vec![NO_ENGINE; n];
                let mut links = Vec::with_capacity(r.engines.len());
                for (&nb, e) in &r.engines {
                    by_neighbor[nb] = links.len() as u32;
                    links.push(e);
                }
                slots.push(by_neighbor);
                let hop = |p: &Prefix<A>| hop_code(r.fib.get(p).map(|id| *r.fib.value(id)));
                ClueRouter::compile(r.participates, &r.base, links, config, hop)
            })
            .collect::<Result<Vec<_>, BackendError>>()?;
        Ok(CompiledNetwork { net, routers, slots })
    }

    /// The slot of the clue engine serving traffic from `upstream` at
    /// `router`, if it has one.
    #[inline]
    fn link_slot(&self, router: RouterId, upstream: RouterId) -> Option<usize> {
        match self.slots[router][upstream] {
            NO_ENGINE => None,
            slot => Some(slot as usize),
        }
    }

    /// Routes `packets` random packets through the multi-core
    /// runtime. Bit-identical to
    /// [`run_workload_per_packet`](crate::run_workload_per_packet) for
    /// the same seed at any worker count; a 1-worker run is the
    /// compiled sequential reference.
    ///
    /// # Panics
    /// Panics if `sources` is empty or the network has no origins.
    pub fn run_workload(
        &self,
        sources: &[RouterId],
        packets: usize,
        seed: u64,
        workers: usize,
    ) -> RunStats {
        self.run_workload_timed(sources, packets, seed, &RuntimeConfig::with_workers(workers), None)
            .0
    }

    /// As [`Self::run_workload`], returning the runtime report
    /// (steady-state wall clock with worker priming hoisted out of
    /// it, per-core attribution) and optionally flushing it into a
    /// telemetry bundle.
    ///
    /// # Panics
    /// Panics if `sources` is empty or the network has no origins.
    pub fn run_workload_timed(
        &self,
        sources: &[RouterId],
        packets: usize,
        seed: u64,
        config: &RuntimeConfig,
        telemetry: Option<&RuntimeTelemetry>,
    ) -> (RunStats, RuntimeReport) {
        let (stats, report, _) = self.run_metered::<Cost>(sources, packets, seed, config);
        if let Some(t) = telemetry {
            t.record_cores(&report.cores);
        }
        (stats, report)
    }

    /// As [`Self::run_workload`], additionally attributing every hop's
    /// engine lookup to pipeline stages: one [`StageMeter`] per worker,
    /// merged in worker order. The predicted half of the attribution
    /// (visits, ticks, bytes) is bit-identical for a given seed at any
    /// worker count — only the measured nanoseconds vary with the
    /// machine. The Section 5.4 shifted-work leg is raw FIB trie work
    /// rather than an engine lookup, so it lands in the [`RunStats`]
    /// but not in the profiler.
    ///
    /// # Panics
    /// As [`Self::run_workload`].
    pub fn profile_workload(
        &self,
        sources: &[RouterId],
        packets: usize,
        seed: u64,
        workers: usize,
    ) -> (RunStats, StageProfiler) {
        let config = RuntimeConfig::with_workers(workers);
        let (stats, _, meters) = self.run_metered::<StageMeter>(sources, packets, seed, &config);
        let mut prof = StageProfiler::new();
        for m in &meters {
            prof.merge(&m.profiler);
        }
        (stats, prof)
    }

    /// The runtime behind every entry point: each worker walks its jobs
    /// through [`Self::route_job_into`] over the shared compiled
    /// routers, into its own accumulator and meter. Shards, cores and
    /// meters come back in worker order.
    fn run_metered<M: Meter + Default + Send>(
        &self,
        sources: &[RouterId],
        packets: usize,
        seed: u64,
        config: &RuntimeConfig,
    ) -> (RunStats, RuntimeReport, Vec<M>) {
        assert!(!sources.is_empty(), "need at least one source");
        let origins = self.net.config().origins.clone();
        assert!(!origins.is_empty(), "need at least one origin");
        let n = self.net.topology().len();
        let (items, batch) = (packets as u64, config.batch.max(1) as u64);
        let jobs = (0..items).step_by(batch as usize).map(|lo| lo..(lo + batch).min(items));

        let (shards, elapsed_ns) = drive_jobs(
            jobs,
            config.workers,
            |_| (Accum::new(n), M::default()),
            |(acc, meter), job| {
                let items = (job.end - job.start) as usize;
                self.route_job_into(sources, &origins, seed, job, meter, acc);
                items
            },
        );

        let mut acc = Accum::new(n);
        let mut cores = Vec::with_capacity(shards.len());
        let mut meters = Vec::with_capacity(shards.len());
        for ((shard, meter), core) in shards {
            acc.merge(&shard);
            meters.push(meter);
            cores.push(core);
        }
        let report = RuntimeReport { elapsed_ns, cores };
        (acc.finish(packets), report, meters)
    }

    /// Routes packets `job` of the seeded workload, walking up
    /// to [`WALK_LANES`] packets in lockstep. Every hop matches
    /// [`Network::route_packet`] — same hops, same per-hop [`Cost`], same
    /// Section 5.4 shifted work — recorded straight into the accumulator
    /// instead of materialising a `PathTrace`. Lanes only change the order
    /// packets' hops execute in, and [`Accum`]'s merges are commutative, so
    /// the folded [`RunStats`] is unchanged.
    ///
    /// Each hop's engine lookup is charged to `meter`, reset to a zero
    /// [`Cost`] first: a [`Cost`] meter serves, a [`StageMeter`] also
    /// attributes the lookup to pipeline stages, and the route is the same
    /// either way (see [`Meter`]). The shifted-work leg is charged outside
    /// the meter, straight into the hop's recorded cost.
    fn route_job_into<M: Meter>(
        &self,
        sources: &[RouterId],
        origins: &[RouterId],
        seed: u64,
        Range { start: lo, end: hi }: Range<u64>,
        meter: &mut M,
        acc: &mut Accum,
    ) {
        let net = self.net;
        let config = net.config();
        let live = net.routers();
        let max_hops = net.topology().len() * 2 + 4;
        let routers = &self.routers;

        // The lookup a packet runs at `cur`: engine picked, clue
        // decoded, first line prefetched — resolved a lane rotation
        // later.
        let aim = |dest: A, header: &ClueHeader, prev: Option<RouterId>, cur: RouterId| {
            let node = &routers[cur];
            let clue = header.decode(dest);
            let engine = node.engine(prev.and_then(|p| self.link_slot(cur, p)), clue);
            (engine, clue, node.prepare(engine, dest, clue))
        };
        let launch = |i: u64| -> Flight<A> {
            let (src, dest) = draw_packet(net, sources, origins, seed, i);
            let header = ClueHeader::none();
            let (engine, clue, op) = aim(dest, &header, None, src);
            Flight { dest, header, prev: None, cur: src, pos: 0, engine, clue, op }
        };

        let mut lanes: [Option<Flight<A>>; WALK_LANES] = [None; WALK_LANES];
        let mut next_packet = lo;
        let mut in_flight = 0usize;
        for lane in lanes.iter_mut() {
            if next_packet >= hi {
                break;
            }
            *lane = Some(launch(next_packet));
            next_packet += 1;
            in_flight += 1;
        }

        while in_flight > 0 {
            for lane in lanes.iter_mut() {
                // The flight mutates in place — no per-hop move of the
                // lane state in and out of the `Option`.
                let Some(f) = lane.as_mut() else { continue };
                let node = &routers[f.cur];
                *meter.cost() = Cost::new();
                let whole = meter.mark();
                let (found, _) = node.finish(f.engine, f.op, f.dest, f.clue, meter);
                meter.done(whole);
                let mut cost = *meter.cost();
                let bmp = found.map(|(p, _)| p);
                let next = found.and_then(|(_, code)| hop_of(code));

                if node.participates {
                    if let Some(p) = bmp {
                        f.header = ClueHeader::with_clue(&p);
                    }
                    if config.shift_work_to_edges {
                        if let Some(Hop::Via(nh)) = next {
                            if config.core.contains(&nh) {
                                // Shifted-work charges tick straight into
                                // `cost`, past the meter: the reference
                                // folds them in with a category-wise `+=`
                                // before recording, so charging in place
                                // sums identically.
                                let nb_fib = &live[nh].fib;
                                let nb_bmp = match bmp.and_then(|p| nb_fib.node_of_prefix(&p)) {
                                    Some(start) => nb_fib
                                        .lookup_from(start, f.dest, &mut cost)
                                        .map(|r| nb_fib.prefix(r)),
                                    None => nb_fib
                                        .lookup_counted(f.dest, &mut cost)
                                        .map(|r| nb_fib.prefix(r)),
                                };
                                if let Some(p) = nb_bmp {
                                    f.header = ClueHeader::with_clue(&p);
                                }
                            }
                        }
                    }
                }

                let clued = f.engine.is_some();
                acc.record_hop(f.pos, f.cur, bmp.map_or(0, |p| p.len()), cost, clued);

                let retired = match next {
                    Some(Hop::Local) => {
                        acc.record_delivered();
                        true
                    }
                    Some(Hop::Via(nh)) => {
                        f.prev = Some(f.cur);
                        f.cur = nh;
                        f.pos += 1;
                        if f.pos >= max_hops {
                            true
                        } else {
                            (f.engine, f.clue, f.op) = aim(f.dest, &f.header, f.prev, f.cur);
                            false
                        }
                    }
                    None => true,
                };
                if retired {
                    if next_packet < hi {
                        *lane = Some(launch(next_packet));
                        next_packet += 1;
                    } else {
                        *lane = None;
                        in_flight -= 1;
                    }
                }
            }
        }
    }
}

/// The job driver behind every multi-core entry point — the network
/// runtime, [`serve_lookups`] and the fleet walk: deals the caller's
/// `jobs` round-robin into one list per worker (job `i` to worker
/// `i % workers`, in order) before any worker starts, then runs the
/// lists on scoped worker threads ([`drive`]).
///
/// Each worker first builds its private state with `prime`, given its
/// index (accumulators, epoch-reader registration: setup, timed into
/// `CoreStats::priming_ns` and kept out of the clock), then
/// hands every job of its list to `serve`, which returns how many items
/// the job held ([`CoreStats::packets`]). Returns every worker's state
/// with its [`CoreStats`], in worker order, and the nanoseconds from
/// "every worker primed" to "every worker joined". Callers whose jobs
/// are disjoint and whose per-job work folds commutatively get the
/// same result at any worker count.
///
/// # Panics
/// Re-raises a worker's panic with its index and message once every
/// worker has stopped.
pub(crate) fn drive_jobs<J: Send, W: Send>(
    jobs: impl IntoIterator<Item = J>,
    workers: usize,
    prime: impl Fn(usize) -> W + Sync,
    serve: impl Fn(&mut W, J) -> usize + Sync,
) -> (Vec<(W, CoreStats)>, u64) {
    let workers = workers.max(1);
    let mut lists: Vec<Vec<J>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        lists[i % workers].push(job);
    }
    let feeds = lists.into_iter().map(Vec::into_iter).collect();
    let ((), slots, elapsed_ns) = drive(feeds, prime, serve, || ());
    (expect_workers(slots), elapsed_ns)
}

/// [`drive_jobs`]'s job source with no fixed end: runs `writer` on the
/// calling thread once every worker is primed, while each worker calls
/// `serve` back to back until the writer returns, and at least once.
/// Returns the writer's output and every worker's slot, in worker
/// order. A writer panic is re-raised once every worker has stopped.
pub(crate) fn drive_while<W: Send, R>(
    writer: impl FnOnce() -> R,
    workers: usize,
    prime: impl Fn(usize) -> W + Sync,
    serve: impl Fn(&mut W) -> usize + Sync,
) -> (R, Vec<WorkerSlot<W>>) {
    // The flag publishes nothing (states come back through the join):
    // `Relaxed`.
    let stop = &AtomicBool::new(false);
    let more = move || (!stop.load(Ordering::Relaxed)).then_some(());
    let feeds =
        (0..workers.max(1)).map(|_| std::iter::once(()).chain(std::iter::from_fn(more))).collect();
    let write = || {
        let out = catch_unwind(AssertUnwindSafe(writer));
        stop.store(true, Ordering::Relaxed);
        out
    };
    let (out, slots, _) = drive(feeds, prime, |state, ()| serve(state), write);
    (out.unwrap_or_else(|payload| resume_unwind(payload)), slots)
}

/// What a worker hands back: its state with its [`CoreStats`], or the
/// message of the panic that stopped it (its state dropped as it
/// unwound, and its epoch pins and reader registrations with it).
pub(crate) type WorkerSlot<W> = Result<(W, CoreStats), String>;

/// Unwraps every slot, re-raising the first panic with its worker
/// index and message.
pub(crate) fn expect_workers<W>(slots: Vec<WorkerSlot<W>>) -> Vec<(W, CoreStats)> {
    let slots = slots.into_iter().enumerate();
    slots.map(|(w, slot)| slot.unwrap_or_else(|msg| panic!("worker {w} panicked: {msg}"))).collect()
}

/// The one thread driver: spawns a scoped worker per feed, waits out
/// their priming, starts the clock, lets the workers and `lead` — a
/// writer, or nothing for a job list — go, runs `lead` on the calling
/// thread and joins every worker. A feed must end, for an open-ended
/// one when `lead` returns or unwinds, or the join waits forever.
/// Returns `lead`'s output, the slots and the nanoseconds from "every
/// worker primed" to "every worker joined", which hold every worker's
/// busy time: no worker serves before the clock starts.
fn drive<J, F: Iterator<Item = J> + Send, W: Send, R>(
    feeds: Vec<F>,
    prime: impl Fn(usize) -> W + Sync,
    serve: impl Fn(&mut W, J) -> usize + Sync,
    lead: impl FnOnce() -> R,
) -> (R, Vec<WorkerSlot<W>>, u64) {
    let priming = AtomicUsize::new(feeds.len());
    let started = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = feeds
            .into_iter()
            .enumerate()
            .map(|(w, feed)| {
                let gate = (&priming, &started);
                let (prime, serve) = (&prime, &serve);
                scope.spawn(move || work(w, feed, gate, prime, serve))
            })
            .collect();
        // Priming is setup, not serving: wait it out, then start the
        // clock and open the gate.
        wait_until(|| priming.load(Ordering::Acquire) == 0);
        let t0 = Instant::now();
        started.store(true, Ordering::Release);
        let out = lead();
        let slots = handles.into_iter().map(|h| h.join().expect("workers catch their panics"));
        (out, slots.collect(), t0.elapsed().as_nanos() as u64)
    })
}

/// Polls `ready` with a few yields, then short sleeps, so waiting
/// threads that outnumber the cores do not rob the ones they wait for
/// of scheduler quanta.
fn wait_until(ready: impl Fn() -> bool) {
    let mut idle = 0u32;
    while !ready() {
        idle += 1;
        if idle <= 3 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// One worker: prime, count itself primed on `gate.0`, wait for the
/// lead to start the clock (`gate.1`), serve every job of its feed and
/// hand back its slot. A panic is caught once, outside the serving
/// loop; the dead worker still counts itself primed, and the jobs left
/// in its feed are dropped with it.
fn work<J, W>(
    w: usize,
    feed: impl Iterator<Item = J>,
    (priming, started): (&AtomicUsize, &AtomicBool),
    prime: &impl Fn(usize) -> W,
    serve: &impl Fn(&mut W, J) -> usize,
) -> WorkerSlot<W> {
    let mut stats = CoreStats::default();
    let mut primed = false;
    let run = catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let mut state = prime(w);
        stats.priming_ns = t0.elapsed().as_nanos() as u64;
        primed = true;
        priming.fetch_sub(1, Ordering::Release);
        wait_until(|| started.load(Ordering::Acquire));
        for job in feed {
            let t = Instant::now();
            let items = serve(&mut state, job);
            stats.busy_ns += t.elapsed().as_nanos() as u64;
            stats.packets += items as u64;
            stats.batches += 1;
        }
        state
    }));
    run.map(|state| (state, stats)).map_err(|payload| {
        if !primed {
            priming.fetch_sub(1, Ordering::Release);
        }
        panic_message(payload)
    })
}

/// Stringifies a caught panic payload.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast_ref::<&str>().map_or("non-string panic payload", |s| s).to_string(),
    }
}

/// In-flight packet walks interleaved per worker. Each lane's next
/// lookup is decoded — and its first probe line prefetched — when the
/// packet *advances*, a full lane rotation before it resolves, so the
/// other lanes' work hides the fetch latency. Sized to keep the lane
/// state (a few hundred bytes) comfortably in L1 while still covering
/// an LLC miss with ~7 lanes' worth of work.
const WALK_LANES: usize = 8;

/// One in-flight packet walk: where the packet is, what its header
/// carries, and the decoded (already-prefetched) op for the lookup it
/// will run next.
#[derive(Clone, Copy)]
struct Flight<A: Address> {
    dest: A,
    header: ClueHeader,
    prev: Option<RouterId>,
    cur: RouterId,
    pos: usize,
    /// The engine the next lookup runs ([`ClueRouter::engine`]).
    engine: Option<usize>,
    clue: Option<Prefix<A>>,
    op: PreparedLookup,
}

// ---------------------------------------------------------------------
// Engine-level serving over an EpochCell
// ---------------------------------------------------------------------

/// What one [`serve_lookups`] run did.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Packets served.
    pub packets: u64,
    /// Nanoseconds from "every worker primed" to "every worker
    /// joined".
    pub elapsed_ns: u64,
    /// Total nanoseconds the workers spent priming (registering their
    /// epoch readers), outside the timed region. No engine is cloned;
    /// the field keeps the name the benchmark reads.
    pub replica_clone_ns: u64,
    /// Merged resolution-class counts.
    pub stats: EngineStats,
    /// Per-core attribution, indexed by worker.
    pub cores: Vec<CoreStats>,
}

impl ServeReport {
    /// Packets per second over the timed region.
    pub fn pps(&self) -> f64 {
        self.packets as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }
}

/// One serving core's private state: its registered epoch reader and
/// what it served.
struct ServeCore<'c, E> {
    reader: EpochReader<'c, E>,
    classes: EngineStats,
    max_staleness: u64,
}

/// Serves one batch workload from an [`EpochCell`] on every worker
/// core — the engine-level serving loop, generic over any
/// [`CompiledBackend`] (stride by default; the compressed backend
/// drops in unchanged).
///
/// `out` is cut into jobs of `config.batch` decisions, dealt to the
/// workers by the job driver. Each worker registers an
/// [`EpochReader`] (priming, outside the timed region), then for every
/// job it pulls pins the cell and runs the prefetched batch lookup
/// from that guard straight into the job's disjoint slice of `out`.
/// A publish therefore reaches every core at its next job boundary
/// without any barrier; the guard's lag after the job lands in
/// [`CoreStats::max_staleness`] (and the `staleness_epochs` histogram
/// when telemetry is attached).
///
/// With no concurrent publish the decisions are exactly
/// `engine.lookup_batch` of the same inputs, independent of worker
/// count and timing.
///
/// # Panics
/// Panics unless `dests` and `clues` have equal lengths.
pub fn serve_lookups<A: Address, E: CompiledBackend<A>>(
    cell: &EpochCell<E>,
    dests: &[A],
    clues: &[Option<Prefix<A>>],
    out: &mut Vec<Decision<A>>,
    config: &RuntimeConfig,
    telemetry: Option<&RuntimeTelemetry>,
) -> ServeReport {
    assert_eq!(dests.len(), clues.len(), "one clue slot per destination");
    let batch = config.batch.max(1);
    // No clear: every job overwrites its whole slice, so only slots a
    // longer call adds are filled, and a reused buffer costs nothing.
    out.resize(dests.len(), Decision::default());
    let jobs = out.chunks_mut(batch).enumerate().map(|(i, slice)| (i * batch, slice));

    let (shards, elapsed_ns) = drive_jobs(
        jobs,
        config.workers,
        |_| ServeCore { reader: cell.reader(), classes: EngineStats::default(), max_staleness: 0 },
        |core, (lo, slice)| {
            let hi = lo + slice.len();
            let guard = core.reader.pin();
            let s = guard.lookup_batch_interleaved(
                &dests[lo..hi],
                &clues[lo..hi],
                slice,
                config.prefetch,
            );
            let lag = guard.lag();
            drop(guard);
            core.classes.merge(&s);
            core.max_staleness = core.max_staleness.max(lag);
            if let Some(t) = telemetry {
                t.staleness_epochs.observe(lag);
            }
            slice.len()
        },
    );

    let mut stats = EngineStats::default();
    let mut cores = Vec::with_capacity(shards.len());
    for (core, mut c) in shards {
        stats.merge(&core.classes);
        c.max_staleness = core.max_staleness;
        cores.push(c);
    }
    if let Some(t) = telemetry {
        t.record_cores(&cores);
    }
    ServeReport {
        packets: dests.len() as u64,
        elapsed_ns,
        replica_clone_ns: cores.iter().map(|c| c.priming_ns).sum(),
        stats,
        cores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_telemetry::Registry;
    use crate::network::NetworkConfig;
    use clue_core::CompressedEngine;
    use crate::sim::run_workload_per_packet;
    use crate::topology::Topology;
    use clue_core::{
        ClueEngine, CompressedConfig, EngineConfig, FreezeError, FrozenEngine, Method, Stage,
    };
    use clue_lookup::Family;
    use clue_trie::{CostStats, Ip4};

    type FrozenNetwork<'n> = CompiledNetwork<'n, Ip4, FrozenEngine<Ip4>>;

    fn build(method: Method) -> (Network<Ip4>, Vec<RouterId>) {
        let (topo, edges) = Topology::backbone(4, 2);
        let mut cfg = NetworkConfig::new(edges.clone(), EngineConfig::new(Family::Regular, method));
        cfg.specifics_per_origin = 12;
        cfg.seed = 42;
        (Network::build(topo, cfg), edges)
    }

    #[test]
    fn runtime_equals_scalar_reference_at_several_worker_counts() {
        let (mut net, edges) = build(Method::Advance);
        let seq = run_workload_per_packet(&mut net, &edges, 150, 7);
        let stride = StrideNetwork::freeze(&net, StrideConfig::default()).unwrap();
        for workers in [1, 2, 4, 8] {
            let rt = stride.run_workload(&edges, 150, 7, workers);
            assert_eq!(rt, seq, "bit-identity at {workers} workers");
        }
    }

    #[test]
    fn every_backend_serves_the_identical_workload() {
        let (mut net, edges) = build(Method::Advance);
        let seq = run_workload_per_packet(&mut net, &edges, 120, 9);
        let frozen: CompiledNetwork<Ip4, FrozenEngine<Ip4>> =
            CompiledNetwork::compile(&net, &()).unwrap();
        assert_eq!(frozen.run_workload(&edges, 120, 9, 3), seq, "frozen backend");
        let compressed = CompiledNetwork::<_, CompressedEngine<_>>::compile(&net, &CompressedConfig).unwrap();
        assert_eq!(compressed.run_workload(&edges, 120, 9, 3), seq, "compressed backend");
    }

    #[test]
    fn compressed_serving_matches_the_plain_batch_lookup() {
        let (engine, dests, clues) = engine_fixture();
        let compressed = CompressedEngine::compile(&engine, &CompressedConfig).unwrap();
        let mut want = vec![Decision::default(); dests.len()];
        let want_stats = compressed.lookup_batch(&dests, &clues, &mut want);
        let cell = EpochCell::new(compressed);
        let cfg = RuntimeConfig { workers: 3, batch: 128, ..RuntimeConfig::default() };
        let mut got = Vec::new();
        let report = serve_lookups(&cell, &dests, &clues, &mut got, &cfg, None);
        assert_eq!(got, want, "compressed serving decisions");
        assert_eq!(report.stats, want_stats, "compressed serving class counts");
    }

    #[test]
    fn runtime_report_attributes_every_packet_to_a_core() {
        let (net, edges) = build(Method::Advance);
        let stride = StrideNetwork::freeze(&net, StrideConfig::default()).unwrap();
        let cfg = RuntimeConfig { workers: 3, batch: 16, ..RuntimeConfig::default() };
        let (stats, report) = stride.run_workload_timed(&edges, 200, 5, &cfg, None);
        assert_eq!(stats.packets, 200);
        assert_eq!(report.cores.len(), 3);
        let attributed: u64 = report.cores.iter().map(|c| c.packets).sum();
        assert_eq!(attributed, 200);
        // 13 jobs of 16 (the last holds 8) dealt round-robin: worker 0
        // serves jobs 0, 3, 6, 9 and 12.
        let packets: Vec<u64> = report.cores.iter().map(|c| c.packets).collect();
        let batches: Vec<u64> = report.cores.iter().map(|c| c.batches).collect();
        assert_eq!(packets, [72, 64, 64]);
        assert_eq!(batches, [5, 4, 4]);
        assert!(report.pps() > 0.0);
        assert!(report.cores.iter().all(|c| c.pps() > 0.0));
    }

    #[test]
    fn core_pps_divides_by_each_cores_own_busy_time() {
        let core = |packets, busy_ns| CoreStats { packets, busy_ns, ..CoreStats::default() };
        let (fast, slow) = (core(1_000, 1_000_000), core(1_000, 4_000_000));
        assert_eq!(fast.pps(), 1e6);
        assert_eq!(slow.pps(), 250_000.0);
        assert!(fast.pps() > slow.pps(), "equal packets, unequal busy time");
    }

    #[test]
    fn runtime_flushes_telemetry() {
        let (net, edges) = build(Method::Simple);
        let stride = StrideNetwork::freeze(&net, StrideConfig::default()).unwrap();
        let registry = Registry::new();
        let t = RuntimeTelemetry::registered(&registry);
        let cfg = RuntimeConfig { workers: 2, batch: 32, ..RuntimeConfig::default() };
        stride.run_workload_timed(&edges, 100, 3, &cfg, Some(&t));
        let counter = |name: &str| {
            assert!(registry.contains(name), "{name} registered");
            registry.counter(name, "").get()
        };
        assert!(registry.contains("clue_runtime_workers"));
        assert_eq!(registry.gauge("clue_runtime_workers", "").get(), 2.0);
        assert_eq!(counter("clue_runtime_packets_total"), 100);
        let batches = counter("clue_runtime_batches_total");
        assert!(batches >= 4, "100 packets / batch 32 needs >= 4 jobs");
    }

    #[test]
    fn detached_counts() {
        let t = RuntimeTelemetry::registered(&Registry::new());
        let core = |packets, batches| CoreStats { packets, batches, ..CoreStats::default() };
        t.record_cores(&[core(1000, 2), core(500, 1)]);
        t.staleness_epochs.observe(0);
        t.staleness_epochs.observe(2);
        assert_eq!(t.workers.get(), 2.0);
        assert_eq!(t.packets_total.get(), 1500);
        assert_eq!(t.batches_total.get(), 3);
        assert_eq!(t.staleness_epochs.snapshot().count, 2);
    }

    #[test]
    fn shift_work_mode_is_preserved() {
        let (topo, edges) = Topology::backbone(4, 1);
        let mut cfg =
            NetworkConfig::new(edges.clone(), EngineConfig::new(Family::Regular, Method::Advance));
        cfg.specifics_per_origin = 8;
        cfg.core = vec![0, 1, 2, 3];
        cfg.shift_work_to_edges = true;
        cfg.seed = 11;
        let mut net: Network<Ip4> = Network::build(topo, cfg);
        let seq = run_workload_per_packet(&mut net, &edges, 60, 2);
        let stride = StrideNetwork::freeze(&net, StrideConfig::default()).unwrap();
        assert_eq!(stride.run_workload(&edges, 60, 2, 4), seq);
    }

    #[test]
    fn frozen_routing_matches_live_routing() {
        let (mut net, edges) = build(Method::Advance);
        let live: Vec<RunStats> =
            (0..50u64).map(|seed| run_workload_per_packet(&mut net, &edges, 1, seed)).collect();
        let frozen = FrozenNetwork::compile(&net, &()).unwrap();
        for (seed, want) in live.iter().enumerate() {
            let got = frozen.run_workload(&edges, 1, seed as u64, 1);
            assert_eq!(&got, want, "one-packet run, seed {seed}");
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (mut net, edges) = build(Method::Advance);
        let reference = run_workload_per_packet(&mut net, &edges, 120, 7);
        let frozen = FrozenNetwork::compile(&net, &()).unwrap();
        let r1 = frozen.run_workload(&edges, 120, 7, 1);
        let r2 = frozen.run_workload(&edges, 120, 7, 2);
        let r8 = frozen.run_workload(&edges, 120, 7, 8);
        assert_eq!(r1, r2);
        assert_eq!(r1, r8);
        assert_eq!(r1, reference, "the compiled runs equal the live reference");
        let recompiled = FrozenNetwork::compile(&net, &()).unwrap();
        assert_eq!(recompiled.run_workload(&edges, 120, 7, 3), r1, "compile once = compile again");
        assert_eq!(r1.packets, 120);
        assert!(r1.delivered > 0);
    }

    #[test]
    fn uneven_and_excess_shards_cover_every_packet() {
        let (mut net, edges) = build(Method::Simple);
        let reference = run_workload_per_packet(&mut net, &edges, 17, 5);
        let empty = run_workload_per_packet(&mut net, &edges, 0, 5);
        let frozen = FrozenNetwork::compile(&net, &()).unwrap();
        // 17 packets in jobs of 5 leave a short last job; 32 workers
        // leave most workers without one.
        let run = |packets, workers| {
            let cfg = RuntimeConfig { workers, batch: 5, ..RuntimeConfig::default() };
            frozen.run_workload_timed(&edges, packets, 5, &cfg, None).0
        };
        let a = run(17, 3);
        let b = run(17, 32);
        assert_eq!(a, b);
        assert_eq!(a, reference);
        let hops: u64 = a.per_router.iter().map(CostStats::samples).sum();
        assert_eq!(hops, a.total_hops);
        let none = run(0, 4);
        assert_eq!(none, empty);
        assert_eq!((none.packets, none.delivered, none.total_hops), (0, 0, 0));
    }

    #[test]
    fn profiled_routing_is_semantically_inert() {
        let (topo, edges) = Topology::backbone(4, 1);
        let mut cfg =
            NetworkConfig::new(edges.clone(), EngineConfig::new(Family::Regular, Method::Advance));
        cfg.specifics_per_origin = 8;
        cfg.core = vec![0, 1, 2, 3];
        cfg.shift_work_to_edges = true;
        cfg.seed = 11;
        let mut net: Network<Ip4> = Network::build(topo, cfg);
        // The ticks the live engines charge per hop, shifted work left
        // out: exactly what the profiler may see.
        let origins = net.config().origins.clone();
        let (mut charged, mut shifted) = (0u64, 0u64);
        for i in 0..60u64 {
            let (src, dest) = draw_packet(&net, &edges, &origins, 21, i);
            for hop in net.route_packet(src, dest).hops {
                charged += hop.cost.total();
                shifted += hop.shift_cost.total();
            }
        }
        assert!(shifted > 0, "the fixture must exercise shifted work");
        let frozen = FrozenNetwork::compile(&net, &()).unwrap();
        let plain = frozen.run_workload(&edges, 60, 21, 2);
        let (profiled, prof) = frozen.profile_workload(&edges, 60, 21, 2);
        assert_eq!(plain, profiled, "profiling must not change the route or its cost");
        assert_eq!(plain.total_accesses, charged + shifted);
        // Every charged tick is attributed to exactly one stage; the
        // unprofiled shift leg charges the hop, not the meter.
        assert_eq!(prof.total_ticks(), charged);
        assert_eq!(prof.lookups(), plain.total_hops, "one profiled lookup per hop");
        assert!(prof.stage(Stage::Root).visits > 0);
    }

    #[test]
    fn profile_workload_matches_run_workload_and_is_thread_invariant() {
        let (net, edges) = build(Method::Advance);
        // Any backend profiles; the compressed one attributes the same
        // ticks as the frozen one, since both charge the paper's model.
        let compressed = CompiledNetwork::<_, CompressedEngine<_>>::compile(&net, &CompressedConfig).unwrap();
        let (sc, pc) = compressed.profile_workload(&edges, 90, 17, 2);
        let frozen = FrozenNetwork::compile(&net, &()).unwrap();
        let plain = frozen.run_workload(&edges, 90, 17, 3);
        let (s1, p1) = frozen.profile_workload(&edges, 90, 17, 1);
        let (s4, p4) = frozen.profile_workload(&edges, 90, 17, 4);
        assert_eq!(plain, s1, "profiling must not change the workload stats");
        assert_eq!(s1, s4);
        assert_eq!(p1.lookups(), s1.total_hops, "one profiled lookup per hop");
        assert_eq!(p1.lookups(), p4.lookups());
        // The predicted half of the attribution is deterministic; only
        // the measured nanoseconds depend on the machine and workers.
        assert_eq!(p1.total_ticks(), p4.total_ticks());
        assert_eq!(p1.total_bytes(), p4.total_bytes());
        for stage in Stage::all() {
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
            FrozenNetwork::compile(&net, &()).unwrap_err(),
            BackendError::Freeze(FreezeError::CacheEnabled)
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
        let seq = run_workload_per_packet(&mut net, &edges, 60, 2);
        let frozen = FrozenNetwork::compile(&net, &()).unwrap();
        let par = frozen.run_workload(&edges, 60, 2, 4);
        assert_eq!(par, seq);
        assert!(par.per_router.iter().any(|s| s.max() > 0));
    }

    /// Every router compiles one arena: its link engines share it on
    /// every backend, with and without Section 5.4's shifted clues.
    #[test]
    fn link_engines_share_their_routers_arena() {
        fn check<E: CompiledBackend<Ip4>>(net: &Network<Ip4>, config: &E::Config) {
            let compiled = CompiledNetwork::<Ip4, E>::compile(net, config).unwrap();
            let links: usize = compiled.routers.iter().map(ClueRouter::assert_one_arena).sum();
            assert!(links > 0, "{}: the network has clue links", E::NAME);
        }
        for shift in [false, true] {
            let (topo, edges) = Topology::backbone(4, 1);
            let mut cfg = NetworkConfig::new(
                edges.clone(),
                EngineConfig::new(Family::Regular, Method::Advance),
            );
            cfg.specifics_per_origin = 8;
            cfg.shift_work_to_edges = shift;
            cfg.seed = 11;
            let net: Network<Ip4> = Network::build(topo, cfg);
            check::<StrideEngine<Ip4>>(&net, &StrideConfig::default());
            check::<CompressedEngine<Ip4>>(&net, &CompressedConfig);
            check::<FrozenEngine<Ip4>>(&net, &());
        }
    }

    /// Runs `f` on a thread of its own and waits at most a minute for
    /// it, so a driver that hangs fails the test instead of stalling
    /// the suite.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(60)).expect("the driver returned within a minute")
    }

    /// The clock holds every worker's serving. Worker 1's priming
    /// waits for worker 0's first job to finish, up to 300 ms: a driver
    /// that lets a primed worker serve before every worker is primed
    /// runs that job, and the 100 ms one after it, outside the clock.
    #[test]
    fn no_worker_serves_before_the_clock_starts() {
        let [served, primed, early] = [(); 3].map(|()| AtomicBool::new(false));
        let (slots, elapsed_ns) = drive_jobs(
            [100u64, 1, 100, 1],
            2,
            |w| {
                if w == 1 {
                    let t0 = Instant::now();
                    wait_until(|| {
                        served.load(Ordering::SeqCst) || t0.elapsed() > Duration::from_millis(300)
                    });
                    primed.store(true, Ordering::SeqCst);
                }
            },
            |(), ms| {
                if !primed.load(Ordering::SeqCst) {
                    early.store(true, Ordering::SeqCst);
                }
                std::thread::sleep(Duration::from_millis(ms));
                served.store(true, Ordering::SeqCst);
                1
            },
        );
        assert!(!early.load(Ordering::SeqCst), "a job ran while a worker was still priming");
        for (w, (_, core)) in slots.iter().enumerate() {
            assert_eq!(core.packets, 2);
            assert!(
                core.busy_ns <= elapsed_ns,
                "worker {w} busy {} ns in a {elapsed_ns} ns run",
                core.busy_ns
            );
        }
    }

    #[test]
    fn a_worker_panic_ends_a_job_list_call() {
        // Job 3 lands on worker 1; the thousands of jobs dealt after it
        // must not keep the call waiting once worker 1 is dead.
        let caught = within_a_minute(|| {
            catch_unwind(|| {
                drive_jobs(
                    0..10_000u32,
                    2,
                    |_| (),
                    |(), job| {
                        assert_ne!(job, 3, "job 3 is poisoned");
                        1
                    },
                )
            })
            .map(|_| ())
            .map_err(panic_message)
        });
        let message = caught.expect_err("the worker's panic is re-raised");
        assert!(message.starts_with("worker 1 panicked:"), "{message}");
        assert!(message.contains("job 3 is poisoned"), "{message}");
    }

    #[test]
    fn an_instant_writer_still_gets_one_serve_from_every_worker() {
        let (out, slots) = within_a_minute(|| drive_while(|| "written", 4, |w| w, |_| 3));
        assert_eq!(out, "written");
        assert_eq!(slots.len(), 4);
        for (w, slot) in slots.iter().enumerate() {
            let (state, core) = slot.as_ref().expect("no worker panicked");
            assert_eq!(*state, w);
            assert!(core.batches >= 1, "worker {w} never served");
            assert_eq!(core.packets, 3 * core.batches);
        }
    }

    #[test]
    fn a_worker_panic_leaves_the_writer_and_the_other_workers_running() {
        let (out, slots) = within_a_minute(|| {
            let gone = AtomicBool::new(false);
            drive_while(
                || {
                    // Keep writing until worker 1 has panicked.
                    while !gone.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                    "written"
                },
                3,
                |w| w,
                |&mut w| {
                    if w == 1 {
                        gone.store(true, Ordering::Relaxed);
                        panic!("worker one gives up");
                    }
                    5
                },
            )
        });
        assert_eq!(out, "written");
        assert_eq!(slots.len(), 3);
        assert!(matches!(&slots[1], Err(m) if m.contains("worker one gives up")), "{:?}", slots[1]);
        for w in [0, 2] {
            let (state, core) = slots[w].as_ref().expect("a surviving worker keeps its state");
            assert_eq!(*state, w);
            assert!(core.batches >= 1, "every worker serves at least once");
            assert_eq!(core.packets, 5 * core.batches);
        }
    }

    fn engine_fixture() -> (ClueEngine<Ip4>, Vec<Ip4>, Vec<Option<Prefix<Ip4>>>) {
        let parse = |s: &str| s.parse::<Prefix<Ip4>>().unwrap();
        let prefixes: Vec<Prefix<Ip4>> = (0u32..64)
            .map(|i| Prefix::new(Ip4::from((10 << 24) | (i << 16)), 16))
            .chain((0u32..64).map(|i| Prefix::new(Ip4::from((10 << 24) | (i << 16) | (5 << 8)), 24)))
            .collect();
        let engine = ClueEngine::precomputed(
            &prefixes,
            &prefixes,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let mut dests = Vec::new();
        let mut clues = Vec::new();
        for i in 0..3000u32 {
            dests.push(Ip4::from((10 << 24) | ((i % 64) << 16) | ((i % 7) * 251)));
            clues.push(if i % 3 == 0 { Some(parse("10.0.0.0/8")) } else { Some(Prefix::new(Ip4::from((10 << 24) | ((i % 64) << 16)), 16)) });
        }
        (engine, dests, clues)
    }

    #[test]
    fn serving_matches_the_plain_batch_lookup() {
        let (engine, dests, clues) = engine_fixture();
        let stride = StrideEngine::compile(&engine, &StrideConfig::default()).unwrap();
        let mut want = vec![Decision::default(); dests.len()];
        let want_stats = stride.lookup_batch(&dests, &clues, &mut want);
        let cell = EpochCell::new(stride);
        for workers in [1, 2, 4] {
            let cfg = RuntimeConfig { workers, batch: 128, ..RuntimeConfig::default() };
            let mut got = Vec::new();
            let report = serve_lookups(&cell, &dests, &clues, &mut got, &cfg, None);
            assert_eq!(got, want, "decisions at {workers} workers");
            assert_eq!(report.stats, want_stats, "class counts at {workers} workers");
            assert_eq!(report.packets, dests.len() as u64);
            let attributed: u64 = report.cores.iter().map(|c| c.packets).sum();
            assert_eq!(attributed, dests.len() as u64);
            assert_eq!(report.cores.iter().map(|c| c.max_staleness).max(), Some(0));
        }
    }

    #[test]
    fn serving_into_a_reused_buffer_overwrites_every_slot() {
        let (engine, dests, clues) = engine_fixture();
        let stride = StrideEngine::compile(&engine, &StrideConfig::default()).unwrap();
        let mut want = vec![Decision::default(); dests.len()];
        stride.lookup_batch(&dests, &clues, &mut want);
        let cell = EpochCell::new(stride);
        let cfg = RuntimeConfig { workers: 3, batch: 128, ..RuntimeConfig::default() };
        let mut fresh = Vec::new();
        serve_lookups(&cell, &dests, &clues, &mut fresh, &cfg, None);
        assert_eq!(fresh, want, "a fresh buffer");
        // Another call's packets: the workload reversed, then its head
        // again, so it can leave a shorter, equal or longer buffer.
        let n = dests.len();
        let other_dests: Vec<Ip4> = dests.iter().rev().chain(&dests[..700]).copied().collect();
        let other_clues: Vec<_> = clues.iter().rev().chain(&clues[..700]).copied().collect();
        for len in [n - 700, n, n + 700] {
            let mut out = Vec::new();
            serve_lookups(&cell, &other_dests[..len], &other_clues[..len], &mut out, &cfg, None);
            let common = len.min(n);
            assert_ne!(out[..common], fresh[..common], "the stale call must differ");
            let report = serve_lookups(&cell, &dests, &clues, &mut out, &cfg, None);
            assert_eq!(out, fresh, "reused buffer of {len} decisions");
            assert_eq!(report.packets, n as u64);
        }
    }

    #[test]
    fn publishes_propagate_to_every_core_without_a_barrier() {
        let (engine, dests, clues) = engine_fixture();
        let stride = StrideEngine::compile(&engine, &StrideConfig::default()).unwrap();
        let mut want = vec![Decision::default(); dests.len()];
        stride.lookup_batch(&dests, &clues, &mut want);
        let cell = EpochCell::new(stride.clone());
        // Publish a bit-identical recompile before serving: every job
        // pins epoch 1, and the decisions cannot change.
        cell.publish(stride.clone());
        let registry = Registry::new();
        let t = RuntimeTelemetry::registered(&registry);
        let cfg = RuntimeConfig { workers: 2, batch: 64, ..RuntimeConfig::default() };
        let mut got = Vec::new();
        let report = serve_lookups(&cell, &dests, &clues, &mut got, &cfg, Some(&t));
        assert_eq!(got, want, "a bit-identical publish never changes decisions");
        // Every job was served from the freshest snapshot (pin loads
        // the current pointer): one staleness sample per job, all zero.
        assert_eq!(report.cores.len(), 2);
        let lags = t.staleness_epochs.snapshot();
        assert_eq!(lags.count, dests.len().div_ceil(64) as u64);
        assert_eq!(lags.sum, 0);
        assert!(report.cores.iter().all(|c| c.max_staleness == 0));
    }

    #[test]
    fn mid_run_publish_refreshes_replicas_at_a_job_boundary() {
        let (engine, dests, clues) = engine_fixture();
        let stride = StrideEngine::compile(&engine, &StrideConfig::default()).unwrap();
        let cell = EpochCell::new(stride.clone());
        // A writer hammers bit-identical publishes while the runtime
        // serves: workers must keep answering correctly, pinning
        // whatever snapshot is current at each job boundary, with zero
        // locks anywhere on the path.
        let mut want = vec![Decision::default(); dests.len()];
        stride.lookup_batch(&dests, &clues, &mut want);
        let registry = Registry::new();
        let t = RuntimeTelemetry::registered(&registry);
        std::thread::scope(|scope| {
            let publisher = scope.spawn(|| {
                for _ in 0..50 {
                    cell.publish(stride.clone());
                    cell.reclaim();
                    std::thread::yield_now();
                }
            });
            let cfg = RuntimeConfig { workers: 4, batch: 16, ..RuntimeConfig::default() };
            let mut got = Vec::new();
            let report = serve_lookups(&cell, &dests, &clues, &mut got, &cfg, Some(&t));
            assert_eq!(got, want, "bit-identical publishes never change decisions");
            assert_eq!(report.packets, dests.len() as u64);
            // Every job records the lag of the guard it was served
            // from, exactly once; no lag exceeds the publishes.
            let jobs = dests.len().div_ceil(16) as u64;
            assert_eq!(t.staleness_epochs.snapshot().count, jobs);
            assert_eq!(report.cores.iter().map(|c| c.batches).sum::<u64>(), jobs);
            assert!(report.cores.iter().all(|c| c.max_staleness <= 50));
            publisher.join().unwrap();
        });
        assert_eq!(cell.current_epoch(), 50);
    }
}
