//! The [`CompiledBackend`] abstraction: one trait over every compiled
//! lookup path.
//!
//! The workspace has three read-only compilations of a
//! [`ClueEngine`] — the pointer-flattened [`FrozenEngine`], the
//! multibit [`crate::StrideEngine`] and the entropy-compressed
//! [`crate::CompressedEngine`] — and the serving runtime, the parallel
//! harness and the fleet simulator each run on *any* of them. Each
//! backend implements one lookup kernel, split in two:
//!
//! * [`CompiledBackend::prepare`] decodes the packet and prefetches the
//!   first line its lookup will touch;
//! * [`CompiledBackend::finish`] walks, generic over the [`Meter`] it
//!   charges, and returns what it found: the deepest route plus the
//!   final-decision slot of the clue entry it hit, if any.
//!
//! Two cheap projections ([`CompiledBackend::found_prefix`],
//! [`CompiledBackend::found_tag`]) turn that into a BMP or a dense
//! route tag, each with the one final load the layout needs. Every
//! other lookup entry point — single, decision, tagged, batched,
//! profiled — is a default method built from those four, so a backend
//! adds only its kernel and its layout description
//! ([`CompiledBackend::cram_levels`] and the byte accessors feeding
//! [`CramReport`]).
//!
//! A compiled engine is plain data: it holds no telemetry handle, and
//! every array sits behind an [`Arc`](std::sync::Arc) and never
//! changes, so every worker core reads one published engine in place.
//! The code that runs a lookup or a batch records what it observed.
//!
//! A router compiles one arena for all its incoming links (paper
//! §3.4): [`CompiledBackend::compile`] builds the router's own engine,
//! and [`CompiledBackend::compile_link`] compiles each link's clue
//! engine over it, `Arc`-sharing every array that does not depend on
//! the clues. A link owns only its clue-probe structures and the one
//! walk array that carries its Claim-1 continue bits
//! ([`CompiledBackend::claim_bytes`]).
//!
//! Every implementation honors the same semantic baseline — identical
//! BMP, [`LookupClass`] and tick-identical [`Cost`] versus the scalar
//! engine — so backends are interchangeable *results-wise* and differ
//! only in bytes touched per lookup. The equivalence property tests
//! (`tests/*_prop.rs`) enforce this per backend.

use std::fmt;
use std::str::FromStr;

use clue_telemetry::LookupClass;
use clue_trie::{Address, Cost, Prefix};

use crate::cram::{CramLevel, CramReport};
use crate::engine::{ClueEngine, EngineStats, Method};
use crate::frozen::{Decision, FreezeError, FrozenEngine, NO_ROUTE};
use crate::profile::Meter;
use crate::stride::{StrideEngine, StrideError};
use crate::CompressedEngine;

/// “No match” tag returned by [`CompiledBackend::lookup_finish_tag`];
/// every real tag is below it.
pub const NO_TAG: u32 = NO_ROUTE;

/// Default prefetch window for the batched lookup: the smallest of
/// 1/4/8/16/32 past which 1M-prefix DFZ traffic measured no clear
/// gain (DESIGN.md §11); re-run the sweep with `clue throughput
/// --prefetch N`.
pub const DEFAULT_INTERLEAVE: usize = 8;

/// Hard cap on the prefetch window: the prepared ops live in a fixed
/// stack ring so the batch loop never touches the allocator (larger
/// requests are clamped, which is semantically inert — see
/// [`CompiledBackend::lookup_batch_interleaved`]).
const MAX_INTERLEAVE: usize = 64;

/// A packet decoded by [`CompiledBackend::prepare`]: either a full walk
/// (with its already-determined class) or a clue probe whose home
/// counter is precomputed, so the resolve step starts at the slot the
/// prefetch pointed to instead of re-deriving it.
#[derive(Clone, Copy)]
pub(crate) enum PacketOp {
    /// Clue not consulted: Clueless or Malformed, walk from the root.
    Walk(LookupClass),
    /// Clue consulted: probe length `len`'s window from counter `k`.
    Probe { k: u32, len: u8 },
}

impl PacketOp {
    /// Classifies a packet the way every backend does: `Common`
    /// engines and clueless packets walk, a clue that does not contain
    /// its destination is Malformed and walks, and any other clue is
    /// probed from counter `home(len, bits)`.
    #[inline]
    pub(crate) fn decode<A: Address>(
        method: Method,
        dest: A,
        clue: Option<Prefix<A>>,
        home: impl FnOnce(u8, A) -> u32,
    ) -> PacketOp {
        match (method, clue) {
            (Method::Common, _) | (_, None) => PacketOp::Walk(LookupClass::Clueless),
            (_, Some(s)) if s.contains(dest) => {
                PacketOp::Probe { k: home(s.len(), s.bits()), len: s.len() }
            }
            (_, Some(_)) => PacketOp::Walk(LookupClass::Malformed),
        }
    }
}

/// An opaque decoded lookup with its first probe line already
/// requested from memory — the output of [`CompiledBackend::prepare`],
/// consumed by [`CompiledBackend::finish`] on the same `(dest, clue)`.
/// The longer a caller waits between the two, the more of the fetch
/// latency is hidden.
#[derive(Clone, Copy)]
pub struct PreparedLookup(pub(crate) PacketOp);

/// Why a backend could not be compiled from a scalar engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The scalar engine's configuration cannot be frozen at all.
    Freeze(FreezeError),
    /// The frozen snapshot cannot be stride-expanded as configured.
    Stride(StrideError),
    /// A link engine's flattened trie differs from its router's (other
    /// children, route indices or tag dictionary), so the router's
    /// arena cannot serve it ([`CompiledBackend::compile_link`]).
    LinkMismatch,
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Freeze(e) => write!(f, "freeze failed: {e}"),
            BackendError::Stride(e) => write!(f, "stride compilation failed: {e}"),
            BackendError::LinkMismatch => {
                f.write_str("the link engine's receiver trie differs from its router's")
            }
        }
    }
}

impl std::error::Error for BackendError {}

impl From<FreezeError> for BackendError {
    fn from(e: FreezeError) -> Self {
        BackendError::Freeze(e)
    }
}

impl From<StrideError> for BackendError {
    fn from(e: StrideError) -> Self {
        BackendError::Stride(e)
    }
}

/// The compiled backends a consumer can select by name (CLI `--backend`
/// flags, runtime configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The pointer-flattened BFS arena ([`FrozenEngine`]).
    Frozen,
    /// The multibit direct-indexed expansion ([`StrideEngine`]).
    Stride,
    /// The entropy-compressed bitmap arena ([`CompressedEngine`]).
    Compressed,
}

impl BackendKind {
    /// Every selectable backend, in presentation order.
    pub const ALL: [BackendKind; 3] =
        [BackendKind::Frozen, BackendKind::Stride, BackendKind::Compressed];

    /// The canonical lowercase name (`frozen`, `stride`, `compressed`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Frozen => FrozenEngine::<clue_trie::Ip4>::NAME,
            BackendKind::Stride => StrideEngine::<clue_trie::Ip4>::NAME,
            BackendKind::Compressed => CompressedEngine::<clue_trie::Ip4>::NAME,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "frozen" => Ok(BackendKind::Frozen),
            "stride" => Ok(BackendKind::Stride),
            "compressed" => Ok(BackendKind::Compressed),
            other => Err(format!("unknown backend '{other}' (expected frozen|stride|compressed)")),
        }
    }
}

/// A compiled, read-only lookup engine; see the module docs.
pub trait CompiledBackend<A: Address>: Clone + fmt::Debug + Send + Sync + Sized + 'static {
    /// The canonical lowercase backend name.
    const NAME: &'static str;

    /// Backend-specific compilation knobs.
    type Config: Clone + Default + Send + Sync;

    /// What [`Self::finish`] resolved to, in the backend's own
    /// locators: the deepest route its walk found and the FD slot of
    /// the clue entry it hit, either possibly absent.
    type Found: Copy;

    /// Compiles a scalar engine into this backend.
    fn compile(engine: &ClueEngine<A>, config: &Self::Config) -> Result<Self, BackendError>;

    /// Compiles `engine`, a clue engine over the same receiver table
    /// as `router`, into an engine that `Arc`-shares every
    /// clue-independent array with `router` (same shape, same
    /// dictionary) and owns only its clue-probe structures and the
    /// array carrying its Claim-1 bits. Serves exactly what
    /// [`Self::compile`] of `engine` would.
    ///
    /// # Errors
    /// As [`Self::compile`], and [`BackendError::LinkMismatch`] when
    /// `engine` flattens to other children, route indices or tags than
    /// `router`: a mismatched arena is never shared.
    fn compile_link(router: &Self, engine: &ClueEngine<A>) -> Result<Self, BackendError>;

    /// True iff every clue-independent array of `self` is the same
    /// allocation as `router`'s ([`std::sync::Arc::ptr_eq`]) — what
    /// [`Self::compile_link`] builds.
    fn shares_arena(&self, router: &Self) -> bool;

    /// Bytes of the walk array that carries the Claim-1 continue bits,
    /// the part of [`Self::arena_bytes`] a link engine owns.
    fn claim_bytes(&self) -> u64;

    /// The compiled method flavour.
    fn method(&self) -> Method;

    /// Decodes one packet and prefetches the cache line its lookup
    /// will start from, without resolving it.
    fn prepare(&self, dest: A, clue: Option<Prefix<A>>) -> PreparedLookup;

    /// Resolves a prepared lookup on the same `(dest, clue)`, charging
    /// `meter` exactly what the scalar engine charges (Cost parity)
    /// and bracketing each [`crate::Stage`] it passes through.
    fn finish<M: Meter>(
        &self,
        op: PreparedLookup,
        dest: A,
        clue: Option<Prefix<A>>,
        meter: &mut M,
    ) -> (Self::Found, LookupClass);

    /// The BMP a [`Self::finish`] result stands for.
    fn found_prefix(&self, found: Self::Found, dest: A) -> Option<Prefix<A>>;

    /// The dense tag into [`Self::tag_prefixes`] a [`Self::finish`]
    /// result stands for ([`NO_TAG`] for no match).
    fn found_tag(&self, found: Self::Found) -> u32;

    /// The tag → prefix dictionary: every prefix a lookup can resolve
    /// to (route vertices, then FD-only prefixes in canonical order),
    /// identical on every backend compiled from one snapshot.
    fn tag_prefixes(&self) -> &[Prefix<A>];

    /// Total resident bytes of every compiled structure.
    fn memory_bytes(&self) -> usize;

    /// Bytes of the walk arena (what a clueless lookup traverses).
    fn arena_bytes(&self) -> u64;

    /// Bytes of the clue-probe structures.
    fn bucket_bytes(&self) -> u64;

    /// Bytes of the tag → prefix dictionary.
    fn dict_bytes(&self) -> u64;

    /// The walk arena as `(bytes, expected visits per uniform-random
    /// clueless lookup)` levels, hottest first — input to the CRAM
    /// cache-residency model.
    fn cram_levels(&self) -> Vec<CramLevel>;

    /// Runs the [`CramReport`] cache model over this layout.
    fn cram(&self) -> CramReport {
        CramReport::build(
            self.cram_levels(),
            self.arena_bytes(),
            self.bucket_bytes(),
            self.dict_bytes(),
        )
    }

    /// One lookup: the BMP and its class, charged to `meter` — pass a
    /// [`Cost`] to serve, or a [`crate::StageMeter`] to profile.
    #[inline]
    fn lookup<M: Meter>(
        &self,
        dest: A,
        clue: Option<Prefix<A>>,
        meter: &mut M,
    ) -> (Option<Prefix<A>>, LookupClass) {
        let whole = meter.mark();
        let op = self.prepare(dest, clue);
        let (found, class) = self.finish(op, dest, clue, meter);
        meter.done(whole);
        (self.found_prefix(found, dest), class)
    }

    /// As [`Self::lookup`], packaged as a [`Decision`].
    fn lookup_decision(&self, dest: A, clue: Option<Prefix<A>>) -> Decision<A> {
        let mut cost = Cost::new();
        let (bmp, class) = self.lookup(dest, clue, &mut cost);
        Decision { bmp, class, cost }
    }

    /// Resolves a prepared lookup to a dense route tag into
    /// [`Self::tag_prefixes`] ([`NO_TAG`] for no match) — the form the
    /// serving runtime's precomputed hop tables consume: a tag indexes
    /// a next-hop array with no prefix-map probe.
    #[inline]
    fn lookup_finish_tag<M: Meter>(
        &self,
        op: PreparedLookup,
        dest: A,
        clue: Option<Prefix<A>>,
        meter: &mut M,
    ) -> (u32, LookupClass) {
        let (found, class) = self.finish(op, dest, clue, meter);
        (self.found_tag(found), class)
    }

    /// Batched lookup through a rolling prefetch window of `window`
    /// packets: packet `i` is prepared (and its first line prefetched)
    /// `window` packets before it is finished, and finishing it frees
    /// the window slot for packet `i + window`, so a full window of
    /// fetches stays in flight across the whole batch. `window <= 1`
    /// finishes each packet right after preparing it; larger windows
    /// are clamped to an internal cap (64) so the prepared ops stay on
    /// the stack. Decisions and stats are identical at every window
    /// size — the window is a latency treatment, not a semantic one.
    ///
    /// # Panics
    /// Panics unless `dests`, `clues` and `out` have equal lengths.
    fn lookup_batch_interleaved(
        &self,
        dests: &[A],
        clues: &[Option<Prefix<A>>],
        out: &mut [Decision<A>],
        window: usize,
    ) -> EngineStats {
        assert_eq!(dests.len(), clues.len(), "one clue slot per destination");
        assert_eq!(dests.len(), out.len(), "one decision slot per destination");
        batch_core(self, dests, clues, out, window.clamp(1, MAX_INTERLEAVE))
    }

    /// Batched lookup at [`DEFAULT_INTERLEAVE`]; see
    /// [`Self::lookup_batch_interleaved`].
    fn lookup_batch(
        &self,
        dests: &[A],
        clues: &[Option<Prefix<A>>],
        out: &mut [Decision<A>],
    ) -> EngineStats {
        self.lookup_batch_interleaved(dests, clues, out, DEFAULT_INTERLEAVE)
    }
}

/// The batch loop body, a software pipeline: a ring of `window`
/// prepared lookups runs ahead of the packet being finished. Each step
/// finishes packet `i` and prepares packet `i + window` into the slot
/// it just freed, so `window` prefetches stay in flight across the
/// whole batch. At `window` 1 every packet is prepared and then
/// finished, with no lookahead.
fn batch_core<A: Address, E: CompiledBackend<A>>(
    engine: &E,
    dests: &[A],
    clues: &[Option<Prefix<A>>],
    out: &mut [Decision<A>],
    window: usize,
) -> EngineStats {
    let mut stats = EngineStats::default();
    let mut ring = [PreparedLookup(PacketOp::Walk(LookupClass::Clueless)); MAX_INTERLEAVE];
    for ((&dest, &clue), op) in dests.iter().zip(clues).zip(&mut ring[..window]) {
        *op = engine.prepare(dest, clue);
    }
    // Packet `i` sits at slot `i % window`. Walking the batch a window
    // at a time refills slot `s` from slot `s` of the next window and
    // keeps the slot a plain loop counter (a running `i % window`
    // measured slower, most at a constant window).
    let mut ahead = dests.chunks(window).zip(clues.chunks(window)).skip(1);
    for ((dests, clues), out) in
        dests.chunks(window).zip(clues.chunks(window)).zip(out.chunks_mut(window))
    {
        let (next_dests, next_clues) = ahead.next().unwrap_or_default();
        for (s, (((&dest, &clue), slot), op)) in
            dests.iter().zip(clues).zip(out.iter_mut()).zip(ring.iter_mut()).enumerate()
        {
            let mut cost = Cost::new();
            let (found, class) = engine.finish(*op, dest, clue, &mut cost);
            *slot = Decision { bmp: engine.found_prefix(found, dest), class, cost };
            bump(&mut stats, class);
            if let (Some(&next), Some(&next_clue)) = (next_dests.get(s), next_clues.get(s)) {
                *op = engine.prepare(next, next_clue);
            }
        }
    }
    stats
}

#[inline]
fn bump(stats: &mut EngineStats, class: LookupClass) {
    match class {
        LookupClass::Clueless => stats.clueless += 1,
        LookupClass::Final => stats.finals += 1,
        LookupClass::Continued => stats.continued += 1,
        LookupClass::Miss => stats.misses += 1,
        LookupClass::Malformed => stats.malformed += 1,
    }
}

/// Expected visits of a trie level `depth` holding `count` vertices,
/// under uniform random destinations: a walk reaches depth `d` with
/// probability (covered address space) `count / 2^d`.
pub(crate) fn trie_level_visits(depth: usize, count: u64) -> f64 {
    count as f64 / 2f64.powi(depth as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::profile::{Stage, StageMeter};
    use crate::{CompressedConfig, StrideConfig};
    use clue_lookup::Family;
    use clue_trie::Ip4;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    fn engine(method: Method) -> ClueEngine<Ip4> {
        engine_in(Family::Regular, method)
    }

    fn engine_in(family: Family, method: Method) -> ClueEngine<Ip4> {
        let sender = vec![p("10.0.0.0/8"), p("10.1.0.0/16"), p("192.168.0.0/16")];
        let receiver = vec![
            p("10.0.0.0/8"),
            p("10.1.0.0/16"),
            p("10.1.2.0/24"),
            p("10.2.0.0/16"),
            p("192.168.0.0/16"),
        ];
        ClueEngine::precomputed(&sender, &receiver, EngineConfig::new(family, method))
    }

    /// Runs every lookup entry point of backend `E` over one packet of
    /// each class, for every method, and checks they agree: the tagged
    /// path, the batch loop and the profiling meter — which
    /// must return the same BMP, class and cost, record one lookup per
    /// packet, attribute every charged tick to exactly one stage, and
    /// never report a Cache stage (compiled engines have no cache).
    fn exercise<E: CompiledBackend<Ip4>>(config: &E::Config) -> Vec<Decision<Ip4>> {
        let cases: Vec<(Ip4, Option<Prefix<Ip4>>)> = vec![
            ("10.1.2.3".parse().unwrap(), None),                       // clueless
            ("10.1.2.3".parse().unwrap(), Some(p("10.1.0.0/16"))),     // continued
            ("192.168.3.4".parse().unwrap(), Some(p("192.168.0.0/16"))), // final
            ("10.1.2.3".parse().unwrap(), Some(p("192.168.0.0/16"))),  // malformed
            ("10.1.2.3".parse().unwrap(), Some(p("10.1.2.0/24"))),     // miss
            ("11.1.2.3".parse().unwrap(), None),                       // no route
        ];
        let mut all = Vec::new();
        for method in [Method::Common, Method::Simple, Method::Advance] {
            let backend = E::compile(&engine(method), config).unwrap();
            let mut meter = StageMeter::default();
            let mut decisions = Vec::new();
            for &(dest, clue) in &cases {
                let d = backend.lookup_decision(dest, clue);
                // The tagged path agrees with the value path.
                let mut cost = Cost::new();
                let op = backend.prepare(dest, clue);
                let (tag, class) = backend.lookup_finish_tag(op, dest, clue, &mut cost);
                let tag_bmp = (tag != NO_TAG).then(|| backend.tag_prefixes()[tag as usize]);
                let at = format!("{} {method} {dest} {clue:?}", E::NAME);
                assert_eq!(tag_bmp, d.bmp, "{at}: tag path");
                assert_eq!(class, d.class, "{at}: tag class");
                assert_eq!(cost, d.cost, "{at}: tag cost");
                // The profiling meter is semantically inert.
                meter.cost = Cost::new();
                let profiled = backend.lookup(dest, clue, &mut meter);
                assert_eq!(profiled, (d.bmp, d.class), "{at}: profiled");
                assert_eq!(meter.cost, d.cost, "{at}: profiled cost");
                decisions.push(d);
            }
            let prof = &meter.profiler;
            assert_eq!(prof.lookups(), cases.len() as u64, "{}", E::NAME);
            let charged: u64 = decisions.iter().map(|d| d.cost.total()).sum();
            assert_eq!(prof.total_ticks(), charged, "{} {method}: ticks sum to cost", E::NAME);
            assert!(prof.stage(Stage::Root).visits > 0, "{}", E::NAME);
            assert_eq!(prof.stage(Stage::Cache).visits, 0, "{}: no cache stage", E::NAME);
            // Batched form agrees with the scalar form.
            let dests: Vec<Ip4> = cases.iter().map(|c| c.0).collect();
            let clues: Vec<Option<Prefix<Ip4>>> = cases.iter().map(|c| c.1).collect();
            let mut out = vec![Decision::default(); cases.len()];
            backend.lookup_batch_interleaved(&dests, &clues, &mut out, 4);
            assert_eq!(out, decisions, "{} batch parity", E::NAME);
            all.extend(decisions);
        }
        let backend = E::compile(&engine(Method::Advance), config).unwrap();
        // Layout self-description is coherent.
        assert!(backend.arena_bytes() > 0, "{}", E::NAME);
        assert!(
            backend.arena_bytes() + backend.bucket_bytes() + backend.dict_bytes()
                <= backend.memory_bytes() as u64,
            "{} byte split exceeds the resident total",
            E::NAME
        );
        let cram = backend.cram();
        assert!(cram.expected_refs >= 1.0, "{} every walk visits the root", E::NAME);
        assert!(cram.expected_l1_misses <= cram.expected_refs, "{}", E::NAME);
        assert!(cram.expected_l2_misses <= cram.expected_l1_misses, "{}", E::NAME);
        assert!(cram.expected_l3_misses <= cram.expected_l2_misses, "{}", E::NAME);
        // A table this small is fully L2-resident (the stride root
        // array alone overflows L1 by design — 8192 direct-indexed
        // slots at the default 13 initial bits).
        assert_eq!(cram.expected_l2_misses, 0.0, "{}", E::NAME);
        all
    }

    #[test]
    fn all_backends_agree_with_each_other() {
        let frozen = exercise::<FrozenEngine<Ip4>>(&());
        for config in [
            StrideConfig::default(),
            StrideConfig::new(8, 8),
            StrideConfig::new(16, 8),
            StrideConfig::new(5, 3),
        ] {
            assert_eq!(exercise::<StrideEngine<Ip4>>(&config), frozen, "{config:?}");
        }
        assert_eq!(exercise::<CompressedEngine<Ip4>>(&CompressedConfig), frozen);
    }

    /// Every backend's `compile` refuses what `freeze` refuses and
    /// passes the freeze error through unchanged.
    #[test]
    fn compile_surfaces_freeze_errors() {
        let mut cached = engine(Method::Advance);
        cached.enable_cache(8);
        let cases = [
            (engine_in(Family::Patricia, Method::Advance), FreezeError::UnsupportedFamily),
            (cached, FreezeError::CacheEnabled),
        ];
        for (scalar, cause) in &cases {
            let want = Some(BackendError::Freeze(*cause));
            assert_eq!(FrozenEngine::compile(scalar, &()).err(), want, "frozen");
            let stride = StrideEngine::compile(scalar, &StrideConfig::default());
            assert_eq!(stride.err(), want, "stride");
            let compressed = CompressedEngine::compile(scalar, &CompressedConfig);
            assert_eq!(compressed.err(), want, "compressed");
        }
    }

    #[test]
    fn compressed_arena_is_the_smallest() {
        let scalar = engine(Method::Advance);
        let frozen = FrozenEngine::compile(&scalar, &()).unwrap();
        let stride = StrideEngine::compile(&scalar, &StrideConfig::default()).unwrap();
        let compressed = CompressedEngine::compile(&scalar, &CompressedConfig).unwrap();
        let (fa, sa, ca) = (frozen.arena_bytes(), stride.arena_bytes(), compressed.arena_bytes());
        assert!(ca * 3 < fa, "compressed {ca} vs frozen {fa}");
        assert!(ca < sa, "compressed {ca} vs stride {sa}");
    }

    #[test]
    fn kinds_round_trip_through_names() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>(), Ok(kind));
        }
        assert!("planb".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Compressed.to_string(), "compressed");
    }
}
