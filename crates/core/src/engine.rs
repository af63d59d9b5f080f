//! The router-side distributed-lookup engine: one per (incoming neighbor,
//! lookup family, method) triple.
//!
//! [`ClueEngine::lookup`] implements the per-packet procedure of Figure 5
//! in the paper:
//!
//! 1. consult the clue table (the one mandatory memory access);
//! 2. on a hit with an empty `Ptr`, route by the FD field — done;
//! 3. on a hit with a continuation, resume the lookup *from the clue*
//!    using the engine's family (trie walk, Patricia walk, candidate
//!    range search, or candidate length search), falling back to FD;
//! 4. on a miss, perform a full common lookup and — in learning mode —
//!    compute and insert the new clue's entry (`procedure new-clue`).
//!
//! The engine also implements the Section 4 refinement for the trie
//! families: a per-vertex Boolean (computed from Claim 1 against the
//! sender's table) that stops a continued walk as soon as no candidate
//! can lie below the current vertex.

use std::sync::{Mutex, MutexGuard, PoisonError};

use clue_lookup::{Family, LengthBinarySearch, RangeIndex, StrideTrie};
use clue_telemetry::{LookupClass, LookupEvent, LookupTelemetry, Registry};
use clue_trie::{Address, BinaryTrie, Cost, Location, NodeId, PatriciaTrie, Prefix};

use crate::cache::{CacheStats, CacheTelemetry, PresenceCache};
use crate::classify::{classify, sweep, Classification, SortedClues, Swept};
use crate::clue::ClueHeader;
use crate::frozen::PatchBase;
use crate::fxhash::FxHashSet;
use crate::profile::{Meter, Stage};
use crate::table::{CandidateRange, ClueEntry, ClueTable, Continuation, TableKind};

/// The three per-family method variants of the paper's Tables 4–9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// No clue use at all — the plain lookup scheme (“common”).
    Common,
    /// Section 3.1.1: continue the search whenever the clue vertex has
    /// descendants; no knowledge of the sender's table needed.
    Simple,
    /// Section 3.1.2: precompute Claim 1 against the sender's table so
    /// that only genuinely problematic clues trigger a continued search.
    Advance,
}

impl Method {
    /// All three methods, in the paper's table order.
    pub fn all() -> [Method; 3] {
        [Method::Common, Method::Simple, Method::Advance]
    }

    /// The label used in the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Common => "common",
            Method::Simple => "Simple",
            Method::Advance => "Advance",
        }
    }
}

impl core::fmt::Display for Method {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The lookup family used for common lookups and continuations.
    pub family: Family,
    /// Common / Simple / Advance.
    pub method: Method,
    /// Clue-table addressing (hash vs 16-bit sender index).
    pub table_kind: TableKind,
    /// Candidate sets up to this size ride in the clue entry's cache line
    /// and are searched for free (Section 4, SDRAM observation).
    pub line_capacity: usize,
    /// Learn unknown clues on the fly (`procedure new-clue`); otherwise
    /// misses just fall back to the common lookup.
    pub(crate) learning: bool,
    /// Use the per-vertex Claim 1 Booleans of Section 4 to stop trie
    /// continuations early (precomputed engines only).
    pub vertex_bits: bool,
    /// Upper bound on entries a *learning* table may grow to — a guard
    /// against clue flooding by a buggy or adversarial sender. Beyond
    /// the cap, unknown clues still resolve (full lookup) but are not
    /// learned. `None` = unbounded.
    pub max_learned_entries: Option<usize>,
}

impl EngineConfig {
    /// A configuration with the paper's defaults: hashed table, cache
    /// lines holding 3 candidates, no learning, vertex bits on.
    pub fn new(family: Family, method: Method) -> Self {
        EngineConfig {
            family,
            method,
            table_kind: TableKind::Hashed,
            line_capacity: 3,
            learning: false,
            vertex_bits: true,
            max_learned_entries: None,
        }
    }

    /// Selects the indexing technique (16-bit sender-stamped indices).
    pub fn with_indexed_table(mut self) -> Self {
        self.table_kind = TableKind::Indexed;
        self
    }
}

/// Family-specific search structures.
#[derive(Debug)]
enum Inner<A: Address> {
    /// Uses the engine's binary trie directly.
    Regular,
    Patricia(PatriciaTrie<A>),
    Ranges { index: RangeIndex<A>, b: Option<u8> },
    LogW(LengthBinarySearch<A>),
    Stride(StrideTrie<A>),
}

/// Per-engine lookup telemetry: how often each resolution path ran.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Lookups that arrived with no usable clue (or Method::Common).
    pub clueless: u64,
    /// Clue-table hits resolved by the FD alone (Ptr empty).
    pub finals: u64,
    /// Clue-table hits that ran a continuation search.
    pub continued: u64,
    /// Clue-table misses (unknown clue → full lookup).
    pub misses: u64,
    /// Malformed clues ignored (not a prefix of the destination).
    pub malformed: u64,
}

impl EngineStats {
    /// Total lookups observed.
    pub fn total(&self) -> u64 {
        self.clueless + self.finals + self.continued + self.misses + self.malformed
    }

    /// Accumulates `other` into this block — e.g. the per-batch counts
    /// [`FrozenEngine`](crate::FrozenEngine) returns from
    /// `lookup_batch`, summed across batches or reader threads. Each
    /// lookup is counted in exactly one class by exactly one batch, so
    /// the merged totals keep the exactly-once-per-packet property.
    pub fn merge(&mut self, other: &EngineStats) {
        self.clueless += other.clueless;
        self.finals += other.finals;
        self.continued += other.continued;
        self.misses += other.misses;
        self.malformed += other.malformed;
    }

}

/// A distributed-IP-lookup engine for one incoming neighbor.
#[derive(Debug)]
pub struct ClueEngine<A: Address> {
    config: EngineConfig,
    /// The receiver's trie `t2` (always kept: classification, FD
    /// computation and the Regular family all need it).
    t2: BinaryTrie<A, ()>,
    inner: Inner<A>,
    table: ClueTable<A>,
    /// What we know of the sender's prefixes: the full snapshot
    /// (precomputed mode) or the clues seen so far (learning mode).
    /// Probed once per trie child when classifying, so keyed through the
    /// in-workspace fast hasher for the same reason as [`ClueTable`]. It
    /// holds the same keys as the table (learned clues come from packet
    /// headers), so it adds no collision exposure beyond the table's,
    /// which `max_learned_entries` bounds.
    sender: FxHashSet<Prefix<A>>,
    /// Section 4 per-vertex continuation Booleans, by arena index.
    bits_bin: Option<Vec<bool>>,
    bits_pat: Option<Vec<bool>>,
    /// Section 3.5 fast cache in front of the clue table: resident clues
    /// are served with a cache read instead of a slow-memory probe.
    cache: Option<PresenceCache<A>>,
    /// Resolution-path counters.
    stats: EngineStats,
    /// Full telemetry (histograms, traces), mirrored alongside `stats`
    /// when attached; `None` costs one predictable branch per lookup.
    telemetry: Option<LookupTelemetry>,
    /// Cache telemetry to hand to the cache — kept here so a cache
    /// enabled *after* instrumentation is still wired up.
    cache_telemetry: Option<CacheTelemetry>,
    /// The last freeze and the receiver updates since, for
    /// [`Self::freeze`] to patch; dropped by any other change. Behind
    /// a lock only because `freeze` takes `&self`: updates hold `&mut
    /// self` and reach it without locking.
    last_freeze: Mutex<Option<PatchBase<A>>>,
}

impl<A: Address> ClueEngine<A> {
    /// Builds an engine with a fully precomputed clue table, knowing the
    /// sender's table exactly (the Section 3.3.2 construction).
    ///
    /// `clues` is the set of prefixes the sender may send as clues — all
    /// of its table in the standalone setting, or only the prefixes whose
    /// next hop is this router in a network setting.
    pub fn precomputed(
        clues: &[Prefix<A>],
        receiver: &[Prefix<A>],
        config: EngineConfig,
    ) -> Self {
        Self::learning_base(receiver, config).precompute(clues)
    }

    /// As [`Self::precomputed`] over `router`'s receiver table, its trie
    /// cloned rather than rebuilt prefix by prefix: how a router builds
    /// one clue engine per incoming link over its own table.
    ///
    /// # Panics
    /// Panics unless `router` and `config` are of the Regular family,
    /// the one whose search structure is the trie itself.
    pub fn precomputed_over(router: &Self, clues: &[Prefix<A>], config: EngineConfig) -> Self {
        assert!(
            router.is_regular_family() && config.family == Family::Regular,
            "only a Regular-family engine searches the receiver trie itself"
        );
        let mut engine = Self::learning_base(&[], config);
        engine.t2 = router.t2.clone();
        engine.precompute(clues)
    }

    /// Fills the clue table from the sender's `clues`, knowing exactly
    /// those (the Section 3.3.2 construction): one merged pre-order
    /// sweep of `t2` classifies every clue and sets the Section 4
    /// Booleans ([`sweep`]), then the table is filled in `clues` order,
    /// so an indexed table's slots and a repeated clue come out as
    /// [`Self::build_entry`] clue by clue would make them.
    fn precompute(mut self, clues: &[Prefix<A>]) -> Self {
        if self.config.method == Method::Common {
            // A clue-less engine needs no table, knowledge, or bits.
            return self;
        }
        let sorted = SortedClues::new(clues);
        let advance = self.config.method == Method::Advance;
        let candidates = matches!(self.inner, Inner::Ranges { .. } | Inner::LogW(_));
        let bits = self.config.vertex_bits && advance;
        let sweep = sweep(&self.t2, sorted.unique(), advance, candidates, bits);
        self.sender = sorted.unique().iter().copied().collect();
        if sweep.bits.is_some() {
            self.bits_bin = sweep.bits;
            self.project_patricia_bits();
        }
        self.table = ClueTable::with_capacity(self.config.table_kind, sorted.unique().len());
        for (i, clue) in clues.iter().enumerate() {
            if clue.is_empty() {
                continue; // a zero-length BMP is never sent as a clue
            }
            let r = sorted.rank(i);
            let Swept { fd, node, problematic } = sweep.clues[r];
            let cont = problematic.then(|| {
                let set = sweep.candidates.as_ref().map_or_else(Vec::new, |c| c[r].clone());
                self.continuation(*clue, node.expect("problematic clue vertex exists"), set)
            });
            self.table.insert(ClueEntry { clue: *clue, fd, cont }, self.slot(i));
        }
        self
    }

    /// The per-clue construction [`Self::precompute`] replaced, kept as
    /// its oracle: the sender set, the bottom-up Booleans, then
    /// [`Self::build_entry`] for each clue.
    #[cfg(test)]
    fn precompute_per_clue(mut self, clues: &[Prefix<A>]) -> Self {
        if self.config.method == Method::Common {
            return self;
        }
        self.sender = clues.iter().copied().collect();
        if self.config.vertex_bits && self.config.method == Method::Advance {
            self.compute_vertex_bits();
        }
        for (i, clue) in clues.iter().enumerate() {
            if !clue.is_empty() {
                let entry = self.build_entry(*clue);
                self.table.insert(entry, self.slot(i));
            }
        }
        self
    }

    /// The table slot of the `i`-th precomputed clue: its position for
    /// an indexed table, none for a hashed one.
    fn slot(&self, i: usize) -> Option<u16> {
        match self.config.table_kind {
            TableKind::Hashed => None,
            TableKind::Indexed => {
                Some(u16::try_from(i).expect("more than 64K clues for one neighbor"))
            }
        }
    }

    /// Builds an engine with an empty clue table that learns entries on
    /// the fly (Section 3.3.1). Knowledge of the sender accrues from the
    /// clues themselves — conservative but always correct.
    pub fn learning(receiver: &[Prefix<A>], config: EngineConfig) -> Self {
        let mut config = config;
        config.learning = true;
        Self::learning_base(receiver, config)
    }

    fn learning_base(receiver: &[Prefix<A>], config: EngineConfig) -> Self {
        let t2: BinaryTrie<A, ()> = receiver.iter().map(|p| (*p, ())).collect();
        let inner = match config.family {
            Family::Regular => Inner::Regular,
            Family::Patricia => Inner::Patricia(receiver.iter().copied().collect()),
            Family::Binary => {
                Inner::Ranges { index: RangeIndex::new(receiver.iter().copied()), b: None }
            }
            Family::BWay(b) => {
                Inner::Ranges { index: RangeIndex::new(receiver.iter().copied()), b: Some(b) }
            }
            Family::LogW => Inner::LogW(LengthBinarySearch::new(receiver.iter().copied())),
            Family::Stride => Inner::Stride(StrideTrie::new(receiver.iter().copied())),
        };
        ClueEngine {
            config,
            t2,
            inner,
            table: ClueTable::new(config.table_kind),
            sender: FxHashSet::default(),
            bits_bin: None,
            bits_pat: None,
            cache: None,
            stats: EngineStats::default(),
            telemetry: None,
            cache_telemetry: None,
            last_freeze: Mutex::new(None),
        }
    }

    /// Lookup counters so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Registers this engine's metrics in `registry` under the
    /// workspace naming convention and starts recording: per-class
    /// lookup counters under `clue_core_*`, memory-reference /
    /// search-depth / clue-length histograms, and — for a cache enabled
    /// before or after this call — `clue_cache_*` counters.
    pub fn instrument(&mut self, registry: &Registry) {
        self.telemetry = Some(LookupTelemetry::registered(registry));
        let cache_t = CacheTelemetry::registered(registry);
        if let Some(cache) = &mut self.cache {
            cache.attach_telemetry(cache_t.clone());
        }
        self.cache_telemetry = Some(cache_t);
    }

    /// Puts an LRU cache of `capacity` clue entries in front of the clue
    /// table (Section 3.5). Cached consults cost a
    /// [`Cost::cache_read`] instead of a slow-memory probe; misses pay
    /// both and promote the entry.
    pub fn enable_cache(&mut self, capacity: usize) {
        self.forget_freeze();
        let mut cache = PresenceCache::new(capacity);
        if let Some(t) = &self.cache_telemetry {
            cache.attach_telemetry(t.clone());
        }
        self.cache = Some(cache);
    }

    /// Cache hit/miss statistics, if a cache is enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// The engine's configuration.
    pub(crate) fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The clue table (for statistics: size, problematic fraction,
    /// memory model).
    pub fn table(&self) -> &ClueTable<A> {
        &self.table
    }

    /// The receiver's trie, for the freezer.
    pub(crate) fn t2_ref(&self) -> &BinaryTrie<A, ()> {
        &self.t2
    }

    /// The Section 4 per-vertex Booleans, if computed, for the freezer.
    pub(crate) fn bits_bin_ref(&self) -> Option<&[bool]> {
        self.bits_bin.as_deref()
    }

    /// The last freeze to patch, for the freezer. A freeze takes the
    /// note out before it patches and puts the new one back after, so
    /// a panic between leaves `None`, a valid note: poisoning is
    /// ignored.
    pub(crate) fn last_freeze(&self) -> MutexGuard<'_, Option<PatchBase<A>>> {
        self.last_freeze.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Makes the next freeze start from scratch: for every change a
    /// patch cannot follow (sender knowledge, learned clues, the cache).
    fn forget_freeze(&mut self) {
        *self.last_freeze.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Whether an LRU cache sits in front of the clue table.
    pub(crate) fn has_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// Whether continuations run on the engine's own binary trie.
    pub(crate) fn is_regular_family(&self) -> bool {
        matches!(self.inner, Inner::Regular)
    }

    /// The full per-packet lookup of Figure 5: returns the BMP of `dest`
    /// in this router's table, charging every memory access to `meter`.
    ///
    /// `clue`/`index` come from the packet header (see
    /// [`Self::lookup_with_header`]). A `None` clue, or
    /// [`Method::Common`], degrades to the plain common lookup.
    ///
    /// Generic over the [`Meter`] like every compiled kernel: a `&mut
    /// Cost` only counts ticks, while a [`crate::StageMeter`] also
    /// attributes them, with measured nanoseconds and touched record
    /// bytes, to the [`Stage`]s of the lookup. The cache read, the
    /// clue-table probe, a non-final entry's continued walk and every
    /// common walk are one span each, and the whole lookup is one more.
    /// Walk bytes are the engine's mean arena-record size per tick:
    /// exact for the Regular family (every tick is one arena vertex),
    /// an approximation for the range/length families whose probes
    /// touch different record shapes.
    pub fn lookup<M: Meter>(
        &mut self,
        dest: A,
        clue: Option<Prefix<A>>,
        index: Option<u16>,
        meter: &mut M,
    ) -> Option<Prefix<A>> {
        let node_bytes = (self.t2.memory_bytes() / self.t2.arena_len().max(1)) as u64;
        let whole = meter.mark();
        let refs_start = meter.cost().total();
        let mut clue_len = None;
        let mut search_depth = 0;
        let (resolved, class) = 'clue: {
            let s = match (self.config.method, clue) {
                (Method::Common, _) | (_, None) => break 'clue (None, LookupClass::Clueless),
                (_, Some(s)) => s,
            };
            clue_len = Some(s.len());
            if !s.contains(dest) {
                // A clue that is not a prefix of the destination is
                // malformed (corrupted header or a confused sender). The
                // paper's robustness property: bad clues can never cause
                // confusion — fall back to the full lookup. Not learned
                // either.
                break 'clue (None, LookupClass::Malformed);
            }
            // Section 3.5 cache: a resident clue is served from fast
            // memory; a miss pays the cache probe *and* the slow table
            // probe, then promotes the entry.
            let mut cached = false;
            if let Some(cache) = &mut self.cache {
                let mark = meter.mark();
                meter.cost().cache_read();
                cached = cache.get(&s).is_some();
                meter.stage(Stage::Cache, mark, core::mem::size_of::<Prefix<A>>() as u64, 0);
            }
            let mark = meter.mark();
            let probe = self.table.get_with_residency(&s, index, cached, meter.cost());
            meter.stage(Stage::ClueProbe, mark, core::mem::size_of::<ClueEntry<A>>() as u64, 0);
            let Some(entry) = probe else {
                break 'clue (None, LookupClass::Miss);
            };
            let mark = meter.mark();
            let before = meter.cost().total();
            let r = self.resolve(entry, dest, meter.cost());
            search_depth = meter.cost().total() - before;
            let class = if entry.is_final() {
                LookupClass::Final
            } else {
                meter.stage(Stage::Continuation, mark, 0, node_bytes);
                LookupClass::Continued
            };
            if !cached {
                if let Some(cache) = &mut self.cache {
                    cache.insert(s, ());
                }
            }
            (Some(r), class)
        };
        let result = match resolved {
            Some(r) => r,
            None => {
                let mark = meter.mark();
                let r = self.common_lookup(dest, meter.cost());
                meter.walk(mark, node_bytes);
                // Never saw this clue: full lookup, then learn it.
                if let (LookupClass::Miss, Some(s), true) = (class, clue, self.config.learning) {
                    self.learn(s, index);
                }
                r
            }
        };
        match class {
            LookupClass::Clueless => self.stats.clueless += 1,
            LookupClass::Final => self.stats.finals += 1,
            LookupClass::Continued => self.stats.continued += 1,
            LookupClass::Miss => self.stats.misses += 1,
            LookupClass::Malformed => self.stats.malformed += 1,
        }
        if let Some(t) = &self.telemetry {
            t.record(&LookupEvent {
                clue_len,
                class,
                search_depth,
                memory_references: meter.cost().total() - refs_start,
            });
        }
        meter.done(whole);
        result
    }

    /// As [`Self::lookup`], decoding the clue from a packet header.
    pub fn lookup_with_header(
        &mut self,
        dest: A,
        header: &ClueHeader,
        cost: &mut Cost,
    ) -> Option<Prefix<A>> {
        self.lookup(dest, header.decode(dest), header.index, cost)
    }

    /// The plain lookup of this engine's family, with no clue at all.
    pub fn common_lookup(&self, dest: A, cost: &mut Cost) -> Option<Prefix<A>> {
        match &self.inner {
            Inner::Regular => self.t2.lookup_counted(dest, cost).map(|r| self.t2.prefix(r)),
            Inner::Patricia(p) => p.lookup_counted(dest, cost),
            Inner::Ranges { index, b } => match b {
                Some(b) => index.lookup_bway(dest, *b, cost),
                None => index.lookup_binary(dest, cost),
            },
            Inner::LogW(l) => l.lookup(dest, cost),
            Inner::Stride(s) => s.lookup_counted(dest, cost),
        }
    }

    /// Uncounted reference BMP (for correctness checks).
    pub(crate) fn reference_lookup(&self, dest: A) -> Option<Prefix<A>> {
        self.t2.lookup(dest).map(|r| self.t2.prefix(r))
    }

    fn resolve(&self, entry: &ClueEntry<A>, dest: A, cost: &mut Cost) -> Option<Prefix<A>> {
        let Some(cont) = &entry.cont else {
            return entry.fd; // Ptr empty: the FD is final
        };
        let found = match cont {
            Continuation::TrieNode(n) => match &self.bits_bin {
                Some(bits) => self.trie_walk_bits(*n, bits, dest, cost),
                None => self.t2.lookup_from(*n, dest, cost).map(|r| self.t2.prefix(r)),
            },
            Continuation::PatriciaLoc(loc) => {
                let Inner::Patricia(p) = &self.inner else {
                    unreachable!("Patricia continuation in non-Patricia engine")
                };
                match &self.bits_pat {
                    Some(bits) => Self::patricia_walk_bits(p, bits, *loc, dest, cost),
                    None => p.lookup_from(*loc, dest, cost),
                }
            }
            Continuation::Range(cr) => {
                let b = match &self.inner {
                    Inner::Ranges { b, .. } => *b,
                    _ => None,
                };
                cr.lookup(dest, b, cost)
            }
            Continuation::Lengths(l) => l.lookup(dest, cost),
            Continuation::StrideNode(n) => {
                let Inner::Stride(s) = &self.inner else {
                    unreachable!("stride continuation in non-stride engine")
                };
                // Expanded slots below a non-stride-aligned clue can
                // carry prefixes *shorter* than the clue; those must not
                // shadow a longer FD, so merge by length.
                let found = s.lookup_from(*n, dest, cost);
                return match (found, entry.fd) {
                    (Some(f), Some(fd)) if fd.len() > f.len() => Some(fd),
                    (None, fd) => fd,
                    (f, _) => f,
                };
            }
        };
        found.or(entry.fd)
    }

    /// Builds the clue-table entry for `clue` against current knowledge
    /// (`procedure new-clue` in Figure 5, generalised to all families).
    fn build_entry(&self, clue: Prefix<A>) -> ClueEntry<A> {
        let cls = match self.config.method {
            // Simple pretends to know nothing about the sender: any
            // marked descendant makes the clue worth continuing from.
            Method::Common | Method::Simple => classify(&clue, &self.t2, &|_| false),
            Method::Advance => classify(&clue, &self.t2, &|p| self.sender.contains(p)),
        };
        let fd = cls.fd();
        let cont = match cls {
            Classification::Problematic { candidates, .. } => {
                let node = self.t2.node_of_prefix(&clue).expect("problematic clue vertex exists");
                Some(self.continuation(clue, node, candidates))
            }
            _ => None,
        };
        ClueEntry { clue, fd, cont }
    }

    /// Where the engine's family resumes below the problematic `clue`,
    /// whose `t2` vertex is `node` and candidate set `candidates`.
    fn continuation(
        &self,
        clue: Prefix<A>,
        node: NodeId,
        candidates: Vec<Prefix<A>>,
    ) -> Continuation<A> {
        match &self.inner {
            Inner::Regular => Continuation::TrieNode(node),
            Inner::Patricia(p) => {
                let loc = p.locate(&clue);
                debug_assert!(
                    !matches!(loc, Location::Absent { .. }),
                    "problematic clue must lie in the Patricia trie"
                );
                Continuation::PatriciaLoc(loc)
            }
            Inner::Ranges { .. } => Continuation::Range(Box::new(CandidateRange::new(
                candidates,
                self.config.line_capacity,
            ))),
            Inner::LogW(_) => Continuation::Lengths(Box::new(LengthBinarySearch::new(candidates))),
            Inner::Stride(s) => match s.node_at_clue(&clue) {
                // The clue determines at least one full level: resume
                // below it.
                Some(n) => Continuation::StrideNode(n),
                // Clue shorter than the first stride: fall back to a
                // full multibit walk from the root, which is what a
                // missing continuation plus candidates would cost
                // anyway. Encode as "walk the binary trie from the
                // clue" — cheaper and always available.
                None => Continuation::TrieNode(node),
            },
        }
    }

    /// Learns a previously unseen clue (`procedure new-clue`).
    fn learn(&mut self, clue: Prefix<A>, index: Option<u16>) {
        if let Some(cap) = self.config.max_learned_entries {
            if self.table.len() >= cap {
                return; // flood guard: resolve but do not grow the table
            }
        }
        // The clue is a sender prefix by definition: grow our knowledge
        // first, then classify against it.
        self.forget_freeze();
        self.sender.insert(clue);
        let entry = self.build_entry(clue);
        let index = match self.config.table_kind {
            TableKind::Hashed => None,
            // With the indexing technique the sender stamps the slot; a
            // clue arriving without one cannot be stored.
            TableKind::Indexed => match index {
                Some(i) => Some(i),
                None => return,
            },
        };
        self.table.insert(entry, index);
    }

    /// Rebuilds every table entry against the current sender knowledge.
    /// Useful in learning mode: early entries were classified against
    /// less knowledge and may be pessimistically problematic.
    pub fn reclassify_all(&mut self) {
        // Every clue lies on the chain of the root prefix.
        self.reclassify_chain(&Prefix::ROOT);
        self.forget_freeze();
    }

    /// Adds a route to the receiver's table, updating the search
    /// structures and reclassifying the clue-table entries the change
    /// can affect (clues on the ancestor/descendant chain of `prefix`).
    /// The chain comes from the table's ordered key index and the
    /// Section 4 Booleans are refreshed along `prefix`'s root path only,
    /// so a Regular engine with a hashed table pays O(W + chain).
    ///
    /// The binary and Patricia tries update incrementally (Patricia then
    /// re-projects its Booleans over the whole Patricia trie); the
    /// Binary/B-way/Log W/Stride index structures are rebuilt (they are
    /// precomputed arrays — the paper assumes reconstruction alongside
    /// routing-table updates).
    pub fn add_receiver_route(&mut self, prefix: Prefix<A>) {
        self.t2.insert(prefix, ());
        self.apply_receiver_change(&prefix, true);
    }

    /// Removes a route from the receiver's table; see
    /// [`Self::add_receiver_route`]. Returns `false` if it was absent.
    pub fn remove_receiver_route(&mut self, prefix: &Prefix<A>) -> bool {
        if self.t2.remove(prefix).is_none() {
            return false;
        }
        self.apply_receiver_change(prefix, false);
        true
    }

    /// Records that the sender announced a new prefix (it may now appear
    /// as a clue, and Claim 1 classifications along its chain change).
    pub fn add_sender_prefix(&mut self, prefix: Prefix<A>) {
        self.sender.insert(prefix);
        if !prefix.is_empty() && self.config.table_kind == TableKind::Hashed {
            let entry = self.build_entry(prefix);
            self.table.insert(entry, None);
        }
        self.reclassify_chain(&prefix);
        self.refresh_vertex_bits(&prefix);
        self.forget_freeze();
    }

    /// Records that the sender withdrew a prefix. The entry itself is
    /// kept (the paper suggests clues are never removed, only ignored);
    /// classifications that relied on it are loosened.
    pub fn remove_sender_prefix(&mut self, prefix: &Prefix<A>) {
        self.sender.remove(prefix);
        self.reclassify_chain(prefix);
        self.refresh_vertex_bits(prefix);
        self.forget_freeze();
    }

    fn apply_receiver_change(&mut self, prefix: &Prefix<A>, added: bool) {
        // Patricia updates incrementally; the array-based indexes
        // rebuild from the receiver's prefixes, the only families that
        // read them.
        match &mut self.inner {
            Inner::Regular => {}
            Inner::Patricia(p) => {
                if added {
                    p.insert(*prefix);
                } else {
                    p.remove(prefix);
                }
            }
            Inner::Ranges { index, .. } => *index = RangeIndex::new(self.t2.prefixes()),
            Inner::LogW(l) => *l = LengthBinarySearch::new(self.t2.prefixes()),
            Inner::Stride(s) => *s = StrideTrie::new(self.t2.prefixes()),
        }
        let chain = self.reclassify_chain(prefix);
        self.refresh_vertex_bits(prefix);
        let last = self.last_freeze.get_mut().unwrap_or_else(PoisonError::into_inner);
        let clues = chain.into_iter().map(|(_, clue)| clue);
        if last.as_mut().is_some_and(|base| !base.note(*prefix, clues)) {
            *last = None;
        }
    }

    /// Rebuilds every clue-table entry on the ancestor/descendant chain
    /// of `changed` — the only entries whose FD, classification,
    /// continuation pointer or candidate set a single-prefix change can
    /// affect. (Trie vertices elsewhere are untouched by insert/remove
    /// pruning, so their stored `NodeId`s remain valid.) Returns the
    /// rebuilt `(slot, clue)` pairs.
    fn reclassify_chain(&mut self, changed: &Prefix<A>) -> Vec<(Option<u16>, Prefix<A>)> {
        let chain = self.table.chain(changed);
        for &(index, clue) in &chain {
            let entry = self.build_entry(clue);
            self.table.insert(entry, index);
        }
        chain
    }

    /// Brings the Section 4 per-vertex Booleans, if in use, up to date
    /// after a single receiver or sender change at `changed`.
    ///
    /// A Boolean depends only on the vertex's children (their marks,
    /// the sender's knowledge of them, their own Booleans), and one
    /// change touches only vertices on `changed`'s root path: its mark
    /// or sender status, and the vertices insert allocates (recycled
    /// arena slots included) or remove prunes along that path. So
    /// recomputing bottom-up from the deepest surviving vertex on the
    /// path to the root is exact — O(W), not a whole-trie pass.
    fn refresh_vertex_bits(&mut self, changed: &Prefix<A>) {
        let Some(bits) = &mut self.bits_bin else {
            return;
        };
        bits.resize(self.t2.arena_len(), false);
        let mut path = Vec::with_capacity(changed.len() as usize + 1);
        let mut cur = self.t2.root();
        path.push(cur);
        for i in 0..changed.len() {
            match self.t2.children(cur)[changed.bit(i) as usize] {
                Some(c) => {
                    cur = c;
                    path.push(c);
                }
                None => break,
            }
        }
        for &v in path.iter().rev() {
            bits[v.index()] = Self::vertex_bit(&self.t2, &self.sender, bits, v);
        }
        self.project_patricia_bits();
    }

    /// The Section 4 per-vertex Booleans from scratch, bottom-up by
    /// [`Self::vertex_bit`]: the oracle for the sweep's bits and for
    /// [`Self::refresh_vertex_bits`]. `bit[v]` is `true` iff some
    /// receiver prefix lies strictly below `v` with no sender prefix on
    /// the way.
    #[cfg(test)]
    fn compute_vertex_bits(&mut self) {
        // Pre-order collection: ancestors precede descendants, so the
        // reversed order is a valid bottom-up schedule.
        let mut order = Vec::with_capacity(self.t2.node_count());
        self.t2.walk_subtree(self.t2.root(), |n| {
            order.push(n);
            true
        });
        let mut bits = vec![false; self.t2.arena_len()];
        for &v in order.iter().rev() {
            bits[v.index()] = Self::vertex_bit(&self.t2, &self.sender, &bits, v);
        }
        self.bits_bin = Some(bits);
        self.project_patricia_bits();
    }

    /// The Claim-1 Boolean of `v` from its children's: some child the
    /// sender does not know is marked or has its own Boolean set.
    fn vertex_bit(
        t2: &BinaryTrie<A, ()>,
        sender: &FxHashSet<Prefix<A>>,
        bits: &[bool],
        v: NodeId,
    ) -> bool {
        t2.children(v).into_iter().flatten().any(|c| {
            !sender.contains(&t2.node_prefix(c)) && (t2.is_marked(c) || bits[c.index()])
        })
    }

    /// Patricia family only: projects the binary-trie Booleans onto the
    /// Patricia vertices via their labels.
    fn project_patricia_bits(&mut self) {
        let (Inner::Patricia(p), Some(bits)) = (&self.inner, &self.bits_bin) else {
            return;
        };
        let mut pat_bits = vec![false; 0];
        let mut stack = vec![p.root()];
        while let Some(id) = stack.pop() {
            if pat_bits.len() <= id.index() {
                pat_bits.resize(id.index() + 1, false);
            }
            let label = p.node_prefix(id);
            let bin = self
                .t2
                .node_of_prefix(&label)
                .expect("Patricia label exists in the binary trie");
            pat_bits[id.index()] = bits[bin.index()];
            for c in p.children(id).into_iter().flatten() {
                stack.push(c);
            }
        }
        self.bits_pat = Some(pat_bits);
    }

    /// Bit-by-bit continuation walk that stops as soon as the per-vertex
    /// Boolean says no candidate lies below (Section 4).
    fn trie_walk_bits(
        &self,
        start: NodeId,
        bits: &[bool],
        dest: A,
        cost: &mut Cost,
    ) -> Option<Prefix<A>> {
        cost.trie_node();
        let mut cur = start;
        let mut best = self.t2.route_at(cur).map(|r| self.t2.prefix(r));
        loop {
            // Reading the Boolean is free: it lives in the vertex just
            // fetched.
            if !bits.get(cur.index()).copied().unwrap_or(false) {
                break;
            }
            let depth = self.t2.node_prefix(cur).len();
            if depth >= A::BITS {
                break;
            }
            let Some(c) = self.t2.children(cur)[dest.bit(depth) as usize] else {
                break;
            };
            cur = c;
            cost.trie_node();
            if let Some(r) = self.t2.route_at(cur) {
                best = Some(self.t2.prefix(r));
            }
        }
        best
    }

    /// Patricia continuation walk with the per-vertex Booleans.
    fn patricia_walk_bits(
        p: &PatriciaTrie<A>,
        bits: &[bool],
        loc: Location,
        dest: A,
        cost: &mut Cost,
    ) -> Option<Prefix<A>> {
        let (start, mut best) = match loc {
            Location::AtNode(id) => {
                cost.trie_node();
                let marked = p.is_marked(id).then(|| p.node_prefix(id));
                (id, marked)
            }
            Location::OnEdge { below, .. } => {
                cost.trie_node();
                let bp = p.node_prefix(below);
                if !bp.contains(dest) {
                    return None;
                }
                (below, p.is_marked(below).then_some(bp))
            }
            Location::Absent { .. } => return None,
        };
        let mut cur = start;
        loop {
            if !bits.get(cur.index()).copied().unwrap_or(false) {
                return best;
            }
            let depth = p.node_prefix(cur).len();
            if depth >= A::BITS {
                return best;
            }
            let Some(c) = p.children(cur)[dest.bit(depth) as usize] else {
                return best;
            };
            cost.trie_node();
            let cp = p.node_prefix(c);
            if !cp.contains(dest) {
                return best;
            }
            if p.is_marked(c) {
                best = Some(cp);
            }
            cur = c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::tests::{arb_shapes, shaped};
    use clue_trie::{Ip4, Ip6};
    use proptest::prelude::*;

    /// One entry as the tests compare it: every field, the
    /// continuation's included. A log-W continuation holds hash maps
    /// with no stable debug order, so it stands as its levels and
    /// entry count.
    fn entry_text<A: Address>(e: &ClueEntry<A>) -> String {
        match &e.cont {
            Some(Continuation::Lengths(l)) => {
                format!("{} {:?} lengths {:?} {}", e.clue, e.fd, l.levels(), l.entry_count())
            }
            _ => format!("{e:?}"),
        }
    }

    /// The table in slot order (indexed) or clue order (hashed).
    fn table_text<A: Address>(engine: &ClueEngine<A>) -> Vec<String> {
        match engine.table.kind() {
            TableKind::Indexed => engine
                .table
                .entries_with_indices()
                .map(|(i, e)| format!("{i}: {}", entry_text(e)))
                .collect(),
            TableKind::Hashed => {
                let mut entries: Vec<_> = engine.table.entries().collect();
                entries.sort_by_key(|e| e.clue);
                entries.into_iter().map(entry_text).collect()
            }
        }
    }

    /// `got` equals `want` in every piece the precompute builds: the
    /// table entry for entry, the sender knowledge, the Section 4
    /// Booleans and the frozen snapshot.
    fn check_same<A: Address>(
        got: &ClueEngine<A>,
        want: &ClueEngine<A>,
        what: &str,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(table_text(got), table_text(want), "{}", what);
        prop_assert_eq!(&got.sender, &want.sender, "{}", what);
        prop_assert_eq!(&got.bits_bin, &want.bits_bin, "{}", what);
        prop_assert_eq!(&got.bits_pat, &want.bits_pat, "{}", what);
        match (got.freeze(), want.freeze()) {
            (Ok(g), Ok(w)) => prop_assert!(g.bit_identical(&w), "{}: frozen bytes", what),
            (g, w) => prop_assert_eq!(g.err(), w.err(), "{}", what),
        }
        Ok(())
    }

    /// The sweep-built precompute equals the per-clue one for every
    /// family, method and table kind, over an unsorted clue list with
    /// a duplicate and, when `root.0` is set, the zero-length prefix
    /// (`root.1` gives it to the receiver); and `precomputed_over` does
    /// over a router whose arena `toggles` churned out of pre-order.
    fn check_sweep_matches_per_clue<A: Address>(
        sender: &[(u32, u8)],
        receiver: &[(u32, u8)],
        root: (bool, bool),
        toggles: &[(u32, u8)],
    ) -> Result<(), TestCaseError> {
        let mut clues: Vec<Prefix<A>> = sender.iter().map(|&(s, l)| shaped(s, l)).collect();
        clues.push(clues[0]);
        if root.0 {
            clues.insert(clues.len() / 2, Prefix::ROOT);
        }
        let mut receiver: Vec<Prefix<A>> = receiver.iter().map(|&(s, l)| shaped(s, l)).collect();
        if root.1 {
            receiver.push(Prefix::ROOT);
        }
        let configs = |families: &[Family]| {
            let mut out = Vec::new();
            for &family in families {
                for method in [Method::Simple, Method::Advance] {
                    let config = EngineConfig::new(family, method);
                    out.extend([config, config.with_indexed_table()]);
                }
            }
            out
        };
        for config in configs(&Family::all_extended()) {
            let what = format!("{}/{}/{:?}", config.family, config.method, config.table_kind);
            let got = ClueEngine::precomputed(&clues, &receiver, config);
            let want = ClueEngine::learning_base(&receiver, config).precompute_per_clue(&clues);
            check_same(&got, &want, &what)?;
        }
        let mut router = ClueEngine::precomputed(
            &clues,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        // Each toggle withdraws a route or announces it: withdraws
        // free arena slots that later announces recycle.
        for &(shape, len) in toggles {
            let p = shaped(shape, len);
            if !router.remove_receiver_route(&p) {
                router.add_receiver_route(p);
            }
        }
        for config in configs(&[Family::Regular]) {
            let what = format!("over {}/{:?}", config.method, config.table_kind);
            let got = ClueEngine::precomputed_over(&router, &clues, config);
            let mut want = ClueEngine::learning_base(&[], config);
            want.t2 = router.t2.clone();
            check_same(&got, &want.precompute_per_clue(&clues), &what)?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sweep_precompute_matches_per_clue_ip4(
            sender in arb_shapes(),
            receiver in arb_shapes(),
            root in (any::<bool>(), any::<bool>()),
            toggles in arb_shapes(),
        ) {
            check_sweep_matches_per_clue::<Ip4>(&sender, &receiver, root, &toggles)?;
        }
    }

    proptest! {
        // Fewer cases: the IPv6 stride tries dominate the test's time.
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn sweep_precompute_matches_per_clue_ip6(
            sender in arb_shapes(),
            receiver in arb_shapes(),
            root in (any::<bool>(), any::<bool>()),
            toggles in arb_shapes(),
        ) {
            check_sweep_matches_per_clue::<Ip6>(&sender, &receiver, root, &toggles)?;
        }
    }

    /// Path-local Boolean refresh equals the whole-trie pass after every
    /// kind of update, sender withdraws included (which no from-scratch
    /// precompute can reproduce: the withdrawn clue's entry is kept).
    #[test]
    fn path_local_bits_match_a_full_recompute() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let prefix = |next: &mut dyn FnMut() -> u64| {
            let shape = (next() % 16) as u32;
            let len = [4u8, 8, 12, 16, 20, 24, 32][(next() % 7) as usize];
            Prefix::new(Ip4(shape << 28 | shape << 16 | shape << 4), len)
        };
        let sender: Vec<_> = (0..12).map(|_| prefix(&mut next)).collect();
        let receiver: Vec<_> = (0..12).map(|_| prefix(&mut next)).collect();
        for family in [Family::Regular, Family::Patricia] {
            let mut engine = ClueEngine::precomputed(
                &sender,
                &receiver,
                EngineConfig::new(family, Method::Advance),
            );
            for step in 0..400 {
                let p = prefix(&mut next);
                match next() % 4 {
                    0 => engine.add_receiver_route(p),
                    1 => {
                        engine.remove_receiver_route(&p);
                    }
                    2 => engine.add_sender_prefix(p),
                    _ => engine.remove_sender_prefix(&p),
                }
                let incremental = engine.bits_bin.clone().expect("Advance keeps bits");
                let incremental_pat = engine.bits_pat.clone();
                engine.compute_vertex_bits();
                let full = engine.bits_bin.as_ref().expect("recomputed");
                engine.t2.walk_subtree(engine.t2.root(), |v| {
                    assert_eq!(
                        incremental[v.index()],
                        full[v.index()],
                        "{family} step {step}: bit of {}",
                        engine.t2.node_prefix(v)
                    );
                    true
                });
                assert_eq!(incremental_pat, engine.bits_pat, "{family} step {step}: Patricia bits");
            }
        }
    }
}
