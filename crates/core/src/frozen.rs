//! A read-only, cache-compact compilation of a [`ClueEngine`] for the
//! batched hot path.
//!
//! The live engine is built for *change*: its trie is arena-allocated
//! with parent links, free lists and `Option<NodeId>` children, its
//! table re-classifies under route updates, and `lookup` takes `&mut
//! self` to learn, cache and count. None of that belongs on a
//! forwarding fast path. [`ClueEngine::freeze`] compiles the engine
//! into a [`FrozenEngine`]:
//!
//! * the continuation trie is laid out **breadth-first** in one
//!   contiguous array of 12-byte [`FrozenNode`]s — children are plain
//!   `u32` indices (`NONE_NODE` for absent), and the Section 4 Claim-1
//!   Boolean rides in bit 31 of the node's route word, so a continued
//!   walk reads exactly one word-aligned record per vertex it charges
//!   to [`Cost`];
//! * the clue table becomes a flat entry array behind one
//!   [`FxHashMap`] probe (the paper's single mandatory access);
//! * lookups take `&self` — the frozen engine is `Sync` and can be
//!   shared across threads with no locking, which is what
//!   `clue-netsim`'s sharded driver builds on;
//! * it implements [`CompiledBackend`], so the batched, tagged and
//!   profiled lookups are the trait's defaults over one kernel.
//!
//! **Cost parity is a hard contract**: for every (destination, clue)
//! pair the frozen engine produces the same BMP, the same
//! [`LookupClass`] and tick-for-tick the same [`Cost`] as the scalar
//! engine it was compiled from (property-tested in
//! `tests/frozen_prop.rs`). Freezing is a snapshot: later mutation of
//! the live engine does not show through.

use std::sync::Arc;

use clue_telemetry::{LookupClass, LookupTelemetry};
use clue_trie::{Address, Cost, Prefix};

use crate::backend::{
    trie_level_visits, BackendError, CompiledBackend, PacketOp, PreparedLookup, NO_TAG,
};
use crate::cram::CramLevel;
use crate::engine::{ClueEngine, Method};
use crate::fxhash::FxHashMap;
use crate::profile::{Meter, Stage};
use crate::table::{Continuation, TableKind};

/// “No child” sentinel in `FrozenNode::children`.
pub const NONE_NODE: u32 = u32::MAX;
/// Claim-1 continue bit: set iff a candidate may lie strictly below.
pub(crate) const CONT_BIT: u32 = 1 << 31;
/// “No route marked here” in the low 31 bits of the route word.
pub(crate) const NO_ROUTE: u32 = CONT_BIT - 1;

/// One flattened trie vertex: two child indices and a packed route
/// word (bit 31 = Claim-1 continue bit, low 31 bits = route index or
/// [`NO_ROUTE`]). 12 bytes, versus ~56 for the live arena node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrozenNode {
    pub(crate) children: [u32; 2],
    pub(crate) route_word: u32,
}

impl FrozenNode {
    #[inline]
    pub(crate) fn may_continue(&self) -> bool {
        self.route_word & CONT_BIT != 0
    }
}

/// One flattened clue-table entry: the FD fallback plus the
/// continuation vertex ([`NONE_NODE`] = the paper's “Ptr empty”) and
/// the FD's dense tag in the extended route table ([`NO_TAG`] when the
/// entry has no FD).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrozenEntry<A: Address> {
    pub(crate) fd: Option<Prefix<A>>,
    pub(crate) cont: u32,
    pub(crate) fd_tag: u32,
}

/// Why an engine could not be frozen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreezeError {
    /// Only the Regular (binary-trie) family has a flattened walk.
    UnsupportedFamily,
    /// Only hashed clue tables freeze; indexed slots stay live.
    UnsupportedTable,
    /// An LRU cache makes per-lookup cost history-dependent — the
    /// frozen engine is stateless by design.
    CacheEnabled,
}

impl core::fmt::Display for FreezeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            FreezeError::UnsupportedFamily => {
                "only the Regular family can be frozen (flattened trie walk)"
            }
            FreezeError::UnsupportedTable => "only hashed clue tables can be frozen",
            FreezeError::CacheEnabled => {
                "an engine with an LRU cache is stateful and cannot be frozen"
            }
        })
    }
}

impl FreezeError {
    /// The engine feature that blocked the freeze, as a short
    /// machine-friendly token (`family`, `indexed-table`, `lru-cache`)
    /// — what a CLI error path names so the operator knows which knob
    /// to change.
    pub fn feature(&self) -> &'static str {
        match self {
            FreezeError::UnsupportedFamily => "family",
            FreezeError::UnsupportedTable => "indexed-table",
            FreezeError::CacheEnabled => "lru-cache",
        }
    }
}

impl std::error::Error for FreezeError {}

/// The outcome of one frozen lookup: what a scalar
/// [`ClueEngine::lookup`] would have returned, classified, and what it
/// would have charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision<A: Address> {
    /// The BMP found (the scalar lookup's return value).
    pub bmp: Option<Prefix<A>>,
    /// How the lookup resolved.
    pub class: LookupClass,
    /// Memory accesses charged, by category.
    pub cost: Cost,
}

impl<A: Address> Default for Decision<A> {
    fn default() -> Self {
        Decision { bmp: None, class: LookupClass::Clueless, cost: Cost::new() }
    }
}

/// A read-only compiled engine; see the module docs.
#[derive(Debug, Clone)]
pub struct FrozenEngine<A: Address> {
    method: Method,
    /// BFS-ordered vertices; index 0 is the root.
    nodes: Vec<FrozenNode>,
    /// Route prefixes referenced by the nodes' route words, then the
    /// FD-only tags; shared with the router's engine by
    /// [`CompiledBackend::compile_link`].
    routes: Arc<Vec<Prefix<A>>>,
    /// Clue-table entries, dense.
    entries: Vec<FrozenEntry<A>>,
    /// Clue → entry index, one fast-hash probe per consult.
    map: FxHashMap<Prefix<A>, u32>,
    /// Inherited from the live engine at freeze time (shared cells), so
    /// frozen lookups keep feeding the same registry metrics.
    telemetry: Option<LookupTelemetry>,
}

impl<A: Address> ClueEngine<A> {
    /// Compiles this engine into a [`FrozenEngine`] snapshot.
    ///
    /// Supported configuration: [`clue_lookup::Family::Regular`] with a
    /// hashed clue table and no LRU cache — the paper's headline
    /// deployment. Any attached lookup telemetry is inherited (the
    /// frozen engine records into the same cells).
    pub fn freeze(&self) -> Result<FrozenEngine<A>, FreezeError> {
        if !self.is_regular_family() {
            return Err(FreezeError::UnsupportedFamily);
        }
        if self.table().kind() != TableKind::Hashed {
            return Err(FreezeError::UnsupportedTable);
        }
        if self.has_cache() {
            return Err(FreezeError::CacheEnabled);
        }

        let t2 = self.t2_ref();
        let bits = self.bits_bin_ref();

        // Breadth-first flattening: parents precede children, siblings
        // are adjacent, so a top-down walk streams forward through the
        // array. Remember old arena slot → new index (a dense array over
        // the arena, dead slots left at NONE_NODE) to translate the
        // table's continuation pointers and project the Claim-1 bits.
        let mut order = Vec::with_capacity(t2.arena_len());
        let mut old_to_new = vec![NONE_NODE; t2.arena_len()];
        order.push(t2.root());
        old_to_new[t2.root().index()] = 0;
        let mut head = 0;
        while head < order.len() {
            let id = order[head];
            head += 1;
            for c in t2.children(id).into_iter().flatten() {
                old_to_new[c.index()] = order.len() as u32;
                order.push(c);
            }
        }

        let mut nodes = Vec::with_capacity(order.len());
        let mut routes = Vec::new();
        for &id in &order {
            let route = match t2.route_at(id) {
                Some(r) => {
                    let i = u32::try_from(routes.len()).expect("route count fits 31 bits");
                    assert!(i < NO_ROUTE, "route count fits 31 bits");
                    routes.push(t2.prefix(r));
                    i
                }
                None => NO_ROUTE,
            };
            // With no Claim-1 bits (Simple, or Advance without them) the
            // scalar continuation is `lookup_from`, which walks while
            // children exist — exactly an always-set continue bit.
            let cont = match bits {
                Some(b) => b.get(id.index()).copied().unwrap_or(false),
                None => true,
            };
            let children = t2.children(id).map(|c| match c {
                Some(c) => old_to_new[c.index()],
                None => NONE_NODE,
            });
            nodes.push(FrozenNode {
                children,
                route_word: route | if cont { CONT_BIT } else { 0 },
            });
        }

        // Canonical entry order: the hashed clue table iterates in hash
        // order, which varies with insertion history. Sorting by clue
        // makes freezing a pure function of the engine's *logical*
        // state, so two engines that agree route-for-route freeze into
        // bit-identical snapshots — the contract `bit_identical` (and
        // `clue churn --check`) is built on.
        let mut table_entries: Vec<_> = self.table().entries().collect();
        table_entries.sort_by_key(|e| e.clue);

        // Dense tag dictionary: a route word's low bits already index
        // `routes`, so those indices double as tags; FD prefixes that
        // are not route-marked vertices get fresh tags appended in
        // canonical (sorted-clue) order. Every payload a compiled
        // lookup can resolve to thus has exactly one dense `u32` tag —
        // the basis of `found_tag` on all compiled backends.
        let mut tag_of: FxHashMap<Prefix<A>, u32> =
            routes.iter().enumerate().map(|(i, p)| (*p, i as u32)).collect();

        let mut entries = Vec::with_capacity(self.table().len());
        let mut map = FxHashMap::default();
        for e in table_entries {
            let cont = match &e.cont {
                None => NONE_NODE,
                Some(Continuation::TrieNode(n)) => old_to_new[n.index()],
                // The Regular family only ever builds TrieNode
                // continuations; anything else means the family check
                // above is out of sync with `build_entry`.
                Some(_) => return Err(FreezeError::UnsupportedFamily),
            };
            let fd_tag = match e.fd {
                Some(p) => *tag_of.entry(p).or_insert_with(|| {
                    let t = u32::try_from(routes.len()).expect("tag count fits u32");
                    assert!(t < NO_ROUTE, "tag count fits 31 bits");
                    routes.push(p);
                    t
                }),
                None => NO_ROUTE,
            };
            let i = u32::try_from(entries.len()).expect("clue table fits u32");
            entries.push(FrozenEntry { fd: e.fd, cont, fd_tag });
            map.insert(e.clue, i);
        }

        Ok(FrozenEngine {
            method: self.config().method,
            nodes,
            routes: Arc::new(routes),
            entries,
            map,
            telemetry: self.telemetry().cloned(),
        })
    }
}

impl<A: Address> FrozenEngine<A> {
    /// Number of flattened trie vertices.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of clue-table entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// True iff the two snapshots are the same compiled artifact,
    /// field for field: same method, same flattened nodes (children
    /// and packed route words), same route array, same entry array and
    /// the same clue→entry mapping. Telemetry attachments are ignored
    /// — they are observation plumbing, not forwarding state.
    ///
    /// Because [`ClueEngine::freeze`] is canonical (BFS layout over
    /// the logical trie, entries sorted by clue), this holds exactly
    /// when the source engines agreed on every route, clue entry and
    /// Claim-1 bit — which is how `clue churn --check` proves an
    /// incrementally-updated engine equals a from-scratch rebuild.
    pub fn bit_identical(&self, other: &Self) -> bool {
        self.method == other.method
            && self.nodes == other.nodes
            && self.routes == other.routes
            && self.entries == other.entries
            && self.map.len() == other.map.len()
            && self.map.iter().all(|(clue, i)| other.map.get(clue) == Some(i))
    }

    /// Replaces the inherited telemetry bundle.
    pub fn attach_telemetry(&mut self, telemetry: LookupTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Drops the telemetry bundle (lookups stop recording).
    pub fn detach_telemetry(&mut self) {
        self.telemetry = None;
    }

    /// [`CompiledBackend::lookup_batch`], callable without the trait in
    /// scope.
    pub fn lookup_batch(
        &self,
        dests: &[A],
        clues: &[Option<Prefix<A>>],
        out: &mut [Decision<A>],
    ) -> crate::EngineStats {
        CompiledBackend::lookup_batch(self, dests, clues, out)
    }

    pub(crate) fn raw_nodes(&self) -> &[FrozenNode] {
        &self.nodes
    }

    pub(crate) fn raw_routes(&self) -> &[Prefix<A>] {
        &self.routes
    }

    /// Checks that this snapshot flattens the same receiver trie as a
    /// router whose binary nodes are `nodes` and whose tag dictionary
    /// is `routes`: the same children and route indices (the Claim-1
    /// bits may differ) and the same dictionary. What a link engine
    /// must satisfy before it shares the router's arena.
    pub(crate) fn check_link(
        &self,
        nodes: &[FrozenNode],
        routes: &[Prefix<A>],
    ) -> Result<(), BackendError> {
        let same_node = |a: &FrozenNode, b: &FrozenNode| {
            a.children == b.children && (a.route_word ^ b.route_word) & NO_ROUTE == 0
        };
        if self.nodes.len() == nodes.len()
            && self.nodes.iter().zip(nodes).all(|(a, b)| same_node(a, b))
            && self.routes[..] == *routes
        {
            Ok(())
        } else {
            Err(BackendError::LinkMismatch)
        }
    }

    pub(crate) fn raw_entries(&self) -> &[FrozenEntry<A>] {
        &self.entries
    }

    pub(crate) fn raw_map(&self) -> &FxHashMap<Prefix<A>, u32> {
        &self.map
    }

    /// Node counts per trie depth (level 0 is the root). The BFS
    /// layout makes each level a contiguous node range whose length is
    /// the child count of the previous one — the per-level byte map
    /// the CRAM analysis consumes.
    pub(crate) fn level_node_counts(&self) -> Vec<u64> {
        let mut levels = Vec::new();
        let mut start = 0usize;
        let mut len = 1usize;
        while len > 0 {
            levels.push(len as u64);
            let children: usize = self.nodes[start..start + len]
                .iter()
                .map(|n| {
                    usize::from(n.children[0] != NONE_NODE) + usize::from(n.children[1] != NONE_NODE)
                })
                .sum();
            start += len;
            len = children;
        }
        levels
    }
}

/// Bytes one walked vertex dereferences (the stage byte model).
const NODE_BYTES: u64 = core::mem::size_of::<FrozenNode>() as u64;

/// The common lookup over flattened binary nodes: root-down bit walk,
/// one access per vertex, mirroring `BinaryTrie::lookup_counted`.
/// Returns the deepest route index on the path ([`NO_ROUTE`] if none).
#[inline]
fn common_walk<A: Address, M: Meter>(nodes: &[FrozenNode], dest: A, meter: &mut M) -> u32 {
    let mark = meter.mark();
    let mut cur = &nodes[0];
    meter.cost().trie_node();
    let mut best = cur.route_word & NO_ROUTE;
    for i in 0..A::BITS {
        let c = cur.children[dest.bit(i) as usize];
        if c == NONE_NODE {
            break;
        }
        cur = &nodes[c as usize];
        meter.cost().trie_node();
        let r = cur.route_word & NO_ROUTE;
        if r != NO_ROUTE {
            best = r;
        }
    }
    meter.walk(mark, NODE_BYTES);
    best
}

/// The continued walk from a clue vertex at depth `depth`, mirroring
/// `trie_walk_bits` / `lookup_from`: the start vertex is charged, then
/// one access per vertex descended into, stopping when the Claim-1
/// continue bit clears, the address is exhausted, or the path
/// dead-ends. Returns the deepest route index seen ([`NO_ROUTE`] if
/// none). Shared with the stride engine's retained binary nodes.
#[inline]
pub(crate) fn walk_from<A: Address, M: Meter>(
    nodes: &[FrozenNode],
    start: u32,
    mut depth: u8,
    dest: A,
    meter: &mut M,
) -> u32 {
    let mark = meter.mark();
    let mut cur = &nodes[start as usize];
    meter.cost().trie_node();
    let mut best = cur.route_word & NO_ROUTE;
    loop {
        if !cur.may_continue() || depth >= A::BITS {
            break;
        }
        let c = cur.children[dest.bit(depth) as usize];
        if c == NONE_NODE {
            break;
        }
        cur = &nodes[c as usize];
        depth += 1;
        meter.cost().trie_node();
        let r = cur.route_word & NO_ROUTE;
        if r != NO_ROUTE {
            best = r;
        }
    }
    meter.stage(Stage::Continuation, mark, 0, NODE_BYTES);
    best
}

/// What a frozen or stride walk found: the deepest route's index into
/// the tag dictionary and the slot of the clue entry that was hit
/// ([`NO_ROUTE`] for either when absent).
#[derive(Debug, Clone, Copy)]
pub struct RouteFd {
    pub(crate) route: u32,
    pub(crate) fd: u32,
}

impl RouteFd {
    /// A walk with no clue entry behind it.
    #[inline]
    pub(crate) fn walk(route: u32) -> Self {
        RouteFd { route, fd: NO_ROUTE }
    }
}

impl<A: Address> CompiledBackend<A> for FrozenEngine<A> {
    const NAME: &'static str = "frozen";

    type Config = ();

    type Found = RouteFd;

    fn compile(engine: &ClueEngine<A>, _config: &Self::Config) -> Result<Self, BackendError> {
        Ok(engine.freeze()?)
    }

    /// Shares the route dictionary; the nodes carry the link's Claim-1
    /// bits, so the link keeps its own.
    fn compile_link(router: &Self, engine: &ClueEngine<A>) -> Result<Self, BackendError> {
        let mut link = engine.freeze()?;
        link.check_link(&router.nodes, &router.routes)?;
        link.routes = Arc::clone(&router.routes);
        Ok(link)
    }

    fn shares_arena(&self, router: &Self) -> bool {
        Arc::ptr_eq(&self.routes, &router.routes)
    }

    fn claim_bytes(&self) -> u64 {
        self.arena_bytes()
    }

    fn method(&self) -> Method {
        self.method
    }

    /// Classifies the packet. The frozen engine has no useful prefetch
    /// target for a table probe (the hash map's home slot is not
    /// address-computable from outside), so nothing is prefetched.
    #[inline]
    fn prepare(&self, dest: A, clue: Option<Prefix<A>>) -> PreparedLookup {
        PreparedLookup(PacketOp::decode(self.method, dest, clue, |_, _| 0))
    }

    /// The scalar [`ClueEngine::lookup`] flow with learning, caching
    /// and self-mutation compiled out.
    #[inline]
    fn finish<M: Meter>(
        &self,
        op: PreparedLookup,
        dest: A,
        clue: Option<Prefix<A>>,
        meter: &mut M,
    ) -> (RouteFd, LookupClass) {
        let len = match op.0 {
            PacketOp::Walk(class) => {
                return (RouteFd::walk(common_walk(&self.nodes, dest, meter)), class);
            }
            PacketOp::Probe { len, .. } => len,
        };
        let s = Prefix::of_address(dest, len);
        debug_assert_eq!(Some(s), clue, "prepare/finish clue mismatch");
        let map_bytes = core::mem::size_of::<(Prefix<A>, u32)>() as u64;
        let mark = meter.mark();
        meter.cost().hash_probe();
        match self.map.get(&s) {
            Some(&i) => {
                let entry_bytes = core::mem::size_of::<FrozenEntry<A>>() as u64;
                meter.stage(Stage::ClueProbe, mark, map_bytes + entry_bytes, 0);
                let cont = self.entries[i as usize].cont;
                if cont == NONE_NODE {
                    (RouteFd { route: NO_ROUTE, fd: i }, LookupClass::Final)
                } else {
                    let route = walk_from(&self.nodes, cont, len, dest, meter);
                    (RouteFd { route, fd: i }, LookupClass::Continued)
                }
            }
            // Unknown clue: full lookup, nothing learned (frozen).
            None => {
                meter.stage(Stage::ClueProbe, mark, map_bytes, 0);
                (RouteFd::walk(common_walk(&self.nodes, dest, meter)), LookupClass::Miss)
            }
        }
    }

    #[inline]
    fn found_prefix(&self, found: RouteFd, _dest: A) -> Option<Prefix<A>> {
        if found.route != NO_ROUTE {
            Some(self.routes[found.route as usize])
        } else if found.fd != NO_ROUTE {
            self.entries[found.fd as usize].fd
        } else {
            None
        }
    }

    #[inline]
    fn found_tag(&self, found: RouteFd) -> u32 {
        if found.route != NO_ROUTE {
            found.route
        } else if found.fd != NO_ROUTE {
            self.entries[found.fd as usize].fd_tag
        } else {
            NO_TAG
        }
    }

    fn tag_prefixes(&self) -> &[Prefix<A>] {
        &self.routes
    }

    fn telemetry(&self) -> Option<&LookupTelemetry> {
        self.telemetry.as_ref()
    }

    /// A per-core replica for the shared-nothing runtime. The nodes
    /// and clue entries are owned (deep-cloned), the route dictionary
    /// is `Arc`-shared; telemetry is detached so replicas never
    /// contend on shared counter cells.
    fn replicate(&self) -> Self {
        let mut replica = self.clone();
        replica.detach_telemetry();
        replica
    }

    /// Resident bytes of the flattened arrays (nodes + routes +
    /// entries), excluding the hash map — the structures the hot walk
    /// touches.
    fn memory_bytes(&self) -> usize {
        core::mem::size_of_val(self.nodes.as_slice())
            + core::mem::size_of_val(self.routes.as_slice())
            + core::mem::size_of_val(self.entries.as_slice())
    }

    fn arena_bytes(&self) -> u64 {
        core::mem::size_of_val(self.nodes.as_slice()) as u64
    }

    /// Entry payloads only; the `FxHashMap` index over them is heap
    /// storage the byte model cannot see per-level and is excluded
    /// here (it is not in [`Self::memory_bytes`] either).
    fn bucket_bytes(&self) -> u64 {
        core::mem::size_of_val(self.entries.as_slice()) as u64
    }

    fn dict_bytes(&self) -> u64 {
        core::mem::size_of_val(self.routes.as_slice()) as u64
    }

    fn cram_levels(&self) -> Vec<CramLevel> {
        self.level_node_counts()
            .iter()
            .enumerate()
            .map(|(d, &count)| CramLevel {
                bytes: count * NODE_BYTES,
                visits: trie_level_visits(d, count),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use clue_lookup::Family;
    use clue_trie::Ip4;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ip4 {
        s.parse().unwrap()
    }

    fn tables() -> (Vec<Prefix<Ip4>>, Vec<Prefix<Ip4>>) {
        let sender = vec![p("10.0.0.0/8"), p("10.1.0.0/16"), p("192.168.0.0/16")];
        let receiver = vec![
            p("10.0.0.0/8"),
            p("10.1.0.0/16"),
            p("10.1.2.0/24"),
            p("10.2.0.0/16"),
            p("192.168.0.0/16"),
        ];
        (sender, receiver)
    }

    fn check_parity(method: Method, dest: Ip4, clue: Option<Prefix<Ip4>>) {
        let (sender, receiver) = tables();
        let mut scalar =
            ClueEngine::precomputed(&sender, &receiver, EngineConfig::new(Family::Regular, method));
        let frozen = scalar.freeze().unwrap();
        let mut sc = Cost::new();
        let want = scalar.lookup(dest, clue, None, &mut sc);
        let mut fc = Cost::new();
        let (got, _) = frozen.lookup(dest, clue, &mut fc);
        assert_eq!(got, want, "{method} bmp for {dest} clue {clue:?}");
        assert_eq!(fc, sc, "{method} cost for {dest} clue {clue:?}");
    }

    #[test]
    fn parity_across_methods_and_classes() {
        for method in [Method::Common, Method::Simple, Method::Advance] {
            check_parity(method, a("10.1.2.3"), None); // clueless
            check_parity(method, a("10.1.2.3"), Some(p("10.1.0.0/16"))); // continued/final
            check_parity(method, a("10.1.99.1"), Some(p("10.1.0.0/16")));
            check_parity(method, a("192.168.3.4"), Some(p("192.168.0.0/16")));
            check_parity(method, a("10.9.9.9"), Some(p("10.0.0.0/8")));
            check_parity(method, a("10.1.2.3"), Some(p("192.168.0.0/16"))); // malformed
            check_parity(method, a("10.1.2.3"), Some(p("10.1.2.0/24"))); // miss (not a sender clue)
            check_parity(method, a("11.1.2.3"), None); // no route
        }
    }

    #[test]
    fn classes_match_scalar_stats() {
        let (sender, receiver) = tables();
        let scalar = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let frozen = scalar.freeze().unwrap();
        let d = frozen.lookup_decision(a("10.1.2.3"), Some(p("10.1.0.0/16")));
        assert_eq!(d.class, LookupClass::Continued);
        assert_eq!(d.bmp, Some(p("10.1.2.0/24")));
        let d = frozen.lookup_decision(a("192.168.3.4"), Some(p("192.168.0.0/16")));
        assert_eq!(d.class, LookupClass::Final);
        assert_eq!(d.cost.total(), 1, "a final hit is the paper's one access");
    }

    #[test]
    fn batch_matches_singles_and_counts_classes() {
        let (sender, receiver) = tables();
        let scalar = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let frozen = scalar.freeze().unwrap();
        let dests = vec![a("10.1.2.3"), a("192.168.3.4"), a("10.1.2.3"), a("7.7.7.7")];
        let clues = vec![
            Some(p("10.1.0.0/16")),
            Some(p("192.168.0.0/16")),
            Some(p("192.168.0.0/16")), // malformed
            None,
        ];
        let (batch, stats) = frozen.lookup_batch_vec(&dests, &clues);
        for (i, (&dest, &clue)) in dests.iter().zip(&clues).enumerate() {
            assert_eq!(batch[i], frozen.lookup_decision(dest, clue), "packet {i}");
        }
        assert_eq!(
            (stats.continued, stats.finals, stats.malformed, stats.clueless),
            (1, 1, 1, 1)
        );
        assert_eq!(stats.total(), 4);
    }

    #[test]
    fn batch_records_inherited_telemetry() {
        use clue_telemetry::Registry;
        let (sender, receiver) = tables();
        let mut scalar = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let registry = Registry::new();
        scalar.instrument(&registry);
        let frozen = scalar.freeze().unwrap();
        assert!(frozen.telemetry().is_some(), "telemetry inherited at freeze");
        let dests = vec![a("10.1.2.3"), a("192.168.3.4")];
        let clues = vec![Some(p("10.1.0.0/16")), Some(p("192.168.0.0/16"))];
        let (_, stats) = frozen.lookup_batch_vec(&dests, &clues);
        let t = frozen.telemetry().unwrap();
        assert_eq!(t.lookups_total.get(), 2);
        assert_eq!(t.class_count(LookupClass::Final), stats.finals);
        assert_eq!(t.class_count(LookupClass::Continued), stats.continued);
    }

    #[test]
    fn freeze_rejects_unsupported_configurations() {
        let (sender, receiver) = tables();
        let patricia = ClueEngine::<Ip4>::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Patricia, Method::Advance),
        );
        assert_eq!(patricia.freeze().unwrap_err(), FreezeError::UnsupportedFamily);

        let indexed = ClueEngine::<Ip4>::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance).with_indexed_table(),
        );
        assert_eq!(indexed.freeze().unwrap_err(), FreezeError::UnsupportedTable);

        let mut cached = ClueEngine::<Ip4>::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        cached.enable_cache(8);
        assert_eq!(cached.freeze().unwrap_err(), FreezeError::CacheEnabled);
        assert!(FreezeError::CacheEnabled.to_string().contains("cache"));
    }

    #[test]
    fn frozen_layout_is_compact() {
        assert_eq!(core::mem::size_of::<FrozenNode>(), 12);
        let (sender, receiver) = tables();
        let scalar = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let frozen = scalar.freeze().unwrap();
        assert_eq!(frozen.entry_count(), sender.len());
        assert!(frozen.node_count() > 0);
        assert!(frozen.memory_bytes() < scalar.t2_ref().memory_bytes());
    }

    #[test]
    fn freeze_errors_name_the_offending_feature() {
        assert_eq!(FreezeError::UnsupportedFamily.feature(), "family");
        assert_eq!(FreezeError::UnsupportedTable.feature(), "indexed-table");
        assert_eq!(FreezeError::CacheEnabled.feature(), "lru-cache");
    }

    #[test]
    fn freeze_is_canonical_across_build_histories() {
        let (sender, receiver) = tables();
        let from_scratch = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );

        // Same logical end state, different history: start without two
        // routes, grow into them, with an unrelated insert/remove pair
        // thrown in to shuffle the table's hash-insertion order and the
        // trie's arena indices.
        let partial: Vec<_> =
            receiver.iter().copied().filter(|r| r.len() != 24).collect();
        let mut churned = ClueEngine::precomputed(
            &sender,
            &partial,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        churned.add_receiver_route(p("172.16.0.0/12"));
        churned.add_receiver_route(p("10.1.2.0/24"));
        churned.remove_receiver_route(&p("172.16.0.0/12"));

        let a = from_scratch.freeze().unwrap();
        let b = churned.freeze().unwrap();
        assert!(a.bit_identical(&b), "same logical state must freeze identically");
        assert!(b.bit_identical(&a), "bit-identity is symmetric");

        churned.add_receiver_route(p("10.3.0.0/16"));
        let c = churned.freeze().unwrap();
        assert!(!a.bit_identical(&c), "a differing route must show");
    }

    #[test]
    fn profiled_lookup_is_semantically_inert() {
        use crate::profile::StageMeter;
        let (sender, receiver) = tables();
        let cases: Vec<(Ip4, Option<Prefix<Ip4>>)> = vec![
            (a("10.1.2.3"), None),                         // clueless
            (a("10.1.2.3"), Some(p("10.1.0.0/16"))),       // continued
            (a("192.168.3.4"), Some(p("192.168.0.0/16"))), // final
            (a("10.1.2.3"), Some(p("192.168.0.0/16"))),    // malformed
            (a("10.1.2.3"), Some(p("10.1.2.0/24"))),       // miss
            (a("11.1.2.3"), None),                         // no route
        ];
        for method in [Method::Common, Method::Simple, Method::Advance] {
            let frozen = ClueEngine::precomputed(
                &sender,
                &receiver,
                EngineConfig::new(Family::Regular, method),
            )
            .freeze()
            .unwrap();
            let mut meter = StageMeter::default();
            for &(dest, clue) in &cases {
                meter.cost = Cost::new();
                let got = frozen.lookup(dest, clue, &mut meter);
                let mut uc = Cost::new();
                let want = frozen.lookup(dest, clue, &mut uc);
                assert_eq!(got, want, "{method} {dest} {clue:?}");
                assert_eq!(meter.cost, uc, "{method} cost parity for {dest} {clue:?}");
            }
            let prof = &meter.profiler;
            assert_eq!(prof.lookups(), cases.len() as u64);
            // Every charged tick lands in exactly one stage.
            let charged: u64 = cases
                .iter()
                .map(|&(dest, clue)| frozen.lookup_decision(dest, clue).cost.total())
                .sum();
            assert_eq!(
                prof.total_ticks(),
                charged,
                "{method} stage ticks must sum to cost"
            );
            assert!(prof.stage(Stage::Root).visits > 0);
            assert_eq!(
                prof.stage(Stage::Cache).visits,
                0,
                "frozen engines have no cache"
            );
        }
    }

    #[test]
    fn freeze_is_a_snapshot() {
        let (sender, receiver) = tables();
        let mut scalar = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let frozen = scalar.freeze().unwrap();
        scalar.add_receiver_route(p("10.1.2.128/25"));
        let mut c = Cost::new();
        let (bmp, _) = frozen.lookup(a("10.1.2.200"), Some(p("10.1.0.0/16")), &mut c);
        assert_eq!(bmp, Some(p("10.1.2.0/24")), "snapshot ignores later routes");
    }
}
