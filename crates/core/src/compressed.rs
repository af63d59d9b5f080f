//! An entropy-compressed third compilation of a [`FrozenEngine`]: the
//! FIB-scale backend.
//!
//! The frozen engine spends 12 bytes per trie vertex; at a modern
//! 1M-prefix FIB (~5M vertices) that is ~60 MB of walk arena — far
//! outside any cache. Following the entropy-bound FIB-compression line
//! of work (Rétvári et al., SIGCOMM 2013), this module re-encodes the
//! *same* BFS-ordered trie in ~5 bits per vertex:
//!
//! * each vertex becomes a 4-bit **nibble** packed 16-to-a-word:
//!   left-child bit, right-child bit, route-marked bit, Claim-1
//!   continue bit;
//! * child pointers are erased entirely and recovered by **popcount
//!   rank**: the BFS layout assigns children sequentially, so the
//!   target of the j-th child edge (counting all edges laid out before
//!   it) is exactly vertex `j + 1`. A small rank directory (one `u32`
//!   per 64 vertices) makes each child step O(1) with at most four
//!   popcounts over one or two adjacent words;
//! * route prefixes are erased from the walk too: a route-marked
//!   vertex's prefix is always a prefix of the walked destination, so
//!   the BMP is reconstructed as `Prefix::of_address(dest, depth)` —
//!   the hot walk touches only the bitmap arena, never the dictionary;
//! * route *tags* (for [`CompiledBackend::lookup_finish_tag`]) come from the same
//!   rank trick over the route-marked bits: the n-th marked vertex in
//!   BFS order carries tag n, matching the frozen engine's route table
//!   exactly, so the shared tag → prefix dictionary (and the runtime's
//!   precomputed hop tables) work unchanged;
//! * clue buckets are byte-identical to the stride engine's (the shared
//!   `crate::buckets`), stored against the compressed arena.
//!
//! **The `Decision` contract is unchanged**: same BMP, same
//! [`LookupClass`], tick-for-tick the same [`Cost`] as the scalar
//! engine — the walk descends the identical vertices and charges one
//! [`Cost::trie_node`] per visit, honoring the Claim-1 bit at
//! single-bit granularity; the bucket probe charges the paper's single
//! mandatory [`Cost::hash_probe`]. Compression changes bytes touched,
//! never vertices charged. Equivalence is property-tested in
//! `tests/compressed_prop.rs`.

use std::sync::Arc;

use clue_telemetry::LookupClass;
use clue_trie::{Address, Prefix};

use crate::backend::{
    trie_level_visits, BackendError, CompiledBackend, PacketOp, PreparedLookup, NO_TAG,
};
use crate::buckets::{ClueBuckets, FINAL_SLOT};
use crate::cram::CramLevel;
use crate::engine::{ClueEngine, Method};
use crate::frozen::{FrozenEngine, NONE_NODE, NO_ROUTE};
use crate::prefetch::prefetch_read;
use crate::profile::{Meter, Stage};

/// Vertices per packed 64-bit word (4 bits each).
const NODES_PER_WORD: u32 = 16;

/// Words per rank-directory block: one cumulative `u32` pair per 4
/// words (64 vertices), so a rank query scans at most 3 whole words
/// plus one partial — all within one cache line of quads.
const RANK_SPAN_WORDS: usize = 4;

/// Nibble bit 0: left child present.
const L_BIT: u64 = 1;
/// Nibble bit 2: vertex is route-marked.
const ROUTE_NIB: u64 = 4;
/// Nibble bit 3: Claim-1 continue bit.
const CONT_NIB: u64 = 8;

/// Both child bits of every nibble in a word.
const CHILD_MASK: u64 = 0x3333_3333_3333_3333;
/// The route bit of every nibble in a word.
const ROUTE_MASK: u64 = 0x4444_4444_4444_4444;
/// The Claim-1 bit of every nibble in a word.
const CONT_MASK: u64 = 0x8888_8888_8888_8888;

/// Shape of the compressed compilation. The bit-packed layout is fully
/// determined by the snapshot today; the struct exists so the
/// `CompiledBackend` plumbing stays uniform and future knobs (rank
/// span, hop-tag width) have a home.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompressedConfig;

/// The entropy-compressed engine; see the module docs. Compiled from a
/// [`FrozenEngine`] via [`FrozenEngine::compile_compressed`],
/// read-only and `Sync` like its source. All compiled arrays live
/// behind [`Arc`]s, so a clone is a refcount bump, not a deep copy.
#[derive(Debug, Clone)]
pub struct CompressedEngine<A: Address> {
    method: Method,
    /// Vertices encoded in `quads`.
    node_count: u32,
    /// 4-bit vertex nibbles, 16 per word, BFS order.
    quads: Arc<Vec<u64>>,
    /// Child-edge rank directory: cumulative child-bit count before
    /// each [`RANK_SPAN_WORDS`] block.
    child_rank: Arc<Vec<u32>>,
    /// Route rank directory: cumulative route-bit count before each
    /// block (a route-marked vertex's tag is its route rank).
    route_rank: Arc<Vec<u32>>,
    /// Tag → prefix dictionary (control plane: `tag_prefixes`,
    /// hop-table construction). The hot walk never reads it.
    routes: Arc<Vec<Prefix<A>>>,
    /// The clue buckets (shared layout with the stride engine),
    /// continuations pointing into the arena.
    buckets: Arc<ClueBuckets<A>>,
    /// Vertices per BFS level (level 0 = root) — the CRAM byte map.
    level_nodes: Arc<Vec<u64>>,
}

impl<A: Address> FrozenEngine<A> {
    /// Compiles this snapshot into a [`CompressedEngine`]: nibble
    /// bitmap arena, popcount rank directories, the shared clue
    /// buckets and tag dictionary. Pure function of the snapshot;
    /// infallible because every frozen layout compresses.
    pub fn compile_compressed(&self, _config: CompressedConfig) -> CompressedEngine<A> {
        let nodes = self.raw_nodes();
        let n = nodes.len();
        let quads = self.nibble_quads();

        let blocks = quads.len().div_ceil(RANK_SPAN_WORDS);
        let mut child_rank = Vec::with_capacity(blocks);
        let mut route_rank = Vec::with_capacity(blocks);
        let (mut c, mut r) = (0u64, 0u64);
        for (w, &word) in quads.iter().enumerate() {
            if w % RANK_SPAN_WORDS == 0 {
                child_rank.push(u32::try_from(c).expect("child count fits u32"));
                route_rank.push(u32::try_from(r).expect("route count fits u32"));
            }
            c += u64::from((word & CHILD_MASK).count_ones());
            r += u64::from((word & ROUTE_MASK).count_ones());
        }

        let engine = CompressedEngine {
            method: self.method(),
            node_count: u32::try_from(n).expect("node count fits u32"),
            quads: Arc::new(quads),
            child_rank: Arc::new(child_rank),
            route_rank: Arc::new(route_rank),
            routes: Arc::new(self.raw_routes().to_vec()),
            buckets: Arc::new(ClueBuckets::build(self)),
            level_nodes: Arc::new(self.level_node_counts()),
        };

        // The whole scheme rests on the BFS child-adjacency invariant
        // (the j-th child edge targets vertex j+1) and on route tags
        // equalling route ranks; verify both against the source
        // snapshot in debug builds.
        #[cfg(debug_assertions)]
        for (i, node) in nodes.iter().enumerate() {
            let i = i as u32;
            for b in 0..2usize {
                debug_assert_eq!(
                    engine.child(i, b),
                    node.children[b],
                    "rank-derived child diverges at vertex {i} bit {b}"
                );
            }
            if node.route_word & NO_ROUTE != NO_ROUTE {
                debug_assert_eq!(
                    engine.route_rank_of(i),
                    node.route_word & NO_ROUTE,
                    "route rank diverges from route index at vertex {i}"
                );
            }
        }

        engine
    }

    /// The snapshot's vertices as 4-bit nibbles, 16 per word, BFS
    /// order.
    fn nibble_quads(&self) -> Vec<u64> {
        let nodes = self.raw_nodes();
        let words = nodes.len().div_ceil(NODES_PER_WORD as usize);
        let mut quads = vec![0u64; words.max(1)];
        for (i, node) in nodes.iter().enumerate() {
            let mut nib = 0u64;
            if node.children[0] != NONE_NODE {
                nib |= L_BIT;
            }
            if node.children[1] != NONE_NODE {
                nib |= L_BIT << 1;
            }
            if node.route_word & NO_ROUTE != NO_ROUTE {
                nib |= ROUTE_NIB;
            }
            if node.may_continue() {
                nib |= CONT_NIB;
            }
            quads[i / NODES_PER_WORD as usize] |= nib << ((i as u32 % NODES_PER_WORD) * 4);
        }
        quads
    }
}

impl<A: Address> CompressedEngine<A> {
    /// Vertices encoded in the arena.
    pub fn node_count(&self) -> usize {
        self.node_count as usize
    }

    /// Vertices per BFS level (level 0 is the root) — the per-level
    /// byte map the CRAM analysis consumes.
    pub(crate) fn level_node_counts(&self) -> &[u64] {
        &self.level_nodes
    }

    /// The 4-bit nibble of vertex `node`.
    #[inline]
    fn nibble(&self, node: u32) -> u64 {
        (self.quads[(node / NODES_PER_WORD) as usize] >> ((node % NODES_PER_WORD) * 4)) & 0xF
    }

    /// Child-edge rank strictly before vertex `node`'s own left-child
    /// bit: the number of child edges laid out before this vertex's.
    #[inline]
    fn child_rank_before(&self, node: u32) -> u32 {
        let w = (node / NODES_PER_WORD) as usize;
        let mut rank = self.child_rank[w / RANK_SPAN_WORDS];
        for ww in (w - w % RANK_SPAN_WORDS)..w {
            rank += (self.quads[ww] & CHILD_MASK).count_ones();
        }
        let o = (node % NODES_PER_WORD) * 4;
        let below = self.quads[w] & CHILD_MASK & ((1u64 << o) - 1);
        rank + below.count_ones()
    }

    /// The `bit`-side child of vertex `node` ([`NONE_NODE`] if
    /// absent), recovered by rank: with BFS layout the j-th child edge
    /// overall targets vertex `j + 1`.
    #[inline]
    fn child(&self, node: u32, bit: usize) -> u32 {
        let nib = self.nibble(node);
        if (nib >> bit) & 1 == 0 {
            return NONE_NODE;
        }
        // Edges before this one: all edges before this vertex, plus
        // the vertex's own left edge when descending right.
        let rank = self.child_rank_before(node) + ((nib as u32) & 1) * bit as u32;
        rank + 1
    }

    /// Route rank strictly before vertex `node` — equal to `node`'s
    /// route tag when `node` is route-marked. Only queried by the tag
    /// projection (once per resolved walk), never per step.
    #[inline]
    fn route_rank_of(&self, node: u32) -> u32 {
        let w = (node / NODES_PER_WORD) as usize;
        let mut rank = self.route_rank[w / RANK_SPAN_WORDS];
        for ww in (w - w % RANK_SPAN_WORDS)..w {
            rank += (self.quads[ww] & ROUTE_MASK).count_ones();
        }
        let o = (node % NODES_PER_WORD) * 4;
        let below = self.quads[w] & ROUTE_MASK & ((1u64 << o) - 1);
        rank + below.count_ones()
    }

    /// The full (clueless) lookup on the compressed arena: the frozen
    /// engine's root-down bit walk, one [`clue_trie::Cost::trie_node`]
    /// per vertex visited. Returns the deepest route-marked vertex on
    /// `dest`'s path and its depth.
    #[inline(never)]
    fn common_walk<M: Meter>(&self, dest: A, meter: &mut M) -> NodeFd {
        let mark = meter.mark();
        meter.cost().trie_node();
        let mut node = 0u32;
        let mut best = NodeFd::walk(if self.nibble(0) & ROUTE_NIB != 0 { 0 } else { NONE_NODE }, 0);
        for depth in 0..A::BITS {
            let c = self.child(node, dest.bit(depth) as usize);
            if c == NONE_NODE {
                break;
            }
            node = c;
            meter.cost().trie_node();
            if self.nibble(node) & ROUTE_NIB != 0 {
                best = NodeFd::walk(node, depth + 1);
            }
        }
        meter.walk(mark, VERTEX_BYTES);
        best
    }

    /// The continued walk from a clue vertex at depth `depth`,
    /// honoring the Claim-1 continue bit at single-bit granularity;
    /// charges identically to [`FrozenEngine`]'s continued walk. Valid
    /// only when the clue contains `dest` (guaranteed before any
    /// probe), so a route vertex's prefix lies on `dest`'s path.
    #[inline(never)]
    fn walk_from<M: Meter>(
        &self,
        start: u32,
        mut depth: u8,
        dest: A,
        fd: u32,
        meter: &mut M,
    ) -> NodeFd {
        let mark = meter.mark();
        meter.cost().trie_node();
        let mut node = start;
        let mut nib = self.nibble(node);
        let mut best = NodeFd { node: NONE_NODE, depth: 0, fd };
        if nib & ROUTE_NIB != 0 {
            best.node = node;
            best.depth = depth;
        }
        loop {
            if nib & CONT_NIB == 0 || depth >= A::BITS {
                break;
            }
            let c = self.child(node, dest.bit(depth) as usize);
            if c == NONE_NODE {
                break;
            }
            node = c;
            depth += 1;
            meter.cost().trie_node();
            nib = self.nibble(node);
            if nib & ROUTE_NIB != 0 {
                best.node = node;
                best.depth = depth;
            }
        }
        meter.stage(Stage::Continuation, mark, 0, VERTEX_BYTES);
        best
    }
}

/// Bytes one walked vertex dereferences in the stage byte model: the
/// quad word holding its nibble plus one rank-directory entry.
const VERTEX_BYTES: u64 = (core::mem::size_of::<u64>() + core::mem::size_of::<u32>()) as u64;

/// What a compressed walk found: the deepest route-marked vertex and
/// its depth ([`NONE_NODE`] when none), and the bucket slot of the clue
/// entry that was hit ([`NO_ROUTE`] when none).
#[derive(Debug, Clone, Copy)]
pub struct NodeFd {
    node: u32,
    depth: u8,
    fd: u32,
}

impl NodeFd {
    #[inline]
    fn walk(node: u32, depth: u8) -> Self {
        NodeFd { node, depth, fd: NO_ROUTE }
    }
}

impl<A: Address> CompiledBackend<A> for CompressedEngine<A> {
    const NAME: &'static str = "compressed";

    type Config = CompressedConfig;

    type Found = NodeFd;

    fn compile(engine: &ClueEngine<A>, config: &Self::Config) -> Result<Self, BackendError> {
        Ok(engine.freeze()?.compile_compressed(*config))
    }

    /// Shares the router's rank directories (they count child and
    /// route bits only), level map and dictionary. The link owns its
    /// nibble quads, which carry its Claim-1 bits, and its clue
    /// buckets. Equal quads with the Claim-1 bits masked mean equal
    /// children and route ranks, i.e. the same trie.
    fn compile_link(router: &Self, engine: &ClueEngine<A>) -> Result<Self, BackendError> {
        let frozen = engine.freeze()?;
        let quads = frozen.nibble_quads();
        let same_trie = quads.len() == router.quads.len()
            && quads.iter().zip(router.quads.iter()).all(|(a, b)| (a ^ b) & !CONT_MASK == 0)
            && frozen.raw_routes() == router.routes.as_slice();
        if !same_trie {
            return Err(BackendError::LinkMismatch);
        }
        Ok(CompressedEngine {
            method: frozen.method(),
            node_count: router.node_count,
            quads: Arc::new(quads),
            child_rank: Arc::clone(&router.child_rank),
            route_rank: Arc::clone(&router.route_rank),
            routes: Arc::clone(&router.routes),
            buckets: Arc::new(ClueBuckets::build(&frozen)),
            level_nodes: Arc::clone(&router.level_nodes),
        })
    }

    fn shares_arena(&self, router: &Self) -> bool {
        Arc::ptr_eq(&self.child_rank, &router.child_rank)
            && Arc::ptr_eq(&self.route_rank, &router.route_rank)
            && Arc::ptr_eq(&self.routes, &router.routes)
            && Arc::ptr_eq(&self.level_nodes, &router.level_nodes)
    }

    fn claim_bytes(&self) -> u64 {
        core::mem::size_of_val(self.quads.as_slice()) as u64
    }

    fn method(&self) -> Method {
        self.method
    }

    /// Classifies the packet and prefetches the first line its lookup
    /// will touch: the root quad word or the clue-bucket home slot.
    #[inline]
    fn prepare(&self, dest: A, clue: Option<Prefix<A>>) -> PreparedLookup {
        let op =
            PacketOp::decode(self.method, dest, clue, |len, bits| self.buckets.home(len, bits));
        match op {
            PacketOp::Walk(_) => prefetch_read(&self.quads[0]),
            PacketOp::Probe { k, len } => self.buckets.prefetch(len, k),
        }
        PreparedLookup(op)
    }

    /// The frozen engine's flow (and charges) on the bit-packed arena.
    #[inline]
    fn finish<M: Meter>(
        &self,
        op: PreparedLookup,
        dest: A,
        clue: Option<Prefix<A>>,
        meter: &mut M,
    ) -> (NodeFd, LookupClass) {
        match op.0 {
            PacketOp::Walk(class) => (self.common_walk(dest, meter), class),
            PacketOp::Probe { k, len } => {
                let s = clue.expect("a probe op is only decoded from a present clue");
                match self.buckets.probe(len, s.bits(), k, meter) {
                    Some(fd) => {
                        let cont = self.buckets.slots[fd as usize].cont;
                        if cont == FINAL_SLOT {
                            (NodeFd { node: NONE_NODE, depth: 0, fd }, LookupClass::Final)
                        } else {
                            (self.walk_from(cont, len, dest, fd, meter), LookupClass::Continued)
                        }
                    }
                    None => (self.common_walk(dest, meter), LookupClass::Miss),
                }
            }
        }
    }

    /// A route vertex at depth `d` on `dest`'s path *is* the prefix
    /// `dest/d`, so the BMP is rebuilt from the destination — the hot
    /// path never reads the dictionary.
    #[inline]
    fn found_prefix(&self, found: NodeFd, dest: A) -> Option<Prefix<A>> {
        if found.node != NONE_NODE {
            Some(Prefix::of_address(dest, found.depth))
        } else if found.fd != NO_ROUTE {
            self.buckets.slots[found.fd as usize].fd()
        } else {
            None
        }
    }

    /// One rank query for a route vertex, one FD-tag load for a bucket
    /// hit.
    #[inline]
    fn found_tag(&self, found: NodeFd) -> u32 {
        if found.node != NONE_NODE {
            self.route_rank_of(found.node)
        } else if found.fd != NO_ROUTE {
            self.buckets.fd_tags[found.fd as usize]
        } else {
            NO_TAG
        }
    }

    /// Identical content to the frozen/stride dictionaries compiled
    /// from the same snapshot.
    fn tag_prefixes(&self) -> &[Prefix<A>] {
        &self.routes
    }

    fn memory_bytes(&self) -> usize {
        (self.arena_bytes() + self.bucket_bytes() + self.dict_bytes()) as usize
    }

    /// Bytes of the walk arena: nibble quads plus both rank
    /// directories — what the compression gate measures. ~0.63
    /// bytes/vertex versus the frozen engine's 12.
    fn arena_bytes(&self) -> u64 {
        (core::mem::size_of_val(self.quads.as_slice())
            + core::mem::size_of_val(self.child_rank.as_slice())
            + core::mem::size_of_val(self.route_rank.as_slice())) as u64
    }

    /// Identical layout and size to the stride engine's buckets.
    fn bucket_bytes(&self) -> u64 {
        self.buckets.bytes()
    }

    /// Control plane only: the hot walk reconstructs BMPs from the
    /// destination and never touches this array.
    fn dict_bytes(&self) -> u64 {
        core::mem::size_of_val(self.routes.as_slice()) as u64
    }

    // Per-level bytes prorate the whole arena (quads + rank
    // directories) by vertex share, so the levels partition exactly
    // what `arena_bytes` reports.
    fn cram_levels(&self) -> Vec<CramLevel> {
        let arena = self.arena_bytes() as f64;
        let total = self.node_count().max(1) as f64;
        self.level_node_counts()
            .iter()
            .enumerate()
            .map(|(d, &count)| CramLevel {
                bytes: (arena * count as f64 / total).round() as u64,
                visits: trie_level_visits(d, count),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::frozen::Decision;
    use clue_lookup::Family;
    use clue_trie::{Cost, Ip4};

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
        let compressed = frozen.compile_compressed(CompressedConfig);
        let mut sc = Cost::new();
        let want = scalar.lookup(dest, clue, None, &mut sc);
        let d = compressed.lookup_decision(dest, clue);
        assert_eq!(d.bmp, want, "{method} bmp for {dest} clue {clue:?}");
        assert_eq!(d.cost, sc, "{method} cost for {dest} clue {clue:?}");
        assert_eq!(d, frozen.lookup_decision(dest, clue), "compressed == frozen decision");
    }

    #[test]
    fn parity_across_methods_and_classes() {
        for method in [Method::Common, Method::Simple, Method::Advance] {
            check_parity(method, a("10.1.2.3"), None); // clueless
            check_parity(method, a("10.1.2.3"), Some(p("10.1.0.0/16"))); // continued
            check_parity(method, a("10.1.99.1"), Some(p("10.1.0.0/16")));
            check_parity(method, a("192.168.3.4"), Some(p("192.168.0.0/16"))); // final
            check_parity(method, a("10.9.9.9"), Some(p("10.0.0.0/8")));
            check_parity(method, a("10.1.2.3"), Some(p("192.168.0.0/16"))); // malformed
            check_parity(method, a("10.1.2.3"), Some(p("10.1.2.0/24"))); // miss
            check_parity(method, a("11.1.2.3"), None); // no route
        }
    }

    #[test]
    fn tags_resolve_to_the_same_prefix_as_lookup() {
        let (sender, receiver) = tables();
        let scalar = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let compressed = CompressedEngine::compile(&scalar, &CompressedConfig).unwrap();
        let cases: Vec<(Ip4, Option<Prefix<Ip4>>)> = vec![
            (a("10.1.2.3"), None),
            (a("10.1.2.3"), Some(p("10.1.0.0/16"))),
            (a("192.168.3.4"), Some(p("192.168.0.0/16"))),
            (a("10.1.2.3"), Some(p("192.168.0.0/16"))),
            (a("10.1.2.3"), Some(p("10.1.2.0/24"))),
            (a("11.1.2.3"), None),
        ];
        for (dest, clue) in cases {
            let mut c1 = Cost::new();
            let (bmp, class) = compressed.lookup(dest, clue, &mut c1);
            let mut c2 = Cost::new();
            let op = compressed.prepare(dest, clue);
            let (tag, tag_class) = compressed.lookup_finish_tag(op, dest, clue, &mut c2);
            let tag_bmp = (tag != NO_TAG).then(|| compressed.tag_prefixes()[tag as usize]);
            assert_eq!(tag_bmp, bmp, "{dest} {clue:?}");
            assert_eq!(tag_class, class, "{dest} {clue:?}");
            assert_eq!(c1, c2, "cost parity for {dest} {clue:?}");
        }
    }

    #[test]
    fn interleave_is_semantically_inert() {
        let (sender, receiver) = tables();
        let scalar = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let compressed = CompressedEngine::compile(&scalar, &CompressedConfig).unwrap();
        let dests = vec![a("10.1.2.3"), a("192.168.3.4"), a("10.1.2.3"), a("7.7.7.7")];
        let clues = vec![
            Some(p("10.1.0.0/16")),
            Some(p("192.168.0.0/16")),
            Some(p("192.168.0.0/16")), // malformed
            None,
        ];
        let mut want = vec![Decision::default(); dests.len()];
        let want_stats = compressed.lookup_batch(&dests, &clues, &mut want);
        for group in [0, 1, 2, 3, 8, 64] {
            let mut out = vec![Decision::default(); dests.len()];
            let stats = compressed.lookup_batch_interleaved(&dests, &clues, &mut out, group);
            assert_eq!(out, want, "group {group}");
            assert_eq!(stats, want_stats, "group {group}");
        }
        assert_eq!(
            (want_stats.continued, want_stats.finals, want_stats.malformed, want_stats.clueless),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn arena_is_an_order_of_magnitude_smaller_than_frozen() {
        let (sender, receiver) = tables();
        let scalar = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let frozen = scalar.freeze().unwrap();
        let compressed = frozen.compile_compressed(CompressedConfig);
        assert_eq!(compressed.node_count(), frozen.node_count());
        let frozen_arena = frozen.node_count() * 12;
        assert!(
            compressed.arena_bytes() * 3 < frozen_arena as u64,
            "compressed arena {} vs frozen {}",
            compressed.arena_bytes(),
            frozen_arena
        );
        let levels = compressed.level_node_counts();
        assert_eq!(levels[0], 1, "level 0 is the root");
        assert_eq!(
            levels.iter().sum::<u64>(),
            compressed.node_count() as u64,
            "levels partition the arena"
        );
    }

    #[test]
    fn clones_share_the_arena() {
        let (sender, receiver) = tables();
        let scalar = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let compressed = CompressedEngine::compile(&scalar, &CompressedConfig).unwrap();
        let replica = compressed.clone();
        assert!(Arc::ptr_eq(&compressed.quads, &replica.quads), "arena is shared, not copied");
        assert_eq!(
            replica.lookup_decision(a("10.1.2.3"), Some(p("10.1.0.0/16"))),
            compressed.lookup_decision(a("10.1.2.3"), Some(p("10.1.0.0/16")))
        );
    }
}
