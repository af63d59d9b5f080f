//! A stride-compiled second representation of a [`FrozenEngine`]: the
//! multibit fast path.
//!
//! The frozen engine already lays the continuation trie out flat, but
//! a full walk still consumes one 12-byte node — one dependent load —
//! per address *bit*, and every clue consult hashes into an
//! [`FxHashMap`](crate::fxhash::FxHashMap). This module compiles the
//! frozen snapshot once more, into the layout software-LPM practice
//! actually deploys:
//!
//! * a **direct-indexed initial stride array**: the top
//!   [`StrideConfig::initial_bits`] address bits index straight into a
//!   slot that already holds the best route over that whole top-of-trie
//!   path (leaf-pushed), the number of binary-trie vertices the scalar
//!   walk would have charged, and where to continue;
//! * **multibit internal nodes** below the root array: each consumes
//!   [`StrideConfig::inner_bits`] address bits per step via controlled
//!   prefix expansion, again with leaf-pushed route words and
//!   precomputed scalar charge counts;
//! * **length-indexed flat clue buckets** (`crate::buckets`), shared
//!   with the compressed engine: one multiply-shift home slot per
//!   clue length, no SipHash, no FxHash;
//! * a software-**prefetched** `prepare`: the batch loop
//!   ([`CompiledBackend::lookup_batch_interleaved`]) prepares each
//!   packet — prefetching its root slot or clue-bucket home — a window
//!   of packets before resolving it (see [`crate::prefetch`]).
//!
//! **The `Decision` contract is unchanged.** For every (destination,
//! clue) pair the stride engine returns the same BMP, the same
//! [`LookupClass`] and tick-for-tick the same [`Cost`] as the scalar
//! engine: `Cost` remains the paper's binary-walk accounting model, so
//! every stride slot carries the exact number of binary vertices the
//! scalar walk would have visited (`consumed`), and continued walks —
//! which must honor the Section 4 Claim-1 bit at single-bit
//! granularity from arbitrary clue depths — run on a retained copy of
//! the frozen binary nodes, unchanged. Wall-clock speed comes from
//! layout and prefetch, never from charging fewer ticks; equivalence
//! is property-tested in `tests/stride_prop.rs`.

use std::collections::HashMap;
use std::sync::Arc;

use clue_telemetry::LookupClass;
use clue_trie::{Address, Prefix};

use crate::backend::{BackendError, CompiledBackend, PacketOp, PreparedLookup, NO_TAG};
use crate::buckets::{ClueBuckets, FINAL_SLOT};
use crate::cram::CramLevel;
use crate::engine::{ClueEngine, Method};
use crate::frozen::{
    walk_from, FrozenEngine, FrozenNode, RouteFd, CONT_BIT, NONE_NODE, NO_ROUTE,
};
use crate::prefetch::prefetch_read;
use crate::profile::{Meter, Stage};

/// Default initial stride: 13 bits — 8192 root slots (96 KiB) cover
/// every real-table prefix shorter than a /14 in a single indexed
/// read, while staying small enough to be cache-resident next to the
/// inner nodes. Chosen over 8 and 16 on a ~40k-prefix table; re-run
/// the sweep with `clue throughput --stride N`.
pub const DEFAULT_INITIAL_BITS: u8 = 13;

/// Default inner stride width (bits consumed per multibit step).
pub const DEFAULT_INNER_BITS: u8 = 8;

/// Largest accepted initial stride (2^20 root slots, 12 MiB).
const MAX_INITIAL_BITS: u8 = 20;

/// Largest accepted inner stride width.
const MAX_INNER_BITS: u8 = 16;

/// Shape of the stride compilation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideConfig {
    /// Address bits resolved by the direct-indexed root array
    /// (1 ..= 20, and strictly less than `A::BITS`).
    pub initial_bits: u8,
    /// Address bits consumed per multibit inner node (1 ..= 16).
    pub inner_bits: u8,
}

impl Default for StrideConfig {
    fn default() -> Self {
        StrideConfig { initial_bits: DEFAULT_INITIAL_BITS, inner_bits: DEFAULT_INNER_BITS }
    }
}

impl StrideConfig {
    /// A config with the given strides (validated at compile time —
    /// see [`FrozenEngine::compile_stride`]).
    pub fn new(initial_bits: u8, inner_bits: u8) -> Self {
        StrideConfig { initial_bits, inner_bits }
    }

    fn validate<A: Address>(self) -> Result<(), StrideError> {
        if self.initial_bits == 0
            || self.initial_bits > MAX_INITIAL_BITS
            || self.initial_bits >= A::BITS
        {
            return Err(StrideError::InitialBits(self.initial_bits));
        }
        if self.inner_bits == 0 || self.inner_bits > MAX_INNER_BITS {
            return Err(StrideError::InnerBits(self.inner_bits));
        }
        Ok(())
    }
}

/// Why a stride compilation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrideError {
    /// The initial stride is 0, over 20, or not below the address width.
    InitialBits(u8),
    /// The inner stride is 0 or over 16.
    InnerBits(u8),
}

impl core::fmt::Display for StrideError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StrideError::InitialBits(b) => write!(
                f,
                "initial stride {b} out of range (1..={MAX_INITIAL_BITS}, below the address width)"
            ),
            StrideError::InnerBits(b) => {
                write!(f, "inner stride {b} out of range (1..={MAX_INNER_BITS})")
            }
        }
    }
}

impl std::error::Error for StrideError {}

/// One root-array slot: the compiled outcome of walking the top
/// `initial_bits` of an address through the binary trie.
#[derive(Debug, Clone, Copy)]
struct RootSlot {
    /// Leaf-pushed best route over the walked path ([`NO_ROUTE`] if
    /// none marked), low 31 bits of the frozen route-word encoding.
    route_word: u32,
    /// Inner stride node to continue at, [`NONE_NODE`] if the walk
    /// dead-ends within the initial stride.
    next: u32,
    /// Binary vertices the scalar walk charges for this path: the root
    /// plus one per descended edge.
    consumed: u8,
}

/// One expanded slot of a multibit inner node.
#[derive(Debug, Clone, Copy)]
struct InnerSlot {
    /// Leaf-pushed best route among the vertices this chunk descends
    /// into ([`NO_ROUTE`] if none).
    route_word: u32,
    /// Child inner node, [`NONE_NODE`] if the walk ends here.
    child: u32,
    /// Binary vertices the scalar walk charges inside this chunk (one
    /// per descended edge; the chunk's entry vertex was charged by the
    /// previous level).
    consumed: u8,
}

/// A multibit inner node: `2^width` expanded slots starting at
/// `first_slot`, consuming address bits `base .. base + width`.
#[derive(Debug, Clone, Copy)]
struct InnerNode {
    first_slot: u32,
    base: u8,
    width: u8,
}

/// The stride-compiled engine; see the module docs. Compiled from a
/// [`FrozenEngine`] via [`FrozenEngine::compile_stride`], read-only
/// and `Sync` like its source.
/// All compiled arrays live behind [`Arc`]s and never change after
/// compilation, so a clone is a handful of refcount bumps instead of
/// a deep copy of megabytes of arena, and worker cores share one
/// engine in place.
#[derive(Debug, Clone)]
pub struct StrideEngine<A: Address> {
    method: Method,
    config: StrideConfig,
    /// `2^initial_bits` direct-indexed slots.
    root: Arc<Vec<RootSlot>>,
    /// Multibit nodes below the root array.
    inner: Arc<Vec<InnerNode>>,
    /// Expanded slots of every inner node, contiguous per node.
    slots: Arc<Vec<InnerSlot>>,
    /// The frozen binary nodes, retained verbatim: continued walks
    /// honor the Claim-1 bit at single-bit granularity from arbitrary
    /// clue depths, which a fixed-stride layout cannot express.
    bin_nodes: Arc<Vec<FrozenNode>>,
    /// Tag → prefix table: the route prefixes referenced by every
    /// route word first (a route word's index *is* its tag), then any
    /// FD prefixes that are not themselves routes, so every payload
    /// the engine can resolve to has exactly one tag. See
    /// [`Self::tag_prefixes`].
    routes: Arc<Vec<Prefix<A>>>,
    /// The clue buckets, FD payloads inlined, continuations pointing
    /// into `bin_nodes`.
    buckets: Arc<ClueBuckets<A>>,
}

/// Walks `width` bits of `value` (MSB first) down the binary trie from
/// `start`, returning the edges descended, the deepest route word seen
/// among the visited vertices (optionally including `start`'s own) and
/// the end vertex ([`NONE_NODE`] on a dead end).
fn descend(
    nodes: &[FrozenNode],
    start: u32,
    value: usize,
    width: u8,
    include_start_route: bool,
) -> (u8, u32, u32) {
    let mut cur = start;
    let mut best = NO_ROUTE;
    if include_start_route && nodes[cur as usize].route_word & NO_ROUTE != NO_ROUTE {
        best = nodes[cur as usize].route_word & NO_ROUTE;
    }
    let mut edges = 0u8;
    for i in (0..width).rev() {
        let bit = (value >> i) & 1;
        let child = nodes[cur as usize].children[bit];
        if child == NONE_NODE {
            return (edges, best, NONE_NODE);
        }
        cur = child;
        edges += 1;
        let route = nodes[cur as usize].route_word & NO_ROUTE;
        if route != NO_ROUTE {
            best = route;
        }
    }
    (edges, best, cur)
}

#[inline]
fn has_children(node: &FrozenNode) -> bool {
    node.children[0] != NONE_NODE || node.children[1] != NONE_NODE
}

impl<A: Address> FrozenEngine<A> {
    /// Compiles this snapshot into a [`StrideEngine`]: leaf-pushed
    /// root array and multibit inner nodes via controlled prefix
    /// expansion, flat length-indexed clue buckets, and a retained
    /// copy of the binary nodes for Claim-1 continuations. Pure
    /// function of the snapshot; the frozen engine is unchanged.
    pub fn compile_stride(&self, config: StrideConfig) -> Result<StrideEngine<A>, StrideError> {
        config.validate::<A>()?;
        let nodes = self.raw_nodes();
        let s = config.initial_bits;
        let w = config.inner_bits;

        let mut inner: Vec<InnerNode> = Vec::new();
        let mut inner_bin: Vec<u32> = Vec::new(); // inner id → binary vertex
        let mut by_bin: HashMap<u32, u32> = HashMap::new();
        let mut queue: Vec<u32> = Vec::new();
        let mut alloc = |bin: u32,
                         base: u8,
                         inner: &mut Vec<InnerNode>,
                         inner_bin: &mut Vec<u32>,
                         queue: &mut Vec<u32>|
         -> u32 {
            *by_bin.entry(bin).or_insert_with(|| {
                let id = inner.len() as u32;
                let width = w.min(A::BITS - base);
                inner.push(InnerNode { first_slot: u32::MAX, base, width });
                inner_bin.push(bin);
                queue.push(id);
                id
            })
        };

        // Root array: simulate the scalar walk for every top-of-trie
        // path once, at compile time.
        let mut root = Vec::with_capacity(1usize << s);
        for value in 0..(1usize << s) {
            let (edges, best, end) = descend(nodes, 0, value, s, true);
            let next = if end != NONE_NODE && has_children(&nodes[end as usize]) {
                alloc(end, s, &mut inner, &mut inner_bin, &mut queue)
            } else {
                NONE_NODE
            };
            root.push(RootSlot { route_word: best, next, consumed: 1 + edges });
        }

        // Inner nodes, breadth-first: expand each boundary vertex into
        // 2^width slots; children found at a full-chunk walk whose end
        // vertex still branches become further inner nodes.
        let mut slots: Vec<InnerSlot> = Vec::new();
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            let bin = inner_bin[id as usize];
            let InnerNode { base, width, .. } = inner[id as usize];
            inner[id as usize].first_slot = slots.len() as u32;
            for value in 0..(1usize << width) {
                let (edges, best, end) = descend(nodes, bin, value, width, false);
                let child = if end != NONE_NODE && has_children(&nodes[end as usize]) {
                    alloc(end, base + width, &mut inner, &mut inner_bin, &mut queue)
                } else {
                    NONE_NODE
                };
                slots.push(InnerSlot { route_word: best, child, consumed: edges });
            }
        }

        // Clue buckets and the tag dictionary are shared, canonical
        // structures of the snapshot — see `ClueBuckets::build`.
        Ok(StrideEngine {
            method: self.method(),
            config,
            root: Arc::new(root),
            inner: Arc::new(inner),
            slots: Arc::new(slots),
            bin_nodes: Arc::new(nodes.to_vec()),
            routes: Arc::new(self.raw_routes().to_vec()),
            buckets: Arc::new(ClueBuckets::build(self)),
        })
    }
}

impl<A: Address> StrideEngine<A> {
    /// The stride shape this engine was compiled with.
    #[cfg(test)]
    pub(crate) fn config(&self) -> StrideConfig {
        self.config
    }

    /// Per-level `(resident bytes, expected visits per uniform-random
    /// clueless lookup)` of the stride walk, hottest level first:
    /// level 0 is the direct-indexed root array (always visited once),
    /// level `k > 0` groups the multibit inner nodes whose `base` is
    /// `initial + k·inner` bits. Visit probabilities propagate down
    /// the compiled graph (`P(child) = P(parent) / 2^width` per slot),
    /// which is exact for uniform destinations and fully deterministic
    /// — the input the CRAM cache-residency model consumes.
    fn level_profile(&self) -> Vec<(u64, f64)> {
        let mut p = vec![0.0f64; self.inner.len()];
        let root_share = 1.0 / self.root.len() as f64;
        for slot in self.root.iter() {
            if slot.next != NONE_NODE {
                p[slot.next as usize] += root_share;
            }
        }
        // Inner ids are allocated breadth-first, so every node's
        // parent has a smaller id and a forward scan is a complete DP.
        for id in 0..self.inner.len() {
            let n = self.inner[id];
            let share = p[id] / (1u64 << n.width) as f64;
            let first = n.first_slot as usize;
            for slot in &self.slots[first..first + (1usize << n.width)] {
                if slot.child != NONE_NODE {
                    p[slot.child as usize] += share;
                }
            }
        }
        let mut levels =
            vec![(self.root.len() as u64 * core::mem::size_of::<RootSlot>() as u64, 1.0f64)];
        let mut by_base: Vec<(u8, u64, f64)> = Vec::new();
        for (id, n) in self.inner.iter().enumerate() {
            let bytes = core::mem::size_of::<InnerNode>() as u64
                + (1u64 << n.width) * core::mem::size_of::<InnerSlot>() as u64;
            match by_base.iter_mut().find(|(b, _, _)| *b == n.base) {
                Some((_, lb, lv)) => {
                    *lb += bytes;
                    *lv += p[id];
                }
                None => by_base.push((n.base, bytes, p[id])),
            }
        }
        by_base.sort_by_key(|(b, _, _)| *b);
        levels.extend(by_base.into_iter().map(|(_, b, v)| (b, v)));
        levels
    }

    #[inline]
    fn root_index(&self, dest: A) -> usize {
        (dest.to_u128() >> (A::BITS - self.config.initial_bits)) as usize
    }

    #[inline]
    fn chunk(dest: A, base: u8, width: u8) -> usize {
        ((dest.to_u128() >> (A::BITS - base - width)) & ((1u128 << width) - 1)) as usize
    }

    /// The full (clueless) lookup on the stride layout: one indexed
    /// root read, then at most `⌈(A::BITS − initial) / inner⌉` multibit
    /// steps — while charging exactly what the scalar bit walk would
    /// have (each slot carries its precomputed vertex count). Returns
    /// the deepest route index ([`NO_ROUTE`] if none). The layout gives
    /// Root and Inner a real boundary — the direct-indexed slot read vs
    /// the multibit descent — so no proportional split is needed.
    #[inline(never)]
    fn common_walk<M: Meter>(&self, dest: A, meter: &mut M) -> u32 {
        let mark = meter.mark();
        let slot = &self.root[self.root_index(dest)];
        meter.cost().trie_nodes += u64::from(slot.consumed);
        let mut best = slot.route_word & NO_ROUTE;
        let mut node = slot.next;
        meter.stage(Stage::Root, mark, core::mem::size_of::<RootSlot>() as u64, 0);
        if node != NONE_NODE {
            let mark = meter.mark();
            let mut steps = 0u64;
            while node != NONE_NODE {
                let n = &self.inner[node as usize];
                let slot = &self.slots[n.first_slot as usize + Self::chunk(dest, n.base, n.width)];
                meter.cost().trie_nodes += u64::from(slot.consumed);
                let r = slot.route_word & NO_ROUTE;
                if r != NO_ROUTE {
                    best = r;
                }
                node = slot.child;
                steps += 1;
            }
            let step_bytes =
                (core::mem::size_of::<InnerNode>() + core::mem::size_of::<InnerSlot>()) as u64;
            meter.stage(Stage::Inner, mark, steps * step_bytes, 0);
        }
        best
    }

    /// The continued walk, bit-for-bit the frozen engine's, on the
    /// retained binary nodes.
    #[inline(never)]
    fn walk_from<M: Meter>(&self, start: u32, depth: u8, dest: A, meter: &mut M) -> u32 {
        walk_from(&self.bin_nodes, start, depth, dest, meter)
    }
}

impl<A: Address> CompiledBackend<A> for StrideEngine<A> {
    const NAME: &'static str = "stride";

    type Config = StrideConfig;

    type Found = RouteFd;

    fn compile(engine: &ClueEngine<A>, config: &Self::Config) -> Result<Self, BackendError> {
        Ok(engine.freeze()?.compile_stride(*config)?)
    }

    /// Shares the router's root array, inner nodes and slots (they
    /// depend only on children and route indices) and its dictionary;
    /// expands no stride level. The link owns its binary nodes, which
    /// carry its Claim-1 bits, and its clue buckets.
    fn compile_link(router: &Self, engine: &ClueEngine<A>) -> Result<Self, BackendError> {
        let frozen = engine.freeze()?;
        frozen.check_link(&router.bin_nodes, &router.routes)?;
        Ok(StrideEngine {
            method: frozen.method(),
            config: router.config,
            root: Arc::clone(&router.root),
            inner: Arc::clone(&router.inner),
            slots: Arc::clone(&router.slots),
            bin_nodes: Arc::new(frozen.raw_nodes().to_vec()),
            routes: Arc::clone(&router.routes),
            buckets: Arc::new(ClueBuckets::build(&frozen)),
        })
    }

    fn shares_arena(&self, router: &Self) -> bool {
        Arc::ptr_eq(&self.root, &router.root)
            && Arc::ptr_eq(&self.inner, &router.inner)
            && Arc::ptr_eq(&self.slots, &router.slots)
            && Arc::ptr_eq(&self.routes, &router.routes)
    }

    fn claim_bytes(&self) -> u64 {
        core::mem::size_of_val(self.bin_nodes.as_slice()) as u64
    }

    fn method(&self) -> Method {
        self.method
    }

    /// Classifies the packet, computes the probe position its lookup
    /// will start from and prefetches that line: the root slot for a
    /// walk, the clue-bucket home for a probe.
    #[inline]
    fn prepare(&self, dest: A, clue: Option<Prefix<A>>) -> PreparedLookup {
        let op =
            PacketOp::decode(self.method, dest, clue, |len, bits| self.buckets.home(len, bits));
        match op {
            PacketOp::Walk(_) => prefetch_read(&self.root[self.root_index(dest)]),
            PacketOp::Probe { k, len } => self.buckets.prefetch(len, k),
        }
        PreparedLookup(op)
    }

    /// The frozen engine's flow with the stride structures underneath.
    /// The bucket probe still charges exactly one
    /// [`clue_trie::Cost::hash_probe`] — the paper's single mandatory
    /// table access; the accounting model does not change with the
    /// layout.
    #[inline]
    fn finish<M: Meter>(
        &self,
        op: PreparedLookup,
        dest: A,
        clue: Option<Prefix<A>>,
        meter: &mut M,
    ) -> (RouteFd, LookupClass) {
        match op.0 {
            PacketOp::Walk(class) => (RouteFd::walk(self.common_walk(dest, meter)), class),
            PacketOp::Probe { k, len } => {
                let s = clue.expect("a probe op is only decoded from a present clue");
                match self.buckets.probe(len, s.bits(), k, meter) {
                    Some(fd) => {
                        let cont = self.buckets.slots[fd as usize].cont;
                        if cont == FINAL_SLOT {
                            (RouteFd { route: NO_ROUTE, fd }, LookupClass::Final)
                        } else {
                            let route = self.walk_from(cont, len, dest, meter);
                            (RouteFd { route, fd }, LookupClass::Continued)
                        }
                    }
                    None => (RouteFd::walk(self.common_walk(dest, meter)), LookupClass::Miss),
                }
            }
        }
    }

    #[inline]
    fn found_prefix(&self, found: RouteFd, _dest: A) -> Option<Prefix<A>> {
        if found.route != NO_ROUTE {
            Some(self.routes[found.route as usize])
        } else if found.fd != NO_ROUTE {
            self.buckets.slots[found.fd as usize].fd()
        } else {
            None
        }
    }

    #[inline]
    fn found_tag(&self, found: RouteFd) -> u32 {
        if found.route != NO_ROUTE {
            found.route
        } else if found.fd != NO_ROUTE {
            self.buckets.fd_tags[found.fd as usize]
        } else {
            NO_TAG
        }
    }

    fn tag_prefixes(&self) -> &[Prefix<A>] {
        &self.routes
    }

    /// Resident bytes of every structure the hot paths touch: root
    /// array, inner nodes and slots, retained binary nodes, routes and
    /// the payload-inlined clue buckets.
    fn memory_bytes(&self) -> usize {
        (self.arena_bytes() + self.bucket_bytes() + self.dict_bytes()) as usize
    }

    /// Bytes of the walk structures alone: root array, inner
    /// nodes/slots and the retained binary tail.
    fn arena_bytes(&self) -> u64 {
        (core::mem::size_of_val(self.root.as_slice())
            + core::mem::size_of_val(self.inner.as_slice())
            + core::mem::size_of_val(self.slots.as_slice())
            + core::mem::size_of_val(self.bin_nodes.as_slice())) as u64
    }

    fn bucket_bytes(&self) -> u64 {
        self.buckets.bytes()
    }

    fn dict_bytes(&self) -> u64 {
        core::mem::size_of_val(self.routes.as_slice()) as u64
    }

    fn cram_levels(&self) -> Vec<CramLevel> {
        self.level_profile()
            .into_iter()
            .map(|(bytes, visits)| CramLevel { bytes, visits })
            .collect()
    }
}

// The Claim-1 bit must survive the recompilation untouched: assert the
// encoding the retained nodes rely on is the frozen one.
const _: () = assert!(CONT_BIT == 1 << 31);

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

    fn configs() -> [StrideConfig; 4] {
        [
            StrideConfig::default(),
            StrideConfig::new(8, 8),
            StrideConfig::new(16, 8),
            StrideConfig::new(5, 3),
        ]
    }

    fn check_parity(
        method: Method,
        config: StrideConfig,
        dest: Ip4,
        clue: Option<Prefix<Ip4>>,
    ) {
        let (sender, receiver) = tables();
        let mut scalar =
            ClueEngine::precomputed(&sender, &receiver, EngineConfig::new(Family::Regular, method));
        let frozen = scalar.freeze().unwrap();
        let stride = frozen.compile_stride(config).unwrap();
        let mut sc = Cost::new();
        let want = scalar.lookup(dest, clue, None, &mut sc);
        let d = stride.lookup_decision(dest, clue);
        assert_eq!(d.bmp, want, "{method} {config:?} bmp for {dest} clue {clue:?}");
        assert_eq!(d.cost, sc, "{method} {config:?} cost for {dest} clue {clue:?}");
        assert_eq!(d, frozen.lookup_decision(dest, clue), "stride == frozen decision");
    }

    #[test]
    fn parity_across_methods_classes_and_strides() {
        for method in [Method::Common, Method::Simple, Method::Advance] {
            for config in configs() {
                check_parity(method, config, a("10.1.2.3"), None); // clueless
                check_parity(method, config, a("10.1.2.3"), Some(p("10.1.0.0/16")));
                check_parity(method, config, a("10.1.99.1"), Some(p("10.1.0.0/16")));
                check_parity(method, config, a("192.168.3.4"), Some(p("192.168.0.0/16")));
                check_parity(method, config, a("10.9.9.9"), Some(p("10.0.0.0/8")));
                check_parity(method, config, a("10.1.2.3"), Some(p("192.168.0.0/16"))); // malformed
                check_parity(method, config, a("10.1.2.3"), Some(p("10.1.2.0/24"))); // miss
                check_parity(method, config, a("11.1.2.3"), None); // no route
            }
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
        let stride = StrideEngine::compile(&scalar, &StrideConfig::default()).unwrap();
        let dests = vec![a("10.1.2.3"), a("192.168.3.4"), a("10.1.2.3"), a("7.7.7.7")];
        let clues = vec![
            Some(p("10.1.0.0/16")),
            Some(p("192.168.0.0/16")),
            Some(p("192.168.0.0/16")), // malformed
            None,
        ];
        let mut want = vec![Decision::default(); dests.len()];
        let want_stats = stride.lookup_batch(&dests, &clues, &mut want);
        for group in [0, 1, 2, 3, 8, 64] {
            let mut out = vec![Decision::default(); dests.len()];
            let stats = stride.lookup_batch_interleaved(&dests, &clues, &mut out, group);
            assert_eq!(out, want, "group {group}");
            assert_eq!(stats, want_stats, "group {group}");
        }
        for (i, (&dest, &clue)) in dests.iter().zip(&clues).enumerate() {
            assert_eq!(want[i], stride.lookup_decision(dest, clue), "packet {i}");
        }
        assert_eq!(
            (want_stats.continued, want_stats.finals, want_stats.malformed, want_stats.clueless),
            (1, 1, 1, 1)
        );
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
            for config in configs() {
                let scalar = ClueEngine::precomputed(
                    &sender,
                    &receiver,
                    EngineConfig::new(Family::Regular, method),
                );
                let stride = StrideEngine::compile(&scalar, &config).unwrap();
                let mut meter = StageMeter::default();
                for &(dest, clue) in &cases {
                    meter.cost = Cost::new();
                    let got = stride.lookup(dest, clue, &mut meter);
                    let mut uc = Cost::new();
                    let want = stride.lookup(dest, clue, &mut uc);
                    assert_eq!(got, want, "{method} {config:?} {dest} {clue:?}");
                    assert_eq!(
                        meter.cost, uc,
                        "{method} {config:?} cost parity for {dest} {clue:?}"
                    );
                }
                let prof = &meter.profiler;
                assert_eq!(prof.lookups(), cases.len() as u64);
                let charged: u64 = cases
                    .iter()
                    .map(|&(dest, clue)| stride.lookup_decision(dest, clue).cost.total())
                    .sum();
                assert_eq!(
                    prof.total_ticks(),
                    charged,
                    "{method} {config:?} stage ticks must sum to cost"
                );
                assert!(prof.stage(Stage::Root).visits > 0);
                assert_eq!(
                    prof.stage(Stage::Cache).visits,
                    0,
                    "stride engines have no cache"
                );
            }
        }
    }

    #[test]
    fn compile_rejects_bad_strides() {
        let (sender, receiver) = tables();
        let scalar = ClueEngine::<Ip4>::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let frozen = scalar.freeze().unwrap();
        for bad in [0, 21, 32, 40] {
            assert_eq!(
                frozen.compile_stride(StrideConfig::new(bad, 8)).unwrap_err(),
                StrideError::InitialBits(bad)
            );
        }
        for bad in [0, 17] {
            assert_eq!(
                frozen.compile_stride(StrideConfig::new(13, bad)).unwrap_err(),
                StrideError::InnerBits(bad)
            );
        }
        assert!(StrideError::InitialBits(0).to_string().contains("initial stride"));
    }

    #[test]
    fn stride_layout_is_compact() {
        assert_eq!(core::mem::size_of::<RootSlot>(), 12);
        assert_eq!(core::mem::size_of::<InnerSlot>(), 12);
        assert_eq!(core::mem::size_of::<InnerNode>(), 8);
        let (sender, receiver) = tables();
        let scalar = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let stride = StrideEngine::compile(&scalar, &StrideConfig::new(8, 8)).unwrap();
        assert_eq!(stride.root.len(), 256);
        assert!(!stride.inner.is_empty());
        assert_eq!(stride.slots.len(), stride.inner.len() * 256);
        assert!(stride.memory_bytes() > 0);
        assert_eq!(stride.method(), Method::Advance);
        assert_eq!(stride.config(), StrideConfig::new(8, 8));
    }

    #[test]
    fn buckets_find_every_clue_and_only_clues() {
        let (sender, receiver) = tables();
        let scalar = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let frozen = scalar.freeze().unwrap();
        let stride = frozen.compile_stride(StrideConfig::default()).unwrap();
        let buckets = &stride.buckets;
        let get = |len: u8, bits: Ip4| {
            let k = buckets.home(len, bits);
            buckets.probe(len, bits, k, &mut Cost::new()).map(|i| i as usize)
        };
        for (clue, &i) in frozen.raw_map() {
            let entry = &frozen.raw_entries()[i as usize];
            let at = get(clue.len(), clue.bits())
                .unwrap_or_else(|| panic!("clue {clue} missing from its bucket"));
            let slot = &buckets.slots[at];
            assert_eq!(slot.key, clue.bits());
            assert_eq!(slot.fd(), entry.fd, "inlined FD diverges for {clue}");
            assert_eq!(buckets.fd_tags[at], entry.fd_tag, "FD tag diverges for {clue}");
            let want = if entry.cont == NONE_NODE { FINAL_SLOT } else { entry.cont };
            assert_eq!(slot.cont, want, "inlined continuation diverges for {clue}");
        }
        assert!(get(24, a("10.1.2.0")).is_none(), "receiver-only route is no clue");
        assert!(get(0, Ip4::ZERO).is_none(), "length-0 window is the empty sentinel");
        let mut cost = Cost::new();
        buckets.probe(24, a("10.1.2.0"), 0, &mut cost);
        assert_eq!(cost.total(), 1, "a probe is the paper's one access, hit or miss");
    }
}
