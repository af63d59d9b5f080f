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
//!   to [`Cost`]. The layout needs no BFS queue: within one depth,
//!   level order is lexicographic order, which is the order a
//!   pre-order walk meets the vertices. So the freeze sweeps the live
//!   trie once in pre-order, counting vertices and routes per depth,
//!   and places each vertex at its level's next free index on a second
//!   pass over that record. That sweep is the canonical freeze. Under
//!   churn the engine patches its previous snapshot instead, while
//!   that snapshot is alive: a route update touches only its prefix's
//!   root path, so the patch copies the rest of the array with shifted
//!   indices and re-reads only those paths and the rebuilt clue
//!   entries. Its result is bit-identical to the sweep's;
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

use std::collections::VecDeque;
use std::sync::{Arc, Weak};

use clue_telemetry::LookupClass;
use clue_trie::{Address, BinaryTrie, Cost, NodeId, Prefix};

use crate::backend::{
    trie_level_visits, BackendError, CompiledBackend, PacketOp, PreparedLookup, NO_TAG,
};
use crate::cram::CramLevel;
use crate::engine::{ClueEngine, Method};
use crate::fxhash::FxHashMap;
use crate::profile::{Meter, Stage};
use crate::table::{Continuation, TableKind};

/// “No child” sentinel in `FrozenNode::children`.
pub(crate) const NONE_NODE: u32 = u32::MAX;
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
    nodes: Arc<Vec<FrozenNode>>,
    /// Route prefixes referenced by the nodes' route words, then the
    /// FD-only tags; shared with the router's engine by
    /// [`CompiledBackend::compile_link`].
    routes: Arc<Vec<Prefix<A>>>,
    /// Clue-table entries, dense.
    entries: Arc<Vec<FrozenEntry<A>>>,
    /// Clue → entry index, one fast-hash probe per consult; shared by
    /// every snapshot patched from this one (a receiver update never
    /// changes the clue set).
    map: Arc<FxHashMap<Prefix<A>, u32>>,
}

impl<A: Address> ClueEngine<A> {
    /// Compiles this engine into a [`FrozenEngine`] snapshot.
    ///
    /// Supported configuration: [`clue_lookup::Family::Regular`] with a
    /// hashed clue table and no LRU cache — the paper's headline
    /// deployment.
    ///
    /// When the engine's last snapshot is still alive and only receiver
    /// routes changed since (a few, against the table's size), the new
    /// snapshot is that one patched; otherwise it is built from scratch.
    /// Either way the result is the same canonical freeze.
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
        let mut last = self.last_freeze();
        let frozen = match last.take().and_then(|base| self.patch(base)) {
            Some(frozen) => frozen,
            None => self.freeze_from_scratch()?,
        };
        *last = Some(PatchBase::new(&frozen));
        Ok(frozen)
    }

    /// The canonical freeze, built from the live trie and table alone:
    /// what a patched freeze must equal.
    fn freeze_from_scratch(&self) -> Result<FrozenEngine<A>, FreezeError> {
        let t2 = self.t2_ref();
        let bits = self.bits_bin_ref();

        // Breadth-first flattening: parents precede children, siblings
        // are adjacent, so a top-down walk streams forward through the
        // array. It needs no queue: BFS enqueues children left before
        // right, so within one depth level order is lexicographic
        // order — the order a pre-order walk meets them.
        // One pre-order sweep records each vertex with its depth (its
        // string's length) and counts vertices and marked vertices per
        // depth; the prefix sums are each level's first node and route
        // index.
        let levels = A::BITS as usize + 1;
        let mut preorder = Vec::with_capacity(t2.arena_len());
        // One spare level: the deepest vertices read the next level's
        // start for their (absent) children.
        let mut level_nodes = vec![0u32; levels + 1];
        let mut level_routes = vec![0u32; levels];
        t2.walk_subtree(t2.root(), |id| {
            let depth = t2.node_prefix(id).len();
            preorder.push((id, depth));
            level_nodes[depth as usize] += 1;
            level_routes[depth as usize] += u32::from(t2.route_at(id).is_some());
            true
        });
        let mut next_node = level_starts(&level_nodes);
        let mut next_route = level_starts(&level_routes);
        let route_count = level_routes.iter().sum::<u32>();
        assert!(route_count < NO_ROUTE, "route count fits 31 bits");

        // Second pass, same order: a vertex takes its level's next index,
        // and its children the next ones of the level below — every
        // vertex placed there so far sorts before them. Remember old
        // arena slot → new index (a dense array over the arena, dead
        // slots left at NONE_NODE) to translate the table's continuation
        // pointers.
        let vacant = FrozenNode { children: [NONE_NODE; 2], route_word: NO_ROUTE };
        let mut nodes = vec![vacant; preorder.len()];
        let mut routes = vec![Prefix::ROOT; route_count as usize];
        let mut old_to_new = vec![NONE_NODE; t2.arena_len()];
        for &(id, depth) in &preorder {
            let d = depth as usize;
            let at = next_node[d];
            next_node[d] += 1;
            old_to_new[id.index()] = at;
            let route = match t2.route_at(id) {
                Some(r) => {
                    let i = next_route[d];
                    next_route[d] += 1;
                    routes[i as usize] = t2.prefix(r);
                    i
                }
                None => NO_ROUTE,
            };
            let cont = continues(bits, id);
            let children = child_slots(t2.children(id).map(|c| c.is_some()), next_node[d + 1]);
            nodes[at as usize] =
                FrozenNode { children, route_word: route | if cont { CONT_BIT } else { 0 } };
        }

        // Canonical entry order: the hashed clue table iterates in hash
        // order, which varies with insertion history. Sorting by clue
        // makes freezing a pure function of the engine's *logical*
        // state, so two engines that agree route-for-route freeze into
        // bit-identical snapshots — the contract `bit_identical` (and
        // `clue churn --check`) is built on. Clues are unique keys, so
        // an unstable sort gives that same order.
        let mut table_entries: Vec<_> = self.table().entries().map(|e| (e.clue, e)).collect();
        table_entries.sort_unstable_by_key(|&(clue, _)| clue);

        // Dense tag dictionary: a route word's low bits already index
        // `routes`, so those indices double as tags; FD prefixes that
        // are not route-marked vertices get fresh tags appended in
        // canonical (sorted-clue) order. Every payload a compiled
        // lookup can resolve to thus has exactly one dense `u32` tag —
        // the basis of `found_tag` on all compiled backends.
        let mut tag_of: FxHashMap<Prefix<A>, u32> =
            FxHashMap::with_capacity_and_hasher(routes.len(), Default::default());
        tag_of.extend(routes.iter().enumerate().map(|(i, p)| (*p, i as u32)));

        let mut entries = Vec::with_capacity(table_entries.len());
        let mut map = FxHashMap::with_capacity_and_hasher(table_entries.len(), Default::default());
        for (clue, e) in table_entries {
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
            map.insert(clue, i);
        }

        Ok(FrozenEngine {
            method: self.config().method,
            nodes: Arc::new(nodes),
            routes: Arc::new(routes),
            entries: Arc::new(entries),
            map: Arc::new(map),
        })
    }

    /// The snapshot `base` points at, patched with the receiver changes
    /// recorded since; `None` when that snapshot is gone (every copy
    /// dropped) or has FD-only tags, or an entry cannot be placed, so
    /// the from-scratch freeze runs instead.
    ///
    /// A route update changes children, route marks and Claim-1 bits
    /// only on the changed prefix's root path, and adds or prunes
    /// vertices only there ([`ClueEngine::add_receiver_route`] refreshes
    /// the bits on the same fact). Walking the base layout and the live
    /// trie side by side down each changed prefix finds the base
    /// vertices to re-read. One pass over the base then emits the new
    /// layout in breadth-first order: the runs between path vertices
    /// are copied with shifted indices, path vertices are re-read from
    /// the live trie, and a vertex the base lacks is queued, when its
    /// parent is emitted, before the base index where its level's order
    /// puts it. The clue set is unchanged, so the map is shared; every
    /// entry is remapped through the old-to-new indices, and the
    /// entries the updates rebuilt are re-read from the live table.
    fn patch(&self, mut base: PatchBase<A>) -> Option<FrozenEngine<A>> {
        let old_nodes = base.nodes.upgrade()?;
        let old_routes = base.routes.upgrade()?;
        let old_entries = base.entries.upgrade()?;
        let map = base.map.upgrade()?;
        let t2 = self.t2_ref();

        // Base vertices on a changed prefix's path, each with the live
        // vertex of the same string (`None`: pruned since), by index.
        let mut path: Vec<(u32, Option<NodeId>)> = Vec::new();
        for p in &base.changed {
            let (mut at, mut live) = (0u32, Some(t2.root()));
            path.push((at, live));
            for d in 0..p.len() {
                let side = usize::from(p.bit(d));
                at = old_nodes[at as usize].children[side];
                if at == NONE_NODE {
                    break;
                }
                live = live.and_then(|v| t2.children(v)[side]);
                path.push((at, live));
            }
        }
        path.sort_unstable_by_key(|&(at, _)| at);
        path.dedup_by_key(|&mut (at, _)| at);
        let mut path = path.into_iter().peekable();

        let mut out = Layout {
            t2,
            bits: self.bits_bin_ref(),
            old_routes: &old_routes,
            nodes: Vec::with_capacity(old_nodes.len() + 2 * base.changed.len()),
            routes: Vec::with_capacity(old_routes.len() + base.changed.len()),
            next_child: 1,
            old_child: 1,
            old_marked: 0,
            node_to_new: Vec::with_capacity(old_nodes.len()),
            route_to_new: Vec::with_capacity(old_routes.len()),
            fresh: VecDeque::new(),
        };
        let mut i = 0;
        loop {
            // Copy up to the next path vertex or queued vertex, then
            // emit that one.
            let stop = path.peek().map_or(old_nodes.len(), |&(at, _)| at as usize);
            let stop = out.fresh.front().map_or(stop, |&(before, _)| stop.min(before as usize));
            out.copy(&old_nodes[i..stop]);
            i = stop;
            if let Some(&(before, id)) = out.fresh.front() {
                if before as usize == i {
                    out.fresh.pop_front();
                    out.push_live(id, [false; 2]);
                    continue;
                }
            }
            let Some((_, live)) = path.next() else { break };
            let node = &old_nodes[i];
            let kids = node.children.map(|c| c != NONE_NODE);
            let at = live.map_or(NONE_NODE, |id| out.push_live(id, kids));
            out.node_to_new.push(at);
            if node.route_word & NO_ROUTE != NO_ROUTE {
                let route = match at {
                    NONE_NODE => NO_ROUTE,
                    at => out.nodes[at as usize].route_word & NO_ROUTE,
                };
                out.route_to_new.push(route);
                out.old_marked += 1;
            }
            out.old_child += u32::from(kids[0]) + u32::from(kids[1]);
            i += 1;
        }
        debug_assert_eq!(out.next_child as usize, out.nodes.len(), "every child placed");
        // The base's vertex routes fall short of its tags: FD-only ones.
        if out.old_marked != old_routes.len() {
            return None;
        }
        let Layout { nodes, routes, node_to_new, route_to_new, .. } = out;

        let mut entries: Vec<FrozenEntry<A>> = old_entries
            .iter()
            .map(|e| FrozenEntry {
                fd: e.fd,
                cont: if e.cont == NONE_NODE { NONE_NODE } else { node_to_new[e.cont as usize] },
                fd_tag: if e.fd_tag == NO_ROUTE { NO_ROUTE } else { route_to_new[e.fd_tag as usize] },
            })
            .collect();
        base.clues.sort_unstable();
        base.clues.dedup();
        let mut uncounted = Cost::new();
        for clue in &base.clues {
            let e = self.table().get(clue, None, &mut uncounted)?;
            let cont = match &e.cont {
                None => NONE_NODE,
                Some(Continuation::TrieNode(_)) => vertex_at(&nodes, clue),
                Some(_) => return None,
            };
            // An FD that is no route-marked vertex needs an FD-only tag.
            let fd_tag = match e.fd {
                None => NO_ROUTE,
                Some(fd) => match vertex_at(&nodes, &fd) {
                    NONE_NODE => return None,
                    v => match nodes[v as usize].route_word & NO_ROUTE {
                        NO_ROUTE => return None,
                        tag => tag,
                    },
                },
            };
            entries[*map.get(clue)? as usize] = FrozenEntry { fd: e.fd, cont, fd_tag };
        }

        Some(FrozenEngine {
            method: self.config().method,
            nodes: Arc::new(nodes),
            routes: Arc::new(routes),
            entries: Arc::new(entries),
            map,
        })
    }
}

/// Past one change record per this many vertices of the last snapshot
/// (with a floor of [`PATCH_FLOOR`]), re-walking every changed path
/// costs about as much as a fresh freeze, so the engine stops recording
/// and the next freeze starts from scratch.
const PATCH_SHARE: usize = 16;
/// The change records any table may patch, however small.
const PATCH_FLOOR: usize = 64;

/// A [`ClueEngine`]'s last snapshot and the receiver changes made
/// since: what lets [`ClueEngine::freeze`] patch that snapshot instead
/// of rebuilding it. The arrays are held weakly, so the engine never
/// keeps a snapshot alive; once every copy is dropped the next freeze
/// starts from scratch.
#[derive(Debug)]
pub(crate) struct PatchBase<A: Address> {
    nodes: Weak<Vec<FrozenNode>>,
    routes: Weak<Vec<Prefix<A>>>,
    entries: Weak<Vec<FrozenEntry<A>>>,
    map: Weak<FxHashMap<Prefix<A>, u32>>,
    /// Receiver prefixes announced or withdrawn since.
    changed: Vec<Prefix<A>>,
    /// Clues whose entries those updates rebuilt.
    clues: Vec<Prefix<A>>,
    /// Records (changed prefixes plus clues) a patch may take.
    limit: usize,
}

impl<A: Address> PatchBase<A> {
    fn new(frozen: &FrozenEngine<A>) -> Self {
        PatchBase {
            nodes: Arc::downgrade(&frozen.nodes),
            routes: Arc::downgrade(&frozen.routes),
            entries: Arc::downgrade(&frozen.entries),
            map: Arc::downgrade(&frozen.map),
            changed: Vec::new(),
            clues: Vec::new(),
            limit: PATCH_FLOOR.max(frozen.nodes.len() / PATCH_SHARE),
        }
    }

    /// Records a receiver update at `prefix` that rebuilt the entries
    /// of `clues`. Returns `false` once the updates outgrow a patch.
    pub(crate) fn note(&mut self, prefix: Prefix<A>, clues: impl Iterator<Item = Prefix<A>>) -> bool {
        self.changed.push(prefix);
        self.clues.extend(clues);
        self.changed.len() + self.clues.len() <= self.limit
    }
}

/// A breadth-first layout being emitted vertex by vertex from a base
/// layout and the live trie, with a cursor into each.
struct Layout<'t, A: Address> {
    t2: &'t BinaryTrie<A, ()>,
    bits: Option<&'t [bool]>,
    old_routes: &'t [Prefix<A>],
    nodes: Vec<FrozenNode>,
    routes: Vec<Prefix<A>>,
    /// Where the next emitted vertex's first child goes.
    next_child: u32,
    /// The base index of the next base vertex's first child.
    old_child: u32,
    /// The base's route-marked vertices passed so far.
    old_marked: usize,
    /// Each base vertex's new index ([`NONE_NODE`] once pruned), and
    /// each base vertex route's new index ([`NO_ROUTE`] once withdrawn).
    node_to_new: Vec<u32>,
    route_to_new: Vec<u32>,
    /// Live vertices the base lacks, each with the base index it goes
    /// before, in emission order.
    fresh: VecDeque<(u32, NodeId)>,
}

impl<A: Address> Layout<'_, A> {
    /// Copies a run of base vertices whose children, routes and bits
    /// are unchanged. Their children and routes are contiguous in both
    /// layouts, so each index shifts by one constant for the whole run.
    fn copy(&mut self, run: &[FrozenNode]) {
        let child_shift = self.next_child.wrapping_sub(self.old_child);
        let route_shift = (self.routes.len() as u32).wrapping_sub(self.old_marked as u32);
        let (mut kids, mut marked) = (0u32, 0u32);
        let first = self.nodes.len() as u32;
        self.nodes.extend(run.iter().map(|n| {
            let route = n.route_word & NO_ROUTE;
            kids += u32::from(n.children[0] != NONE_NODE) + u32::from(n.children[1] != NONE_NODE);
            marked += u32::from(route != NO_ROUTE);
            let route = if route == NO_ROUTE { NO_ROUTE } else { route.wrapping_add(route_shift) };
            FrozenNode {
                children: n.children.map(|c| if c == NONE_NODE { c } else { c.wrapping_add(child_shift) }),
                route_word: route | (n.route_word & CONT_BIT),
            }
        }));
        self.node_to_new.extend(first..first + run.len() as u32);
        let new_route = self.routes.len() as u32;
        let old_routes = &self.old_routes[self.old_marked..self.old_marked + marked as usize];
        self.routes.extend_from_slice(old_routes);
        self.route_to_new.extend(new_route..new_route + marked);
        self.old_marked += marked as usize;
        self.old_child += kids;
        self.next_child += kids;
    }

    /// Appends live vertex `id` and queues its children that the base
    /// lacks (`base_kids` marks the ones it has) before the base index
    /// they take; returns the vertex's index.
    fn push_live(&mut self, id: NodeId, base_kids: [bool; 2]) -> u32 {
        let (t2, bits) = (self.t2, self.bits);
        let kids = t2.children(id);
        for (side, kid) in kids.into_iter().enumerate() {
            if let (Some(kid), false) = (kid, base_kids[side]) {
                let before = self.old_child + u32::from(side == 1 && base_kids[0]);
                self.fresh.push_back((before, kid));
            }
        }
        let at = u32::try_from(self.nodes.len()).expect("trie fits u32");
        let children = child_slots(kids.map(|k| k.is_some()), self.next_child);
        self.next_child += kids.iter().flatten().count() as u32;
        let route = match t2.route_at(id) {
            Some(r) => {
                self.routes.push(t2.prefix(r));
                self.routes.len() as u32 - 1
            }
            None => NO_ROUTE,
        };
        let cont = continues(bits, id);
        self.nodes.push(FrozenNode { children, route_word: route | if cont { CONT_BIT } else { 0 } });
        at
    }
}

/// The Claim-1 continue bit of live vertex `id`. With no bits
/// (Simple, or Advance without them) the scalar continuation is
/// `lookup_from`, which walks while children exist — exactly an
/// always-set continue bit.
fn continues(bits: Option<&[bool]>, id: NodeId) -> bool {
    bits.is_none_or(|b| b.get(id.index()).copied().unwrap_or(false))
}

/// The child slots of a vertex whose children (present where `kids`
/// says) take the breadth-first indices from `first` on.
fn child_slots(kids: [bool; 2], first: u32) -> [u32; 2] {
    [
        if kids[0] { first } else { NONE_NODE },
        if kids[1] { first + u32::from(kids[0]) } else { NONE_NODE },
    ]
}

/// The index of `p`'s vertex in a breadth-first layout, or
/// [`NONE_NODE`] if the layout has no such vertex.
fn vertex_at<A: Address>(nodes: &[FrozenNode], p: &Prefix<A>) -> u32 {
    (0..p.len())
        .try_fold(0u32, |at, d| {
            let c = nodes[at as usize].children[usize::from(p.bit(d))];
            (c != NONE_NODE).then_some(c)
        })
        .unwrap_or(NONE_NODE)
}

/// Exclusive prefix sums of per-level counts: the first index of each
/// level in a breadth-first array.
fn level_starts(counts: &[u32]) -> Vec<u32> {
    counts
        .iter()
        .scan(0u32, |next, &n| {
            let start = *next;
            *next += n;
            Some(start)
        })
        .collect()
}

impl<A: Address> FrozenEngine<A> {
    /// Number of flattened trie vertices.
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
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
pub(crate) mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use clue_lookup::Family;
    use clue_trie::{Ip4, Ip6};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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
        let mut batch = vec![Decision::default(); dests.len()];
        let stats = frozen.lookup_batch(&dests, &clues, &mut batch);
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
        assert_eq!(frozen.entries.len(), sender.len());
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

    /// The breadth-first layout as a queue-driven walk computes it —
    /// an oracle independent of the pre-order sweep in
    /// [`ClueEngine::freeze`]: BFS node order, route indices in node
    /// order, entries stably sorted by clue, un-reserved maps.
    fn reference_freeze<A: Address>(engine: &ClueEngine<A>) -> FrozenEngine<A> {
        let t2 = engine.t2_ref();
        let bits = engine.bits_bin_ref();
        let mut order = vec![t2.root()];
        let mut old_to_new = vec![NONE_NODE; t2.arena_len()];
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
        let mut nodes = Vec::new();
        let mut routes = Vec::new();
        for &id in &order {
            let route = match t2.route_at(id) {
                Some(r) => {
                    routes.push(t2.prefix(r));
                    routes.len() as u32 - 1
                }
                None => NO_ROUTE,
            };
            let cont = bits.is_none_or(|b| b.get(id.index()).copied().unwrap_or(false));
            let children = t2.children(id).map(|c| c.map_or(NONE_NODE, |c| old_to_new[c.index()]));
            nodes.push(FrozenNode {
                children,
                route_word: route | if cont { CONT_BIT } else { 0 },
            });
        }
        let mut table_entries: Vec<_> = engine.table().entries().collect();
        table_entries.sort_by_key(|e| e.clue);
        let mut tag_of: FxHashMap<Prefix<A>, u32> =
            routes.iter().enumerate().map(|(i, p)| (*p, i as u32)).collect();
        let mut entries = Vec::new();
        let mut map = FxHashMap::default();
        for e in table_entries {
            let cont = match &e.cont {
                None => NONE_NODE,
                Some(Continuation::TrieNode(n)) => old_to_new[n.index()],
                Some(_) => unreachable!("Regular entries continue at trie nodes"),
            };
            let fd_tag = e.fd.map_or(NO_ROUTE, |p| {
                *tag_of.entry(p).or_insert_with(|| {
                    routes.push(p);
                    routes.len() as u32 - 1
                })
            });
            map.insert(e.clue, entries.len() as u32);
            entries.push(FrozenEntry { fd: e.fd, cont, fd_tag });
        }
        FrozenEngine {
            method: engine.config().method,
            nodes: Arc::new(nodes),
            routes: Arc::new(routes),
            entries: Arc::new(entries),
            map: Arc::new(map),
        }
    }

    /// The sweep's layout equals the oracle's node for node, route for
    /// route and entry for entry, and is a level order: children after
    /// their parent, siblings adjacent, depth never decreasing.
    fn check_layout<A: Address>(engine: &ClueEngine<A>) -> Result<(), TestCaseError> {
        let got = engine.freeze().unwrap();
        let want = reference_freeze(engine);
        prop_assert_eq!(&got.nodes, &want.nodes);
        prop_assert_eq!(&got.routes, &want.routes);
        prop_assert_eq!(&got.entries, &want.entries);
        prop_assert!(got.bit_identical(&want));
        let mut depth = vec![0u32; got.nodes.len()];
        for (i, n) in got.nodes.iter().enumerate() {
            for &c in n.children.iter().filter(|&&c| c != NONE_NODE) {
                prop_assert!(c as usize > i, "child {} not after parent {}", c, i);
                depth[c as usize] = depth[i] + 1;
            }
            if n.children.iter().all(|&c| c != NONE_NODE) {
                prop_assert_eq!(n.children[1], n.children[0] + 1, "siblings of {}", i);
            }
        }
        prop_assert!(depth.windows(2).all(|w| w[0] <= w[1]), "depth decreases");
        Ok(())
    }

    /// Nested prefix shapes: bits repeated at three offsets so short and
    /// long prefixes share ancestors. At IPv6 they sit in the top 32
    /// bits, with the shape again at bit 40 for lengths beyond 87;
    /// `Ip4::from_u128` truncates that copy away.
    pub(crate) fn shaped<A: Address>(shape: u32, len: u8) -> Prefix<A> {
        let bits = u128::from(shape << 27 | shape << 16 | shape << 4) << (A::BITS - 32);
        Prefix::new(A::from_u128(bits | u128::from(shape) << 40), len.min(A::BITS))
    }

    pub(crate) fn arb_shapes() -> impl Strategy<Value = Vec<(u32, u8)>> {
        let lens = prop_oneof![Just(6u8), Just(8), Just(12), Just(16), Just(24), Just(32), Just(64)];
        proptest::collection::vec((0u32..32, lens), 1..40)
    }

    /// Freeze-vs-oracle before and after an update stream of announces,
    /// withdraws (pruning frees arena slots) and modifies — later
    /// announces recycle those slots, so arena order stops being
    /// pre-order.
    fn check_sweep<A: Address>(
        sender: &[(u32, u8)],
        receiver: &[(u32, u8)],
        ops: &[(u8, u32, u8)],
    ) -> Result<(), TestCaseError> {
        let sender: Vec<Prefix<A>> = sender.iter().map(|&(s, l)| shaped(s, l)).collect();
        let receiver: BTreeSet<Prefix<A>> = receiver.iter().map(|&(s, l)| shaped(s, l)).collect();
        let receiver: Vec<_> = receiver.into_iter().collect();
        for method in [Method::Common, Method::Simple, Method::Advance] {
            let config = EngineConfig::new(Family::Regular, method);
            let mut engine = ClueEngine::precomputed(&sender, &receiver, config);
            check_layout(&engine)?;
            let mut live: BTreeSet<Prefix<A>> = receiver.iter().copied().collect();
            for &(kind, k, len) in ops {
                let pick = (!live.is_empty()).then(|| live.iter().nth(k as usize % live.len()));
                match (kind % 4, pick.flatten().copied()) {
                    (1, Some(victim)) => {
                        prop_assert!(engine.remove_receiver_route(&victim));
                        live.remove(&victim);
                    }
                    (2, Some(victim)) => {
                        prop_assert!(engine.remove_receiver_route(&victim));
                        engine.add_receiver_route(victim);
                    }
                    (3, _) => engine.add_sender_prefix(shaped(k % 32, len)),
                    _ => {
                        let p = shaped(k % 32, len);
                        engine.add_receiver_route(p);
                        live.insert(p);
                    }
                }
            }
            check_layout(&engine)?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn sweep_layout_matches_bfs_oracle_ip4(
            sender in arb_shapes(),
            receiver in arb_shapes(),
            ops in proptest::collection::vec((any::<u8>(), any::<u32>(), 6u8..40), 0..40),
        ) {
            check_sweep::<Ip4>(&sender, &receiver, &ops)?;
        }

        #[test]
        fn sweep_layout_matches_bfs_oracle_ip6(
            sender in arb_shapes(),
            receiver in arb_shapes(),
            ops in proptest::collection::vec((any::<u8>(), any::<u32>(), 6u8..129), 0..40),
        ) {
            check_sweep::<Ip6>(&sender, &receiver, &ops)?;
        }
    }

    /// A freeze patches the last snapshot while it is alive and only
    /// receiver routes changed (the patched one shares its clue map),
    /// and starts from scratch after a sender change or once every copy
    /// of that snapshot is dropped; each result equals a fresh freeze.
    #[test]
    fn freeze_patches_the_live_snapshot_and_falls_back_otherwise() {
        let (sender, receiver) = tables();
        let config = EngineConfig::new(Family::Regular, Method::Advance);
        let mut engine = ClueEngine::precomputed(&sender, &receiver, config);
        let fresh = |engine: &ClueEngine<Ip4>| {
            let receiver: Vec<_> = engine.t2_ref().prefixes().collect();
            ClueEngine::precomputed(&sender, &receiver, config).freeze().unwrap()
        };
        let first = engine.freeze().unwrap();
        engine.add_receiver_route(p("10.1.2.128/25"));
        engine.remove_receiver_route(&p("10.2.0.0/16"));
        engine.add_receiver_route(p("172.16.0.0/12"));
        let patched = engine.freeze().unwrap();
        assert!(Arc::ptr_eq(&first.map, &patched.map), "patched from the live snapshot");
        assert!(patched.bit_identical(&fresh(&engine)));
        assert!(!patched.bit_identical(&first));

        let again = engine.freeze().unwrap();
        assert!(Arc::ptr_eq(&patched.map, &again.map), "no updates: still a patch");
        assert!(again.bit_identical(&patched));

        engine.add_sender_prefix(p("10.2.0.0/16"));
        let rebuilt = engine.freeze().unwrap();
        assert!(!Arc::ptr_eq(&again.map, &rebuilt.map), "a sender change forces a rebuild");

        drop(rebuilt);
        engine.remove_receiver_route(&p("10.1.2.128/25"));
        let orphan = engine.freeze().unwrap();
        assert!(!Arc::ptr_eq(&again.map, &orphan.map));
        let senders: Vec<_> = sender.iter().copied().chain([p("10.2.0.0/16")]).collect();
        let receivers: Vec<_> = engine.t2_ref().prefixes().collect();
        let want = ClueEngine::precomputed(&senders, &receivers, config).freeze().unwrap();
        assert!(orphan.bit_identical(&want), "a dropped base freezes from scratch");
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
