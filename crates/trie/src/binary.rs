//! The binary (1-bit) trie over prefixes — the paper's `t1`/`t2` model.
//!
//! Every vertex represents the binary string spelled by the path from the
//! root (left edge = 0, right edge = 1). Vertices that carry a forwarding
//! entry are *marked*; unmarked vertices with no marked descendants are
//! pruned, so every leaf is marked (Section 3.1 of the paper).
//!
//! The trie is arena-allocated (`Vec` of nodes addressed by [`NodeId`]) and
//! stores parent links, so both the downward walks used by lookups and the
//! upward walks used by least-marked-ancestor queries are cheap.
//!
//! The bit-by-bit walk of this structure **is** the paper's “Regular”
//! baseline; each vertex visited costs one memory access.

use std::collections::HashMap;
use std::num::NonZeroU32;

use crate::addr::Address;
use crate::cost::Cost;
use crate::prefix::Prefix;

/// Identifier of a trie vertex. Stable for the lifetime of the vertex
/// (slots are recycled through a free list only after removal).
///
/// Stored as arena index + 1 in a [`NonZeroU32`], so `Option<NodeId>`
/// is 4 bytes: the arena node's four vertex links stay one word each.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(NonZeroU32);

/// Identifier of a route (a marked prefix and its payload). Stable across
/// unrelated insertions and removals; reused only if the same prefix is
/// re-inserted after removal freed its slot. Stored as index + 1, like
/// [`NodeId`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RouteId(NonZeroU32);

/// Index + 1 as a non-zero word; `what` names the arena that overflowed.
fn one_based(index: usize, what: &str) -> NonZeroU32 {
    u32::try_from(index + 1).ok().and_then(NonZeroU32::new).expect(what)
}

impl NodeId {
    fn from_index(index: usize) -> Self {
        NodeId(one_based(index, "trie too large"))
    }

    /// The arena index (useful for building per-node side tables).
    pub fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

impl RouteId {
    fn from_index(index: usize) -> Self {
        RouteId(one_based(index, "too many routes"))
    }

    /// The arena index (useful for building per-route side tables).
    pub(crate) fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

#[derive(Debug, Clone)]
struct Node<A: Address> {
    prefix: Prefix<A>,
    parent: Option<NodeId>,
    children: [Option<NodeId>; 2],
    route: Option<RouteId>,
    /// Slot-recycling chain; `Some` only for freed slots.
    next_free: Option<NodeId>,
    alive: bool,
}

#[derive(Debug, Clone)]
struct RouteSlot<A: Address, T> {
    prefix: Prefix<A>,
    value: Option<T>,
    node: NodeId,
}

/// A binary trie mapping [`Prefix`]es to route payloads `T`.
///
/// ```
/// use clue_trie::{BinaryTrie, Cost, Ip4, Prefix};
///
/// let mut t: BinaryTrie<Ip4, &str> = BinaryTrie::new();
/// t.insert("10.0.0.0/8".parse().unwrap(), "coarse");
/// t.insert("10.1.0.0/16".parse().unwrap(), "fine");
///
/// let mut cost = Cost::new();
/// let hit = t.lookup_counted("10.1.2.3".parse().unwrap(), &mut cost).unwrap();
/// assert_eq!(*t.value(hit), "fine");
/// assert!(cost.trie_nodes >= 16); // bit-by-bit walk
/// ```
#[derive(Debug, Clone)]
pub struct BinaryTrie<A: Address, T> {
    nodes: Vec<Node<A>>,
    routes: Vec<RouteSlot<A, T>>,
    free_nodes: Option<NodeId>,
    free_routes: Vec<RouteId>,
    route_count: usize,
    /// Prefix → RouteId for O(1) exact-prefix queries.
    by_prefix: HashMap<Prefix<A>, RouteId>,
}

impl<A: Address, T> Default for BinaryTrie<A, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Address, T> BinaryTrie<A, T> {
    /// Creates an empty trie (just the unmarked root vertex).
    pub fn new() -> Self {
        BinaryTrie {
            nodes: vec![Node {
                prefix: Prefix::ROOT,
                parent: None,
                children: [None, None],
                route: None,
                next_free: None,
                alive: true,
            }],
            routes: Vec::new(),
            free_nodes: None,
            free_routes: Vec::new(),
            route_count: 0,
            by_prefix: HashMap::new(),
        }
    }

    /// The root vertex (the empty prefix).
    pub fn root(&self) -> NodeId {
        NodeId::from_index(0)
    }

    /// Number of routes (marked prefixes) stored.
    pub fn len(&self) -> usize {
        self.route_count
    }

    /// `true` iff no routes are stored.
    pub fn is_empty(&self) -> bool {
        self.route_count == 0
    }

    /// Number of live vertices, including the root.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Arena slots allocated (alive or dead), in O(1) — the
    /// denominator for mean-bytes-per-vertex accounting on hot paths,
    /// where [`Self::node_count`]'s full arena walk would dominate the
    /// very lookups being measured.
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    fn node(&self, id: NodeId) -> &Node<A> {
        let n = &self.nodes[id.index()];
        debug_assert!(n.alive, "dangling NodeId {id:?}");
        n
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node<A> {
        let n = &mut self.nodes[id.index()];
        debug_assert!(n.alive, "dangling NodeId {id:?}");
        n
    }

    fn alloc_node(&mut self, prefix: Prefix<A>, parent: NodeId) -> NodeId {
        let fresh = Node {
            prefix,
            parent: Some(parent),
            children: [None, None],
            route: None,
            next_free: None,
            alive: true,
        };
        match self.free_nodes {
            Some(id) => {
                self.free_nodes = self.nodes[id.index()].next_free;
                self.nodes[id.index()] = fresh;
                id
            }
            None => {
                let id = NodeId::from_index(self.nodes.len());
                self.nodes.push(fresh);
                id
            }
        }
    }

    fn free_node(&mut self, id: NodeId) {
        let n = &mut self.nodes[id.index()];
        n.alive = false;
        n.children = [None, None];
        n.route = None;
        n.next_free = self.free_nodes;
        self.free_nodes = Some(id);
    }

    /// Inserts (or replaces) a route. Returns its [`RouteId`] and, when the
    /// prefix was already present, the previous payload.
    pub fn insert(&mut self, prefix: Prefix<A>, value: T) -> (RouteId, Option<T>) {
        // Descend, creating vertices as needed.
        let mut cur = self.root();
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            cur = match self.node(cur).children[b] {
                Some(c) => c,
                None => {
                    let child_prefix = self.node(cur).prefix.child(prefix.bit(i));
                    let c = self.alloc_node(child_prefix, cur);
                    self.node_mut(cur).children[b] = Some(c);
                    c
                }
            };
        }
        if let Some(rid) = self.node(cur).route {
            let old = self.routes[rid.index()].value.replace(value);
            return (rid, old);
        }
        let rid = match self.free_routes.pop() {
            Some(rid) => {
                self.routes[rid.index()] =
                    RouteSlot { prefix, value: Some(value), node: cur };
                rid
            }
            None => {
                let rid = RouteId::from_index(self.routes.len());
                self.routes.push(RouteSlot { prefix, value: Some(value), node: cur });
                rid
            }
        };
        self.node_mut(cur).route = Some(rid);
        self.by_prefix.insert(prefix, rid);
        self.route_count += 1;
        (rid, None)
    }

    /// Removes a route, pruning any unmarked vertices left without marked
    /// descendants. Returns the payload if the prefix was present.
    pub fn remove(&mut self, prefix: &Prefix<A>) -> Option<T> {
        let rid = self.by_prefix.remove(prefix)?;
        let node = self.routes[rid.index()].node;
        let value = self.routes[rid.index()].value.take();
        self.free_routes.push(rid);
        self.node_mut(node).route = None;
        self.route_count -= 1;

        // Prune upward: drop unmarked childless vertices (except the root).
        let mut cur = node;
        while cur != self.root() {
            let n = self.node(cur);
            if n.route.is_some() || n.children[0].is_some() || n.children[1].is_some() {
                break;
            }
            let parent = n.parent.expect("non-root vertex has a parent");
            let side = n.prefix.last_bit().expect("non-root vertex has a last bit") as usize;
            self.node_mut(parent).children[side] = None;
            self.free_node(cur);
            cur = parent;
        }
        value
    }

    /// The route stored exactly at `prefix`, if any.
    pub fn get(&self, prefix: &Prefix<A>) -> Option<RouteId> {
        self.by_prefix.get(prefix).copied()
    }

    /// The prefix of a route.
    ///
    /// # Panics
    /// Panics if `rid` does not refer to a live route.
    pub fn prefix(&self, rid: RouteId) -> Prefix<A> {
        let slot = &self.routes[rid.index()];
        assert!(slot.value.is_some(), "dangling RouteId {rid:?}");
        slot.prefix
    }

    /// The payload of a route.
    ///
    /// # Panics
    /// Panics if `rid` does not refer to a live route.
    pub fn value(&self, rid: RouteId) -> &T {
        self.routes[rid.index()]
            .value
            .as_ref()
            .expect("dangling RouteId")
    }

    /// Mutable payload access.
    pub fn value_mut(&mut self, rid: RouteId) -> &mut T {
        self.routes[rid.index()]
            .value
            .as_mut()
            .expect("dangling RouteId")
    }

    /// The vertex representing `prefix`, if that string lies in the trie.
    ///
    /// This is the test “vertex `s` exists in the trie of R2” from the
    /// paper's Case 1. It costs nothing (pre-processing only); counted
    /// variants live on the lookup paths.
    pub fn node_of_prefix(&self, prefix: &Prefix<A>) -> Option<NodeId> {
        let mut cur = self.root();
        for i in 0..prefix.len() {
            cur = self.node(cur).children[prefix.bit(i) as usize]?;
        }
        Some(cur)
    }

    /// The string a vertex represents.
    pub fn node_prefix(&self, id: NodeId) -> Prefix<A> {
        self.node(id).prefix
    }

    /// The route marked at a vertex, if any.
    pub fn route_at(&self, id: NodeId) -> Option<RouteId> {
        self.node(id).route
    }

    /// `true` iff the vertex is marked (carries a route).
    pub fn is_marked(&self, id: NodeId) -> bool {
        self.node(id).route.is_some()
    }

    /// The two children of a vertex (`[zero-child, one-child]`).
    pub fn children(&self, id: NodeId) -> [Option<NodeId>; 2] {
        self.node(id).children
    }

    /// Best matching prefix of an arbitrary *string* (not only a full
    /// address): the longest marked prefix of `prefix` in this trie.
    /// Uncounted — used in pre-processing (clue-table construction).
    pub fn best_match_of_prefix(&self, prefix: &Prefix<A>) -> Option<RouteId> {
        let mut cur = self.root();
        let mut best = self.node(cur).route;
        for i in 0..prefix.len() {
            match self.node(cur).children[prefix.bit(i) as usize] {
                Some(c) => {
                    cur = c;
                    if let Some(r) = self.node(cur).route {
                        best = Some(r);
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Longest-prefix match of `addr`, uncounted (for correctness checks
    /// and pre-processing).
    pub fn lookup(&self, addr: A) -> Option<RouteId> {
        self.best_match_of_prefix(&Prefix::of_address(addr, A::BITS))
    }

    /// Every route whose prefix contains `addr`, shortest first, with
    /// one counted access per vertex visited — the walk a classifier
    /// uses to collect all matching destination buckets.
    pub fn matching_routes(&self, addr: A, cost: &mut Cost) -> Vec<RouteId> {
        let mut out = Vec::new();
        let mut cur = self.root();
        cost.trie_node();
        if let Some(r) = self.node(cur).route {
            out.push(r);
        }
        for i in 0..A::BITS {
            match self.node(cur).children[addr.bit(i) as usize] {
                Some(c) => {
                    cur = c;
                    cost.trie_node();
                    if let Some(r) = self.node(cur).route {
                        out.push(r);
                    }
                }
                None => break,
            }
        }
        out
    }

    /// Longest-prefix match of `addr` with the paper's “Regular” cost
    /// model: one memory access per vertex visited, root included.
    pub fn lookup_counted(&self, addr: A, cost: &mut Cost) -> Option<RouteId> {
        let mut cur = self.root();
        cost.trie_node();
        let mut best = self.node(cur).route;
        for i in 0..A::BITS {
            match self.node(cur).children[addr.bit(i) as usize] {
                Some(c) => {
                    cur = c;
                    cost.trie_node();
                    if let Some(r) = self.node(cur).route {
                        best = Some(r);
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Continues a longest-prefix match **from** vertex `start` (the clue
    /// vertex), as in the Simple/Advance continuation of Section 3.
    ///
    /// Returns the best marked vertex found at or below `start` along the
    /// path spelled by `addr`, or `None` if none is marked there (the
    /// caller then falls back to the clue entry's FD field). Counts one
    /// access for reading `start` and one per vertex descended into.
    ///
    /// # Panics
    /// Panics (in debug builds) if `addr` does not start with `start`'s
    /// string — such a call would be a protocol violation: the clue is by
    /// construction a prefix of the destination address.
    pub fn lookup_from(&self, start: NodeId, addr: A, cost: &mut Cost) -> Option<RouteId> {
        let s = self.node(start);
        debug_assert!(
            s.prefix.contains(addr),
            "clue {} is not a prefix of destination {}",
            s.prefix,
            addr
        );
        cost.trie_node();
        let mut cur = start;
        let mut best = s.route;
        for i in s.prefix.len()..A::BITS {
            match self.node(cur).children[addr.bit(i) as usize] {
                Some(c) => {
                    cur = c;
                    cost.trie_node();
                    if let Some(r) = self.node(cur).route {
                        best = Some(r);
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Depth-first pre-order traversal of the subtree rooted at `start`
    /// (inclusive). `visit` returns whether to descend into the vertex's
    /// children — the pruned DFS used by the Claim 1 classifier.
    pub fn walk_subtree<F: FnMut(NodeId) -> bool>(&self, start: NodeId, mut visit: F) {
        let mut stack = vec![start];
        while let Some(id) = stack.pop() {
            if visit(id) {
                let [l, r] = self.node(id).children;
                if let Some(r) = r {
                    stack.push(r);
                }
                if let Some(l) = l {
                    stack.push(l);
                }
            }
        }
    }

    /// Iterates over all routes as `(RouteId, Prefix, &T)`, in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (RouteId, Prefix<A>, &T)> + '_ {
        self.routes.iter().enumerate().filter_map(|(i, slot)| {
            slot.value
                .as_ref()
                .map(|v| (RouteId::from_index(i), slot.prefix, v))
        })
    }

    /// Iterates over all marked prefixes.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix<A>> + '_ {
        self.iter().map(|(_, p, _)| p)
    }

    /// Approximate resident size in bytes (vertex array + route array),
    /// used by the Section 3.5 space-accounting experiment.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * core::mem::size_of::<Node<A>>()
            + self.routes.len() * core::mem::size_of::<RouteSlot<A, T>>()
    }
}

impl<A: Address, T> FromIterator<(Prefix<A>, T)> for BinaryTrie<A, T> {
    fn from_iter<I: IntoIterator<Item = (Prefix<A>, T)>>(iter: I) -> Self {
        let mut t = BinaryTrie::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ip4;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ip4 {
        s.parse().unwrap()
    }

    fn sample() -> BinaryTrie<Ip4, u32> {
        let mut t = BinaryTrie::new();
        for (i, s) in ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "192.168.0.0/16"]
            .iter()
            .enumerate()
        {
            t.insert(p(s), i as u32);
        }
        t
    }

    #[test]
    fn lookup_finds_longest_match() {
        let t = sample();
        assert_eq!(*t.value(t.lookup(a("10.1.2.3")).unwrap()), 2);
        assert_eq!(*t.value(t.lookup(a("10.1.3.4")).unwrap()), 1);
        assert_eq!(*t.value(t.lookup(a("10.9.9.9")).unwrap()), 0);
        assert_eq!(*t.value(t.lookup(a("192.168.77.1")).unwrap()), 3);
        assert!(t.lookup(a("11.0.0.1")).is_none());
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = sample();
        t.insert(p("0.0.0.0/0"), 99);
        assert_eq!(*t.value(t.lookup(a("11.0.0.1")).unwrap()), 99);
        assert_eq!(*t.value(t.lookup(a("10.1.2.3")).unwrap()), 2);
    }

    #[test]
    fn counted_lookup_costs_path_length() {
        let t = sample();
        let mut c = Cost::new();
        let r = t.lookup_counted(a("10.1.2.3"), &mut c).unwrap();
        assert_eq!(t.prefix(r), p("10.1.2.0/24"));
        // Root + 24 bits of path = 25 vertices.
        assert_eq!(c.trie_nodes, 25);
    }

    #[test]
    fn counted_lookup_stops_at_dead_end() {
        let t = sample();
        let mut c = Cost::new();
        // 11.x diverges from 10/8 at bit 7 (0000101x); walk follows the
        // shared 0000101? no — 11 = 00001011, 10 = 00001010: they share
        // seven bits, so we visit root + 7 vertices before the dead end.
        assert!(t.lookup_counted(a("11.0.0.1"), &mut c).is_none());
        assert_eq!(c.trie_nodes, 8);
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let mut t = sample();
        let (rid1, old) = t.insert(p("10.0.0.0/8"), 42);
        assert_eq!(old, Some(0));
        assert_eq!(*t.value(rid1), 42);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn remove_prunes_chains() {
        let mut t = sample();
        let nodes_before = t.node_count();
        assert_eq!(t.remove(&p("10.1.2.0/24")), Some(2));
        assert_eq!(t.len(), 3);
        assert!(t.node_count() < nodes_before);
        assert_eq!(*t.value(t.lookup(a("10.1.2.3")).unwrap()), 1);
        // All leaves are marked after pruning.
        let root = t.root();
        t.walk_subtree(root, |n| {
            if t.children(n) == [None, None] && n != root {
                assert!(t.is_marked(n), "unmarked leaf survived pruning");
            }
            true
        });
    }

    #[test]
    fn remove_then_reinsert() {
        let mut t = sample();
        t.remove(&p("10.1.0.0/16"));
        assert!(t.lookup(a("10.1.3.4")).is_some());
        let (rid, old) = t.insert(p("10.1.0.0/16"), 7);
        assert_eq!(old, None);
        assert_eq!(*t.value(rid), 7);
        assert_eq!(*t.value(t.lookup(a("10.1.3.4")).unwrap()), 7);
    }

    #[test]
    fn node_of_prefix_exists_only_on_paths() {
        let t = sample();
        assert!(t.node_of_prefix(&p("10.1.0.0/16")).is_some());
        // 10.1.0.0/12 lies on the path to 10.1/16.
        assert!(t.node_of_prefix(&p("10.1.0.0/12")).is_some());
        assert!(t.node_of_prefix(&p("77.0.0.0/8")).is_none());
    }

    #[test]
    fn nearest_marked_ancestors() {
        // A string's BMP is the nearest marked vertex at or above it.
        let t = sample();
        let s24 = p("10.1.2.0/24");
        assert!(t.node_of_prefix(&s24).is_some());
        let bmp = t.best_match_of_prefix(&s24).unwrap();
        assert_eq!(t.prefix(bmp), s24);
        let above = t.best_match_of_prefix(&s24.parent().unwrap()).unwrap();
        assert_eq!(t.prefix(above), p("10.1.0.0/16"));
        let s12 = p("10.1.0.0/12");
        assert!(t.node_of_prefix(&s12).is_some(), "an unmarked vertex on the path");
        let bmp12 = t.best_match_of_prefix(&s12).unwrap();
        assert_eq!(t.prefix(bmp12), p("10.0.0.0/8"));
    }

    #[test]
    fn lookup_from_clue_vertex() {
        let t = sample();
        let s = t.node_of_prefix(&p("10.1.0.0/16")).unwrap();
        let mut c = Cost::new();
        let r = t.lookup_from(s, a("10.1.2.3"), &mut c).unwrap();
        assert_eq!(t.prefix(r), p("10.1.2.0/24"));
        // Start vertex + 8 more bits.
        assert_eq!(c.trie_nodes, 9);

        let mut c2 = Cost::new();
        let r2 = t.lookup_from(s, a("10.1.99.1"), &mut c2).unwrap();
        assert_eq!(t.prefix(r2), p("10.1.0.0/16"));
        assert!(c2.trie_nodes < c.trie_nodes);
    }

    #[test]
    fn matching_routes_returns_all_containing_prefixes() {
        let t = sample();
        let mut c = Cost::new();
        let hits: Vec<String> = t
            .matching_routes(a("10.1.2.3"), &mut c)
            .iter()
            .map(|&r| t.prefix(r).to_string())
            .collect();
        assert_eq!(hits, vec!["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"]);
        assert!(c.trie_nodes >= 25);
        let none = t.matching_routes(a("11.0.0.1"), &mut Cost::new());
        assert!(none.is_empty());
    }

    #[test]
    fn best_match_of_prefix_is_bounded_by_len() {
        let t = sample();
        let r = t.best_match_of_prefix(&p("10.1.2.0/20")).unwrap();
        assert_eq!(t.prefix(r), p("10.1.0.0/16"));
    }

    #[test]
    fn walk_subtree_prunes() {
        let t = sample();
        let root = t.root();
        let mut visited = 0;
        t.walk_subtree(root, |_| {
            visited += 1;
            false // never descend
        });
        assert_eq!(visited, 1);
        let mut all = 0;
        t.walk_subtree(root, |_| {
            all += 1;
            true
        });
        assert_eq!(all, t.node_count());
    }

    #[test]
    fn iter_yields_all_routes() {
        let t = sample();
        let mut ps: Vec<_> = t.prefixes().map(|p| p.to_string()).collect();
        ps.sort();
        assert_eq!(ps, vec!["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "192.168.0.0/16"]);
    }

    #[test]
    fn from_iterator() {
        let t: BinaryTrie<Ip4, ()> =
            [(p("1.0.0.0/8"), ()), (p("2.0.0.0/8"), ())].into_iter().collect();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn vertex_records_are_compact() {
        // Index + 1 ids give `Option` a niche: four links, four words.
        assert_eq!(core::mem::size_of::<Option<NodeId>>(), 4);
        assert_eq!(core::mem::size_of::<Option<RouteId>>(), 4);
        assert_eq!(core::mem::size_of::<Node<Ip4>>(), 32);
    }

    #[test]
    fn ids_round_trip_their_arena_index() {
        let t = sample();
        assert_eq!(t.root().index(), 0);
        for (rid, p, _) in t.iter() {
            assert_eq!(t.prefix(rid), p);
            assert_eq!(t.node_prefix(t.routes[rid.index()].node), p);
        }
        let mut ids: Vec<usize> = t.iter().map(|(rid, _, _)| rid.index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn memory_accounting_positive() {
        let t = sample();
        assert!(t.memory_bytes() > 0);
    }
}
