//! Path-compressed (Patricia) trie, the paper's baseline (2).
//!
//! The classic refinement of the binary trie [22, 23 in the paper]: every
//! internal unmarked vertex with a single child is contracted, so each
//! surviving vertex is either marked or has two children. A lookup visits
//! one vertex per *branching point* instead of one per bit; the paper's
//! cost model charges one memory access per vertex visited, which is what
//! [`PatriciaTrie::lookup_counted`] counts.
//!
//! For clue continuations (Section 4, “Adapting Patricia”) the clue string
//! may name a vertex that was contracted away; [`PatriciaTrie::locate`]
//! distinguishes the three situations (at a vertex / inside a compressed
//! edge / absent) and [`PatriciaTrie::lookup_from`] resumes the walk from
//! any of them.

use crate::addr::Address;
use crate::cost::Cost;
use crate::prefix::Prefix;

/// Identifier of a Patricia vertex.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct PNodeId(u32);

impl PNodeId {
    /// The arena index (for per-node side tables such as the Claim 1
    /// booleans of Section 4).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct PNode<A: Address> {
    prefix: Prefix<A>,
    marked: bool,
    children: [Option<PNodeId>; 2],
    parent: Option<PNodeId>,
    alive: bool,
}

/// Where a string sits relative to the compressed structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// The string is exactly the label of this vertex.
    AtNode(PNodeId),
    /// The string lies strictly inside the compressed edge from `above`
    /// to `below` (it is a strict extension of `above`'s label and a
    /// strict prefix of `below`'s).
    OnEdge {
        /// The vertex whose label is the longest vertex-label prefix of
        /// the string.
        above: PNodeId,
        /// The vertex terminating the compressed edge the string lies on.
        below: PNodeId,
    },
    /// The string is not in the (conceptual) trie at all; `nearest` is the
    /// deepest vertex whose label is a prefix of the string.
    Absent {
        /// Deepest vertex above the missing string.
        nearest: PNodeId,
    },
}

/// A set of prefixes in a path-compressed trie.
///
/// ```
/// use clue_trie::{Cost, Ip4, PatriciaTrie, Prefix};
///
/// let t: PatriciaTrie<Ip4> = ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"]
///     .iter()
///     .map(|s| s.parse::<Prefix<Ip4>>().unwrap())
///     .collect();
/// let mut cost = Cost::new();
/// let bmp = t.lookup_counted("10.1.2.3".parse().unwrap(), &mut cost).unwrap();
/// assert_eq!(bmp.to_string(), "10.1.2.0/24");
/// assert!(cost.trie_nodes <= 4); // far fewer than the 25 bit-by-bit visits
/// ```
#[derive(Debug, Clone)]
pub struct PatriciaTrie<A: Address> {
    nodes: Vec<PNode<A>>,
    free: Vec<PNodeId>,
    len: usize,
}

impl<A: Address> Default for PatriciaTrie<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Address> PatriciaTrie<A> {
    /// Creates an empty trie (just the unmarked root).
    pub fn new() -> Self {
        PatriciaTrie {
            nodes: vec![PNode {
                prefix: Prefix::ROOT,
                marked: false,
                children: [None, None],
                parent: None,
                alive: true,
            }],
            free: Vec::new(),
            len: 0,
        }
    }

    /// The root vertex (empty label).
    pub fn root(&self) -> PNodeId {
        PNodeId(0)
    }

    /// Number of marked prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn node(&self, id: PNodeId) -> &PNode<A> {
        let n = &self.nodes[id.0 as usize];
        debug_assert!(n.alive, "dangling PNodeId {id:?}");
        n
    }

    fn node_mut(&mut self, id: PNodeId) -> &mut PNode<A> {
        let n = &mut self.nodes[id.0 as usize];
        debug_assert!(n.alive, "dangling PNodeId {id:?}");
        n
    }

    fn alloc(&mut self, prefix: Prefix<A>, marked: bool, parent: Option<PNodeId>) -> PNodeId {
        let fresh = PNode { prefix, marked, children: [None, None], parent, alive: true };
        match self.free.pop() {
            Some(id) => {
                self.nodes[id.0 as usize] = fresh;
                id
            }
            None => {
                let id = PNodeId(u32::try_from(self.nodes.len()).expect("trie too large"));
                self.nodes.push(fresh);
                id
            }
        }
    }

    /// The label of a vertex.
    pub fn node_prefix(&self, id: PNodeId) -> Prefix<A> {
        self.node(id).prefix
    }

    /// `true` iff the vertex carries a stored prefix.
    pub fn is_marked(&self, id: PNodeId) -> bool {
        self.node(id).marked
    }

    /// The two children of a vertex.
    pub fn children(&self, id: PNodeId) -> [Option<PNodeId>; 2] {
        self.node(id).children
    }

    /// Inserts a prefix; returns `false` if it was already present.
    pub fn insert(&mut self, p: Prefix<A>) -> bool {
        let mut cur = self.root();
        loop {
            let cur_prefix = self.node(cur).prefix;
            if cur_prefix == p {
                let n = self.node_mut(cur);
                if n.marked {
                    return false;
                }
                n.marked = true;
                self.len += 1;
                return true;
            }
            debug_assert!(cur_prefix.is_strict_prefix_of(&p));
            let side = p.bit(cur_prefix.len()) as usize;
            match self.node(cur).children[side] {
                None => {
                    let leaf = self.alloc(p, true, Some(cur));
                    self.node_mut(cur).children[side] = Some(leaf);
                    self.len += 1;
                    return true;
                }
                Some(c) => {
                    let cp = self.node(c).prefix;
                    let common = p.common(&cp);
                    if common == cp {
                        cur = c; // p extends the child's label: descend
                    } else if common == p {
                        // p lies inside the edge: splice a marked vertex in.
                        let mid = self.alloc(p, true, Some(cur));
                        let c_side = cp.bit(p.len()) as usize;
                        self.node_mut(mid).children[c_side] = Some(c);
                        self.node_mut(c).parent = Some(mid);
                        self.node_mut(cur).children[side] = Some(mid);
                        self.len += 1;
                        return true;
                    } else {
                        // p diverges inside the edge: add a branch vertex.
                        let branch = self.alloc(common, false, Some(cur));
                        let c_side = cp.bit(common.len()) as usize;
                        let p_side = p.bit(common.len()) as usize;
                        debug_assert_ne!(c_side, p_side);
                        let leaf = self.alloc(p, true, Some(branch));
                        self.node_mut(branch).children[c_side] = Some(c);
                        self.node_mut(branch).children[p_side] = Some(leaf);
                        self.node_mut(c).parent = Some(branch);
                        self.node_mut(cur).children[side] = Some(branch);
                        self.len += 1;
                        return true;
                    }
                }
            }
        }
    }

    /// Splices out `id` if it is an unmarked non-root vertex with exactly
    /// one child, re-compressing the path.
    fn maybe_splice(&mut self, id: PNodeId) {
        if id == self.root() {
            return;
        }
        let n = self.node(id);
        if n.marked {
            return;
        }
        let kids: Vec<PNodeId> = n.children.iter().flatten().copied().collect();
        let prefix = n.prefix;
        let parent = n.parent;
        match kids.len() {
            0 => {
                // Unmarked leaf: detach entirely.
                let parent = parent.expect("non-root has parent");
                let side = prefix.bit(self.node(parent).prefix.len()) as usize;
                self.node_mut(parent).children[side] = None;
                self.nodes[id.0 as usize].alive = false;
                self.free.push(id);
                self.maybe_splice(parent);
            }
            1 => {
                let only = kids[0];
                let parent = parent.expect("non-root has parent");
                let side = prefix.bit(self.node(parent).prefix.len()) as usize;
                self.node_mut(parent).children[side] = Some(only);
                self.node_mut(only).parent = Some(parent);
                self.nodes[id.0 as usize].alive = false;
                self.free.push(id);
            }
            _ => {}
        }
    }

    /// Removes a prefix; returns `false` if it was not present.
    pub fn remove(&mut self, p: &Prefix<A>) -> bool {
        let id = match self.locate(p) {
            Location::AtNode(id) if self.node(id).marked => id,
            _ => return false,
        };
        self.node_mut(id).marked = false;
        self.len -= 1;
        self.maybe_splice(id);
        true
    }

    /// `true` iff the prefix is stored.
    #[cfg(test)]
    pub(crate) fn contains(&self, p: &Prefix<A>) -> bool {
        matches!(self.locate(p), Location::AtNode(id) if self.node(id).marked)
    }

    /// Classifies where the string `s` sits in the compressed structure
    /// (used by clue continuations; uncounted pre-processing).
    pub fn locate(&self, s: &Prefix<A>) -> Location {
        let mut cur = self.root();
        loop {
            let cp = self.node(cur).prefix;
            debug_assert!(cp.is_prefix_of(s));
            if cp == *s {
                return Location::AtNode(cur);
            }
            let side = s.bit(cp.len()) as usize;
            match self.node(cur).children[side] {
                None => return Location::Absent { nearest: cur },
                Some(c) => {
                    let child_prefix = self.node(c).prefix;
                    let common = s.common(&child_prefix);
                    if common == child_prefix {
                        cur = c; // s extends the child's label
                    } else if common == *s {
                        return Location::OnEdge { above: cur, below: c };
                    } else {
                        return Location::Absent { nearest: cur };
                    }
                }
            }
        }
    }

    /// The longest stored prefix of the string `s` (its BMP in this trie),
    /// uncounted — used when precomputing clue-table FD fields.
    #[cfg(test)]
    pub(crate) fn best_match_of_prefix(&self, s: &Prefix<A>) -> Option<Prefix<A>> {
        let mut cur = self.root();
        let mut best = None;
        loop {
            let n = self.node(cur);
            if n.marked {
                best = Some(n.prefix);
            }
            if n.prefix.len() >= s.len() {
                return best;
            }
            let side = s.bit(n.prefix.len()) as usize;
            match n.children[side] {
                Some(c) if self.node(c).prefix.is_prefix_of(s) => cur = c,
                _ => return best,
            }
        }
    }

    /// Longest-prefix match of an address, uncounted.
    #[cfg(test)]
    pub(crate) fn lookup(&self, addr: A) -> Option<Prefix<A>> {
        self.best_match_of_prefix(&Prefix::of_address(addr, A::BITS))
    }

    /// Longest-prefix match with the paper's Patricia cost model: one
    /// memory access per vertex visited, root included.
    pub fn lookup_counted(&self, addr: A, cost: &mut Cost) -> Option<Prefix<A>> {
        cost.trie_node();
        let mut cur = self.root();
        let mut best = if self.node(cur).marked { Some(self.node(cur).prefix) } else { None };
        loop {
            let n = self.node(cur);
            if n.prefix.len() >= A::BITS {
                return best;
            }
            let side = addr.bit(n.prefix.len()) as usize;
            let Some(c) = n.children[side] else { return best };
            cost.trie_node();
            let cn = self.node(c);
            if !cn.prefix.contains(addr) {
                // Mismatch inside the compressed edge: the walk is over.
                return best;
            }
            if cn.marked {
                best = Some(cn.prefix);
            }
            cur = c;
        }
    }

    /// Continues a lookup from the clue's [`Location`], counting one
    /// access per vertex visited below the clue. Returns the best marked
    /// prefix found **at or below the clue string**; the caller falls back
    /// to the clue entry's FD when this is `None`.
    pub fn lookup_from(&self, loc: Location, addr: A, cost: &mut Cost) -> Option<Prefix<A>> {
        let (start, mut best) = match loc {
            Location::AtNode(id) => {
                cost.trie_node();
                let n = self.node(id);
                debug_assert!(n.prefix.contains(addr));
                (id, if n.marked { Some(n.prefix) } else { None })
            }
            Location::OnEdge { below, .. } => {
                // One access to read the edge's terminating vertex and
                // compare the compressed bits against the destination.
                cost.trie_node();
                let bn = self.node(below);
                if !bn.prefix.contains(addr) {
                    return None; // destination diverges inside the edge
                }
                (below, if bn.marked { Some(bn.prefix) } else { None })
            }
            Location::Absent { .. } => return None,
        };
        let mut cur = start;
        loop {
            let n = self.node(cur);
            if n.prefix.len() >= A::BITS {
                return best;
            }
            let side = addr.bit(n.prefix.len()) as usize;
            let Some(c) = n.children[side] else { return best };
            cost.trie_node();
            let cn = self.node(c);
            if !cn.prefix.contains(addr) {
                return best;
            }
            if cn.marked {
                best = Some(cn.prefix);
            }
            cur = c;
        }
    }

    /// Iterates over all stored prefixes (pre-order).
    #[cfg(test)]
    pub(crate) fn prefixes(&self) -> Vec<Prefix<A>> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            let n = self.node(id);
            if n.marked {
                out.push(n.prefix);
            }
            for c in n.children.into_iter().flatten() {
                stack.push(c);
            }
        }
        out
    }

    /// Checks the Patricia structural invariant: every non-root vertex is
    /// marked or has two children, and child labels extend parent labels.
    /// Test/diagnostic helper.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut stack = vec![self.root()];
        while let Some(id) = stack.pop() {
            let n = self.node(id);
            let kid_count = n.children.iter().flatten().count();
            if id != self.root() && !n.marked && kid_count < 2 {
                return Err(format!("vertex {} is unmarked with {kid_count} children", n.prefix));
            }
            for (side, c) in n.children.iter().enumerate() {
                if let Some(c) = *c {
                    let cn = self.node(c);
                    if !n.prefix.is_strict_prefix_of(&cn.prefix) {
                        return Err(format!("child {} does not extend {}", cn.prefix, n.prefix));
                    }
                    if cn.prefix.bit(n.prefix.len()) as usize != side {
                        return Err(format!("child {} on wrong side of {}", cn.prefix, n.prefix));
                    }
                    if cn.parent != Some(id) {
                        return Err(format!("broken parent link at {}", cn.prefix));
                    }
                    stack.push(c);
                }
            }
        }
        Ok(())
    }

    /// Approximate resident size in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * core::mem::size_of::<PNode<A>>()
    }
}

impl<A: Address> FromIterator<Prefix<A>> for PatriciaTrie<A> {
    fn from_iter<I: IntoIterator<Item = Prefix<A>>>(iter: I) -> Self {
        let mut t = PatriciaTrie::new();
        for p in iter {
            t.insert(p);
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

    fn sample() -> PatriciaTrie<Ip4> {
        ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.128.0.0/9", "192.168.0.0/16"]
            .iter()
            .map(|s| p(s))
            .collect()
    }

    #[test]
    fn invariants_hold_after_building() {
        let t = sample();
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn lookup_matches_longest() {
        let t = sample();
        assert_eq!(t.lookup(a("10.1.2.3")), Some(p("10.1.2.0/24")));
        assert_eq!(t.lookup(a("10.1.9.9")), Some(p("10.1.0.0/16")));
        assert_eq!(t.lookup(a("10.200.0.1")), Some(p("10.128.0.0/9")));
        assert_eq!(t.lookup(a("10.2.0.1")), Some(p("10.0.0.0/8")));
        assert_eq!(t.lookup(a("11.0.0.1")), None);
    }

    #[test]
    fn counted_lookup_visits_few_nodes() {
        let t = sample();
        let mut c = Cost::new();
        assert_eq!(t.lookup_counted(a("10.1.2.3"), &mut c), Some(p("10.1.2.0/24")));
        // Root, 10/8, 10.1/16 (via branch?), 10.1.2/24 — at most a handful.
        assert!(c.trie_nodes <= 6, "visited {} nodes", c.trie_nodes);
        assert!(c.trie_nodes >= 4);
    }

    #[test]
    fn counted_lookup_edge_mismatch_costs_one_probe() {
        let t: PatriciaTrie<Ip4> = [p("10.1.2.0/24")].into_iter().collect();
        let mut c = Cost::new();
        // 10.9.9.9 shares the first bits with 10.1.2/24 but diverges inside
        // the single compressed edge: root + the leaf probe.
        assert_eq!(t.lookup_counted(a("10.9.9.9"), &mut c), None);
        assert_eq!(c.trie_nodes, 2);
    }

    #[test]
    fn insert_splits_edges() {
        let mut t = PatriciaTrie::new();
        assert!(t.insert(p("10.1.2.0/24")));
        assert!(t.insert(p("10.1.0.0/16"))); // on the existing edge
        assert!(t.insert(p("10.2.0.0/16"))); // diverging branch
        assert!(!t.insert(p("10.1.0.0/16"))); // duplicate
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup(a("10.1.77.1")), Some(p("10.1.0.0/16")));
        assert_eq!(t.lookup(a("10.2.0.1")), Some(p("10.2.0.0/16")));
    }

    #[test]
    fn remove_recompresses() {
        let mut t = sample();
        assert!(t.remove(&p("10.1.0.0/16")));
        assert!(!t.remove(&p("10.1.0.0/16")));
        t.check_invariants().unwrap();
        assert_eq!(t.lookup(a("10.1.9.9")), Some(p("10.0.0.0/8")));
        assert_eq!(t.lookup(a("10.1.2.3")), Some(p("10.1.2.0/24")));
    }

    #[test]
    fn remove_branch_keeps_structure() {
        let mut t = sample();
        for q in t.prefixes() {
            assert!(t.contains(&q));
        }
        assert!(t.remove(&p("10.0.0.0/8")));
        t.check_invariants().unwrap();
        assert_eq!(t.lookup(a("10.2.0.1")), None);
        assert_eq!(t.lookup(a("10.1.2.3")), Some(p("10.1.2.0/24")));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn locate_distinguishes_cases() {
        let t = sample();
        assert!(matches!(t.locate(&p("10.1.0.0/16")), Location::AtNode(_)));
        // 10.1.2.0/20 sits inside the compressed edge 10.1/16 → 10.1.2/24.
        assert!(matches!(t.locate(&p("10.1.0.0/20")), Location::OnEdge { .. }));
        // 77/8 diverges at the root.
        assert!(matches!(t.locate(&p("77.0.0.0/8")), Location::Absent { .. }));
        // 10.1.64.0/18 diverges inside the 16→24 edge.
        assert!(matches!(t.locate(&p("10.1.64.0/18")), Location::Absent { .. }));
    }

    #[test]
    fn lookup_from_node_location() {
        let t = sample();
        let loc = t.locate(&p("10.1.0.0/16"));
        let mut c = Cost::new();
        assert_eq!(t.lookup_from(loc, a("10.1.2.3"), &mut c), Some(p("10.1.2.0/24")));
        assert!(c.trie_nodes <= 3);
        let mut c2 = Cost::new();
        assert_eq!(t.lookup_from(loc, a("10.1.99.1"), &mut c2), Some(p("10.1.0.0/16")));
    }

    #[test]
    fn lookup_from_edge_location() {
        let t = sample();
        let loc = t.locate(&p("10.1.0.0/20")); // on the 16→24 edge
        let mut c = Cost::new();
        assert_eq!(t.lookup_from(loc, a("10.1.2.3"), &mut c), Some(p("10.1.2.0/24")));
        // Destination diverging inside the edge finds nothing below.
        let mut c2 = Cost::new();
        assert_eq!(t.lookup_from(loc, a("10.1.8.1"), &mut c2), None);
        assert_eq!(c2.trie_nodes, 1);
    }

    #[test]
    fn best_match_of_prefix_bounded() {
        let t = sample();
        assert_eq!(t.best_match_of_prefix(&p("10.1.2.0/20")), Some(p("10.1.0.0/16")));
        assert_eq!(t.best_match_of_prefix(&p("10.1.2.0/24")), Some(p("10.1.2.0/24")));
        assert_eq!(t.best_match_of_prefix(&p("11.0.0.0/8")), None);
    }

    #[test]
    fn prefixes_roundtrip() {
        let t = sample();
        let mut got: Vec<String> = t.prefixes().iter().map(|q| q.to_string()).collect();
        got.sort();
        assert_eq!(
            got,
            vec!["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.128.0.0/9", "192.168.0.0/16"]
        );
    }

    #[test]
    fn root_prefix_is_storable() {
        let mut t = sample();
        assert!(t.insert(p("0.0.0.0/0")));
        t.check_invariants().unwrap();
        assert_eq!(t.lookup(a("11.0.0.1")), Some(p("0.0.0.0/0")));
        assert!(t.remove(&p("0.0.0.0/0")));
        assert_eq!(t.lookup(a("11.0.0.1")), None);
    }
}
