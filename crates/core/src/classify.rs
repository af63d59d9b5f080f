//! The Advance method's clue classifier — Claim 1 and the three cases of
//! Section 3.1.2.
//!
//! Given a clue `s` (a prefix of the sender's trie `t1`) and the receiver's
//! trie `t2`, the classifier decides whether a continued search below `s`
//! can ever be necessary:
//!
//! * **Case 1** — `s` is not a vertex of `t2`: the receiver's BMP is the
//!   least marked ancestor of `s`, final.
//! * **Case 2** — Claim 1 holds: *on every path descending from `s` in
//!   `t2`, a prefix of `t1` is met before (or at) the first prefix of
//!   `t2`*. Had the destination matched anything longer, the sender would
//!   have sent that longer clue — so the FD is final.
//! * **Case 3** — the inverse of Claim 1: some prefix of `t2` is reachable
//!   from `s` without crossing a prefix of `t1`. Those reachable prefixes
//!   form the **candidate set** `P(s)` (Definition 1 / Condition C1 of
//!   Section 4); only they can beat the FD, and the continued search may
//!   be restricted to them.
//!
//! The classifier is deliberately independent of *how* `t1` is known: full
//! precomputed knowledge (a snapshot of the neighbor's table), or the
//! incrementally-learned clue set (Section 3.3.1). Partial knowledge only
//! moves clues from Case 2 to Case 3 — the continuation still returns the
//! correct BMP, just at a higher cost — so learning is always safe.

use std::borrow::Cow;

use clue_trie::{Address, BinaryTrie, NodeId, Prefix};

/// How a clue behaves at the receiving router, per the Advance method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Classification<A: Address> {
    /// Case 1: the clue vertex does not exist in the receiver's trie.
    /// `fd` is the least marked ancestor of the clue (may be `None`).
    AbsentVertex {
        /// Final decision: BMP of the clue string in the receiver's trie.
        fd: Option<Prefix<A>>,
    },
    /// Case 2: Claim 1 holds — no longer match is possible, `fd` is final.
    Covered {
        /// Final decision: BMP of the clue string in the receiver's trie.
        fd: Option<Prefix<A>>,
    },
    /// Case 3: a continued search is needed. `candidates` is `P(s)` —
    /// every receiver prefix reachable from the clue without crossing a
    /// sender prefix, sorted by (bits, length).
    Problematic {
        /// Fallback when the continued search fails.
        fd: Option<Prefix<A>>,
        /// The candidate set `P(s)` of Definition 1.
        candidates: Vec<Prefix<A>>,
    },
}

impl<A: Address> Classification<A> {
    /// The FD (final-decision) field of the clue-table entry.
    pub fn fd(&self) -> Option<Prefix<A>> {
        match self {
            Classification::AbsentVertex { fd }
            | Classification::Covered { fd }
            | Classification::Problematic { fd, .. } => *fd,
        }
    }

    /// `true` iff this clue needs a continued search (Case 3).
    pub fn is_problematic(&self) -> bool {
        matches!(self, Classification::Problematic { .. })
    }

    /// The candidate set, empty unless Case 3.
    pub fn candidates(&self) -> &[Prefix<A>] {
        match self {
            Classification::Problematic { candidates, .. } => candidates,
            _ => &[],
        }
    }
}

/// Classifies clue `s` against receiver trie `t2`, with `sender_knows`
/// answering “is this string a prefix in (what we know of) the sender's
/// table?”.
///
/// `sender_knows` is consulted only for strings strictly longer than the
/// clue itself (the clue is a sender prefix by definition, and Condition
/// C1 exempts it).
pub fn classify<A: Address, T>(
    clue: &Prefix<A>,
    t2: &BinaryTrie<A, T>,
    sender_knows: &dyn Fn(&Prefix<A>) -> bool,
) -> Classification<A> {
    let fd = t2.best_match_of_prefix(clue).map(|r| t2.prefix(r));
    let Some(node) = t2.node_of_prefix(clue) else {
        return Classification::AbsentVertex { fd };
    };

    // Pruned DFS below the clue vertex: stop descending at any vertex that
    // is a sender prefix (paths through it are covered by Claim 1); record
    // receiver prefixes reached before that as candidates.
    let mut candidates = Vec::new();
    let [l, r] = t2.children(node);
    let mut stack: Vec<_> = [l, r].into_iter().flatten().collect();
    while let Some(v) = stack.pop() {
        let vp = t2.node_prefix(v);
        if sender_knows(&vp) {
            continue; // covered: the sender would have sent this instead
        }
        if t2.is_marked(v) {
            candidates.push(vp);
        }
        for c in t2.children(v).into_iter().flatten() {
            stack.push(c);
        }
    }

    if candidates.is_empty() {
        Classification::Covered { fd }
    } else {
        candidates.sort_unstable();
        Classification::Problematic { fd, candidates }
    }
}

/// Convenience: classification of every clue a sender table could emit,
/// with full knowledge of the sender — the *pre-processing construction*
/// of Section 3.3.2. Returns `(clue, classification)` pairs in
/// `t1.prefixes()` order, each equal to [`classify`]'s, computed by one
/// merged sweep of `t2` instead of a search per clue.
pub fn classify_all<A: Address, T, U>(
    t1: &BinaryTrie<A, T>,
    t2: &BinaryTrie<A, U>,
) -> Vec<(Prefix<A>, Classification<A>)> {
    let clues: Vec<_> = t1.prefixes().collect();
    let sorted = SortedClues::new(&clues);
    let mut sweep = sweep(t2, sorted.unique(), true, true, false);
    clues
        .iter()
        .enumerate()
        .map(|(i, &clue)| (clue, sweep.classification(sorted.rank(i))))
        .collect()
}

/// A clue list in trie pre-order — [`Prefix`] order, duplicates
/// dropped — with the map from each original position to its place in
/// that order. A list already strictly increasing (every synthesized
/// table is) is borrowed as it stands.
pub(crate) struct SortedClues<'a, A: Address> {
    unique: Cow<'a, [Prefix<A>]>,
    /// Original position → index into `unique`; `None` for the identity.
    rank: Option<Vec<u32>>,
}

impl<'a, A: Address> SortedClues<'a, A> {
    pub(crate) fn new(clues: &'a [Prefix<A>]) -> Self {
        if clues.windows(2).all(|w| w[0] < w[1]) {
            return SortedClues { unique: Cow::Borrowed(clues), rank: None };
        }
        let index = |i: usize| u32::try_from(i).expect("clue list fits u32");
        let mut by_clue: Vec<(Prefix<A>, u32)> =
            clues.iter().enumerate().map(|(i, &c)| (c, index(i))).collect();
        by_clue.sort_unstable();
        let mut unique = Vec::with_capacity(by_clue.len());
        let mut rank = vec![0; clues.len()];
        for (clue, i) in by_clue {
            if unique.last() != Some(&clue) {
                unique.push(clue);
            }
            rank[i as usize] = index(unique.len() - 1);
        }
        SortedClues { unique: Cow::Owned(unique), rank: Some(rank) }
    }

    /// The distinct clues, in pre-order.
    pub(crate) fn unique(&self) -> &[Prefix<A>] {
        &self.unique
    }

    /// Where the clue at original position `i` sits in [`Self::unique`].
    pub(crate) fn rank(&self, i: usize) -> usize {
        self.rank.as_ref().map_or(i, |r| r[i] as usize)
    }
}

/// What the merged sweep learned about one clue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Swept<A: Address> {
    /// The FD field: the clue's best match in `t2`.
    pub(crate) fd: Option<Prefix<A>>,
    /// The clue's vertex in `t2`; `None` is Case 1.
    pub(crate) node: Option<NodeId>,
    /// Case 3: some candidate lies below the clue.
    pub(crate) problematic: bool,
}

/// [`sweep`]'s output, indexed like the sorted clue list it was given.
pub(crate) struct Sweep<A: Address> {
    pub(crate) clues: Vec<Swept<A>>,
    /// `P(s)` per clue, in [`Prefix`] order, when asked for.
    pub(crate) candidates: Option<Vec<Vec<Prefix<A>>>>,
    /// The Section 4 per-vertex Booleans by `t2` arena index, when
    /// asked for: `bit[v]` is `true` iff some candidate path leaves
    /// `v` — a marked vertex lies strictly below `v` with no blocking
    /// clue on the way, `v` itself excluded.
    pub(crate) bits: Option<Vec<bool>>,
}

impl<A: Address> Sweep<A> {
    /// The clue at sorted index `i` as [`classify`] reports it, taking
    /// its candidate set (asked for at sweep time) out of the sweep.
    pub(crate) fn classification(&mut self, i: usize) -> Classification<A> {
        let Swept { fd, node, problematic } = self.clues[i];
        match (node, problematic) {
            (None, _) => Classification::AbsentVertex { fd },
            (Some(_), false) => Classification::Covered { fd },
            (Some(_), true) => {
                let candidates = self.candidates.as_mut().expect("candidates asked for");
                Classification::Problematic { fd, candidates: std::mem::take(&mut candidates[i]) }
            }
        }
    }
}

/// One vertex on the sweep's ancestor stack.
struct Ancestor<A: Address> {
    prefix: Prefix<A>,
    node: NodeId,
    /// Nearest marked vertex at or above: the FD of a clue here.
    fd: Option<Prefix<A>>,
    /// Nearest clue at or above, as an index into the clue list.
    clue: Option<u32>,
    /// Whether this vertex is itself a clue.
    is_clue: bool,
}

/// The Claim-1 construction of every clue at once: one pre-order walk
/// of `t2` merged with `clues`, which must be strictly increasing
/// ([`SortedClues`]). The walk keeps a stack of the current vertex's
/// ancestors, one per depth, each with its FD and its nearest clue, so
/// it costs O(|t2 vertices| + |clues|) plus the candidate sets asked
/// for — where [`classify`] walks from the root and searches below each
/// clue in turn.
///
/// With `blocking` (Advance) a clue vertex blocks the paths through it,
/// as in [`classify`] with full knowledge of `clues`: a marked vertex
/// that is not a clue is a candidate of its nearest strict clue
/// ancestor alone. Without it (Simple, where nothing blocks) every
/// marked vertex is a candidate of every strict clue ancestor.
/// `candidates` asks for the sets `P(s)` themselves, `bits` for the
/// Section 4 Booleans under the same blocking rule.
pub(crate) fn sweep<A: Address, T>(
    t2: &BinaryTrie<A, T>,
    clues: &[Prefix<A>],
    blocking: bool,
    candidates: bool,
    bits: bool,
) -> Sweep<A> {
    debug_assert!(clues.windows(2).all(|w| w[0] < w[1]), "clues sorted and distinct");
    let mut out = Sweep {
        clues: vec![Swept { fd: None, node: None, problematic: false }; clues.len()],
        candidates: candidates.then(|| vec![Vec::new(); clues.len()]),
        bits: bits.then(|| vec![false; t2.arena_len()]),
    };
    // Nearest strict clue ancestor of each clue vertex: the chain
    // along which a Simple candidate reaches every clue above it.
    let mut clue_above: Vec<Option<u32>> = vec![None; if blocking { 0 } else { clues.len() }];
    // `stack[d]` is the current vertex's ancestor at depth `d`: in a
    // binary trie every string on a vertex's root path is a vertex.
    let mut stack: Vec<Ancestor<A>> = Vec::with_capacity(A::BITS as usize + 1);
    let mut next = 0;
    // A clue met between two vertices is no vertex (Case 1). Its
    // vertex ancestors all precede it, so they are ancestors of the
    // last vertex met: the stack entry at their common depth.
    let absent = |stack: &[Ancestor<A>], clue: Prefix<A>| {
        stack.last().and_then(|top| stack[top.prefix.common(&clue).len() as usize].fd)
    };
    t2.walk_subtree(t2.root(), |v| {
        let prefix = t2.node_prefix(v);
        while next < clues.len() && clues[next] < prefix {
            out.clues[next].fd = absent(&stack, clues[next]);
            next += 1;
        }
        stack.truncate(prefix.len() as usize);
        let parent = stack.last();
        let marked = t2.is_marked(v);
        let fd = if marked { Some(prefix) } else { parent.and_then(|a| a.fd) };
        let above = parent.and_then(|a| a.clue);
        let own = if clues.get(next) == Some(&prefix) {
            let i = next;
            next += 1;
            out.clues[i] = Swept { fd, node: Some(v), problematic: false };
            if !blocking {
                clue_above[i] = above;
            }
            Some(i as u32)
        } else {
            None
        };
        if marked && !(blocking && own.is_some()) {
            // A candidate of the clues above it, up to the first that
            // blocks. Without candidate sets the chain stops at a clue
            // already known problematic: every clue above it is too.
            let mut s = above;
            while let Some(i) = s {
                let i = i as usize;
                let known = std::mem::replace(&mut out.clues[i].problematic, true);
                match &mut out.candidates {
                    Some(sets) => sets[i].push(prefix),
                    None if known => break,
                    None => {}
                }
                s = if blocking { None } else { clue_above[i] };
            }
            if let Some(bits) = &mut out.bits {
                // Every vertex from the parent up to the nearest
                // blocking clue has this candidate path below it. A bit
                // already set was set by such a path, and so was every
                // bit above it to that same clue.
                for a in stack.iter().rev() {
                    if std::mem::replace(&mut bits[a.node.index()], true) {
                        break;
                    }
                    if blocking && a.is_clue {
                        break;
                    }
                }
            }
        }
        stack.push(Ancestor { prefix, node: v, fd, clue: own.or(above), is_clue: own.is_some() });
        true
    });
    for (swept, &clue) in out.clues[next..].iter_mut().zip(&clues[next..]) {
        swept.fd = absent(&stack, clue);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::tests::{arb_shapes, shaped};
    use clue_trie::{Ip4, Ip6};
    use proptest::prelude::*;

    /// The sweep behind [`classify_all`] agrees with [`classify`] clue
    /// by clue, in `t1.prefixes()` order, candidate sets included.
    fn check_classify_all<A: Address>(
        sender: &[(u32, u8)],
        receiver: &[(u32, u8)],
    ) -> Result<(), TestCaseError> {
        let t1: BinaryTrie<A, ()> = sender.iter().map(|&(s, l)| (shaped(s, l), ())).collect();
        let t2: BinaryTrie<A, ()> = receiver.iter().map(|&(s, l)| (shaped(s, l), ())).collect();
        let all = classify_all(&t1, &t2);
        prop_assert_eq!(all.len(), t1.len());
        for ((clue, got), want) in all.iter().zip(t1.prefixes()) {
            prop_assert_eq!(*clue, want);
            prop_assert_eq!(got, &classify(clue, &t2, &|q| t1.get(q).is_some()), "clue {}", clue);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn classify_all_matches_per_clue_classify_ip4(
            sender in arb_shapes(),
            receiver in arb_shapes(),
        ) {
            check_classify_all::<Ip4>(&sender, &receiver)?;
        }

        #[test]
        fn classify_all_matches_per_clue_classify_ip6(
            sender in arb_shapes(),
            receiver in arb_shapes(),
        ) {
            check_classify_all::<Ip6>(&sender, &receiver)?;
        }
    }

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    fn trie(prefixes: &[&str]) -> BinaryTrie<Ip4, ()> {
        prefixes.iter().map(|s| (p(s), ())).collect()
    }

    #[test]
    fn case1_absent_vertex() {
        let t1 = trie(&["77.0.0.0/8"]);
        let t2 = trie(&["10.0.0.0/8"]);
        let c = classify(&p("77.0.0.0/8"), &t2, &|q| t1.get(q).is_some());
        assert_eq!(c, Classification::AbsentVertex { fd: None });
    }

    #[test]
    fn case1_absent_vertex_with_ancestor_fd() {
        let t1 = trie(&["10.1.0.0/16"]);
        let t2 = trie(&["10.0.0.0/8"]);
        // 10.1/16 is not a vertex of t2 (t2's only path stops at /8).
        let c = classify(&p("10.1.0.0/16"), &t2, &|q| t1.get(q).is_some());
        assert_eq!(c, Classification::AbsentVertex { fd: Some(p("10.0.0.0/8")) });
    }

    #[test]
    fn case2_identical_tables_are_fully_covered() {
        let t1 = trie(&["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"]);
        let t2 = trie(&["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"]);
        for (clue, c) in classify_all(&t1, &t2) {
            assert!(
                matches!(c, Classification::Covered { .. }),
                "clue {clue} should be covered, got {c:?}"
            );
            assert_eq!(c.fd(), Some(clue));
        }
    }

    #[test]
    fn case3_receiver_refines_beyond_sender() {
        // t2 refines 10/8 into a /16 the sender does not know about.
        let t1 = trie(&["10.0.0.0/8"]);
        let t2 = trie(&["10.0.0.0/8", "10.1.0.0/16"]);
        let c = classify(&p("10.0.0.0/8"), &t2, &|q| t1.get(q).is_some());
        assert!(c.is_problematic());
        assert_eq!(c.candidates(), &[p("10.1.0.0/16")]);
        assert_eq!(c.fd(), Some(p("10.0.0.0/8")));
    }

    #[test]
    fn claim1_prunes_at_sender_prefixes() {
        // The only extension of 10/8 in t2 is 10.1.2/24, but the sender
        // also has 10.1/16 on the way there — Claim 1 holds: had the
        // destination matched 10.1.2/24 it would match 10.1/16 too, and
        // the sender would have sent that longer clue.
        let t1 = trie(&["10.0.0.0/8", "10.1.0.0/16"]);
        let t2 = trie(&["10.0.0.0/8", "10.1.2.0/24"]);
        let c = classify(&p("10.0.0.0/8"), &t2, &|q| t1.get(q).is_some());
        assert_eq!(c, Classification::Covered { fd: Some(p("10.0.0.0/8")) });
    }

    #[test]
    fn inverse_claim1_candidate_on_its_own_branch() {
        // 10.2/16 in t2 is reachable from the 10/8 clue without crossing
        // any sender prefix — problematic, with exactly that candidate.
        let t1 = trie(&["10.0.0.0/8", "10.1.0.0/16"]);
        let t2 = trie(&["10.0.0.0/8", "10.1.2.0/24", "10.2.0.0/16"]);
        let c = classify(&p("10.0.0.0/8"), &t2, &|q| t1.get(q).is_some());
        assert!(c.is_problematic());
        assert_eq!(c.candidates(), &[p("10.2.0.0/16")]);
    }

    #[test]
    fn candidates_descend_through_receiver_prefixes() {
        // Both 10.2/16 and its refinement 10.2.3/24 are candidates: a
        // receiver prefix does not block the path, only a sender prefix
        // does (Condition C1).
        let t1 = trie(&["10.0.0.0/8"]);
        let t2 = trie(&["10.0.0.0/8", "10.2.0.0/16", "10.2.3.0/24"]);
        let c = classify(&p("10.0.0.0/8"), &t2, &|q| t1.get(q).is_some());
        let mut cand = c.candidates().to_vec();
        cand.sort();
        assert_eq!(cand, vec![p("10.2.0.0/16"), p("10.2.3.0/24")]);
    }

    #[test]
    fn sender_prefix_at_receiver_prefix_blocks() {
        // 10.2/16 is a prefix of *both* tries: it blocks (the sender
        // would have sent it), so nothing below it is a candidate and the
        // vertex itself is not one either.
        let t1 = trie(&["10.0.0.0/8", "10.2.0.0/16"]);
        let t2 = trie(&["10.0.0.0/8", "10.2.0.0/16", "10.2.3.0/24"]);
        let c = classify(&p("10.0.0.0/8"), &t2, &|q| t1.get(q).is_some());
        assert_eq!(c, Classification::Covered { fd: Some(p("10.0.0.0/8")) });
    }

    #[test]
    fn partial_knowledge_is_conservative() {
        // With full knowledge the clue is covered; with no knowledge it
        // degrades to problematic — never to a wrong final decision.
        let t1 = trie(&["10.0.0.0/8", "10.1.0.0/16"]);
        let t2 = trie(&["10.0.0.0/8", "10.1.0.0/16"]);
        let full = classify(&p("10.0.0.0/8"), &t2, &|q| t1.get(q).is_some());
        assert!(matches!(full, Classification::Covered { .. }));
        let none = classify(&p("10.0.0.0/8"), &t2, &|_| false);
        assert!(none.is_problematic());
        assert_eq!(none.candidates(), &[p("10.1.0.0/16")]);
        assert_eq!(none.fd(), full.fd());
    }

    #[test]
    fn problematic_fraction_counts() {
        let t1 = trie(&["10.0.0.0/8", "20.0.0.0/8"]);
        let t2 = trie(&["10.0.0.0/8", "10.9.0.0/16", "20.0.0.0/8"]);
        // 10/8 is problematic (10.9/16 uncovered), 20/8 covered: the
        // Table 2 fraction is one clue in two.
        let problematic: Vec<_> =
            classify_all(&t1, &t2).into_iter().filter(|(_, c)| c.is_problematic()).collect();
        assert_eq!(problematic.len(), 1);
        assert_eq!(problematic[0].0, p("10.0.0.0/8"));
    }

    #[test]
    fn fd_is_least_marked_ancestor_when_clue_unmarked_in_t2() {
        let t1 = trie(&["10.1.0.0/16"]);
        let t2 = trie(&["10.0.0.0/8", "10.1.2.0/24"]);
        // 10.1/16 is a vertex of t2 (on the path to /24) but unmarked.
        let c = classify(&p("10.1.0.0/16"), &t2, &|q| t1.get(q).is_some());
        assert!(c.is_problematic());
        assert_eq!(c.fd(), Some(p("10.0.0.0/8")));
        assert_eq!(c.candidates(), &[p("10.1.2.0/24")]);
    }
}
