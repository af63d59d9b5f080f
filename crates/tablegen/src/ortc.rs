//! Optimal Routing Table Construction (ORTC) — the “locally equivalent
//! forwarding tables that contain a minimal number of prefixes” the
//! paper cites as software direction (5) in Section 2 (Draves, King,
//! Venkatachary, Zill).
//!
//! Given a table of `(prefix, next-hop)` pairs, ORTC produces a smallest
//! prefix set that forwards **every** address identically. We use it two
//! ways:
//!
//! * as a substrate in its own right (the paper's related-work baseline
//!   compresses tables to fit caches);
//! * as an ablation: a minimized table changes the trie `t2` that clue
//!   classification runs against, so we can measure whether table
//!   compression helps or hurts the clue scheme.
//!
//! The classic three passes over the binary trie:
//!
//! 1. **leaf-push**: percolate next-hop sets to the (explicit and
//!    implicit) leaves;
//! 2. **merge up**: an internal vertex's set is the intersection of its
//!    children's sets when non-empty, else their union;
//! 3. **select down**: walking from the root, emit a prefix only where
//!    the inherited choice is not in the vertex's set.
//!
//! One deviation from the textbook algorithm: real tables may leave
//! address space **uncovered**, and forwarding tables cannot express
//! “uncover this sub-range”. A region containing uncovered space is
//! therefore a hard constraint — no ancestor may emit a prefix covering
//! it; its covered sub-regions emit for themselves.

use std::collections::BTreeSet;

use clue_trie::{Address, BinaryTrie, NodeId, Prefix};

/// A next-hop label.
pub(crate) type NextHop = u32;

#[derive(Debug, Clone, Default)]
struct OrtcNode {
    /// Candidate real next hops after the merge pass.
    set: BTreeSet<NextHop>,
    /// The region contains address space no input prefix covers; no
    /// ancestor may cover it, so nothing can be inherited through it.
    uncovered: bool,
    /// Arena children. A child may exist without a corresponding trie
    /// vertex: the *implicit half* of a one-child trie vertex, whose
    /// whole region carries the inherited decision. Implicit leaves are
    /// still visited by the select pass — if the parent chooses a
    /// different hop, the implicit region re-emits its own prefix.
    children: [Option<usize>; 2],
    /// Marks implicit leaves (no trie vertex to recurse into).
    implicit: bool,
}

struct Ortc<'t, A: Address> {
    trie: &'t BinaryTrie<A, NextHop>,
    arena: Vec<OrtcNode>,
    out: Vec<(Prefix<A>, NextHop)>,
}

impl<A: Address> Ortc<'_, A> {
    fn leaf(&mut self, decision: Option<NextHop>, implicit: bool) -> usize {
        let idx = self.arena.len();
        self.arena.push(OrtcNode {
            set: decision.into_iter().collect(),
            uncovered: decision.is_none(),
            children: [None, None],
            implicit,
        });
        idx
    }

    /// Passes 1+2: compute per-region candidate sets and coverage.
    fn build(&mut self, node: NodeId, inherited: Option<NextHop>) -> usize {
        let decision = self.trie.route_at(node).map(|r| *self.trie.value(r)).or(inherited);
        let kids = self.trie.children(node);
        if kids[0].is_none() && kids[1].is_none() {
            return self.leaf(decision, false);
        }
        let mut children = [0usize; 2];
        for (side, slot) in children.iter_mut().enumerate() {
            *slot = match kids[side] {
                Some(c) => self.build(c, decision),
                None => self.leaf(decision, true),
            };
        }
        let (a, b) = (children[0], children[1]);
        let uncovered = self.arena[a].uncovered || self.arena[b].uncovered;
        let set = if uncovered {
            BTreeSet::new()
        } else {
            let inter: BTreeSet<NextHop> =
                self.arena[a].set.intersection(&self.arena[b].set).copied().collect();
            if inter.is_empty() {
                self.arena[a].set.union(&self.arena[b].set).copied().collect()
            } else {
                inter
            }
        };
        let idx = self.arena.len();
        self.arena.push(OrtcNode { set, uncovered, children: [Some(a), Some(b)], implicit: false });
        idx
    }

    /// Resolve one region during the select pass: given what the parent
    /// chose, decide this region's label, emitting `prefix` if needed.
    /// Returns the label the region's descendants inherit.
    fn choose(
        &mut self,
        arena_node: usize,
        prefix: Prefix<A>,
        inherited: Option<NextHop>,
    ) -> Option<NextHop> {
        let n = &self.arena[arena_node];
        if n.uncovered {
            debug_assert!(inherited.is_none(), "an ancestor covered an uncoverable region");
            return None;
        }
        match inherited {
            Some(h) if n.set.contains(&h) => inherited,
            _ => {
                let pick = n.set.iter().next().copied();
                if let Some(h) = pick {
                    self.out.push((prefix, h));
                }
                pick.or(inherited)
            }
        }
    }

    /// Pass 3: select downward.
    fn select(&mut self, trie_node: NodeId, arena_node: usize, inherited: Option<NextHop>) {
        let prefix = self.trie.node_prefix(trie_node);
        let chosen = self.choose(arena_node, prefix, inherited);
        let kids = self.trie.children(trie_node);
        for (side, &kid) in kids.iter().enumerate() {
            let Some(ac) = self.arena[arena_node].children[side] else { continue };
            match kid {
                Some(tc) => self.select(tc, ac, chosen),
                None => {
                    // Implicit leaf: re-emit if the chosen hop diverges.
                    debug_assert!(self.arena[ac].implicit);
                    let set = self.arena[ac].set.clone();
                    match chosen {
                        Some(h) if set.contains(&h) => {}
                        _ => {
                            if let Some(&h) = set.iter().next() {
                                self.out.push((prefix.child(side == 1), h));
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Minimizes `(prefix, next hop)` entries into a smallest equivalent
/// table.
///
/// Addresses not covered by any input prefix remain uncovered in the
/// output (no default route is invented). Input entries with the same
/// prefix keep the last next hop.
pub fn minimize<A: Address>(entries: &[(Prefix<A>, NextHop)]) -> Vec<(Prefix<A>, NextHop)> {
    if entries.is_empty() {
        return Vec::new();
    }
    let trie: BinaryTrie<A, NextHop> = entries.iter().copied().collect();
    let mut ortc = Ortc { trie: &trie, arena: Vec::new(), out: Vec::new() };
    let root = ortc.build(trie.root(), None);
    ortc.select(trie.root(), root, None);
    ortc.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_trie::Ip4;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    fn forwards_identically(
        a: &[(Prefix<Ip4>, NextHop)],
        b: &[(Prefix<Ip4>, NextHop)],
        probes: impl Iterator<Item = Ip4>,
    ) -> bool {
        let ta: BinaryTrie<Ip4, NextHop> = a.iter().copied().collect();
        let tb: BinaryTrie<Ip4, NextHop> = b.iter().copied().collect();
        for addr in probes {
            let va = ta.lookup(addr).map(|r| *ta.value(r));
            let vb = tb.lookup(addr).map(|r| *tb.value(r));
            if va != vb {
                eprintln!("divergence at {addr}: {va:?} vs {vb:?}");
                return false;
            }
        }
        true
    }

    #[test]
    fn redundant_child_is_absorbed() {
        // 10.1/16 -> 1 is redundant under 10/8 -> 1.
        let table = vec![(p("10.0.0.0/8"), 1), (p("10.1.0.0/16"), 1)];
        let min = minimize(&table);
        assert_eq!(min, vec![(p("10.0.0.0/8"), 1)]);
    }

    #[test]
    fn distinct_child_survives() {
        let table = vec![(p("10.0.0.0/8"), 1), (p("10.1.0.0/16"), 2)];
        let min = minimize(&table);
        assert_eq!(min.len(), 2);
        let probes = ["10.1.2.3", "10.2.0.1"].iter().map(|s| s.parse().unwrap());
        assert!(forwards_identically(&table, &min, probes));
    }

    #[test]
    fn sibling_merge_hoists_the_common_hop() {
        // Both halves of 10/8's child space use hop 7 via two /9s: ORTC
        // replaces them with a single /8.
        let table = vec![(p("10.0.0.0/9"), 7), (p("10.128.0.0/9"), 7)];
        let min = minimize(&table);
        assert_eq!(min, vec![(p("10.0.0.0/8"), 7)]);
    }

    #[test]
    fn uncovered_space_stays_uncovered() {
        let table = vec![(p("10.0.0.0/9"), 7), (p("10.128.0.0/9"), 7)];
        let min = minimize(&table);
        let t: BinaryTrie<Ip4, NextHop> = min.iter().copied().collect();
        assert!(t.lookup("11.0.0.1".parse().unwrap()).is_none());
        assert!(t.lookup("10.5.5.5".parse().unwrap()).is_some());
    }

    #[test]
    fn uncovered_gap_between_covered_quarters() {
        // 128/4 -> 2, 160/4 -> 3, 176/4 -> 2; 144/4 is uncovered, so
        // nothing may aggregate across it.
        let table =
            vec![(p("128.0.0.0/4"), 2), (p("160.0.0.0/4"), 3), (p("176.0.0.0/4"), 2)];
        let min = minimize(&table);
        let t: BinaryTrie<Ip4, NextHop> = min.iter().copied().collect();
        assert!(t.lookup("144.0.0.1".parse().unwrap()).is_none(), "{min:?}");
        assert!(forwards_identically(
            &table,
            &min,
            ["128.0.0.1", "152.215.230.96", "160.0.0.1", "176.0.0.1", "191.255.255.255"]
                .iter()
                .map(|s| s.parse().unwrap())
        ));
        assert!(min.len() <= table.len());
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(minimize::<Ip4>(&[]).is_empty());
    }

    #[test]
    fn randomized_equivalence_and_no_growth() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for round in 0..40 {
            let table: Vec<(Prefix<Ip4>, NextHop)> = (0..rng.random_range(5..60))
                .map(|_| {
                    let len = *[4u8, 8, 12, 16, 20].get(rng.random_range(0..5usize)).unwrap();
                    (
                        Prefix::new(
                            Ip4(rng.random_range(0u32..16) << 28 | rng.random::<u32>() >> 8),
                            len,
                        ),
                        rng.random_range(1..4),
                    )
                })
                .collect();
            // Deduplicate prefixes (last wins) the way minimize() does.
            let trie: BinaryTrie<Ip4, NextHop> = table.iter().copied().collect();
            let canonical: Vec<(Prefix<Ip4>, NextHop)> =
                trie.iter().map(|(_, q, v)| (q, *v)).collect();
            let min = minimize(&canonical);
            assert!(
                min.len() <= canonical.len(),
                "round {round}: grew from {} to {}",
                canonical.len(),
                min.len()
            );
            let probes = (0..400).map(|_| Ip4(rng.random()));
            assert!(forwards_identically(&canonical, &min, probes), "round {round}");
            // Also probe each prefix's first/last address (boundaries).
            let edges = canonical
                .iter()
                .flat_map(|(q, _)| [q.first_address(), q.last_address()]);
            assert!(forwards_identically(&canonical, &min, edges), "round {round} edges");
        }
    }

    #[test]
    fn full_coverage_table_compresses_hard() {
        // With a default route the textbook behaviour returns: two /9s
        // plus a default collapse completely.
        let table = vec![
            (p("0.0.0.0/0"), 9),
            (p("10.0.0.0/9"), 9),
            (p("10.128.0.0/9"), 9),
            (p("20.0.0.0/8"), 5),
        ];
        let min = minimize(&table);
        assert_eq!(min.len(), 2, "{min:?}");
        assert!(forwards_identically(
            &table,
            &min,
            ["10.1.1.1", "10.200.0.1", "20.5.5.5", "99.0.0.1"].iter().map(|s| s.parse().unwrap())
        ));
    }

    #[test]
    fn paper_cited_use_case_shrinks_real_shaped_tables() {
        // A synthetic table plus default route: nested same-hop
        // structure compresses.
        let base = crate::synth::synthesize_ipv4(3000, 41);
        let mut entries: Vec<(Prefix<Ip4>, NextHop)> =
            base.iter().map(|q| (*q, (q.bits().0 >> 24) % 3)).collect();
        entries.push((p("0.0.0.0/0"), 9));
        let min = minimize(&entries);
        assert!(min.len() < entries.len(), "{} !< {}", min.len(), entries.len());
    }
}
