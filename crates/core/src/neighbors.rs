//! Sharing clue tables across several neighbors — Section 3.4.
//!
//! A router with `d` neighbors can keep the clue state in four ways:
//!
//! * [`Strategy::Separate`] — one full table per neighbor (maximum
//!   precision for the Advance method, `d×` the space);
//! * [`Strategy::Union`] — a single table over the union of all clue
//!   sets; Claim 1 must then hold **with respect to every neighbor** that
//!   can send the clue, so some clues that would be final per-neighbor
//!   become problematic;
//! * [`Strategy::Bitmap`] — a single table whose entries carry one bit
//!   per neighbor saying “final for you” or “continue” (the paper notes
//!   that when a clue implies the BMP for several neighbors, it implies
//!   the *same* BMP for all — the FD field can be shared);
//! * [`Strategy::SubTables`] — a common table for the clues that behave
//!   identically for every neighbor, plus a small per-neighbor table for
//!   the rest; a lookup may need to consult both (up to two probes).
//!
//! Continuations here use the trie walk (the paper's canonical `Ptr`
//! into the receiver's trie); the family-specialised continuations live
//! in [`crate::ClueEngine`].

use std::collections::{HashMap, HashSet};

use clue_trie::{Address, BinaryTrie, Cost, Prefix};

use crate::classify::{classify, Classification};

/// Table-sharing strategy for a multi-neighbor router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// One independent clue table per neighbor.
    Separate,
    /// One table over the union of clue sets; Claim 1 checked against
    /// all senders of each clue.
    Union,
    /// One table with a per-neighbor continue/final bit.
    Bitmap,
    /// A shared table for uniformly-behaving clues plus per-neighbor
    /// overflow tables.
    SubTables,
}

impl Strategy {
    /// All four strategies.
    pub fn all() -> [Strategy; 4] {
        [Strategy::Separate, Strategy::Union, Strategy::Bitmap, Strategy::SubTables]
    }
}

impl core::fmt::Display for Strategy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Strategy::Separate => "separate",
            Strategy::Union => "union",
            Strategy::Bitmap => "bitmap",
            Strategy::SubTables => "sub-tables",
        })
    }
}

/// One entry of the multi-neighbor table: shared FD, a trie continuation
/// point, and the per-neighbor behaviour.
#[derive(Debug, Clone)]
struct MultiEntry<A: Address> {
    fd: Option<Prefix<A>>,
    /// Continue-bits: `continue_for[j]` says neighbor `j` needs a
    /// continued search (absent neighbors cannot send this clue).
    continue_for: Vec<bool>,
    /// Vertex of the clue in the receiver's trie (present iff any
    /// neighbor needs continuation).
    node: Option<clue_trie::NodeId>,
}

/// A clue table shared by `d` neighbors under one of the four strategies.
#[derive(Debug)]
pub struct MultiNeighborTable<A: Address> {
    strategy: Strategy,
    t2: BinaryTrie<A, ()>,
    neighbors: usize,
    /// Separate: one map per neighbor.
    per_neighbor: Vec<HashMap<Prefix<A>, MultiEntry<A>>>,
    /// Union / Bitmap: one shared map.
    shared: HashMap<Prefix<A>, MultiEntry<A>>,
    /// SubTables: the shared map holds uniform clues; these hold the rest.
    specific: Vec<HashMap<Prefix<A>, MultiEntry<A>>>,
}

impl<A: Address> MultiNeighborTable<A> {
    /// Builds the table for a receiver and the clue sets of its
    /// neighbors, all fully precomputed (Advance semantics).
    pub fn build(receiver: &[Prefix<A>], senders: &[Vec<Prefix<A>>], strategy: Strategy) -> Self {
        let t2: BinaryTrie<A, ()> = receiver.iter().map(|p| (*p, ())).collect();
        let d = senders.len();
        let sender_sets: Vec<HashSet<Prefix<A>>> =
            senders.iter().map(|v| v.iter().copied().collect()).collect();

        // Per (clue, neighbor) classification.
        let mut per_clue: HashMap<Prefix<A>, Vec<Option<Classification<A>>>> = HashMap::new();
        for (j, set) in sender_sets.iter().enumerate() {
            for clue in set {
                if clue.is_empty() {
                    continue;
                }
                let cls = classify(clue, &t2, &|p| set.contains(p));
                per_clue.entry(*clue).or_insert_with(|| vec![None; d])[j] = Some(cls);
            }
        }

        let make_entry = |clue: &Prefix<A>, cls: &[Option<Classification<A>>]| {
            let fd = cls.iter().flatten().next().map(|c| c.fd()).unwrap_or(None);
            let continue_for: Vec<bool> =
                cls.iter().map(|c| c.as_ref().is_some_and(|c| c.is_problematic())).collect();
            let node = if continue_for.iter().any(|&b| b) {
                t2.node_of_prefix(clue)
            } else {
                None
            };
            MultiEntry { fd, continue_for, node }
        };

        type Prepared<A> = Vec<(Prefix<A>, Vec<Option<Classification<A>>>, MultiEntry<A>)>;
        let prepared: Prepared<A> = per_clue
            .into_iter()
            .map(|(clue, cls)| {
                let entry = make_entry(&clue, &cls);
                (clue, cls, entry)
            })
            .collect();

        let mut table = MultiNeighborTable {
            strategy,
            neighbors: d,
            per_neighbor: vec![HashMap::new(); d],
            shared: HashMap::new(),
            specific: vec![HashMap::new(); d],
            t2,
        };

        for (clue, cls, entry) in &prepared {
            match strategy {
                Strategy::Separate => {
                    for (j, c) in cls.iter().enumerate() {
                        if c.is_some() {
                            table.per_neighbor[j].insert(*clue, entry.clone());
                        }
                    }
                }
                Strategy::Union => {
                    // One shared verdict: continue iff *any* sender of
                    // this clue needs it (Claim 1 must hold for all).
                    let any = entry.continue_for.iter().any(|&b| b);
                    let mut e = entry.clone();
                    e.continue_for = vec![any; d];
                    if !any {
                        e.node = None;
                    }
                    table.shared.insert(*clue, e);
                }
                Strategy::Bitmap => {
                    table.shared.insert(*clue, entry.clone());
                }
                Strategy::SubTables => {
                    // Uniform behaviour (same verdict for every sender of
                    // the clue) goes to the common table; the rest into
                    // each divergent neighbor's specific table.
                    let verdicts: Vec<bool> = cls
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| c.is_some())
                        .map(|(j, _)| entry.continue_for[j])
                        .collect();
                    let uniform = verdicts.windows(2).all(|w| w[0] == w[1]);
                    if uniform {
                        table.shared.insert(*clue, entry.clone());
                    } else {
                        for (j, c) in cls.iter().enumerate() {
                            if c.is_some() {
                                table.specific[j].insert(*clue, entry.clone());
                            }
                        }
                    }
                }
            }
        }
        table
    }

    /// Looks up `dest` for a packet from `neighbor` carrying `clue`.
    /// Charges one hash probe per table consulted (two for a sub-table
    /// overflow), plus the continuation walk.
    pub fn lookup(
        &self,
        neighbor: usize,
        dest: A,
        clue: Option<Prefix<A>>,
        cost: &mut Cost,
    ) -> Option<Prefix<A>> {
        assert!(neighbor < self.neighbors, "neighbor index out of range");
        let Some(s) = clue else {
            return self.t2.lookup_counted(dest, cost).map(|r| self.t2.prefix(r));
        };
        let entry = match self.strategy {
            Strategy::Separate => {
                cost.hash_probe();
                self.per_neighbor[neighbor].get(&s)
            }
            Strategy::Union | Strategy::Bitmap => {
                cost.hash_probe();
                self.shared.get(&s)
            }
            Strategy::SubTables => {
                cost.hash_probe();
                match self.shared.get(&s) {
                    Some(e) => Some(e),
                    None => {
                        cost.hash_probe();
                        self.specific[neighbor].get(&s)
                    }
                }
            }
        };
        match entry {
            None => self.t2.lookup_counted(dest, cost).map(|r| self.t2.prefix(r)),
            Some(e) => {
                if e.continue_for.get(neighbor).copied().unwrap_or(false) {
                    let node = e.node.expect("continuation flagged without a vertex");
                    self.t2
                        .lookup_from(node, dest, cost)
                        .map(|r| self.t2.prefix(r))
                        .or(e.fd)
                } else {
                    e.fd
                }
            }
        }
    }

    /// Total entries across all constituent tables — the space the four
    /// strategies trade against lookup precision.
    pub fn entry_count(&self) -> usize {
        match self.strategy {
            Strategy::Separate => self.per_neighbor.iter().map(HashMap::len).sum(),
            Strategy::Union | Strategy::Bitmap => self.shared.len(),
            Strategy::SubTables => {
                self.shared.len() + self.specific.iter().map(HashMap::len).sum::<usize>()
            }
        }
    }

    /// Section 3.5-style size model: clue + FD per entry, a pointer for
    /// continuing entries, plus `d` bits per entry for the bitmap
    /// strategy.
    pub fn memory_bytes_model(&self) -> usize {
        let field = (A::BITS as usize) / 8;
        let entry_bytes = |e: &MultiEntry<A>| {
            2 * field
                + if e.node.is_some() { field } else { 0 }
                + match self.strategy {
                    Strategy::Bitmap => self.neighbors.div_ceil(8),
                    _ => 0,
                }
        };
        match self.strategy {
            Strategy::Separate => self
                .per_neighbor
                .iter()
                .flat_map(|m| m.values())
                .map(entry_bytes)
                .sum(),
            Strategy::Union | Strategy::Bitmap => self.shared.values().map(entry_bytes).sum(),
            Strategy::SubTables => {
                self.shared.values().map(entry_bytes).sum::<usize>()
                    + self
                        .specific
                        .iter()
                        .flat_map(|m| m.values())
                        .map(entry_bytes)
                        .sum::<usize>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_lookup::reference_bmp;

    use clue_trie::Ip4;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    fn setup() -> (Vec<Prefix<Ip4>>, Vec<Vec<Prefix<Ip4>>>) {
        let receiver =
            vec![p("10.0.0.0/8"), p("10.1.0.0/16"), p("10.2.0.0/16"), p("20.0.0.0/8")];
        // Neighbor 0 knows the 10.1 refinement, neighbor 1 does not.
        let senders = vec![
            vec![p("10.0.0.0/8"), p("10.1.0.0/16"), p("20.0.0.0/8")],
            vec![p("10.0.0.0/8"), p("20.0.0.0/8")],
        ];
        (receiver, senders)
    }

    #[test]
    fn all_strategies_return_the_true_bmp() {
        let (receiver, senders) = setup();
        let dests: Vec<Ip4> = ["10.1.2.3", "10.2.9.9", "10.9.9.9", "20.1.1.1", "30.0.0.1"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        for strategy in Strategy::all() {
            let t = MultiNeighborTable::build(&receiver, &senders, strategy);
            for (j, sender) in senders.iter().enumerate() {
                for &dest in &dests {
                    let clue = reference_bmp(sender, dest).filter(|c| !c.is_empty());
                    let mut c = Cost::new();
                    let got = t.lookup(j, dest, clue, &mut c);
                    let want = reference_bmp(&receiver, dest);
                    assert_eq!(got, want, "{strategy} neighbor {j} dest {dest}");
                }
            }
        }
    }

    #[test]
    fn union_is_more_conservative_than_separate() {
        let (receiver, senders) = setup();
        let sep = MultiNeighborTable::build(&receiver, &senders, Strategy::Separate);
        let uni = MultiNeighborTable::build(&receiver, &senders, Strategy::Union);
        // Clue 10/8 from neighbor 0: with per-neighbor tables Claim 1
        // applies against neighbor 0 (which knows 10.1/16)… but 10.2/16
        // is a candidate for both, so both continue. The telling case is
        // a destination under 10.1 with the 10.1/16 clue: final either
        // way. Check access counts ordering on the 10/8 clue instead.
        let dest: Ip4 = "10.9.9.9".parse().unwrap();
        let (mut cs, mut cu) = (Cost::new(), Cost::new());
        let a = sep.lookup(0, dest, Some(p("10.0.0.0/8")), &mut cs);
        let b = uni.lookup(0, dest, Some(p("10.0.0.0/8")), &mut cu);
        assert_eq!(a, b);
        assert!(cu.total() >= cs.total());
        // And the union table is smaller.
        assert!(uni.entry_count() < sep.entry_count());
        assert!(uni.memory_bytes_model() < sep.memory_bytes_model());
    }

    #[test]
    fn bitmap_keeps_per_neighbor_precision_in_one_table() {
        let (receiver, senders) = setup();
        let bm = MultiNeighborTable::build(&receiver, &senders, Strategy::Bitmap);
        let uni = MultiNeighborTable::build(&receiver, &senders, Strategy::Union);
        assert_eq!(bm.entry_count(), uni.entry_count());
        // The 10.1/16 clue is final for neighbor 0 under bitmap.
        let dest: Ip4 = "10.1.2.3".parse().unwrap();
        let mut c = Cost::new();
        assert_eq!(bm.lookup(0, dest, Some(p("10.1.0.0/16")), &mut c), Some(p("10.1.0.0/16")));
        assert_eq!(c.total(), 1);
        // Bitmap entries cost a byte of bits more than union entries.
        assert!(bm.memory_bytes_model() >= uni.memory_bytes_model());
    }

    #[test]
    fn subtables_may_need_two_probes() {
        let (receiver, senders) = setup();
        let st = MultiNeighborTable::build(&receiver, &senders, Strategy::SubTables);
        // 20/8 behaves the same for both neighbors → common table, one
        // probe.
        let dest20: Ip4 = "20.1.1.1".parse().unwrap();
        let mut c = Cost::new();
        assert_eq!(st.lookup(1, dest20, Some(p("20.0.0.0/8")), &mut c), Some(p("20.0.0.0/8")));
        assert_eq!(c.hash_probes, 1);
    }

    #[test]
    fn no_clue_falls_back_to_full_lookup() {
        let (receiver, senders) = setup();
        let t = MultiNeighborTable::build(&receiver, &senders, Strategy::Union);
        let dest: Ip4 = "10.1.2.3".parse().unwrap();
        let mut c = Cost::new();
        assert_eq!(t.lookup(0, dest, None, &mut c), Some(p("10.1.0.0/16")));
        assert!(c.trie_nodes > 1);
    }

    #[test]
    #[should_panic(expected = "neighbor index out of range")]
    fn bad_neighbor_panics() {
        let (receiver, senders) = setup();
        let t = MultiNeighborTable::build(&receiver, &senders, Strategy::Union);
        let mut c = Cost::new();
        let _ = t.lookup(7, "10.0.0.1".parse().unwrap(), None, &mut c);
    }
}
