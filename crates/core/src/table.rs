//! The clue table: the per-neighbor structure a receiving router consults
//! once per packet (Sections 3.2–3.3 of the paper).
//!
//! Each entry holds the paper's two fields:
//!
//! * **FD** (final decision) — the BMP of the clue string in this router's
//!   trie, used directly when no continued search is needed (`Ptr` empty)
//!   or as the fallback when a continued search fails;
//! * **Ptr** — here a [`Continuation`]: where and how to resume the
//!   lookup. The paper stores a trie pointer; when the engine runs the
//!   Binary/B-way/Log W families the continuation instead holds the
//!   precomputed candidate set `P(s)` of Section 4.
//!
//! The table itself comes in the two flavours of Section 3.3.1:
//!
//! * **Hashed** — keyed by the clue string, one hash probe per consult;
//! * **Indexed** — the sender enumerates its clues and stamps a 16-bit
//!   index on each packet; the receiver reads the slot directly (no hash
//!   function), verifying the stored clue against the received one (a
//!   one-instruction check the paper treats as free). A mismatch means
//!   the slot is stale and is overwritten by the learner.

use std::collections::{BTreeSet, HashMap};

use clue_lookup::{LengthBinarySearch, RangeIndex, SNodeId};
use clue_trie::{Address, Cost, Location, NodeId, Prefix};

use crate::fxhash::FxHashMap;

/// How the clue table is addressed (Section 3.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableKind {
    /// Keyed by the clue string through a hash function (5 header bits).
    Hashed,
    /// Directly indexed by a sender-assigned 16-bit index (21 header
    /// bits, no hash function).
    Indexed,
}

/// The candidate set of a problematic clue, organised for the
/// binary/B-way continuation of Section 4.
///
/// When the set fits in the clue entry's cache line (the paper's SDRAM
/// observation), scanning it costs **no** extra memory access — the line
/// arrived with the entry. Larger sets get a [`RangeIndex`] searched with
/// counted probes.
#[derive(Debug, Clone)]
pub(crate) struct CandidateRange<A: Address> {
    inline: Vec<Prefix<A>>,
    index: Option<RangeIndex<A>>,
}

impl<A: Address> CandidateRange<A> {
    /// Builds from the (sorted) candidate set; sets of at most
    /// `line_capacity` prefixes are kept in line.
    pub(crate) fn new(candidates: Vec<Prefix<A>>, line_capacity: usize) -> Self {
        if candidates.len() <= line_capacity {
            CandidateRange { inline: candidates, index: None }
        } else {
            let index = RangeIndex::new(candidates.iter().copied());
            CandidateRange { inline: candidates, index: Some(index) }
        }
    }

    /// Longest candidate containing `dest`. `bway` selects B-way search
    /// with the given branching factor; `None` selects binary search.
    pub(crate) fn lookup(&self, dest: A, bway: Option<u8>, cost: &mut Cost) -> Option<Prefix<A>> {
        match &self.index {
            None => {
                // In-line scan: free, the line came with the entry.
                self.inline.iter().filter(|p| p.contains(dest)).max_by_key(|p| p.len()).copied()
            }
            Some(index) => match bway {
                Some(b) => index.lookup_bway(dest, b, cost),
                None => index.lookup_binary(dest, cost),
            },
        }
    }

    /// Approximate resident bytes beyond the base entry.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.inline.len() * core::mem::size_of::<Prefix<A>>()
            + self.index.as_ref().map_or(0, RangeIndex::memory_bytes)
    }
}

/// Where and how a continued search proceeds — the family-specific
/// incarnation of the paper's `Ptr` field.
#[derive(Debug, Clone)]
pub(crate) enum Continuation<A: Address> {
    /// Resume the bit-by-bit walk at this vertex (Regular family).
    TrieNode(NodeId),
    /// Resume the Patricia walk at this location (Patricia family).
    PatriciaLoc(Location),
    /// Search the candidate range set (Binary and B-way families).
    /// Boxed, like `Lengths`, so the Regular family's entries stay small.
    Range(Box<CandidateRange<A>>),
    /// Binary-search the candidate lengths (Log W family, Section 4's
    /// “adapting the log W method”).
    Lengths(Box<LengthBinarySearch<A>>),
    /// Resume the multibit walk at this stride node (Stride family,
    /// extension): the clue's bits already determined the earlier
    /// levels.
    StrideNode(SNodeId),
}

/// One clue-table entry: the clue string (kept for verification, as the
/// paper prescribes), the FD field and the optional continuation.
#[derive(Debug, Clone)]
pub struct ClueEntry<A: Address> {
    /// The clue this entry describes (verified on every consult).
    pub clue: Prefix<A>,
    /// Final decision / fallback: the BMP of the clue in this router.
    pub fd: Option<Prefix<A>>,
    /// `None` = the paper's “Ptr = Empty”: FD is final.
    pub(crate) cont: Option<Continuation<A>>,
}

impl<A: Address> ClueEntry<A> {
    /// `true` iff consulting this entry resolves the lookup with no
    /// continued search.
    pub fn is_final(&self) -> bool {
        self.cont.is_none()
    }
}

/// The per-neighbor clue table.
#[derive(Debug, Clone)]
pub struct ClueTable<A: Address> {
    kind: TableKind,
    /// Keyed through the in-workspace fast hasher: this map is probed
    /// once per clue-routed packet, so SipHash would dominate the
    /// “one memory access” the probe is meant to model.
    map: FxHashMap<Prefix<A>, ClueEntry<A>>,
    /// The hashed table's keys in [`Prefix`] order (bits, then length),
    /// so the ancestor/descendant chain of a changed route is a few
    /// probes plus one range scan instead of a filter over every entry.
    /// Built in bulk by the first [`Self::chain`] query and kept in step
    /// by [`Self::insert`] from then on, so a table that never sees a
    /// route update (a serving-only engine) never pays for it.
    keys: Option<BTreeSet<Prefix<A>>>,
    slots: Vec<Option<ClueEntry<A>>>,
}

impl<A: Address> ClueTable<A> {
    /// An empty table of the given kind.
    pub(crate) fn new(kind: TableKind) -> Self {
        Self::with_capacity(kind, 0)
    }

    /// An empty table of the given kind; a hashed one holds `clues`
    /// entries before it first grows.
    pub(crate) fn with_capacity(kind: TableKind, clues: usize) -> Self {
        let clues = if kind == TableKind::Hashed { clues } else { 0 };
        let map = FxHashMap::with_capacity_and_hasher(clues, Default::default());
        ClueTable { kind, map, keys: None, slots: Vec::new() }
    }

    /// The addressing flavour.
    pub(crate) fn kind(&self) -> TableKind {
        self.kind
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self.kind {
            TableKind::Hashed => self.map.len(),
            TableKind::Indexed => self.slots.iter().flatten().count(),
        }
    }

    /// `true` iff the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consults the table for a received clue — **the one mandatory
    /// memory access of every clue-routed lookup**.
    ///
    /// For an [`TableKind::Indexed`] table the sender-stamped `index` is
    /// required; the stored clue is compared against the received one (a
    /// free check) and a mismatch reads as a miss, which makes stale slots
    /// harmless (the paper's robustness argument).
    pub(crate) fn get(&self, clue: &Prefix<A>, index: Option<u16>, cost: &mut Cost) -> Option<&ClueEntry<A>> {
        self.get_with_residency(clue, index, false, cost)
    }

    /// As [`Self::get`], but when `cached` is `true` the entry bytes are
    /// already resident in fast memory (Section 3.5's cache) and the
    /// slow-memory probe is skipped — the caller has charged a
    /// [`Cost::cache_read`] instead.
    pub(crate) fn get_with_residency(
        &self,
        clue: &Prefix<A>,
        index: Option<u16>,
        cached: bool,
        cost: &mut Cost,
    ) -> Option<&ClueEntry<A>> {
        match self.kind {
            TableKind::Hashed => {
                if !cached {
                    cost.hash_probe();
                }
                self.map.get(clue)
            }
            TableKind::Indexed => {
                if !cached {
                    cost.indexed_read();
                }
                let slot = self.slots.get(index? as usize)?.as_ref()?;
                if slot.clue == *clue {
                    Some(slot)
                } else {
                    None // stale slot: the clue moved; treat as a miss
                }
            }
        }
    }

    /// Inserts or overwrites an entry. For indexed tables `index` selects
    /// the slot (required); for hashed tables it is ignored.
    pub(crate) fn insert(&mut self, entry: ClueEntry<A>, index: Option<u16>) {
        match self.kind {
            TableKind::Hashed => {
                let clue = entry.clue;
                if let (None, Some(keys)) = (self.map.insert(clue, entry), &mut self.keys) {
                    keys.insert(clue);
                }
            }
            TableKind::Indexed => {
                let idx = index.expect("indexed clue table requires an index") as usize;
                if self.slots.len() <= idx {
                    self.slots.resize_with(idx + 1, || None);
                }
                self.slots[idx] = Some(entry);
            }
        }
    }

    /// The stored clues on the ancestor/descendant chain of `p` — every
    /// clue `c` with `c.is_prefix_of(p) || p.is_prefix_of(c)`, `p`
    /// itself included — as `(slot, clue)` pairs ready to hand back to
    /// [`Self::insert`] (`None` slots for hashed tables).
    ///
    /// A hashed table answers in O(W + chain): at most W probes for the
    /// strict ancestors `p.truncate(l)`, then one range scan of the key
    /// index from `p` to `(last address of p)/W` — in (bits, length)
    /// order that range holds exactly `p` and its descendants. The
    /// first query builds the index from the sorted keys in one pass.
    /// An indexed table has at most 64K slots and is never frozen, so it
    /// scans them.
    pub(crate) fn chain(&mut self, p: &Prefix<A>) -> Vec<(Option<u16>, Prefix<A>)> {
        match self.kind {
            TableKind::Hashed => {
                let map = &self.map;
                let keys = self.keys.get_or_insert_with(|| map.keys().copied().collect());
                let ancestors =
                    (0..p.len()).map(|l| p.truncate(l)).filter(|a| map.contains_key(a));
                let below = keys.range(*p..=Prefix::new(p.last_address(), A::BITS));
                ancestors.chain(below.copied()).map(|c| (None, c)).collect()
            }
            TableKind::Indexed => self
                .entries_with_indices()
                .filter(|(_, e)| e.clue.is_prefix_of(p) || p.is_prefix_of(&e.clue))
                .map(|(i, e)| (Some(i), e.clue))
                .collect(),
        }
    }

    /// Iterates over the live entries.
    pub fn entries(&self) -> Box<dyn Iterator<Item = &ClueEntry<A>> + '_> {
        match self.kind {
            TableKind::Hashed => Box::new(self.map.values()),
            TableKind::Indexed => Box::new(self.slots.iter().flatten()),
        }
    }

    /// Iterates over indexed slots as `(index, entry)`. Empty for hashed
    /// tables (their entries carry no index).
    pub(crate) fn entries_with_indices(&self) -> impl Iterator<Item = (u16, &ClueEntry<A>)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (i as u16, e)))
    }

    /// The paper's Section 3.5 size model: clue value + FD always, plus a
    /// `Ptr` for problematic entries — each field one address wide
    /// (4 bytes in IPv4). The paper's arithmetic: ~60 000 entries × ~9
    /// bytes ≈ 540 KB.
    pub fn memory_bytes_model(&self) -> usize {
        let field = (A::BITS as usize) / 8;
        self.entries()
            .map(|e| 2 * field + if e.is_final() { 0 } else { field })
            .sum()
    }

    /// Actual resident bytes of this implementation, including candidate
    /// sets (which the paper keeps in the same cache lines) and the boxed
    /// continuation records that hold them. The ordered key index serves
    /// route updates, not lookups, and is not counted.
    pub fn memory_bytes_actual(&self) -> usize {
        let base = core::mem::size_of::<ClueEntry<A>>();
        self.entries()
            .map(|e| {
                base + match &e.cont {
                    Some(Continuation::Range(r)) => {
                        core::mem::size_of::<CandidateRange<A>>() + r.memory_bytes()
                    }
                    Some(Continuation::Lengths(l)) => {
                        core::mem::size_of::<LengthBinarySearch<A>>() + l.memory_bytes()
                    }
                    _ => 0,
                }
            })
            .sum()
    }

    /// Fraction of entries that require a continued search — the paper's
    /// “problematic clue” ratio (Table 2: under 10 %, usually ≪ 1 %).
    pub fn problematic_fraction(&self) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        let bad = self.entries().filter(|e| !e.is_final()).count();
        bad as f64 / n as f64
    }
}

/// Sender-side enumerator for the indexing technique: assigns each clue a
/// stable 16-bit index the first time it is sent to a given neighbor
/// (Section 3.3.1 assumes at most 64 K clues per neighbor pair).
#[derive(Debug, Clone, Default)]
pub struct ClueIndexer<A: Address> {
    indices: HashMap<Prefix<A>, u16>,
}

impl<A: Address> ClueIndexer<A> {
    /// An empty indexer.
    pub fn new() -> Self {
        ClueIndexer { indices: HashMap::new() }
    }

    /// The index for `clue`, assigning the next free one on first use.
    ///
    /// # Panics
    /// Panics after 65 536 distinct clues (the paper's 16-bit budget).
    pub fn index_of(&mut self, clue: &Prefix<A>) -> u16 {
        let next = self.indices.len();
        *self.indices.entry(*clue).or_insert_with(|| {
            u16::try_from(next).expect("more than 64K clues for one neighbor")
        })
    }

    /// Number of clues enumerated so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.indices.len()
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_trie::Ip4;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    fn entry(clue: &str, fd: Option<&str>) -> ClueEntry<Ip4> {
        ClueEntry { clue: p(clue), fd: fd.map(p), cont: None }
    }

    #[test]
    fn hashed_get_costs_one_probe() {
        let mut t = ClueTable::new(TableKind::Hashed);
        t.insert(entry("10.0.0.0/8", Some("10.0.0.0/8")), None);
        let mut c = Cost::new();
        let e = t.get(&p("10.0.0.0/8"), None, &mut c).unwrap();
        assert_eq!(e.fd, Some(p("10.0.0.0/8")));
        assert_eq!(c.hash_probes, 1);
        assert_eq!(c.total(), 1);
        // Miss also costs exactly one probe.
        let mut c2 = Cost::new();
        assert!(t.get(&p("77.0.0.0/8"), None, &mut c2).is_none());
        assert_eq!(c2.total(), 1);
    }

    #[test]
    fn indexed_get_verifies_stored_clue() {
        let mut t = ClueTable::new(TableKind::Indexed);
        t.insert(entry("10.0.0.0/8", None), Some(3));
        let mut c = Cost::new();
        assert!(t.get(&p("10.0.0.0/8"), Some(3), &mut c).is_some());
        assert_eq!(c.indexed_reads, 1);
        // Stale slot: stored clue differs → miss, not confusion.
        assert!(t.get(&p("20.0.0.0/8"), Some(3), &mut c).is_none());
        // Unknown slot → miss.
        assert!(t.get(&p("10.0.0.0/8"), Some(9), &mut c).is_none());
        // Missing index → miss.
        assert!(t.get(&p("10.0.0.0/8"), None, &mut c).is_none());
    }

    #[test]
    fn indexed_overwrite_replaces_slot() {
        let mut t = ClueTable::new(TableKind::Indexed);
        t.insert(entry("10.0.0.0/8", None), Some(0));
        t.insert(entry("20.0.0.0/8", None), Some(0));
        let mut c = Cost::new();
        assert!(t.get(&p("10.0.0.0/8"), Some(0), &mut c).is_none());
        assert!(t.get(&p("20.0.0.0/8"), Some(0), &mut c).is_some());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn memory_model_matches_paper_arithmetic() {
        let mut t = ClueTable::new(TableKind::Hashed);
        for i in 0..100u32 {
            let mut e = entry(&format!("{}.0.0.0/8", i + 1), None);
            if i < 10 {
                e.cont = Some(Continuation::Range(Box::new(CandidateRange::new(vec![], 3))));
            }
            t.insert(e, None);
        }
        // 90 final entries at 8 B + 10 problematic at 12 B = 840 B.
        assert_eq!(t.memory_bytes_model(), 90 * 8 + 10 * 12);
        assert!((t.problematic_fraction() - 0.10).abs() < 1e-9);
    }

    #[test]
    fn entry_record_is_compact() {
        // The Regular family's entries never hold a candidate set: the
        // boxed Range/Lengths continuations keep the record at 40 B.
        assert_eq!(core::mem::size_of::<ClueEntry<Ip4>>(), 40);
    }

    #[test]
    fn actual_size_counts_boxed_continuations() {
        let mut t = ClueTable::new(TableKind::Hashed);
        t.insert(entry("10.0.0.0/8", None), None);
        let base = core::mem::size_of::<ClueEntry<Ip4>>();
        assert_eq!(t.memory_bytes_actual(), base);
        let cands = vec![p("20.1.0.0/16"), p("20.2.0.0/16")];
        let range = CandidateRange::new(cands.clone(), 3);
        let range_heap = range.memory_bytes();
        let mut e = entry("20.0.0.0/8", None);
        e.cont = Some(Continuation::Range(Box::new(range)));
        t.insert(e, None);
        let lengths = LengthBinarySearch::new(cands);
        let lengths_heap = lengths.memory_bytes();
        let mut e = entry("30.0.0.0/8", None);
        e.cont = Some(Continuation::Lengths(Box::new(lengths)));
        t.insert(e, None);
        assert_eq!(
            t.memory_bytes_actual(),
            3 * base
                + core::mem::size_of::<CandidateRange<Ip4>>()
                + range_heap
                + core::mem::size_of::<LengthBinarySearch<Ip4>>()
                + lengths_heap
        );
    }

    #[test]
    fn candidate_range_inline_is_free() {
        let cr = CandidateRange::new(vec![p("10.1.0.0/16"), p("10.2.0.0/16")], 3);
        assert!(cr.index.is_none(), "a small set stays inline");
        let mut c = Cost::new();
        assert_eq!(
            cr.lookup("10.1.9.9".parse().unwrap(), None, &mut c),
            Some(p("10.1.0.0/16"))
        );
        assert_eq!(c.total(), 0);
        assert_eq!(cr.lookup("10.9.9.9".parse().unwrap(), None, &mut c), None);
    }

    #[test]
    fn candidate_range_large_uses_counted_search() {
        let cands: Vec<Prefix<Ip4>> =
            (0..32u32).map(|i| Prefix::new(Ip4(0x0A00_0000 | i << 16), 16)).collect();
        let cr = CandidateRange::new(cands, 3);
        assert!(cr.index.is_some(), "a large set gets a counted index");
        let mut c = Cost::new();
        let addr: Ip4 = "10.5.1.2".parse().unwrap();
        assert_eq!(cr.lookup(addr, None, &mut c), Some(p("10.5.0.0/16")));
        assert!(c.range_probes > 0);
        let mut c6 = Cost::new();
        assert_eq!(cr.lookup(addr, Some(6), &mut c6), Some(p("10.5.0.0/16")));
        assert!(c6.range_probes <= c.range_probes);
    }

    #[test]
    fn indexer_assigns_stable_indices() {
        let mut ix = ClueIndexer::new();
        let a = ix.index_of(&p("10.0.0.0/8"));
        let b = ix.index_of(&p("20.0.0.0/8"));
        assert_ne!(a, b);
        assert_eq!(ix.index_of(&p("10.0.0.0/8")), a);
        assert_eq!(ix.len(), 2);
    }

    #[test]
    fn chain_equals_the_full_scan_filter() {
        let clues = [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "10.0.0.0/16",
            "10.1.0.0/16",
            "10.1.2.0/24",
            "10.1.2.3/32",
            "10.1.2.4/32",
            "10.255.255.255/32",
            "11.0.0.0/8",
            "128.0.0.0/1",
            "255.255.255.255/32",
        ];
        let probes = [
            "0.0.0.0/0",          // root: every clue is a descendant
            "10.0.0.0/8",         // present, with ancestors and descendants
            "10.1.0.0/12",        // absent, between stored clues
            "10.1.2.3/32",        // present host route
            "10.1.2.5/32",        // absent host route
            "10.128.0.0/9",       // absent, range ends at a stored /32
            "12.0.0.0/8",         // absent, no descendants
            "255.255.255.255/32", // the top of the address space
        ];
        for kind in [TableKind::Hashed, TableKind::Indexed] {
            let mut t = ClueTable::new(kind);
            for (i, c) in clues.iter().enumerate() {
                if i == clues.len() / 2 {
                    // Build the key index midway: later inserts must
                    // keep it in step.
                    t.chain(&p("0.0.0.0/0"));
                }
                t.insert(entry(c, None), Some(i as u16));
            }
            // Overwriting an existing clue must not disturb the index.
            t.insert(entry("10.0.0.0/8", Some("10.0.0.0/8")), Some(1));
            for probe in probes {
                let q = p(probe);
                let mut got: Vec<_> = t.chain(&q).into_iter().map(|(_, c)| c).collect();
                got.sort();
                let mut want: Vec<_> = t
                    .entries()
                    .map(|e| e.clue)
                    .filter(|c| c.is_prefix_of(&q) || q.is_prefix_of(c))
                    .collect();
                want.sort();
                assert_eq!(got, want, "{kind:?} chain of {q}");
            }
        }
    }

}
