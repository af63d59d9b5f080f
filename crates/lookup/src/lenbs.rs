//! Baseline (5): binary search over prefix *lengths* with marker hash
//! tables — Waldvogel, Varghese, Turner, Plattner (“Log W”, [26] in the
//! paper).
//!
//! One hash table per populated prefix length. A lookup binary-searches
//! the sorted list of lengths: probing length `l` hashes the destination's
//! leading `l` bits; a hit steers the search toward longer lengths, a miss
//! toward shorter ones. **Markers** — artificial entries left at the
//! levels a search would probe on its way to a longer prefix — make the
//! steering sound, and each marker precomputes the BMP of its own string
//! so that a failed excursion never needs to backtrack.
//!
//! The same structure, built over a *candidate set* `P(s, R1)` instead of
//! a full table, implements the paper's Section 4 “adapting the log W
//! method” clue continuation: the clue bounds the candidate lengths, so
//! the search runs over `log |lengths(P)|` levels instead of `log W`.

use std::collections::HashMap;

use clue_trie::{Address, BinaryTrie, Cost, Prefix};

use crate::scheme::{Family, LookupScheme};

#[derive(Debug, Clone)]
struct Entry<A: Address> {
    /// BMP of this entry's string within the built prefix set. For a real
    /// prefix this is the prefix itself; for a pure marker it is the
    /// longest real prefix of the marker string (possibly `None`).
    bmp: Option<Prefix<A>>,
}

/// Binary search over prefix lengths with markers.
#[derive(Debug, Clone)]
pub struct LengthBinarySearch<A: Address> {
    /// Sorted distinct prefix lengths that have a hash table.
    levels: Vec<u8>,
    /// One hash table per level, keyed by the masked leading bits.
    tables: Vec<HashMap<A, Entry<A>>>,
}

impl<A: Address> LengthBinarySearch<A> {
    /// Builds the structure (tables + markers + precomputed marker BMPs)
    /// over the given prefixes.
    pub fn new<I: IntoIterator<Item = Prefix<A>>>(prefixes: I) -> Self {
        let trie: BinaryTrie<A, ()> = prefixes.into_iter().map(|p| (p, ())).collect();
        let mut levels: Vec<u8> = trie.prefixes().map(|p| p.len()).collect();
        levels.sort_unstable();
        levels.dedup();
        let mut tables: Vec<HashMap<A, Entry<A>>> = vec![HashMap::new(); levels.len()];

        let level_index: HashMap<u8, usize> =
            levels.iter().enumerate().map(|(i, &l)| (l, i)).collect();

        for p in trie.prefixes() {
            // Real entry. Its BMP is itself.
            let li = level_index[&p.len()];
            tables[li].insert(p.bits(), Entry { bmp: Some(p) });

            // Markers along the binary-search probe path toward p's level.
            let (mut lo, mut hi) = (0usize, levels.len());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                match levels[mid].cmp(&p.len()) {
                    core::cmp::Ordering::Less => {
                        let marker = p.truncate(levels[mid]);
                        let slot = tables[mid].entry(marker.bits()).or_insert_with(|| Entry {
                            bmp: trie
                                .best_match_of_prefix(&marker)
                                .map(|r| trie.prefix(r)),
                        });
                        // A real prefix may already sit here; keep its bmp.
                        let _ = slot;
                        lo = mid + 1;
                    }
                    core::cmp::Ordering::Equal => break,
                    core::cmp::Ordering::Greater => hi = mid,
                }
            }
        }
        LengthBinarySearch { levels, tables }
    }

    /// Longest-prefix match of `addr`: one [`Cost::hash_probe`] per level
    /// probed (`⌈log₂(#levels + 1)⌉` probes at most).
    pub fn lookup(&self, addr: A, cost: &mut Cost) -> Option<Prefix<A>> {
        let (mut lo, mut hi) = (0usize, self.levels.len());
        let mut best = None;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            cost.hash_probe();
            let key = addr.mask(self.levels[mid]);
            match self.tables[mid].get(&key) {
                Some(e) => {
                    if e.bmp.is_some() {
                        best = e.bmp;
                    }
                    lo = mid + 1;
                }
                None => hi = mid,
            }
        }
        best
    }

    /// The populated prefix lengths, sorted ascending.
    pub fn levels(&self) -> &[u8] {
        &self.levels
    }

    /// Total number of entries across all levels (real + markers) — the
    /// `O(N log W)` space the paper cites for this scheme.
    pub fn entry_count(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// Approximate resident size in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.entry_count()
            * (core::mem::size_of::<A>() + core::mem::size_of::<Entry<A>>())
            + self.levels.len() * core::mem::size_of::<u8>()
    }
}

/// Baseline (5) as a [`LookupScheme`].
#[derive(Debug, Clone)]
pub(crate) struct LogWScheme<A: Address> {
    search: LengthBinarySearch<A>,
}

impl<A: Address> LogWScheme<A> {
    /// Builds the scheme over the given prefixes.
    pub(crate) fn new<I: IntoIterator<Item = Prefix<A>>>(prefixes: I) -> Self {
        LogWScheme { search: LengthBinarySearch::new(prefixes) }
    }

    /// The underlying length-binary-search structure.
    #[cfg(test)]
    pub(crate) fn search(&self) -> &LengthBinarySearch<A> {
        &self.search
    }
}

impl<A: Address> LookupScheme<A> for LogWScheme<A> {
    fn family(&self) -> Family {
        Family::LogW
    }

    fn lookup(&self, addr: A, cost: &mut Cost) -> Option<Prefix<A>> {
        self.search.lookup(addr, cost)
    }

    fn memory_bytes(&self) -> usize {
        self.search.memory_bytes()
    }

    fn clone_box(&self) -> Box<dyn LookupScheme<A> + Send + Sync> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::reference_bmp;
    use clue_trie::Ip4;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    fn prefixes() -> Vec<Prefix<Ip4>> {
        [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "10.1.0.0/16",
            "10.1.2.0/24",
            "10.1.2.128/25",
            "172.16.0.0/12",
            "192.168.0.0/16",
            "192.168.1.0/24",
            "192.168.1.128/26",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect()
    }

    #[test]
    fn agrees_with_reference() {
        let ps = prefixes();
        let s = LogWScheme::new(ps.clone());
        for a in [
            "10.1.2.3",
            "10.1.2.200",
            "10.1.9.9",
            "10.2.0.1",
            "172.20.0.1",
            "192.168.1.150",
            "192.168.1.1",
            "8.8.8.8",
            "255.255.255.255",
        ] {
            let addr: Ip4 = a.parse().unwrap();
            let mut c = Cost::new();
            assert_eq!(s.lookup(addr, &mut c), reference_bmp(&ps, addr), "addr {a}");
        }
    }

    #[test]
    fn probe_count_is_logarithmic_in_levels() {
        let ps = prefixes(); // lengths {0, 8, 12, 16, 24, 25, 26} = 7 levels
        let s = LogWScheme::new(ps);
        assert_eq!(s.search().levels().len(), 7);
        let mut c = Cost::new();
        s.lookup("10.1.2.3".parse().unwrap(), &mut c);
        assert!(c.hash_probes <= 3, "expected <= ceil(log2(8)) probes, got {}", c.hash_probes);
        assert!(c.hash_probes >= 1);
    }

    #[test]
    fn markers_guide_search_to_deep_prefixes() {
        // Without the /8 and /16 markers, the search for 10.1.2.200 would
        // miss at the midpoint and never reach /25.
        let ps = vec![p("10.1.2.128/25"), p("77.0.0.0/8"), p("88.99.0.0/16")];
        let s = LogWScheme::new(ps.clone());
        let addr: Ip4 = "10.1.2.200".parse().unwrap();
        let mut c = Cost::new();
        assert_eq!(s.lookup(addr, &mut c), Some(p("10.1.2.128/25")));
        // And an address sharing the marker but not the prefix falls back
        // to the marker's precomputed BMP (here: none).
        let near: Ip4 = "10.1.2.1".parse().unwrap();
        let mut c2 = Cost::new();
        assert_eq!(s.lookup(near, &mut c2), reference_bmp(&ps, near));
    }

    #[test]
    fn marker_bmp_fallback_is_used() {
        // 10/8 is real; marker for /25 at /16 must carry bmp = 10/8 so a
        // destination matching the marker but not the /25 still gets /8.
        let ps = vec![p("10.0.0.0/8"), p("10.1.0.0/25"), p("99.0.0.0/8")];
        let s = LogWScheme::new(ps.clone());
        let addr: Ip4 = "10.1.0.200".parse().unwrap(); // matches /16 marker, not /25
        let mut c = Cost::new();
        assert_eq!(s.lookup(addr, &mut c), Some(p("10.0.0.0/8")));
    }

    #[test]
    fn empty_table() {
        let s = LogWScheme::<Ip4>::new([]);
        let mut c = Cost::new();
        assert_eq!(s.lookup(Ip4(7), &mut c), None);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn entry_count_includes_markers() {
        let ps = vec![p("10.1.2.128/25"), p("77.0.0.0/8"), p("88.99.0.0/16")];
        let s = LogWScheme::new(ps);
        assert!(s.search().entry_count() > 3, "markers should add entries");
    }

    #[test]
    fn single_level_needs_one_probe() {
        let ps: Vec<Prefix<Ip4>> = (0..64u32).map(|i| Prefix::new(Ip4(i << 24), 8)).collect();
        let s = LogWScheme::new(ps);
        let mut c = Cost::new();
        assert_eq!(s.lookup(Ip4(5 << 24 | 123), &mut c), Some(Prefix::new(Ip4(5 << 24), 8)));
        assert_eq!(c.hash_probes, 1);
    }
}
