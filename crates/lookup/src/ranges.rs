//! Baselines (3) and (4): search over the endpoints of prefix ranges.
//!
//! Following Lampson–Srinivasan–Varghese [19 in the paper], every prefix
//! is expanded to the address range it covers; the sorted multiset of
//! range endpoints partitions the address line into intervals on which the
//! best matching prefix is constant. A lookup is then a predecessor search
//! over the endpoint array:
//!
//! * **Binary** — classic binary search, one memory access per probe
//!   (`⌈log₂ N⌉` accesses);
//! * **B-way** — each probe fetches a cache line holding `B − 1`
//!   separators (the SDRAM trick of [11]), giving `⌈log_B N⌉` accesses.
//!   The paper uses `B = 6`.
//!
//! Both share one precomputed [`RangeIndex`].

use clue_trie::{Address, BinaryTrie, Cost, Prefix};

use crate::scheme::{Family, LookupScheme};

/// Sorted endpoint array with the precomputed BMP on and between
/// endpoints.
#[derive(Debug, Clone)]
pub struct RangeIndex<A: Address> {
    /// Distinct endpoint addresses, sorted ascending.
    keys: Vec<A>,
    /// BMP of an address equal to `keys[i]`.
    bmp_at: Vec<Option<Prefix<A>>>,
    /// BMP of any address strictly between `keys[i]` and `keys[i + 1]`.
    bmp_after: Vec<Option<Prefix<A>>>,
}

impl<A: Address> RangeIndex<A> {
    /// Builds the index from a set of prefixes.
    pub fn new<I: IntoIterator<Item = Prefix<A>>>(prefixes: I) -> Self {
        let trie: BinaryTrie<A, ()> = prefixes.into_iter().map(|p| (p, ())).collect();
        let mut keys: Vec<A> = Vec::with_capacity(trie.len() * 2);
        for (_, p, _) in trie.iter() {
            keys.push(p.first_address());
            keys.push(p.last_address());
        }
        keys.sort_unstable();
        keys.dedup();

        let bmp = |addr: A| trie.lookup(addr).map(|r| trie.prefix(r));
        let mut bmp_at = Vec::with_capacity(keys.len());
        let mut bmp_after = Vec::with_capacity(keys.len());
        let max = u128::MAX >> (128 - A::BITS as u32);
        for &k in &keys {
            bmp_at.push(bmp(k));
            let v = k.to_u128();
            // BMP is constant on the open interval after k; sample its
            // first point. When k is the top of the address space the
            // interval is empty and the slot is never consulted.
            bmp_after.push(if v >= max { None } else { bmp(A::from_u128(v + 1)) });
        }
        RangeIndex { keys, bmp_at, bmp_after }
    }

    fn resolve(&self, idx: usize, addr: A) -> Option<Prefix<A>> {
        if self.keys[idx] == addr {
            self.bmp_at[idx]
        } else {
            self.bmp_after[idx]
        }
    }

    /// Predecessor search by classic binary search: one
    /// [`Cost::range_probe`] per midpoint comparison.
    pub fn lookup_binary(&self, addr: A, cost: &mut Cost) -> Option<Prefix<A>> {
        let (mut lo, mut hi) = (0usize, self.keys.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            cost.range_probe();
            if self.keys[mid] <= addr {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == 0 {
            None // below every endpoint: no prefix covers addr
        } else {
            self.resolve(lo - 1, addr)
        }
    }

    /// Predecessor search by B-way search: each probe fetches one line of
    /// `b − 1` separators (one [`Cost::range_probe`]), narrowing the range
    /// by a factor of `b`; a final line fetch resolves ranges of up to
    /// `b − 1` keys.
    ///
    /// # Panics
    /// Panics if `b < 2`.
    pub fn lookup_bway(&self, addr: A, b: u8, cost: &mut Cost) -> Option<Prefix<A>> {
        assert!(b >= 2, "B-way search needs B >= 2");
        let b = b as usize;
        let (mut lo, mut hi) = (0usize, self.keys.len());
        // Greatest index known so far with keys[best] <= addr.
        let mut best: Option<usize> = None;
        while hi > lo {
            cost.range_probe();
            if hi - lo < b {
                // The whole remaining range fits in one line: scan it
                // within the single access just charged.
                for i in lo..hi {
                    if self.keys[i] <= addr {
                        best = Some(i);
                    } else {
                        break;
                    }
                }
                break;
            }
            // One access fetches b - 1 evenly spaced separators, which
            // are distinct because hi - lo >= b.
            let span = hi - lo;
            let mut taken = None;
            for k in 1..b {
                let sep = lo + k * span / b;
                if self.keys[sep] <= addr {
                    taken = Some(k);
                } else {
                    break;
                }
            }
            match taken {
                None => hi = lo + span / b, // below the first separator
                Some(k) => {
                    // Descend into the sub-range between separator k
                    // (exclusive on the left, it already matched) and
                    // separator k + 1 (or hi for the last sub-range).
                    let base = lo;
                    let sep = base + k * span / b;
                    best = Some(sep);
                    lo = sep + 1;
                    if k + 1 < b {
                        hi = base + (k + 1) * span / b;
                    }
                }
            }
        }
        best.and_then(|i| self.resolve(i, addr))
    }

    /// Approximate resident size in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.keys.len()
            * (core::mem::size_of::<A>() + 2 * core::mem::size_of::<Option<Prefix<A>>>())
    }
}

/// Baseline (3): binary search over range endpoints.
#[derive(Debug, Clone)]
pub(crate) struct BinaryScheme<A: Address> {
    index: RangeIndex<A>,
}

impl<A: Address> BinaryScheme<A> {
    /// Builds the scheme over the given prefixes.
    pub(crate) fn new<I: IntoIterator<Item = Prefix<A>>>(prefixes: I) -> Self {
        BinaryScheme { index: RangeIndex::new(prefixes) }
    }
}

impl<A: Address> LookupScheme<A> for BinaryScheme<A> {
    fn family(&self) -> Family {
        Family::Binary
    }

    fn lookup(&self, addr: A, cost: &mut Cost) -> Option<Prefix<A>> {
        self.index.lookup_binary(addr, cost)
    }

    fn memory_bytes(&self) -> usize {
        self.index.memory_bytes()
    }

    fn clone_box(&self) -> Box<dyn LookupScheme<A> + Send + Sync> {
        Box::new(self.clone())
    }
}

/// Baseline (4): B-way search over range endpoints (default B = 6).
#[derive(Debug, Clone)]
pub(crate) struct BWayScheme<A: Address> {
    index: RangeIndex<A>,
    b: u8,
}

impl<A: Address> BWayScheme<A> {
    /// Builds the scheme with branching factor `b` (the paper uses 6).
    pub(crate) fn new<I: IntoIterator<Item = Prefix<A>>>(prefixes: I, b: u8) -> Self {
        assert!(b >= 2, "B-way search needs B >= 2");
        BWayScheme { index: RangeIndex::new(prefixes), b }
    }
}

impl<A: Address> LookupScheme<A> for BWayScheme<A> {
    fn family(&self) -> Family {
        Family::BWay(self.b)
    }

    fn lookup(&self, addr: A, cost: &mut Cost) -> Option<Prefix<A>> {
        self.index.lookup_bway(addr, self.b, cost)
    }

    fn memory_bytes(&self) -> usize {
        self.index.memory_bytes()
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
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect()
    }

    fn addrs() -> Vec<Ip4> {
        [
            "0.0.0.0",
            "9.255.255.255",
            "10.0.0.0",
            "10.1.2.3",
            "10.1.2.200",
            "10.1.255.255",
            "10.255.255.255",
            "11.0.0.0",
            "172.20.0.1",
            "192.168.1.77",
            "192.168.2.1",
            "255.255.255.255",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect()
    }

    #[test]
    fn binary_agrees_with_reference() {
        let ps = prefixes();
        let s = BinaryScheme::new(ps.clone());
        for addr in addrs() {
            let mut c = Cost::new();
            assert_eq!(s.lookup(addr, &mut c), reference_bmp(&ps, addr), "addr {addr}");
            assert!(c.range_probes > 0);
        }
    }

    #[test]
    fn bway_agrees_with_reference_for_many_branchings() {
        let ps = prefixes();
        for b in [2u8, 3, 4, 6, 8, 16] {
            let s = BWayScheme::new(ps.clone(), b);
            for addr in addrs() {
                let mut c = Cost::new();
                assert_eq!(
                    s.lookup(addr, &mut c),
                    reference_bmp(&ps, addr),
                    "addr {addr} b {b}"
                );
            }
        }
    }

    #[test]
    fn bway_needs_fewer_probes_than_binary() {
        // Large synthetic table so the log factors separate.
        let ps: Vec<Prefix<Ip4>> =
            (0u32..2000).map(|i| Prefix::new(Ip4(i << 12), 24)).collect();
        let bin = BinaryScheme::new(ps.clone());
        let six = BWayScheme::new(ps.clone(), 6);
        let addr = Ip4(1000 << 12 | 55);
        let (mut cb, mut cs) = (Cost::new(), Cost::new());
        assert_eq!(bin.lookup(addr, &mut cb), six.lookup(addr, &mut cs));
        assert!(
            cs.range_probes < cb.range_probes,
            "6-way {} !< binary {}",
            cs.range_probes,
            cb.range_probes
        );
    }

    #[test]
    fn no_prefix_below_first_endpoint() {
        let ps: Vec<Prefix<Ip4>> = vec!["10.0.0.0/8".parse().unwrap()];
        let s = BinaryScheme::new(ps);
        let mut c = Cost::new();
        assert_eq!(s.lookup("1.2.3.4".parse().unwrap(), &mut c), None);
    }

    #[test]
    fn empty_index() {
        let s = BinaryScheme::<Ip4>::new([]);
        let mut c = Cost::new();
        assert_eq!(s.lookup(Ip4(42), &mut c), None);
        let s6 = BWayScheme::<Ip4>::new([], 6);
        assert_eq!(s6.lookup(Ip4(42), &mut c), None);
    }

    #[test]
    fn top_of_address_space() {
        let ps: Vec<Prefix<Ip4>> =
            vec!["255.255.255.255/32".parse().unwrap(), "255.0.0.0/8".parse().unwrap()];
        let s = BinaryScheme::new(ps.clone());
        let mut c = Cost::new();
        assert_eq!(
            s.lookup("255.255.255.255".parse().unwrap(), &mut c),
            reference_bmp(&ps, "255.255.255.255".parse().unwrap())
        );
    }
}
