//! Extension family: the fixed-stride **multibit trie** — the “go over
//! the address in different jumps” direction the paper cites as [24]
//! (Section 2, software approach 2).
//!
//! The address is consumed `stride` bits at a time; each node is an
//! array of `2^stride` slots built by controlled prefix expansion, so a
//! full IPv4 lookup costs at most `#levels` memory accesses (3 with the
//! default 16-8-8 strides). The price is memory: expansion multiplies
//! entries.
//!
//! This family is *not* in the paper's Tables 4–9 (use
//! [`crate::Family::all`] for the paper's five); it is included because
//! the clue machinery composes with it exactly as with the others — a
//! clue lets the walk start at the deepest stride boundary the clue
//! covers — and it gives the ablation benches a “hardware-ish” baseline
//! that is already near one access per lookup.

use clue_trie::{Address, Cost, Prefix};

use crate::scheme::{Family, LookupScheme};

/// Index of a stride-trie node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SNodeId(u32);

#[derive(Debug, Clone)]
struct Slot<A: Address> {
    /// Longest original prefix covering this expanded slot.
    bmp: Option<Prefix<A>>,
    child: Option<SNodeId>,
}

#[derive(Debug, Clone)]
struct SNode<A: Address> {
    /// Bits consumed before this node (its depth in address bits).
    base: u8,
    /// This node's stride (slot count = `2^stride`).
    stride: u8,
    slots: Vec<Slot<A>>,
}

/// A fixed-stride multibit trie.
#[derive(Debug, Clone)]
pub struct StrideTrie<A: Address> {
    strides: Vec<u8>,
    nodes: Vec<SNode<A>>,
    len: usize,
}

/// The default stride plan: one 16-bit first level, then 8-bit levels to
/// the full width (16-8-8 for IPv4 — the classic DIR-24-ish layout).
pub(crate) fn default_strides(width: u8) -> Vec<u8> {
    let mut strides = vec![16u8.min(width)];
    let mut used = strides[0];
    while used < width {
        let s = 8u8.min(width - used);
        strides.push(s);
        used += s;
    }
    strides
}

impl<A: Address> StrideTrie<A> {
    /// Builds the trie over `prefixes` with the given stride plan.
    ///
    /// # Panics
    /// Panics if the strides do not sum to the address width or any
    /// stride is 0 or larger than 24 (slot arrays would explode).
    pub(crate) fn with_strides<I: IntoIterator<Item = Prefix<A>>>(prefixes: I, strides: Vec<u8>) -> Self {
        assert!(
            strides.iter().map(|&s| s as u32).sum::<u32>() == A::BITS as u32,
            "strides must cover the address width exactly"
        );
        assert!(strides.iter().all(|&s| s > 0 && s <= 24), "stride out of range");

        let mut trie = StrideTrie { strides: strides.clone(), nodes: Vec::new(), len: 0 };
        trie.alloc_node(0, strides[0]);

        // Insert in increasing length order so longer prefixes override
        // shorter ones in the expanded slots (controlled prefix
        // expansion).
        let mut sorted: Vec<Prefix<A>> = prefixes.into_iter().collect();
        sorted.sort_by_key(|p| p.len());
        for p in sorted {
            trie.insert(p);
        }
        trie
    }

    /// Builds with `default_strides`.
    pub fn new<I: IntoIterator<Item = Prefix<A>>>(prefixes: I) -> Self {
        Self::with_strides(prefixes, default_strides(A::BITS))
    }

    fn alloc_node(&mut self, base: u8, stride: u8) -> SNodeId {
        let id = SNodeId(u32::try_from(self.nodes.len()).expect("stride trie too large"));
        self.nodes.push(SNode {
            base,
            stride,
            slots: vec![Slot { bmp: None, child: None }; 1usize << stride],
        });
        id
    }

    fn level_of(&self, base: u8) -> usize {
        let mut acc = 0u8;
        for (i, &s) in self.strides.iter().enumerate() {
            if acc == base {
                return i;
            }
            acc += s;
        }
        panic!("base {base} is not a stride boundary");
    }

    /// Bits `[from, from+width)` of `addr` as a slot index.
    fn chunk(addr: A, from: u8, width: u8) -> usize {
        let mut idx = 0usize;
        for i in 0..width {
            idx = (idx << 1) | addr.bit(from + i) as usize;
        }
        idx
    }

    fn insert(&mut self, p: Prefix<A>) {
        self.len += 1;
        // Descend to the level whose boundary first reaches p's length,
        // creating nodes on p's path.
        let mut node = SNodeId(0);
        loop {
            let (base, stride) = {
                let n = &self.nodes[node.0 as usize];
                (n.base, n.stride)
            };
            let end = base + stride;
            if p.len() <= end {
                // Expand p across the slots it covers at this level.
                let fixed = p.len() - base; // leading bits of the index
                let free = stride - fixed;
                let high = Self::chunk(p.bits(), base, fixed) << free;
                for low in 0..(1usize << free) {
                    let slot = &mut self.nodes[node.0 as usize].slots[high | low];
                    let replace = match slot.bmp {
                        None => true,
                        Some(old) => old.len() <= p.len(),
                    };
                    if replace {
                        slot.bmp = Some(p);
                    }
                }
                return;
            }
            // Descend (create the child if needed).
            let idx = Self::chunk(p.bits(), base, stride);
            let child = self.nodes[node.0 as usize].slots[idx].child;
            node = match child {
                Some(c) => c,
                None => {
                    let level = self.level_of(base);
                    let next_stride = self.strides[level + 1];
                    let c = self.alloc_node(end, next_stride);
                    self.nodes[node.0 as usize].slots[idx].child = Some(c);
                    c
                }
            };
        }
    }

    /// Number of prefixes stored.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no prefixes are stored.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated nodes.
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Longest-prefix match: one memory access per level visited.
    pub fn lookup_counted(&self, addr: A, cost: &mut Cost) -> Option<Prefix<A>> {
        let mut node = SNodeId(0);
        let mut best = None;
        loop {
            cost.trie_node();
            let n = &self.nodes[node.0 as usize];
            let idx = Self::chunk(addr, n.base, n.stride);
            let slot = &n.slots[idx];
            if slot.bmp.is_some() {
                best = slot.bmp;
            }
            match slot.child {
                Some(c) => node = c,
                None => return best,
            }
        }
    }

    /// Uncounted lookup.
    #[cfg(test)]
    pub(crate) fn lookup(&self, addr: A) -> Option<Prefix<A>> {
        self.lookup_counted(addr, &mut Cost::new())
    }

    /// The node on `clue`'s path at the deepest stride boundary at or
    /// below `clue.len()` bits, for clue continuations: the walk can
    /// resume there, skipping the levels the clue already determines.
    /// Returns `None` when the clue is shorter than the first stride
    /// (resume from the root).
    pub fn node_at_clue(&self, clue: &Prefix<A>) -> Option<SNodeId> {
        let mut node = SNodeId(0);
        let mut deepest = None;
        loop {
            let n = &self.nodes[node.0 as usize];
            let end = n.base + n.stride;
            if end > clue.len() {
                return deepest;
            }
            let idx = Self::chunk(clue.bits(), n.base, n.stride);
            match n.slots[idx].child {
                Some(c) => {
                    node = c;
                    deepest = Some(c);
                }
                None => return deepest,
            }
        }
    }

    /// Resumes a lookup at `start` (from [`Self::node_at_clue`]); the
    /// caller merges the result with the clue entry's FD.
    pub fn lookup_from(&self, start: SNodeId, addr: A, cost: &mut Cost) -> Option<Prefix<A>> {
        let mut node = start;
        let mut best = None;
        loop {
            cost.trie_node();
            let n = &self.nodes[node.0 as usize];
            let idx = Self::chunk(addr, n.base, n.stride);
            let slot = &n.slots[idx];
            if slot.bmp.is_some() {
                best = slot.bmp;
            }
            match slot.child {
                Some(c) => node = c,
                None => return best,
            }
        }
    }

    /// Approximate resident size in bytes (the cost of expansion).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.slots.len() * core::mem::size_of::<Slot<A>>()).sum()
    }
}

/// The multibit-stride family as a [`LookupScheme`].
#[derive(Debug, Clone)]
pub(crate) struct StrideScheme<A: Address> {
    trie: StrideTrie<A>,
}

impl<A: Address> StrideScheme<A> {
    /// Builds with the default 16-8-8… stride plan.
    pub(crate) fn new<I: IntoIterator<Item = Prefix<A>>>(prefixes: I) -> Self {
        StrideScheme { trie: StrideTrie::new(prefixes) }
    }

}

impl<A: Address> LookupScheme<A> for StrideScheme<A> {
    fn family(&self) -> Family {
        Family::Stride
    }

    fn lookup(&self, addr: A, cost: &mut Cost) -> Option<Prefix<A>> {
        self.trie.lookup_counted(addr, cost)
    }

    fn memory_bytes(&self) -> usize {
        self.trie.memory_bytes()
    }

    fn clone_box(&self) -> Box<dyn LookupScheme<A> + Send + Sync> {
        Box::new(self.clone())
    }
}

/// Reference check helper used by the tests: compares against the
/// pruned binary trie.
#[cfg(test)]
fn reference<A: Address>(prefixes: &[Prefix<A>], addr: A) -> Option<Prefix<A>> {
    use clue_trie::BinaryTrie;
    let t: BinaryTrie<A, ()> = prefixes.iter().map(|p| (*p, ())).collect();
    t.lookup(addr).map(|r| t.prefix(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_trie::{Ip4, Ip6};

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    fn sample() -> Vec<Prefix<Ip4>> {
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

    #[test]
    fn default_stride_plan_covers_width() {
        assert_eq!(default_strides(32), vec![16, 8, 8]);
        assert_eq!(default_strides(128).iter().map(|&s| s as u32).sum::<u32>(), 128);
        assert_eq!(default_strides(8), vec![8]);
    }

    #[test]
    fn agrees_with_reference() {
        let ps = sample();
        let t = StrideTrie::new(ps.iter().copied());
        for a in [
            "10.1.2.3",
            "10.1.2.200",
            "10.1.9.9",
            "10.99.0.1",
            "172.20.0.1",
            "192.168.1.77",
            "192.168.2.1",
            "8.8.8.8",
            "255.255.255.255",
        ] {
            let addr: Ip4 = a.parse().unwrap();
            assert_eq!(t.lookup(addr), reference(&ps, addr), "addr {a}");
        }
    }

    #[test]
    fn lookup_cost_is_bounded_by_levels() {
        let t = StrideTrie::new(sample());
        let mut c = Cost::new();
        t.lookup_counted("10.1.2.200".parse().unwrap(), &mut c);
        assert!(c.trie_nodes <= 3, "16-8-8 plan must finish in 3 accesses");
        let mut c2 = Cost::new();
        t.lookup_counted("8.8.8.8".parse().unwrap(), &mut c2);
        assert_eq!(c2.trie_nodes, 1, "a first-level miss costs one access");
    }

    #[test]
    fn expansion_prefers_longer_prefixes() {
        // /25 must beat /24 inside the shared expanded range.
        let t = StrideTrie::new(vec![p("10.1.2.0/24"), p("10.1.2.128/25")]);
        assert_eq!(t.lookup("10.1.2.129".parse().unwrap()), Some(p("10.1.2.128/25")));
        assert_eq!(t.lookup("10.1.2.1".parse().unwrap()), Some(p("10.1.2.0/24")));
    }

    #[test]
    fn clue_continuation_skips_determined_levels() {
        let ps = sample();
        let t = StrideTrie::new(ps.iter().copied());
        // Clue 10.1/16: the first 16-bit level is fully determined.
        let start = t.node_at_clue(&p("10.1.0.0/16")).expect("path exists");
        let addr: Ip4 = "10.1.2.200".parse().unwrap();
        let mut c = Cost::new();
        let got = t.lookup_from(start, addr, &mut c);
        assert_eq!(got, Some(p("10.1.2.128/25")));
        assert!(c.trie_nodes <= 2, "one level skipped");
        // A clue shorter than the first stride resumes from the root.
        assert!(t.node_at_clue(&p("10.0.0.0/8")).is_none());
    }

    #[test]
    fn randomized_against_reference() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let ps: Vec<Prefix<Ip4>> = (0..300)
            .map(|_| {
                let len = *[0u8, 8, 12, 15, 16, 17, 22, 24, 28, 32]
                    .get(rng.random_range(0..10usize))
                    .unwrap();
                Prefix::new(Ip4(rng.random()), len)
            })
            .collect();
        let t = StrideTrie::new(ps.iter().copied());
        for _ in 0..500 {
            let addr = Ip4(rng.random());
            assert_eq!(t.lookup(addr), reference(&ps, addr), "addr {addr}");
        }
    }

    #[test]
    fn ipv6_strides_work() {
        let ps: Vec<Prefix<Ip6>> =
            vec!["2001:db8::/32".parse().unwrap(), "2001:db8:1::/48".parse().unwrap()];
        let t = StrideTrie::new(ps.iter().copied());
        let a: Ip6 = "2001:db8:1::42".parse().unwrap();
        assert_eq!(t.lookup(a), Some("2001:db8:1::/48".parse().unwrap()));
        let mut c = Cost::new();
        t.lookup_counted(a, &mut c);
        assert!(c.trie_nodes <= default_strides(128).len() as u64);
    }

    #[test]
    fn memory_reflects_expansion() {
        let small = StrideTrie::new(vec![p("10.0.0.0/8")]);
        let big = StrideTrie::new(sample());
        assert!(big.memory_bytes() >= small.memory_bytes());
        assert!(small.memory_bytes() > 0);
        assert_eq!(big.len(), 8);
        assert!(!big.is_empty());
        assert!(big.node_count() >= 3);
    }

    #[test]
    #[should_panic(expected = "strides must cover")]
    fn bad_stride_plan_panics() {
        let _ = StrideTrie::<Ip4>::with_strides(vec![], vec![16, 8]);
    }
}
