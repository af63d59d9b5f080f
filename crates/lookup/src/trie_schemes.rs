//! Baselines (1) and (2): the Regular bit-by-bit trie walk and the
//! Patricia walk, as thin [`LookupScheme`] wrappers over `clue-trie`.

use clue_trie::{Address, BinaryTrie, Cost, PatriciaTrie, Prefix};

use crate::scheme::{Family, LookupScheme};

/// Baseline (1): “Regular” — scan the destination bit by bit down the
/// binary trie. Worst case `O(W)` accesses (`W` = address width), the
/// standard scheme the paper reports ~22× slower than Advance.
#[derive(Debug, Clone)]
pub(crate) struct RegularScheme<A: Address> {
    trie: BinaryTrie<A, ()>,
}

impl<A: Address> RegularScheme<A> {
    /// Builds the scheme over the given prefixes.
    pub(crate) fn new<I: IntoIterator<Item = Prefix<A>>>(prefixes: I) -> Self {
        RegularScheme { trie: prefixes.into_iter().map(|p| (p, ())).collect() }
    }

}

impl<A: Address> LookupScheme<A> for RegularScheme<A> {
    fn family(&self) -> Family {
        Family::Regular
    }

    fn lookup(&self, addr: A, cost: &mut Cost) -> Option<Prefix<A>> {
        self.trie.lookup_counted(addr, cost).map(|r| self.trie.prefix(r))
    }

    fn memory_bytes(&self) -> usize {
        self.trie.memory_bytes()
    }

    fn clone_box(&self) -> Box<dyn LookupScheme<A> + Send + Sync> {
        Box::new(self.clone())
    }
}

/// Baseline (2): the Patricia walk — one access per path-compressed vertex
/// visited.
#[derive(Debug, Clone)]
pub(crate) struct PatriciaScheme<A: Address> {
    trie: PatriciaTrie<A>,
}

impl<A: Address> PatriciaScheme<A> {
    /// Builds the scheme over the given prefixes.
    pub(crate) fn new<I: IntoIterator<Item = Prefix<A>>>(prefixes: I) -> Self {
        PatriciaScheme { trie: prefixes.into_iter().collect() }
    }

}

impl<A: Address> LookupScheme<A> for PatriciaScheme<A> {
    fn family(&self) -> Family {
        Family::Patricia
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::reference_bmp;
    use clue_trie::Ip4;

    fn prefixes() -> Vec<Prefix<Ip4>> {
        ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "172.16.0.0/12", "0.0.0.0/0"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect()
    }

    #[test]
    fn regular_agrees_with_reference() {
        let ps = prefixes();
        let s = RegularScheme::new(ps.clone());
        for a in ["10.1.2.3", "10.1.3.4", "172.20.1.1", "8.8.8.8"] {
            let addr: Ip4 = a.parse().unwrap();
            let mut c = Cost::new();
            assert_eq!(s.lookup(addr, &mut c), reference_bmp(&ps, addr), "addr {a}");
            assert!(c.total() > 0);
        }
    }

    #[test]
    fn patricia_agrees_with_reference_and_is_cheaper() {
        let ps = prefixes();
        let reg = RegularScheme::new(ps.clone());
        let pat = PatriciaScheme::new(ps.clone());
        let addr: Ip4 = "10.1.2.3".parse().unwrap();
        let (mut cr, mut cp) = (Cost::new(), Cost::new());
        assert_eq!(reg.lookup(addr, &mut cr), pat.lookup(addr, &mut cp));
        assert!(cp.total() < cr.total());
    }

    #[test]
    fn families_report_correctly() {
        assert_eq!(RegularScheme::<Ip4>::new(prefixes()).family(), Family::Regular);
        assert_eq!(PatriciaScheme::<Ip4>::new(prefixes()).family(), Family::Patricia);
    }
}
