//! The common interface of all longest-prefix-match schemes.

use clue_trie::{Address, Cost, Prefix};

/// One of the five classic lookup families the paper benchmarks
/// (Section 6 calls them Regular, Patricia, Binary, 6-way and Log W).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Bit-by-bit walk of the binary trie (refs. 22, 23 in the paper).
    Regular,
    /// Path-compressed trie walk (refs. 22, 23 in the paper).
    Patricia,
    /// Binary search over the endpoints of prefix ranges (ref. 19).
    Binary,
    /// B-way search over the same endpoints, modelling one cache-line
    /// fetch per probe (ref. 11). The paper uses B = 6.
    BWay(u8),
    /// Binary search over prefix lengths with marker hash tables (ref. 26).
    LogW,
    /// Extension (not in the paper's tables): fixed-stride multibit trie
    /// — the “different jumps” direction of ref. 24, default 16-8-8
    /// strides.
    Stride,
}

impl Family {
    /// The five families at the paper's parameters, in the order its
    /// tables list them.
    pub fn all() -> [Family; 5] {
        [Family::Regular, Family::Patricia, Family::Binary, Family::BWay(6), Family::LogW]
    }

    /// The paper's five families plus this crate's extensions.
    pub fn all_extended() -> [Family; 6] {
        [
            Family::Regular,
            Family::Patricia,
            Family::Binary,
            Family::BWay(6),
            Family::LogW,
            Family::Stride,
        ]
    }

    /// The label used in the paper's tables.
    pub fn label(&self) -> String {
        match self {
            Family::Regular => "Regular".to_owned(),
            Family::Patricia => "Patricia".to_owned(),
            Family::Binary => "Binary".to_owned(),
            Family::BWay(b) => format!("{b}-way"),
            Family::LogW => "Log W".to_owned(),
            Family::Stride => "Stride".to_owned(),
        }
    }
}

impl core::fmt::Display for Family {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A longest-prefix-match structure over a fixed set of prefixes.
///
/// Every scheme returns the **identical** best matching prefix for every
/// address (enforced by cross-scheme equality tests); they differ only in
/// the number of memory accesses charged to [`Cost`].
pub trait LookupScheme<A: Address> {
    /// The family this scheme implements.
    fn family(&self) -> Family;

    /// Longest-prefix match of `addr`, charging memory accesses to `cost`.
    fn lookup(&self, addr: A, cost: &mut Cost) -> Option<Prefix<A>>;

    /// Approximate resident size in bytes, for space comparisons.
    fn memory_bytes(&self) -> usize;

    /// A boxed deep copy of this scheme, behind `Clone` for a boxed
    /// scheme. Every scheme is a plain owned structure, so the copy
    /// shares no state with the original.
    fn clone_box(&self) -> Box<dyn LookupScheme<A> + Send + Sync>;
}

impl<A: Address> Clone for Box<dyn LookupScheme<A> + Send + Sync> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Reference implementation: a linear scan over all prefixes. Hopelessly
/// slow, obviously correct — the oracle all schemes are tested against.
pub fn reference_bmp<A: Address>(prefixes: &[Prefix<A>], addr: A) -> Option<Prefix<A>> {
    prefixes
        .iter()
        .filter(|p| p.contains(addr))
        .max_by_key(|p| p.len())
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_trie::Ip4;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    #[test]
    fn reference_picks_longest() {
        let ps = vec![p("10.0.0.0/8"), p("10.1.0.0/16"), p("0.0.0.0/0")];
        assert_eq!(reference_bmp(&ps, "10.1.2.3".parse().unwrap()), Some(p("10.1.0.0/16")));
        assert_eq!(reference_bmp(&ps, "11.0.0.1".parse().unwrap()), Some(p("0.0.0.0/0")));
        assert_eq!(reference_bmp(&ps[..2], "11.0.0.1".parse().unwrap()), None);
    }

    #[test]
    fn family_labels() {
        assert_eq!(Family::BWay(6).label(), "6-way");
        assert_eq!(Family::LogW.to_string(), "Log W");
        assert_eq!(Family::all().len(), 5);
    }
}
