//! # clue-lookup
//!
//! The five classic IP longest-prefix-match schemes the paper benchmarks
//! against (Section 6), behind one counted-lookup trait:
//!
//! | Paper name | Type | Accesses per lookup |
//! |------------|------|---------------------|
//! | Regular    | `RegularScheme`  — bit-by-bit trie walk | `O(W)` |
//! | Patricia   | `PatriciaScheme` — compressed-trie walk | branch points |
//! | Binary     | `BinaryScheme`   — search over range endpoints | `⌈log₂ 2N⌉` |
//! | 6-way      | `BWayScheme`     — B-way search (cache-line probes) | `⌈log_B 2N⌉` |
//! | Log W      | `LogWScheme`     — binary search over lengths | `⌈log₂ #levels⌉` |
//!
//! All schemes return bit-identical best matching prefixes (property-tested
//! against [`reference_bmp`]); they differ only in the memory accesses they
//! charge — the paper's evaluation metric.
//!
//! The building blocks are exported too, because the clue machinery in
//! `clue-core` re-uses them for the Section 4 continuations:
//! [`RangeIndex`] for clue-restricted binary/B-way searches and
//! [`LengthBinarySearch`] for the clue-restricted Log W search.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod lenbs;
mod ranges;
mod scheme;
mod stride;
mod trie_schemes;

pub use lenbs::LengthBinarySearch;
pub use ranges::RangeIndex;
pub use scheme::{reference_bmp, Family, LookupScheme};
pub use stride::{SNodeId, StrideTrie};

use clue_trie::{Address, Prefix};
use lenbs::LogWScheme;
use ranges::{BWayScheme, BinaryScheme};
use stride::StrideScheme;
use trie_schemes::{PatriciaScheme, RegularScheme};

/// Builds the scheme of the given family over `prefixes`, boxed behind the
/// common trait — convenience for experiment harnesses that sweep the
/// paper's fifteen method combinations (or all eighteen with
/// [`Family::all_extended`]).
pub fn build_scheme<A: Address>(
    family: Family,
    prefixes: &[Prefix<A>],
) -> Box<dyn LookupScheme<A> + Send + Sync> {
    let it = prefixes.iter().copied();
    match family {
        Family::Regular => Box::new(RegularScheme::new(it)),
        Family::Patricia => Box::new(PatriciaScheme::new(it)),
        Family::Binary => Box::new(BinaryScheme::new(it)),
        Family::BWay(b) => Box::new(BWayScheme::new(it, b)),
        Family::LogW => Box::new(LogWScheme::new(it)),
        Family::Stride => Box::new(StrideScheme::new(it)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_trie::{Cost, Ip4};

    #[test]
    fn build_scheme_dispatches_every_family() {
        let ps: Vec<Prefix<Ip4>> =
            ["10.0.0.0/8", "10.1.0.0/16"].iter().map(|s| s.parse().unwrap()).collect();
        let addr: Ip4 = "10.1.2.3".parse().unwrap();
        for fam in Family::all() {
            let s = build_scheme(fam, &ps);
            assert_eq!(s.family(), fam);
            let mut c = Cost::new();
            assert_eq!(s.lookup(addr, &mut c), reference_bmp(&ps, addr), "family {fam}");
            assert!(s.memory_bytes() > 0);
        }
    }

    #[test]
    fn boxed_schemes_clone_into_independent_replicas() {
        let ps: Vec<Prefix<Ip4>> =
            ["10.0.0.0/8", "10.1.0.0/16"].iter().map(|s| s.parse().unwrap()).collect();
        let addr: Ip4 = "10.1.2.3".parse().unwrap();
        for fam in Family::all_extended() {
            let original = build_scheme(fam, &ps);
            let replica = original.clone();
            let (mut c1, mut c2) = (Cost::new(), Cost::new());
            assert_eq!(
                original.lookup(addr, &mut c1),
                replica.lookup(addr, &mut c2),
                "family {fam}"
            );
            assert_eq!(c1, c2, "replica charges identical accesses for {fam}");
            assert_eq!(original.family(), replica.family());
        }
    }
}
