//! Model-based property tests: the tries against a naive reference
//! implementation (a sorted map scanned linearly), under arbitrary
//! insert/remove interleavings.

use std::collections::BTreeMap;

use clue_trie::{BinaryTrie, Cost, Ip4, PatriciaTrie, Prefix};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(Prefix<Ip4>, u32),
    Remove(Prefix<Ip4>),
    Lookup(Ip4),
}

fn arb_prefix() -> impl Strategy<Value = Prefix<Ip4>> {
    // A narrow bit pool makes collisions (and hence removes/overwrites)
    // common.
    (0u32..64, prop_oneof![Just(4u8), Just(8), Just(12), Just(16), Just(24), Just(32)])
        .prop_map(|(bits, len)| Prefix::new(Ip4(bits << 24 | bits << 8), len))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_prefix(), any::<u32>()).prop_map(|(p, v)| Op::Insert(p, v)),
        arb_prefix().prop_map(Op::Remove),
        any::<u32>().prop_map(|a| Op::Lookup(Ip4(a))),
    ]
}

fn model_bmp(model: &BTreeMap<Prefix<Ip4>, u32>, addr: Ip4) -> Option<(Prefix<Ip4>, u32)> {
    model
        .iter()
        .filter(|(p, _)| p.contains(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|(p, v)| (*p, *v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The binary trie behaves exactly like a map + linear scan under
    /// arbitrary operation sequences.
    #[test]
    fn binary_trie_matches_model(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut trie: BinaryTrie<Ip4, u32> = BinaryTrie::new();
        let mut model: BTreeMap<Prefix<Ip4>, u32> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(p, v) => {
                    let (_, old) = trie.insert(p, v);
                    prop_assert_eq!(old, model.insert(p, v));
                }
                Op::Remove(p) => {
                    prop_assert_eq!(trie.remove(&p), model.remove(&p));
                }
                Op::Lookup(addr) => {
                    let got = trie.lookup(addr).map(|r| (trie.prefix(r), *trie.value(r)));
                    prop_assert_eq!(got, model_bmp(&model, addr));
                }
            }
            prop_assert_eq!(trie.len(), model.len());
        }
    }

    /// The Patricia trie stays structurally valid and agrees with the
    /// binary trie on every lookup, under arbitrary churn.
    #[test]
    fn patricia_matches_binary_under_churn(
        ops in proptest::collection::vec(arb_op(), 1..120),
        probes in proptest::collection::vec(any::<u32>(), 8),
    ) {
        let mut bin: BinaryTrie<Ip4, ()> = BinaryTrie::new();
        let mut pat: PatriciaTrie<Ip4> = PatriciaTrie::new();
        for op in ops {
            match op {
                Op::Insert(p, _) => {
                    bin.insert(p, ());
                    pat.insert(p);
                }
                Op::Remove(p) => {
                    let a = bin.remove(&p).is_some();
                    let b = pat.remove(&p);
                    prop_assert_eq!(a, b);
                }
                Op::Lookup(addr) => {
                    let a = Ip4(addr.0);
                    prop_assert_eq!(
                        bin.lookup(a).map(|r| bin.prefix(r)),
                        pat.lookup_counted(a, &mut Cost::new())
                    );
                }
            }
            pat.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(bin.len(), pat.len());
        }
        for raw in probes {
            let addr = Ip4(raw);
            let (mut cb, mut cp) = (Cost::new(), Cost::new());
            prop_assert_eq!(
                bin.lookup_counted(addr, &mut cb).map(|r| bin.prefix(r)),
                pat.lookup_counted(addr, &mut cp)
            );
            // Compression can only reduce the number of visited vertices.
            prop_assert!(cp.trie_nodes <= cb.trie_nodes);
        }
    }

    /// `lookup_from` a vertex equals a full lookup whenever the full
    /// lookup's answer lies at or below that vertex.
    #[test]
    fn lookup_from_is_consistent_with_full_lookup(
        prefixes in proptest::collection::vec(arb_prefix(), 1..40),
        raw in any::<u32>(),
    ) {
        let trie: BinaryTrie<Ip4, ()> = prefixes.iter().map(|p| (*p, ())).collect();
        let addr = Ip4(raw);
        let full = trie.lookup(addr).map(|r| trie.prefix(r));
        if let Some(bmp) = full {
            // Start from every ancestor vertex of the BMP on the path.
            for len in 0..=bmp.len() {
                let anchor = Prefix::of_address(bmp.bits(), len);
                if let Some(node) = trie.node_of_prefix(&anchor) {
                    let mut c = Cost::new();
                    let from = trie.lookup_from(node, addr, &mut c).map(|r| trie.prefix(r));
                    // The walk below the anchor finds the BMP iff the BMP
                    // is at or below the anchor; it is, by construction.
                    prop_assert_eq!(from, Some(bmp));
                }
            }
        }
    }

    /// `best_match_of_prefix` is the BMP of the prefix's first address,
    /// truncated search — i.e. it never returns anything longer than the
    /// query and always a stored prefix of it.
    #[test]
    fn best_match_of_prefix_contract(
        prefixes in proptest::collection::vec(arb_prefix(), 1..40),
        query in arb_prefix(),
    ) {
        let trie: BinaryTrie<Ip4, ()> = prefixes.iter().map(|p| (*p, ())).collect();
        if let Some(r) = trie.best_match_of_prefix(&query) {
            let got = trie.prefix(r);
            prop_assert!(got.len() <= query.len());
            prop_assert!(got.is_prefix_of(&query));
            // Nothing longer qualifies.
            for p in &prefixes {
                if p.is_prefix_of(&query) {
                    prop_assert!(p.len() <= got.len());
                }
            }
        } else {
            for p in &prefixes {
                prop_assert!(!p.is_prefix_of(&query));
            }
        }
    }
}
