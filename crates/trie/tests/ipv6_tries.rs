//! The trie substrates over 128-bit addresses: everything that the IPv4
//! unit tests check must hold at W = 128 too (the paper's IPv6 scaling
//! argument rests on it).

use clue_trie::{BinaryTrie, Cost, Ip6, PatriciaTrie, Prefix};

fn p(s: &str) -> Prefix<Ip6> {
    s.parse().unwrap()
}

fn a(s: &str) -> Ip6 {
    s.parse().unwrap()
}

fn sample() -> Vec<Prefix<Ip6>> {
    vec![
        p("2001:db8::/32"),
        p("2001:db8:1::/48"),
        p("2001:db8:1:2::/64"),
        p("2001:db8:8000::/33"),
        p("fd00::/8"),
    ]
}

#[test]
fn binary_trie_lookup_at_128_bits() {
    let t: BinaryTrie<Ip6, ()> = sample().into_iter().map(|q| (q, ())).collect();
    assert_eq!(t.lookup(a("2001:db8:1:2::42")).map(|r| t.prefix(r)), Some(p("2001:db8:1:2::/64")));
    assert_eq!(t.lookup(a("2001:db8:1:3::42")).map(|r| t.prefix(r)), Some(p("2001:db8:1::/48")));
    // 2001:db8:9:: has bit 33 clear: only the /32 covers it.
    assert_eq!(t.lookup(a("2001:db8:9::1")).map(|r| t.prefix(r)), Some(p("2001:db8::/32")));
    // 2001:db8:8001:: has bit 33 set: the /33 wins.
    assert_eq!(
        t.lookup(a("2001:db8:8001::1")).map(|r| t.prefix(r)),
        Some(p("2001:db8:8000::/33"))
    );
    assert_eq!(t.lookup(a("fd12::1")).map(|r| t.prefix(r)), Some(p("fd00::/8")));
    assert_eq!(t.lookup(a("2002::1")), None);

    let mut cost = Cost::new();
    t.lookup_counted(a("2001:db8:1:2::42"), &mut cost);
    assert_eq!(cost.trie_nodes, 65, "root + 64 bits of path");
}

#[test]
fn patricia_compression_pays_off_at_128_bits() {
    let pt: PatriciaTrie<Ip6> = sample().into_iter().collect();
    pt.check_invariants().unwrap();
    let bt: BinaryTrie<Ip6, ()> = sample().into_iter().map(|q| (q, ())).collect();
    for addr in ["2001:db8:1:2::42", "2001:db8:ffff::1", "fd00::7", "::1"] {
        let addr: Ip6 = addr.parse().unwrap();
        let (mut cb, mut cp) = (Cost::new(), Cost::new());
        assert_eq!(
            bt.lookup_counted(addr, &mut cb).map(|r| bt.prefix(r)),
            pt.lookup_counted(addr, &mut cp)
        );
        // 128-bit chains make compression dramatic: a handful of
        // branch points instead of a 48-65 vertex walk.
        if cb.trie_nodes > 10 {
            assert!(cp.trie_nodes * 5 <= cb.trie_nodes, "{} vs {}", cp.trie_nodes, cb.trie_nodes);
        }
    }
}

#[test]
fn removal_and_reinsert_at_128_bits() {
    let mut t: BinaryTrie<Ip6, u32> =
        sample().into_iter().enumerate().map(|(i, q)| (q, i as u32)).collect();
    assert_eq!(t.remove(&p("2001:db8:1:2::/64")), Some(2));
    assert_eq!(t.lookup(a("2001:db8:1:2::42")).map(|r| t.prefix(r)), Some(p("2001:db8:1::/48")));
    t.insert(p("2001:db8:1:2::/64"), 9);
    assert_eq!(t.lookup(a("2001:db8:1:2::42")).map(|r| *t.value(r)), Some(9));
}

#[test]
fn full_length_host_routes() {
    let host = p("2001:db8::1/128");
    let mut t: BinaryTrie<Ip6, ()> = BinaryTrie::new();
    t.insert(host, ());
    t.insert(p("2001:db8::/32"), ());
    assert_eq!(t.lookup(a("2001:db8::1")).map(|r| t.prefix(r)), Some(host));
    assert_eq!(t.lookup(a("2001:db8::2")).map(|r| t.prefix(r)), Some(p("2001:db8::/32")));
    let mut pt: PatriciaTrie<Ip6> = PatriciaTrie::new();
    pt.insert(host);
    pt.insert(p("2001:db8::/32"));
    pt.check_invariants().unwrap();
    assert_eq!(pt.lookup_counted(a("2001:db8::1"), &mut Cost::new()), Some(host));
}
