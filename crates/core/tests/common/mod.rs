//! Strategies and workloads shared by the compiled-backend equivalence
//! property tests: IPv4 table shapes, their IPv6 widening (with `/64`
//! and `/128` hosts) and a destination/clue workload over either width.

#![allow(dead_code)]

use clue_lookup::reference_bmp;
use clue_trie::{Address, Ip4, Ip6, Prefix};
use proptest::prelude::*;

pub fn arb_prefix() -> impl Strategy<Value = Prefix<Ip4>> {
    (
        0u32..256,
        prop_oneof![Just(6u8), Just(8), Just(12), Just(16), Just(20), Just(24)],
    )
        .prop_map(|(bits, len)| Prefix::new(Ip4(bits << 24 | bits << 16 | bits << 4), len))
}

pub fn arb_tables() -> impl Strategy<Value = (Vec<Prefix<Ip4>>, Vec<Prefix<Ip4>>)> {
    (
        proptest::collection::hash_set(arb_prefix(), 1..40),
        proptest::collection::hash_set(arb_prefix(), 1..40),
        proptest::collection::hash_set(arb_prefix(), 0..20),
    )
        .prop_map(|(shared, s_only, r_only)| {
            let sender: Vec<_> = shared.union(&s_only).copied().collect();
            let receiver: Vec<_> = shared.union(&r_only).copied().collect();
            (sender, receiver)
        })
}

/// An IPv4 value in the top 32 bits of an IPv6 address.
pub fn ip6(v: u32) -> Ip6 {
    Ip6(u128::from(v) << 96)
}

/// The IPv4 tables widened to IPv6, plus a `/64` and a `/128` host
/// under each of a few sender prefixes: the `/64` goes to both tables
/// (a clue), the `/128` to the receiver and, for odd seeds, the
/// sender too (a clue at full depth). Also returns the `/128` host
/// addresses, which [`workload6`] sends packets to.
pub fn widen(
    sender: &[Prefix<Ip4>],
    receiver: &[Prefix<Ip4>],
    hosts: &[u64],
) -> (Vec<Prefix<Ip6>>, Vec<Prefix<Ip6>>, Vec<Ip6>) {
    let w = |p: &Prefix<Ip4>| Prefix::new(ip6(p.bits().0), p.len());
    let mut s: Vec<_> = sender.iter().map(w).collect();
    let mut r: Vec<_> = receiver.iter().map(w).collect();
    let mut addrs = Vec::new();
    for &h in hosts {
        let base = s[h as usize % sender.len()].bits().0;
        let net = Prefix::new(Ip6(base | u128::from(h as u32) << 64), 64);
        let host = Prefix::new(Ip6(net.bits().0 | u128::from(h)), 128);
        for p in [net, host] {
            if !r.contains(&p) {
                r.push(p);
            }
        }
        if !s.contains(&net) {
            s.push(net);
        }
        if h % 2 == 1 && !s.contains(&host) {
            s.push(host);
        }
        addrs.push(host.bits());
    }
    (s, r, addrs)
}

/// The IPv6 workload: [`workload`] plus one honest-clue packet to each
/// `/128` host, so continued walks run all the way down to depth 128.
pub fn workload6(
    sender: &[Prefix<Ip6>],
    raws: &[u32],
    hosts: &[Ip6],
) -> (Vec<Ip6>, Vec<Option<Prefix<Ip6>>>) {
    let (mut dests, mut clues) = workload(sender, raws, ip6);
    for &h in hosts {
        dests.push(h);
        clues.push(reference_bmp(sender, h).filter(|c| !c.is_empty()));
    }
    (dests, clues)
}

/// Destinations biased into covered space so every lookup class shows
/// up, plus honest clues (with occasional raw-bit malformed ones).
pub fn workload<A: Address>(
    sender: &[Prefix<A>],
    raws: &[u32],
    addr: fn(u32) -> A,
) -> (Vec<A>, Vec<Option<Prefix<A>>>) {
    let mut dests = Vec::with_capacity(raws.len());
    let mut clues = Vec::with_capacity(raws.len());
    for (i, &r) in raws.iter().enumerate() {
        let dest = if i % 2 == 0 {
            let p = sender[i % sender.len()];
            let noise = if p.len() == A::BITS {
                0
            } else {
                addr(r).to_u128() >> p.len()
            };
            A::from_u128(p.bits().to_u128() | noise)
        } else {
            addr(r)
        };
        let clue = match i % 5 {
            // Malformed: a clue string unrelated to the destination.
            4 => Some(Prefix::new(A::from_u128(!dest.to_u128()), 16)).filter(|c| !c.contains(dest)),
            _ => reference_bmp(sender, dest).filter(|c| !c.is_empty()),
        };
        dests.push(dest);
        clues.push(clue);
    }
    (dests, clues)
}
