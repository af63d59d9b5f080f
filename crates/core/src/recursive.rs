//! BGP over OSPF: the double table walk of Section 5.2.
//!
//! A border router often resolves a packet in two steps: the **BGP**
//! table maps the destination to a *next-hop router address* (no
//! interface attached), and the **IGP** (OSPF) table maps that next-hop
//! address to the actual outgoing interface — “the router goes twice
//! through its forwarding table”.
//!
//! The paper's point: the clue scheme still applies. The clue placed on
//! the packet is the *first* BMP (the BGP-level one), because that is
//! what the downstream router starts from; “in some cases it might be
//! beneficial to place both BMPs on the packet”, which
//! [`RecursiveLookup::lookup_with_clues`] supports — the second clue
//! accelerates the IGP resolution of the (shared) next-hop address.

use clue_trie::{Address, BinaryTrie, Cost, Prefix};

use crate::engine::{ClueEngine, EngineConfig};

/// The outcome of a two-stage resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecursiveResult<A: Address> {
    /// The BGP-level best matching prefix of the destination.
    pub bgp_bmp: Prefix<A>,
    /// The BGP next-hop router address.
    pub next_hop: A,
    /// The IGP-level best matching prefix of the next-hop address.
    pub igp_bmp: Prefix<A>,
    /// The outgoing interface resolved through the IGP.
    pub interface: u32,
}

/// A two-table router: BGP prefixes resolving to next-hop addresses,
/// IGP prefixes resolving to interfaces, with clue engines for both
/// stages.
#[derive(Debug)]
pub struct RecursiveLookup<A: Address> {
    bgp: BinaryTrie<A, A>,
    igp: BinaryTrie<A, u32>,
    bgp_engine: ClueEngine<A>,
    igp_engine: ClueEngine<A>,
}

impl<A: Address> RecursiveLookup<A> {
    /// Builds the router.
    ///
    /// * `bgp` — destination prefixes and their next-hop router address;
    /// * `igp` — internal prefixes and their interface;
    /// * `upstream_bgp` / `upstream_igp` — the clue-sending neighbor's
    ///   prefix sets (for the Claim 1 precomputation);
    /// * `config` — family/method shared by both stages.
    pub fn new(
        bgp: Vec<(Prefix<A>, A)>,
        igp: Vec<(Prefix<A>, u32)>,
        upstream_bgp: &[Prefix<A>],
        upstream_igp: &[Prefix<A>],
        config: EngineConfig,
    ) -> Self {
        let bgp_prefixes: Vec<Prefix<A>> = bgp.iter().map(|(p, _)| *p).collect();
        let igp_prefixes: Vec<Prefix<A>> = igp.iter().map(|(p, _)| *p).collect();
        RecursiveLookup {
            bgp: bgp.into_iter().collect(),
            igp: igp.into_iter().collect(),
            bgp_engine: ClueEngine::precomputed(upstream_bgp, &bgp_prefixes, config),
            igp_engine: ClueEngine::precomputed(upstream_igp, &igp_prefixes, config),
        }
    }

    /// The clue-less double lookup: BGP walk on the destination, then an
    /// IGP walk on the next-hop address. Both stages are counted.
    pub fn lookup(&self, dest: A, cost: &mut Cost) -> Option<RecursiveResult<A>> {
        let bgp_bmp = self.bgp_engine.common_lookup(dest, cost)?;
        let next_hop = *self.bgp.value(self.bgp.get(&bgp_bmp)?);
        let igp_bmp = self.igp_engine.common_lookup(next_hop, cost)?;
        let interface = *self.igp.value(self.igp.get(&igp_bmp)?);
        Some(RecursiveResult { bgp_bmp, next_hop, igp_bmp, interface })
    }

    /// The clue-assisted double lookup of Section 5.2: `clue1` is the
    /// upstream router's BGP-level BMP (the clue the paper places on the
    /// packet); `clue2`, if present, is its IGP-level BMP for the shared
    /// next-hop address (“place both BMPs on the packet”).
    pub fn lookup_with_clues(
        &mut self,
        dest: A,
        clue1: Option<Prefix<A>>,
        clue2: Option<Prefix<A>>,
        cost: &mut Cost,
    ) -> Option<RecursiveResult<A>> {
        let bgp_bmp = self.bgp_engine.lookup(dest, clue1, None, cost)?;
        let next_hop = *self.bgp.value(self.bgp.get(&bgp_bmp)?);
        // The second clue applies only if it is a prefix of *our*
        // next-hop address — the engine's malformed-clue fallback handles
        // the mismatch case for free.
        let igp_bmp = self.igp_engine.lookup(next_hop, clue2, None, cost)?;
        let interface = *self.igp.value(self.igp.get(&igp_bmp)?);
        Some(RecursiveResult { bgp_bmp, next_hop, igp_bmp, interface })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Method;
    use clue_lookup::Family;
    use clue_trie::Ip4;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ip4 {
        s.parse().unwrap()
    }

    /// An AS border: destinations beyond resolve to one of two egress
    /// routers, which the OSPF table maps to interfaces.
    fn router() -> RecursiveLookup<Ip4> {
        let bgp = vec![
            (p("20.0.0.0/8"), a("192.168.0.1")),
            (p("20.5.0.0/16"), a("192.168.0.2")),
            (p("30.0.0.0/8"), a("192.168.0.2")),
        ];
        let igp = vec![
            (p("192.168.0.0/30"), 1u32), // egress 1 via port 1
            (p("192.168.0.2/31"), 2u32), // egress 2 via port 2
        ];
        let up_bgp: Vec<Prefix<Ip4>> = bgp.iter().map(|(q, _)| *q).collect();
        let up_igp: Vec<Prefix<Ip4>> = igp.iter().map(|(q, _)| *q).collect();
        RecursiveLookup::new(
            bgp,
            igp,
            &up_bgp,
            &up_igp,
            EngineConfig::new(Family::Patricia, Method::Advance),
        )
    }

    #[test]
    fn double_lookup_resolves_interface() {
        let r = router();
        let mut c = Cost::new();
        let res = r.lookup(a("20.1.2.3"), &mut c).unwrap();
        assert_eq!(res.bgp_bmp, p("20.0.0.0/8"));
        assert_eq!(res.next_hop, a("192.168.0.1"));
        assert_eq!(res.interface, 1);
        // Two full walks were paid.
        assert!(c.total() >= 4, "expected two counted stages, got {c}");

        let res2 = r.lookup(a("20.5.9.9"), &mut Cost::new()).unwrap();
        assert_eq!(res2.next_hop, a("192.168.0.2"));
        assert_eq!(res2.interface, 2);
    }

    #[test]
    fn first_clue_accelerates_bgp_stage() {
        let mut r = router();
        let dest = a("30.1.2.3");
        let mut clue_less = Cost::new();
        let want = r.lookup(dest, &mut clue_less).unwrap();
        let mut clued = Cost::new();
        let got = r.lookup_with_clues(dest, Some(p("30.0.0.0/8")), None, &mut clued).unwrap();
        assert_eq!(got, want);
        assert!(clued.total() < clue_less.total(), "{} !< {}", clued.total(), clue_less.total());
    }

    #[test]
    fn both_clues_reach_two_accesses() {
        let mut r = router();
        let dest = a("30.1.2.3");
        let want = r.lookup(dest, &mut Cost::new()).unwrap();
        // The router stamps its BGP BMP and, as the optional second
        // clue, its IGP BMP.
        let (c1, c2) = (want.bgp_bmp, want.igp_bmp);
        let mut cost = Cost::new();
        let got = r.lookup_with_clues(dest, Some(c1), Some(c2), &mut cost).unwrap();
        assert_eq!(got, want);
        // One clue-table access per stage — the Section 5.2 optimum.
        assert_eq!(cost.total(), 2, "{cost}");
    }

    #[test]
    fn mismatched_second_clue_is_harmless() {
        let mut r = router();
        let dest = a("20.1.2.3"); // next hop .1, but the clue points at .2's prefix
        let want = r.lookup(dest, &mut Cost::new()).unwrap();
        let got = r
            .lookup_with_clues(dest, Some(p("20.0.0.0/8")), Some(p("192.168.0.2/31")), &mut Cost::new())
            .unwrap();
        assert_eq!(got, want, "a wrong second clue must not corrupt the result");
    }

    #[test]
    fn unroutable_destination_is_none() {
        let r = router();
        assert!(r.lookup(a("99.0.0.1"), &mut Cost::new()).is_none());
    }
}
