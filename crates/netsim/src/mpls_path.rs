//! A label-switched path with an aggregation point — the paper's Figure 8
//! scenario, end to end.
//!
//! Packets enter at an ingress router that performs a full IP lookup and
//! binds the FEC's label; intermediate routers switch on the label (one
//! access); routers whose tables *refine* the FEC are aggregation points
//! and must re-resolve — with a full lookup under plain MPLS, or with a
//! clue continuation when labels double as clue indices (Section 5.1).

use std::collections::HashMap;

use clue_core::mpls::{MplsMode, MplsRouter};
use clue_trie::{Address, BinaryTrie, Cost, Prefix};

/// One router's accounting for a packet traversing the LSP.
#[derive(Debug, Clone)]
pub struct LspHop {
    /// Memory accesses at this router.
    pub accesses: u64,
    /// Whether this router was an aggregation point for the label.
    pub aggregation_point: bool,
}

/// A linear label-switched path.
#[derive(Debug)]
pub struct LabelSwitchedPath<A: Address> {
    ingress_fib: BinaryTrie<A, ()>,
    /// FEC → label binding at the ingress.
    labels: HashMap<Prefix<A>, u32>,
    /// The transit routers, ingress excluded.
    transit: Vec<MplsRouter<A>>,
}

impl<A: Address> LabelSwitchedPath<A> {
    /// Builds a path: the ingress holds `fecs` (one label each); each
    /// transit router holds `tables[i]` — which may refine the FECs,
    /// creating aggregation points.
    pub fn new(fecs: Vec<Prefix<A>>, tables: Vec<Vec<Prefix<A>>>) -> Self {
        let ingress_fib: BinaryTrie<A, ()> = fecs.iter().map(|p| (*p, ())).collect();
        let labels: HashMap<Prefix<A>, u32> =
            fecs.iter().enumerate().map(|(i, p)| (*p, i as u32)).collect();
        // Each router's Claim 1 knowledge is its upstream neighbor's
        // table: the ingress FEC set first, then each previous table.
        let mut upstream: Vec<Prefix<A>> = fecs.clone();
        let transit = tables
            .into_iter()
            .map(|own| {
                let r = MplsRouter::new(&own, &fecs, &upstream);
                upstream = own;
                r
            })
            .collect();
        LabelSwitchedPath { ingress_fib, labels, transit }
    }

    /// Number of routers on the path (ingress + transit).
    pub(crate) fn len(&self) -> usize {
        1 + self.transit.len()
    }

    /// Sends one packet down the path, returning per-hop accounting.
    /// Returns `None` if the destination matches no FEC at the ingress.
    pub fn send(&self, dest: A, mode: MplsMode) -> Option<Vec<LspHop>> {
        let mut hops = Vec::with_capacity(self.len());
        // Ingress: full IP lookup to classify into a FEC + bind label.
        let mut cost = Cost::new();
        let fec = self
            .ingress_fib
            .lookup_counted(dest, &mut cost)
            .map(|r| self.ingress_fib.prefix(r))?;
        let label = *self.labels.get(&fec).expect("ingress FIB holds exactly the FECs");
        hops.push(LspHop { accesses: cost.total(), aggregation_point: false });

        for router in &self.transit {
            let mut cost = Cost::new();
            let decision = router.switch(label, dest, mode, &mut cost);
            hops.push(LspHop {
                accesses: cost.total(),
                aggregation_point: decision.aggregation_point,
            });
        }
        Some(hops)
    }

    /// Total accesses for one packet, per mode.
    #[cfg(test)]
    pub(crate) fn total_accesses(&self, dest: A, mode: MplsMode) -> Option<u64> {
        self.send(dest, mode).map(|hops| hops.iter().map(|h| h.accesses).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_trie::Ip4;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    /// Figure 8: R1 ingress → R2, R3 pure switches → R4 aggregation
    /// point holding 10.0.0.0/24 inside the 10.0.0.0/16 FEC.
    fn figure8() -> LabelSwitchedPath<Ip4> {
        let fecs = vec![p("10.0.0.0/16"), p("20.0.0.0/8")];
        let tables = vec![
            vec![p("10.0.0.0/16"), p("20.0.0.0/8")], // R2
            vec![p("10.0.0.0/16"), p("20.0.0.0/8")], // R3
            vec![p("10.0.0.0/16"), p("10.0.0.0/24"), p("20.0.0.0/8")], // R4
        ];
        LabelSwitchedPath::new(fecs, tables)
    }

    #[test]
    fn pure_switching_costs_one_access_per_transit_hop() {
        let path = figure8();
        let hops = path.send("20.1.2.3".parse().unwrap(), MplsMode::Plain).unwrap();
        assert_eq!(hops.len(), 4);
        for h in &hops[1..] {
            assert_eq!(h.accesses, 1);
            assert!(!h.aggregation_point);
        }
    }

    #[test]
    fn aggregation_point_is_detected_at_r4() {
        let path = figure8();
        let hops = path.send("10.0.0.9".parse().unwrap(), MplsMode::Plain).unwrap();
        assert!(!hops[1].aggregation_point);
        assert!(!hops[2].aggregation_point);
        assert!(hops[3].aggregation_point);
        assert!(hops[3].accesses > 1);
    }

    #[test]
    fn clue_mode_is_cheaper_at_the_aggregation_point() {
        let path = figure8();
        let dest: Ip4 = "10.0.0.9".parse().unwrap();
        let plain = path.total_accesses(dest, MplsMode::Plain).unwrap();
        let clue = path.total_accesses(dest, MplsMode::WithClues).unwrap();
        assert!(clue < plain, "clue {clue} !< plain {plain}");
        // And identical elsewhere.
        let other: Ip4 = "20.1.2.3".parse().unwrap();
        assert_eq!(
            path.total_accesses(other, MplsMode::Plain),
            path.total_accesses(other, MplsMode::WithClues)
        );
    }

    #[test]
    fn unmatched_destination_returns_none() {
        let path = figure8();
        assert!(path.send("99.0.0.1".parse().unwrap(), MplsMode::Plain).is_none());
    }
}
