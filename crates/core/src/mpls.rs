//! Integrating clue routing with MPLS / Tag-switching — Section 5.1 and
//! Figure 8 of the paper.
//!
//! In topology-driven (control-based) MPLS, a label is bound to a prefix
//! (its FEC) and packets are switched by one table read per hop. The
//! catch is the **aggregation point**: when a downstream router's table
//! contains prefixes that *extend* the label's FEC, the label alone no
//! longer determines the route, and plain MPLS performs a full IP lookup
//! to pick the new label (Figure 8's router R4).
//!
//! The paper's observation: every control-based label is implicitly a
//! clue (the FEC is the upstream BMP), so the label itself can index the
//! clue table — no hash, no extra header bits — and the aggregation-point
//! lookup collapses to a clue continuation, which Claim 1 usually makes
//! **free** (the single label-table read already fetched the FD).

use clue_trie::{Address, BinaryTrie, Cost, Prefix};

use crate::classify::{classify, Classification};

/// How the label-switching router resolves aggregation points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MplsMode {
    /// Plain MPLS / Tag-switching: a full IP lookup at aggregation
    /// points.
    Plain,
    /// The paper's hybrid: the label indexes the clue table and the
    /// lookup continues from the FEC clue.
    WithClues,
}

impl core::fmt::Display for MplsMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            MplsMode::Plain => "MPLS",
            MplsMode::WithClues => "MPLS+clue",
        })
    }
}

/// What one label-switched hop decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchDecision<A: Address> {
    /// The BMP governing the packet at this router (the route / next
    /// label binding).
    pub(crate) bmp: Option<Prefix<A>>,
    /// `true` iff this router was an aggregation point for the label.
    pub aggregation_point: bool,
}

#[derive(Debug, Clone)]
struct LabelSlot<A: Address> {
    fec: Prefix<A>,
    /// BMP of the FEC in this router's table (the switched route when no
    /// extension applies).
    fd: Option<Prefix<A>>,
    /// Extensions of the FEC exist in this router's table (Figure 8's
    /// aggregation-point condition).
    has_extensions: bool,
    /// Claim 1 verdict: even though extensions exist, none is reachable
    /// without crossing an upstream prefix — the clue hybrid stays at
    /// one access.
    claim1_final: bool,
}

/// One label-switching router: a label table bound to FECs, the router's
/// own forwarding table, and the clue machinery for the hybrid mode.
#[derive(Debug)]
pub struct MplsRouter<A: Address> {
    fib: BinaryTrie<A, ()>,
    labels: Vec<LabelSlot<A>>,
}

impl<A: Address> MplsRouter<A> {
    /// Builds the router.
    ///
    /// * `own_prefixes` — this router's forwarding table;
    /// * `fecs` — the FEC bound to each label (label = index);
    /// * `upstream_prefixes` — the label-issuing neighbor's table, used
    ///   for the Claim 1 precomputation of the hybrid mode.
    pub fn new(
        own_prefixes: &[Prefix<A>],
        fecs: &[Prefix<A>],
        upstream_prefixes: &[Prefix<A>],
    ) -> Self {
        let fib: BinaryTrie<A, ()> = own_prefixes.iter().map(|p| (*p, ())).collect();
        let upstream: std::collections::HashSet<Prefix<A>> =
            upstream_prefixes.iter().copied().collect();
        let labels = fecs
            .iter()
            .map(|fec| {
                let simple = classify(fec, &fib, &|_| false);
                let advance = classify(fec, &fib, &|p| upstream.contains(p));
                LabelSlot {
                    fec: *fec,
                    fd: simple.fd(),
                    has_extensions: simple.is_problematic(),
                    claim1_final: !matches!(advance, Classification::Problematic { .. }),
                }
            })
            .collect();
        MplsRouter { fib, labels }
    }

    /// The FEC bound to a label.
    #[cfg(test)]
    pub(crate) fn fec(&self, label: u32) -> Prefix<A> {
        self.labels[label as usize].fec
    }

    /// Switches one packet: reads the label slot (one indexed access),
    /// then resolves any aggregation per `mode`.
    ///
    /// # Panics
    /// Panics if `label` is unbound.
    pub fn switch(&self, label: u32, dest: A, mode: MplsMode, cost: &mut Cost) -> SwitchDecision<A> {
        let slot = &self.labels[label as usize];
        debug_assert!(slot.fec.contains(dest), "label's FEC must cover the destination");
        cost.indexed_read();
        if !slot.has_extensions {
            // Pure switching: the single table read decided the route.
            return SwitchDecision { bmp: slot.fd, aggregation_point: false };
        }
        let bmp = match mode {
            MplsMode::Plain => {
                // Figure 8: a complete standard IP lookup to re-bind.
                self.fib.lookup_counted(dest, cost).map(|r| self.fib.prefix(r))
            }
            MplsMode::WithClues => {
                if slot.claim1_final {
                    slot.fd // the clue entry (= the label slot) is final
                } else {
                    // Continue the lookup from the FEC vertex.
                    let node = self
                        .fib
                        .node_of_prefix(&slot.fec)
                        .expect("aggregation point implies the FEC vertex exists");
                    self.fib
                        .lookup_from(node, dest, cost)
                        .map(|r| self.fib.prefix(r))
                        .or(slot.fd)
                }
            }
        };
        SwitchDecision { bmp, aggregation_point: true }
    }

    /// Labels whose FEC is extended in this router's table — Figure 8's
    /// aggregation points.
    pub fn aggregation_labels(&self) -> Vec<u32> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, s)| s.has_extensions)
            .map(|(i, _)| i as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_trie::Ip4;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    /// Figure 8's situation: the upstream bound a label to 10.0/16 while
    /// this router also knows 10.0.0/24.
    fn figure8_router() -> MplsRouter<Ip4> {
        MplsRouter::new(
            &[p("10.0.0.0/16"), p("10.0.0.0/24"), p("20.0.0.0/8")],
            &[p("10.0.0.0/16"), p("20.0.0.0/8")],
            &[p("10.0.0.0/16"), p("20.0.0.0/8")],
        )
    }

    #[test]
    fn non_aggregation_label_switches_in_one_access() {
        let r = figure8_router();
        let dest: Ip4 = "20.1.2.3".parse().unwrap();
        for mode in [MplsMode::Plain, MplsMode::WithClues] {
            let mut c = Cost::new();
            let d = r.switch(1, dest, mode, &mut c);
            assert_eq!(d.bmp, Some(p("20.0.0.0/8")));
            assert!(!d.aggregation_point);
            assert_eq!(c.total(), 1, "{mode}");
        }
    }

    #[test]
    fn plain_mpls_pays_full_lookup_at_aggregation_point() {
        let r = figure8_router();
        let dest: Ip4 = "10.0.0.7".parse().unwrap();
        let mut c = Cost::new();
        let d = r.switch(0, dest, MplsMode::Plain, &mut c);
        assert_eq!(d.bmp, Some(p("10.0.0.0/24")));
        assert!(d.aggregation_point);
        assert!(c.total() > 10, "full bit-by-bit lookup expected, got {}", c.total());
    }

    #[test]
    fn clue_hybrid_continues_from_the_fec() {
        let r = figure8_router();
        let dest: Ip4 = "10.0.0.7".parse().unwrap();
        let mut c = Cost::new();
        let d = r.switch(0, dest, MplsMode::WithClues, &mut c);
        assert_eq!(d.bmp, Some(p("10.0.0.0/24")));
        assert!(d.aggregation_point);
        // 1 label read + a walk of the 8 bits below /16.
        assert!(c.total() <= 11, "clue continuation should be local, got {}", c.total());
        let mut cp = Cost::new();
        let _ = r.switch(0, dest, MplsMode::Plain, &mut cp);
        assert!(c.total() < cp.total());
    }

    #[test]
    fn claim1_makes_aggregation_free_for_the_hybrid() {
        // The upstream also knows 10.0.0/24, so Claim 1 covers the /16
        // label: had the packet matched the /24, the upstream would have
        // labelled it so.
        let r = MplsRouter::new(
            &[p("10.0.0.0/16"), p("10.0.0.0/24")],
            &[p("10.0.0.0/16")],
            &[p("10.0.0.0/16"), p("10.0.0.0/24")],
        );
        let dest: Ip4 = "10.0.200.1".parse().unwrap();
        let mut c = Cost::new();
        let d = r.switch(0, dest, MplsMode::WithClues, &mut c);
        assert_eq!(d.bmp, Some(p("10.0.0.0/16")));
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn aggregation_labels_lists_extended_fecs() {
        let r = figure8_router();
        assert_eq!(r.aggregation_labels(), vec![0]);
        assert_eq!(r.fec(0), p("10.0.0.0/16"));
        assert_eq!(r.labels.len(), 2);
    }
}
