//! Telemetry for the adversarial-scenario layer.
//!
//! The chaos harness injects *random* faults; the adversary module
//! (`clue_netsim::adversary`) injects *systematic* hostility — lying
//! neighbors crafting deepest-mismatch clues, clue-flooding bursts,
//! oscillating liars — and the reputation layer
//! (`clue_core::reputation`) answers with quarantine. Two bundles name
//! what the fleet's adversarial run observes, under the workspace
//! `clue_<component>_<metric>` convention:
//!
//! * [`AdversaryTelemetry`] (`clue_adversary_*`) — the attack side:
//!   hops attacked, clues crafted, malformed floods injected, and the
//!   worst measured per-hop overhead against the soundness bound.
//! * [`ReputationTelemetry`] (`clue_reputation_*`) — the defense side:
//!   batches scored, quarantine/probation/re-admission transitions,
//!   links currently quarantined, and the worst score in the book.

use crate::registry::{Counter, Gauge, Registry};

/// Telemetry for attacker activity and its measured cost. Detached or
/// registered like every workspace bundle; clones share cells.
#[derive(Debug, Clone)]
pub struct AdversaryTelemetry {
    /// Link crossings where an adversary got to pick the clue.
    pub attacked_hops_total: Counter,
    /// Deepest-mismatch clues crafted against a victim's table.
    pub crafted_clues_total: Counter,
    /// Malformed / out-of-range clues injected by flooding bursts.
    pub flood_clues_total: Counter,
    /// Packets whose measured overhead exceeded the soundness bound
    /// (clue-less cost + 1 probe). Must stay 0 — anything else is an
    /// engine bug, not a successful attack.
    pub bound_violations_total: Counter,
    /// Worst per-packet overhead observed in the current run.
    pub worst_overhead: Gauge,
}

impl AdversaryTelemetry {
    /// A detached bundle: live cells in a private registry, exported
    /// nowhere.
    #[cfg(test)]
    pub(crate) fn detached() -> Self {
        Self::registered(&Registry::new(), "detached")
    }

    /// A bundle registered into `registry` under `prefix` (the
    /// workspace uses `clue_adversary`), creating or sharing:
    ///
    /// * `{prefix}_attacked_hops_total`
    /// * `{prefix}_crafted_clues_total`
    /// * `{prefix}_flood_clues_total`
    /// * `{prefix}_bound_violations_total`
    /// * `{prefix}_worst_overhead` (gauge)
    pub fn registered(registry: &Registry, prefix: &str) -> Self {
        AdversaryTelemetry {
            attacked_hops_total: registry.counter(
                &format!("{prefix}_attacked_hops_total"),
                "Link crossings where an adversary picked the clue",
            ),
            crafted_clues_total: registry.counter(
                &format!("{prefix}_crafted_clues_total"),
                "Deepest-mismatch clues crafted against a victim table",
            ),
            flood_clues_total: registry.counter(
                &format!("{prefix}_flood_clues_total"),
                "Malformed clues injected by flooding bursts",
            ),
            bound_violations_total: registry.counter(
                &format!("{prefix}_bound_violations_total"),
                "Packets exceeding the soundness bound (must stay 0)",
            ),
            worst_overhead: registry.gauge(
                &format!("{prefix}_worst_overhead"),
                "Worst per-packet overhead observed",
            ),
        }
    }
}

/// Telemetry for the reputation / quarantine defense.
#[derive(Debug, Clone)]
pub struct ReputationTelemetry {
    /// Batches folded into the reputation book.
    pub batches_observed_total: Counter,
    /// Healthy/Probation → Quarantined transitions.
    pub quarantines_total: Counter,
    /// Quarantine hold-downs that expired into probation.
    pub probations_total: Counter,
    /// Probations that succeeded back to Healthy.
    pub readmissions_total: Counter,
    /// Links currently quarantined (clue-less serving).
    pub quarantined_links: Gauge,
    /// The lowest reputation score in the book (1.0 = pristine,
    /// 0.0 = fully collapsed).
    pub min_score: Gauge,
}

impl ReputationTelemetry {
    /// A detached bundle: live cells in a private registry, exported
    /// nowhere.
    #[cfg(test)]
    pub(crate) fn detached() -> Self {
        Self::registered(&Registry::new(), "detached")
    }

    /// A bundle registered into `registry` under `prefix` (the
    /// workspace uses `clue_reputation`), creating or sharing:
    ///
    /// * `{prefix}_batches_observed_total`
    /// * `{prefix}_quarantines_total`
    /// * `{prefix}_probations_total`
    /// * `{prefix}_readmissions_total`
    /// * `{prefix}_quarantined_links` (gauge)
    /// * `{prefix}_min_score` (gauge)
    pub fn registered(registry: &Registry, prefix: &str) -> Self {
        ReputationTelemetry {
            batches_observed_total: registry.counter(
                &format!("{prefix}_batches_observed_total"),
                "Batches folded into the reputation book",
            ),
            quarantines_total: registry.counter(
                &format!("{prefix}_quarantines_total"),
                "Transitions into quarantine",
            ),
            probations_total: registry.counter(
                &format!("{prefix}_probations_total"),
                "Quarantine hold-downs expired into probation",
            ),
            readmissions_total: registry.counter(
                &format!("{prefix}_readmissions_total"),
                "Probations succeeded back to Healthy",
            ),
            quarantined_links: registry.gauge(
                &format!("{prefix}_quarantined_links"),
                "Links currently serving clue-less under quarantine",
            ),
            min_score: registry.gauge(
                &format!("{prefix}_min_score"),
                "Lowest reputation score in the book",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adversary_names_follow_the_convention() {
        let registry = Registry::new();
        let t = AdversaryTelemetry::registered(&registry, "clue_adversary");
        for name in [
            "clue_adversary_attacked_hops_total",
            "clue_adversary_crafted_clues_total",
            "clue_adversary_flood_clues_total",
            "clue_adversary_bound_violations_total",
            "clue_adversary_worst_overhead",
        ] {
            assert!(registry.contains(name), "missing {name}");
        }
        t.attacked_hops_total.add(5);
        let again = AdversaryTelemetry::registered(&registry, "clue_adversary");
        assert_eq!(again.attacked_hops_total.get(), 5, "registered handles share cells");
    }

    #[test]
    fn reputation_names_follow_the_convention() {
        let registry = Registry::new();
        let t = ReputationTelemetry::registered(&registry, "clue_reputation");
        for name in [
            "clue_reputation_batches_observed_total",
            "clue_reputation_quarantines_total",
            "clue_reputation_probations_total",
            "clue_reputation_readmissions_total",
            "clue_reputation_quarantined_links",
            "clue_reputation_min_score",
        ] {
            assert!(registry.contains(name), "missing {name}");
        }
        t.quarantines_total.inc();
        t.quarantined_links.set(2.0);
        t.min_score.set(0.412);
        let again = ReputationTelemetry::registered(&registry, "clue_reputation");
        assert_eq!(again.quarantines_total.get(), 1);
        assert_eq!(again.quarantined_links.get(), 2.0);
        assert_eq!(again.min_score.get(), 0.412);
    }

    #[test]
    fn detached_cells_are_live_and_shared_by_clones() {
        let t = AdversaryTelemetry::detached();
        t.crafted_clues_total.inc();
        let clone = t.clone();
        clone.crafted_clues_total.inc();
        assert_eq!(t.crafted_clues_total.get(), 2);

        let r = ReputationTelemetry::detached();
        r.batches_observed_total.add(3);
        let clone = r.clone();
        assert_eq!(clone.batches_observed_total.get(), 3);
    }
}
