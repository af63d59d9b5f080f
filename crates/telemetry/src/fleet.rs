//! Metric bundle for the fleet-scale topology simulator
//! (`clue_fleet_*`).
//!
//! The fleet run is two legs: a deterministic packet leg (flows routed
//! over the multi-core runtime, bit-identical at any worker count) and
//! a live churn leg (a builder republishing per-router engine bundles
//! through `EpochCell`s while serving workers keep routing). Both legs
//! accumulate plain integers locally and flush here once at the end of
//! a leg — nothing in this bundle is touched per packet — so the
//! series answer the deployment questions (how much did clues save
//! fleet-wide, how do the per-link hit rates distribute, how stale did
//! churn make the fleet) without taxing the loops they observe.

use crate::registry::{Counter, Gauge, Histogram, Registry};

/// Bucket bounds for per-link clue hit rate, in percent of the link's
/// clued lookups.
const LINK_HIT_RATE_BOUNDS: [u64; 9] = [10, 25, 50, 70, 80, 90, 95, 99, 100];

/// Bucket bounds for per-router engine-bundle rebuild latency in
/// microseconds (a fleet rebuild recompiles every engine of a router).
const REBUILD_US_BOUNDS: [u64; 8] = [100, 250, 500, 1_000, 2_500, 5_000, 20_000, 100_000];

/// Bucket bounds for churn staleness (epochs a pinned router snapshot
/// lagged the writer when a flow routed through it).
const STALENESS_BOUNDS: [u64; 6] = [0, 1, 2, 4, 8, 16];

/// Telemetry for the fleet-scale simulator (`clue_fleet_*`).
#[derive(Clone, Debug)]
pub struct FleetTelemetry {
    /// Routers in the generated topology.
    pub routers: Gauge,
    /// Undirected links in the generated topology.
    pub links: Gauge,
    /// Flows routed (each flow is one end-to-end walk).
    pub flows_total: Counter,
    /// Packets represented (flows weighted by their packet counts).
    pub packets_total: Counter,
    /// Router-hops walked across all flows.
    pub hops_total: Counter,
    /// Hops that resolved through a per-link clue engine.
    pub clue_hops_total: Counter,
    /// Flows delivered to the router originating their destination.
    pub delivered_total: Counter,
    /// Clued hops whose clue-table hit was final (Case 2 / Claim 1).
    pub link_hits_total: Counter,
    /// Clued hops that hit a problematic clue and ran a continuation
    /// (Case 3).
    pub link_problematic_total: Counter,
    /// Clued hops whose clue missed the table (Case 1: absent vertex).
    pub link_misses_total: Counter,
    /// Hops through a clue-capable link that carried no usable clue.
    pub link_clueless_total: Counter,
    /// Memory references spent by the clue deployment.
    pub clue_refs_total: Counter,
    /// Memory references the clue-less baseline would have spent on
    /// the identical hops.
    pub baseline_refs_total: Counter,
    /// Fleet-wide savings: `1 - clue_refs / baseline_refs`.
    pub savings_ratio: Gauge,
    /// Distribution of per-link clue hit rates (percent), one sample
    /// per directed link with clued traffic.
    pub link_hit_rate_pct: Histogram,
    /// Churn events applied by the fleet builder.
    pub churn_events_total: Counter,
    /// Per-router engine-bundle publishes triggered by churn.
    pub republished_total: Counter,
    /// Per-router bundle rebuild latency (microseconds).
    pub rebuild_us: Histogram,
    /// Epochs a pinned router snapshot lagged the writer per routed
    /// hop during churn (0 = current).
    pub staleness_epochs: Histogram,
}

impl FleetTelemetry {
    /// A detached bundle: live cells in a private registry, exported
    /// nowhere.
    #[cfg(test)]
    pub(crate) fn detached() -> Self {
        Self::registered(&Registry::new(), "detached")
    }

    /// A bundle registered into `registry` under `prefix` (e.g.
    /// `clue_fleet`), creating or sharing the `{prefix}_*` series
    /// named after this struct's fields.
    pub fn registered(registry: &Registry, prefix: &str) -> Self {
        FleetTelemetry {
            routers: registry
                .gauge(&format!("{prefix}_routers"), "Routers in the generated fleet topology"),
            links: registry.gauge(
                &format!("{prefix}_links"),
                "Undirected links in the generated fleet topology",
            ),
            flows_total: registry
                .counter(&format!("{prefix}_flows_total"), "Flows routed end to end"),
            packets_total: registry.counter(
                &format!("{prefix}_packets_total"),
                "Packets represented (flows weighted by packet count)",
            ),
            hops_total: registry
                .counter(&format!("{prefix}_hops_total"), "Router-hops walked across all flows"),
            clue_hops_total: registry.counter(
                &format!("{prefix}_clue_hops_total"),
                "Hops resolved through a per-link clue engine",
            ),
            delivered_total: registry.counter(
                &format!("{prefix}_delivered_total"),
                "Flows delivered to their destination's origin router",
            ),
            link_hits_total: registry.counter(
                &format!("{prefix}_link_hits_total"),
                "Clued hops resolved final by the clue table (Case 2)",
            ),
            link_problematic_total: registry.counter(
                &format!("{prefix}_link_problematic_total"),
                "Clued hops that ran a problematic-clue continuation (Case 3)",
            ),
            link_misses_total: registry.counter(
                &format!("{prefix}_link_misses_total"),
                "Clued hops whose clue was absent from the link's table (Case 1)",
            ),
            link_clueless_total: registry.counter(
                &format!("{prefix}_link_clueless_total"),
                "Hops through a clue-capable link that carried no usable clue",
            ),
            clue_refs_total: registry.counter(
                &format!("{prefix}_clue_refs_total"),
                "Memory references spent by the clue deployment",
            ),
            baseline_refs_total: registry.counter(
                &format!("{prefix}_baseline_refs_total"),
                "Memory references the clue-less baseline needs for the same hops",
            ),
            savings_ratio: registry.gauge(
                &format!("{prefix}_savings_ratio"),
                "Fleet-wide memory-reference savings (1 - clue/baseline)",
            ),
            link_hit_rate_pct: registry.histogram(
                &format!("{prefix}_link_hit_rate_pct"),
                "Per-link clue hit rate in percent of clued lookups",
                &LINK_HIT_RATE_BOUNDS,
            ),
            churn_events_total: registry.counter(
                &format!("{prefix}_churn_events_total"),
                "Churn events applied by the fleet builder",
            ),
            republished_total: registry.counter(
                &format!("{prefix}_republished_total"),
                "Per-router engine-bundle publishes triggered by churn",
            ),
            rebuild_us: registry.histogram(
                &format!("{prefix}_rebuild_us"),
                "Per-router engine-bundle rebuild latency in microseconds",
                &REBUILD_US_BOUNDS,
            ),
            staleness_epochs: registry.histogram(
                &format!("{prefix}_staleness_epochs"),
                "Epochs behind the writer per routed hop during churn (0 = current)",
                &STALENESS_BOUNDS,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_counts() {
        let t = FleetTelemetry::detached();
        t.routers.set(1024.0);
        t.flows_total.add(500);
        t.link_hits_total.add(400);
        t.link_problematic_total.add(20);
        t.clue_refs_total.add(900);
        t.baseline_refs_total.add(4000);
        t.savings_ratio.set(1.0 - 900.0 / 4000.0);
        t.link_hit_rate_pct.observe(92);
        t.staleness_epochs.observe(1);
        assert_eq!(t.routers.get(), 1024.0);
        assert_eq!(t.flows_total.get(), 500);
        assert_eq!(t.link_hit_rate_pct.snapshot().count, 1);
        assert!(t.savings_ratio.get() > 0.7);
    }

    #[test]
    fn registered_uses_the_naming_convention() {
        let registry = Registry::new();
        let t = FleetTelemetry::registered(&registry, "clue_fleet");
        t.flows_total.add(1);
        for name in [
            "clue_fleet_routers",
            "clue_fleet_links",
            "clue_fleet_flows_total",
            "clue_fleet_packets_total",
            "clue_fleet_hops_total",
            "clue_fleet_clue_hops_total",
            "clue_fleet_delivered_total",
            "clue_fleet_link_hits_total",
            "clue_fleet_link_problematic_total",
            "clue_fleet_link_misses_total",
            "clue_fleet_link_clueless_total",
            "clue_fleet_clue_refs_total",
            "clue_fleet_baseline_refs_total",
            "clue_fleet_savings_ratio",
            "clue_fleet_link_hit_rate_pct",
            "clue_fleet_churn_events_total",
            "clue_fleet_republished_total",
            "clue_fleet_rebuild_us",
            "clue_fleet_staleness_epochs",
        ] {
            assert!(registry.contains(name), "{name} registered");
        }
        assert_eq!(t.flows_total.get(), 1);
    }
}
