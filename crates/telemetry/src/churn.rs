//! Telemetry for the live-churn serving path.
//!
//! A churn deployment has one builder thread applying route updates
//! and republishing frozen snapshots while reader threads keep
//! serving lookups from pinned snapshots. The interesting numbers are
//! on the *boundary* between the two: how often the snapshot swaps,
//! how long a rebuild takes, and how far behind the freshest snapshot
//! the readers are allowed to fall. [`ChurnTelemetry`] names them
//! once, following the workspace `clue_<component>_<metric>`
//! convention under the `clue_churn` prefix.

use crate::registry::{Counter, Gauge, Histogram, Registry};
use crate::REBUILD_LATENCY_BOUNDS_US;

/// Telemetry for an epoch-swapped engine under a route-update stream.
///
/// Like [`crate::LookupTelemetry`], a bundle is either *detached*
/// (live cells, nothing exported) or *registered* into a shared
/// [`Registry`]; cloning shares the underlying cells, so the builder
/// and every reader thread can hold the same bundle.
#[derive(Debug, Clone)]
pub struct ChurnTelemetry {
    /// Snapshots published (epoch swaps) since start.
    pub swaps_total: Counter,
    /// Route updates (announce/withdraw/modify) applied by the builder.
    pub updates_applied_total: Counter,
    /// Microseconds to re-freeze and publish one snapshot.
    pub rebuild_latency_us: Histogram,
    /// Epochs the most recently observed reader batch lagged behind
    /// the freshest published snapshot (0 = fully current).
    pub staleness: Gauge,
    /// Lookups answered from snapshot N while snapshot N+1 existed.
    pub stale_lookups_total: Counter,
    /// Retired snapshots reclaimed after their grace period expired.
    pub reclaimed_total: Counter,
}

impl ChurnTelemetry {
    /// A detached bundle: live cells in a private registry, exported
    /// nowhere.
    #[cfg(test)]
    pub(crate) fn detached() -> Self {
        Self::registered(&Registry::new(), "detached")
    }

    /// A bundle registered into `registry` under `prefix` (the
    /// workspace uses `clue_churn`), creating or sharing:
    ///
    /// * `{prefix}_swaps_total`
    /// * `{prefix}_updates_applied_total`
    /// * `{prefix}_rebuild_latency_us` (histogram)
    /// * `{prefix}_staleness` (gauge, epochs behind)
    /// * `{prefix}_stale_lookups_total`
    /// * `{prefix}_reclaimed_total`
    pub fn registered(registry: &Registry, prefix: &str) -> Self {
        ChurnTelemetry {
            swaps_total: registry.counter(
                &format!("{prefix}_swaps_total"),
                "Frozen snapshots published (epoch swaps)",
            ),
            updates_applied_total: registry.counter(
                &format!("{prefix}_updates_applied_total"),
                "Route updates applied to the live engine",
            ),
            rebuild_latency_us: registry.histogram(
                &format!("{prefix}_rebuild_latency_us"),
                "Microseconds to re-freeze and publish one snapshot",
                REBUILD_LATENCY_BOUNDS_US,
            ),
            staleness: registry.gauge(
                &format!("{prefix}_staleness"),
                "Epochs the last observed reader batch lagged the freshest snapshot",
            ),
            stale_lookups_total: registry.counter(
                &format!("{prefix}_stale_lookups_total"),
                "Lookups answered from a superseded snapshot",
            ),
            reclaimed_total: registry.counter(
                &format!("{prefix}_reclaimed_total"),
                "Retired snapshots freed after their grace period",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_names_follow_the_convention() {
        let registry = Registry::new();
        let t = ChurnTelemetry::registered(&registry, "clue_churn");
        for name in [
            "clue_churn_swaps_total",
            "clue_churn_updates_applied_total",
            "clue_churn_rebuild_latency_us",
            "clue_churn_staleness",
            "clue_churn_stale_lookups_total",
            "clue_churn_reclaimed_total",
        ] {
            assert!(registry.contains(name), "missing {name}");
        }
        t.swaps_total.inc();
        t.rebuild_latency_us.observe(180);
        t.staleness.set(2.0);
        // Registered handles share cells with the registry: a second
        // bundle under the same prefix sees the same values.
        let again = ChurnTelemetry::registered(&registry, "clue_churn");
        assert_eq!(again.swaps_total.get(), 1);
        assert_eq!(again.rebuild_latency_us.count(), 1);
        assert_eq!(again.staleness.get(), 2.0);
    }

    #[test]
    fn detached_cells_are_live() {
        let t = ChurnTelemetry::detached();
        t.updates_applied_total.add(7);
        t.stale_lookups_total.inc();
        t.reclaimed_total.inc();
        assert_eq!(t.updates_applied_total.get(), 7);
        assert_eq!(t.stale_lookups_total.get(), 1);
        assert_eq!(t.reclaimed_total.get(), 1);
        let clone = t.clone();
        clone.updates_applied_total.add(3);
        assert_eq!(t.updates_applied_total.get(), 10, "clones share cells");
    }
}
