//! Telemetry for the live-churn serving path.
//!
//! A churn deployment has one builder thread applying route updates
//! and republishing frozen snapshots while reader threads keep
//! serving lookups from pinned snapshots. The interesting numbers are
//! on the *boundary* between the two: how often the snapshot swaps,
//! how long a rebuild takes, and how far behind the freshest snapshot
//! the readers are allowed to fall. Two writers share the bundle —
//! `clue_core`'s epoch engine (swaps, reclamation) and `clue_netsim`'s
//! churn driver (updates, rebuilds, reader lag) — so both record
//! through its methods.

crate::bundle! {
    /// Telemetry for an epoch-swapped engine under a route-update
    /// stream (`clue_churn_*`).
    ///
    /// Cloning shares the underlying cells, so the builder and every
    /// reader thread can hold the same bundle.
    pub struct ChurnTelemetry in "clue_churn" {
        swaps_total: Counter = "Frozen snapshots published (epoch swaps)",
        updates_applied_total: Counter = "Route updates applied to the live engine",
        /// A small table re-freezes in well under a millisecond, a
        /// production-scale one in the tens of milliseconds; the
        /// overflow bucket absorbs pathological stalls.
        rebuild_latency_us: Histogram(&[
            50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
        ]) = "Microseconds to re-freeze and publish one snapshot",
        /// Epochs behind; 0 = fully current.
        staleness: Gauge = "Epochs the last observed reader batch lagged the freshest snapshot",
        stale_lookups_total: Counter = "Lookups answered from a superseded snapshot",
        reclaimed_total: Counter = "Retired snapshots freed after their grace period",
    }
}

impl ChurnTelemetry {
    /// Records one published snapshot that reclaimed `reclaimed`
    /// retired ones on the way.
    pub fn record_publish(&self, reclaimed: u64) {
        self.swaps_total.inc();
        self.reclaimed_total.add(reclaimed);
    }

    /// Records `freed` retired snapshots reclaimed outside a publish.
    pub fn record_reclaimed(&self, freed: u64) {
        self.reclaimed_total.add(freed);
    }

    /// Records one applied batch of `updates` route updates.
    pub fn record_updates(&self, updates: u64) {
        self.updates_applied_total.add(updates);
    }

    /// Records one re-freeze that took `us` microseconds.
    pub fn record_rebuild_us(&self, us: u64) {
        self.rebuild_latency_us.observe(us);
    }

    /// Records one reader batch of `lookups` served `lag` epochs behind
    /// the freshest snapshot.
    pub fn record_reader_batch(&self, lag: u64, lookups: u64) {
        self.staleness.set(lag as f64);
        if lag > 0 {
            self.stale_lookups_total.add(lookups);
        }
    }

    /// Snapshots published so far.
    pub fn swaps(&self) -> u64 {
        self.swaps_total.get()
    }

    /// Retired snapshots reclaimed so far.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed_total.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn registered_names_follow_the_convention() {
        let registry = Registry::new();
        let t = ChurnTelemetry::registered(&registry);
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
        t.record_publish(0);
        t.record_rebuild_us(180);
        t.record_reader_batch(2, 8);
        // Registered handles share cells with the registry: a second
        // bundle in the same registry sees the same values.
        let again = ChurnTelemetry::registered(&registry);
        assert_eq!(again.swaps(), 1);
        assert_eq!(again.rebuild_latency_us.count(), 1);
        assert_eq!(again.staleness.get(), 2.0);
        assert_eq!(again.stale_lookups_total.get(), 8);
    }

    #[test]
    fn detached_cells_are_live() {
        let t = ChurnTelemetry::registered(&Registry::new());
        t.record_updates(7);
        t.record_reader_batch(1, 1);
        t.record_reader_batch(0, 5);
        t.record_reclaimed(1);
        assert_eq!(t.updates_applied_total.get(), 7);
        assert_eq!(t.stale_lookups_total.get(), 1, "a current batch is not stale");
        assert_eq!(t.staleness.get(), 0.0);
        assert_eq!(t.reclaimed(), 1);
        let clone = t.clone();
        clone.record_updates(3);
        assert_eq!(t.updates_applied_total.get(), 10, "clones share cells");
    }
}
