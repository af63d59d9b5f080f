//! Metric bundle for the shared-nothing multi-core serving runtime.
//!
//! The runtime's hot loop touches only per-core private state — no
//! shared registry cell is touched per packet. Workers accumulate
//! plain integers locally and flush them into this bundle once per
//! batch (counters are sharded cells, so even the flushes from
//! different cores do not contend on one cache line). The bundle
//! therefore answers the operator questions — how many cores ran, how
//! much they served, how often replicas were re-cloned after an epoch
//! publish, and how stale the cores ran — without taxing the loop it
//! observes.

use crate::registry::{Counter, Gauge, Histogram, Registry};

/// Bucket bounds for replica-clone latency in microseconds.
const CLONE_US_BOUNDS: [u64; 8] = [50, 100, 250, 500, 1_000, 5_000, 20_000, 100_000];

/// Bucket bounds for per-batch epoch staleness (epochs behind the
/// writer at the moment a batch was served).
const STALENESS_BOUNDS: [u64; 6] = [0, 1, 2, 4, 8, 16];

/// Telemetry for the multi-core serving runtime (`clue_runtime_*`).
#[derive(Clone, Debug)]
pub struct RuntimeTelemetry {
    /// Worker cores in the most recent run.
    pub workers: Gauge,
    /// Packet batches (jobs) served by worker cores.
    pub(crate) batches_total: Counter,
    /// Packets served by worker cores.
    pub(crate) packets_total: Counter,
    /// Per-core replica re-clones triggered by an epoch publish.
    pub(crate) replica_clones_total: Counter,
    /// Replica clone latency (microseconds), priming and mid-run.
    pub replica_clone_us: Histogram,
    /// Epoch staleness observed per served batch (epochs behind the
    /// writer; 0 = current snapshot).
    pub staleness_epochs: Histogram,
}

impl RuntimeTelemetry {
    /// A detached bundle: live cells in a private registry, exported
    /// nowhere.
    #[cfg(test)]
    pub(crate) fn detached() -> Self {
        Self::registered(&Registry::new(), "detached")
    }

    /// A bundle registered into `registry` under `prefix` (e.g.
    /// `clue_runtime`), creating or sharing:
    ///
    /// * `{prefix}_workers`
    /// * `{prefix}_batches_total`
    /// * `{prefix}_packets_total`
    /// * `{prefix}_replica_clones_total`
    /// * `{prefix}_replica_clone_us`
    /// * `{prefix}_staleness_epochs`
    pub fn registered(registry: &Registry, prefix: &str) -> Self {
        RuntimeTelemetry {
            workers: registry.gauge(
                &format!("{prefix}_workers"),
                "Worker cores in the most recent serving run",
            ),
            batches_total: registry.counter(
                &format!("{prefix}_batches_total"),
                "Packet batches served by runtime worker cores",
            ),
            packets_total: registry.counter(
                &format!("{prefix}_packets_total"),
                "Packets served by runtime worker cores",
            ),
            replica_clones_total: registry.counter(
                &format!("{prefix}_replica_clones_total"),
                "Per-core engine replica clones (priming and epoch refresh)",
            ),
            replica_clone_us: registry.histogram(
                &format!("{prefix}_replica_clone_us"),
                "Replica clone latency in microseconds",
                &CLONE_US_BOUNDS,
            ),
            staleness_epochs: registry.histogram(
                &format!("{prefix}_staleness_epochs"),
                "Epochs behind the writer per served batch (0 = current)",
                &STALENESS_BOUNDS,
            ),
        }
    }

    /// Records one core's finished run: `packets` served in `batches`
    /// jobs, `clones` replica clones.
    #[inline]
    pub fn record_core(&self, packets: u64, batches: u64, clones: u64) {
        self.packets_total.add(packets);
        self.batches_total.add(batches);
        self.replica_clones_total.add(clones);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_counts() {
        let t = RuntimeTelemetry::detached();
        t.workers.set(4.0);
        t.record_core(1000, 2, 1);
        t.record_core(500, 1, 0);
        t.replica_clone_us.observe(120);
        t.staleness_epochs.observe(0);
        t.staleness_epochs.observe(2);
        assert_eq!(t.workers.get(), 4.0);
        assert_eq!(t.packets_total.get(), 1500);
        assert_eq!(t.batches_total.get(), 3);
        assert_eq!(t.replica_clones_total.get(), 1);
        assert_eq!(t.staleness_epochs.snapshot().count, 2);
    }

    #[test]
    fn registered_uses_the_naming_convention() {
        let registry = Registry::new();
        let t = RuntimeTelemetry::registered(&registry, "clue_runtime");
        t.record_core(5, 1, 1);
        for name in [
            "clue_runtime_workers",
            "clue_runtime_batches_total",
            "clue_runtime_packets_total",
            "clue_runtime_replica_clones_total",
            "clue_runtime_replica_clone_us",
            "clue_runtime_staleness_epochs",
        ] {
            assert!(registry.contains(name), "{name} registered");
        }
        assert_eq!(t.packets_total.get(), 5);
    }
}
