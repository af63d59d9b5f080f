//! Telemetry for the fault-injection / graceful-degradation layer.
//!
//! The paper's robustness claim is that a wrong, stale or corrupted
//! clue can only make a lookup *slower*, never change its answer. The
//! chaos harness (`clue_netsim::run_chaos`) injects such faults on
//! purpose; [`DegradationTelemetry`] names what it observes, following
//! the workspace `clue_<component>_<metric>` convention under the
//! `clue_fault` prefix: how many faults of each class were injected,
//! how many packets degraded to the clue-less fallback, how much extra
//! lookup cost the degradation charged, and how many reader panics the
//! serving loop caught.

use crate::registry::{Counter, Histogram, Registry};
use crate::DEGRADED_COST_BOUNDS;

/// Telemetry for fault injection and graceful degradation.
///
/// Like [`crate::ChurnTelemetry`], a bundle is either *detached* (live
/// cells, nothing exported) or *registered* into a shared [`Registry`];
/// cloning shares the underlying cells. Per-fault-class counters are
/// named at construction (`{prefix}_{class}_injected_total`), so the
/// bundle stays independent of any particular fault taxonomy.
#[derive(Debug, Clone)]
pub struct DegradationTelemetry {
    /// Faults injected, all classes (clean packets included when the
    /// plan mixes them in).
    pub injected_total: Counter,
    /// Packets whose wire image no longer parsed (truncation,
    /// corruption, out-of-range clue) — the receiver fell back to a
    /// clue-less lookup.
    pub parse_errors_total: Counter,
    /// Lookups that degraded to the full common lookup (malformed,
    /// unknown or missing clue).
    pub degraded_lookups_total: Counter,
    /// Forwarding decisions that differed from the clue-less baseline.
    /// The soundness invariant says this stays 0; anything else is a
    /// bug, not a degradation.
    pub divergences_total: Counter,
    /// Reader threads that panicked and were caught + attributed by
    /// the churn driver.
    pub reader_panics_total: Counter,
    /// Extra memory references a degraded lookup paid versus the
    /// clue-less baseline for the same destination (0 = the fault cost
    /// nothing).
    pub degraded_cost_overhead: Histogram,
    /// `(label, counter)` per fault class, in construction order.
    classes: Vec<(String, Counter)>,
}

impl DegradationTelemetry {
    /// A detached bundle with per-class counters for `class_labels`:
    /// live cells in a private registry, exported nowhere.
    pub fn detached(class_labels: &[&str]) -> Self {
        Self::registered(&Registry::new(), "detached", class_labels)
    }

    /// A bundle registered into `registry` under `prefix` (the
    /// workspace uses `clue_fault`), creating or sharing:
    ///
    /// * `{prefix}_injected_total`
    /// * `{prefix}_{class}_injected_total` per label in `class_labels`
    /// * `{prefix}_parse_errors_total`
    /// * `{prefix}_degraded_lookups_total`
    /// * `{prefix}_divergences_total`
    /// * `{prefix}_reader_panics_total`
    /// * `{prefix}_degraded_cost_overhead` (histogram)
    pub fn registered(registry: &Registry, prefix: &str, class_labels: &[&str]) -> Self {
        DegradationTelemetry {
            injected_total: registry
                .counter(&format!("{prefix}_injected_total"), "Faults injected, all classes"),
            parse_errors_total: registry.counter(
                &format!("{prefix}_parse_errors_total"),
                "Packets whose faulted wire image no longer parsed",
            ),
            degraded_lookups_total: registry.counter(
                &format!("{prefix}_degraded_lookups_total"),
                "Lookups degraded to the full common lookup",
            ),
            divergences_total: registry.counter(
                &format!("{prefix}_divergences_total"),
                "Forwarding decisions differing from the clue-less baseline (must stay 0)",
            ),
            reader_panics_total: registry.counter(
                &format!("{prefix}_reader_panics_total"),
                "Reader threads that panicked and were caught",
            ),
            degraded_cost_overhead: registry.histogram(
                &format!("{prefix}_degraded_cost_overhead"),
                "Extra memory references versus the clue-less baseline",
                DEGRADED_COST_BOUNDS,
            ),
            classes: class_labels
                .iter()
                .map(|l| {
                    let c = registry.counter(
                        &format!("{prefix}_{l}_injected_total"),
                        "Faults of this class injected",
                    );
                    (l.to_string(), c)
                })
                .collect(),
        }
    }

    /// The per-class counter for `label`, if the bundle knows it.
    pub fn class(&self, label: &str) -> Option<&Counter> {
        self.classes.iter().find(|(l, _)| l == label).map(|(_, c)| c)
    }

    /// The class labels, in construction order.
    pub fn class_labels(&self) -> impl Iterator<Item = &str> {
        self.classes.iter().map(|(l, _)| l.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_names_follow_the_convention() {
        let registry = Registry::new();
        let t = DegradationTelemetry::registered(
            &registry,
            "clue_fault",
            &["corrupt_clue", "stale_clue"],
        );
        for name in [
            "clue_fault_injected_total",
            "clue_fault_corrupt_clue_injected_total",
            "clue_fault_stale_clue_injected_total",
            "clue_fault_parse_errors_total",
            "clue_fault_degraded_lookups_total",
            "clue_fault_divergences_total",
            "clue_fault_reader_panics_total",
            "clue_fault_degraded_cost_overhead",
        ] {
            assert!(registry.contains(name), "missing {name}");
        }
        t.injected_total.inc();
        t.class("corrupt_clue").unwrap().add(3);
        t.degraded_cost_overhead.observe(7);
        // Registered handles share cells with the registry.
        let again = DegradationTelemetry::registered(
            &registry,
            "clue_fault",
            &["corrupt_clue", "stale_clue"],
        );
        assert_eq!(again.injected_total.get(), 1);
        assert_eq!(again.class("corrupt_clue").unwrap().get(), 3);
        assert_eq!(again.degraded_cost_overhead.count(), 1);
        assert!(again.class("no_such_class").is_none());
    }

    #[test]
    fn detached_cells_are_live_and_shared_by_clones() {
        let t = DegradationTelemetry::detached(&["dropped"]);
        t.reader_panics_total.inc();
        t.class("dropped").unwrap().inc();
        let clone = t.clone();
        clone.reader_panics_total.inc();
        assert_eq!(t.reader_panics_total.get(), 2, "clones share cells");
        assert_eq!(t.class("dropped").unwrap().get(), 1);
        assert_eq!(t.class_labels().collect::<Vec<_>>(), vec!["dropped"]);
    }
}
