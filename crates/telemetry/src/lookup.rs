//! The per-lookup metric bundle of the workspace's lookup paths.
//!
//! An engine holds a [`LookupTelemetry`] registered into a shared
//! [`Registry`](crate::Registry) under `clue_core_*`; the engines compiled from
//! it inherit the same handles. Because handles share their cells with
//! the registry, every recorded lookup is visible to every exporter
//! with no copying or locking.

use crate::registry::Counter;
use crate::trace::{LookupClass, LookupEvent};
use crate::{MEMORY_REFERENCE_BOUNDS, PREFIX_LENGTH_BOUNDS};

crate::bundle! {
    /// Telemetry for one lookup path (an engine and the engines
    /// compiled from it).
    ///
    /// Recording one [`LookupEvent`] costs a handful of relaxed atomic
    /// adds; cloning shares the underlying cells.
    pub struct LookupTelemetry in "clue_core" {
        lookups_total: Counter = "Total lookups performed",
        lookups_clueless_total: Counter = "Lookups that arrived without a usable clue",
        lookups_final_total: Counter = "Clue hits resolved by the FD alone",
        lookups_continued_total: Counter = "Clue hits that ran a continued search",
        lookups_miss_total: Counter = "Clue-table misses (full lookup)",
        lookups_malformed_total: Counter = "Clues ignored as not a prefix of the destination",
        memory_references: Histogram(MEMORY_REFERENCE_BOUNDS) = "Memory references per lookup",
        /// Continued-walk lengths, 0 for final hits.
        search_depth: Histogram(&[0, 1, 2, 4, 8, 16, 32]) = "Continued-search depth per lookup",
        clue_length: Histogram(PREFIX_LENGTH_BOUNDS) = "Length of the clue carried by the packet",
    }
}

impl LookupTelemetry {
    /// Records one lookup.
    #[inline]
    pub fn record(&self, event: &LookupEvent) {
        self.lookups_total.inc();
        self.class_counter(event.class).inc();
        self.memory_references.observe(event.memory_references);
        self.search_depth.observe(event.search_depth);
        if let Some(len) = event.clue_len {
            self.clue_length.observe(len as u64);
        }
    }

    /// The count recorded for `class`.
    pub fn class_count(&self, class: LookupClass) -> u64 {
        self.class_counter(class).get()
    }

    fn class_counter(&self, class: LookupClass) -> &Counter {
        match class {
            LookupClass::Clueless => &self.lookups_clueless_total,
            LookupClass::Final => &self.lookups_final_total,
            LookupClass::Continued => &self.lookups_continued_total,
            LookupClass::Miss => &self.lookups_miss_total,
            LookupClass::Malformed => &self.lookups_malformed_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn ev(class: LookupClass, refs: u64) -> LookupEvent {
        LookupEvent {
            clue_len: Some(20),
            class,
            search_depth: if class == LookupClass::Continued { 3 } else { 0 },
            memory_references: refs,
        }
    }

    #[test]
    fn record_updates_totals_classes_and_histograms() {
        let t = LookupTelemetry::registered(&Registry::new());
        t.record(&ev(LookupClass::Final, 1));
        t.record(&ev(LookupClass::Final, 1));
        t.record(&ev(LookupClass::Continued, 4));
        t.record(&LookupEvent::clueless(13));
        assert_eq!(t.lookups_total.get(), 4);
        assert_eq!(t.class_count(LookupClass::Final), 2);
        assert_eq!(t.class_count(LookupClass::Continued), 1);
        assert_eq!(t.class_count(LookupClass::Clueless), 1);
        assert_eq!(t.class_count(LookupClass::Miss), 0);
        assert_eq!(t.memory_references.count(), 4);
        assert_eq!(t.memory_references.sum(), 19);
        // The clueless event has no clue, so only 3 lengths recorded.
        assert_eq!(t.clue_length.count(), 3);
    }

    #[test]
    fn two_registered_bundles_share_cells() {
        let reg = Registry::new();
        let a = LookupTelemetry::registered(&reg);
        let b = LookupTelemetry::registered(&reg);
        a.record(&ev(LookupClass::Miss, 9));
        assert_eq!(b.lookups_total.get(), 1);
        assert_eq!(b.class_count(LookupClass::Miss), 1);
        let prom = reg.to_prometheus();
        assert!(prom.contains("clue_core_lookups_miss_total 1"));
        assert!(prom.contains("clue_core_memory_references_bucket{le=\"12\"} 1"));
    }
}
