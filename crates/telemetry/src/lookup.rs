//! Pre-named metric bundles for the workspace's hot paths.
//!
//! Components don't invent metric names ad hoc: they hold a
//! [`LookupTelemetry`] (per-lookup classification, memory references,
//! search depth) or a [`CacheTelemetry`] (hits/misses/evictions),
//! *registered* into a shared [`Registry`] under the
//! workspace naming convention `clue_<component>_<metric>`, or
//! *detached*: the same bundle registered into a private registry, so
//! its cells are live but nothing exports them.
//!
//! Because handles share their cells with the registry, a component
//! recording into a registered bundle is automatically visible to
//! every exporter with no copying or locking.

use crate::registry::{Counter, Histogram, Registry};
use crate::trace::{LookupClass, LookupEvent};
use crate::{MEMORY_REFERENCE_BOUNDS, PREFIX_LENGTH_BOUNDS, SEARCH_DEPTH_BOUNDS};

/// Telemetry for one lookup path (an engine, a simulator, a CLI run).
///
/// Recording one [`LookupEvent`] costs a handful of relaxed atomic
/// adds; cloning shares the underlying cells.
#[derive(Debug, Clone)]
pub struct LookupTelemetry {
    /// Every lookup observed.
    pub(crate) lookups_total: Counter,
    /// Lookups by resolution class, indexed by `class as usize`, which
    /// is the class's position in [`LookupClass::all`].
    pub(crate) by_class: [Counter; 5],
    /// Total memory references per lookup.
    pub(crate) memory_references: Histogram,
    /// Continued-search depth per lookup (0 for final hits).
    pub(crate) search_depth: Histogram,
    /// Length of the clue carried, for clue-bearing lookups.
    pub(crate) clue_length: Histogram,
}

impl LookupTelemetry {
    /// A detached bundle: live cells in a private registry, exported
    /// nowhere.
    #[cfg(test)]
    pub(crate) fn detached() -> Self {
        Self::registered(&Registry::new(), "detached")
    }

    /// A bundle registered into `registry` under `prefix` (e.g.
    /// `clue_core`), creating or sharing:
    ///
    /// * `{prefix}_lookups_total`
    /// * `{prefix}_lookups_{clueless,final,continued,miss,malformed}_total`
    /// * `{prefix}_memory_references` (histogram)
    /// * `{prefix}_search_depth` (histogram)
    /// * `{prefix}_clue_length` (histogram)
    pub fn registered(registry: &Registry, prefix: &str) -> Self {
        let lookups_total = registry.counter(
            &format!("{prefix}_lookups_total"),
            "Total lookups performed",
        );
        let by_class = LookupClass::all().map(|class| {
            registry.counter(
                &format!("{prefix}_lookups_{}_total", class.label()),
                match class {
                    LookupClass::Clueless => "Lookups that arrived without a usable clue",
                    LookupClass::Final => "Clue hits resolved by the FD alone",
                    LookupClass::Continued => "Clue hits that ran a continued search",
                    LookupClass::Miss => "Clue-table misses (full lookup)",
                    LookupClass::Malformed => "Clues ignored as not a prefix of the destination",
                },
            )
        });
        LookupTelemetry {
            lookups_total,
            by_class,
            memory_references: registry.histogram(
                &format!("{prefix}_memory_references"),
                "Memory references per lookup",
                MEMORY_REFERENCE_BOUNDS,
            ),
            search_depth: registry.histogram(
                &format!("{prefix}_search_depth"),
                "Continued-search depth per lookup",
                SEARCH_DEPTH_BOUNDS,
            ),
            clue_length: registry.histogram(
                &format!("{prefix}_clue_length"),
                "Length of the clue carried by the packet",
                PREFIX_LENGTH_BOUNDS,
            ),
        }
    }

    /// Records one lookup.
    #[inline]
    pub fn record(&self, event: &LookupEvent) {
        self.lookups_total.inc();
        self.by_class[event.class as usize].inc();
        self.memory_references.observe(event.memory_references);
        self.search_depth.observe(event.search_depth);
        if let Some(len) = event.clue_len {
            self.clue_length.observe(len as u64);
        }
    }

    /// The count recorded for `class`.
    pub fn class_count(&self, class: LookupClass) -> u64 {
        self.by_class[class as usize].get()
    }

    /// Resets every cell (e.g. after a warm-up phase).
    pub fn reset(&self) {
        self.lookups_total.reset();
        for c in &self.by_class {
            c.reset();
        }
        self.memory_references.reset();
        self.search_depth.reset();
        self.clue_length.reset();
    }
}

/// Telemetry for an LRU cache.
#[derive(Debug, Clone)]
pub struct CacheTelemetry {
    /// Lookups served from the cache.
    pub hits: Counter,
    /// Lookups that fell through to the backing store.
    pub misses: Counter,
    /// Entries evicted to make room.
    pub evictions: Counter,
}

impl CacheTelemetry {

    /// A bundle registered into `registry` under `prefix` (the
    /// workspace uses `clue_cache`), creating or sharing
    /// `{prefix}_{hits,misses,evictions}_total`.
    pub fn registered(registry: &Registry, prefix: &str) -> Self {
        CacheTelemetry {
            hits: registry
                .counter(&format!("{prefix}_hits_total"), "Cache lookups served from the cache"),
            misses: registry.counter(
                &format!("{prefix}_misses_total"),
                "Cache lookups that fell through to the backing store",
            ),
            evictions: registry
                .counter(&format!("{prefix}_evictions_total"), "Entries evicted to make room"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let t = LookupTelemetry::detached();
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
        t.reset();
        assert_eq!(t.lookups_total.get(), 0);
        assert_eq!(t.memory_references.count(), 0);
    }

    #[test]
    fn a_class_discriminant_is_its_position_in_all() {
        for (i, class) in LookupClass::all().into_iter().enumerate() {
            assert_eq!(class as usize, i, "{class:?}");
        }
    }

    #[test]
    fn registered_bundle_is_visible_through_the_registry() {
        let reg = Registry::new();
        let t = LookupTelemetry::registered(&reg, "clue_core");
        t.record(&ev(LookupClass::Final, 1));
        assert!(reg.contains("clue_core_lookups_total"));
        assert!(reg.contains("clue_core_lookups_final_total"));
        assert!(reg.contains("clue_core_memory_references"));
        let prom = reg.to_prometheus();
        assert!(prom.contains("clue_core_lookups_total 1"));
        assert!(prom.contains("clue_core_lookups_final_total 1"));
        assert!(prom.contains("clue_core_memory_references_bucket{le=\"1\"} 1"));
    }

    #[test]
    fn two_registered_bundles_share_cells() {
        let reg = Registry::new();
        let a = LookupTelemetry::registered(&reg, "clue_core");
        let b = LookupTelemetry::registered(&reg, "clue_core");
        a.record(&ev(LookupClass::Miss, 9));
        assert_eq!(b.lookups_total.get(), 1);
        assert_eq!(b.class_count(LookupClass::Miss), 1);
    }
}
