//! Metric bundle for the entropy-compressed compiled path.
//!
//! The per-packet walk inherits the ordinary [`crate::LookupTelemetry`]
//! stream; this bundle counts the compressed batch loop through the
//! shared [`BatchTelemetry`] counters (batches, packets, prefetches) and additionally exposes the layout gauges the CRAM analysis reports —
//! arena bytes, bucket bytes, dictionary bytes and bytes/prefix — so a
//! scrape shows at a glance whether a table fits its cache budget.

use crate::batch::BatchTelemetry;
use crate::registry::{Gauge, Registry};

/// Telemetry for the compressed engine's batch loop and compiled
/// layout.
///
/// Counters are recorded once per batch; the layout gauges are set
/// once at compile/attach time and are pure descriptions of the
/// immutable arena.
#[derive(Clone, Debug)]
pub struct CompressedTelemetry {
    /// The batch-loop counters (`{prefix}_batches_total`, …).
    pub batch: BatchTelemetry,
    /// Bytes of the compressed walk arena (bitmap quads + rank
    /// directories).
    pub(crate) arena_bytes: Gauge,
    /// Bytes of the clue buckets (descriptors, slots, FD tags).
    pub(crate) bucket_bytes: Gauge,
    /// Bytes of the tag → prefix dictionary (control plane only; the
    /// hot walk never touches it).
    pub(crate) dict_bytes: Gauge,
    /// Trie vertices encoded in the arena.
    pub(crate) nodes: Gauge,
    /// Walk-arena bytes per receiver prefix — the headline compression
    /// figure (the frozen arena runs ~60 B/prefix at 1M routes).
    pub(crate) bytes_per_prefix: Gauge,
}

impl CompressedTelemetry {
    /// A detached bundle: live cells in a private registry, exported
    /// nowhere.
    #[cfg(test)]
    pub(crate) fn detached() -> Self {
        Self::registered(&Registry::new(), "detached")
    }

    /// A bundle registered into `registry` under `prefix` (e.g.
    /// `clue_compressed`), creating or sharing:
    ///
    /// * `{prefix}_batches_total`
    /// * `{prefix}_packets_total`
    /// * `{prefix}_prefetches_total`
    /// * `{prefix}_arena_bytes`
    /// * `{prefix}_bucket_bytes`
    /// * `{prefix}_dict_bytes`
    /// * `{prefix}_nodes`
    /// * `{prefix}_bytes_per_prefix`
    pub fn registered(registry: &Registry, prefix: &str) -> Self {
        CompressedTelemetry {
            batch: BatchTelemetry::registered(registry, prefix, "compressed"),
            arena_bytes: registry.gauge(
                &format!("{prefix}_arena_bytes"),
                "Bytes of the compressed walk arena (quads + rank directories)",
            ),
            bucket_bytes: registry.gauge(
                &format!("{prefix}_bucket_bytes"),
                "Bytes of the compressed engine's clue buckets",
            ),
            dict_bytes: registry.gauge(
                &format!("{prefix}_dict_bytes"),
                "Bytes of the tag-to-prefix dictionary (control plane)",
            ),
            nodes: registry
                .gauge(&format!("{prefix}_nodes"), "Trie vertices encoded in the compressed arena"),
            bytes_per_prefix: registry.gauge(
                &format!("{prefix}_bytes_per_prefix"),
                "Compressed walk-arena bytes per receiver prefix",
            ),
        }
    }

    /// Describes the compiled layout (set once; the arena is
    /// immutable).
    pub fn record_layout(
        &self,
        arena_bytes: u64,
        bucket_bytes: u64,
        dict_bytes: u64,
        nodes: u64,
        bytes_per_prefix: f64,
    ) {
        self.arena_bytes.set(arena_bytes as f64);
        self.bucket_bytes.set(bucket_bytes as f64);
        self.dict_bytes.set(dict_bytes as f64);
        self.nodes.set(nodes as f64);
        self.bytes_per_prefix.set(bytes_per_prefix);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_counts() {
        let t = CompressedTelemetry::detached();
        t.batch.record_batch(64, 64);
        t.batch.record_batch(10, 0);
        assert_eq!(t.batch.batches_total.get(), 2);
        assert_eq!(t.batch.packets_total.get(), 74);
        assert_eq!(t.batch.prefetches_total.get(), 64);
        t.record_layout(4096, 512, 256, 1000, 4.1);
        assert_eq!(t.arena_bytes.get(), 4096.0);
        assert_eq!(t.bytes_per_prefix.get(), 4.1);
    }

    #[test]
    fn registered_uses_the_naming_convention() {
        let registry = Registry::new();
        let t = CompressedTelemetry::registered(&registry, "clue_compressed");
        t.batch.record_batch(5, 5);
        t.record_layout(1, 2, 3, 4, 5.0);
        for name in [
            "clue_compressed_batches_total",
            "clue_compressed_packets_total",
            "clue_compressed_prefetches_total",
            "clue_compressed_arena_bytes",
            "clue_compressed_bucket_bytes",
            "clue_compressed_dict_bytes",
            "clue_compressed_nodes",
            "clue_compressed_bytes_per_prefix",
        ] {
            assert!(registry.contains(name), "{name} registered");
        }
        assert_eq!(t.batch.packets_total.get(), 5);
        assert_eq!(t.dict_bytes.get(), 3.0);
    }
}
