//! Metric bundle for the entropy-compressed compiled path.
//!
//! The per-packet walk inherits the ordinary [`crate::LookupTelemetry`]
//! stream; this bundle counts the compressed batch loop through the
//! shared [`BatchTelemetry`] counters (batches, packets, prefetches)
//! and adds the layout gauges the CRAM analysis reports — arena bytes,
//! bucket bytes, dictionary bytes and bytes/prefix — so a scrape shows
//! at a glance whether a table fits its cache budget.

use crate::batch::BatchTelemetry;

crate::bundle! {
    /// Telemetry for the compressed engine's batch loop and compiled
    /// layout.
    ///
    /// Counters are recorded once per batch; the layout gauges are set
    /// once at compile/attach time and are pure descriptions of the
    /// immutable arena.
    pub struct CompressedTelemetry in "clue_compressed" {
        arena_bytes: Gauge = "Bytes of the compressed walk arena (quads + rank directories)",
        bucket_bytes: Gauge = "Bytes of the compressed engine's clue buckets",
        /// The hot walk never touches the dictionary.
        dict_bytes: Gauge = "Bytes of the tag-to-prefix dictionary (control plane)",
        nodes: Gauge = "Trie vertices encoded in the compressed arena",
        /// The headline compression figure (the frozen arena runs
        /// ~60 B/prefix at 1M routes).
        bytes_per_prefix: Gauge = "Compressed walk-arena bytes per receiver prefix",
    }
    with |registry| {
        /// The batch-loop counters, under the same prefix.
        batch: BatchTelemetry = BatchTelemetry::registered(registry, "clue_compressed"),
    }
}

impl CompressedTelemetry {
    /// The batch-loop counters (`clue_compressed_batches_total`, …).
    pub fn batch(&self) -> &BatchTelemetry {
        &self.batch
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
    use crate::Registry;

    #[test]
    fn detached_counts() {
        let registry = Registry::new();
        let t = CompressedTelemetry::registered(&registry);
        t.batch().record_batch(64, 64);
        t.batch().record_batch(10, 0);
        let counter = |name: &str| {
            assert!(registry.contains(name), "{name} registered");
            registry.counter(name, "").get()
        };
        assert_eq!(counter("clue_compressed_batches_total"), 2);
        assert_eq!(counter("clue_compressed_packets_total"), 74);
        assert_eq!(counter("clue_compressed_prefetches_total"), 64);
        t.record_layout(4096, 512, 256, 1000, 4.1);
        assert_eq!(t.arena_bytes.get(), 4096.0);
        assert_eq!(t.bytes_per_prefix.get(), 4.1);
    }
}
