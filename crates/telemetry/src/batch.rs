//! Metric bundle for a compiled engine's prefetched batch loop.
//!
//! A compiled engine's per-packet walk is deliberately uninstrumented
//! (it inherits the ordinary [`crate::LookupTelemetry`] stream from
//! the engine it was compiled from); this bundle counts what is *new*
//! about the batch path — batch calls, packets and issued prefetches —
//! so an operator can see whether the prefetched loop is actually
//! engaged. The stride engine
//! registers it as `clue_stride_*`; the compressed engine carries it
//! inside [`crate::CompressedTelemetry`] as `clue_compressed_*`.

use crate::registry::{Counter, Registry};

/// Telemetry for a compiled engine's prefetched batch loop.
///
/// Counters are recorded once per batch (accumulated locally in the
/// hot loop), so attaching the bundle costs a handful of relaxed adds
/// per `lookup_batch`, not per packet.
#[derive(Clone, Debug)]
pub struct BatchTelemetry {
    /// Batch calls served.
    pub(crate) batches_total: Counter,
    /// Packets resolved.
    pub(crate) packets_total: Counter,
    /// Software prefetches issued ahead of their lookup (0 when the
    /// prefetch window is 1).
    pub(crate) prefetches_total: Counter,
}

impl BatchTelemetry {
    /// A detached bundle: live cells in a private registry, exported
    /// nowhere.
    #[cfg(test)]
    pub(crate) fn detached() -> Self {
        Self::registered(&Registry::new(), "detached", "detached")
    }

    /// A bundle registered into `registry` under `prefix` (e.g.
    /// `clue_stride`), with help text naming the `path` that serves it
    /// (e.g. `stride`), creating or sharing:
    ///
    /// * `{prefix}_batches_total`
    /// * `{prefix}_packets_total`
    /// * `{prefix}_prefetches_total`
    pub fn registered(registry: &Registry, prefix: &str, path: &str) -> Self {
        BatchTelemetry {
            batches_total: registry.counter(
                &format!("{prefix}_batches_total"),
                &format!("Batch calls served by the {path} path"),
            ),
            packets_total: registry.counter(
                &format!("{prefix}_packets_total"),
                &format!("Packets resolved by the {path} path"),
            ),
            prefetches_total: registry.counter(
                &format!("{prefix}_prefetches_total"),
                &format!("Software prefetches issued by the {path} batch loop"),
            ),
        }
    }

    /// Records one batch: `packets` resolved with `prefetches` prefetch
    /// hints issued.
    #[inline]
    pub fn record_batch(&self, packets: u64, prefetches: u64) {
        self.batches_total.inc();
        self.packets_total.add(packets);
        self.prefetches_total.add(prefetches);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_counts() {
        let t = BatchTelemetry::detached();
        t.record_batch(64, 64);
        t.record_batch(10, 0);
        assert_eq!(t.batches_total.get(), 2);
        assert_eq!(t.packets_total.get(), 74);
        assert_eq!(t.prefetches_total.get(), 64);
    }

    #[test]
    fn registered_uses_the_naming_convention() {
        let registry = Registry::new();
        let t = BatchTelemetry::registered(&registry, "clue_stride", "stride");
        t.record_batch(5, 5);
        for name in [
            "clue_stride_batches_total",
            "clue_stride_packets_total",
            "clue_stride_prefetches_total",
        ] {
            assert!(registry.contains(name), "{name} registered");
        }
        assert_eq!(t.packets_total.get(), 5);
    }
}
