//! Metric bundle for a compiled engine's prefetched batch loop.
//!
//! A compiled engine's per-packet walk is deliberately uninstrumented;
//! this bundle counts its batch path — batch calls, packets and issued
//! prefetches — so an operator can see whether the prefetched loop is
//! actually engaged. The code that calls a batch records it: the
//! stride batches as `clue_stride_*`, the compressed ones inside
//! [`crate::CompressedTelemetry`] as `clue_compressed_*`.

crate::bundle! {
    /// Telemetry for a compiled engine's prefetched batch loop,
    /// registered under `prefix` (`clue_stride` or `clue_compressed`;
    /// the help texts name the path after `clue_`).
    ///
    /// Counters are recorded once per batch, so the bundle costs a
    /// handful of relaxed adds per `lookup_batch`, not per packet.
    pub struct BatchTelemetry in prefix {
        batches_total: Counter = format!("Batch calls served by the {} path", path(prefix)),
        packets_total: Counter = format!("Packets resolved by the {} path", path(prefix)),
        /// 0 when the prefetch window is 1.
        prefetches_total: Counter =
            format!("Software prefetches issued by the {} batch loop", path(prefix)),
    }
}

/// The path a series prefix names: `clue_stride` serves `stride`.
fn path(prefix: &str) -> &str {
    prefix.strip_prefix("clue_").unwrap_or(prefix)
}

impl BatchTelemetry {
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
    use crate::Registry;

    #[test]
    fn detached_counts() {
        let t = BatchTelemetry::registered(&Registry::new(), "clue_stride");
        t.record_batch(64, 64);
        t.record_batch(10, 0);
        assert_eq!(t.batches_total.get(), 2);
        assert_eq!(t.packets_total.get(), 74);
        assert_eq!(t.prefetches_total.get(), 64);
    }
}
