//! The metric registry: named counters, gauges and histograms over
//! lock-free, cacheline-sharded atomic cells.
//!
//! Registration takes a short mutex to update the name map; the handles
//! it returns are clones of `Arc`-shared cells, so recording on the hot
//! path is a relaxed atomic add with no lock anywhere. Counters and
//! histograms are **sharded** ([`crate::shard`]): each recording thread
//! writes its own cacheline-padded cell and the shards are merged only
//! when something reads — `get()`, `snapshot()`, an exporter, the
//! scrape server. A shared `&Registry` (or a cloned handle) therefore
//! works unchanged from parallel workloads, with no cross-core
//! cacheline traffic on the record path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::shard::{shard_index, ShardedU64, SHARDS};

/// A monotonically increasing counter. Sharded: `inc`/`add` touch only
/// the calling thread's cell; `get` merges at read time.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<ShardedU64>,
}

impl Counter {
    /// A standalone counter (not attached to any registry).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.cell.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.add(n);
    }

    /// The current value (merged across shards).
    pub fn get(&self) -> u64 {
        self.cell.sum()
    }
}

/// A gauge: an arbitrary value that can go up and down. Stored as the
/// bit pattern of an `f64` so fractions (hit rates, problematic
/// fractions) fit alongside sizes. Gauges are *set*, not accumulated,
/// so they stay a single cell — sharding has nothing to merge.
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { bits: Arc::new(AtomicU64::new(0f64.to_bits())) }
    }
}

impl Gauge {
    /// A standalone gauge (not attached to any registry).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// One shard of a histogram: its own buckets, sum and count, alone on
/// its cachelines so concurrent observers never write a line another
/// observer reads. `count` is incremented **last, with Release** — the
/// snapshot's consistency anchor (see [`Histogram::snapshot`]).
#[repr(align(64))]
#[derive(Debug)]
struct HistShard {
    /// `bounds.len() + 1` cells; the last is the overflow (`+Inf`).
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistShard {
    fn new(buckets: usize) -> Self {
        HistShard {
            buckets: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket histogram with inclusive upper bounds and an overflow
/// bucket, plus running `sum` and `count`, sharded per recording
/// thread.
///
/// `observe(v)` increments the first bucket whose bound satisfies
/// `v <= bound`, or the overflow bucket when `v` exceeds every bound —
/// Prometheus `le` semantics.
///
/// **Snapshot consistency.** An observation is three stores (bucket,
/// sum, count); a concurrent scrape could once see `count != Σ buckets`
/// and render a histogram whose `_count` line disagreed with its own
/// cumulative buckets. The fix is ordered: `observe` bumps the bucket
/// and sum first and the count **last with Release**; `snapshot` reads
/// each shard's count **first with Acquire** (so every counted
/// observation's bucket increment is visible) and then clamps the
/// bucket counts down to the count, trimming in-flight observations
/// that had reached their bucket but not yet the count. Every snapshot
/// therefore satisfies `Σ counts == count` exactly. (`sum` may still
/// momentarily include an in-flight value — the same benign skew real
/// Prometheus client libraries exhibit.)
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Arc<Vec<u64>>,
    shards: Arc<Vec<HistShard>>,
}

impl Histogram {
    /// A standalone histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    pub(crate) fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            shards: Arc::new((0..SHARDS).map(|_| HistShard::new(bounds.len() + 1)).collect()),
            bounds: Arc::new(bounds.to_vec()),
        }
    }

    /// Records one observation (into the calling thread's shard only).
    #[inline]
    pub fn observe(&self, v: u64) {
        let i = self.bounds.partition_point(|&b| b < v);
        let shard = &self.shards[shard_index()];
        shard.buckets[i].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
        // Last, with Release: once a reader acquires this increment it
        // also sees the bucket and sum increments above.
        shard.count.fetch_add(1, Ordering::Release);
    }

    /// Number of observations.
    #[cfg(test)]
    pub(crate) fn count(&self) -> u64 {
        self.shards.iter().map(|s| s.count.load(Ordering::Acquire)).sum()
    }

    /// Sum of all observed values.
    #[cfg(test)]
    pub(crate) fn sum(&self) -> u64 {
        self.shards.iter().map(|s| s.sum.load(Ordering::Relaxed)).sum()
    }

    /// Mean observed value (0.0 when empty).
    #[cfg(test)]
    pub(crate) fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// A point-in-time snapshot with `Σ counts == count` guaranteed;
    /// see the type docs for the ordering argument.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = vec![0u64; self.bounds.len() + 1];
        let mut sum = 0u64;
        let mut count = 0u64;
        for shard in self.shards.iter() {
            // Count first (Acquire): every observation included in it
            // has already published its bucket increment.
            let c = shard.count.load(Ordering::Acquire);
            let mut shard_counts: Vec<u64> =
                shard.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
            // Trim in-flight observations (bucket bumped, count not
            // yet): remove the excess from the highest buckets down so
            // the shard's bucket total equals its count.
            let mut excess = shard_counts.iter().sum::<u64>().saturating_sub(c);
            for b in shard_counts.iter_mut().rev() {
                if excess == 0 {
                    break;
                }
                let trim = excess.min(*b);
                *b -= trim;
                excess -= trim;
            }
            for (m, s) in counts.iter_mut().zip(&shard_counts) {
                *m += s;
            }
            sum += shard.sum.load(Ordering::Relaxed);
            count += c;
        }
        HistogramSnapshot { bounds: self.bounds.as_slice().to_vec(), counts, sum, count }
    }
}

/// A point-in-time copy of a [`Histogram`], internally consistent:
/// `Σ counts == count` (see [`Histogram::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds (without the overflow bucket).
    pub(crate) bounds: Vec<u64>,
    /// Per-bucket counts; one longer than `bounds` (overflow last).
    pub(crate) counts: Vec<u64>,
    /// Sum of observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear
    /// interpolation inside the bucket holding the target rank — the
    /// same estimator as Prometheus's `histogram_quantile`. Bucket `i`
    /// spans `(bounds[i-1], bounds[i]]` (the first spans `[0,
    /// bounds[0]]`); ranks landing in the overflow bucket report the
    /// highest finite bound, since the overflow has no upper edge to
    /// interpolate toward. Returns 0.0 for an empty histogram.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = cum;
            cum += c;
            if c > 0 && cum as f64 >= rank {
                if i >= self.bounds.len() {
                    // Overflow bucket: no finite upper edge.
                    return self.bounds.last().copied().unwrap_or(0) as f64;
                }
                let upper = self.bounds[i] as f64;
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] as f64 };
                let frac = ((rank - prev as f64) / c as f64).clamp(0.0, 1.0);
                return lower + (upper - lower) * frac;
            }
        }
        self.bounds.last().copied().unwrap_or(0) as f64
    }

    /// The median estimate; see `Self::quantile`.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// The 90th-percentile estimate; see `Self::quantile`.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// The 99th-percentile estimate; see `Self::quantile`.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// One registered metric (as stored and snapshotted).
#[derive(Debug, Clone)]
pub(crate) enum Metric {
    /// See [`Counter`].
    Counter(Counter),
    /// See [`Gauge`].
    Gauge(Gauge),
    /// See [`Histogram`].
    Histogram(Histogram),
}

/// A point-in-time value of one metric.
#[derive(Debug, Clone)]
pub(crate) enum Snapshot {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

#[derive(Debug)]
struct Entry {
    help: String,
    metric: Metric,
}

/// A named collection of metrics.
///
/// Names follow the Prometheus convention `[a-zA-Z_][a-zA-Z0-9_]*`; the
/// workspace uses `clue_<component>_<metric>` (see the crate docs).
/// Registration is idempotent: asking for an existing name returns a
/// handle to the same cells, so independently constructed components
/// can share metrics through a common registry.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<BTreeMap<String, Entry>>,
}

fn validate_name(name: &str) {
    let mut chars = name.chars();
    let ok_first = chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    let ok_rest = name.chars().skip(1).all(|c| c.is_ascii_alphanumeric() || c == '_');
    assert!(ok_first && ok_rest, "invalid metric name {name:?}");
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter `name`, creating it if absent.
    ///
    /// # Panics
    /// Panics if `name` is invalid or already registered as a
    /// different metric kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        validate_name(name);
        let mut entries = self.entries.lock().expect("registry poisoned");
        let entry = entries.entry(name.to_owned()).or_insert_with(|| Entry {
            help: help.to_owned(),
            metric: Metric::Counter(Counter::new()),
        });
        match &entry.metric {
            Metric::Counter(c) => c.clone(),
            other => panic!("{name} already registered as {}", kind(other)),
        }
    }

    /// Returns the gauge `name`, creating it if absent.
    ///
    /// # Panics
    /// Panics if `name` is invalid or registered as another kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        validate_name(name);
        let mut entries = self.entries.lock().expect("registry poisoned");
        let entry = entries.entry(name.to_owned()).or_insert_with(|| Entry {
            help: help.to_owned(),
            metric: Metric::Gauge(Gauge::new()),
        });
        match &entry.metric {
            Metric::Gauge(g) => g.clone(),
            other => panic!("{name} already registered as {}", kind(other)),
        }
    }

    /// Returns the histogram `name`, creating it with `bounds` if
    /// absent (existing histograms keep their original bounds).
    ///
    /// # Panics
    /// Panics if `name` is invalid, registered as another kind, or
    /// `bounds` is invalid.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Histogram {
        validate_name(name);
        let mut entries = self.entries.lock().expect("registry poisoned");
        let entry = entries.entry(name.to_owned()).or_insert_with(|| Entry {
            help: help.to_owned(),
            metric: Metric::Histogram(Histogram::new(bounds)),
        });
        match &entry.metric {
            Metric::Histogram(h) => h.clone(),
            other => panic!("{name} already registered as {}", kind(other)),
        }
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.lock().expect("registry poisoned").contains_key(name)
    }

    /// Number of registered metrics.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().expect("registry poisoned").len()
    }

    /// `true` iff nothing is registered.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sorted point-in-time snapshot of every metric:
    /// `(name, help, value)`.
    pub(crate) fn snapshot(&self) -> Vec<(String, String, Snapshot)> {
        let entries = self.entries.lock().expect("registry poisoned");
        entries
            .iter()
            .map(|(name, e)| {
                let snap = match &e.metric {
                    Metric::Counter(c) => Snapshot::Counter(c.get()),
                    Metric::Gauge(g) => Snapshot::Gauge(g.get()),
                    Metric::Histogram(h) => Snapshot::Histogram(h.snapshot()),
                };
                (name.clone(), e.help.clone(), snap)
            })
            .collect()
    }

    /// Renders the registry in Prometheus text-exposition format.
    pub fn to_prometheus(&self) -> String {
        crate::export::to_prometheus(self)
    }

    /// Renders the registry as a JSON object.
    pub fn to_json(&self) -> String {
        crate::export::to_json(self)
    }
}

fn kind(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_cells_across_handles() {
        let reg = Registry::new();
        let a = reg.counter("clue_test_total", "test");
        let b = reg.counter("clue_test_total", "test");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(b.get(), 5);
    }

    #[test]
    fn gauges_hold_fractions() {
        let reg = Registry::new();
        let g = reg.gauge("clue_test_ratio", "test");
        g.set(0.375);
        assert_eq!(g.get(), 0.375);
        assert_eq!(reg.gauge("clue_test_ratio", "").get(), 0.375);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("clue_test_x", "");
        reg.gauge("clue_test_x", "");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_panic() {
        Registry::new().counter("3bad name", "");
    }

    #[test]
    fn histogram_buckets_follow_le_semantics() {
        let h = Histogram::new(&[1, 4, 16]);
        // On-edge values land in their own bucket (le semantics).
        h.observe(1);
        h.observe(4);
        h.observe(16);
        // Interior values.
        h.observe(2);
        // Overflow.
        h.observe(17);
        h.observe(1_000_000);
        assert_eq!(h.snapshot().counts, vec![1, 2, 1, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1 + 4 + 16 + 2 + 17 + 1_000_000);
    }

    #[test]
    fn histogram_zero_lands_in_first_bucket() {
        let h = Histogram::new(&[0, 2]);
        h.observe(0);
        assert_eq!(h.snapshot().counts, vec![1, 0, 0]);
    }

    #[test]
    fn histogram_mean() {
        let h = Histogram::new(&[10]);
        assert_eq!(h.mean(), 0.0);
        h.observe(4);
        h.observe(8);
        assert_eq!(h.mean(), 6.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        Histogram::new(&[4, 2]);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.counter("clue_b_total", "b");
        reg.gauge("clue_a_value", "a");
        reg.histogram("clue_c_hist", "c", &[1]);
        let names: Vec<String> = reg.snapshot().into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, vec!["clue_a_value", "clue_b_total", "clue_c_hist"]);
        assert_eq!(reg.len(), 3);
        assert!(!reg.is_empty());
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let reg = std::sync::Arc::new(Registry::new());
        let c = reg.counter("clue_threads_total", "");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn sharded_histogram_merges_across_threads() {
        let h = Histogram::new(&[1, 2, 4]);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.observe((t + i) % 6);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.counts.iter().sum::<u64>(), 4000);
    }

    /// The satellite regression: a scrape racing live `observe` calls
    /// must never see `count != Σ buckets`. Writers hammer one shared
    /// histogram while a reader snapshots continuously; every snapshot
    /// must be internally consistent, and the final state exact.
    #[test]
    fn snapshots_are_internally_consistent_under_concurrent_observes() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let h = Histogram::new(&[1, 2, 4, 8]);
        let stop = Arc::new(AtomicBool::new(false));
        // Writers start only once the reader has snapshotted, so the
        // race happens however the threads are scheduled.
        let reading = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                let reading = reading.clone();
                std::thread::spawn(move || {
                    while !reading.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    for i in 0..50_000u64 {
                        h.observe((t * 3 + i) % 10);
                    }
                })
            })
            .collect();
        let reader = {
            let h = h.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut snaps = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let s = h.snapshot();
                    assert_eq!(
                        s.counts.iter().sum::<u64>(),
                        s.count,
                        "scrape skew: buckets disagree with count in {s:?}"
                    );
                    snaps += 1;
                    reading.store(true, Ordering::Release);
                }
                snaps
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let snaps = reader.join().unwrap();
        assert!(snaps > 0, "the reader must have raced at least one snapshot");
        let s = h.snapshot();
        assert_eq!(s.count, 200_000);
        assert_eq!(s.counts.iter().sum::<u64>(), 200_000);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new(&[10, 20, 40]);
        // 10 observations uniformly in (0, 10]: p50 interpolates to 5.
        for _ in 0..10 {
            h.observe(5);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 5.0);
        assert_eq!(s.quantile(1.0), 10.0);

        // Split 5 / 5 across the first two buckets: the median sits at
        // the first bucket's upper edge.
        let h = Histogram::new(&[10, 20]);
        for _ in 0..5 {
            h.observe(1);
        }
        for _ in 0..5 {
            h.observe(15);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 10.0);
        assert_eq!(s.p99(), 19.8, "0.99 * 10 = rank 9.9 → 80% into (10, 20]");
    }

    #[test]
    fn quantiles_handle_overflow_and_empty() {
        let h = Histogram::new(&[1, 2]);
        assert_eq!(h.snapshot().quantile(0.5), 0.0, "empty histogram");
        for _ in 0..10 {
            h.observe(100); // everything in the overflow bucket
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 2.0, "overflow reports the highest finite bound");
        assert_eq!(s.p99(), 2.0);
    }
}
