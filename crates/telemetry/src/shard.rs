//! Cacheline-sharded atomic cells — the contention treatment under
//! every hot-path metric.
//!
//! A single shared `AtomicU64` is lock-free but not contention-free:
//! when N cores increment the same counter, the cacheline holding it
//! ping-pongs between their private caches and the "relaxed add" costs
//! a coherence round-trip per increment. That is exactly the
//! shared-nothing serving runtime's failure mode (ROADMAP item 1:
//! "per-core telemetry aggregated at scrape time").
//!
//! [`ShardedU64`] splits one logical cell into [`SHARDS`] physical
//! cells, each alone on its cacheline. A writer picks its shard once
//! per thread (round-robin at first touch, cached in a thread-local)
//! and increments only that cell, so steady-state recording never
//! writes a line another recording thread reads. Readers merge the
//! shards — scrape-time work, off the hot path.
//!
//! The memory trade is explicit: one sharded cell is `SHARDS` × 64 B
//! (1 KiB at 16 shards) instead of 8 B. Metric handles are few and
//! long-lived, so the workspace buys contention-freedom with kilobytes.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of physical cells per logical cell. 16 covers the core
/// counts this workspace targets; more threads than shards simply
/// share (round-robin), degrading gracefully toward the old behavior.
pub(crate) const SHARDS: usize = 16;

/// A `u64` cell alone on its cacheline, so two shards never share one.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedCell(AtomicU64);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard, assigned round-robin at first metric touch.
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// The shard index the calling thread records into.
#[inline]
pub(crate) fn shard_index() -> usize {
    SHARD.with(|s| *s)
}

/// One logical `u64` counter cell, physically sharded; see the module
/// docs. All write operations touch only the calling thread's shard.
#[derive(Debug, Default)]
pub(crate) struct ShardedU64 {
    cells: [PaddedCell; SHARDS],
}

impl ShardedU64 {
    /// Adds `n` to the calling thread's shard.
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        self.cells[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The merged value across all shards.
    pub(crate) fn sum(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_index_is_stable_per_thread() {
        let a = shard_index();
        let b = shard_index();
        assert_eq!(a, b);
        assert!(a < SHARDS);
    }

    #[test]
    fn adds_from_many_threads_merge_exactly() {
        let cell = std::sync::Arc::new(ShardedU64::default());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cell = cell.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        cell.add(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.sum(), 80_000);
    }

    #[test]
    fn shards_do_not_share_cachelines() {
        assert_eq!(core::mem::size_of::<PaddedCell>(), 64);
        assert_eq!(core::mem::align_of::<PaddedCell>(), 64);
    }
}
