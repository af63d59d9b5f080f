//! Epoch-swapped snapshots: serve lookups *while* the table changes.
//!
//! The [`FrozenEngine`] of `frozen.rs` is a one-shot immutable
//! compilation — perfect for the hot path, useless under BGP churn,
//! because a router cannot stop forwarding while its FIB rebuilds.
//! This module supplies the missing RCU-style layer, with no external
//! dependencies:
//!
//! * [`EpochCell<T>`] — a generic atomic generation-swap cell. A
//!   single builder [`publish`](EpochCell::publish)es new values; any
//!   number of registered readers [`pin`](EpochReader::pin) the
//!   current value and use it lock-free for as long as the guard
//!   lives. Superseded values are *retired*, not freed, until every
//!   reader has provably moved past them (an epoch-counter grace
//!   period).
//! * [`EpochEngine<A>`] — the cell specialised to
//!   `FrozenEngine<A>`, with freeze-and-publish plumbing. It records
//!   nothing: [`EpochEngine::publish`] and [`EpochEngine::reclaim`]
//!   return what they did, and the caller records it.
//!
//! # Protocol
//!
//! The cell keeps a global epoch counter `E`, starting at 0 and
//! bumped by every publish, and one atomic *pin slot* per registered
//! reader (`u64::MAX` = quiescent). To pin, a reader
//!
//! 1. reads `E` and stores it into its slot (announcing "I may be
//!    using any snapshot of epoch ≥ this"), then
//! 2. loads the current snapshot pointer.
//!
//! To publish, the builder swaps the pointer to the new snapshot,
//! bumps `E`, and pushes the old snapshot onto a retire list tagged
//! with its own epoch. A retired snapshot of epoch `k` is freed only
//! when the minimum over all pin slots exceeds `k`.
//!
//! # Safety argument
//!
//! All protocol atomics use `SeqCst`, so every pin, swap and scan
//! falls in one total order. A reader that obtained the snapshot of
//! epoch `k` performed (pin-store → pointer-load) in that order, and
//! its pointer-load preceded the builder's swap that retired `k`.
//! Because the epoch counter is bumped *after* the swap, the value
//! the reader pinned was at most `k`; and because the pin-store
//! precedes the pointer-load, every later reclamation scan observes a
//! pin ≤ `k` and keeps the snapshot alive. Conversely a reader's
//! pinned epoch never exceeds the epoch of the snapshot it loads (the
//! counter trails the pointer), so freeing epochs strictly below the
//! minimum pin can never free a snapshot still in use. Guards borrow
//! their reader mutably, so a slot is never overwritten while a guard
//! is live, and readers deregister their slot on drop.
//!
//! This module uses `unsafe` (the retire list stores raw `Box`
//! pointers so retirement is explicit rather than refcounted); the
//! crate root holds `deny(unsafe_code)` and this file opts back in
//! locally. The only other module of `clue-core` that does is
//! `prefetch`, for its one hint intrinsic.

#![allow(unsafe_code)]

use std::ops::Deref;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

use clue_trie::Address;

use crate::engine::ClueEngine;
use crate::frozen::{FreezeError, FrozenEngine};

/// Pin-slot sentinel: the reader holds no snapshot.
const QUIESCENT: u64 = u64::MAX;

/// One published snapshot with its generation number.
struct Slot<T> {
    epoch: u64,
    value: T,
}

/// A registered reader's announcement cell.
struct ReaderSlot {
    pinned: AtomicU64,
}

/// A superseded snapshot awaiting its grace period.
struct Retired<T> {
    epoch: u64,
    ptr: *mut Slot<T>,
}

/// What one [`EpochCell::publish`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Publication {
    /// The epoch of the snapshot just published.
    pub(crate) epoch: u64,
    /// Retired snapshots freed because their grace period had expired.
    pub reclaimed: usize,
    /// Retired snapshots still awaiting a grace period after this call.
    pub(crate) retired: usize,
}

/// An atomic generation-swap cell; see the module docs.
pub struct EpochCell<T> {
    current: AtomicPtr<Slot<T>>,
    /// Epoch of the current snapshot — bumped after each swap, so it
    /// trails the pointer by design (readers pin conservatively low).
    global: AtomicU64,
    readers: Mutex<Vec<Arc<ReaderSlot>>>,
    retired: Mutex<Vec<Retired<T>>>,
    /// Serialises publishers; the protocol assumes one builder at a
    /// time and this makes that assumption safe rather than trusted.
    publish_lock: Mutex<()>,
}

// SAFETY: the cell owns its slots exclusively (readers only obtain
// shared references under the pin protocol above), so sending the
// cell is sending `T` values (`T: Send`) and sharing it hands out
// `&T` across threads (`T: Sync`).
unsafe impl<T: Send> Send for EpochCell<T> {}
unsafe impl<T: Send + Sync> Sync for EpochCell<T> {}

impl<T> EpochCell<T> {
    /// A cell holding `initial` as the epoch-0 snapshot.
    pub fn new(initial: T) -> Self {
        let slot = Box::into_raw(Box::new(Slot { epoch: 0, value: initial }));
        EpochCell {
            current: AtomicPtr::new(slot),
            global: AtomicU64::new(0),
            readers: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
            publish_lock: Mutex::new(()),
        }
    }

    /// The epoch of the freshest published snapshot.
    pub fn current_epoch(&self) -> u64 {
        self.global.load(SeqCst)
    }

    /// Registered readers.
    pub fn reader_count(&self) -> usize {
        self.readers.lock().expect("reader registry poisoned").len()
    }

    /// Superseded snapshots still awaiting their grace period.
    pub fn retired_count(&self) -> usize {
        self.retired.lock().expect("retire list poisoned").len()
    }

    /// Registers a reader. Readers are cheap; register one per thread
    /// and keep it — every [`pin`](EpochReader::pin) reuses its slot.
    pub fn reader(&self) -> EpochReader<'_, T> {
        let slot = Arc::new(ReaderSlot { pinned: AtomicU64::new(QUIESCENT) });
        self.readers.lock().expect("reader registry poisoned").push(Arc::clone(&slot));
        EpochReader { cell: self, slot }
    }

    /// Publishes `value` as the next snapshot, retires the previous
    /// one, and opportunistically frees any retired snapshot whose
    /// grace period has expired. Safe to call from any thread;
    /// publishers are serialised internally.
    pub fn publish(&self, value: T) -> Publication {
        let _guard = self.publish_lock.lock().expect("publish lock poisoned");
        let old_epoch = self.global.load(SeqCst);
        let epoch = old_epoch + 1;
        let fresh = Box::into_raw(Box::new(Slot { epoch, value }));
        let old = self.current.swap(fresh, SeqCst);
        self.global.store(epoch, SeqCst);
        let (reclaimed, retired) = {
            let mut retired = self.retired.lock().expect("retire list poisoned");
            retired.push(Retired { epoch: old_epoch, ptr: old });
            let freed = self.reclaim_locked(&mut retired);
            (freed, retired.len())
        };
        Publication { epoch, reclaimed, retired }
    }

    /// Frees every retired snapshot whose grace period has expired
    /// (no reader pin is at or below its epoch); returns how many.
    pub fn reclaim(&self) -> usize {
        let mut retired = self.retired.lock().expect("retire list poisoned");
        self.reclaim_locked(&mut retired)
    }

    fn min_pinned(&self) -> u64 {
        let readers = self.readers.lock().expect("reader registry poisoned");
        readers.iter().map(|r| r.pinned.load(SeqCst)).min().unwrap_or(QUIESCENT)
    }

    fn reclaim_locked(&self, retired: &mut Vec<Retired<T>>) -> usize {
        let min = self.min_pinned();
        let before = retired.len();
        retired.retain(|r| {
            if r.epoch < min {
                // SAFETY: `r.ptr` came from `Box::into_raw` in
                // `publish`, appears on the retire list exactly once,
                // and no reader can still hold it: every live guard's
                // pin is ≤ the epoch of the snapshot it dereferences,
                // so `r.epoch < min` means no guard points here.
                drop(unsafe { Box::from_raw(r.ptr) });
                false
            } else {
                true
            }
        });
        before - retired.len()
    }

    fn deregister(&self, slot: &Arc<ReaderSlot>) {
        let mut readers = self.readers.lock().expect("reader registry poisoned");
        if let Some(i) = readers.iter().position(|r| Arc::ptr_eq(r, slot)) {
            readers.swap_remove(i);
        }
    }
}

impl<T> Drop for EpochCell<T> {
    fn drop(&mut self) {
        // `&mut self`: no readers or guards can exist (they borrow the
        // cell), so everything is reclaimable.
        let current = self.current.load(SeqCst);
        if !current.is_null() {
            // SAFETY: `current` always holds a live `Box::into_raw`
            // pointer and nothing else references it here.
            drop(unsafe { Box::from_raw(current) });
            self.current.store(ptr::null_mut(), SeqCst);
        }
        let mut retired = self.retired.lock().expect("retire list poisoned");
        for r in retired.drain(..) {
            // SAFETY: as in `reclaim_locked`; with no readers left,
            // every retired snapshot is unreferenced.
            drop(unsafe { Box::from_raw(r.ptr) });
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCell")
            .field("epoch", &self.current_epoch())
            .field("readers", &self.reader_count())
            .field("retired", &self.retired_count())
            .finish()
    }
}

/// A registered reader of an [`EpochCell`]. `Send` (move one into
/// each worker thread); pin to obtain a usable snapshot.
pub struct EpochReader<'c, T> {
    cell: &'c EpochCell<T>,
    slot: Arc<ReaderSlot>,
}

impl<T> EpochReader<'_, T> {
    /// Pins the current snapshot: announces this reader's epoch, then
    /// loads the pointer. The returned guard keeps the snapshot (and
    /// every later one) alive until dropped; the `&mut` receiver
    /// makes nested pins on one reader a compile error, so the slot
    /// always reflects the oldest snapshot this reader can touch.
    pub fn pin(&mut self) -> EpochGuard<'_, T> {
        let epoch = self.cell.global.load(SeqCst);
        self.slot.pinned.store(epoch, SeqCst);
        let ptr = self.cell.current.load(SeqCst);
        EpochGuard { cell: self.cell, slot: &self.slot, ptr }
    }

    /// The epoch of the freshest published snapshot.
    pub fn current_epoch(&self) -> u64 {
        self.cell.current_epoch()
    }
}

impl<T> Drop for EpochReader<'_, T> {
    fn drop(&mut self) {
        self.slot.pinned.store(QUIESCENT, SeqCst);
        self.cell.deregister(&self.slot);
    }
}

/// A pinned snapshot; derefs to the published value. Dropping the
/// guard quiesces the reader, re-arming reclamation.
pub struct EpochGuard<'r, T> {
    cell: &'r EpochCell<T>,
    slot: &'r ReaderSlot,
    ptr: *const Slot<T>,
}

impl<T> EpochGuard<'_, T> {
    fn slot_ref(&self) -> &Slot<T> {
        // SAFETY: `ptr` was the cell's current snapshot when this
        // guard pinned; the pin (≤ its epoch, see module docs) blocks
        // reclamation for as long as the guard lives.
        unsafe { &*self.ptr }
    }

    /// The epoch of the pinned snapshot.
    pub fn epoch(&self) -> u64 {
        self.slot_ref().epoch
    }

    /// How many publishes this snapshot is behind the freshest one
    /// (0 = current). This is the staleness a lookup served from this
    /// guard experiences.
    pub fn lag(&self) -> u64 {
        self.cell.current_epoch().saturating_sub(self.epoch())
    }
}

impl<T> Deref for EpochGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.slot_ref().value
    }
}

impl<T> Drop for EpochGuard<'_, T> {
    fn drop(&mut self) {
        self.slot.pinned.store(QUIESCENT, SeqCst);
    }
}

/// An [`EpochCell`] over [`FrozenEngine`] snapshots with the
/// freeze-and-publish plumbing a churn driver needs: the builder
/// thread freezes after each update batch and calls
/// [`publish`](Self::publish), reader threads run `lookup_batch` on
/// pinned guards.
pub struct EpochEngine<A: Address> {
    cell: EpochCell<FrozenEngine<A>>,
}

impl<A: Address> EpochEngine<A> {
    /// Freezes `engine` as the epoch-0 snapshot.
    pub fn new(engine: &ClueEngine<A>) -> Result<Self, FreezeError> {
        Ok(Self::from_frozen(engine.freeze()?))
    }

    /// Wraps an already-frozen snapshot as epoch 0.
    pub(crate) fn from_frozen(frozen: FrozenEngine<A>) -> Self {
        EpochEngine { cell: EpochCell::new(frozen) }
    }

    /// Publishes a freshly frozen snapshot.
    pub fn publish(&self, frozen: FrozenEngine<A>) -> Publication {
        self.cell.publish(frozen)
    }

    /// Registers a reader; see [`EpochCell::reader`].
    pub fn reader(&self) -> EpochReader<'_, FrozenEngine<A>> {
        self.cell.reader()
    }

    /// The epoch of the freshest published snapshot.
    pub fn current_epoch(&self) -> u64 {
        self.cell.current_epoch()
    }

    /// Superseded snapshots still awaiting their grace period.
    pub fn retired_count(&self) -> usize {
        self.cell.retired_count()
    }

    /// Frees expired retired snapshots; returns how many.
    pub fn reclaim(&self) -> usize {
        self.cell.reclaim()
    }
}

impl<A: Address> std::fmt::Debug for EpochEngine<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochEngine")
            .field("epoch", &self.current_epoch())
            .field("retired", &self.retired_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CompiledBackend;
    use crate::engine::{EngineConfig, Method};
    use clue_lookup::Family;
    use clue_trie::{Cost, Ip4, Prefix};

    #[test]
    fn pin_sees_the_latest_snapshot() {
        let cell = EpochCell::new(10u64);
        let mut reader = cell.reader();
        assert_eq!(*reader.pin(), 10);
        assert_eq!(reader.pin().epoch(), 0);
        cell.publish(20);
        let guard = reader.pin();
        assert_eq!(*guard, 20);
        assert_eq!(guard.epoch(), 1);
        assert_eq!(guard.lag(), 0);
    }

    #[test]
    fn guards_keep_superseded_snapshots_alive() {
        let cell = EpochCell::new(vec![0u64; 4]);
        let mut reader = cell.reader();
        let guard = reader.pin();
        let p = cell.publish(vec![1; 4]);
        assert_eq!(p.epoch, 1);
        assert_eq!(p.reclaimed, 0, "epoch 0 is pinned");
        assert_eq!(cell.retired_count(), 1);
        // The pinned guard still reads the old value, and knows it lags.
        assert_eq!(*guard, vec![0; 4]);
        assert_eq!(guard.lag(), 1);
        drop(guard);
        assert_eq!(cell.reclaim(), 1, "grace period over once unpinned");
        assert_eq!(cell.retired_count(), 0);
    }

    #[test]
    fn publish_reclaims_opportunistically() {
        let cell = EpochCell::new(0u64);
        for i in 1..=5 {
            let p = cell.publish(i);
            assert_eq!(p.epoch, i);
        }
        // No readers registered: every publish frees the snapshot it
        // retires on the spot.
        assert_eq!(cell.retired_count(), 0);
    }

    #[test]
    fn readers_register_and_deregister() {
        let cell = EpochCell::new(0u64);
        assert_eq!(cell.reader_count(), 0);
        let r1 = cell.reader();
        let r2 = cell.reader();
        assert_eq!(cell.reader_count(), 2);
        drop(r1);
        assert_eq!(cell.reader_count(), 1);
        drop(r2);
        assert_eq!(cell.reader_count(), 0);
    }

    #[test]
    fn a_quiescent_reader_does_not_block_reclamation() {
        let cell = EpochCell::new(0u64);
        let mut reader = cell.reader();
        drop(reader.pin()); // pin and immediately quiesce
        cell.publish(1);
        assert_eq!(cell.retired_count(), 0, "no live guard, freed at publish");
    }

    #[test]
    fn concurrent_readers_only_see_consistent_snapshots() {
        // Each snapshot is `vec![epoch; 8]` — a reader observing a
        // torn or freed value would see mixed elements or garbage.
        const PUBLISHES: u64 = 200;
        const READERS: usize = 4;
        let cell = EpochCell::new(vec![0u64; 8]);
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                let mut reader = cell.reader();
                scope.spawn(move || {
                    let mut last_seen = 0;
                    loop {
                        let guard = reader.pin();
                        let epoch = guard.epoch();
                        assert!(guard.iter().all(|&v| v == epoch), "torn snapshot");
                        assert!(epoch >= last_seen, "epochs move forward");
                        assert!(guard.lag() <= PUBLISHES, "lag bounded by history");
                        last_seen = epoch;
                        drop(guard);
                        if epoch == PUBLISHES {
                            break;
                        }
                    }
                });
            }
            for e in 1..=PUBLISHES {
                cell.publish(vec![e; 8]);
            }
        });
        assert_eq!(cell.current_epoch(), PUBLISHES);
        // All readers gone: everything retired is reclaimable.
        cell.reclaim();
        assert_eq!(cell.retired_count(), 0);
    }

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    #[test]
    fn epoch_engine_publishes_refrozen_snapshots() {
        let sender = vec![p("10.0.0.0/8"), p("10.1.0.0/16")];
        let receiver = vec![p("10.0.0.0/8"), p("10.1.0.0/16")];
        let mut live = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let epochs = EpochEngine::new(&live).unwrap();

        let dest: Ip4 = "10.1.2.3".parse().unwrap();
        let clue = Some(p("10.1.0.0/16"));
        let mut reader = epochs.reader();
        let mut cost = Cost::new();
        let (bmp, _) = reader.pin().lookup(dest, clue, &mut cost);
        assert_eq!(bmp, Some(p("10.1.0.0/16")));

        live.add_receiver_route(p("10.1.2.0/24"));
        let publication = epochs.publish(live.freeze().unwrap());
        assert_eq!(publication.epoch, 1);
        let mut cost = Cost::new();
        let (bmp, _) = reader.pin().lookup(dest, clue, &mut cost);
        assert_eq!(bmp, Some(p("10.1.2.0/24")), "re-pin sees the new route");
        assert_eq!(epochs.current_epoch(), 1);
    }
}
