//! Software prefetch behind a safe wrapper.
//!
//! The compiled backends' batch loop
//! ([`crate::CompiledBackend::lookup_batch_interleaved`]) is a rolling
//! window: it computes where a packet's walk will start and asks the
//! hardware to pull that line toward L1 a window of packets before it
//! walks it, and each finished walk frees the slot for the next
//! packet's request, so the fetches stay in flight across the batch. The intrinsic lives
//! here so the rest of the crate stays `#![deny(unsafe_code)]`.
//!
//! On x86_64 this issues `prefetcht0`; elsewhere it compiles to
//! nothing. Either way it is a pure *hint*: no fault, no side effect on
//! program state, no observable behavior beyond timing — which is the
//! safety argument for the scoped `allow` below.
#![allow(unsafe_code)]

/// Hints the CPU to fetch the cache line holding `r` into all levels.
///
/// Never faults: prefetch instructions ignore invalid addresses, and
/// `&T` is always valid anyway. A no-op on targets without a prefetch
/// intrinsic.
#[inline(always)]
pub(crate) fn prefetch_read<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint instruction — it performs no
    // load, cannot fault even on unmapped addresses, and has no
    // architectural effect; the pointer is derived from a live `&T`.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
            (r as *const T).cast::<i8>(),
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_a_pure_hint() {
        // Nothing observable to assert beyond "does not crash and does
        // not mutate": prefetch any stack value and a heap slice edge.
        let x = 42u64;
        prefetch_read(&x);
        assert_eq!(x, 42);
        let v = vec![1u32; 1024];
        prefetch_read(&v[0]);
        prefetch_read(&v[1023]);
        assert_eq!(v.iter().sum::<u32>(), 1024);
    }
}
