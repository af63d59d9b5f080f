//! CRAM-style cache-residency analysis of a compiled lookup arena.
//!
//! The compression literature (Degermark et al. SIGCOMM 1997, Rétvári
//! et al. SIGCOMM 2013) evaluates FIB encodings not by wall-clock alone
//! but by an analytic *cache residency* model: given the per-level byte
//! footprint of the walk structure and the expected number of visits
//! per level per lookup, how many of those references fall outside
//! each cache level? Small arenas win because their hot upper levels —
//! visited by every packet — fit in L1/L2 and the misses concentrate
//! in the rarely-reached leaves.
//!
//! [`CramReport::build`] implements the standard greedy top-down
//! residency assumption: levels are cached in walk order (level 0
//! first) until the cache is full, which matches the access-frequency
//! ordering of a root-down trie walk (level *d* is visited at most as
//! often as level *d − 1*). For a level straddling a cache boundary,
//! the resident fraction is prorated by bytes. The model is
//! deterministic — pure arithmetic over the compiled layout — so its
//! numbers are stable across runs and machines and can sit behind the
//! benchmark regression gate, unlike wall-clock throughput.

/// One walk level of a compiled arena: how big it is and how often a
/// lookup touches it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CramLevel {
    /// Resident bytes of this level's share of the walk structure.
    pub(crate) bytes: u64,
    /// Expected visits per lookup (level 0 is visited by every walk,
    /// deeper levels by the fraction of walks that reach them).
    pub(crate) visits: f64,
}

/// Bytes of a typical per-core L1 data cache.
pub(crate) const L1_BYTES: u64 = 32 * 1024;
/// Bytes of a typical per-core L2 cache.
pub(crate) const L2_BYTES: u64 = 1024 * 1024;
/// Bytes of a typical shared L3 slice available to one core.
pub(crate) const L3_BYTES: u64 = 32 * 1024 * 1024;

/// The CRAM analysis of one compiled backend: layout byte totals plus
/// modelled per-lookup miss counts at each cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct CramReport {
    /// The per-level byte/visit map the model consumed.
    pub levels: Vec<CramLevel>,
    /// Bytes of the walk arena (what the levels partition).
    pub arena_bytes: u64,
    /// Bytes of the clue-bucket structures.
    pub bucket_bytes: u64,
    /// Bytes of the tag → prefix dictionary (control plane).
    pub dict_bytes: u64,
    /// Expected walk references per lookup (sum of level visits).
    pub expected_refs: f64,
    /// Expected walk references per lookup falling outside L1.
    pub expected_l1_misses: f64,
    /// Expected walk references per lookup falling outside L2.
    pub expected_l2_misses: f64,
    /// Expected walk references per lookup falling outside L3.
    pub expected_l3_misses: f64,
}

/// The fraction of a `[start, end)` byte span lying beyond `cap`.
fn beyond(start: u64, end: u64, cap: u64) -> f64 {
    if end <= cap {
        0.0
    } else if start >= cap {
        1.0
    } else {
        (end - cap) as f64 / (end - start) as f64
    }
}

impl CramReport {
    /// Runs the greedy residency model over a per-level layout. The
    /// `levels` must be in walk order (hottest first); byte totals for
    /// the non-walk structures are carried through for reporting.
    pub(crate) fn build(
        levels: Vec<CramLevel>,
        arena_bytes: u64,
        bucket_bytes: u64,
        dict_bytes: u64,
    ) -> CramReport {
        let mut start = 0u64;
        let mut expected_refs = 0.0;
        let mut misses = [0.0f64; 3];
        for level in &levels {
            let end = start + level.bytes;
            expected_refs += level.visits;
            for (m, cap) in misses.iter_mut().zip([L1_BYTES, L2_BYTES, L3_BYTES]) {
                *m += level.visits * beyond(start, end, cap);
            }
            start = end;
        }
        CramReport {
            levels,
            arena_bytes,
            bucket_bytes,
            dict_bytes,
            expected_refs,
            expected_l1_misses: misses[0],
            expected_l2_misses: misses[1],
            expected_l3_misses: misses[2],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_resident_arena_never_misses() {
        let r = CramReport::build(
            vec![
                CramLevel { bytes: 1024, visits: 1.0 },
                CramLevel { bytes: 2048, visits: 0.5 },
            ],
            3072,
            100,
            50,
        );
        assert_eq!(r.expected_refs, 1.5);
        assert_eq!(r.expected_l1_misses, 0.0);
        assert_eq!(r.expected_l2_misses, 0.0);
        assert_eq!(r.expected_l3_misses, 0.0);
        assert_eq!(r.arena_bytes, 3072);
    }

    #[test]
    fn straddling_levels_prorate_by_bytes() {
        // Level 0 fills L1 exactly; level 1 is half in, half out.
        let r = CramReport::build(
            vec![
                CramLevel { bytes: L1_BYTES, visits: 1.0 },
                CramLevel { bytes: 2 * L1_BYTES, visits: 0.8 },
            ],
            3 * L1_BYTES,
            0,
            0,
        );
        assert!((r.expected_l1_misses - 0.8).abs() < 1e-12, "{}", r.expected_l1_misses);
        assert_eq!(r.expected_l2_misses, 0.0);
    }

    #[test]
    fn arena_beyond_l3_misses_everywhere() {
        let r = CramReport::build(
            vec![
                CramLevel { bytes: L3_BYTES, visits: 1.0 },
                CramLevel { bytes: L3_BYTES, visits: 1.0 },
            ],
            2 * L3_BYTES,
            0,
            0,
        );
        // Level 1 sits wholly beyond L3; level 0 fits L3 exactly but
        // overflows L1/L2 almost entirely.
        assert_eq!(r.expected_l3_misses, 1.0);
        assert!(r.expected_l1_misses > 1.9);
        assert!(r.expected_l2_misses > 1.9);
        assert!(r.expected_l1_misses >= r.expected_l2_misses);
        assert!(r.expected_l2_misses >= r.expected_l3_misses);
    }
}
