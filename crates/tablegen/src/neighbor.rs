//! Deriving the forwarding table of a *neighboring* router.
//!
//! The paper's premise (Section 3) is that neighboring routers hold very
//! similar tables: each is computed from the other's by the routing
//! algorithm, and BGP discourages re-aggregation once prefixes leave
//! their home AS. Its measurements bear this out — the ISP-B pair shares
//! 55 540 of ≈56 000 prefixes (Table 3), and only 0.05 %–7 % of clues are
//! problematic (Table 2).
//!
//! [`derive_neighbor`] turns a base table into a neighbor's table with
//! three knobs that directly control those two statistics:
//!
//! * `share` — fraction of the base kept verbatim (Table 3's
//!   intersection);
//! * `refine` — fraction of kept prefixes that the neighbor *refines*
//!   with a longer, more-specific prefix the base router lacks. These
//!   are precisely the Case 3 situations that make clues problematic
//!   (Table 2);
//! * `extra` — fraction of unrelated new prefixes (different customers /
//!   policy-hidden routes).

use std::collections::BTreeSet;

use clue_trie::{Address, Prefix};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

/// Similarity knobs for neighbor derivation.
#[derive(Debug, Clone, Copy)]
pub struct NeighborConfig {
    /// Fraction of base prefixes the neighbor also holds (paper: ≥ 0.93
    /// for route servers, ≈ 0.99 for same-ISP pairs).
    pub share: f64,
    /// Fraction of kept prefixes the neighbor refines with one extra
    /// more-specific prefix (paper's problematic-clue sources: ≲ 0.02).
    pub refine: f64,
    /// New unrelated prefixes, as a fraction of the base size.
    pub extra: f64,
    /// Extra bits a refinement adds (8 turns a /16 into a /24).
    pub refine_bits: u8,
    /// RNG seed.
    pub seed: u64,
}

impl NeighborConfig {
    /// A same-ISP pair like AT&T-1/AT&T-2: nearly identical tables with a
    /// sprinkle of refinements.
    pub fn same_isp(seed: u64) -> Self {
        NeighborConfig { share: 0.992, refine: 0.01, extra: 0.006, refine_bits: 8, seed }
    }

    /// A route-server pair like MAE-East/Paix: still similar, more
    /// divergence.
    pub fn route_servers(seed: u64) -> Self {
        NeighborConfig { share: 0.96, refine: 0.02, extra: 0.03, refine_bits: 8, seed }
    }

    /// A configurable-similarity pair for the sensitivity sweep.
    pub fn with_share(share: f64, seed: u64) -> Self {
        NeighborConfig { share, refine: 0.015, extra: (1.0 - share) * 0.5, refine_bits: 8, seed }
    }
}

/// Derives a neighbor's table from `base` per `config`. Deterministic in
/// the seed; output sorted and duplicate-free.
pub fn derive_neighbor<A: Address>(
    base: &[Prefix<A>],
    config: &NeighborConfig,
) -> Vec<Prefix<A>> {
    assert!((0.0..=1.0).contains(&config.share), "share must be a fraction");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out: BTreeSet<Prefix<A>> = BTreeSet::new();
    let mut kept: Vec<Prefix<A>> = Vec::new();

    for p in base {
        if rng.random_bool(config.share) {
            out.insert(*p);
            kept.push(*p);
        }
    }

    // Refinements: longer prefixes inside kept ones, absent from `base`
    // (they are exactly what makes the corresponding clue problematic).
    let base_set: BTreeSet<Prefix<A>> = base.iter().copied().collect();
    let refinements = (kept.len() as f64 * config.refine).round() as usize;
    let mut added = 0usize;
    let mut guard = 0usize;
    while added < refinements && guard < refinements * 20 + 100 {
        guard += 1;
        let Some(&parent) = kept.choose(&mut rng) else { break };
        let len = parent.len().saturating_add(config.refine_bits).min(A::BITS);
        if len <= parent.len() {
            continue;
        }
        let noise: u128 = ((rng.random::<u64>() as u128) << 64) | rng.random::<u64>() as u128;
        let span = (A::BITS - parent.len()) as u32;
        let mask = if span >= 128 { u128::MAX } else { (1u128 << span) - 1 };
        let bits = A::from_u128(parent.bits().to_u128() | (noise & mask));
        let refined = Prefix::new(bits, len);
        if !base_set.contains(&refined) && out.insert(refined) {
            added += 1;
        }
    }

    // Unrelated extras: random prefixes in fresh space.
    let extras = (base.len() as f64 * config.extra).round() as usize;
    let mut added = 0usize;
    let mut guard = 0usize;
    while added < extras && guard < extras * 20 + 100 {
        guard += 1;
        let noise: u128 = ((rng.random::<u64>() as u128) << 64) | rng.random::<u64>() as u128;
        let len = (*[16u8, 20, 24].choose(&mut rng).expect("non-empty")).clamp(1, A::BITS);
        let width_mask = if A::BITS as u32 >= 128 { u128::MAX } else { (1u128 << A::BITS) - 1 };
        let p = Prefix::new(A::from_u128(noise & width_mask), len);
        if !base_set.contains(&p) && out.insert(p) {
            added += 1;
        }
    }

    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synthesize_ipv4;
    use crate::stats::intersection_size;

    #[test]
    fn same_isp_pair_is_nearly_identical() {
        let base = synthesize_ipv4(5000, 42);
        let neighbor = derive_neighbor(&base, &NeighborConfig::same_isp(1));
        let inter = intersection_size(&base, &neighbor);
        assert!(inter as f64 > 0.98 * base.len() as f64, "intersection {inter}");
        // Size stays in the same ballpark.
        assert!(neighbor.len() as f64 > 0.95 * base.len() as f64);
        assert!((neighbor.len() as f64) < 1.05 * base.len() as f64);
    }

    #[test]
    fn refinements_create_problematic_clues() {
        let base = synthesize_ipv4(3000, 9);
        let neighbor = derive_neighbor(&base, &NeighborConfig::same_isp(2));
        let frac = crate::PairStats::compute(&base, &neighbor).problematic_fraction();
        assert!(frac > 0.0, "no problematic clues generated");
        assert!(frac < 0.10, "too many problematic clues: {frac}");
    }

    #[test]
    fn share_zero_keeps_nothing_from_base() {
        let base = synthesize_ipv4(500, 3);
        let cfg = NeighborConfig { share: 0.0, refine: 0.0, extra: 0.1, refine_bits: 8, seed: 4 };
        let neighbor = derive_neighbor(&base, &cfg);
        assert_eq!(intersection_size(&base, &neighbor), 0);
    }

    #[test]
    fn deterministic_in_seed() {
        let base = synthesize_ipv4(1000, 5);
        let a = derive_neighbor(&base, &NeighborConfig::same_isp(7));
        let b = derive_neighbor(&base, &NeighborConfig::same_isp(7));
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_monotone_in_share() {
        let base = synthesize_ipv4(2000, 6);
        let lo = derive_neighbor(&base, &NeighborConfig::with_share(0.5, 1));
        let hi = derive_neighbor(&base, &NeighborConfig::with_share(0.95, 1));
        assert!(intersection_size(&base, &lo) < intersection_size(&base, &hi));
    }
}
