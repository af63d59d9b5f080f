//! BGP-style route-update streams for the live-churn workload.
//!
//! A deployed router's table is never still: prefixes are announced,
//! withdrawn and re-announced with changed attributes, in *bursts*
//! (session resets, policy pushes) and with strong *prefix locality*
//! (an unstable AS flaps the same neighborhood of prefixes over and
//! over). This module generates such a stream against a base table,
//! deterministically in a seed, batched the way a real feed is
//! processed — one snapshot republish per batch.
//!
//! The stream maintains the invariants a consumer needs to apply it
//! blindly: an [`UpdateKind::Announce`] names a prefix that is not in
//! the table at that point, a [`UpdateKind::Withdraw`] or
//! [`UpdateKind::Modify`] names one that is. [`end_state`] folds a
//! stream over the base table, giving the reference answer for
//! from-scratch rebuild checks (`clue churn --check`).

use std::collections::BTreeSet;

use clue_trie::{Address, Prefix};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

/// What one route update does to the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// A new prefix enters the table.
    Announce,
    /// A present prefix leaves the table.
    Withdraw,
    /// A present prefix changes attributes (next hop, path) without
    /// changing the prefix set — the dominant update type in real
    /// feeds, and the one that forces a reclassify without an insert
    /// or delete.
    Modify,
}

/// One route update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteUpdate<A: Address> {
    /// What happens.
    pub kind: UpdateKind,
    /// To which prefix.
    pub prefix: Prefix<A>,
}

/// Parameters of the update-stream generator.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Total updates across the whole stream.
    pub(crate) updates: usize,
    /// Mean updates per batch (one batch = one snapshot republish).
    pub(crate) mean_batch: usize,
    /// Burstiness in `[0, 1]`: 0 draws every batch size uniformly
    /// around the mean; higher values mix in rare batches an order of
    /// magnitude larger (session resets).
    pub(crate) burstiness: f64,
    /// Prefix locality in `[0, 1]`: the probability that an update
    /// targets the neighborhood of a recently-touched prefix (flap
    /// clusters) instead of a uniformly random victim.
    pub(crate) locality: f64,
    /// Fraction of updates that withdraw a live prefix.
    pub(crate) withdraw_fraction: f64,
    /// Fraction of updates that modify a live prefix in place.
    pub(crate) modify_fraction: f64,
    /// The table never shrinks below this many prefixes (withdraws
    /// redraw as announces at the floor).
    pub(crate) min_table: usize,
    /// RNG seed.
    pub(crate) seed: u64,
}

impl ChurnConfig {
    /// BGP-feed defaults: modify-dominated (~40 %), bursty, with
    /// strong flap locality, keeping at least half the base table.
    pub fn bgp(updates: usize, seed: u64) -> Self {
        ChurnConfig {
            updates,
            mean_batch: 8,
            burstiness: 0.3,
            locality: 0.6,
            withdraw_fraction: 0.25,
            modify_fraction: 0.40,
            min_table: 0, // resolved against the base table at generation
            seed,
        }
    }
}

/// How many recently-touched prefixes the locality model remembers.
const RECENT_WINDOW: usize = 32;
/// Announced prefixes stay within the paper's IPv4 operating band.
const MIN_LEN: u8 = 8;
const MAX_LEN: u8 = 28;

/// Generates a batched update stream against `base`.
///
/// Deterministic in `config.seed`. Every batch is non-empty, batch
/// sizes follow the burstiness model, and the stream totals exactly
/// `config.updates` updates. See the module docs for the apply-order
/// invariants the stream guarantees.
pub fn generate_churn<A: Address>(
    base: &[Prefix<A>],
    config: &ChurnConfig,
) -> Vec<Vec<RouteUpdate<A>>> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut live: Vec<Prefix<A>> = base.to_vec();
    let mut member: BTreeSet<Prefix<A>> = live.iter().copied().collect();
    let mut recent: Vec<Prefix<A>> = Vec::with_capacity(RECENT_WINDOW);
    let min_table = if config.min_table > 0 { config.min_table } else { base.len() / 2 };

    let mut batches = Vec::new();
    let mut emitted = 0usize;
    while emitted < config.updates {
        let size = batch_size(&mut rng, config).min(config.updates - emitted);
        let mut batch = Vec::with_capacity(size);
        for _ in 0..size {
            let update = next_update(
                &mut rng,
                config,
                &mut live,
                &mut member,
                &mut recent,
                min_table,
            );
            batch.push(update);
        }
        emitted += batch.len();
        batches.push(batch);
    }
    batches
}

/// Folds a stream over `base`: announces insert, withdraws remove,
/// modifies leave the set unchanged. Returns the sorted end-state
/// table — what a from-scratch rebuild should be built from.
pub fn end_state<A: Address>(
    base: &[Prefix<A>],
    batches: &[Vec<RouteUpdate<A>>],
) -> Vec<Prefix<A>> {
    let mut set: BTreeSet<Prefix<A>> = base.iter().copied().collect();
    for update in batches.iter().flatten() {
        match update.kind {
            UpdateKind::Announce => {
                set.insert(update.prefix);
            }
            UpdateKind::Withdraw => {
                set.remove(&update.prefix);
            }
            UpdateKind::Modify => {}
        }
    }
    set.into_iter().collect()
}

fn batch_size(rng: &mut StdRng, config: &ChurnConfig) -> usize {
    let mean = config.mean_batch.max(1);
    if config.burstiness > 0.0 && rng.random_bool((config.burstiness * 0.25).min(1.0)) {
        mean * rng.random_range(4..=12usize)
    } else {
        rng.random_range(1..=2 * mean)
    }
}

fn next_update<A: Address>(
    rng: &mut StdRng,
    config: &ChurnConfig,
    live: &mut Vec<Prefix<A>>,
    member: &mut BTreeSet<Prefix<A>>,
    recent: &mut Vec<Prefix<A>>,
    min_table: usize,
) -> RouteUpdate<A> {
    let roll: f64 = rng.random_range(0.0..1.0);
    let can_shrink = live.len() > min_table && !live.is_empty();
    let can_touch = !live.is_empty();

    let kind = if roll < config.withdraw_fraction && can_shrink {
        UpdateKind::Withdraw
    } else if roll < config.withdraw_fraction + config.modify_fraction && can_touch {
        UpdateKind::Modify
    } else {
        UpdateKind::Announce
    };

    let prefix = match kind {
        UpdateKind::Withdraw | UpdateKind::Modify => {
            let victim = pick_live(rng, config, live, member, recent);
            if kind == UpdateKind::Withdraw {
                member.remove(&victim);
                let at = live.iter().position(|p| *p == victim).expect("victim is live");
                live.swap_remove(at);
            }
            victim
        }
        UpdateKind::Announce => {
            let fresh = pick_fresh(rng, config, member, recent);
            member.insert(fresh);
            live.push(fresh);
            fresh
        }
    };

    touch(recent, prefix);
    RouteUpdate { kind, prefix }
}

/// A live victim: with probability `locality` a recently-touched
/// prefix that is still live, otherwise uniform over the table.
fn pick_live<A: Address>(
    rng: &mut StdRng,
    config: &ChurnConfig,
    live: &[Prefix<A>],
    member: &BTreeSet<Prefix<A>>,
    recent: &[Prefix<A>],
) -> Prefix<A> {
    if !recent.is_empty() && rng.random_bool(config.locality) {
        for _ in 0..4 {
            let candidate = *recent.choose(rng).expect("recent is non-empty");
            if member.contains(&candidate) {
                return candidate;
            }
        }
    }
    *live.choose(rng).expect("live is non-empty")
}

/// A prefix not currently in the table: with probability `locality` a
/// mutation of a recently-touched prefix (sibling, refinement or
/// aggregate — flap clusters share structure), otherwise uniformly
/// random in the operating band.
fn pick_fresh<A: Address>(
    rng: &mut StdRng,
    config: &ChurnConfig,
    member: &BTreeSet<Prefix<A>>,
    recent: &[Prefix<A>],
) -> Prefix<A> {
    if !recent.is_empty() && rng.random_bool(config.locality) {
        for _ in 0..8 {
            let seed = *recent.choose(rng).expect("recent is non-empty");
            let candidate = mutate(rng, seed);
            if !member.contains(&candidate) {
                return candidate;
            }
        }
    }
    loop {
        let candidate = random_prefix(rng);
        if !member.contains(&candidate) {
            return candidate;
        }
    }
}

/// A nearby variation of `seed`: its sibling, a refinement below it,
/// or an aggregate above it, clamped to the operating band.
fn mutate<A: Address>(rng: &mut StdRng, seed: Prefix<A>) -> Prefix<A> {
    let len = seed.len().clamp(MIN_LEN, MAX_LEN);
    let seed = if seed.len() == len { seed } else { seed.truncate(len.min(seed.len())) };
    match rng.random_range(0u32..3) {
        // Sibling: same parent, last bit flipped.
        0 if seed.len() > MIN_LEN => {
            let last = seed.bit(seed.len() - 1);
            seed.parent().expect("len > 0").child(!last)
        }
        // Refinement: extend by 1–4 random bits.
        1 if seed.len() < MAX_LEN => {
            let extra = rng.random_range(1..=4u8).min(MAX_LEN - seed.len());
            let mut p = seed;
            for _ in 0..extra {
                p = p.child(rng.random_bool(0.5));
            }
            p
        }
        // Aggregate: drop 1–4 trailing bits.
        _ => {
            let drop = rng.random_range(1..=4u8).min(seed.len().saturating_sub(MIN_LEN));
            seed.truncate(seed.len() - drop)
        }
    }
}

/// A uniformly random prefix in the operating band, weighted toward
/// the /16–/24 mass of a real table.
fn random_prefix<A: Address>(rng: &mut StdRng) -> Prefix<A> {
    const LENGTHS: [u8; 8] = [12, 16, 18, 20, 22, 24, 24, 24];
    let len = *LENGTHS.choose(rng).expect("non-empty");
    let len = len.min(A::BITS);
    let mut bits = 0u128;
    for _ in 0..len {
        bits = (bits << 1) | u128::from(rng.random_bool(0.5));
    }
    bits <<= u32::from(A::BITS - len);
    Prefix::new(A::from_u128(bits), len)
}

fn touch<A: Address>(recent: &mut Vec<Prefix<A>>, prefix: Prefix<A>) {
    if recent.len() == RECENT_WINDOW {
        recent.remove(0);
    }
    recent.push(prefix);
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_trie::Ip4;

    fn base() -> Vec<Prefix<Ip4>> {
        crate::synthesize_ipv4(400, 7)
    }

    #[test]
    fn streams_are_deterministic_in_the_seed() {
        let base = base();
        let cfg = ChurnConfig::bgp(500, 99);
        let a = generate_churn(&base, &cfg);
        let b = generate_churn(&base, &cfg);
        assert_eq!(a, b);
        let c = generate_churn(&base, &ChurnConfig::bgp(500, 100));
        assert_ne!(a, c, "a different seed must give a different stream");
    }

    #[test]
    fn streams_apply_blindly() {
        // Replaying the stream against a set never sees an announce of
        // a present prefix or a withdraw/modify of an absent one.
        let base = base();
        let cfg = ChurnConfig::bgp(1_000, 3);
        let batches = generate_churn(&base, &cfg);
        let total: usize = batches.iter().map(Vec::len).sum();
        assert_eq!(total, cfg.updates);
        assert!(batches.iter().all(|b| !b.is_empty()));

        let mut set: BTreeSet<Prefix<Ip4>> = base.iter().copied().collect();
        for u in batches.iter().flatten() {
            assert!(!u.prefix.is_empty(), "no root announcements");
            match u.kind {
                UpdateKind::Announce => assert!(set.insert(u.prefix), "{} already live", u.prefix),
                UpdateKind::Withdraw => assert!(set.remove(&u.prefix), "{} not live", u.prefix),
                UpdateKind::Modify => assert!(set.contains(&u.prefix), "{} not live", u.prefix),
            }
            assert!(set.len() >= base.len() / 2, "table floor respected");
        }
        let end = end_state(&base, &batches);
        assert_eq!(end, set.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn the_mix_contains_every_update_kind() {
        let base = base();
        let batches = generate_churn(&base, &ChurnConfig::bgp(1_000, 11));
        let count = |k: UpdateKind| {
            batches.iter().flatten().filter(|u| u.kind == k).count()
        };
        assert!(count(UpdateKind::Announce) > 100);
        assert!(count(UpdateKind::Withdraw) > 100);
        assert!(count(UpdateKind::Modify) > 100);
    }

    #[test]
    fn burstiness_produces_outsized_batches() {
        let base = base();
        let mut smooth = ChurnConfig::bgp(2_000, 5);
        smooth.burstiness = 0.0;
        let mut bursty = smooth.clone();
        bursty.burstiness = 1.0;
        let max_batch = |cfg: &ChurnConfig| {
            generate_churn(&base, cfg).iter().map(Vec::len).max().unwrap()
        };
        let (smooth_max, bursty_max) = (max_batch(&smooth), max_batch(&bursty));
        assert!(smooth_max <= 2 * smooth.mean_batch);
        assert!(bursty_max >= 4 * bursty.mean_batch, "bursts reach several means");
    }

    #[test]
    fn locality_clusters_updates() {
        // With full locality, consecutive updates overwhelmingly share
        // a /12 neighborhood with an earlier touched prefix; with zero
        // locality they rarely do (fresh draws are uniform).
        let base = base();
        let near_share = |locality: f64| {
            let mut cfg = ChurnConfig::bgp(800, 21);
            cfg.locality = locality;
            cfg.withdraw_fraction = 0.25;
            cfg.modify_fraction = 0.0; // announces + withdraws only
            let batches = generate_churn(&base, &cfg);
            let mut touched: Vec<Prefix<Ip4>> = Vec::new();
            let mut near = 0usize;
            let mut announces = 0usize;
            for u in batches.iter().flatten() {
                if u.kind == UpdateKind::Announce {
                    announces += 1;
                    let stem = u.prefix.truncate(12.min(u.prefix.len()));
                    if touched.iter().any(|t| {
                        t.len() >= 12 && t.truncate(12) == stem
                    }) {
                        near += 1;
                    }
                }
                touched.push(u.prefix);
            }
            near as f64 / announces as f64
        };
        let clustered = near_share(1.0);
        let scattered = near_share(0.0);
        assert!(clustered > 0.5, "full locality clusters announces ({clustered})");
        assert!(clustered > scattered + 0.2, "{clustered} vs {scattered}");
    }
}
