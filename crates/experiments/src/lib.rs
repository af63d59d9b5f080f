//! Shared plumbing for the experiment binaries (one per table/figure of
//! the paper — see DESIGN.md's experiment index and EXPERIMENTS.md for
//! paper-vs-measured numbers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use clue_core::{ClueEngine, EngineConfig, Method};
use clue_lookup::Family;
use clue_tablegen::{derive_neighbor, generate_with_clues, synthesize_ipv4, NeighborConfig, TrafficConfig};
use clue_trie::{BinaryTrie, Cost, CostStats, Ip4, Prefix};

/// The synthetic stand-ins for the paper's seven routers, with the sizes
/// its Table 1 reports. Each entry is `(name, prefix count, seed)`;
/// paired routers (AT&T, ISP-B) derive the second table from the first.
pub const ROUTERS: &[(&str, usize, u64)] = &[
    ("MAE-East", 42_123, 101),
    ("MAE-West", 23_382, 102),
    ("Paix", 5_974, 103),
    ("AT&T-1", 23_414, 104),
    ("ISP-B-1", 56_034, 106),
];

/// Scale factor applied to table sizes (set `CLUE_SCALE=small` for a
/// quick run at 1/10 size; results keep their shape).
pub fn scale() -> usize {
    match std::env::var("CLUE_SCALE").as_deref() {
        Ok("small") => 10,
        _ => 1,
    }
}

/// Builds the named router's synthetic table.
pub fn router_table(name: &str) -> Vec<Prefix<Ip4>> {
    let (_, size, seed) =
        ROUTERS.iter().find(|(n, _, _)| *n == name).expect("unknown router name");
    synthesize_ipv4(size / scale(), *seed)
}

/// Builds the same-ISP partner of a base router (AT&T-2 from AT&T-1,
/// ISP-B-2 from ISP-B-1).
pub fn partner_table(base: &[Prefix<Ip4>], seed: u64) -> Vec<Prefix<Ip4>> {
    derive_neighbor(base, &NeighborConfig::same_isp(seed))
}

/// A route-server “neighbor” view of another route server: same
/// generator, moderate similarity — models MAE-East vs MAE-West vs Paix,
/// which share most routes through the same exchanges.
///
/// When trimming to a smaller table (the Paix case) the sample prefers
/// *leaf* prefixes — real small tables mostly hold routes that larger
/// tables do not refine, which is what keeps the paper's Table 2
/// problematic fraction bounded (~7 % for Paix → MAE-East).
pub fn exchange_view(base: &[Prefix<Ip4>], target_size: usize, seed: u64) -> Vec<Prefix<Ip4>> {
    let t = derive_neighbor(base, &NeighborConfig::route_servers(seed));
    if t.len() <= target_size {
        return t;
    }
    // Partition into leaves (no refinement in the derived table) and
    // aggregates; `t` is sorted, so an aggregate's refinements follow it.
    let mut leaves = Vec::new();
    let mut aggregates = Vec::new();
    for (i, p) in t.iter().enumerate() {
        let refined = t.get(i + 1).is_some_and(|q| p.is_strict_prefix_of(q));
        if refined {
            aggregates.push(*p);
        } else {
            leaves.push(*p);
        }
    }
    let sample = |v: &[Prefix<Ip4>], k: usize| -> Vec<Prefix<Ip4>> {
        if v.len() <= k || k == 0 {
            return v.iter().copied().take(k.max(if k == 0 { 0 } else { v.len() })).collect();
        }
        let step = v.len() as f64 / k as f64;
        let mut out = Vec::with_capacity(k);
        let mut x = 0.0;
        while (x as usize) < v.len() && out.len() < k {
            out.push(v[x as usize]);
            x += step;
        }
        out
    };
    // ~8 % aggregates, the rest leaves: the regime of real small tables.
    let agg_quota = (target_size / 12).min(aggregates.len());
    let mut out = sample(&aggregates, agg_quota);
    out.extend(sample(&leaves, target_size - out.len()));
    out.sort();
    out.dedup();
    out
}

/// A prepared workload: destinations with their precomputed sender-side
/// clues and receiver-side reference BMPs (computed once per pair, not
/// once per scheme).
pub struct PairWorkload {
    /// Destination addresses.
    pub dests: Vec<Ip4>,
    /// The clue R1 would stamp for each destination.
    pub clues: Vec<Option<Prefix<Ip4>>>,
    /// The correct BMP at R2 for each destination.
    pub expected: Vec<Option<Prefix<Ip4>>>,
}

/// Builds the paper's 10 000-packet workload for a sender→receiver pair,
/// with per-packet clues and expected results precomputed.
pub fn workload(sender: &[Prefix<Ip4>], receiver: &[Prefix<Ip4>], seed: u64) -> PairWorkload {
    let (dests, clues) = generate_with_clues(
        sender,
        receiver,
        &TrafficConfig { count: 10_000 / scale(), ..TrafficConfig::paper(seed) },
    );
    let t2: BinaryTrie<Ip4, ()> = receiver.iter().map(|p| (*p, ())).collect();
    let expected = dests.iter().map(|&d| t2.lookup(d).map(|r| t2.prefix(r))).collect();
    PairWorkload { dests, clues, expected }
}

/// Average memory accesses of one (family, method) engine over a
/// prepared workload, verifying every result against the reference.
pub fn mean_accesses(
    sender: &[Prefix<Ip4>],
    receiver: &[Prefix<Ip4>],
    wl: &PairWorkload,
    family: Family,
    method: Method,
) -> f64 {
    let mut engine = ClueEngine::precomputed(sender, receiver, EngineConfig::new(family, method));
    let mut acc = CostStats::new();
    for ((&dest, &clue), &expected) in
        wl.dests.iter().zip(&wl.clues).zip(&wl.expected)
    {
        let mut cost = Cost::new();
        let got = engine.lookup(dest, clue, None, &mut cost);
        assert_eq!(got, expected, "{family}/{method} diverged on {dest}");
        acc.record(cost);
    }
    acc.mean()
}

/// Prints one of the paper's Tables 4–9: a 5×3 matrix of mean accesses.
pub fn print_scheme_matrix(
    title: &str,
    sender: &[Prefix<Ip4>],
    receiver: &[Prefix<Ip4>],
    wl: &PairWorkload,
) {
    println!("\n=== {title} ({} packets) ===", wl.dests.len());
    println!("{:<10} {:>10} {:>10} {:>10}", "family", "common", "Simple", "Advance");
    for family in Family::all() {
        print!("{:<10}", family.label());
        for method in Method::all() {
            print!(" {:>10.2}", mean_accesses(sender, receiver, wl, family, method));
        }
        println!();
    }
}

/// Thousands separator for table output.
pub fn fmt_count(n: usize) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_count_groups_digits() {
        assert_eq!(fmt_count(5), "5");
        assert_eq!(fmt_count(5974), "5,974");
        assert_eq!(fmt_count(60475), "60,475");
        assert_eq!(fmt_count(1234567), "1,234,567");
    }

    #[test]
    fn router_tables_have_requested_sizes() {
        std::env::set_var("CLUE_SCALE", "small");
        let paix = router_table("Paix");
        assert_eq!(paix.len(), 5_974 / 10);
        std::env::remove_var("CLUE_SCALE");
    }
}
