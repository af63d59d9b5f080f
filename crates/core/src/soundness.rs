//! The machine-checked soundness invariant behind the paper's
//! robustness claim.
//!
//! Section 3 argues that clues are *hints*: a valid clue lets the
//! receiver resume the lookup where the sender stopped, and a wrong,
//! stale, corrupted or adversarial clue can only make the lookup
//! **slower** — it must never change the best-matching prefix. This
//! module turns that sentence into a checkable contract:
//!
//! > For every destination `d` and *any* clue value `c` (including
//! > `None`), `ClueEngine::lookup(d, c)` and
//! > `FrozenEngine::lookup(d, c)` return exactly the BMP of `d` in the
//! > receiver's table — the same answer a clue-less lookup returns.
//!
//! The invariant is **unconditional** for `Method::Common` and
//! `Method::Simple`: their clue-table entries assume nothing about
//! the sender, and every prefix of `d` longer than the clue is still
//! reachable from the continuation vertex. `Method::Advance` is
//! sharper: its Claim-1 pruning takes the clue to be the sender's
//! *current* BMP, so it is sound exactly for clues drawn from the
//! sender table it was precomputed against (the epoch-consistency the
//! churn driver maintains by construction). A clue from a skewed
//! epoch that still contains `d` can silently validate a pruned
//! `Covered` entry — the `advance_trusts_the_clue_epoch` test pins
//! this trust boundary, and the chaos harness therefore serves
//! fault-injected traffic with the Simple method.
//!
//! [`check_soundness`] runs both the mutable scalar engine and its
//! frozen compilation differentially against the clue-less baseline,
//! recording every divergence and the *cost overhead* each clue
//! charged relative to the baseline (a sound fault wastes at most a
//! clue-table probe plus the fallback walk). It also pins the
//! **exactly-once accounting** contract: the scalar stats delta and
//! the frozen batch stats must classify every packet once, in the same
//! class — malformed clues included.
//!
//! The chaos harness (`clue_netsim::run_chaos`) drives this checker
//! with fault-injected traffic; `crates/core/tests/soundness_prop.rs`
//! drives it with property-generated tables and adversarial clues.

use clue_trie::{Address, Cost, Prefix};

use crate::backend::CompiledBackend;
use crate::engine::{ClueEngine, EngineStats};
use crate::frozen::FrozenEngine;

/// One forwarding decision that differed from the clue-less baseline.
/// Any instance is a soundness bug in the engine, not a degradation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence<A: Address> {
    /// Which pipeline diverged: `"scalar"` or `"frozen"`.
    pub(crate) path: &'static str,
    /// The destination looked up.
    pub(crate) dest: A,
    /// The clue the lookup carried.
    pub(crate) clue: Option<Prefix<A>>,
    /// What the clued lookup answered.
    pub(crate) got: Option<Prefix<A>>,
    /// The clue-less baseline (the true BMP).
    pub(crate) want: Option<Prefix<A>>,
}

/// What a differential soundness run observed.
#[derive(Debug, Clone)]
pub struct SoundnessReport<A: Address> {
    /// Destinations checked (each through both pipelines).
    pub checked: u64,
    /// Total divergences observed across both pipelines.
    pub divergence_count: u64,
    /// The first few divergences, retained for diagnostics (capped at
    /// `SoundnessReport::RETAINED`).
    pub divergences: Vec<Divergence<A>>,
    /// Extra memory references the clued lookups paid versus the
    /// clue-less baseline, summed (frozen pipeline; clamped at 0 per
    /// packet — clues that *help* don't offset clues that hurt).
    pub overhead_total: u64,
    /// Worst single-packet overhead.
    pub overhead_max: u64,
    /// Per-packet overheads, one entry per checked destination, in
    /// input order — percentile material for the chaos report.
    pub overheads: Vec<u64>,
    /// Scalar-engine stats delta for the run (exactly one class per
    /// packet).
    pub scalar_stats: EngineStats,
    /// Frozen-batch stats for the run (exactly one class per packet).
    pub frozen_stats: EngineStats,
}

impl<A: Address> Default for SoundnessReport<A> {
    fn default() -> Self {
        SoundnessReport {
            checked: 0,
            divergence_count: 0,
            divergences: Vec::new(),
            overhead_total: 0,
            overhead_max: 0,
            overheads: Vec::new(),
            scalar_stats: EngineStats::default(),
            frozen_stats: EngineStats::default(),
        }
    }
}

impl<A: Address> SoundnessReport<A> {
    /// How many divergences are retained verbatim.
    pub(crate) const RETAINED: usize = 8;

    /// No divergence on either pipeline.
    pub fn is_sound(&self) -> bool {
        self.divergence_count == 0
    }

    /// Scalar and frozen classified every packet identically, and each
    /// packet was counted exactly once.
    pub fn stats_parity(&self) -> bool {
        self.scalar_stats == self.frozen_stats && self.scalar_stats.total() == self.checked
    }
}

/// Differentially checks the soundness invariant over `dests[i]` /
/// `clues[i]` pairs: both the mutable `engine` and its `frozen`
/// compilation must answer exactly like the clue-less baseline
/// (`ClueEngine::reference_lookup`), whatever the clue.
///
/// The scalar engine's stat counters advance as a side effect (that is
/// the point — the delta is how exactly-once accounting is pinned);
/// cache or learning state would too, so callers wanting a clean
/// differential pass a precomputed, cache-less engine, which is also
/// the only kind that freezes.
///
/// # Panics
/// Panics if `dests` and `clues` have different lengths.
pub fn check_soundness<A: Address>(
    engine: &mut ClueEngine<A>,
    frozen: &FrozenEngine<A>,
    dests: &[A],
    clues: &[Option<Prefix<A>>],
) -> SoundnessReport<A> {
    assert_eq!(dests.len(), clues.len(), "one clue slot per destination");
    let mut report = SoundnessReport::default();
    report.overheads.reserve(dests.len());
    let stats_before = engine.stats();

    let mut frozen_stats = EngineStats::default();
    for (&dest, &clue) in dests.iter().zip(clues) {
        let want = engine.reference_lookup(dest);

        let mut scalar_cost = Cost::new();
        let got_scalar = engine.lookup(dest, clue, None, &mut scalar_cost);
        if got_scalar != want {
            record(&mut report, "scalar", dest, clue, got_scalar, want);
        }

        let mut baseline_cost = Cost::new();
        let (got_baseline, _) = frozen.lookup(dest, None, &mut baseline_cost);
        if got_baseline != want && clue.is_some() {
            // The frozen clue-less walk should BE the baseline; it can
            // only differ when `frozen` is not the compilation of
            // `engine` — a divergence in its own right. (With no clue
            // the clued comparison below covers the same lookup.)
            record(&mut report, "frozen", dest, None, got_baseline, want);
        }

        let mut clued_cost = Cost::new();
        let (got_frozen, class) = frozen.lookup(dest, clue, &mut clued_cost);
        bump(&mut frozen_stats, class);
        if got_frozen != want {
            record(&mut report, "frozen", dest, clue, got_frozen, want);
        }

        let overhead = clued_cost.total().saturating_sub(baseline_cost.total());
        report.overhead_total += overhead;
        report.overhead_max = report.overhead_max.max(overhead);
        report.overheads.push(overhead);
        report.checked += 1;
    }

    let after = engine.stats();
    report.scalar_stats = EngineStats {
        clueless: after.clueless - stats_before.clueless,
        finals: after.finals - stats_before.finals,
        continued: after.continued - stats_before.continued,
        misses: after.misses - stats_before.misses,
        malformed: after.malformed - stats_before.malformed,
    };
    report.frozen_stats = frozen_stats;
    report
}

fn record<A: Address>(
    report: &mut SoundnessReport<A>,
    path: &'static str,
    dest: A,
    clue: Option<Prefix<A>>,
    got: Option<Prefix<A>>,
    want: Option<Prefix<A>>,
) {
    report.divergence_count += 1;
    if report.divergences.len() < SoundnessReport::<A>::RETAINED {
        report.divergences.push(Divergence { path, dest, clue, got, want });
    }
}

fn bump(stats: &mut EngineStats, class: clue_telemetry::LookupClass) {
    use clue_telemetry::LookupClass;
    match class {
        LookupClass::Clueless => stats.clueless += 1,
        LookupClass::Final => stats.finals += 1,
        LookupClass::Continued => stats.continued += 1,
        LookupClass::Miss => stats.misses += 1,
        LookupClass::Malformed => stats.malformed += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, Method};
    use clue_lookup::Family;
    use clue_trie::Ip4;

    fn p(s: &str) -> Prefix<Ip4> {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ip4 {
        s.parse().unwrap()
    }

    fn pair() -> (Vec<Prefix<Ip4>>, Vec<Prefix<Ip4>>) {
        let sender = vec![p("10.0.0.0/8"), p("10.1.0.0/16"), p("192.168.0.0/16")];
        let receiver =
            vec![p("10.0.0.0/8"), p("10.1.0.0/16"), p("10.1.2.0/24"), p("172.16.0.0/12")];
        (sender, receiver)
    }

    #[test]
    fn every_clue_shape_is_sound_with_parity() {
        let (sender, receiver) = pair();
        let mut engine = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Simple),
        );
        let frozen = engine.freeze().unwrap();
        let dests = vec![
            a("10.1.2.3"),
            a("10.1.2.3"),
            a("10.1.2.3"),
            a("10.9.9.9"),
            a("8.8.8.8"),
            a("10.1.2.3"),
        ];
        let clues = vec![
            None,                      // clueless
            Some(p("10.1.0.0/16")),    // valid, known
            Some(p("192.168.0.0/16")), // adversarial: not a prefix of dest
            Some(p("10.9.0.0/16")),    // contains dest but unknown here: miss
            Some(p("10.0.0.0/8")),     // stale: dest moved out from under it
            Some(p("10.0.0.0/8")),     // skewed but containing: under-long clue
        ];
        let report = check_soundness(&mut engine, &frozen, &dests, &clues);
        assert!(report.is_sound(), "divergences: {:?}", report.divergences);
        assert!(report.stats_parity(), "{:?} vs {:?}", report.scalar_stats, report.frozen_stats);
        assert_eq!(report.checked, 6);
        assert_eq!(report.scalar_stats.clueless, 1);
        assert_eq!(report.scalar_stats.malformed, 2, "non-prefix clues, one count each");
        assert_eq!(report.overheads.len(), 6);
        assert!(report.overhead_max >= 1, "a wasted probe costs at least one reference");
    }

    #[test]
    fn advance_trusts_the_clue_epoch() {
        // The Advance trust boundary, pinned. Sender and receiver both
        // hold 10.1/16, the receiver refines to 10.1.2/24: Claim 1
        // marks the 10/8 clue Covered (any longer match would have
        // produced the longer 10.1/16 clue). Feed it 10/8 anyway — a
        // clue from a skewed epoch that still contains the destination
        // — and Advance serves the pruned FD. The checker must catch
        // the divergence; the same traffic under Simple must be sound.
        // This is exactly why the chaos harness serves with Simple and
        // the churn driver keeps clue streams epoch-consistent.
        let (sender, receiver) = pair();
        let dests = [a("10.1.2.3")];
        let clues = [Some(p("10.0.0.0/8"))];

        let mut advance = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let frozen = advance.freeze().unwrap();
        let report = check_soundness(&mut advance, &frozen, &dests, &clues);
        assert!(!report.is_sound(), "Claim 1 trusted a skewed clue — by design");
        assert_eq!(report.divergences[0].want, Some(p("10.1.2.0/24")));
        assert_eq!(report.divergences[0].got, Some(p("10.0.0.0/8")));

        let mut simple = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Simple),
        );
        let frozen = simple.freeze().unwrap();
        let report = check_soundness(&mut simple, &frozen, &dests, &clues);
        assert!(report.is_sound(), "Simple is unconditionally sound");
    }

    #[test]
    fn a_planted_divergence_is_caught_and_attributed() {
        // Differential harness sanity: feed the checker a frozen engine
        // built from a DIFFERENT table — answers legitimately differ,
        // and the checker must say so rather than vacuously pass.
        let (sender, receiver) = pair();
        let mut engine = ClueEngine::precomputed(
            &sender,
            &receiver,
            EngineConfig::new(Family::Regular, Method::Advance),
        );
        let other = ClueEngine::precomputed(
            &sender,
            &[p("0.0.0.0/1")],
            EngineConfig::new(Family::Regular, Method::Advance),
        )
        .freeze()
        .unwrap();
        let report =
            check_soundness(&mut engine, &other, &[a("10.1.2.3")], &[Some(p("10.1.0.0/16"))]);
        assert!(!report.is_sound());
        assert_eq!(report.divergences[0].path, "frozen");
        assert_eq!(report.divergences[0].want, Some(p("10.1.2.0/24")));
    }
}
