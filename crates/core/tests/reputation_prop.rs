//! Reputation state-machine properties: over arbitrary thresholds and
//! evidence streams, a sustained liar's score must fall monotonically
//! (and never re-admit while the lying continues), and an honest
//! neighbor must always complete the quarantine → probation →
//! re-admission round trip in bounded time. These are the guarantees
//! the fleet's per-link quarantine ([`clue_netsim`]'s adversarial leg)
//! relies on.

use clue_core::{BatchSignals, LinkState, NeighborReputation, ReputationConfig, Transition};
use proptest::prelude::*;

/// Arbitrary-but-coherent configs: a real hysteresis gap between the
/// quarantine and re-admission thresholds, nonzero decay/recovery.
fn arb_config() -> impl Strategy<Value = ReputationConfig> {
    (
        (
            0.0f64..0.1,  // suspicion
            0.2f64..0.9,  // attack_decay
            0.05f64..0.6, // recovery
        ),
        (
            0.2f64..0.6,  // quarantine_below
            0.7f64..0.95, // readmit_above
        ),
        (
            1u64..8, // quarantine_batches
            1u64..5, // probation_batches
        ),
    )
        .prop_map(
            |(
                (suspicion, attack_decay, recovery),
                (quarantine_below, readmit_above),
                (quarantine_batches, probation_batches),
            )| ReputationConfig {
                suspicion,
                attack_decay,
                recovery,
                quarantine_below,
                readmit_above,
                quarantine_batches,
                probation_batches,
            },
        )
}

/// A fully dirty batch: every lookup overran the baseline.
fn dirty(lookups: u64) -> BatchSignals {
    BatchSignals { lookups, malformed: 0, overruns: lookups }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sustained lying: the score never rises, quarantine engages in
    /// bounded time, and while the lying continues the link is never
    /// re-admitted to clued serving (quarantine is an evidence
    /// blackout, so the only healthy-looking state a liar can reach
    /// is the probation that instantly re-quarantines).
    #[test]
    fn score_is_monotone_under_sustained_lying(
        config in arb_config(),
        lookups in 1u64..10_000,
        batches in 8usize..64,
    ) {
        let mut n = NeighborReputation::default();
        let mut prev = n.score();
        let mut quarantined_at: Option<usize> = None;
        for batch in 0..batches {
            let t = n.observe(&dirty(lookups), &config);
            prop_assert!(
                n.score() <= prev + 1e-12,
                "score rose under attack at batch {batch}: {} -> {}",
                prev,
                n.score(),
            );
            prev = n.score();
            // A sustained liar must never be re-admitted.
            prop_assert_ne!(t, Transition::Readmitted);
            if matches!(n.state(), LinkState::Quarantined { .. }) && quarantined_at.is_none() {
                quarantined_at = Some(batch);
            }
            if quarantined_at.is_some() {
                // Once evidence forced a quarantine, a full-dirty
                // stream can never hold the link Healthy again.
                prop_assert_ne!(n.state(), LinkState::Healthy);
            }
        }
        // score(k) = (1 - decay)^k decays below any positive
        // threshold; 64 full-dirty batches are far beyond the bound.
        prop_assert!(
            quarantined_at.is_some() || batches < 64,
            "64 full-dirty batches never quarantined (score {})",
            n.score(),
        );
    }

    /// Honest round trip: drive a link into quarantine, then feed only
    /// clean evidence — it must pass through probation and be
    /// re-admitted with a recovered score, in time bounded by the
    /// hold-down plus the recovery geometry.
    #[test]
    fn honest_neighbor_always_completes_the_round_trip(
        config in arb_config(),
        lookups in 1u64..10_000,
    ) {
        let mut n = NeighborReputation::default();
        // Attack until quarantined (bounded: score decays geometrically).
        let mut batches = 0;
        while !matches!(n.state(), LinkState::Quarantined { .. }) {
            n.observe(&dirty(lookups), &config);
            batches += 1;
            prop_assert!(batches <= 512, "quarantine never engaged");
        }
        // Now the neighbor is honest forever.
        let clean = BatchSignals::clean(lookups);
        let mut saw_probation = false;
        let mut readmitted_at = None;
        // Hold-down + recovery to readmit_above from any score floor +
        // probation dwell is comfortably inside this bound for the
        // config ranges above.
        for batch in 0..4096 {
            match n.observe(&clean, &config) {
                Transition::Probation => saw_probation = true,
                Transition::Readmitted => {
                    readmitted_at = Some(batch);
                    break;
                }
                Transition::Quarantined => {
                    prop_assert!(false, "clean evidence caused a quarantine");
                }
                Transition::None => {}
            }
        }
        prop_assert!(saw_probation, "re-admission must pass through probation");
        prop_assert!(readmitted_at.is_some(), "honest neighbor never re-admitted");
        prop_assert_eq!(n.state(), LinkState::Healthy);
        prop_assert!(n.score() >= config.readmit_above);
        prop_assert!(n.uses_clues());
    }

    /// Hysteresis: between the quarantine trip and re-admission the
    /// link never serves clues, no matter how the two evidence kinds
    /// interleave afterward.
    #[test]
    fn quarantine_always_blacks_out_clued_serving(
        config in arb_config(),
        pattern in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        let mut n = NeighborReputation::default();
        for &is_dirty in &pattern {
            let signals = if is_dirty {
                dirty(100)
            } else {
                BatchSignals::clean(100)
            };
            n.observe(&signals, &config);
            prop_assert_eq!(
                n.uses_clues(),
                !matches!(n.state(), LinkState::Quarantined { .. }),
                "uses_clues must mirror the quarantine state exactly",
            );
        }
    }
}
