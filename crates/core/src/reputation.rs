//! Per-neighbor clue-source reputation and hysteresis quarantine.
//!
//! The soundness invariant (see [`crate::check_soundness`]) makes a
//! hostile neighbor's worst case *bounded* — a bad clue costs at most
//! one wasted probe — but bounded is not free: a neighbor that lies on
//! every packet taxes every lookup on its link. This module closes the
//! loop the paper leaves open: the degradation signals the chaos
//! harness already measures (malformed decodes, degraded-cost overruns
//! versus the clue-less baseline) feed a per-neighbor **score**, and a
//! hysteresis state machine turns a collapsed score into a
//! **quarantine** — the neighbor's incoming-link engine is bypassed and
//! its packets served clue-less, which removes the probe tax entirely.
//!
//! The state machine is deliberately batch-grained. A serving loop
//! consults reputation only at batch boundaries — the fleet's
//! adversarial run snapshots [`ReputationBook::uses_clues`] for every
//! link once per round — so the per-packet path never touches it.
//!
//! States and transitions:
//!
//! ```text
//!            dirty batches drive score below `quarantine_below`
//!   Healthy ───────────────────────────────────────────────▶ Quarantined
//!      ▲                                                        │
//!      │  `probation_batches` clean batches                     │ hold-down:
//!      │  AND score ≥ `readmit_above`                           │ `quarantine_batches`
//!      │                                                        ▼
//!      └──────────────────────────────────────────────────  Probation
//!                   (any dirty probation batch re-quarantines instantly)
//! ```
//!
//! Three properties the tests pin:
//!
//! * **Monotone under attack** — while every clue-carrying batch is
//!   dirty, the score never increases (quarantined batches carry no
//!   clue evidence and *hold* the score rather than recovering it), so
//!   a sustained liar cannot ride the recovery term back to health.
//! * **Hysteresis** — the quarantine entry threshold
//!   (`quarantine_below`) is far below the re-admission threshold
//!   (`readmit_above`), so a borderline score cannot flap, and an
//!   **oscillating** liar that alternates honest and hostile epochs
//!   keeps losing score on hostile epochs faster than it regains it on
//!   honest ones.
//! * **Probation** — re-admission is probed, not granted: the link's
//!   clues are consulted again (risk bounded by soundness), and one
//!   dirty batch sends the neighbor straight back to quarantine.

/// Tuning of the reputation state machine. The defaults are sized for
/// the fleet simulator's round-grained batches; every threshold is a
/// fraction of a batch's clued lookups, so they transfer across batch
/// sizes.
#[derive(Debug, Clone, Copy)]
pub struct ReputationConfig {
    /// Dirty-batch threshold: a batch whose signal fraction
    /// (malformed + overruns per clued lookup) exceeds this is
    /// evidence of hostility. Sits above the honest noise floor —
    /// stale clues and genuine misses stay well under 2%.
    pub(crate) suspicion: f64,
    /// Multiplicative decay on a dirty batch:
    /// `score *= 1 - attack_decay * fraction`.
    pub(crate) attack_decay: f64,
    /// Recovery pull toward 1.0 on a clean clue-carrying batch:
    /// `score += recovery * (1 - score)`.
    pub(crate) recovery: f64,
    /// A Healthy neighbor whose score falls below this is quarantined.
    pub(crate) quarantine_below: f64,
    /// Probation re-admits only once the score has recovered past
    /// this (strictly above `quarantine_below` — the hysteresis gap).
    pub(crate) readmit_above: f64,
    /// Hold-down: batches a quarantined link serves clue-less before
    /// probation begins.
    pub(crate) quarantine_batches: u64,
    /// Consecutive clean probation batches required (in addition to
    /// the score gate) before re-admission.
    pub(crate) probation_batches: u64,
}

impl Default for ReputationConfig {
    fn default() -> Self {
        ReputationConfig {
            suspicion: 0.02,
            attack_decay: 0.5,
            recovery: 0.35,
            quarantine_below: 0.5,
            readmit_above: 0.9,
            quarantine_batches: 4,
            probation_batches: 2,
        }
    }
}

/// Where a neighbor stands in the quarantine state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkState {
    /// Clues are trusted and used.
    Healthy,
    /// Clues are bypassed; the link serves clue-less for the
    /// remaining hold-down batches.
    Quarantined {
        /// Hold-down batches left before probation.
        remaining: u64,
    },
    /// Clues are consulted again, under watch: `clean` consecutive
    /// clean batches so far.
    Probation {
        /// Consecutive clean batches observed in this probation.
        clean: u64,
    },
}

/// One batch's worth of degradation evidence for a single neighbor —
/// the aggregation the serving side already computes per batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchSignals {
    /// Clued lookups served over the link this batch.
    pub lookups: u64,
    /// Lookups whose clue was not a prefix of the destination
    /// (the malformed-decode fallback path).
    pub malformed: u64,
    /// Lookups whose cost exceeded the clue-less baseline — the
    /// degraded-cost overrun the soundness checker prices.
    pub overruns: u64,
}

impl BatchSignals {
    /// A clean batch of `lookups` lookups.
    #[cfg(test)]
    pub(crate) fn clean(lookups: u64) -> Self {
        BatchSignals { lookups, malformed: 0, overruns: 0 }
    }

    /// The dirty fraction of the batch (0.0 for an empty batch).
    pub(crate) fn fraction(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            (self.malformed + self.overruns) as f64 / self.lookups as f64
        }
    }
}

/// What one [`NeighborReputation::observe`] call did to the state
/// machine — the edge, for telemetry and scenario assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// No state change.
    None,
    /// The neighbor entered quarantine (from Healthy or Probation).
    Quarantined,
    /// The hold-down expired; probation began.
    Probation,
    /// Probation succeeded; the neighbor is Healthy again.
    Readmitted,
}

/// One neighbor's score and quarantine state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NeighborReputation {
    score: f64,
    state: LinkState,
}

impl Default for NeighborReputation {
    fn default() -> Self {
        NeighborReputation { score: 1.0, state: LinkState::Healthy }
    }
}

impl NeighborReputation {
    /// The current score in `[0, 1]`.
    pub(crate) fn score(&self) -> f64 {
        self.score
    }

    /// The current state.
    #[cfg(test)]
    pub(crate) fn state(&self) -> LinkState {
        self.state
    }

    /// Whether the serving side should consult this neighbor's clues
    /// for the *next* batch (Healthy and Probation do; Quarantined
    /// serves clue-less).
    pub(crate) fn uses_clues(&self) -> bool {
        !matches!(self.state, LinkState::Quarantined { .. })
    }

    /// Folds one batch of evidence into the score and state machine.
    ///
    /// Quarantined batches are an evidence blackout: the link served
    /// clue-less, so `signals` carries no clue information — the score
    /// holds (no recovery a liar could exploit) and only the hold-down
    /// ticks.
    pub(crate) fn observe(&mut self, signals: &BatchSignals, config: &ReputationConfig) -> Transition {
        match self.state {
            LinkState::Quarantined { remaining } => {
                if remaining <= 1 {
                    self.state = LinkState::Probation { clean: 0 };
                    Transition::Probation
                } else {
                    self.state = LinkState::Quarantined { remaining: remaining - 1 };
                    Transition::None
                }
            }
            LinkState::Healthy | LinkState::Probation { .. } => {
                let fraction = signals.fraction();
                if fraction > config.suspicion {
                    self.score *= 1.0 - config.attack_decay * fraction.min(1.0);
                    let quarantine = match self.state {
                        // One dirty probation batch re-quarantines
                        // instantly — probation is a probe, not a pardon.
                        LinkState::Probation { .. } => true,
                        _ => self.score < config.quarantine_below,
                    };
                    if quarantine {
                        self.state = LinkState::Quarantined {
                            remaining: config.quarantine_batches.max(1),
                        };
                        Transition::Quarantined
                    } else {
                        Transition::None
                    }
                } else {
                    self.score += config.recovery * (1.0 - self.score);
                    if let LinkState::Probation { clean } = self.state {
                        let clean = clean + 1;
                        if clean >= config.probation_batches && self.score >= config.readmit_above
                        {
                            self.state = LinkState::Healthy;
                            Transition::Readmitted
                        } else {
                            self.state = LinkState::Probation { clean };
                            Transition::None
                        }
                    } else {
                        Transition::None
                    }
                }
            }
        }
    }
}

/// The per-neighbor reputation ledger a router (or the fleet
/// simulator) keeps: one `NeighborReputation` per incoming link,
/// plus transition counters for telemetry.
#[derive(Debug, Clone)]
pub struct ReputationBook {
    config: ReputationConfig,
    neighbors: Vec<NeighborReputation>,
    quarantines: u64,
    probations: u64,
    readmissions: u64,
}

impl ReputationBook {
    /// A book over `neighbors` links, all Healthy at score 1.0.
    pub fn new(neighbors: usize, config: ReputationConfig) -> Self {
        ReputationBook {
            config,
            neighbors: vec![NeighborReputation::default(); neighbors],
            quarantines: 0,
            probations: 0,
            readmissions: 0,
        }
    }

    /// Folds one batch of evidence for link `i`.
    pub fn observe(&mut self, i: usize, signals: &BatchSignals) -> Transition {
        let t = self.neighbors[i].observe(signals, &self.config);
        match t {
            Transition::Quarantined => self.quarantines += 1,
            Transition::Probation => self.probations += 1,
            Transition::Readmitted => self.readmissions += 1,
            Transition::None => {}
        }
        t
    }

    /// Whether link `i`'s clues should be consulted next batch.
    pub fn uses_clues(&self, i: usize) -> bool {
        self.neighbors[i].uses_clues()
    }

    /// Links currently quarantined.
    pub fn quarantined(&self) -> usize {
        self.neighbors.iter().filter(|n| !n.uses_clues()).count()
    }

    /// The lowest score across all links (1.0 for an empty book).
    pub fn min_score(&self) -> f64 {
        self.neighbors.iter().map(|n| n.score()).fold(1.0, f64::min)
    }

    /// Quarantine transitions since construction.
    pub fn quarantines(&self) -> u64 {
        self.quarantines
    }

    /// Probation transitions since construction.
    pub fn probations(&self) -> u64 {
        self.probations
    }

    /// Re-admissions since construction.
    pub fn readmissions(&self) -> u64 {
        self.readmissions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dirty(lookups: u64) -> BatchSignals {
        BatchSignals { lookups, malformed: lookups / 2, overruns: lookups / 2 }
    }

    #[test]
    fn sustained_lying_quarantines_and_never_readmits() {
        let config = ReputationConfig::default();
        let mut n = NeighborReputation::default();
        let mut quarantined_at = None;
        let mut last_score = n.score();
        for batch in 0..64u64 {
            let t = n.observe(&dirty(100), &config);
            assert!(n.score() <= last_score, "score recovered under sustained attack");
            last_score = n.score();
            if t == Transition::Quarantined && quarantined_at.is_none() {
                quarantined_at = Some(batch);
            }
            assert_ne!(t, Transition::Readmitted, "a sustained liar must never be readmitted");
            if quarantined_at.is_some() {
                assert_ne!(n.state(), LinkState::Healthy, "no return to Healthy under attack");
            }
        }
        let at = quarantined_at.expect("a fully dirty stream must trip quarantine");
        assert!(at <= 3, "quarantine should engage within a few batches, got {at}");
    }

    #[test]
    fn honest_neighbor_round_trips_through_probation() {
        let config = ReputationConfig::default();
        let mut n = NeighborReputation::default();
        // A burst of lies drives the neighbor into quarantine...
        while n.uses_clues() {
            n.observe(&dirty(100), &config);
        }
        assert!(matches!(n.state(), LinkState::Quarantined { .. }));
        // ...then honesty earns the way back: hold-down, probation,
        // score recovery past the hysteresis gap, re-admission.
        let mut saw_probation = false;
        let mut readmitted_after = None;
        for batch in 0..32u64 {
            match n.observe(&BatchSignals::clean(100), &config) {
                Transition::Probation => saw_probation = true,
                Transition::Readmitted => {
                    readmitted_after = Some(batch);
                    break;
                }
                _ => {}
            }
        }
        assert!(saw_probation, "re-admission must pass through probation");
        assert!(readmitted_after.is_some(), "an honest neighbor must be readmitted");
        assert_eq!(n.state(), LinkState::Healthy);
        assert!(n.score() >= config.readmit_above);
    }

    #[test]
    fn dirty_probation_batch_requarantines_instantly() {
        let config = ReputationConfig::default();
        let mut n = NeighborReputation::default();
        while n.uses_clues() {
            n.observe(&dirty(100), &config);
        }
        // Ride out the hold-down.
        loop {
            if n.observe(&BatchSignals::clean(100), &config) == Transition::Probation {
                break;
            }
        }
        assert!(n.uses_clues(), "probation consults clues again");
        let t = n.observe(&dirty(100), &config);
        assert_eq!(t, Transition::Quarantined, "one dirty probation batch is enough");
        assert!(!n.uses_clues());
    }

    #[test]
    fn hysteresis_thresholds_leave_a_gap() {
        let config = ReputationConfig::default();
        assert!(config.readmit_above > config.quarantine_below + 0.1);
    }

    #[test]
    fn book_counts_transitions_and_quarantined_links() {
        let mut book = ReputationBook::new(3, ReputationConfig::default());
        assert_eq!(book.neighbors.len(), 3);
        assert_eq!(book.quarantined(), 0);
        for _ in 0..8 {
            book.observe(1, &dirty(100));
            book.observe(0, &BatchSignals::clean(100));
        }
        assert!(book.uses_clues(0));
        assert!(!book.uses_clues(1), "the lying link is quarantined");
        assert!(book.uses_clues(2), "an idle link stays healthy");
        assert_eq!(book.quarantined(), 1);
        // The liar is quarantined at least once; a dirty probation
        // batch after the hold-down re-quarantines, so more is fine.
        assert!(book.quarantines() >= 1);
        assert!(book.min_score() < 0.5);
        assert_eq!(book.neighbors[0].score(), 1.0);
    }

    #[test]
    fn empty_batches_are_not_evidence() {
        let config = ReputationConfig::default();
        let mut n = NeighborReputation::default();
        let score = n.score();
        n.observe(&BatchSignals::default(), &config);
        assert_eq!(n.state(), LinkState::Healthy);
        assert!(n.score() >= score, "an idle batch must not punish");
    }
}

#[cfg(test)]
/// Reputation state-machine properties: over arbitrary thresholds and
/// evidence streams, a sustained liar's score must fall monotonically
/// (and never re-admit while the lying continues), and an honest
/// neighbor must always complete the quarantine → probation →
/// re-admission round trip in bounded time. These are the guarantees
/// the fleet's per-link quarantine (`clue_netsim`'s adversarial leg)
/// relies on.
mod props {
    use super::*;
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
}
