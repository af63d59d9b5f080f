//! Systematic adversaries: the hostile side of the robustness claim.
//!
//! The chaos harness ([`crate::run_chaos`]) injects *random* faults;
//! this module injects *strategy*. The paper's safety property — a
//! clued lookup is never worse than a clue-less lookup plus one probe
//! — is a worst-case bound, so the right falsification attempt is a
//! worst-case adversary: one that knows the victim's table and shapes
//! every clue to hit the bound on every packet.
//!
//! Three attacker models ([`AttackProfile`]):
//!
//! * **Lying neighbor** — for each destination, crafts the
//!   *deepest-mismatch* clue: the containing prefix (so it survives
//!   the wire encoding and every parse check) whose continuation is
//!   most expensive for the victim, found by pricing every candidate
//!   length against the victim's own engine
//!   ([`deepest_mismatch_clue`]). This is the strongest *polite*
//!   attacker: every packet it touches pays the full soundness bound.
//! * **Clue flooding** — bursts of distinct non-containing clues
//!   ([`flood_clue`]) aimed at the malformed-accounting path and the
//!   clue buckets: every flood clue is unencodable garbage a
//!   conforming wire could never carry, injected at the lookup
//!   boundary the way a compromised upstream engine would.
//! * **Oscillating liar** — alternates honest and hostile epochs to
//!   defeat naive "bad last batch" detection; the reputation layer's
//!   hysteresis (`clue_core::reputation`) is the counter.
//!
//! [`run_scenario`] plays one adversary against a chaos-style
//! sender/receiver pair under a [`ReputationBook`], differentially
//! checking **every** batch against the clue-less baseline
//! ([`clue_core::check_soundness`]) and recording when quarantine
//! engages, when probation re-admits, and whether post-attack cost
//! reconverges to the honest baseline. The fleet-scale version (many
//! routers, partial deployment) lives in
//! [`Fleet::run_adversarial`](crate::Fleet::run_adversarial) and
//! [`participation_sweep`].

use clue_core::{
    check_soundness, BackendError, BatchSignals, ClueEngine, CompiledBackend, EngineConfig,
    Method, ReputationBook, ReputationConfig, Transition,
};
use clue_lookup::Family;
use clue_tablegen::{
    derive_neighbor, generate, synthesize_ipv4, NeighborConfig, TrafficConfig,
};
use clue_telemetry::{AdversaryTelemetry, ReputationTelemetry};
use clue_trie::{BinaryTrie, Cost, Ip4, Prefix};

use crate::churn::ChurnError;
use crate::fleet::{Fleet, FleetAdversaryConfig, FleetConfig};
use crate::sim::packet_seed;

/// Which systematic adversary to play.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackProfile {
    /// Deepest-mismatch containing clues on every packet.
    Lying,
    /// Bursts of distinct malformed clues on every packet.
    Flooding,
    /// Lying on even epochs, honest on odd ones.
    Oscillating,
}

impl AttackProfile {
    /// Every profile, in CLI/report order.
    pub const ALL: [AttackProfile; 3] =
        [AttackProfile::Lying, AttackProfile::Flooding, AttackProfile::Oscillating];

    /// The stable snake_case label (CLI `--attack`, report keys).
    pub fn label(self) -> &'static str {
        match self {
            AttackProfile::Lying => "lying",
            AttackProfile::Flooding => "flooding",
            AttackProfile::Oscillating => "oscillating",
        }
    }

    /// Parses a CLI label back to its profile.
    pub fn parse(label: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|p| p.label() == label)
    }

    /// Whether the adversary misbehaves during epoch/batch `epoch`.
    /// The oscillator is hostile on even epochs only; the others are
    /// always hostile.
    pub fn hostile(self, epoch: u64) -> bool {
        match self {
            AttackProfile::Oscillating => epoch.is_multiple_of(2),
            _ => true,
        }
    }
}

/// Crafts the deepest-mismatch clue for `dest` against a victim whose
/// lookup cost is exposed by `price`: the containing prefix (always
/// encodable on the wire, always parseable) whose clued lookup is most
/// expensive, ties broken toward the deeper clue. `price` receives the
/// candidate clue and must return the victim's total lookup cost for
/// `dest` under it — callers close over their engine of record (the
/// frozen engine in the chaos harness, the stride engine in the
/// fleet).
///
/// Soundness caps the damage: the worst candidate costs at most the
/// clue-less walk plus one probe, and [`run_scenario`] proves exactly
/// that on every packet.
pub fn deepest_mismatch_clue<F>(dest: Ip4, mut price: F) -> Prefix<Ip4>
where
    F: FnMut(Option<Prefix<Ip4>>) -> u64,
{
    let mut best = Prefix::of_address(dest, 1);
    let mut best_cost = 0u64;
    for len in 1..=32u8 {
        let candidate = Prefix::of_address(dest, len);
        let cost = price(Some(candidate));
        // `>=`: among equally expensive candidates prefer the deepest
        // — it is the hardest for a naive filter to distinguish from
        // an honest BMP.
        if cost >= best_cost {
            best_cost = cost;
            best = candidate;
        }
    }
    best
}

/// The `index`-th clue of a flooding burst against `dest`: a
/// non-containing prefix (top destination bit flipped, low bits
/// scrambled per index) so every flood clue is distinct — thrashing
/// the clue buckets and the malformed-accounting path rather than
/// settling into one cached miss. Unencodable on a conforming wire
/// (a decoded wire clue always contains the destination), so floods
/// model a compromised engine injecting at the lookup boundary.
pub fn flood_clue(dest: Ip4, seed: u64, index: u64) -> Prefix<Ip4> {
    let roll = packet_seed(seed ^ 0xF100_D5EE_D000_0003, index);
    // Flip the top bit so no truncation of the clue contains `dest`,
    // then scramble the host bits so consecutive clues land in
    // different buckets.
    let addr = Ip4((dest.0 ^ 0x8000_0000) ^ (roll as u32 & 0x00FF_FFFF));
    let len = 8 + (roll >> 32) as u8 % 25; // 8..=32
    Prefix::of_address(addr, len)
}

/// Parameters of a pair-level adversarial scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// The attacker model.
    pub attack: AttackProfile,
    /// Seed for tables, traffic and flood streams.
    pub seed: u64,
    /// Sender table size (the receiver derives from it).
    pub table_size: usize,
    /// Total batches played (the reputation layer's time base).
    pub batches: usize,
    /// Batches during which the adversary is active (from batch 0);
    /// the remainder is the honest tail that must reconverge.
    pub attack_batches: usize,
    /// Packets per batch.
    pub packets_per_batch: usize,
    /// Reputation tuning.
    pub reputation: ReputationConfig,
}

impl ScenarioConfig {
    /// A scenario sized for tests and the CLI smoke: 20 batches of
    /// `packets_per_batch` with the attack on for the first 6.
    pub fn new(attack: AttackProfile, seed: u64) -> Self {
        ScenarioConfig {
            attack,
            seed,
            table_size: 400,
            batches: 20,
            attack_batches: 6,
            packets_per_batch: 512,
            reputation: ReputationConfig::default(),
        }
    }
}

/// One batch's outcome in a scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioBatch {
    /// Batch index.
    pub batch: usize,
    /// The adversary misbehaved this batch.
    pub hostile: bool,
    /// The link served clue-less (quarantined) this batch.
    pub quarantined: bool,
    /// The reputation score after folding this batch.
    pub score: f64,
    /// Degradation evidence the batch produced.
    pub signals: BatchSignals,
    /// Total clued-path cost of the batch.
    pub cost: u64,
    /// Total clue-less baseline cost of the batch.
    pub baseline_cost: u64,
    /// Worst single-packet overhead versus the baseline.
    pub overhead_max: u64,
}

/// What a scenario run did and proved.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The attacker model played.
    pub attack: AttackProfile,
    /// Per-batch outcomes.
    pub batches: Vec<ScenarioBatch>,
    /// Forwarding decisions differing from the clue-less baseline
    /// (soundness requires 0, attacker or not).
    pub divergences: u64,
    /// Packets whose overhead exceeded the bound (baseline + 1 probe).
    /// Must stay 0.
    pub bound_violations: u64,
    /// First batch whose serving ran quarantined, if any.
    pub quarantine_batch: Option<usize>,
    /// Batch at which probation re-admitted the neighbor, if any.
    pub readmit_batch: Option<usize>,
    /// Mean per-packet cost over the final honest batches.
    pub final_cost_per_packet: f64,
    /// Mean per-packet cost of a never-attacked reference over the
    /// same destinations.
    pub honest_cost_per_packet: f64,
}

impl ScenarioReport {
    /// The scenario's verdict: the soundness bound held on every
    /// packet and no forwarding decision changed.
    pub fn sound(&self) -> bool {
        self.divergences == 0 && self.bound_violations == 0
    }

    /// Whether the post-attack tail reconverged to within `tolerance`
    /// (relative) of the honest reference cost.
    pub fn reconverged(&self, tolerance: f64) -> bool {
        if self.honest_cost_per_packet == 0.0 {
            return true;
        }
        let ratio = self.final_cost_per_packet / self.honest_cost_per_packet;
        (ratio - 1.0).abs() <= tolerance
    }
}

/// Plays one adversary against a chaos-style sender/receiver pair
/// under a [`ReputationBook`], checking every batch against the
/// clue-less baseline. See the module docs for the models.
///
/// # Errors
/// Returns [`ChurnError::Freeze`] if the synthesized pair cannot be
/// frozen.
pub fn run_scenario(
    config: &ScenarioConfig,
    adversary_telemetry: Option<&AdversaryTelemetry>,
    reputation_telemetry: Option<&ReputationTelemetry>,
) -> Result<ScenarioReport, ChurnError> {
    let sender = synthesize_ipv4(config.table_size, config.seed);
    let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(config.seed ^ 0x0EC3));
    // Method::Simple — sound for ANY clue (the chaos harness's trust
    // argument, see `run_chaos`): an adversary scenario must not hand
    // the attacker the Advance method's epoch trust.
    let engine_config = EngineConfig::new(Family::Regular, Method::Simple);
    let mut engine = ClueEngine::precomputed(&sender, &receiver, engine_config);
    let frozen = engine.freeze().map_err(ChurnError::Freeze)?;
    let t1: BinaryTrie<Ip4, ()> = sender.iter().map(|p| (*p, ())).collect();

    let mut book = ReputationBook::new(1, config.reputation);
    let mut batches = Vec::with_capacity(config.batches);
    let mut divergences = 0u64;
    let mut bound_violations = 0u64;
    let mut quarantine_batch = None;
    let mut readmit_batch = None;
    let mut final_cost = 0u64;
    let mut final_packets = 0u64;
    let mut honest_cost = 0u64;

    for batch in 0..config.batches {
        let traffic = TrafficConfig {
            count: config.packets_per_batch,
            ..TrafficConfig::paper(config.seed ^ 0x7AFF ^ ((batch as u64) << 20))
        };
        let dests = generate(&sender, &receiver, &traffic);
        let quarantined = !book.uses_clues(0);
        let attacking = batch < config.attack_batches && config.attack.hostile(batch as u64);

        let honest_clues: Vec<Option<Prefix<Ip4>>> = dests
            .iter()
            .map(|&d| t1.lookup(d).map(|r| t1.prefix(r)).filter(|c| !c.is_empty()))
            .collect();
        let clues: Vec<Option<Prefix<Ip4>>> = if quarantined {
            // The quarantine switch: the incoming-link engine is
            // bypassed and every packet served clue-less.
            vec![None; dests.len()]
        } else if attacking {
            dests
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    if let Some(t) = adversary_telemetry {
                        t.attacked_hops_total.inc();
                    }
                    match config.attack {
                        AttackProfile::Flooding => {
                            if let Some(t) = adversary_telemetry {
                                t.flood_clues_total.inc();
                            }
                            Some(flood_clue(d, config.seed, (batch * dests.len() + i) as u64))
                        }
                        _ => {
                            if let Some(t) = adversary_telemetry {
                                t.crafted_clues_total.inc();
                            }
                            Some(deepest_mismatch_clue(d, |clue| {
                                let mut cost = Cost::new();
                                frozen.lookup(d, clue, &mut cost);
                                cost.total()
                            }))
                        }
                    }
                })
                .collect()
        } else {
            honest_clues.clone()
        };

        let report = check_soundness(&mut engine, &frozen, &dests, &clues);
        divergences += report.divergence_count;
        let violations =
            report.overheads.iter().filter(|&&o| o > 1).count() as u64;
        bound_violations += violations;
        if let Some(t) = adversary_telemetry {
            t.bound_violations_total.add(violations);
            for &o in &report.overheads {
                t.attack_overhead.observe(o);
            }
            if report.overhead_max as f64 > t.worst_overhead.get() {
                t.worst_overhead.set(report.overhead_max as f64);
            }
        }

        // Price the batch: clued path as served, and the clue-less
        // baseline the soundness bound is stated against.
        let mut cost = Cost::new();
        for (&d, &c) in dests.iter().zip(&clues) {
            frozen.lookup(d, c, &mut cost);
        }
        let batch_cost = cost.total();
        let mut base = Cost::new();
        for &d in &dests {
            frozen.lookup(d, None, &mut base);
        }
        let baseline_cost = base.total();
        // The never-attacked reference over the same destinations.
        let mut honest = Cost::new();
        for (&d, &c) in dests.iter().zip(&honest_clues) {
            frozen.lookup(d, c, &mut honest);
        }
        honest_cost += honest.total();

        let signals = BatchSignals {
            lookups: report.checked,
            malformed: report.frozen_stats.malformed,
            overruns: report.overheads.iter().filter(|&&o| o >= 1).count() as u64,
        };
        let transition = book.observe(0, &signals);
        if let Some(t) = reputation_telemetry {
            t.batches_observed_total.inc();
            match transition {
                Transition::Quarantined => t.quarantines_total.inc(),
                Transition::Probation => t.probations_total.inc(),
                Transition::Readmitted => t.readmissions_total.inc(),
                Transition::None => {}
            }
            t.quarantined_links.set(book.quarantined() as f64);
            t.min_score.set(book.min_score());
        }
        if quarantined && quarantine_batch.is_none() {
            quarantine_batch = Some(batch);
        }
        if transition == Transition::Readmitted && readmit_batch.is_none() {
            readmit_batch = Some(batch);
        }
        if batch + 1 + 4 > config.batches {
            // The final window the reconvergence verdict averages.
            final_cost += batch_cost;
            final_packets += dests.len() as u64;
        }
        batches.push(ScenarioBatch {
            batch,
            hostile: attacking,
            quarantined,
            score: book.neighbor(0).score(),
            signals,
            cost: batch_cost,
            baseline_cost,
            overhead_max: report.overhead_max,
        });
    }

    let total_packets: u64 = batches.iter().map(|b| b.signals.lookups).sum();
    Ok(ScenarioReport {
        attack: config.attack,
        batches,
        divergences,
        bound_violations,
        quarantine_batch,
        readmit_batch,
        final_cost_per_packet: if final_packets == 0 {
            0.0
        } else {
            final_cost as f64 / final_packets as f64
        },
        honest_cost_per_packet: if total_packets == 0 {
            0.0
        } else {
            honest_cost as f64 / total_packets as f64
        },
    })
}

/// One point of a partial-deployment sweep: what the attack costs a
/// fleet at a given clue-participation fraction.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Fraction of routers participating in the clue scheme.
    pub participation: f64,
    /// Savings the honest fleet achieves at this participation.
    pub honest_savings: f64,
    /// Savings during the hostile rounds (quarantine ramping up).
    pub attacked_savings: f64,
    /// Savings over the final post-quarantine window.
    pub final_savings: f64,
    /// Worst per-hop overhead any attacked packet paid.
    pub worst_overhead: u64,
    /// First round that began with links quarantined, if any.
    pub quarantine_round: Option<usize>,
    /// Whether the soundness bound held on every packet.
    pub sound: bool,
}

/// Sweeps clue participation over `steps`, playing the same adversary
/// against a freshly built fleet at each fraction, and reports the
/// worst-case-overhead-vs-participation curve: at 0 % there is nothing
/// to attack (and nothing to save); as participation grows, so does
/// the attack surface — but the per-packet bound pins the worst case
/// at one probe regardless, which is the robustness claim in one
/// curve.
///
/// The base config's engine method is forced to [`Method::Simple`]
/// (the adversarial trust boundary; see
/// [`Fleet::run_adversarial`](crate::Fleet::run_adversarial)).
///
/// # Errors
/// Returns the [`BackendError`] of the first fleet that fails to build.
pub fn participation_sweep(
    base: &FleetConfig,
    adversary: &FleetAdversaryConfig,
    steps: &[f64],
) -> Result<Vec<SweepPoint>, BackendError> {
    let mut points = Vec::with_capacity(steps.len());
    for &p in steps {
        let mut config = base.clone();
        config.participation = p;
        config.engine.method = Method::Simple;
        let fleet = Fleet::build(config)?;
        let report = fleet.run_adversarial(adversary, None, None, None);
        let (hostile_clue, hostile_base) = report
            .rounds
            .iter()
            .filter(|r| r.hostile)
            .fold((0u64, 0u64), |(c, b), r| (c + r.clue_refs, b + r.baseline_refs));
        let attacked_savings = if hostile_base == 0 {
            0.0
        } else {
            1.0 - hostile_clue as f64 / hostile_base as f64
        };
        points.push(SweepPoint {
            participation: p,
            honest_savings: report.honest_final_savings(),
            attacked_savings,
            final_savings: report.final_savings(),
            worst_overhead: report.overhead_max(),
            quarantine_round: report.quarantine_round,
            sound: report.sound(),
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_round_trip_their_labels() {
        for p in AttackProfile::ALL {
            assert_eq!(AttackProfile::parse(p.label()), Some(p));
        }
        assert_eq!(AttackProfile::parse("ddos"), None);
        assert!(AttackProfile::Lying.hostile(0) && AttackProfile::Lying.hostile(1));
        assert!(AttackProfile::Oscillating.hostile(0));
        assert!(!AttackProfile::Oscillating.hostile(1));
    }

    #[test]
    fn crafted_clues_contain_their_destination() {
        let dest = Ip4(0x0A01_0203);
        let clue = deepest_mismatch_clue(dest, |c| c.map_or(0, |p| p.len() as u64));
        assert!(clue.contains(dest));
        assert_eq!(clue.len(), 32, "argmax under a depth price picks the deepest clue");
        // Ties break deeper.
        let flat = deepest_mismatch_clue(dest, |_| 7);
        assert_eq!(flat.len(), 32);
    }

    #[test]
    fn flood_clues_are_distinct_and_never_contain_the_destination() {
        let dest = Ip4(0x0A01_0203);
        let mut seen = std::collections::HashSet::new();
        for i in 0..256u64 {
            let clue = flood_clue(dest, 9, i);
            assert!(!clue.contains(dest), "flood clue {clue} must be malformed");
            seen.insert(clue);
        }
        assert!(seen.len() > 200, "flood clues must thrash, not repeat: {}", seen.len());
    }

    #[test]
    fn lying_scenario_is_sound_quarantines_and_reconverges() {
        let config = ScenarioConfig::new(AttackProfile::Lying, 21);
        let report = run_scenario(&config, None, None).unwrap();
        assert!(report.sound(), "divergences or bound violations under a lying neighbor");
        let q = report.quarantine_batch.expect("a full-time liar must be quarantined");
        assert!(q <= 4, "quarantine should engage within the window, got {q}");
        assert!(report.readmit_batch.is_some(), "honesty after the attack earns re-admission");
        assert!(report.reconverged(0.05), "post-attack cost must return to honest baseline");
        // The attack batches really hurt before quarantine: the first
        // batch is hostile, un-quarantined, and pays about the bound
        // on every packet.
        let first = &report.batches[0];
        assert!(first.hostile && !first.quarantined);
        assert!(first.signals.overruns * 2 > first.signals.lookups);
        assert_eq!(first.overhead_max, 1, "the soundness bound caps the damage at one probe");
    }

    #[test]
    fn flooding_scenario_trips_malformed_accounting() {
        let mut config = ScenarioConfig::new(AttackProfile::Flooding, 22);
        config.batches = 12;
        config.attack_batches = 4;
        let report = run_scenario(&config, None, None).unwrap();
        assert!(report.sound());
        let first = &report.batches[0];
        assert_eq!(
            first.signals.malformed, first.signals.lookups,
            "every flood clue must hit the malformed path"
        );
        assert!(report.quarantine_batch.is_some());
    }

    #[test]
    fn oscillating_liar_cannot_dodge_hysteresis() {
        let mut config = ScenarioConfig::new(AttackProfile::Oscillating, 23);
        config.batches = 24;
        config.attack_batches = 10;
        let report = run_scenario(&config, None, None).unwrap();
        assert!(report.sound());
        assert!(
            report.quarantine_batch.is_some(),
            "alternating honest epochs must not launder the score"
        );
        assert!(report.reconverged(0.05));
    }

    #[test]
    fn participation_sweep_traces_the_curve() {
        let mut base = FleetConfig::new(48, 31);
        base.origins = 8;
        base.specifics_per_origin = 4;
        let mut adversary = FleetAdversaryConfig::new(AttackProfile::Lying, 3);
        adversary.rounds = 6;
        adversary.attack_rounds = 2;
        adversary.flows_per_round = 300;
        adversary.window = 2;
        let points =
            participation_sweep(&base, &adversary, &[0.0, 0.5, 1.0]).unwrap();
        assert_eq!(points.len(), 3);
        for pt in &points {
            assert!(pt.sound, "unsound at participation {}", pt.participation);
            assert!(
                pt.worst_overhead <= 1,
                "bound broken at participation {}: {}",
                pt.participation,
                pt.worst_overhead
            );
        }
        // Nothing deployed → nothing to attack, nothing to save.
        assert_eq!(points[0].honest_savings, 0.0);
        assert_eq!(points[0].worst_overhead, 0);
        assert!(points[0].quarantine_round.is_none());
        // Full deployment saves the most and offers the biggest
        // attack surface — which quarantine then contains.
        assert!(points[2].honest_savings > points[1].honest_savings);
        assert!(points[2].honest_savings > 0.2);
        assert_eq!(points[2].worst_overhead, 1);
        assert!(points[2].quarantine_round.is_some());
        assert!(points[2].attacked_savings < points[2].honest_savings);
    }

    #[test]
    fn scenario_feeds_telemetry() {
        use clue_telemetry::Registry;
        let registry = Registry::new();
        let at = AdversaryTelemetry::registered(&registry, "clue_adversary");
        let rt = ReputationTelemetry::registered(&registry, "clue_reputation");
        let mut config = ScenarioConfig::new(AttackProfile::Lying, 24);
        config.batches = 10;
        config.attack_batches = 3;
        let report = run_scenario(&config, Some(&at), Some(&rt)).unwrap();
        assert!(report.sound());
        assert!(at.attacked_hops_total.get() > 0);
        assert!(at.crafted_clues_total.get() > 0);
        assert_eq!(at.bound_violations_total.get(), 0);
        assert!(at.worst_overhead.get() <= 1.0);
        assert_eq!(rt.batches_observed_total.get(), 10);
        assert!(rt.quarantines_total.get() >= 1);
    }
}
