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
//! [`Fleet::run_adversarial`](crate::Fleet::run_adversarial) plays
//! the adversaries inside a fleet: every router scores its incoming
//! links in a [`ReputationBook`](clue_core::ReputationBook), every
//! clued hop is checked against the clue-less baseline, and the report
//! records when quarantine engages, when probation re-admits, and
//! whether post-attack savings reconverge to the honest fleet's.
//! [`participation_sweep`] repeats that run over partial deployments.
//!
//! Two metric bundles name what that run observes: [`AdversaryTelemetry`]
//! (`clue_adversary_*`) the attack side — hops attacked, clues crafted,
//! malformed floods injected, the worst measured per-hop overhead
//! against the soundness bound — and [`ReputationTelemetry`]
//! (`clue_reputation_*`) the defense side — batches scored,
//! quarantine/probation/re-admission transitions, links currently
//! quarantined and the worst score in the book.

use clue_core::{BackendError, Method, ReputationBook};
use clue_trie::{Ip4, Prefix};

use crate::fleet::{Fleet, FleetAdversaryConfig, FleetConfig};
use crate::sim::packet_seed;

clue_telemetry::bundle! {
    /// Telemetry for attacker activity and its measured cost
    /// (`clue_adversary_*`); clones share cells.
    pub struct AdversaryTelemetry in "clue_adversary" {
        attacked_hops_total: Counter = "Link crossings where an adversary picked the clue",
        crafted_clues_total: Counter = "Deepest-mismatch clues crafted against a victim table",
        flood_clues_total: Counter = "Malformed clues injected by flooding bursts",
        /// Packets whose overhead exceeded clue-less cost + 1 probe.
        /// Anything but 0 is an engine bug, not a successful attack.
        bound_violations_total: Counter = "Packets exceeding the soundness bound (must stay 0)",
        worst_overhead: Gauge = "Worst per-packet overhead observed",
    }
}

impl AdversaryTelemetry {
    /// Records one adversarial round's tally.
    pub(crate) fn record_round(
        &self,
        attacked_hops: u64,
        crafted: u64,
        floods: u64,
        bound_violations: u64,
        overhead_max: u64,
    ) {
        self.attacked_hops_total.add(attacked_hops);
        self.crafted_clues_total.add(crafted);
        self.flood_clues_total.add(floods);
        self.bound_violations_total.add(bound_violations);
        if overhead_max as f64 > self.worst_overhead.get() {
            self.worst_overhead.set(overhead_max as f64);
        }
    }
}

clue_telemetry::bundle! {
    /// Telemetry for the reputation / quarantine defense
    /// (`clue_reputation_*`); clones share cells.
    pub struct ReputationTelemetry in "clue_reputation" {
        batches_observed_total: Counter = "Batches folded into the reputation book",
        quarantines_total: Counter = "Transitions into quarantine",
        probations_total: Counter = "Quarantine hold-downs expired into probation",
        readmissions_total: Counter = "Probations succeeded back to Healthy",
        quarantined_links: Gauge = "Links currently serving clue-less under quarantine",
        /// 1.0 = pristine, 0.0 = fully collapsed.
        min_score: Gauge = "Lowest reputation score in the book",
    }
}

impl ReputationTelemetry {
    /// Records one round that folded a batch from each of `links` links
    /// into `book`.
    pub(crate) fn record_round(&self, links: u64, book: &ReputationBook) {
        self.batches_observed_total.add(links);
        self.quarantined_links.set(book.quarantined() as f64);
        self.min_score.set(book.min_score());
    }

    /// Records the state transitions `book` made over a whole run.
    pub(crate) fn record_transitions(&self, book: &ReputationBook) {
        self.quarantines_total.add(book.quarantines());
        self.probations_total.add(book.probations());
        self.readmissions_total.add(book.readmissions());
    }
}

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
    pub(crate) const ALL: [AttackProfile; 3] =
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
    pub(crate) fn hostile(self, epoch: u64) -> bool {
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
/// frozen engine in the chaos harness, the next router's link engine
/// in the fleet).
///
/// Soundness caps the damage: the worst candidate costs at most the
/// clue-less walk plus one probe, and the chaos harness and the
/// fleet's adversarial run check exactly that on every clued lookup.
pub(crate) fn deepest_mismatch_clue<F>(dest: Ip4, mut price: F) -> Prefix<Ip4>
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
pub(crate) fn flood_clue(dest: Ip4, seed: u64, index: u64) -> Prefix<Ip4> {
    let roll = packet_seed(seed ^ 0xF100_D5EE_D000_0003, index);
    // Flip the top bit so no truncation of the clue contains `dest`,
    // then scramble the host bits so consecutive clues land in
    // different buckets.
    let addr = Ip4((dest.0 ^ 0x8000_0000) ^ (roll as u32 & 0x00FF_FFFF));
    let len = 8 + (roll >> 32) as u8 % 25; // 8..=32
    Prefix::of_address(addr, len)
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
    use clue_core::{
        check_soundness, BatchSignals, ClueEngine, CompiledBackend, EngineConfig, FrozenEngine,
        ReputationBook, ReputationConfig,
    };
    use clue_lookup::Family;
    use clue_tablegen::{
        derive_neighbor, generate_with_clues, synthesize_ipv4, NeighborConfig, TrafficConfig,
    };
    use clue_telemetry::Registry;
    use clue_trie::Cost;

    #[test]
    fn adversary_names_follow_the_convention() {
        let registry = Registry::new();
        let t = AdversaryTelemetry::registered(&registry);
        for name in [
            "clue_adversary_attacked_hops_total",
            "clue_adversary_crafted_clues_total",
            "clue_adversary_flood_clues_total",
            "clue_adversary_bound_violations_total",
            "clue_adversary_worst_overhead",
        ] {
            assert!(registry.contains(name), "missing {name}");
        }
        t.record_round(5, 0, 0, 0, 1);
        t.record_round(0, 0, 0, 0, 0);
        let again = AdversaryTelemetry::registered(&registry);
        assert_eq!(again.attacked_hops_total.get(), 5, "registered handles share cells");
        assert_eq!(again.worst_overhead.get(), 1.0, "the worst overhead is a running max");
    }

    #[test]
    fn reputation_names_follow_the_convention() {
        let registry = Registry::new();
        let t = ReputationTelemetry::registered(&registry);
        for name in [
            "clue_reputation_batches_observed_total",
            "clue_reputation_quarantines_total",
            "clue_reputation_probations_total",
            "clue_reputation_readmissions_total",
            "clue_reputation_quarantined_links",
            "clue_reputation_min_score",
        ] {
            assert!(registry.contains(name), "missing {name}");
        }
        t.quarantines_total.inc();
        t.quarantined_links.set(2.0);
        t.min_score.set(0.412);
        let again = ReputationTelemetry::registered(&registry);
        assert_eq!(again.quarantines_total.get(), 1);
        assert_eq!(again.quarantined_links.get(), 2.0);
        assert_eq!(again.min_score.get(), 0.412);
    }

    #[test]
    fn detached_cells_are_live_and_shared_by_clones() {
        let t = AdversaryTelemetry::registered(&Registry::new());
        t.crafted_clues_total.inc();
        let clone = t.clone();
        clone.crafted_clues_total.inc();
        assert_eq!(t.crafted_clues_total.get(), 2);

        let r = ReputationTelemetry::registered(&Registry::new());
        r.batches_observed_total.add(3);
        let clone = r.clone();
        assert_eq!(clone.batches_observed_total.get(), 3);
    }

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

    /// What one adversary did to a single sender→receiver link.
    struct PairRun {
        /// Per batch: hostile, served quarantined, signals, worst overhead.
        batches: Vec<(bool, bool, BatchSignals, u64)>,
        divergences: u64,
        bound_violations: u64,
        quarantine_batch: Option<usize>,
        readmit_batch: Option<usize>,
        /// Cost of the last four batches as served, and under honest clues.
        final_cost: u64,
        final_honest_cost: u64,
    }

    impl PairRun {
        fn sound(&self) -> bool {
            self.divergences == 0 && self.bound_violations == 0
        }

        fn reconverged(&self, tolerance: f64) -> bool {
            (self.final_cost as f64 / self.final_honest_cost as f64 - 1.0).abs() <= tolerance
        }
    }

    fn served_cost(frozen: &FrozenEngine<Ip4>, dests: &[Ip4], clues: &[Option<Prefix<Ip4>>]) -> u64 {
        let mut cost = Cost::new();
        for (&d, &c) in dests.iter().zip(clues) {
            frozen.lookup(d, c, &mut cost);
        }
        cost.total()
    }

    /// Plays `attack` over the first `attack_batches` of `batches`
    /// batches of 512 packets against one 400-prefix sender/receiver
    /// link scored by a one-link [`ReputationBook`]. Every packet goes
    /// through [`check_soundness`], so the scalar and the frozen engine
    /// must both answer like the clue-less baseline whatever the clue.
    fn play_pair(attack: AttackProfile, seed: u64, batches: usize, attack_batches: usize) -> PairRun {
        let sender = synthesize_ipv4(400, seed);
        let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(seed ^ 0x0EC3));
        // Method::Simple is sound for any clue; Advance trusts the clue epoch.
        let config = EngineConfig::new(Family::Regular, Method::Simple);
        let mut engine = ClueEngine::precomputed(&sender, &receiver, config);
        let frozen = engine.freeze().expect("the synthesized pair freezes");
        let mut book = ReputationBook::new(1, ReputationConfig::default());
        let mut run = PairRun {
            batches: Vec::with_capacity(batches),
            divergences: 0,
            bound_violations: 0,
            quarantine_batch: None,
            readmit_batch: None,
            final_cost: 0,
            final_honest_cost: 0,
        };
        for batch in 0..batches {
            let traffic = TrafficConfig {
                count: 512,
                ..TrafficConfig::paper(seed ^ 0x7AFF ^ ((batch as u64) << 20))
            };
            let (dests, honest) = generate_with_clues(&sender, &receiver, &traffic);
            let quarantined = !book.uses_clues(0);
            let hostile = batch < attack_batches && attack.hostile(batch as u64);
            let clues: Vec<Option<Prefix<Ip4>>> = if quarantined {
                vec![None; dests.len()]
            } else if hostile {
                dests
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| {
                        Some(match attack {
                            AttackProfile::Flooding => {
                                flood_clue(d, seed, (batch * dests.len() + i) as u64)
                            }
                            _ => deepest_mismatch_clue(d, |clue| {
                                let mut cost = Cost::new();
                                frozen.lookup(d, clue, &mut cost);
                                cost.total()
                            }),
                        })
                    })
                    .collect()
            } else {
                honest.clone()
            };

            let report = check_soundness(&mut engine, &frozen, &dests, &clues);
            run.divergences += report.divergence_count;
            run.bound_violations += report.overheads.iter().filter(|&&o| o > 1).count() as u64;
            let signals = BatchSignals {
                lookups: report.checked,
                malformed: report.frozen_stats.malformed,
                overruns: report.overheads.iter().filter(|&&o| o >= 1).count() as u64,
            };
            book.observe(0, &signals);
            if quarantined && run.quarantine_batch.is_none() {
                run.quarantine_batch = Some(batch);
            }
            if book.readmissions() > 0 && run.readmit_batch.is_none() {
                run.readmit_batch = Some(batch);
            }
            if batch + 4 >= batches {
                run.final_cost += served_cost(&frozen, &dests, &clues);
                run.final_honest_cost += served_cost(&frozen, &dests, &honest);
            }
            run.batches.push((hostile, quarantined, signals, report.overhead_max));
        }
        run
    }

    #[test]
    fn lying_scenario_is_sound_quarantines_and_reconverges() {
        let run = play_pair(AttackProfile::Lying, 21, 20, 6);
        assert!(run.sound(), "divergences or bound violations under a lying neighbor");
        let q = run.quarantine_batch.expect("a full-time liar must be quarantined");
        assert!(q <= 4, "quarantine should engage within the window, got {q}");
        assert!(run.readmit_batch.is_some(), "honesty after the attack earns re-admission");
        assert!(run.reconverged(0.05), "post-attack cost must return to honest baseline");
        // The attack batches really hurt before quarantine: the first
        // batch is hostile, un-quarantined, and pays about the bound
        // on every packet.
        let (hostile, quarantined, signals, overhead_max) = run.batches[0];
        assert!(hostile && !quarantined);
        assert!(signals.overruns * 2 > signals.lookups);
        assert_eq!(overhead_max, 1, "the soundness bound caps the damage at one probe");
    }

    #[test]
    fn flooding_scenario_trips_malformed_accounting() {
        let run = play_pair(AttackProfile::Flooding, 22, 12, 4);
        assert!(run.sound());
        let (_, _, signals, _) = run.batches[0];
        assert_eq!(signals.malformed, signals.lookups, "every flood clue must hit the malformed path");
        assert!(run.quarantine_batch.is_some());
    }

    #[test]
    fn oscillating_liar_cannot_dodge_hysteresis() {
        let run = play_pair(AttackProfile::Oscillating, 23, 24, 10);
        assert!(run.sound());
        assert!(
            run.quarantine_batch.is_some(),
            "alternating honest epochs must not launder the score"
        );
        assert!(run.reconverged(0.05));
    }

    /// The run `clue metrics` makes: two liars in a small
    /// `Method::Simple` fleet feed the registered `clue_adversary_*`
    /// and `clue_reputation_*` series of a Prometheus dump.
    #[test]
    fn scenario_feeds_telemetry() {
        let registry = Registry::new();
        let at = AdversaryTelemetry::registered(&registry);
        let rt = ReputationTelemetry::registered(&registry);
        let mut fleet_config = FleetConfig::new(48, 24);
        fleet_config.origins = 8;
        fleet_config.specifics_per_origin = 4;
        fleet_config.engine.method = Method::Simple;
        let fleet = Fleet::build(fleet_config).unwrap();
        let mut attack = FleetAdversaryConfig::new(AttackProfile::Lying, 2);
        attack.rounds = 12;
        attack.attack_rounds = 3;
        attack.flows_per_round = 128;
        let report = fleet.run_adversarial(&attack, Some(&at), Some(&rt), None);
        assert!(report.sound());
        let attacked = at.attacked_hops_total.get();
        assert!(attacked > 0);
        assert!(at.crafted_clues_total.get() > 0);
        assert_eq!(at.bound_violations_total.get(), 0);
        assert!(at.worst_overhead.get() <= 1.0);
        assert!(rt.batches_observed_total.get() > 0);
        assert!(rt.quarantines_total.get() >= 1);
        assert_eq!(rt.quarantines_total.get(), report.quarantines);
        let prom = registry.to_prometheus();
        for line in [
            format!("clue_adversary_attacked_hops_total {attacked}"),
            "clue_adversary_bound_violations_total 0".to_string(),
            format!("clue_reputation_quarantines_total {}", report.quarantines),
        ] {
            assert!(prom.lines().any(|l| l == line), "missing `{line}` in the dump");
        }
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
}
