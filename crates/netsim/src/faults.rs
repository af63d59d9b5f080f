//! Fault injection: the chaos side of the paper's robustness claim.
//!
//! Section 3 promises graceful degradation — in a heterogeneous
//! network a clue may arrive corrupted, truncated, stale, stripped by
//! a legacy hop, or not at all, and the *only* permitted consequence
//! is a slower lookup. This module makes that claim falsifiable. A
//! seeded [`FaultPlan`] assigns every simulated packet a
//! [`FaultClass`]; [`run_chaos`] builds honest clued IPv4 packets,
//! mutilates their wire image (or their decoded clue) accordingly,
//! pushes the survivors through the receiver pipeline — parse, decode,
//! then *both* the mutable scalar engine and the frozen batch engine —
//! and differentially checks every forwarding decision against the
//! clue-less baseline with [`clue_core::check_soundness`]. The same
//! seed drives a churn leg with an injected reader panic, proving the
//! serving loop survives a dead reader without wedging or diverging.
//!
//! Everything is derived from the plan seed with per-packet SplitMix64
//! streams (the [`crate::run_workload_per_packet`] idiom), so a chaos
//! run is exactly reproducible from its command line.

use clue_core::{
    check_soundness, ClueEngine, ClueHeader, CompiledBackend, Divergence, EngineConfig,
    EngineStats, Method,
};
use clue_lookup::Family;
use clue_tablegen::{
    derive_neighbor, end_state, generate, generate_churn, synthesize_ipv4, ChurnConfig,
    NeighborConfig, TrafficConfig,
};
use clue_telemetry::DegradationTelemetry;
use clue_trie::{BinaryTrie, Cost, Ip4, Prefix};
use clue_wire::{checksum, Ipv4Packet};

use crate::adversary::deepest_mismatch_clue;
use crate::churn::{run_churn, ChurnDriverConfig, ChurnError, ChurnReport};
use crate::sim::packet_seed;

/// One way a path can mistreat a packet or its clue. The classes cover
/// every degradation the paper's deployment story admits; `Clean`
/// rides along in every plan so the healthy path is exercised under
/// the same seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// No fault: the honest clued packet, end to end.
    Clean,
    /// A random bit flipped inside the clue option bytes (checksum
    /// re-fixed, so the corruption reaches the option parser).
    CorruptClue,
    /// The wire image cut short inside the header/options.
    TruncatedOption,
    /// The clue length byte rewritten past the address width
    /// (`raw >= 32` for IPv4) — rejected at parse as `BadClue`.
    OutOfRangeClue,
    /// A legacy (non-participating) hop stripped the clue option.
    CluelessHop,
    /// The clue is the sender's BMP from a superseded epoch's table —
    /// still a prefix of the destination, often unknown downstream.
    StaleClue,
    /// An adversarial clue that is *not* a prefix of the destination
    /// (unencodable on the wire, injected at the lookup boundary —
    /// the malformed-clue fallback path).
    AdversarialClue,
    /// A systematically lying neighbor: the deepest-mismatch
    /// *containing* clue for each destination, crafted against the
    /// victim's own table to maximize continuation cost
    /// ([`crate::deepest_mismatch_clue`]) — rides the wire like an
    /// honest clue.
    LyingNeighbor,
    /// The packet never arrives.
    Dropped,
    /// The packet arrives out of order (swapped with its predecessor).
    Reordered,
}

impl FaultClass {
    /// The canonical `(class, label)` table: the single source of
    /// truth for ordering, labels and parsing. `ALL`, [`Self::label`],
    /// [`Self::from_label`] and [`Self::index`] all derive from it, so
    /// adding a class is one row here (in declaration order — a test
    /// pins row position to the enum discriminant).
    const TABLE: [(FaultClass, &'static str); 10] = [
        (FaultClass::Clean, "clean"),
        (FaultClass::CorruptClue, "corrupt_clue"),
        (FaultClass::TruncatedOption, "truncated_option"),
        (FaultClass::OutOfRangeClue, "out_of_range_clue"),
        (FaultClass::CluelessHop, "clueless_hop"),
        (FaultClass::StaleClue, "stale_clue"),
        (FaultClass::AdversarialClue, "adversarial_clue"),
        (FaultClass::LyingNeighbor, "lying_neighbor"),
        (FaultClass::Dropped, "dropped"),
        (FaultClass::Reordered, "reordered"),
    ];

    /// Every class, in a stable order (the per-class report order) —
    /// derived from the canonical table.
    pub const ALL: [FaultClass; Self::TABLE.len()] = {
        let mut all = [FaultClass::Clean; Self::TABLE.len()];
        let mut i = 0;
        while i < Self::TABLE.len() {
            all[i] = Self::TABLE[i].0;
            i += 1;
        }
        all
    };

    /// The stable snake_case label (metric suffixes, CLI `--faults`).
    pub fn label(self) -> &'static str {
        Self::TABLE[self.index()].1
    }

    /// Parses a label back to its class.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::TABLE.iter().find(|(_, l)| *l == label).map(|(c, _)| *c)
    }

    /// Position in [`Self::ALL`] (= the enum discriminant; the table
    /// is declared in the same order, pinned by a test).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A seeded, reproducible assignment of fault classes to packets.
///
/// The plan owns the run's randomness: `class_for(i)` and
/// `stream(i)` are pure functions of `(seed, i)`, so two runs with the
/// same plan inject byte-identical faults regardless of scheduling.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    classes: Vec<FaultClass>,
}

impl FaultPlan {
    /// A plan mixing every fault class (and clean packets) uniformly.
    pub fn uniform(seed: u64) -> Self {
        FaultPlan { seed, classes: FaultClass::ALL.to_vec() }
    }

    /// A plan over the given classes. `Clean` is always mixed in so
    /// the healthy path stays exercised; duplicates are dropped.
    pub fn with_classes(seed: u64, classes: &[FaultClass]) -> Self {
        let mut list = vec![FaultClass::Clean];
        for &c in classes {
            if !list.contains(&c) {
                list.push(c);
            }
        }
        FaultPlan { seed, classes: list }
    }

    /// Parses a CLI `--faults` spec: `"all"` or a comma-separated list
    /// of [`FaultClass::label`]s (`clean` implied).
    pub fn parse(spec: &str, seed: u64) -> Result<Self, String> {
        if spec == "all" {
            return Ok(Self::uniform(seed));
        }
        let mut classes = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let class = FaultClass::from_label(part).ok_or_else(|| {
                let known: Vec<&str> = FaultClass::ALL.iter().map(|c| c.label()).collect();
                format!("unknown fault class {part:?} (known: {})", known.join(", "))
            })?;
            classes.push(class);
        }
        if classes.is_empty() {
            return Err("--faults needs \"all\" or at least one class".to_owned());
        }
        Ok(Self::with_classes(seed, &classes))
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The classes the plan draws from (always includes `Clean`).
    pub fn classes(&self) -> &[FaultClass] {
        &self.classes
    }

    /// The fault class assigned to packet `index`.
    pub fn class_for(&self, index: u64) -> FaultClass {
        let roll = packet_seed(self.seed ^ 0xFA17_C1A5_5EED_0001, index);
        self.classes[(roll % self.classes.len() as u64) as usize]
    }

    /// The per-packet randomness stream for packet `index` (which
    /// bit to flip, where to cut, …), independent of `class_for`.
    pub fn stream(&self, index: u64) -> u64 {
        packet_seed(self.seed ^ 0xFA17_57EA_4D00_0002, index)
    }
}

/// Parameters of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Fault-injected packets pushed through the receiver pipeline.
    pub packets: usize,
    /// Seed for tables, traffic and the churn leg.
    pub seed: u64,
    /// Which faults to inject, and with what randomness.
    pub plan: FaultPlan,
    /// Sender table size (the receiver derives from it).
    pub table_size: usize,
    /// Route updates separating the stale-clue epoch from the serving
    /// epoch, and sizing the churn leg's stream.
    pub churn_updates: usize,
}

impl ChaosConfig {
    /// A config with `packets` over a uniform plan, tables and churn
    /// sized for the CLI smoke.
    pub fn new(packets: usize, seed: u64) -> Self {
        ChaosConfig {
            packets,
            seed,
            plan: FaultPlan::uniform(seed),
            table_size: 3_000,
            churn_updates: 200,
        }
    }
}

/// Per-fault-class outcome of a chaos run.
#[derive(Debug, Clone)]
pub struct ClassOutcome {
    /// The fault class.
    pub class: FaultClass,
    /// Packets assigned this class by the plan.
    pub injected: u64,
    /// Of those, packets that reached the lookup stage.
    pub delivered: u64,
    /// Wire images that no longer parsed (receiver fell back to a
    /// clue-less lookup).
    pub parse_errors: u64,
    /// Lookups degraded to the full common lookup: lost/stripped
    /// clues, malformed clues, clue-table misses.
    pub degraded: u64,
    /// Per-class engine stats (frozen batch; scalar agrees when
    /// [`ChaosReport::stats_parity`] holds).
    pub stats: EngineStats,
    /// Median extra memory references versus the clue-less baseline.
    pub overhead_p50: u64,
    /// 90th-percentile overhead.
    pub overhead_p90: u64,
    /// 99th-percentile overhead.
    pub overhead_p99: u64,
    /// Worst single-packet overhead.
    pub overhead_max: u64,
    /// Mean overhead across the class's delivered packets.
    pub overhead_mean: f64,
}

/// What a chaos run did and proved.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Packets generated (= plan assignments drawn).
    pub packets: u64,
    /// Packets that reached the lookup stage.
    pub delivered: u64,
    /// Packets dropped by the fault layer.
    pub dropped: u64,
    /// Packets delivered out of order.
    pub reordered: u64,
    /// Wire parse failures across all classes.
    pub parse_errors: u64,
    /// Forwarding decisions that differed from the clue-less baseline
    /// — the soundness invariant requires 0.
    pub divergences: u64,
    /// The first few divergences verbatim, for diagnostics.
    pub divergence_samples: Vec<Divergence<Ip4>>,
    /// Scalar == frozen per-class stats, each packet counted exactly
    /// once on both paths.
    pub stats_parity: bool,
    /// Per-class breakdown, in [`FaultClass::ALL`] order (only classes
    /// the plan draws from appear).
    pub by_class: Vec<ClassOutcome>,
    /// Aggregate scalar-engine stats across all delivered packets.
    pub scalar_stats: EngineStats,
    /// Aggregate frozen-batch stats across all delivered packets.
    pub frozen_stats: EngineStats,
    /// The fault-injected churn leg's report.
    pub churn: ChurnReport,
    /// The churn leg survived its injected reader panic: caught and
    /// attributed exactly the planned panic, and converged
    /// bit-identically.
    pub churn_survived: bool,
}

impl ChaosReport {
    /// The full soundness verdict `--check` asserts: zero divergences,
    /// scalar/frozen accounting parity, and a surviving churn leg.
    pub fn sound(&self) -> bool {
        self.divergences == 0 && self.stats_parity && self.churn_survived
    }
}

/// One packet after the fault layer: what the receiver's lookup sees.
struct DeliveredPacket {
    dest: Ip4,
    clue: Option<Prefix<Ip4>>,
    class: FaultClass,
    /// The wire image failed to parse (fallback to clue-less).
    parse_error: bool,
    /// The sender attached a clue but the lookup saw none.
    lost_clue: bool,
}

/// Runs the chaos harness (see the module docs): `config.packets`
/// fault-injected packets through parse → decode → scalar + frozen
/// lookup, differentially checked against the clue-less baseline,
/// followed by a churn leg with an injected reader panic. Counters and
/// the degraded-cost histogram are recorded into `telemetry` when
/// attached.
///
/// # Errors
/// Returns [`ChurnError::Freeze`] if the synthesized pair cannot be
/// frozen, or any other [`ChurnError`] surfaced by the churn leg.
pub fn run_chaos(
    config: &ChaosConfig,
    telemetry: Option<&DegradationTelemetry>,
) -> Result<ChaosReport, ChurnError> {
    // Two sender epochs: stale clues quote `sender_old`'s BMPs while
    // the receiver pipeline is built against the churned `sender_now`.
    let sender_old = synthesize_ipv4(config.table_size, config.seed);
    let sender_batches =
        generate_churn(&sender_old, &ChurnConfig::bgp(config.churn_updates, config.seed ^ 0x51A1));
    let sender_now = end_state(&sender_old, &sender_batches);
    let receiver = derive_neighbor(&sender_now, &NeighborConfig::same_isp(config.seed ^ 0x0EC3));

    // The Simple method: its clue-table entries are built with no
    // assumptions about the sender, so the soundness invariant holds
    // for ANY containing clue — stale, corrupted into a different
    // valid clue, whatever. The Advance method's Claim-1 pruning is
    // sound only for clues drawn from the sender table the engine was
    // precomputed against (the epoch-consistency the churn driver
    // maintains by construction); chaos deliberately breaks that, so
    // the robust configuration serves here. The trust boundary itself
    // is pinned by `advance_trusts_the_clue_epoch` in clue-core.
    let engine_config = EngineConfig::new(Family::Regular, Method::Simple);
    let mut engine = ClueEngine::precomputed(&sender_now, &receiver, engine_config);
    let frozen = engine.freeze().map_err(ChurnError::Freeze)?;

    let traffic = TrafficConfig {
        count: config.packets,
        ..TrafficConfig::paper(config.seed ^ 0x7AFF)
    };
    let dests = generate(&sender_now, &receiver, &traffic);
    let t1_now: BinaryTrie<Ip4, ()> = sender_now.iter().map(|p| (*p, ())).collect();
    let t1_old: BinaryTrie<Ip4, ()> = sender_old.iter().map(|p| (*p, ())).collect();

    let mut delivered: Vec<DeliveredPacket> = Vec::with_capacity(dests.len());
    let n_classes = config.plan.classes().len();
    let mut injected = vec![0u64; FaultClass::ALL.len()];
    let mut dropped = 0u64;
    let mut reordered = 0u64;
    let src: Ip4 = Ip4(0xC000_0201); // 192.0.2.1, TEST-NET
    debug_assert!(n_classes >= 1);

    for (i, &dest) in dests.iter().enumerate() {
        let class = config.plan.class_for(i as u64);
        let roll = config.plan.stream(i as u64);
        injected[class.index()] += 1;
        if let Some(t) = telemetry {
            t.injected_total.inc();
        }
        let honest = t1_now.lookup(dest).map(|r| t1_now.prefix(r)).filter(|c| !c.is_empty());

        match class {
            FaultClass::Dropped => {
                dropped += 1;
                continue;
            }
            FaultClass::AdversarialClue => {
                // Unencodable on the wire (a decoded wire clue always
                // contains the destination): injected at the lookup
                // boundary, the way a confused upstream engine would.
                let len = 8 + (roll % 17) as u8;
                let clue = Some(Prefix::new(Ip4(!dest.0), len));
                delivered.push(DeliveredPacket {
                    dest,
                    clue,
                    class,
                    parse_error: false,
                    lost_clue: false,
                });
                continue;
            }
            _ => {}
        }

        // Everything else rides the wire.
        let header = match class {
            FaultClass::CluelessHop => ClueHeader::none(),
            FaultClass::StaleClue => t1_old
                .lookup(dest)
                .map(|r| t1_old.prefix(r))
                .filter(|c| !c.is_empty())
                .map(|bmp| ClueHeader::with_clue(&bmp))
                .unwrap_or_else(ClueHeader::none),
            // Guarantee an option to mutilate even for uncovered dests.
            FaultClass::OutOfRangeClue => match &honest {
                Some(bmp) => ClueHeader::with_clue(bmp),
                None => ClueHeader::with_clue(&Prefix::new(dest, 8)),
            },
            // The systematic liar: a *containing* clue (it encodes and
            // parses like an honest one) priced against the victim's
            // own frozen engine to maximize continuation cost. The
            // soundness bound caps the damage at one wasted probe.
            FaultClass::LyingNeighbor => {
                let crafted = deepest_mismatch_clue(dest, |clue| {
                    let mut cost = Cost::new();
                    frozen.lookup(dest, clue, &mut cost);
                    cost.total()
                });
                ClueHeader::with_clue(&crafted)
            }
            _ => match &honest {
                Some(bmp) => ClueHeader::with_clue(bmp),
                None => ClueHeader::none(),
            },
        };
        let mut bytes = Ipv4Packet::new(src, dest, 6).with_clue(header).to_bytes();

        match class {
            FaultClass::CorruptClue if bytes.len() > 20 => {
                // Flip one bit somewhere in the clue option (kind,
                // length or value byte), then re-fix the checksum so
                // the corruption reaches the option parser instead of
                // dying at the checksum gate.
                let byte = 20 + (roll % 3) as usize;
                bytes[byte] ^= 1 << ((roll >> 8) % 8) as u8;
                fix_ipv4_checksum(&mut bytes);
            }
            FaultClass::OutOfRangeClue => {
                // Option layout: [kind, len, raw]; push raw past the
                // 5-bit IPv4 clue space, index flag clear.
                bytes[22] = 32 + (roll % 96) as u8;
                fix_ipv4_checksum(&mut bytes);
            }
            FaultClass::TruncatedOption => {
                let cut = if bytes.len() > 20 {
                    20 + (roll % (bytes.len() as u64 - 20)) as usize
                } else {
                    1 + (roll % 19) as usize
                };
                bytes.truncate(cut);
            }
            _ => {}
        }

        let (clue, parse_error) = match Ipv4Packet::parse(&bytes) {
            Ok(parsed) => {
                debug_assert_eq!(parsed.dst, dest);
                (parsed.clue.decode(parsed.dst).filter(|c| !c.is_empty()), false)
            }
            // Degradation, not failure: the receiver serves the packet
            // clue-less, exactly as a router must.
            Err(_) => (None, true),
        };
        let lost_clue = honest.is_some() && clue.is_none();
        delivered.push(DeliveredPacket { dest, clue, class, parse_error, lost_clue });
        if class == FaultClass::Reordered && delivered.len() >= 2 {
            let n = delivered.len();
            delivered.swap(n - 1, n - 2);
            reordered += 1;
        }
    }

    // The differential soundness pass, one batch per fault class so
    // overhead percentiles and accounting attribute per class.
    let mut by_class = Vec::new();
    let mut divergences = 0u64;
    let mut divergence_samples = Vec::new();
    let mut parse_errors_total = 0u64;
    let mut scalar_stats = EngineStats::default();
    let mut frozen_stats = EngineStats::default();
    let mut stats_parity = true;
    for &class in config.plan.classes() {
        if class == FaultClass::Dropped {
            by_class.push(empty_outcome(class, injected[class.index()]));
            continue;
        }
        let packets: Vec<&DeliveredPacket> =
            delivered.iter().filter(|p| p.class == class).collect();
        let class_dests: Vec<Ip4> = packets.iter().map(|p| p.dest).collect();
        let class_clues: Vec<Option<Prefix<Ip4>>> = packets.iter().map(|p| p.clue).collect();
        let report = check_soundness(&mut engine, &frozen, &class_dests, &class_clues);

        divergences += report.divergence_count;
        for d in &report.divergences {
            if divergence_samples.len() < 8 {
                divergence_samples.push(d.clone());
            }
        }
        stats_parity &= report.stats_parity();
        scalar_stats.merge(&report.scalar_stats);
        frozen_stats.merge(&report.frozen_stats);

        let parse_errors = packets.iter().filter(|p| p.parse_error).count() as u64;
        parse_errors_total += parse_errors;
        let lost = packets.iter().filter(|p| p.lost_clue).count() as u64;
        let stats = report.frozen_stats;
        let degraded = lost + stats.malformed + stats.misses;

        if let Some(t) = telemetry {
            if let Some(c) = t.class(class.label()) {
                c.add(injected[class.index()]);
            }
            t.parse_errors_total.add(parse_errors);
            t.degraded_lookups_total.add(degraded);
            t.divergences_total.add(report.divergence_count);
            if class != FaultClass::Clean {
                for &o in &report.overheads {
                    t.degraded_cost_overhead.observe(o);
                }
            }
        }

        let mut overheads = report.overheads;
        overheads.sort_unstable();
        let pct = |p: f64| -> u64 {
            if overheads.is_empty() {
                0
            } else {
                overheads[((overheads.len() - 1) as f64 * p) as usize]
            }
        };
        let mean = if overheads.is_empty() {
            0.0
        } else {
            report.overhead_total as f64 / overheads.len() as f64
        };
        by_class.push(ClassOutcome {
            class,
            injected: injected[class.index()],
            delivered: report.checked,
            parse_errors,
            degraded,
            stats,
            overhead_p50: pct(0.50),
            overhead_p90: pct(0.90),
            overhead_p99: pct(0.99),
            overhead_max: report.overhead_max,
            overhead_mean: mean,
        });
    }
    if let Some(t) = telemetry {
        if let Some(c) = t.class(FaultClass::Dropped.label()) {
            c.add(injected[FaultClass::Dropped.index()]);
        }
    }

    // The churn leg: serving must survive a reader panic without
    // wedging or diverging.
    let churn_batches =
        generate_churn(&receiver, &ChurnConfig::bgp(config.churn_updates, config.seed ^ 0xC4A0));
    let mut churn_cfg = ChurnDriverConfig::new(2, config.seed ^ 0x0DD5);
    churn_cfg.traffic = 1_024;
    churn_cfg.chunk = 128;
    churn_cfg.check = true;
    churn_cfg.panic_reader = Some(1);
    let churn = run_churn(&sender_now, &receiver, &churn_batches, &churn_cfg, None, telemetry)?;
    let planned_panic_only =
        matches!(churn.reader_panics[..], [(r, _)] if Some(r) == churn_cfg.panic_reader);
    let churn_survived = planned_panic_only && churn.final_identical == Some(true);

    Ok(ChaosReport {
        packets: dests.len() as u64,
        delivered: delivered.len() as u64,
        dropped,
        reordered,
        parse_errors: parse_errors_total,
        divergences,
        divergence_samples,
        stats_parity,
        by_class,
        scalar_stats,
        frozen_stats,
        churn,
        churn_survived,
    })
}

fn empty_outcome(class: FaultClass, injected: u64) -> ClassOutcome {
    ClassOutcome {
        class,
        injected,
        delivered: 0,
        parse_errors: 0,
        degraded: 0,
        stats: EngineStats::default(),
        overhead_p50: 0,
        overhead_p90: 0,
        overhead_p99: 0,
        overhead_max: 0,
        overhead_mean: 0.0,
    }
}

/// Recomputes the IPv4 header checksum in place after a mutation.
fn fix_ipv4_checksum(bytes: &mut [u8]) {
    let header_len = ((bytes[0] & 0x0F) as usize * 4).min(bytes.len());
    bytes[10] = 0;
    bytes[11] = 0;
    let sum = checksum(&bytes[..header_len]);
    bytes[10..12].copy_from_slice(&sum.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_core::ClueHeader;
    use clue_trie::Ip6;
    use clue_wire::{Ipv6Packet, WireError};

    #[test]
    fn plans_are_reproducible_and_cover_their_classes() {
        let plan = FaultPlan::uniform(7);
        let again = FaultPlan::uniform(7);
        let mut seen = std::collections::HashSet::new();
        for i in 0..4_096u64 {
            assert_eq!(plan.class_for(i), again.class_for(i));
            assert_eq!(plan.stream(i), again.stream(i));
            seen.insert(plan.class_for(i));
        }
        assert_eq!(seen.len(), FaultClass::ALL.len(), "uniform plan draws every class");
        let other = FaultPlan::uniform(8);
        assert!((0..64u64).any(|i| other.class_for(i) != plan.class_for(i)));
    }

    #[test]
    fn the_canonical_table_matches_the_enum_order() {
        // `index()` is the discriminant cast; the table must be
        // declared in the same order or labels would silently skew.
        for (i, &(class, label)) in FaultClass::TABLE.iter().enumerate() {
            assert_eq!(class as usize, i, "table row {i} out of declaration order");
            assert_eq!(class.index(), i);
            assert_eq!(class.label(), label);
            assert_eq!(FaultClass::from_label(label), Some(class));
            assert_eq!(FaultClass::ALL[i], class);
        }
        assert_eq!(FaultClass::ALL.len(), FaultClass::TABLE.len());
    }

    #[test]
    fn parse_accepts_labels_and_rejects_junk() {
        let plan = FaultPlan::parse("stale_clue,dropped", 1).unwrap();
        assert!(plan.classes().contains(&FaultClass::Clean), "clean is implied");
        assert!(plan.classes().contains(&FaultClass::StaleClue));
        assert!(plan.classes().contains(&FaultClass::Dropped));
        assert_eq!(plan.classes().len(), 3);
        assert_eq!(FaultPlan::parse("all", 1).unwrap().classes().len(), FaultClass::ALL.len());
        assert!(FaultPlan::parse("gremlins", 1).is_err());
        assert!(FaultPlan::parse("", 1).is_err());
        for class in FaultClass::ALL {
            assert_eq!(FaultClass::from_label(class.label()), Some(class));
        }
    }

    #[test]
    fn chaos_is_sound_across_every_class() {
        let mut config = ChaosConfig::new(4_000, 11);
        config.table_size = 400;
        config.churn_updates = 60;
        let report = run_chaos(&config, None).unwrap();
        assert_eq!(report.divergences, 0, "samples: {:?}", report.divergence_samples);
        assert!(report.stats_parity);
        assert!(report.churn_survived, "churn: {:?}", report.churn.reader_panics);
        assert!(report.sound());
        assert_eq!(report.packets, 4_000);
        assert_eq!(report.delivered + report.dropped, report.packets);
        for outcome in &report.by_class {
            assert!(outcome.injected > 0, "{:?} never drawn", outcome.class);
            match outcome.class {
                FaultClass::Dropped => assert_eq!(outcome.delivered, 0),
                _ => assert_eq!(outcome.delivered, outcome.injected),
            }
            match outcome.class {
                // Out-of-range and truncation always kill the parse.
                FaultClass::OutOfRangeClue | FaultClass::TruncatedOption => {
                    assert_eq!(outcome.parse_errors, outcome.delivered)
                }
                FaultClass::Clean
                | FaultClass::CluelessHop
                | FaultClass::StaleClue
                | FaultClass::LyingNeighbor => {
                    assert_eq!(outcome.parse_errors, 0)
                }
                _ => {}
            }
            if outcome.class == FaultClass::AdversarialClue {
                assert_eq!(
                    outcome.stats.malformed, outcome.delivered,
                    "every adversarial clue is malformed, counted exactly once"
                );
            }
            if outcome.class == FaultClass::LyingNeighbor {
                assert!(
                    outcome.overhead_max <= 1,
                    "even a table-aware liar cannot beat the soundness bound"
                );
                assert!(
                    outcome.overhead_mean > 0.5,
                    "the deepest-mismatch clue should land near the bound on most packets, \
                     got mean {}",
                    outcome.overhead_mean
                );
            }
        }
        // Exactly-once, across the whole run.
        assert_eq!(report.frozen_stats.total(), report.delivered);
        assert_eq!(report.scalar_stats, report.frozen_stats);
    }

    #[test]
    fn chaos_reports_the_injected_reader_panic() {
        let mut config = ChaosConfig::new(200, 3);
        config.table_size = 200;
        config.churn_updates = 40;
        let report = run_chaos(&config, None).unwrap();
        assert_eq!(report.churn.reader_panics.len(), 1);
        assert_eq!(report.churn.reader_panics[0].0, 1, "attributed to the injected reader");
        assert!(report.churn.reader_panics[0].1.contains("injected"));
        assert!(report.churn_survived, "and the final snapshot is bit-identical");
    }

    #[test]
    fn telemetry_observes_the_chaos() {
        use clue_telemetry::Registry;
        let registry = Registry::new();
        let labels: Vec<&str> = FaultClass::ALL.iter().map(|c| c.label()).collect();
        let telemetry = DegradationTelemetry::registered(&registry, "clue_fault", &labels);
        let mut config = ChaosConfig::new(600, 5);
        config.table_size = 200;
        config.churn_updates = 40;
        let report = run_chaos(&config, Some(&telemetry)).unwrap();
        assert_eq!(telemetry.injected_total.get(), report.packets);
        assert_eq!(telemetry.divergences_total.get(), 0);
        assert_eq!(telemetry.parse_errors_total.get(), report.parse_errors);
        assert_eq!(telemetry.reader_panics_total.get(), 1);
        let by_counter: u64 = FaultClass::ALL
            .iter()
            .map(|c| telemetry.class(c.label()).unwrap().get())
            .sum();
        assert_eq!(by_counter, report.packets, "class counters partition the injections");
        assert!(registry.contains("clue_fault_degraded_cost_overhead"));
    }

    #[test]
    fn ipv6_option_truncation_degrades_not_panics() {
        // The v6 leg of the truncated-option fault class: every cut of
        // a clued hop-by-hop header parses to a typed error, never a
        // panic — the receiver's fallback is always available.
        let dst = Ip6(0x2001_0db8_0000_0000_0000_0000_0000_0001);
        let pkt = Ipv6Packet::new(Ip6(0x2001_0db8_ffff_0000_0000_0000_0000_0002), dst, 6)
            .with_clue(ClueHeader::with_clue(&Prefix::new(dst, 48)));
        let bytes = pkt.to_bytes();
        assert!(bytes.len() > 40, "clue rides an extension header");
        for cut in 0..bytes.len() {
            match Ipv6Packet::parse(&bytes[..cut]) {
                Err(WireError::Truncated { needed, got }) => {
                    assert_eq!(got, cut);
                    assert!(needed > got);
                }
                Err(_) => {}
                Ok(_) => panic!("a proper prefix of {cut} bytes must not parse"),
            }
        }
    }
}
