//! Sub-command implementations.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::sync::Arc;

use clue_core::{
    BackendError, ClueEngine, CompiledBackend, CramReport, EngineConfig, FrozenEngine, Method,
    Stage, StageMeter, StageProfiler,
};
use clue_lookup::{reference_bmp, Family};
use clue_tablegen::{
    derive_neighbor, export_length_histogram, format_prefixes, generate_with_clues,
    length_histogram, minimize, parse_prefixes, parse_table, synthesize_ipv4, NeighborConfig,
    PairStats, TrafficConfig,
};
use clue_telemetry::{Histogram, HistogramSnapshot, Registry, ScrapeServer};
use clue_trie::{BinaryTrie, Cost, CostStats, Ip4, Prefix};

/// Top-level usage text.
pub const USAGE: &str = "\
usage:
  clue stats  <table.txt>                        table statistics
  clue pair   <sender.txt> <receiver.txt> [n]    pair stats + method matrix
                                                 (n packets, default 10000)
  clue lookup <table.txt> <addr> [clue-prefix]   one lookup, per-family costs
  clue synth  <count> [seed] [--modern]          emit a synthetic table
                                                 (--modern: contemporary
                                                 DFZ length mix, capacity-
                                                 aware at 1M-10M prefixes)
  clue minimize <table.txt>                      ORTC-minimize (next hops
                                                 read from the 2nd column)
  clue metrics [packets] [seed] [--prom|--json]  run an instrumented workload
                                                 and dump the telemetry
                                                 registry (default: both
                                                 formats)
  clue profile [packets] [seed] [--table P] [--stride BITS] [--json PATH]
               [--serve ADDR] [--check]         per-stage lookup profiler:
                                                 attributes predicted Cost
                                                 ticks, measured nanoseconds
                                                 and touched record bytes to
                                                 the root/inner/clue-probe/
                                                 continuation/cache stages of
                                                 the scalar, frozen, stride
                                                 and compressed paths (plus
                                                 the network driver),
                                                 reporting ns/lookup
                                                 percentiles and
                                                 the predicted-vs-measured
                                                 correlation; --check proves
                                                 profiling is semantically
                                                 inert
  clue bench-diff <baseline.json> <fresh.json> [--tolerance PCT]
                  [--time-tolerance PCT] [--min KEY=FLOOR] [--max KEY=CEIL]
                                                 compare two BENCH_*.json
                                                 exports key by key: booleans
                                                 and strings exactly, numbers
                                                 within --tolerance (default
                                                 10), except those whose leaf
                                                 name the baseline's \"timing\"
                                                 list declares a timing,
                                                 which get --time-tolerance
                                                 (default 100); the two
                                                 timing lists must match;
                                                 --min (repeatable) also
                                                 requires the fresh run's KEY
                                                 to be >= FLOOR, --max
                                                 (repeatable) to be <= CEIL
  clue throughput [packets] [seed] [--threads N] [--table P] [--stride BITS]
                  [--prefetch G] [--backend B] [--runtime] [--json PATH]
                  [--serve ADDR] [--check]       packets/sec for the scalar,
                                                 batched-frozen, stride-
                                                 compiled (initial stride BITS,
                                                 rolling prefetch window of G
                                                 packets; G<=1 prepares then
                                                 finishes each packet, no
                                                 lookahead) and
                                                 entropy-compressed pipelines
                                                 and the multi-core network
                                                 runtime over a P-prefix
                                                 table (N worker cores,
                                                 default: all; tables of
                                                 >= 200000 prefixes use the
                                                 modern DFZ generator), each
                                                 backend with a CRAM-style
                                                 bytes-per-prefix and
                                                 expected-cache-miss block;
                                                 --backend frozen|stride|
                                                 compressed benchmarks one
                                                 compiled backend against the
                                                 scalar reference (skipping
                                                 the network legs — the
                                                 1M-10M single-engine matrix);
                                                 --runtime adds the engine-
                                                 level serving leg over an
                                                 epoch cell; --check verifies
                                                 result equivalence, window G
                                                 against window 1 too; --serve
                                                 ADDR exposes /metrics and
                                                 /metrics.json live during
                                                 the run (also on churn,
                                                 chaos and profile)
  clue churn [updates] [seed] [--readers N] [--json PATH] [--serve ADDR]
             [--check]
                                                 live-churn serving: a builder
                                                 applies a BGP-style update
                                                 stream and republishes frozen
                                                 snapshots while N reader
                                                 threads serve lookups from
                                                 epoch-pinned snapshots;
                                                 --check proves the final
                                                 snapshot bit-identical to a
                                                 from-scratch rebuild
  clue fleet [flows] [seed] [--routers N] [--topology transit-stub|preferential]
             [--origins N] [--participation F] [--threads N] [--churn EVENTS]
             [--adversaries N] [--attack lying|flooding|oscillating]
             [--json PATH] [--serve ADDR] [--check]
                                                 fleet-scale simulator: an
                                                 internet-like topology of N
                                                 routers (default 1024), every
                                                 router a stride-compiled
                                                 engine bundle behind an epoch
                                                 cell, ECMP flows with Zipf
                                                 destination locality routed
                                                 over the shared-nothing
                                                 runtime; reports per-link
                                                 clue hit/problematic/clueless
                                                 rates and per-hop memory-
                                                 reference savings vs a
                                                 clue-less baseline; --churn
                                                 applies EVENTS origin
                                                 re-advertisements while
                                                 serving workers keep routing;
                                                 --adversaries plants N
                                                 attacking routers (--attack
                                                 profile, default lying) and
                                                 plays them against the
                                                 reputation quarantine, plus a
                                                 0..100% participation sweep;
                                                 --check proves the sharded
                                                 run bit-identical to the
                                                 sequential reference at
                                                 1/2/4/8 workers, and with
                                                 --adversaries also that the
                                                 soundness bound held on every
                                                 packet, quarantine engaged
                                                 within the window and savings
                                                 reconverged to the honest
                                                 fleet
  clue chaos [packets] [seed] [--faults SPEC] [--json PATH] [--serve ADDR]
             [--check]
                                                 fault-injection harness:
                                                 corrupted/truncated/stale/
                                                 adversarial clues, clueless
                                                 hops, drops, reorders, plus a
                                                 churn leg with a reader panic;
                                                 SPEC is \"all\" or comma-separated
                                                 fault classes; --check fails
                                                 unless forwarding stayed
                                                 bit-identical to the clue-less
                                                 baseline and serving survived";

/// Entry point: dispatches on the first argument.
pub fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("stats") => stats(args.get(1).ok_or("stats needs a table file")?),
        Some("pair") => pair(
            args.get(1).ok_or("pair needs a sender file")?,
            args.get(2).ok_or("pair needs a receiver file")?,
            args.get(3).map(String::as_str),
        ),
        Some("lookup") => lookup(
            args.get(1).ok_or("lookup needs a table file")?,
            args.get(2).ok_or("lookup needs an address")?,
            args.get(3).map(String::as_str),
        ),
        Some("synth") => synth(&args[1..]),
        Some("minimize") => minimize_cmd(args.get(1).ok_or("minimize needs a table file")?),
        Some("metrics") => metrics(&args[1..]),
        Some("profile") => profile(&args[1..]),
        Some("bench-diff") => bench_diff(&args[1..]),
        Some("throughput") => throughput(&args[1..]),
        Some("churn") => churn(&args[1..]),
        Some("chaos") => chaos(&args[1..]),
        Some("fleet") => fleet(&args[1..]),
        Some(other) => Err(format!("unknown command {other:?}")),
        None => Err("no command given".to_owned()),
    }
}

fn load(path: &str) -> Result<Vec<Prefix<Ip4>>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_prefixes::<Ip4>(&text).map_err(|e| format!("{path}: {e}"))
}

fn stats(path: &str) -> Result<(), String> {
    let table = load(path)?;
    println!("table: {path}");
    println!("prefixes: {}", table.len());
    let hist = length_histogram(&table);
    println!("\nlength histogram:");
    let max = hist.iter().copied().max().unwrap_or(1).max(1);
    for (len, &n) in hist.iter().enumerate() {
        if n > 0 {
            let bar = "#".repeat((n * 40).div_ceil(max));
            println!("  /{len:<3} {n:>8}  {bar}");
        }
    }
    let trie: BinaryTrie<Ip4, ()> = table.iter().map(|p| (*p, ())).collect();
    println!("\ntrie vertices: {}", trie.node_count());
    println!("trie memory:   {} bytes", trie.memory_bytes());
    let nested = table
        .iter()
        .filter(|p| table.iter().any(|q| q.is_strict_prefix_of(p)))
        .count();
    println!("nested prefixes (have a shorter covering prefix): {nested}");
    // How close the length mix sits to each generator preset (L1
    // distance over the capacity-clamped configured distribution,
    // 0 = exact match, 2 = disjoint) — the knob for checking that a
    // synthesized table kept its configured shape.
    let d1999 =
        clue_tablegen::length_l1_distance(&table, &clue_tablegen::SynthConfig::ipv4(table.len(), 0));
    let dmodern = clue_tablegen::length_l1_distance(
        &table,
        &clue_tablegen::SynthConfig::ipv4_modern(table.len(), 0),
    );
    println!("length-histogram L1 distance: {d1999:.4} vs 1999 preset, {dmodern:.4} vs modern");
    Ok(())
}

fn pair(sender_path: &str, receiver_path: &str, packets: Option<&str>) -> Result<(), String> {
    let sender = load(sender_path)?;
    let receiver = load(receiver_path)?;
    let n: usize = packets.unwrap_or("10000").parse().map_err(|_| "bad packet count")?;

    let ps = PairStats::compute(&sender, &receiver);
    println!("sender:    {sender_path} ({} prefixes)", ps.sender_size);
    println!("receiver:  {receiver_path} ({} prefixes)", ps.receiver_size);
    println!(
        "intersection: {} ({:.1}%); problematic clues: {} ({:.2}%)",
        ps.intersection,
        ps.similarity() * 100.0,
        ps.problematic,
        ps.problematic_fraction() * 100.0
    );

    let traffic = TrafficConfig { count: n, ..TrafficConfig::paper(1) };
    let (dests, clues) = generate_with_clues(&sender, &receiver, &traffic);

    println!("\naverage memory accesses over {} packets:", dests.len());
    println!("{:<10} {:>10} {:>10} {:>10}", "family", "common", "Simple", "Advance");
    for family in Family::all_extended() {
        let mut row = format!("{:<10}", family.label());
        for method in Method::all() {
            let mut engine =
                ClueEngine::precomputed(&sender, &receiver, EngineConfig::new(family, method));
            let mut acc = CostStats::new();
            for (&dest, &clue) in dests.iter().zip(&clues) {
                let mut cost = Cost::new();
                engine.lookup(dest, clue, None, &mut cost);
                acc.record(cost);
            }
            write!(row, " {:>10.2}", acc.mean()).expect("write to string");
        }
        println!("{row}");
    }
    Ok(())
}

fn lookup(path: &str, addr: &str, clue: Option<&str>) -> Result<(), String> {
    let table = load(path)?;
    let dest: Ip4 = addr.parse().map_err(|e| format!("{addr}: {e}"))?;
    let clue: Option<Prefix<Ip4>> = match clue {
        Some(c) => Some(c.parse().map_err(|e| format!("{c}: {e}"))?),
        None => None,
    };
    if let Some(c) = &clue {
        if !c.contains(dest) {
            return Err(format!("clue {c} is not a prefix of {dest}"));
        }
    }
    let want = reference_bmp(&table, dest);
    println!("destination: {dest}");
    match want {
        Some(b) => println!("best matching prefix: {b}"),
        None => println!("best matching prefix: (none)"),
    }
    if let Some(c) = &clue {
        println!("clue: {c}");
    }
    println!("\nper-family cost (memory accesses):");
    println!("{:<10} {:>10} {:>12}", "family", "clue-less", "with clue");
    for family in Family::all_extended() {
        let mut engine = ClueEngine::precomputed(
            &table, // standalone: assume the sender has the same table
            &table,
            EngineConfig::new(family, Method::Advance),
        );
        let mut c0 = Cost::new();
        let r0 = engine.common_lookup(dest, &mut c0);
        if r0 != want {
            return Err(format!("{family} disagrees with the reference"));
        }
        let with = match clue {
            Some(cl) => {
                let mut c1 = Cost::new();
                let r1 = engine.lookup(dest, Some(cl), None, &mut c1);
                if r1 != want {
                    return Err(format!("{family} with clue disagrees with the reference"));
                }
                format!("{:>12}", c1.total())
            }
            None => format!("{:>12}", "-"),
        };
        println!("{:<10} {:>10} {with}", family.label(), c0.total());
    }
    Ok(())
}

fn synth(args: &[String]) -> Result<(), String> {
    let mut modern = false;
    let mut positional: Vec<&str> = Vec::new();
    for a in args {
        match a.as_str() {
            "--modern" => modern = true,
            other => positional.push(other),
        }
    }
    let count = positional.first().ok_or("synth needs a prefix count")?;
    let n: usize = count.parse().map_err(|_| "bad prefix count")?;
    let seed: u64 = positional.get(1).unwrap_or(&"0").parse().map_err(|_| "bad seed")?;
    if positional.len() > 2 {
        return Err(format!("unexpected argument {:?}", positional[2]));
    }
    let table = if modern {
        clue_tablegen::synthesize_ipv4_modern(n, seed)
    } else {
        synthesize_ipv4(n, seed)
    };
    print!("{}", format_prefixes(&table));
    Ok(())
}

fn minimize_cmd(path: &str) -> Result<(), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lines = parse_table::<Ip4>(&text).map_err(|e| format!("{path}: {e}"))?;
    // Next hops: the optional second column, hashed to a small id space;
    // rows without one share a single implicit hop.
    let mut hop_ids: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
    let entries: Vec<(Prefix<Ip4>, u32)> = lines
        .iter()
        .map(|l| {
            let hop = match &l.next_hop {
                Some(h) => {
                    let next = hop_ids.len() as u32 + 1;
                    *hop_ids.entry(h.clone()).or_insert(next)
                }
                None => 0,
            };
            (l.prefix, hop)
        })
        .collect();
    let id_to_hop: std::collections::HashMap<u32, &String> =
        hop_ids.iter().map(|(k, v)| (*v, k)).collect();
    let min = minimize(&entries);
    eprintln!("{} prefixes -> {} after ORTC", entries.len(), min.len());
    for (p, hop) in min {
        match id_to_hop.get(&hop) {
            Some(h) => println!("{p} {h}"),
            None => println!("{p}"),
        }
    }
    Ok(())
}

/// Runs a synthetic sender→receiver workload with telemetry enabled and
/// dumps the whole registry: Prometheus text exposition, JSON, or both.
fn metrics(args: &[String]) -> Result<(), String> {
    let flags = Flags::read(args, ["packets", "seed"], &[], &["--prom", "--json"])?;
    let packets = flags.get("packets", 10_000usize)?;
    let seed = flags.get("seed", 1u64)?;
    let (prom, json) = (!flags.switch("--json"), !flags.switch("--prom"));
    if !prom && !json {
        return Err("--prom and --json are mutually exclusive".to_owned());
    }
    let registry = metrics_registry(packets, seed)?;
    if prom {
        print!("{}", registry.to_prometheus());
    }
    if prom && json {
        println!();
    }
    if json {
        println!("{}", registry.to_json());
    }
    Ok(())
}

/// The registry `clue metrics` dumps: every family the suite can emit,
/// driven by a small synthetic workload of `packets` lookups.
fn metrics_registry(packets: usize, seed: u64) -> Result<Registry, String> {
    let registry = Registry::new();

    // Table build: a synthetic sender and a same-ISP receiver, with the
    // pair statistics mirrored into the registry.
    let sender = synthesize_ipv4(4000, seed);
    let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(seed.wrapping_add(1)));
    PairStats::compute(&sender, &receiver).export_into(&registry);
    export_length_histogram(&registry, "clue_tablegen_sender_length", &sender);
    export_length_histogram(&registry, "clue_tablegen_receiver_length", &receiver);

    // Instrumented engine with the presence cache in front of the clue
    // table, driven by paper-style traffic carrying real clues.
    let mut engine = ClueEngine::precomputed(
        &sender,
        &receiver,
        EngineConfig::new(Family::Regular, Method::Advance),
    );
    engine.instrument(&registry);
    engine.enable_cache(256);
    let (dests, clues) = generate_with_clues(
        &sender,
        &receiver,
        &TrafficConfig { count: packets, ..TrafficConfig::paper(seed) },
    );
    for (&dest, &clue) in dests.iter().zip(&clues) {
        let mut cost = Cost::new();
        engine.lookup(dest, clue, None, &mut cost);
    }

    // The compiled fast path and the resilience families are part of
    // the default dump: the same stream drives a stride batch so its
    // counters are live, and the churn, degradation, compressed and
    // fleet families register their full schema (zero until their
    // workloads run) so one scrape shows every metric the suite can
    // emit.
    let frozen = ClueEngine::precomputed(
        &sender,
        &receiver,
        EngineConfig::new(Family::Regular, Method::Advance),
    )
    .freeze()
    .map_err(|e| format!("cannot freeze the engine ({} blocks it): {e}", e.feature()))?;
    let mut stride = frozen
        .compile_stride(clue_core::StrideConfig::default())
        .map_err(|e| e.to_string())?;
    stride.attach_batch_telemetry(clue_telemetry::BatchTelemetry::registered(
        &registry,
        "clue_stride",
    ));
    let mut out = vec![clue_core::Decision::default(); dests.len()];
    let _ = stride.lookup_batch_interleaved(&dests, &clues, &mut out, clue_core::DEFAULT_INTERLEAVE);

    // The multi-core serving runtime, driven over the same stream so
    // its clue_runtime_* series are live in the dump: two worker cores,
    // each a private replica of the stride engine behind an epoch cell.
    let runtime_telemetry = clue_netsim::RuntimeTelemetry::registered(&registry);
    let cell = clue_core::EpochCell::new(stride.replicate());
    let runtime_cfg = clue_netsim::RuntimeConfig {
        workers: 2,
        batch: 256,
        ..clue_netsim::RuntimeConfig::default()
    };
    let mut served = Vec::new();
    let _ =
        clue_netsim::serve_lookups(&cell, &dests, &clues, &mut served, &runtime_cfg, Some(&runtime_telemetry));

    // The network simulator: a short instrumented run over a small
    // backbone drives the clue_netsim_* series.
    let (topo, edges) = clue_netsim::Topology::backbone(4, 2);
    let mut net_cfg = clue_netsim::NetworkConfig::new(
        edges.clone(),
        EngineConfig::new(Family::Regular, Method::Advance),
    );
    net_cfg.seed = seed;
    let mut net: clue_netsim::Network<Ip4> = clue_netsim::Network::build(topo, net_cfg);
    clue_netsim::run_workload_instrumented(&mut net, &edges, 200, seed, &registry);

    let plan = clue_netsim::FaultPlan::parse("all", seed)?;
    let _ = clue_netsim::DegradationTelemetry::registered(&registry, plan.classes());
    let _ = clue_telemetry::ChurnTelemetry::registered(&registry);
    let _ = clue_telemetry::CompressedTelemetry::registered(&registry);
    let _ = clue_netsim::FleetTelemetry::registered(&registry);

    // The adversarial layer: two lying routers in a small Method::Simple
    // fleet (the adversarial trust boundary) drive the clue_adversary_*
    // and clue_reputation_* series live in the same dump — 12 rounds,
    // long enough for quarantined links to come back through probation.
    // The clue_fault_* family registered above stays at zero.
    let adversary_telemetry = clue_netsim::AdversaryTelemetry::registered(&registry);
    let reputation_telemetry = clue_netsim::ReputationTelemetry::registered(&registry);
    let mut fleet_cfg = clue_netsim::FleetConfig::new(48, seed);
    fleet_cfg.origins = 8;
    fleet_cfg.specifics_per_origin = 4;
    fleet_cfg.engine.method = Method::Simple;
    let fleet = clue_netsim::Fleet::build(fleet_cfg).map_err(|e| e.to_string())?;
    let mut attack = clue_netsim::FleetAdversaryConfig::new(clue_netsim::AttackProfile::Lying, 2);
    attack.rounds = 12;
    attack.attack_rounds = 3;
    attack.flows_per_round = 128;
    fleet.run_adversarial(&attack, Some(&adversary_telemetry), Some(&reputation_telemetry), None);
    Ok(registry)
}

/// One subcommand's command line, read once: the positionals under the
/// names the subcommand gives them (`[count] [seed]`), `--name VALUE`
/// options and bare `--name` switches. The getters parse on demand; a
/// repeated option keeps its last value.
struct Flags<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Flags<'a> {
    /// Reads `args`: `options` take the next argument as their value,
    /// `switches` stand alone, and anything else fills the next of the
    /// two `positional` names.
    fn read(
        args: &'a [String],
        positional: [&'a str; 2],
        options: &[&str],
        switches: &[&str],
    ) -> Result<Self, String> {
        let mut read = Vec::new();
        let mut names = positional.into_iter();
        let mut it = args.iter().map(String::as_str);
        while let Some(a) = it.next() {
            if options.contains(&a) {
                read.push((a, it.next().ok_or_else(|| format!("{a} needs a value"))?));
            } else if switches.contains(&a) {
                read.push((a, ""));
            } else {
                let name = names.next().ok_or_else(|| format!("unexpected argument {a:?}"))?;
                read.push((name, a));
            }
        }
        Ok(Flags(read))
    }

    /// Every value given for `name`, in order.
    fn all<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.0.iter().filter(move |(n, _)| *n == name).map(|&(_, v)| v)
    }

    fn text(&self, name: &str) -> Option<&'a str> {
        self.all(name).last()
    }

    fn switch(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// `name`'s value as a `T`, or `default` when it was not given.
    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.text(name)
            .map_or(Ok(default), |v| v.parse().map_err(|e| format!("bad {name} {v:?}: {e}")))
    }

    /// A count that must be at least `min` when given.
    fn count(&self, name: &str, default: usize, min: usize) -> Result<usize, String> {
        let n = self.get(name, default)?;
        if self.text(name).is_some() && n < min {
            return Err(format!("{name} must be at least {min}"));
        }
        Ok(n)
    }
}

/// Starts the zero-dependency scrape server when `--serve` gave an
/// address and announces the endpoint; the returned guard keeps it
/// serving until dropped.
fn start_scrape(
    addr: Option<&str>,
    registry: &Arc<Registry>,
) -> Result<Option<ScrapeServer>, String> {
    let Some(addr) = addr else { return Ok(None) };
    let server =
        ScrapeServer::start(addr, registry.clone()).map_err(|e| format!("--serve {addr}: {e}"))?;
    println!("serving metrics on http://{}/metrics (and /metrics.json)", server.addr());
    Ok(Some(server))
}

/// One backend's row of the human-readable CRAM table: arena bytes per
/// receiver prefix, the byte split, and the model's expected per-lookup
/// references and cache misses.
fn print_cram(name: &str, prefixes: usize, r: &CramReport) {
    println!(
        "  {name:<11} {:>8.2} B/pfx  arena {:>12}  buckets {:>12}  dict {:>10}  \
         refs {:>6.2}  miss L1 {:.3} L2 {:.3} L3 {:.3}",
        r.arena_bytes as f64 / prefixes.max(1) as f64,
        r.arena_bytes,
        r.bucket_bytes,
        r.dict_bytes,
        r.expected_refs,
        r.expected_l1_misses,
        r.expected_l2_misses,
        r.expected_l3_misses
    );
}

/// The same CRAM block as report keys. Everything here is a pure
/// function of the seeded layout.
fn report_cram(report: &mut Report, name: &str, prefixes: usize, r: &CramReport) {
    report
        .seeded(
            &format!("{name}_bytes_per_prefix"),
            Num::fixed(r.arena_bytes as f64 / prefixes.max(1) as f64, 3),
        )
        .seeded(&format!("cram_{name}_arena_bytes"), r.arena_bytes)
        .seeded(&format!("cram_{name}_bucket_bytes"), r.bucket_bytes)
        .seeded(&format!("cram_{name}_dict_bytes"), r.dict_bytes)
        .seeded(&format!("cram_{name}_levels"), r.levels.len())
        .seeded(&format!("cram_{name}_expected_refs"), Num::fixed(r.expected_refs, 4))
        .seeded(&format!("cram_{name}_l1_miss"), Num::fixed(r.expected_l1_misses, 4))
        .seeded(&format!("cram_{name}_l2_miss"), Num::fixed(r.expected_l2_misses, 4))
        .seeded(&format!("cram_{name}_l3_miss"), Num::fixed(r.expected_l3_misses, 4));
}

/// `{:.2}`-formats an optional statistic, `-` when undefined.
fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_owned(), |x| format!("{x:.2}"))
}

/// One number of a [`Report`], rendered once at the precision its key
/// exports; an undefined or non-finite number is `null`.
struct Num(String);

impl Num {
    /// `x` with `decimals` places.
    fn fixed(x: impl Into<Option<f64>>, decimals: usize) -> Num {
        match x.into() {
            Some(x) if x.is_finite() => Num(format!("{x:.decimals$}")),
            _ => Num("null".to_owned()),
        }
    }
}

/// A real number in its shortest exact form (`1`, `0.25`).
impl From<f64> for Num {
    fn from(x: f64) -> Num {
        if x.is_finite() {
            Num(x.to_string())
        } else {
            Num("null".to_owned())
        }
    }
}

macro_rules! num_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Num {
            fn from(x: $t) -> Num {
                Num(x.to_string())
            }
        }
    )*};
}
num_from_int!(u8, u64, usize);

/// An optional count: `null` when undefined.
impl<T: Into<Num>> From<Option<T>> for Num {
    fn from(x: Option<T>) -> Num {
        x.map_or_else(|| Num("null".to_owned()), Into::into)
    }
}

/// A value of a [`Report`], its scalars already rendered.
enum Json {
    Scalar(String),
    List(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Renders `self` at nesting depth `indent`: a container holding
    /// only scalars on one line, any other one child per line.
    fn render(&self, out: &mut String, indent: usize) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Scalar(s) => return out.push_str(s),
            Json::List(v) => ('[', ']', v.iter().map(|j| (None, j)).collect()),
            Json::Object(v) => ('{', '}', v.iter().map(|(k, j)| (Some(k.as_str()), j)).collect()),
        };
        let nested = items.iter().any(|(_, j)| !matches!(j, Json::Scalar(_)));
        let pad = |out: &mut String, depth: usize| {
            out.push('\n');
            out.push_str(&" ".repeat(depth));
        };
        out.push(open);
        for (i, (key, value)) in items.into_iter().enumerate() {
            if i > 0 {
                out.push_str(if nested { "," } else { ", " });
            }
            if nested {
                pad(out, indent + 2);
            }
            if let Some(key) = key {
                out.push_str(&quote(key));
                out.push_str(": ");
            }
            value.render(out, indent + 2);
        }
        if nested {
            pad(out, indent);
        }
        out.push(close);
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One `BENCH_*.json` export: an ordered `key → value` object. Every
/// number goes in as seeded (a pure function of the seeded workload,
/// held to `bench-diff --tolerance`) or as a timing (read off the wall
/// clock or the thread schedule, held to `--time-tolerance`), and the
/// rendered file ends in a top-level `timing` list of the leaf names
/// written as timings — the declaration `bench-diff` reads the classes
/// from.
#[derive(Default)]
struct Report {
    fields: Vec<(String, Json)>,
    timings: Vec<String>,
}

impl Report {
    fn put(&mut self, key: &str, value: Json) -> &mut Self {
        self.fields.push((key.to_owned(), value));
        self
    }

    fn declare_timing(&mut self, leaf: &str) {
        if !self.timings.iter().any(|t| t == leaf) {
            self.timings.push(leaf.to_owned());
        }
    }

    fn seeded(&mut self, key: &str, n: impl Into<Num>) -> &mut Self {
        self.put(key, Json::Scalar(n.into().0))
    }

    fn timing(&mut self, key: &str, n: impl Into<Num>) -> &mut Self {
        self.declare_timing(key);
        self.seeded(key, n)
    }

    /// A list of timings under one key.
    fn timing_list(&mut self, key: &str, ns: impl IntoIterator<Item = Num>) -> &mut Self {
        self.declare_timing(key);
        self.put(key, Json::List(ns.into_iter().map(|n| Json::Scalar(n.0)).collect()))
    }

    fn flag(&mut self, key: &str, b: bool) -> &mut Self {
        self.put(key, Json::Scalar(b.to_string()))
    }

    fn text(&mut self, key: &str, s: &str) -> &mut Self {
        self.put(key, Json::Scalar(quote(s)))
    }

    /// A nested object; its timings join this report's.
    fn child(&mut self, key: &str, child: Report) -> &mut Self {
        let value = self.adopt(child);
        self.put(key, value)
    }

    /// A list of nested objects; their timings join this report's.
    fn rows(&mut self, key: &str, rows: Vec<Report>) -> &mut Self {
        let rows = rows.into_iter().map(|r| self.adopt(r)).collect();
        self.put(key, Json::List(rows))
    }

    fn adopt(&mut self, child: Report) -> Json {
        for t in &child.timings {
            self.declare_timing(t);
        }
        Json::Object(child.fields)
    }

    /// The JSON document, `timing` list last.
    fn render(mut self) -> String {
        let timings = self.timings.iter().map(|t| Json::Scalar(quote(t))).collect();
        self.fields.push(("timing".to_owned(), Json::List(timings)));
        let mut out = String::new();
        Json::Object(self.fields).render(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(self, path: &str) -> Result<(), String> {
        fs::write(path, self.render()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
        Ok(())
    }
}

/// Prints one profiled path's per-stage attribution table and its
/// summary line.
fn print_profile_path(name: &str, prof: &StageProfiler, snap: &HistogramSnapshot) {
    println!("path: {name}");
    println!(
        "  {:<13} {:>9} {:>10} {:>9} {:>12} {:>9} {:>7}",
        "stage", "visits", "ticks", "t/visit", "bytes", "ns/tick", "corr"
    );
    for stage in Stage::all() {
        let s = prof.stage(stage);
        if s.visits == 0 {
            continue;
        }
        println!(
            "  {:<13} {:>9} {:>10} {:>9} {:>12} {:>9} {:>7}",
            stage.label(),
            s.visits,
            s.ticks,
            fmt_opt(s.ticks_per_visit()),
            s.bytes,
            fmt_opt(s.ns_per_tick()),
            fmt_opt(s.correlation()),
        );
    }
    println!(
        "  lookups {}, ns/lookup p50 {:.0} p90 {:.0} p99 {:.0}, bytes/lookup {}, \
         cost-vs-time r {}",
        prof.lookups(),
        snap.p50(),
        snap.p90(),
        snap.p99(),
        fmt_opt(prof.bytes_per_lookup()),
        fmt_opt(prof.lookup_correlation()),
    );
}

/// One profiled path as a `BENCH_profile.json` object: predicted visits,
/// ticks and bytes are seeded; measured nanoseconds and the
/// correlations that read them are timings.
fn profile_report(prof: &StageProfiler, snap: &HistogramSnapshot) -> Report {
    let mut stages = Report::default();
    for stage in Stage::all() {
        let s = prof.stage(stage);
        if s.visits == 0 {
            continue;
        }
        let mut row = Report::default();
        row.seeded("visits", s.visits)
            .seeded("ticks", s.ticks)
            .seeded("bytes", s.bytes)
            .timing("nanos", s.nanos)
            .seeded("ticks_per_visit", Num::fixed(s.ticks_per_visit(), 4))
            .timing("ns_per_tick", Num::fixed(s.ns_per_tick(), 4))
            .timing("correlation", Num::fixed(s.correlation(), 4));
        stages.child(stage.label(), row);
    }
    let mut report = Report::default();
    report
        .seeded("lookups", prof.lookups())
        .seeded("total_ticks", prof.total_ticks())
        .seeded("total_bytes", prof.total_bytes())
        .timing("total_nanos", prof.total_nanos())
        .timing("ns_p50", Num::fixed(snap.p50(), 1))
        .timing("ns_p90", Num::fixed(snap.p90(), 1))
        .timing("ns_p99", Num::fixed(snap.p99(), 1))
        .seeded("bytes_per_lookup", Num::fixed(prof.bytes_per_lookup(), 4))
        .timing("cost_time_correlation", Num::fixed(prof.lookup_correlation(), 4))
        .child("stages", stages);
    report
}

/// Profiles one compiled backend over the workload: every packet runs
/// through the plain lookup and then through the profiling meter.
/// Returns the attribution and whether every packet agreed (BMP,
/// class, per-packet `Cost`).
fn profile_backend<E: CompiledBackend<Ip4>>(
    backend: &E,
    dests: &[Ip4],
    clues: &[Option<Prefix<Ip4>>],
    hist: &Histogram,
    lookups_total: &clue_telemetry::Counter,
) -> (StageProfiler, bool) {
    let mut meter = StageMeter::default();
    let mut inert = true;
    for (&dest, &clue) in dests.iter().zip(clues) {
        let mut c0 = Cost::new();
        let r0 = backend.lookup(dest, clue, &mut c0);
        let t0 = std::time::Instant::now();
        meter.cost = Cost::new();
        let r1 = backend.lookup(dest, clue, &mut meter);
        hist.observe(t0.elapsed().as_nanos() as u64);
        lookups_total.inc();
        if r0 != r1 || c0 != meter.cost {
            inert = false;
        }
    }
    (meter.profiler, inert)
}

/// Runs the per-stage lookup profiler over the scalar path, every
/// compiled backend and the multi-core network runtime, cross-validating
/// the paper's predicted [`Cost`] ticks against measured nanoseconds
/// stage by stage. Every packet runs through both the plain and the
/// profiled variant of each path; `--check` fails unless they agree
/// bit-for-bit (BMP, class, per-packet `Cost`, engine stats) — the
/// profiler's "semantically inert" contract. `--json PATH` exports
/// the attribution for the `BENCH_*.json` trajectory; `--serve ADDR`
/// exposes the per-path latency histograms live while the run is hot.
fn profile(args: &[String]) -> Result<(), String> {
    let flags = Flags::read(
        args,
        ["packets", "seed"],
        &["--table", "--stride", "--json", "--serve"],
        &["--check"],
    )?;
    let packets = flags.count("packets", 20_000, 1)?;
    let seed = flags.get("seed", 1u64)?;
    let table = flags.count("--table", 40_000, 1)?;
    let stride_bits = flags.get("--stride", clue_core::DEFAULT_INITIAL_BITS)?;
    let check = flags.switch("--check");

    // Same table/traffic shape as `clue throughput`, so the profile
    // explains the numbers that command reports. The scalar pair
    // carries the Section 3.5 presence cache so the Cache stage is
    // exercised; freezing rejects caches, so the frozen/stride paths
    // compile from an uncached twin.
    let sender = synthesize_ipv4(table, seed);
    let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(seed.wrapping_add(1)));
    let cfg = || EngineConfig::new(Family::Regular, Method::Advance);
    let mut scalar_plain = ClueEngine::precomputed(&sender, &receiver, cfg());
    let mut scalar_prof = ClueEngine::precomputed(&sender, &receiver, cfg());
    scalar_plain.enable_cache(256);
    scalar_prof.enable_cache(256);
    let frozen = ClueEngine::precomputed(&sender, &receiver, cfg())
        .freeze()
        .map_err(|e| format!("cannot freeze the engine ({} blocks it): {e}", e.feature()))?;
    let stride = frozen
        .compile_stride(clue_core::StrideConfig::new(stride_bits, clue_core::DEFAULT_INNER_BITS))
        .map_err(|e| format!("--stride: {e}"))?;
    let compressed = frozen.compile_compressed(clue_core::CompressedConfig);
    let (dests, clues) = generate_with_clues(
        &sender,
        &receiver,
        &TrafficConfig { count: packets, ..TrafficConfig::paper(seed) },
    );

    let registry = Arc::new(Registry::new());
    let hist = |path: &str| -> Histogram {
        registry.histogram(
            &format!("clue_profile_{path}_lookup_nanos"),
            "Measured wall-clock nanoseconds per profiled lookup",
            clue_telemetry::LOOKUP_NANOS_BOUNDS,
        )
    };
    let (h_scalar, h_frozen, h_stride, h_compressed) =
        (hist("scalar"), hist("frozen"), hist("stride"), hist("compressed"));
    let lookups_total =
        registry.counter("clue_profile_lookups_total", "Profiled lookups across all paths");
    let _server = start_scrape(flags.text("--serve"), &registry)?;

    let mut inert = true;

    // Scalar: twin engines so learning/cache/stats mutate identically.
    let mut meter = StageMeter::default();
    for (&dest, &clue) in dests.iter().zip(&clues) {
        let mut c0 = Cost::new();
        let r0 = scalar_plain.lookup(dest, clue, None, &mut c0);
        let t0 = std::time::Instant::now();
        meter.cost = Cost::new();
        let r1 = scalar_prof.lookup(dest, clue, None, &mut meter);
        h_scalar.observe(t0.elapsed().as_nanos() as u64);
        lookups_total.inc();
        if r0 != r1 || c0 != meter.cost {
            inert = false;
        }
    }
    let prof_scalar = meter.profiler;
    if scalar_plain.stats() != scalar_prof.stats() {
        inert = false;
    }

    let (prof_frozen, ok) = profile_backend(&frozen, &dests, &clues, &h_frozen, &lookups_total);
    inert &= ok;
    let (prof_stride, ok) = profile_backend(&stride, &dests, &clues, &h_stride, &lookups_total);
    inert &= ok;
    let (prof_compressed, ok) =
        profile_backend(&compressed, &dests, &clues, &h_compressed, &lookups_total);
    inert &= ok;

    // Network leg: the multi-core runtime on the frozen backend, one
    // profiler per worker merged in worker order — stats must match the
    // unprofiled run exactly.
    let (topo, edges) = clue_netsim::Topology::backbone(4, 2);
    let mut net_cfg = clue_netsim::NetworkConfig::new(edges.clone(), cfg());
    net_cfg.seed = seed;
    let net: clue_netsim::Network<Ip4> = clue_netsim::Network::build(topo, net_cfg);
    let net_packets = packets.min(5_000);
    let frozen_net =
        clue_netsim::CompiledNetwork::<Ip4, FrozenEngine<Ip4>>::compile(&net, &()).map_err(
            |e| match e {
                BackendError::Freeze(e) => {
                    format!("cannot freeze the network ({} blocks it): {e}", e.feature())
                }
                e => format!("cannot freeze the network: {e}"),
            },
        )?;
    let plain_stats = frozen_net.run_workload(&edges, net_packets, seed, 2);
    let (profiled_stats, prof_net) = frozen_net.profile_workload(&edges, net_packets, seed, 2);
    if profiled_stats != plain_stats {
        inert = false;
    }
    let h_net = hist("network");
    // The network runtime times whole lookups inside the profiler; the
    // histogram gets a per-hop mean so the scrape shows all four paths.
    if prof_net.lookups() > 0 {
        h_net.observe(prof_net.total_nanos() / prof_net.lookups());
    }

    println!(
        "profile workload: {packets} packets (sender {table} prefixes, seed {seed}), \
         network {net_packets} packets over a 4x2 backbone"
    );
    print_profile_path("scalar (presence cache 256)", &prof_scalar, &h_scalar.snapshot());
    print_profile_path("frozen", &prof_frozen, &h_frozen.snapshot());
    print_profile_path(
        &format!("stride (initial {stride_bits} bits)"),
        &prof_stride,
        &h_stride.snapshot(),
    );
    print_profile_path("compressed", &prof_compressed, &h_compressed.snapshot());
    print_profile_path("network (per hop, frozen)", &prof_net, &h_net.snapshot());
    if check {
        if !inert {
            return Err(
                "profile check failed: a profiled path diverged from its unprofiled twin"
                    .to_owned(),
            );
        }
        println!("check: profiled paths semantically inert (bmp, class, cost, stats parity)");
    }

    if let Some(path) = flags.text("--json") {
        let mut paths = Report::default();
        for (name, prof, hist) in [
            ("scalar", &prof_scalar, &h_scalar),
            ("frozen", &prof_frozen, &h_frozen),
            ("stride", &prof_stride, &h_stride),
            ("compressed", &prof_compressed, &h_compressed),
            ("network", &prof_net, &h_net),
        ] {
            paths.child(name, profile_report(prof, &hist.snapshot()));
        }
        let mut bench = Report::default();
        bench
            .seeded("packets", packets)
            .seeded("net_packets", net_packets)
            .seeded("seed", seed)
            .seeded("table", table)
            .seeded("stride_bits", stride_bits)
            .flag("checked", check)
            .flag("inert", inert)
            .child("paths", paths);
        bench.write(path)?;
    }
    Ok(())
}

/// A flattened JSON scalar, as produced by [`flatten_json`].
#[derive(Debug, Clone, PartialEq)]
enum JsonVal {
    Num(f64),
    Bool(bool),
    Str(String),
    Null,
}

/// Flattens a JSON document into `path.to.key` → scalar pairs (array
/// elements keyed by index). A minimal recursive-descent parser — the
/// BENCH_*.json exports are machine-written by this binary, so the
/// grammar is plain JSON with no surprises, and pulling in a parser
/// dependency for that would be absurd.
fn flatten_json(text: &str) -> Result<BTreeMap<String, JsonVal>, String> {
    struct P<'a> {
        s: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn peek(&mut self) -> Result<u8, String> {
            self.ws();
            self.s.get(self.i).copied().ok_or_else(|| "unexpected end of input".to_owned())
        }
        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.peek()? == c {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", c as char, self.i))
            }
        }
        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                let c = *self.s.get(self.i).ok_or("unterminated string")?;
                self.i += 1;
                match c {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                        self.i += 1;
                        match e {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'u' => {
                                let hex = self
                                    .s
                                    .get(self.i..self.i + 4)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                    16,
                                )
                                .map_err(|_| "bad \\u escape")?;
                                self.i += 4;
                                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            }
                            other => return Err(format!("bad escape \\{}", other as char)),
                        }
                    }
                    other => out.push(other as char),
                }
            }
        }
        fn value(
            &mut self,
            path: &str,
            out: &mut BTreeMap<String, JsonVal>,
        ) -> Result<(), String> {
            match self.peek()? {
                b'{' => {
                    self.eat(b'{')?;
                    if self.peek()? == b'}' {
                        return self.eat(b'}');
                    }
                    loop {
                        let key = self.string()?;
                        self.eat(b':')?;
                        let sub = if path.is_empty() { key } else { format!("{path}.{key}") };
                        self.value(&sub, out)?;
                        match self.peek()? {
                            b',' => self.eat(b',')?,
                            b'}' => return self.eat(b'}'),
                            c => return Err(format!("expected , or }} got {:?}", c as char)),
                        }
                    }
                }
                b'[' => {
                    self.eat(b'[')?;
                    if self.peek()? == b']' {
                        return self.eat(b']');
                    }
                    let mut idx = 0usize;
                    loop {
                        self.value(&format!("{path}.{idx}"), out)?;
                        idx += 1;
                        match self.peek()? {
                            b',' => self.eat(b',')?,
                            b']' => return self.eat(b']'),
                            c => return Err(format!("expected , or ] got {:?}", c as char)),
                        }
                    }
                }
                b'"' => {
                    let s = self.string()?;
                    out.insert(path.to_owned(), JsonVal::Str(s));
                    Ok(())
                }
                b't' | b'f' | b'n' => {
                    for (lit, val) in [
                        ("true", Some(JsonVal::Bool(true))),
                        ("false", Some(JsonVal::Bool(false))),
                        ("null", Some(JsonVal::Null)),
                    ] {
                        if self.s[self.i..].starts_with(lit.as_bytes()) {
                            self.i += lit.len();
                            out.insert(path.to_owned(), val.expect("literal value"));
                            return Ok(());
                        }
                    }
                    Err(format!("bad literal at byte {}", self.i))
                }
                _ => {
                    let start = self.i;
                    while self
                        .s
                        .get(self.i)
                        .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                    {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.s[start..self.i])
                        .expect("ascii number bytes");
                    let n: f64 =
                        text.parse().map_err(|_| format!("bad number {text:?} at {start}"))?;
                    out.insert(path.to_owned(), JsonVal::Num(n));
                    Ok(())
                }
            }
        }
    }
    let mut p = P { s: text.as_bytes(), i: 0 };
    let mut out = BTreeMap::new();
    p.value("", &mut out)?;
    p.ws();
    if p.i != text.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(out)
}

/// The leaf names an export declares as timings: its top-level `timing`
/// list (empty when it has none).
fn timing_leaves(flat: &BTreeMap<String, JsonVal>) -> Vec<&str> {
    (0..)
        .map_while(|i| match flat.get(&format!("timing.{i}")) {
            Some(JsonVal::Str(leaf)) => Some(leaf.as_str()),
            _ => None,
        })
        .collect()
}

/// The leaf name of a flattened key: its last segment that is not an
/// array index (`per_core_pps.2` → `per_core_pps`).
fn leaf(key: &str) -> &str {
    key.rsplit('.').find(|seg| !seg.bytes().all(|b| b.is_ascii_digit())).unwrap_or(key)
}

/// How far apart two numbers are, in percent: the larger over the
/// smaller, less one, when both are positive — so 900 is 10x either
/// way. A zero or a sign change has no ratio; it drifts by the
/// difference over the larger magnitude, which never exceeds 200.
fn drift_pct(x: f64, y: f64) -> f64 {
    let (lo, hi) = (x.min(y), x.max(y));
    if lo > 0.0 {
        (hi / lo - 1.0) * 100.0
    } else {
        (x - y).abs() / x.abs().max(y.abs()).max(1e-9) * 100.0
    }
}

/// Compares two `BENCH_*.json` exports key by key: every baseline key
/// must exist in the fresh run; booleans and strings must match
/// exactly; numbers must agree within a relative tolerance — under
/// `--time-tolerance` when the baseline's `timing` list declares the
/// key's leaf name a timing, under `--tolerance` otherwise (so a
/// baseline without the list is strict on every number). The two
/// `timing` lists must match, so a key that changes class fails
/// instead of moving to the other tolerance. `null` on either side is
/// a wildcard (an undefined statistic such as a constant-series
/// correlation). `--min KEY=FLOOR` / `--max KEY=CEIL` (both repeatable)
/// additionally require the fresh run's `KEY` to be a number
/// `>= FLOOR` / `<= CEIL` — absolute quality bounds on top of the
/// relative drift check (a ceiling is how the compressed backend's
/// bytes-per-prefix budget is enforced). The perf-regression gate in
/// `scripts/verify.sh` is built on this.
fn bench_diff(args: &[String]) -> Result<(), String> {
    let flags = Flags::read(
        args,
        ["baseline", "fresh"],
        &["--tolerance", "--time-tolerance", "--min", "--max"],
        &[],
    )?;
    let tolerance = flags.get("--tolerance", 10.0f64)?;
    let time_tolerance = flags.get("--time-tolerance", 100.0f64)?;
    let bounds = |flag: &str| -> Result<Vec<(String, f64)>, String> {
        flags
            .all(flag)
            .map(|spec| {
                let (key, bound) =
                    spec.split_once('=').ok_or_else(|| format!("{flag} needs KEY=VALUE"))?;
                let bound = bound.parse().map_err(|_| format!("bad {flag} bound in {spec:?}"))?;
                Ok((key.to_owned(), bound))
            })
            .collect()
    };
    let floors = bounds("--min")?;
    let ceilings = bounds("--max")?;
    let (Some(baseline_path), Some(fresh_path)) = (flags.text("baseline"), flags.text("fresh"))
    else {
        return Err("bench-diff needs exactly two files: <baseline.json> <fresh.json>".to_owned());
    };
    let read = |p: &str| -> Result<BTreeMap<String, JsonVal>, String> {
        flatten_json(&fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let baseline = read(baseline_path)?;
    let fresh = read(fresh_path)?;
    let (timing, fresh_timing) = (timing_leaves(&baseline), timing_leaves(&fresh));

    let mut compared = 0usize;
    let mut timed = 0usize;
    let mut worst: Option<(f64, String)> = None;
    let mut failures: Vec<String> = Vec::new();
    if timing != fresh_timing {
        failures.push(format!(
            "timing: the declared timing keys changed: {timing:?} -> {fresh_timing:?}"
        ));
    }
    for (key, b) in &baseline {
        let Some(f) = fresh.get(key) else {
            failures.push(format!("{key}: present in baseline, missing in fresh run"));
            continue;
        };
        match (b, f) {
            (JsonVal::Null, _) | (_, JsonVal::Null) => {}
            (JsonVal::Bool(x), JsonVal::Bool(y)) => {
                compared += 1;
                if x != y {
                    failures.push(format!("{key}: {x} -> {y}"));
                }
            }
            (JsonVal::Str(x), JsonVal::Str(y)) => {
                compared += 1;
                if x != y {
                    failures.push(format!("{key}: {x:?} -> {y:?}"));
                }
            }
            (JsonVal::Num(x), JsonVal::Num(y)) => {
                compared += 1;
                let tol = if timing.contains(&leaf(key)) {
                    timed += 1;
                    time_tolerance
                } else {
                    tolerance
                };
                let drift = drift_pct(*x, *y);
                if worst.as_ref().is_none_or(|(w, _)| drift > *w) {
                    worst = Some((drift, key.clone()));
                }
                if drift > tol {
                    failures.push(format!("{key}: {x} -> {y} ({drift:.1}% > {tol}%)"));
                }
            }
            _ => failures.push(format!("{key}: type changed")),
        }
    }
    for (key, floor) in &floors {
        match fresh.get(key) {
            Some(JsonVal::Num(v)) if v >= floor => {
                println!("  floor ok: {key} = {v} (>= {floor})");
            }
            Some(JsonVal::Num(v)) => {
                failures.push(format!("{key}: {v} below the --min floor {floor}"));
            }
            Some(_) => failures.push(format!("{key}: --min floor needs a numeric value")),
            None => failures.push(format!("{key}: --min floor set but key missing in fresh run")),
        }
    }
    for (key, ceil) in &ceilings {
        match fresh.get(key) {
            Some(JsonVal::Num(v)) if v <= ceil => {
                println!("  ceiling ok: {key} = {v} (<= {ceil})");
            }
            Some(JsonVal::Num(v)) => {
                failures.push(format!("{key}: {v} above the --max ceiling {ceil}"));
            }
            Some(_) => failures.push(format!("{key}: --max ceiling needs a numeric value")),
            None => failures.push(format!("{key}: --max ceiling set but key missing in fresh run")),
        }
    }
    let extra = fresh.keys().filter(|k| !baseline.contains_key(k.as_str())).count();
    println!(
        "bench-diff: {compared} keys compared ({} baseline, {extra} new in fresh), \
         tolerance {tolerance}% / {time_tolerance}% ({timed} timing), {} floor(s), \
         {} ceiling(s)",
        baseline.len(),
        floors.len(),
        ceilings.len()
    );
    if let Some((drift, key)) = &worst {
        println!("  worst numeric drift: {key} ({drift:.1}%)");
    }
    if !failures.is_empty() {
        return Err(format!(
            "bench-diff failed: {} key(s) out of tolerance:\n  {}",
            failures.len(),
            failures.join("\n  ")
        ));
    }
    println!("  all keys within tolerance");
    Ok(())
}

/// Packets per second of `engine`'s batch lookup at interleave `group`,
/// best of three runs — the standard treatment against scheduler noise
/// on a shared (often single-CPU) box; a repeat is the identical
/// stateless computation.
fn batch_pps<E: CompiledBackend<Ip4>>(
    engine: &E,
    dests: &[Ip4],
    clues: &[Option<Prefix<Ip4>>],
    out: &mut [clue_core::Decision<Ip4>],
    group: usize,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        let _ = engine.lookup_batch_interleaved(dests, clues, out, group);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    dests.len() as f64 / best.max(1e-9)
}

/// `--check`'s window leg: `engine`'s batch at window 1 (each packet
/// prepared, then finished) must equal `want`, its batch at a wider
/// window on the same packets — a window-dependent answer fails it.
fn window_agrees<E: CompiledBackend<Ip4>>(
    engine: &E,
    dests: &[Ip4],
    clues: &[Option<Prefix<Ip4>>],
    want: &[clue_core::Decision<Ip4>],
) -> bool {
    let mut out = vec![clue_core::Decision::default(); dests.len()];
    engine.lookup_batch_interleaved(dests, clues, &mut out, 1);
    out == want
}

/// One backend's timing leg, shared by every backend so none can time
/// a window other than the one reported: [`batch_pps`] at `window` into
/// `out`, and with `check` whether [`window_agrees`] on the result
/// (`true` without `check`).
fn time_backend<E: CompiledBackend<Ip4>>(
    engine: &E,
    dests: &[Ip4],
    clues: &[Option<Prefix<Ip4>>],
    out: &mut [clue_core::Decision<Ip4>],
    window: usize,
    check: bool,
) -> (f64, bool) {
    let pps = batch_pps(engine, dests, clues, out, window);
    (pps, !check || window_agrees(engine, dests, clues, out))
}

/// Benchmarks the four lookup pipelines — mutable scalar engine,
/// frozen batch API, stride-compiled prefetched batch, and the
/// shared-nothing multi-core network runtime — and optionally
/// (`--check`) proves they return identical results before reporting
/// any numbers. `--runtime` adds the engine-level serving leg
/// ([`clue_netsim::serve_lookups`] over an epoch cell). `--json PATH`
/// exports the measurements for the `BENCH_*.json` trajectory.
fn throughput(args: &[String]) -> Result<(), String> {
    let flags = Flags::read(
        args,
        ["packets", "seed"],
        &["--threads", "--table", "--stride", "--prefetch", "--backend", "--json", "--serve"],
        &["--runtime", "--check"],
    )?;
    let packets = flags.count("packets", 20_000, 1)?;
    let seed = flags.get("seed", 1u64)?;
    let threads = flags.count("--threads", clue_netsim::available_workers(), 1)?;
    let table = flags.count("--table", 40_000, 1)?;
    let stride_bits = flags.get("--stride", clue_core::DEFAULT_INITIAL_BITS)?;
    let prefetch = flags.get("--prefetch", clue_core::DEFAULT_INTERLEAVE)?;
    let backend = flags.text("--backend").map(str::parse::<clue_core::BackendKind>).transpose()?;
    let check = flags.switch("--check");
    let runtime_leg = flags.switch("--runtime");
    if backend.is_some() && runtime_leg {
        return Err("--backend benchmarks one engine; it has no --runtime leg".to_owned());
    }

    // Stage 1 — single receiver, paper-style traffic with honest clues:
    // the scalar engine vs its frozen batch compilation vs the
    // stride-compiled prefetched batch vs the entropy-compressed
    // arena. The default table is paper-scale (the Mae-East snapshot
    // the paper measures is ~40k prefixes) — at toy sizes every
    // structure is cache-resident and the layouts can't be told apart.
    // From 200k prefixes up the 1999 histogram is no longer a
    // plausible table shape (and its short lengths saturate), so big
    // tables switch to the modern default-free-zone generator.
    const MODERN_TABLE_FLOOR: usize = 200_000;
    let sender = if table >= MODERN_TABLE_FLOOR {
        clue_tablegen::synthesize_ipv4_modern(table, seed)
    } else {
        synthesize_ipv4(table, seed)
    };
    let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(seed.wrapping_add(1)));
    let mut scalar = ClueEngine::precomputed(
        &sender,
        &receiver,
        EngineConfig::new(Family::Regular, Method::Advance),
    );
    let frozen = scalar
        .freeze()
        .map_err(|e| format!("cannot freeze the engine ({} blocks it): {e}", e.feature()))?;
    let stride_cfg = clue_core::StrideConfig::new(stride_bits, clue_core::DEFAULT_INNER_BITS);
    // In the single-backend matrix mode only the requested backend is
    // compiled (plus frozen, which every compiled layout derives
    // from); the full run compiles all three.
    let need_stride = backend.is_none_or(|k| k == clue_core::BackendKind::Stride);
    let need_compressed = backend.is_none_or(|k| k == clue_core::BackendKind::Compressed);
    let mut stride = need_stride
        .then(|| frozen.compile_stride(stride_cfg).map_err(|e| format!("--stride: {e}")))
        .transpose()?;
    let mut compressed =
        need_compressed.then(|| frozen.compile_compressed(clue_core::CompressedConfig));
    // With a live scrape endpoint the scalar engine and the compiled
    // batches are instrumented — the counters cost a few sharded
    // fetch_adds per packet, paid only when someone asked to watch.
    let registry = Arc::new(Registry::new());
    if flags.switch("--serve") {
        scalar.instrument(&registry);
        if let Some(stride) = &mut stride {
            stride.attach_batch_telemetry(clue_telemetry::BatchTelemetry::registered(
                &registry,
                "clue_stride",
            ));
        }
        if let Some(compressed) = &mut compressed {
            compressed.attach_compressed_telemetry(
                clue_telemetry::CompressedTelemetry::registered(&registry),
            );
        }
    }
    let _server = start_scrape(flags.text("--serve"), &registry)?;
    let (dests, clues) = generate_with_clues(
        &sender,
        &receiver,
        &TrafficConfig { count: packets, ..TrafficConfig::paper(seed) },
    );

    // The scalar engine learns through `&mut self`, so it is timed on
    // its single authoritative pass; the frozen/stride pipelines are
    // stateless and take a best-of-3 to shed scheduler noise.
    let t0 = std::time::Instant::now();
    let mut scalar_results = Vec::with_capacity(dests.len());
    for (&dest, &clue) in dests.iter().zip(&clues) {
        let mut cost = Cost::new();
        scalar_results.push((scalar.lookup(dest, clue, None, &mut cost), cost));
    }
    let scalar_pps = packets as f64 / t0.elapsed().as_secs_f64().max(1e-9);

    // Single-backend matrix mode: one compiled backend timed against
    // the scalar reference, CRAM layout analysis, no network legs (the
    // 1M–10M tables this mode exists for would dwarf the network-stage
    // setup many times over).
    if let Some(kind) = backend {
        let receiver_len = receiver.len();
        let mut out = vec![clue_core::Decision::default(); dests.len()];
        let ((pps, same_at_window_1), cram) = match kind {
            clue_core::BackendKind::Frozen => (
                time_backend(&frozen, &dests, &clues, &mut out, prefetch, check),
                frozen.cram(),
            ),
            clue_core::BackendKind::Stride => {
                let stride = stride.as_ref().expect("compiled for this mode");
                (time_backend(stride, &dests, &clues, &mut out, prefetch, check), stride.cram())
            }
            clue_core::BackendKind::Compressed => {
                let compressed = compressed.as_ref().expect("compiled for this mode");
                let timed = time_backend(compressed, &dests, &clues, &mut out, prefetch, check);
                (timed, compressed.cram())
            }
        };
        let mut equivalent = true;
        if check {
            for (d, &(bmp, cost)) in out.iter().zip(&scalar_results) {
                if d.bmp != bmp || d.cost != cost {
                    equivalent = false;
                }
            }
            if !equivalent {
                return Err(format!(
                    "equivalence check failed: the {} backend disagrees with the scalar engine",
                    kind.name()
                ));
            }
            if !same_at_window_1 {
                return Err(format!(
                    "equivalence check failed: the {} backend's answers depend on the \
                     prefetch window",
                    kind.name()
                ));
            }
        }
        let name = kind.name();
        let speedup = pps / scalar_pps.max(1e-9);
        println!("engine workload: {packets} packets (sender {table} prefixes, seed {seed})");
        println!("  scalar engine:  {scalar_pps:>12.0} pkts/s");
        println!(
            "  {name:<15} {pps:>12.0} pkts/s  ({speedup:.2}x scalar; prefetch window {prefetch})"
        );
        println!("memory layout (CRAM cache model, receiver {receiver_len} prefixes):");
        print_cram(name, receiver_len, &cram);
        if check {
            println!("equivalence: OK ({name} == scalar, window {prefetch} == window 1)");
        }
        if let Some(path) = flags.text("--json") {
            let mut bench = Report::default();
            bench
                .seeded("packets", packets)
                .seeded("seed", seed)
                .seeded("table", table)
                .text("backend", name)
                .seeded("prefetch_group", prefetch)
                .timing("scalar_pps", Num::fixed(scalar_pps, 1))
                .timing(&format!("{name}_pps"), Num::fixed(pps, 1))
                .timing(&format!("{name}_speedup_vs_scalar"), Num::fixed(speedup, 3));
            report_cram(&mut bench, name, receiver_len, &cram);
            bench.flag("checked", check).flag("equivalent", equivalent);
            bench.write(path)?;
        }
        return Ok(());
    }
    let stride = stride.as_ref().expect("compiled in full-matrix mode");
    let compressed = compressed.as_ref().expect("compiled in full-matrix mode");

    let mut out = vec![clue_core::Decision::default(); dests.len()];
    let mut stride_out = out.clone();
    let mut compressed_out = out.clone();
    let (frozen_pps, frozen_window) =
        time_backend(&frozen, &dests, &clues, &mut out, prefetch, check);
    let (stride_pps, stride_window) =
        time_backend(stride, &dests, &clues, &mut stride_out, prefetch, check);
    let (compressed_pps, compressed_window) =
        time_backend(compressed, &dests, &clues, &mut compressed_out, prefetch, check);

    let mut equivalent = true;
    if check {
        for (((d, s), c), &(bmp, cost)) in
            out.iter().zip(&stride_out).zip(&compressed_out).zip(&scalar_results)
        {
            if d.bmp != bmp || d.cost != cost || s != d || c != d {
                equivalent = false;
            }
        }
        equivalent &= frozen_window && stride_window && compressed_window;
    }

    // Stage 2 — the network workload: sequential per-packet reference
    // vs the shared-nothing multi-core runtime over `threads` worker
    // cores. The stride compile is one-off setup and happens outside
    // the timed region; the per-run replica priming is hoisted out of
    // the runtime's own clock too and reported as replica_clone_ms.
    let (topo, edges) = clue_netsim::Topology::backbone(4, 2);
    let mut net_cfg = clue_netsim::NetworkConfig::new(
        edges.clone(),
        EngineConfig::new(Family::Regular, Method::Advance),
    );
    net_cfg.seed = seed;
    let mut net: clue_netsim::Network<Ip4> = clue_netsim::Network::build(topo, net_cfg);
    // Long enough that the runtime's fixed costs (thread spawn, lane
    // priming, the final drain barrier) amortize to noise; both legs
    // route the identical workload.
    let net_packets = packets.min(50_000);

    let t0 = std::time::Instant::now();
    let seq = clue_netsim::run_workload_per_packet(&mut net, &edges, net_packets, seed);
    let seq_pps = net_packets as f64 / t0.elapsed().as_secs_f64().max(1e-9);

    let t0 = std::time::Instant::now();
    let stride_net = clue_netsim::StrideNetwork::freeze(&net, stride_cfg)
        .map_err(|e| format!("cannot stride-compile the network: {e}"))?;
    let freeze_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Best-of-3 on the runtime's own steady-state clock (replica
    // priming excluded); the report picked is the fastest run's.
    // Batch so each worker sees a handful of jobs: long jobs keep the
    // lane-interleaved walk's lanes full, and a handful (rather than
    // one) per core keeps the round-robin deal close to even.
    let runtime_cfg = clue_netsim::RuntimeConfig {
        workers: threads,
        batch: (net_packets / threads.max(1) / 4).max(512),
        prefetch,
    };
    let best_of_3 = |cfg: &clue_netsim::RuntimeConfig| {
        let mut best: Option<(clue_netsim::RunStats, clue_netsim::RuntimeReport)> = None;
        for _ in 0..3 {
            let (stats, report) =
                stride_net.run_workload_timed(&edges, net_packets, seed, cfg, None);
            if best.as_ref().is_none_or(|(_, b)| report.pps() > b.pps()) {
                best = Some((stats, report));
            }
        }
        best.expect("ran at least once")
    };
    let (par, report) = best_of_3(&runtime_cfg);
    let par_pps = report.pps();
    let replica_clone_ms = report.replica_clone_ns as f64 / 1e6;
    // The same runtime at one worker splits the speedup over the
    // scalar walk into its two causes: the backend, and more threads.
    let (single, single_report) =
        best_of_3(&clue_netsim::RuntimeConfig { workers: 1, ..runtime_cfg });
    let single_pps = single_report.pps();

    if check && (par != seq || single != seq) {
        equivalent = false;
    }

    // Optional engine-level serving leg: the stage-1 stride engine
    // published into an epoch cell and served by per-core replicas.
    let mut serve_report = None;
    if runtime_leg {
        let cell = clue_core::EpochCell::new(stride.replicate());
        let mut best: Option<(Vec<clue_core::Decision<Ip4>>, clue_netsim::ServeReport)> = None;
        for _ in 0..3 {
            let mut out = Vec::new();
            let r = clue_netsim::serve_lookups(&cell, &dests, &clues, &mut out, &runtime_cfg, None);
            if best.as_ref().is_none_or(|(_, b)| r.pps() > b.pps()) {
                best = Some((out, r));
            }
        }
        let (decisions, r) = best.expect("ran at least once");
        if check && decisions != stride_out {
            equivalent = false;
        }
        serve_report = Some(r);
    }
    if check && !equivalent {
        return Err("equivalence check failed: pipelines disagree".to_owned());
    }
    if check {
        let clock = |what: &str, pps: f64, cores: &[clue_netsim::CoreStats]| {
            let busy_pps: f64 = cores.iter().map(|c| c.pps()).sum();
            if pps <= busy_pps * (1.0 + 1e-9) {
                return Ok(());
            }
            Err(format!(
                "clock check failed: the {what} run's {pps:.0} pkts/s exceed its cores' \
                 summed busy-time rates ({busy_pps:.0} pkts/s)"
            ))
        };
        clock("network", par_pps, &report.cores)?;
        if let Some(r) = &serve_report {
            clock("serving", r.pps(), &r.cores)?;
        }
    }

    let batch_speedup = frozen_pps / scalar_pps.max(1e-9);
    let stride_speedup = stride_pps / frozen_pps.max(1e-9);
    let compressed_speedup = compressed_pps / frozen_pps.max(1e-9);
    let par_speedup = par_pps / seq_pps.max(1e-9);
    let backend_speedup = single_pps / seq_pps.max(1e-9);
    let scaling_efficiency = par_pps / single_pps.max(1e-9);
    let receiver_len = receiver.len();
    let crams =
        [("frozen", frozen.cram()), ("stride", stride.cram()), ("compressed", compressed.cram())];
    println!("engine workload: {packets} packets (sender {table} prefixes, seed {seed})");
    println!("  scalar engine:  {scalar_pps:>12.0} pkts/s");
    println!("  frozen batch:   {frozen_pps:>12.0} pkts/s  ({batch_speedup:.2}x scalar)");
    println!(
        "  stride batch:   {stride_pps:>12.0} pkts/s  ({stride_speedup:.2}x batch; \
         initial stride {stride_bits}, prefetch window {prefetch})"
    );
    println!(
        "  compressed:     {compressed_pps:>12.0} pkts/s  ({compressed_speedup:.2}x batch; \
         prefetch window {prefetch})"
    );
    println!("memory layout (CRAM cache model, receiver {receiver_len} prefixes):");
    for (name, cram) in &crams {
        print_cram(name, receiver_len, cram);
    }
    println!("network workload: {net_packets} packets over a 4x2 backbone");
    println!("  per-packet seq: {seq_pps:>12.0} pkts/s");
    println!("  freeze (setup): {freeze_ms:>12.2} ms (outside the timed runs)");
    println!(
        "  runtime x1:     {single_pps:>12.0} pkts/s  ({backend_speedup:.2}x seq: the backend)"
    );
    println!(
        "  runtime x{threads}:     {par_pps:>12.0} pkts/s  ({par_speedup:.2}x seq, \
         {scaling_efficiency:.2}x x1; replica clones {replica_clone_ms:.2} ms, outside the \
         timed region)"
    );
    if let Some(r) = &serve_report {
        println!(
            "engine serving x{threads}: {:>10.0} pkts/s  (replica clones {:.2} ms)",
            r.pps(),
            r.replica_clone_ns as f64 / 1e6
        );
    }
    if check {
        println!(
            "equivalence: OK (batch == stride == compressed == scalar, windows 1 and \
             {prefetch} agree, runtime == sequential)"
        );
    }

    if let Some(path) = flags.text("--json") {
        let core_pps = |cores: &[clue_netsim::CoreStats]| {
            cores.iter().map(|c| Num::fixed(c.pps(), 1)).collect::<Vec<_>>()
        };
        let mut bench = Report::default();
        bench
            .seeded("packets", packets)
            .seeded("net_packets", net_packets)
            .seeded("seed", seed)
            .seeded("threads", threads)
            .seeded("table", table)
            .seeded("stride_bits", stride_bits)
            .seeded("prefetch_group", prefetch)
            .timing("scalar_pps", Num::fixed(scalar_pps, 1))
            .timing("batch_pps", Num::fixed(frozen_pps, 1))
            .timing("batch_speedup", Num::fixed(batch_speedup, 3))
            .timing("stride_pps", Num::fixed(stride_pps, 1))
            .timing("stride_speedup", Num::fixed(stride_speedup, 3))
            .flag("stride_beats_batch", stride_pps > frozen_pps)
            .timing("compressed_pps", Num::fixed(compressed_pps, 1))
            .timing("compressed_speedup", Num::fixed(compressed_speedup, 3))
            .timing("seq_pps", Num::fixed(seq_pps, 1))
            .timing("freeze_ms", Num::fixed(freeze_ms, 2))
            .timing("replica_clone_ms", Num::fixed(replica_clone_ms, 3))
            .timing_list("per_core_pps", core_pps(&report.cores))
            .timing("parallel_pps", Num::fixed(par_pps, 1))
            .timing("parallel_speedup", Num::fixed(par_speedup, 3))
            .timing("backend_speedup", Num::fixed(backend_speedup, 3))
            .timing("scaling_efficiency", Num::fixed(scaling_efficiency, 3))
            .flag("parallel_scales", par_speedup > 1.0)
            .flag("checked", check)
            .flag("equivalent", equivalent);
        for (name, cram) in &crams {
            report_cram(&mut bench, name, receiver_len, cram);
        }
        if let Some(r) = &serve_report {
            bench
                .timing("runtime_pps", Num::fixed(r.pps(), 1))
                .timing_list("runtime_per_core_pps", core_pps(&r.cores))
                .timing("runtime_replica_clone_ms", Num::fixed(r.replica_clone_ns as f64 / 1e6, 3));
        }
        bench.write(path)?;
    }
    Ok(())
}

/// Runs the live-churn workload: a builder thread applies a BGP-style
/// update stream to the mutable engine and republishes a frozen
/// snapshot per batch, while `--readers` threads serve lookups from
/// epoch-pinned snapshots. `--check` proves the final snapshot is
/// bit-identical to freezing the end-state table from scratch;
/// `--json PATH` exports the run for the `BENCH_*.json` trajectory.
fn churn(args: &[String]) -> Result<(), String> {
    let flags =
        Flags::read(args, ["updates", "seed"], &["--readers", "--json", "--serve"], &["--check"])?;
    let updates = flags.count("updates", 2_000, 1)?;
    let seed = flags.get("seed", 1u64)?;
    let readers = flags.count("--readers", 4, 1)?;
    let check = flags.switch("--check");

    let sender = synthesize_ipv4(3000, seed);
    let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(seed.wrapping_add(1)));
    let stream = clue_tablegen::generate_churn(
        &receiver,
        &clue_tablegen::ChurnConfig::bgp(updates, seed.wrapping_add(2)),
    );

    let registry = Arc::new(Registry::new());
    let telemetry = clue_telemetry::ChurnTelemetry::registered(&registry);
    let _server = start_scrape(flags.text("--serve"), &registry)?;
    let mut cfg = clue_netsim::ChurnDriverConfig::new(readers, seed);
    cfg.check = check;
    let report = clue_netsim::run_churn(&sender, &receiver, &stream, &cfg, Some(&telemetry), None)
        .map_err(|e| e.to_string())?;
    if check && report.final_identical != Some(true) {
        return Err("churn check failed: final snapshot differs from a from-scratch rebuild"
            .to_owned());
    }

    println!(
        "churn workload: {updates} updates in {} batches (receiver {} prefixes, seed {seed})",
        report.epochs,
        receiver.len()
    );
    println!(
        "  rebuilds:   {} epochs, {:.0} us mean, {} us max",
        report.epochs,
        report.mean_rebuild_us(),
        report.max_rebuild_us()
    );
    println!(
        "  lookups:    {} served by {readers} readers ({} stale, {:.2}%, max lag {} epochs)",
        report.lookups_total,
        report.stale_lookups,
        report.stale_fraction() * 100.0,
        report.max_staleness
    );
    println!(
        "  snapshots:  {} swaps, {} reclaimed, {} left retired",
        telemetry.swaps(),
        telemetry.reclaimed(),
        report.retired_after
    );
    if check {
        println!("check: final snapshot bit-identical to from-scratch rebuild");
    }

    // Epochs, swaps and every lookup count depend on how the readers'
    // threads interleave with the builder's, so they are timings too.
    if let Some(path) = flags.text("--json") {
        let mut bench = Report::default();
        bench
            .seeded("updates", updates)
            .seeded("seed", seed)
            .seeded("readers", readers)
            .timing("epochs", report.epochs)
            .timing("swaps", telemetry.swaps())
            .timing("mean_rebuild_us", Num::fixed(report.mean_rebuild_us(), 1))
            .timing("max_rebuild_us", report.max_rebuild_us())
            .timing("lookups_total", report.lookups_total)
            .timing("stale_lookups", report.stale_lookups)
            .timing("stale_fraction", Num::fixed(report.stale_fraction(), 4))
            .timing("max_staleness", report.max_staleness)
            .timing("retired_after", report.retired_after)
            .flag("checked", check)
            .flag("identical", report.final_identical == Some(true));
        bench.write(path)?;
    }
    Ok(())
}

/// Runs the fault-injection harness: seeded reproducible faults
/// (corrupted/truncated/out-of-range/stale/adversarial clues, clueless
/// hops, drops, reorders) through the receiver pipeline, every
/// forwarding decision differentially checked against the clue-less
/// baseline, plus a churn leg that must survive an injected reader
/// panic. `--check` fails unless the
/// run is sound; `--json PATH` exports per-class counts and
/// degraded-cost percentiles for the `BENCH_*.json` trajectory.
fn chaos(args: &[String]) -> Result<(), String> {
    let flags =
        Flags::read(args, ["packets", "seed"], &["--faults", "--json", "--serve"], &["--check"])?;
    let packets = flags.count("packets", 1_000_000, 1)?;
    let seed = flags.get("seed", 1u64)?;
    let spec = flags.text("--faults").unwrap_or("all");
    let check = flags.switch("--check");

    let plan = clue_netsim::FaultPlan::parse(spec, seed)?;
    let registry = Arc::new(Registry::new());
    let telemetry = clue_netsim::DegradationTelemetry::registered(&registry, plan.classes());
    let _server = start_scrape(flags.text("--serve"), &registry)?;
    let mut config = clue_netsim::ChaosConfig::new(packets, seed);
    config.plan = plan;
    let report = clue_netsim::run_chaos(&config, Some(&telemetry)).map_err(|e| e.to_string())?;

    println!(
        "chaos workload: {} packets, seed {seed}, faults \"{spec}\" \
         ({} delivered, {} dropped, {} reordered, {} parse errors)",
        report.packets, report.delivered, report.dropped, report.reordered, report.parse_errors
    );
    println!(
        "{:<18} {:>9} {:>9} {:>7} {:>9} {:>5} {:>5} {:>5} {:>5}",
        "fault class", "injected", "delivered", "parse", "degraded", "p50", "p90", "p99", "max"
    );
    for o in &report.by_class {
        println!(
            "{:<18} {:>9} {:>9} {:>7} {:>9} {:>5} {:>5} {:>5} {:>5}",
            o.class.label(),
            o.injected,
            o.delivered,
            o.parse_errors,
            o.degraded,
            o.overhead_p50,
            o.overhead_p90,
            o.overhead_p99,
            o.overhead_max,
        );
    }
    println!(
        "soundness: {} divergences over {} delivered packets; accounting parity: {}",
        report.divergences,
        report.delivered,
        if report.stats_parity { "OK" } else { "BROKEN" }
    );
    println!(
        "churn leg: {} (caught panics: {})",
        if report.churn_survived { "survived" } else { "DID NOT SURVIVE" },
        report.churn.reader_panics.len(),
    );

    if let Some(path) = flags.text("--json") {
        let by_class = report
            .by_class
            .iter()
            .map(|o| {
                let mut row = Report::default();
                row.text("class", o.class.label())
                    .seeded("injected", o.injected)
                    .seeded("delivered", o.delivered)
                    .seeded("parse_errors", o.parse_errors)
                    .seeded("degraded", o.degraded)
                    .seeded("overhead_p50", o.overhead_p50)
                    .seeded("overhead_p90", o.overhead_p90)
                    .seeded("overhead_p99", o.overhead_p99)
                    .seeded("overhead_max", o.overhead_max)
                    .seeded("overhead_mean", Num::fixed(o.overhead_mean, 3));
                row
            })
            .collect();
        let mut bench = Report::default();
        bench
            .seeded("packets", report.packets)
            .seeded("seed", seed)
            .text("faults", spec)
            .seeded("delivered", report.delivered)
            .seeded("dropped", report.dropped)
            .seeded("reordered", report.reordered)
            .seeded("parse_errors", report.parse_errors)
            .seeded("divergences", report.divergences)
            .flag("stats_parity", report.stats_parity)
            .seeded("reader_panics", report.churn.reader_panics.len())
            .flag("churn_survived", report.churn_survived)
            .flag("checked", check)
            .flag("sound", report.sound())
            .rows("by_class", by_class);
        bench.write(path)?;
    }

    if check && !report.sound() {
        return Err(format!(
            "chaos check failed: {} divergences, parity {}, churn survived {} \
             (first divergences: {:?})",
            report.divergences, report.stats_parity, report.churn_survived,
            report.divergence_samples,
        ));
    }
    Ok(())
}

/// Fleet-scale topology simulator with clue-coverage analytics: builds
/// an internet-like topology with every router a stride-compiled
/// engine bundle behind an epoch cell, routes ECMP flows with Zipf
/// destination locality over the shared-nothing runtime, and reports
/// per-link clue outcome rates and per-hop memory-reference savings
/// against a clue-less baseline. `--churn` adds the live leg: origin
/// re-advertisements republished fleet-wide while serving workers keep
/// routing. `--check` proves the sharded run bit-identical to the
/// sequential reference at 1/2/4/8 workers.
fn fleet(args: &[String]) -> Result<(), String> {
    let flags = Flags::read(
        args,
        ["flows", "seed"],
        &[
            "--routers", "--topology", "--origins", "--participation", "--threads", "--churn",
            "--adversaries", "--attack", "--json", "--serve",
        ],
        &["--check"],
    )?;
    let flows = flags.count("flows", 20_000, 1)?;
    let seed = flags.get("seed", 1u64)?;
    let routers = flags.count("--routers", 1_024, 2)?;
    let topo_label = flags.text("--topology").unwrap_or("transit-stub");
    let topology = match topo_label {
        "transit-stub" => clue_netsim::TopologyKind::TransitStub,
        "preferential" => clue_netsim::TopologyKind::Preferential,
        other => return Err(format!("unknown topology {other:?} (transit-stub | preferential)")),
    };
    let origins = flags.count("--origins", 0, 1)?;
    let participation = flags.get("--participation", 1.0f64)?;
    if !(0.0..=1.0).contains(&participation) {
        return Err("--participation must be in 0..=1".to_owned());
    }
    let threads = flags.count("--threads", clue_netsim::available_workers(), 1)?;
    let churn_events = flags.count("--churn", 0, 1)?;
    let adversaries = flags.count("--adversaries", 0, 1)?;
    let attack = match flags.text("--attack") {
        None => clue_netsim::AttackProfile::Lying,
        Some(label) => clue_netsim::AttackProfile::parse(label)
            .ok_or_else(|| format!("unknown attack {label:?} (lying | flooding | oscillating)"))?,
    };
    let check = flags.switch("--check");

    let registry = Arc::new(Registry::new());
    let telemetry = clue_netsim::FleetTelemetry::registered(&registry);
    let _server = start_scrape(flags.text("--serve"), &registry)?;

    let mut config = clue_netsim::FleetConfig::new(routers, seed);
    config.topology = topology;
    config.participation = participation;
    if origins > 0 {
        config.origins = origins;
    }
    if adversaries > 0 && config.engine.method != Method::Simple {
        // The adversarial trust boundary: Method::Advance trusts the
        // clue epoch, so it is only sound for clues drawn from the
        // sender table it was precomputed against. An adversarial run
        // must use the method that is sound for ANY clue.
        config.engine.method = Method::Simple;
        println!("adversarial run: engine method forced to simple (sound for any clue)");
    }

    let t0 = std::time::Instant::now();
    let fleet = clue_netsim::Fleet::build(config).map_err(|e| format!("fleet build: {e:?}"))?;
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    telemetry.record_topology(&fleet);
    println!(
        "fleet: {} routers, {} links ({} directed), {} origins, {topo_label} topology, \
         built in {build_ms:.0} ms",
        fleet.router_count(),
        fleet.link_count(),
        fleet.directed_link_count(),
        fleet.origin_routers().len(),
    );
    let memory = fleet.memory();
    let mb = |bytes: u64| bytes as f64 / 1e6;
    println!(
        "engines: {:.2} MB = {:.2} MB router arenas + {:.2} MB per-link Claim-1 arrays \
         + {:.2} MB clue buckets + {:.2} MB tag codes",
        mb(memory.total()),
        mb(memory.arena),
        mb(memory.link),
        mb(memory.buckets),
        mb(memory.codes),
    );

    let run = fleet.run_flows(flows, threads);
    let stats = &run.stats;
    let route_ms = run.elapsed_ns as f64 / 1e6;
    let flows_pps = flows as f64 / (run.elapsed_ns.max(1) as f64 / 1e9);

    if check {
        let reference = fleet.run_flows_sequential(flows);
        for workers in [1usize, 2, 4, 8] {
            let sharded = fleet.run_flows(flows, workers);
            if sharded.stats != reference {
                return Err(format!(
                    "fleet check failed: {workers}-worker run diverged from the \
                     sequential reference"
                ));
            }
        }
        if *stats != reference {
            return Err(format!(
                "fleet check failed: {threads}-worker run diverged from the \
                 sequential reference"
            ));
        }
        println!("determinism check: sequential == 1/2/4/8 workers (bit-identical)");
    }

    let clued = stats.link_hits() + stats.link_problematic() + stats.link_misses();
    println!(
        "flows: {} routed x{threads} in {route_ms:.0} ms ({flows_pps:.0} flows/s), \
         {} delivered, {} dropped, {} hops ({} clued)",
        stats.flows, stats.delivered, stats.dropped, stats.hops, stats.clue_hops,
    );
    if clued > 0 {
        println!(
            "clue outcomes: {} hits ({:.1}%), {} problematic ({:.1}%), {} misses ({:.1}%), \
             {} clueless link crossings",
            stats.link_hits(),
            stats.link_hits() as f64 * 100.0 / clued as f64,
            stats.link_problematic(),
            stats.link_problematic() as f64 * 100.0 / clued as f64,
            stats.link_misses(),
            stats.link_misses() as f64 * 100.0 / clued as f64,
            stats.link_clueless(),
        );
    }
    println!(
        "memory references: {} with clues vs {} baseline -> {:.1}% saved end to end",
        stats.clue_refs,
        stats.baseline_refs,
        stats.savings() * 100.0,
    );
    for (pos, h) in stats.per_hop.iter().take(8).enumerate() {
        println!(
            "  hop {pos}: {:>9} lookups, {:>6.2} refs/lookup vs {:>6.2} baseline \
             ({:>5.1}% saved)",
            h.hops,
            h.clue_refs as f64 / h.hops.max(1) as f64,
            h.base_refs as f64 / h.hops.max(1) as f64,
            h.savings() * 100.0,
        );
    }

    let churn_report = if churn_events > 0 {
        let mut churn_config = clue_netsim::FleetChurnConfig::new(seed ^ 0xC4A1);
        churn_config.events = churn_events;
        churn_config.workers = threads.min(4);
        let report = fleet.run_churn(&churn_config);
        println!(
            "churn: {} events, {} bundles republished ({} reclaimed) in {:.0} ms; \
             served {} flows live, max staleness {} epochs, {} stale-snapshot hops",
            report.events,
            report.republished,
            report.reclaimed,
            report.rebuild_ns as f64 / 1e6,
            report.stats.flows,
            report.stats.max_staleness,
            report.stats.lagged_hops,
        );
        Some(report)
    } else {
        None
    };

    let adversarial = if adversaries > 0 {
        let adversary_telemetry = clue_netsim::AdversaryTelemetry::registered(&registry);
        let reputation_telemetry = clue_netsim::ReputationTelemetry::registered(&registry);
        let degradation_telemetry = clue_netsim::DegradationTelemetry::registered(
            &registry,
            &[clue_netsim::FaultClass::LyingNeighbor, clue_netsim::FaultClass::AdversarialClue],
        );
        let adv_config = clue_netsim::FleetAdversaryConfig::new(attack, adversaries);
        let t0 = std::time::Instant::now();
        let report = fleet.run_adversarial(
            &adv_config,
            Some(&adversary_telemetry),
            Some(&reputation_telemetry),
            Some(&degradation_telemetry),
        );
        let adversary_ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "adversary: {} {} routers for {}/{} rounds in {adversary_ms:.0} ms; \
             soundness bound held: {} (overhead max {}, {} divergences, {} violations)",
            report.adversaries.len(),
            report.attack.label(),
            adv_config.attack_rounds,
            adv_config.rounds,
            report.sound(),
            report.overhead_max(),
            report.divergences,
            report.bound_violations,
        );
        println!(
            "reputation: quarantine at round {}, re-admission by round {} \
             ({} quarantines, {} probations, {} readmissions)",
            report.quarantine_round.map_or_else(|| "-".to_owned(), |q| q.to_string()),
            report.readmit_round.map_or_else(|| "-".to_owned(), |r| r.to_string()),
            report.quarantines,
            report.probations,
            report.readmissions,
        );
        println!(
            "savings: final window {:.1}% vs honest fleet {:.1}%",
            report.final_savings() * 100.0,
            report.honest_final_savings() * 100.0,
        );

        // The partial-deployment sweep runs on a smaller fleet: five
        // participation steps, each a fresh build plus a full
        // adversarial run, is the expensive part of the leg.
        let mut sweep_base = clue_netsim::FleetConfig::new(routers.min(256), seed);
        sweep_base.topology = topology;
        let mut sweep_adv = adv_config;
        sweep_adv.rounds = 8;
        sweep_adv.attack_rounds = 3;
        sweep_adv.flows_per_round = 500;
        sweep_adv.window = 3;
        let steps = [0.0, 0.25, 0.5, 0.75, 1.0];
        let t0 = std::time::Instant::now();
        let sweep = clue_netsim::participation_sweep(&sweep_base, &sweep_adv, &steps)
            .map_err(|e| format!("sweep fleet build: {e:?}"))?;
        let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "participation sweep ({} routers, {} adversaries, {sweep_ms:.0} ms):",
            sweep_base.routers, sweep_adv.adversaries,
        );
        for p in &sweep {
            println!(
                "  {:>3.0}% deployed: honest {:>5.1}% saved, attacked {:>5.1}%, \
                 final {:>5.1}%, worst overhead {}, quarantine round {}",
                p.participation * 100.0,
                p.honest_savings * 100.0,
                p.attacked_savings * 100.0,
                p.final_savings * 100.0,
                p.worst_overhead,
                p.quarantine_round.map_or_else(|| "-".to_owned(), |q| q.to_string()),
            );
        }

        if check {
            if !report.sound() {
                return Err(format!(
                    "adversary check failed: {} divergences, {} bound violations",
                    report.divergences, report.bound_violations,
                ));
            }
            let q = report
                .quarantine_round
                .ok_or("adversary check failed: quarantine never engaged")?;
            if q > 3 {
                return Err(format!(
                    "adversary check failed: quarantine engaged at round {q}, window is 3"
                ));
            }
            if report.readmit_round.is_none() {
                return Err(
                    "adversary check failed: quarantined links never re-admitted".to_owned()
                );
            }
            if !report.reconverged(0.05) {
                return Err(format!(
                    "adversary check failed: final savings {:.4} vs honest {:.4} \
                     differ by more than 5%",
                    report.final_savings(),
                    report.honest_final_savings(),
                ));
            }
            if let Some(bad) = sweep.iter().find(|p| !p.sound || p.worst_overhead > 1) {
                return Err(format!(
                    "adversary check failed: sweep point at participation {} broke the \
                     bound (sound {}, worst overhead {})",
                    bad.participation, bad.sound, bad.worst_overhead,
                ));
            }
            println!(
                "adversary check: bound held on every packet, quarantine within window, \
                 savings reconverged to honest fleet"
            );
        }
        Some((adv_config, report, sweep, adversary_ms, sweep_ms))
    } else {
        None
    };

    telemetry.record_run(&fleet, stats, churn_report.as_ref());

    if let Some(path) = flags.text("--json") {
        let mut bench = Report::default();
        bench
            .seeded("routers", fleet.router_count())
            .seeded("links", fleet.link_count())
            .seeded("directed_links", fleet.directed_link_count())
            .seeded("origins", fleet.origin_routers().len())
            .text("topology", topo_label)
            .seeded("flows", stats.flows)
            .seeded("seed", seed)
            .seeded("participation", participation)
            .seeded("delivered", stats.delivered)
            .seeded("dropped", stats.dropped)
            .seeded("hops", stats.hops)
            .seeded("clue_hops", stats.clue_hops)
            .seeded("link_hits", stats.link_hits())
            .seeded("link_problematic", stats.link_problematic())
            .seeded("link_misses", stats.link_misses())
            .seeded("link_clueless", stats.link_clueless())
            .seeded("clue_refs", stats.clue_refs)
            .seeded("baseline_refs", stats.baseline_refs)
            .seeded("savings", Num::fixed(stats.savings(), 4))
            .flag("checked", check)
            .seeded("engine_arena_bytes", memory.arena)
            .seeded("engine_link_bytes", memory.link)
            .seeded("engine_bucket_bytes", memory.buckets)
            .timing("build_ms", Num::fixed(build_ms, 1))
            .timing("route_ms", Num::fixed(route_ms, 1))
            .timing("flows_pps", Num::fixed(flows_pps, 0));
        // The live churn leg's staleness and served counts depend on
        // how the serving workers interleave with the republisher.
        if let Some(c) = &churn_report {
            bench
                .seeded("churn_events", c.events)
                .seeded("churn_republished", c.republished)
                .seeded("churn_reclaimed", c.reclaimed)
                .timing("churn_rebuild_ms", Num::fixed(c.rebuild_ns as f64 / 1e6, 1))
                .timing("churn_max_staleness", c.stats.max_staleness)
                .timing("churn_stale_hops", c.stats.lagged_hops)
                .timing("churn_served_lookups_total", c.stats.flows);
        }
        if let Some((cfg, report, sweep, adversary_ms, sweep_ms)) = &adversarial {
            let sweep = sweep
                .iter()
                .map(|p| {
                    let mut row = Report::default();
                    row.seeded("participation", p.participation)
                        .seeded("honest_savings", Num::fixed(p.honest_savings, 4))
                        .seeded("attacked_savings", Num::fixed(p.attacked_savings, 4))
                        .seeded("final_savings", Num::fixed(p.final_savings, 4))
                        .seeded("worst_overhead", p.worst_overhead)
                        .seeded("quarantine_round", p.quarantine_round)
                        .flag("sound", p.sound);
                    row
                })
                .collect();
            bench
                .text("attack", report.attack.label())
                .seeded("adversaries", report.adversaries.len())
                .seeded("adversary_rounds", cfg.rounds)
                .seeded("attack_rounds", cfg.attack_rounds)
                .flag("sound", report.sound())
                .seeded("adversary_divergences", report.divergences)
                .seeded("adversary_bound_violations", report.bound_violations)
                .seeded("adversary_overhead_max", report.overhead_max())
                .seeded("quarantine_round", report.quarantine_round)
                .seeded("readmit_round", report.readmit_round)
                .seeded("quarantines", report.quarantines)
                .seeded("probations", report.probations)
                .seeded("readmissions", report.readmissions)
                .seeded("final_savings", Num::fixed(report.final_savings(), 4))
                .seeded("honest_final_savings", Num::fixed(report.honest_final_savings(), 4))
                .timing("adversary_ms", Num::fixed(*adversary_ms, 1))
                .timing("sweep_ms", Num::fixed(*sweep_ms, 1))
                .rows("sweep", sweep);
        }
        let per_hop = stats
            .per_hop
            .iter()
            .enumerate()
            .map(|(pos, h)| {
                let mut row = Report::default();
                row.seeded("hop", pos)
                    .seeded("lookups", h.hops)
                    .seeded("clue_refs", h.clue_refs)
                    .seeded("base_refs", h.base_refs)
                    .seeded("savings", Num::fixed(h.savings(), 4));
                row
            })
            .collect();
        bench.rows("per_hop", per_hop);
        bench.write(path)?;
    }
    println!("checked: {check}\ndropped: {}", stats.dropped);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// Reads an export back, checking that it flattens and that every
    /// leaf name in its `timing` list names a number it wrote (`null`
    /// being an undefined one).
    fn read_export(path: &std::path::Path) -> String {
        let text = std::fs::read_to_string(path).unwrap();
        let flat = flatten_json(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        for name in timing_leaves(&flat) {
            assert!(
                flat.iter().any(|(k, v)| !k.starts_with("timing.")
                    && leaf(k) == name
                    && matches!(v, JsonVal::Num(_) | JsonVal::Null)),
                "timing {name:?} names no number: {text}"
            );
        }
        text
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn missing_arguments_are_errors() {
        assert!(run(&s(&["stats"])).is_err());
        assert!(run(&s(&["pair", "only-one"])).is_err());
        assert!(run(&s(&["lookup", "table"])).is_err());
        assert!(run(&s(&["synth"])).is_err());
    }

    #[test]
    fn synth_and_stats_roundtrip() {
        let dir = std::env::temp_dir().join("clue-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.txt");
        std::fs::write(&path, format_prefixes(&synthesize_ipv4(100, 1))).unwrap();
        let p = path.to_str().unwrap().to_owned();
        run(&s(&["stats", &p])).unwrap();
        run(&s(&["lookup", &p, "10.1.2.3"])).unwrap();
    }

    #[test]
    fn pair_runs_on_small_tables() {
        let dir = std::env::temp_dir().join("clue-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.txt");
        let b = dir.join("b.txt");
        let base = synthesize_ipv4(150, 2);
        std::fs::write(&a, format_prefixes(&base)).unwrap();
        let nb = clue_tablegen::derive_neighbor(
            &base,
            &clue_tablegen::NeighborConfig::same_isp(3),
        );
        std::fs::write(&b, format_prefixes(&nb)).unwrap();
        run(&s(&[
            "pair",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "200",
        ]))
        .unwrap();
    }

    #[test]
    fn minimize_runs_on_a_table_file() {
        let dir = std::env::temp_dir().join("clue-cli-test4");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.txt");
        std::fs::write(&path, "10.0.0.0/8 a
10.1.0.0/16 a
10.2.0.0/16 b
").unwrap();
        run(&s(&["minimize", path.to_str().unwrap()])).unwrap();
        assert!(run(&s(&["minimize"])).is_err());
    }

    /// The scrape contract: every series `clue metrics` exports, with
    /// its `# HELP` text and `# TYPE`, equals the committed list. A
    /// renamed, dropped, added or re-described series fails here;
    /// change `metrics_schema.txt` with the schema, on purpose.
    #[test]
    fn metrics_schema_matches_the_committed_list() {
        let prom = metrics_registry(200, 3).unwrap().to_prometheus();
        let schema: Vec<&str> = prom.lines().filter(|l| l.starts_with("# ")).collect();
        let committed: Vec<&str> = include_str!("metrics_schema.txt").lines().collect();
        for (i, (got, want)) in schema.iter().zip(&committed).enumerate() {
            assert_eq!(got, want, "line {} of metrics_schema.txt", i + 1);
        }
        assert_eq!(schema.len(), committed.len(), "series count");
    }

    #[test]
    fn metrics_runs_and_validates_args() {
        run(&s(&["metrics", "200", "3"])).unwrap();
        run(&s(&["metrics", "200", "3", "--json"])).unwrap();
        assert!(run(&s(&["metrics", "not-a-number"])).is_err());
        assert!(run(&s(&["metrics", "--prom", "--json"])).is_err());
        assert!(run(&s(&["metrics", "1", "2", "3"])).is_err());
    }

    #[test]
    fn throughput_runs_checks_and_exports() {
        let dir = std::env::temp_dir().join("clue-cli-test5");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("bench.json");
        let j = json.to_str().unwrap().to_owned();
        run(&s(&[
            "throughput", "300", "3", "--threads", "2", "--table", "900", "--stride", "10",
            "--prefetch", "4", "--check", "--json", &j,
        ]))
        .unwrap();
        let text = read_export(&json);
        assert!(text.contains("\"equivalent\": true"), "bad export: {text}");
        assert!(text.contains("\"threads\": 2"));
        assert!(text.contains("\"table\": 900"));
        assert!(text.contains("\"stride_bits\": 10"));
        assert!(text.contains("\"prefetch_group\": 4"));
        assert!(text.contains("\"stride_pps\""));
        assert!(text.contains("\"freeze_ms\""));
        // Prefetch off (group 1) must still check out — interleave is
        // a latency knob, not a semantic one.
        run(&s(&["throughput", "200", "3", "--table", "600", "--prefetch", "1", "--check"]))
            .unwrap();
        assert!(run(&s(&["throughput", "--table", "0"])).is_err());
        assert!(run(&s(&["throughput", "--table"])).is_err());
        assert!(run(&s(&["throughput", "0"])).is_err());
        assert!(run(&s(&["throughput", "--threads", "0"])).is_err());
        assert!(run(&s(&["throughput", "--threads"])).is_err());
        assert!(run(&s(&["throughput", "--stride", "0"])).is_err());
        assert!(run(&s(&["throughput", "--stride", "32"])).is_err());
        assert!(run(&s(&["throughput", "--stride"])).is_err());
        assert!(run(&s(&["throughput", "--prefetch"])).is_err());
        assert!(run(&s(&["throughput", "1", "2", "3"])).is_err());
    }

    #[test]
    fn throughput_backend_matrix_runs_checks_and_exports() {
        let dir = std::env::temp_dir().join("clue-cli-test11");
        std::fs::create_dir_all(&dir).unwrap();
        for backend in ["frozen", "stride", "compressed"] {
            let json = dir.join(format!("{backend}.json"));
            let j = json.to_str().unwrap().to_owned();
            run(&s(&[
                "throughput", "300", "3", "--table", "900", "--backend", backend, "--check",
                "--json", &j,
            ]))
            .unwrap();
            let text = read_export(&json);
            assert!(text.contains("\"equivalent\": true"), "bad export: {text}");
            assert!(text.contains(&format!("\"backend\": \"{backend}\"")));
            assert!(text.contains(&format!("\"{backend}_pps\"")));
            assert!(text.contains(&format!("\"{backend}_bytes_per_prefix\"")));
            assert!(text.contains(&format!("\"cram_{backend}_arena_bytes\"")));
            assert!(text.contains(&format!("\"cram_{backend}_l1_miss\"")));
            // No network legs in matrix mode.
            assert!(!text.contains("\"parallel_pps\""), "bad export: {text}");
        }
        assert!(run(&s(&["throughput", "--backend", "planb"])).is_err());
        assert!(run(&s(&["throughput", "--backend"])).is_err());
        assert!(run(&s(&["throughput", "--backend", "frozen", "--runtime"])).is_err());
    }

    #[test]
    fn default_throughput_exports_cram_blocks_for_every_backend() {
        let dir = std::env::temp_dir().join("clue-cli-test12");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("bench.json");
        let j = json.to_str().unwrap().to_owned();
        run(&s(&["throughput", "250", "3", "--threads", "2", "--table", "800", "--json", &j]))
            .unwrap();
        let text = read_export(&json);
        for backend in ["frozen", "stride", "compressed"] {
            assert!(text.contains(&format!("\"{backend}_bytes_per_prefix\"")), "{text}");
            assert!(text.contains(&format!("\"cram_{backend}_expected_refs\"")), "{text}");
        }
        assert!(text.contains("\"compressed_pps\""));
        assert!(text.contains("\"parallel_pps\""));
    }

    #[test]
    fn synth_modern_emits_a_modern_table() {
        let dir = std::env::temp_dir().join("clue-cli-test13");
        std::fs::create_dir_all(&dir).unwrap();
        run(&s(&["synth", "500", "7", "--modern"])).unwrap();
        assert!(run(&s(&["synth", "500", "7", "--modern", "extra"])).is_err());
        // Modern output differs from the 1999 preset at the same seed.
        assert_ne!(
            clue_tablegen::synthesize_ipv4_modern(500, 7),
            clue_tablegen::synthesize_ipv4(500, 7)
        );
    }

    #[test]
    fn churn_runs_checks_and_exports() {
        let dir = std::env::temp_dir().join("clue-cli-test6");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("churn.json");
        let j = json.to_str().unwrap().to_owned();
        run(&s(&["churn", "150", "3", "--readers", "2", "--check", "--json", &j])).unwrap();
        let text = read_export(&json);
        assert!(text.contains("\"identical\": true"), "bad export: {text}");
        assert!(text.contains("\"checked\": true"));
        assert!(text.contains("\"readers\": 2"));
        assert!(run(&s(&["churn", "0"])).is_err());
        assert!(run(&s(&["churn", "--readers", "0"])).is_err());
        assert!(run(&s(&["churn", "--readers"])).is_err());
        assert!(run(&s(&["churn", "1", "2", "3"])).is_err());
        assert!(run(&s(&["churn", "not-a-number"])).is_err());
    }

    #[test]
    fn chaos_runs_checks_and_exports() {
        let dir = std::env::temp_dir().join("clue-cli-test7");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("chaos.json");
        let j = json.to_str().unwrap().to_owned();
        run(&s(&["chaos", "800", "3", "--check", "--json", &j])).unwrap();
        let text = read_export(&json);
        assert!(text.contains("\"divergences\": 0"), "bad export: {text}");
        assert!(text.contains("\"churn_survived\": true"), "bad export: {text}");
        assert!(text.contains("\"sound\": true"));
        assert!(text.contains("\"class\": \"adversarial_clue\""));
        run(&s(&["chaos", "400", "3", "--faults", "stale_clue,dropped"])).unwrap();
        assert!(run(&s(&["chaos", "0"])).is_err());
        assert!(run(&s(&["chaos", "--faults", "gremlins"])).is_err());
        assert!(run(&s(&["chaos", "--faults"])).is_err());
        assert!(run(&s(&["chaos", "1", "2", "3"])).is_err());
    }

    #[test]
    fn fleet_runs_checks_and_exports() {
        let dir = std::env::temp_dir().join("clue-cli-test10");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("fleet.json");
        let j = json.to_str().unwrap().to_owned();
        run(&s(&[
            "fleet", "400", "3", "--routers", "72", "--origins", "8", "--threads", "2",
            "--churn", "2", "--check", "--json", &j,
        ]))
        .unwrap();
        let text = read_export(&json);
        assert!(text.contains("\"checked\": true"), "bad export: {text}");
        assert!(text.contains("\"dropped\": 0"), "bad export: {text}");
        assert!(text.contains("\"topology\": \"transit-stub\""));
        assert!(text.contains("\"savings\""));
        assert!(text.contains("\"link_hits\""));
        assert!(text.contains("\"per_hop\""));
        assert!(text.contains("\"flows_pps\""));
        assert!(text.contains("\"churn_events\": 2"));
        assert!(text.contains("\"churn_rebuild_ms\""));
        // The adversarial export.
        run(&s(&[
            "fleet", "400", "3", "--routers", "72", "--origins", "8", "--threads", "2",
            "--adversaries", "2", "--check", "--json", &j,
        ]))
        .unwrap();
        let text = read_export(&json);
        assert!(text.contains("\"sound\": true"), "bad export: {text}");
        assert!(text.contains("\"adversary_bound_violations\": 0"), "bad export: {text}");
        assert!(text.contains("\"sweep\""));
        run(&s(&["fleet", "200", "3", "--routers", "48", "--topology", "preferential"])).unwrap();
        assert!(run(&s(&["fleet", "0"])).is_err());
        assert!(run(&s(&["fleet", "--routers", "1"])).is_err());
        assert!(run(&s(&["fleet", "--routers"])).is_err());
        assert!(run(&s(&["fleet", "--topology", "torus"])).is_err());
        assert!(run(&s(&["fleet", "--threads", "0"])).is_err());
        assert!(run(&s(&["fleet", "--participation", "1.5"])).is_err());
        assert!(run(&s(&["fleet", "--origins", "0"])).is_err());
        assert!(run(&s(&["fleet", "--churn", "0"])).is_err());
        assert!(run(&s(&["fleet", "1", "2", "3"])).is_err());
    }

    #[test]
    fn profile_runs_checks_and_exports() {
        let dir = std::env::temp_dir().join("clue-cli-test8");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("profile.json");
        let j = json.to_str().unwrap().to_owned();
        run(&s(&[
            "profile", "400", "3", "--table", "900", "--stride", "10", "--check", "--json", &j,
        ]))
        .unwrap();
        let text = read_export(&json);
        assert!(text.contains("\"inert\": true"), "bad export: {text}");
        assert!(text.contains("\"checked\": true"));
        for path in ["scalar", "frozen", "stride", "network"] {
            assert!(text.contains(&format!("\"{path}\"")), "missing path {path}: {text}");
        }
        assert!(text.contains("\"clue_probe\""));
        assert!(text.contains("\"ns_p50\""));
        assert!(text.contains("\"cost_time_correlation\""));
        assert!(run(&s(&["profile", "0"])).is_err());
        assert!(run(&s(&["profile", "--table", "0"])).is_err());
        assert!(run(&s(&["profile", "--stride"])).is_err());
        assert!(run(&s(&["profile", "--serve"])).is_err());
        assert!(run(&s(&["profile", "1", "2", "3"])).is_err());
    }

    #[test]
    fn bench_diff_compares_exports() {
        let dir = std::env::temp_dir().join("clue-cli-test9");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        std::fs::write(
            &a,
            "{\"packets\": 100, \"scalar_pps\": 1000.0, \"per_core_pps\": [500.0, 500.0], \
             \"equivalent\": true, \"corr\": null, \"timing\": [\"scalar_pps\", \"per_core_pps\"]}\n",
        )
        .unwrap();
        std::fs::write(
            &b,
            "{\"packets\": 100, \"scalar_pps\": 1400.0, \"per_core_pps\": [500.0, 700.0], \
             \"equivalent\": true, \"corr\": 0.5, \"extra\": 1, \
             \"timing\": [\"scalar_pps\", \"per_core_pps\"]}\n",
        )
        .unwrap();
        let (pa, pb) = (a.to_str().unwrap().to_owned(), b.to_str().unwrap().to_owned());
        // The baseline declares both pps keys timings (an array element
        // by its array's name): a 40% drift sits inside the default
        // 100% time tolerance, and null is a wildcard.
        assert_eq!(leaf("per_core_pps.1"), "per_core_pps");
        run(&s(&["bench-diff", &pa, &pb])).unwrap();
        // A tight time tolerance trips on the same drift.
        assert!(run(&s(&["bench-diff", &pa, &pb, "--time-tolerance", "10"])).is_err());
        // A baseline key missing from the fresh run fails regardless.
        std::fs::write(&b, "{\"packets\": 100}\n").unwrap();
        assert!(run(&s(&["bench-diff", &pa, &pb, "--time-tolerance", "1e9"])).is_err());
        // Booleans compare exactly, no tolerance.
        std::fs::write(
            &b,
            "{\"packets\": 100, \"scalar_pps\": 1000.0, \"per_core_pps\": [500.0, 500.0], \
             \"equivalent\": false, \"corr\": null, \"timing\": [\"scalar_pps\", \"per_core_pps\"]}\n",
        )
        .unwrap();
        assert!(run(&s(&["bench-diff", &pa, &pb])).is_err());
        assert!(run(&s(&["bench-diff", &pa])).is_err());
        assert!(run(&s(&["bench-diff", &pa, "/nonexistent/x.json"])).is_err());
        assert!(run(&s(&["bench-diff", &pa, &pb, "--tolerance"])).is_err());
    }

    /// Writes `baseline`, then diffs each fresh export against it under
    /// verify.sh's flags for its zero-tolerance legs.
    fn strict_diff(dir: &str, baseline: &str) -> impl Fn(&str) -> Result<(), String> {
        let dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(&a, baseline).unwrap();
        move |fresh| {
            std::fs::write(&b, fresh).unwrap();
            let (pa, pb) = (a.to_str().unwrap(), b.to_str().unwrap());
            run(&s(&["bench-diff", pa, pb, "--tolerance", "0", "--time-tolerance", "100000"]))
        }
    }

    #[test]
    fn seeded_counts_get_no_timing_tolerance() {
        let export = |panics: u32, reclaimed: u32, freeze_ms: f64, rebuild_us: f64| {
            format!(
                "{{\"reader_panics\": {panics}, \"churn_reclaimed\": {reclaimed}, \
                 \"freeze_ms\": {freeze_ms}, \"mean_rebuild_us\": {rebuild_us}, \
                 \"timing\": [\"freeze_ms\", \"mean_rebuild_us\"]}}\n"
            )
        };
        let verify = strict_diff("clue-cli-test9b", &export(1, 52, 5.3, 4002.2));
        // The chaos and fleet counts are not declared timings: any drift
        // fails.
        assert!(verify(&export(2, 52, 5.3, 4002.2)).is_err());
        assert!(verify(&export(1, 43, 5.3, 4002.2)).is_err());
        // The declared freeze and rebuild timings get the timing
        // tolerance.
        verify(&export(1, 52, 50.0, 9.5)).unwrap();
    }

    #[test]
    fn a_key_that_changes_class_fails() {
        let export = |timing: &str| {
            format!("{{\"packets\": 100, \"scalar_pps\": 1000.0, \"timing\": [{timing}]}}\n")
        };
        let verify = strict_diff("clue-cli-test9c", &export("\"scalar_pps\""));
        verify(&export("\"scalar_pps\"")).unwrap();
        // Same values, but a timing turned seeded or a seeded count
        // turned timing.
        assert!(verify(&export("")).is_err());
        assert!(verify(&export("\"scalar_pps\", \"packets\"")).is_err());
    }

    #[test]
    fn a_baseline_without_a_timing_list_is_strict() {
        let verify =
            strict_diff("clue-cli-test9d", "{\"scalar_pps\": 1000.0, \"freeze_ms\": 5.3}\n");
        verify("{\"scalar_pps\": 1000.0, \"freeze_ms\": 5.3}\n").unwrap();
        assert!(verify("{\"scalar_pps\": 1001.0, \"freeze_ms\": 5.3}\n").is_err());
        assert!(verify("{\"scalar_pps\": 1000.0, \"freeze_ms\": 5.4}\n").is_err());
    }

    #[test]
    fn drift_is_a_ratio_between_positive_numbers() {
        assert_eq!(drift_pct(100.0, 100.0), 0.0);
        assert!((drift_pct(100.0, 1000.0) - 900.0).abs() < 1e-9);
        assert!((drift_pct(1000.0, 100.0) - 900.0).abs() < 1e-9);
        assert!((drift_pct(1.0, 20.0) - 1900.0).abs() < 1e-9);
        assert!((drift_pct(0.0, 5.0) - 100.0).abs() < 1e-9);
        assert!((drift_pct(-1.0, 1.0) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn bench_diff_enforces_ceilings() {
        let dir = std::env::temp_dir().join("clue-cli-test14");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        std::fs::write(&a, "{\"compressed_bytes_per_prefix\": 3.5}\n").unwrap();
        std::fs::write(&b, "{\"compressed_bytes_per_prefix\": 3.6}\n").unwrap();
        let (pa, pb) = (a.to_str().unwrap().to_owned(), b.to_str().unwrap().to_owned());
        run(&s(&["bench-diff", &pa, &pb, "--max", "compressed_bytes_per_prefix=8"])).unwrap();
        // Above the ceiling fails even though the drift is in tolerance.
        assert!(run(&s(&[
            "bench-diff", &pa, &pb, "--max", "compressed_bytes_per_prefix=3.55"
        ]))
        .is_err());
        // A missing ceiling key fails.
        assert!(run(&s(&["bench-diff", &pa, &pb, "--max", "nonexistent=1"])).is_err());
        assert!(run(&s(&["bench-diff", &pa, &pb, "--max", "junk"])).is_err());
        assert!(run(&s(&["bench-diff", &pa, &pb, "--max"])).is_err());
    }

    #[test]
    fn serve_flag_wires_the_scrape_server() {
        // An ephemeral port proves the wiring end to end without
        // colliding with anything; the live-scrape protocol itself is
        // pinned by the telemetry server tests and the verify.sh smoke.
        run(&s(&["throughput", "200", "3", "--table", "600", "--serve", "127.0.0.1:0"]))
            .unwrap();
        run(&s(&["churn", "120", "3", "--readers", "2", "--serve", "127.0.0.1:0"])).unwrap();
        assert!(run(&s(&["churn", "120", "3", "--serve"])).is_err());
        assert!(run(&s(&["throughput", "100", "--serve", "not-an-addr"])).is_err());
    }

    #[test]
    fn lookup_rejects_malformed_clue() {
        let dir = std::env::temp_dir().join("clue-cli-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.txt");
        std::fs::write(&path, "10.0.0.0/8\n").unwrap();
        let p = path.to_str().unwrap().to_owned();
        assert!(run(&s(&["lookup", &p, "10.1.2.3", "20.0.0.0/8"])).is_err());
        assert!(run(&s(&["lookup", &p, "not-an-addr"])).is_err());
    }
}
