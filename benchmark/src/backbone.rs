//! `backbone-walk`: packets walking a 40-router backbone through the
//! multi-core runtime on its default (stride) backend.

use std::time::Instant;

use clue_core::{
    BackendKind, CompiledBackend, CompressedConfig, CompressedEngine, EngineConfig, FrozenEngine,
    Method, StrideConfig, StrideEngine,
};
use clue_lookup::Family;
use clue_netsim::{
    run_workload_per_packet, CompiledNetwork, Network, NetworkConfig, RouterId, RunStats,
    RuntimeConfig, RuntimeReport, StrideNetwork, Topology,
};
use clue_trie::Ip4;

use crate::stats::{closed_loop, describe, median};
use crate::trace::Tracer;
use crate::{CoreTotals, E2e, Layer, Run};

/// Packets per serving call.
const PACKETS: usize = 200_000;
/// Packets checked against the sequential per-packet walk.
const ORACLE_SAMPLE: usize = 5_000;

struct Inputs {
    topology: Topology,
    sources: Vec<RouterId>,
    config: NetworkConfig,
    packet_seed: u64,
}

fn generate_inputs(seed: u64) -> Inputs {
    let (topology, sources) = Topology::backbone(8, 4);
    let mut config = NetworkConfig::new(
        sources.clone(),
        EngineConfig::new(Family::Regular, Method::Advance),
    );
    config.seed = seed;
    Inputs {
        topology,
        sources,
        config,
        packet_seed: seed.wrapping_add(2),
    }
}

fn build(inputs: &Inputs, tracer: &Tracer) -> Network<Ip4> {
    tracer.span("netsim.network.build", 0, || {
        Network::build(inputs.topology.clone(), inputs.config.clone())
    })
}

fn compile<'n>(net: &'n Network<Ip4>, tracer: &Tracer) -> StrideNetwork<'n, Ip4> {
    tracer
        .span("netsim.runtime.compile", 0, || {
            StrideNetwork::freeze(net, StrideConfig::default())
        })
        .expect("the backbone's engines stride-compile")
}

pub fn bench(seed: u64, runs: &[Run<'_>], layer: &mut Layer) -> Vec<E2e> {
    let inputs = generate_inputs(seed);
    runs.iter()
        .map(|run| one_run(&inputs, run, layer))
        .collect()
}

fn one_run(inputs: &Inputs, run: &Run<'_>, layer: &mut Layer) -> E2e {
    let (tracer, cfg) = (run.tracer, &run.config);
    let mut setups = Vec::new();
    let started = Instant::now();
    while setups.len() + 1 < cfg.setup_reps || started.elapsed().as_secs_f64() < cfg.setup_seconds {
        let t0 = Instant::now();
        let net = build(inputs, tracer);
        drop(compile(&net, tracer));
        setups.push(t0.elapsed().as_secs_f64());
    }
    // The last set-up is split around the oracle walk, which needs the
    // live network mutably before the compiled view borrows it.
    let t0 = Instant::now();
    let mut net = build(inputs, tracer);
    let built = t0.elapsed().as_secs_f64();
    let reference =
        run_workload_per_packet(&mut net, &inputs.sources, ORACLE_SAMPLE, inputs.packet_seed);
    let t0 = Instant::now();
    let walk = compile(&net, tracer);
    setups.push(built + t0.elapsed().as_secs_f64());

    let runtime = RuntimeConfig::with_workers(cfg.workers);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<RunStats> = None;
    let mut reports: Vec<RuntimeReport> = Vec::new();
    let n = PACKETS as u64;
    let rates = closed_loop(cfg.seconds, 3, true, || {
        let t = Instant::now();
        let (stats, report) = tracer.span("netsim.runtime.run_workload_timed", n, || {
            walk.run_workload_timed(&inputs.sources, PACKETS, inputs.packet_seed, &runtime, None)
        });
        let secs = t.elapsed().as_secs_f64();
        attempted += n;
        failed += (stats.packets - stats.delivered) as u64;
        match &first {
            None => first = Some(stats),
            Some(f) if *f != stats => failed += n,
            Some(_) => {}
        }
        reports.push(report);
        (n, secs)
    });
    let stats = first.expect("walked at least once");
    let (sample, _) = walk.run_workload_timed(
        &inputs.sources,
        ORACLE_SAMPLE,
        inputs.packet_seed,
        &runtime,
        None,
    );
    let oracle_ok = sample == reference;
    if !oracle_ok {
        failed += ORACLE_SAMPLE as u64;
    }
    println!("backbone-walk: ops/s per call: {}", describe(&rates));
    let e2e = E2e {
        setup_s: median(&setups).expect("set-up ran"),
        ops_per_s: median(&rates).expect("walked"),
        refs_per_packet: stats.total_accesses as f64 / stats.packets as f64,
        attempted,
        failed,
    };
    println!(
        "backbone-walk: {} routers, setup_s {:.4} pps {:.0} (median of {} calls) \
         refs_per_packet {:.4} hops/packet {:.3} oracle {}",
        inputs.topology.len(),
        e2e.setup_s,
        e2e.ops_per_s,
        rates.len(),
        e2e.refs_per_packet,
        stats.total_hops as f64 / stats.packets as f64,
        if oracle_ok { "ok" } else { "MISMATCH" }
    );

    if run.probe {
        let w = "backbone-walk";
        layer.insert(
            "netsim.runtime.compile_s",
            tracer
                .median_s(w, "netsim.runtime.compile")
                .unwrap_or(f64::NAN),
        );
        let med = |f: &dyn Fn(&RuntimeReport) -> f64| {
            median(&reports.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        let totals = |r: &RuntimeReport| CoreTotals::of(&r.cores, r.elapsed_ns);
        layer.insert(
            "netsim.runtime.walk.busy_ratio",
            med(&|r| totals(r).busy_ratio),
        );
        layer.insert(
            "netsim.runtime.walk.backpressure_per_job",
            med(&|r| totals(r).backpressure_per_job),
        );
        let hops = stats.total_hops as f64;
        layer.insert(
            "netsim.runtime.ns_per_hop",
            med(&|r| totals(r).busy_ns / hops),
        );
        layer.insert(
            "netsim.runtime.hops_per_packet",
            hops / stats.packets as f64,
        );
        layer.insert(
            "netsim.runtime.clue_hop_ratio",
            stats.clue_hops as f64 / hops,
        );
        drop(walk);
        for kind in BackendKind::ALL {
            let (name, ns) = match kind {
                BackendKind::Frozen => (
                    "netsim.runtime.frozen.ns_per_hop",
                    walk_ns_per_hop::<FrozenEngine<Ip4>>(&net, &(), inputs, &stats, &runtime),
                ),
                BackendKind::Stride => (
                    "netsim.runtime.stride.ns_per_hop",
                    walk_ns_per_hop::<StrideEngine<Ip4>>(
                        &net,
                        &StrideConfig::default(),
                        inputs,
                        &stats,
                        &runtime,
                    ),
                ),
                BackendKind::Compressed => (
                    "netsim.runtime.compressed.ns_per_hop",
                    walk_ns_per_hop::<CompressedEngine<Ip4>>(
                        &net,
                        &CompressedConfig,
                        inputs,
                        &stats,
                        &runtime,
                    ),
                ),
            };
            layer.insert(name, ns);
        }
    }
    e2e
}

/// Busy nanoseconds per hop of the runtime walk on backend `E` (median
/// of five walks); its statistics must equal the default backend's.
fn walk_ns_per_hop<E: CompiledBackend<Ip4>>(
    net: &Network<Ip4>,
    config: &E::Config,
    inputs: &Inputs,
    expected: &RunStats,
    runtime: &RuntimeConfig,
) -> f64 {
    let walk = CompiledNetwork::<Ip4, E>::compile(net, config).expect("the backbone compiles");
    let per_hop: Vec<f64> = (0..5)
        .map(|_| {
            let (stats, report) = walk.run_workload_timed(
                &inputs.sources,
                PACKETS,
                inputs.packet_seed,
                runtime,
                None,
            );
            assert!(
                &stats == expected,
                "the {} walk disagrees with the stride walk",
                E::NAME
            );
            CoreTotals::of(&report.cores, report.elapsed_ns).busy_ns / stats.total_hops as f64
        })
        .collect();
    median(&per_hop).unwrap_or(f64::NAN)
}
