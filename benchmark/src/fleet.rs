//! `fleet-walk`: flows over a 1000+-router transit-stub fleet through
//! `Fleet::run_flows`.

use std::time::Instant;

use clue_netsim::{Fleet, FleetConfig, FleetStats};

use crate::stats::{closed_loop, describe, median, repeat_setup};
use crate::trace::Tracer;
use crate::{E2e, Layer, Run};

/// Target router count (the transit-stub generator rounds up).
const ROUTERS: usize = 1_000;
/// Flows per serving call.
const FLOWS: usize = 100_000;
/// Flows checked against the sequential walk.
const ORACLE_SAMPLE: usize = 5_000;

fn build(config: &FleetConfig, tracer: &Tracer) -> Fleet {
    tracer
        .span("netsim.fleet.build", 0, || Fleet::build(config.clone()))
        .expect("the default fleet compiles")
}

pub fn bench(seed: u64, runs: &[Run<'_>], layer: &mut Layer) -> Vec<E2e> {
    let config = FleetConfig::new(ROUTERS, seed);
    runs.iter()
        .map(|run| one_run(&config, run, layer))
        .collect()
}

fn one_run(config: &FleetConfig, run: &Run<'_>, layer: &mut Layer) -> E2e {
    let (tracer, cfg) = (run.tracer, &run.config);
    let (fleet, setups) = repeat_setup(cfg.setup_reps, cfg.setup_seconds, || build(config, tracer));

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<FleetStats> = None;
    let mut walls_ns = Vec::new();
    let n = FLOWS as u64;
    let rates = closed_loop(cfg.seconds, 3, true, || {
        let t = Instant::now();
        let report = tracer.span("netsim.fleet.run_flows", n, || {
            fleet.run_flows(FLOWS, cfg.workers)
        });
        let secs = t.elapsed().as_secs_f64();
        walls_ns.push(secs * 1e9);
        attempted += n;
        failed += report.stats.dropped;
        match &first {
            None => first = Some(report.stats),
            Some(f) if *f != report.stats => failed += n,
            Some(_) => {}
        }
        (n, secs)
    });
    let stats = first.expect("walked at least once");
    let oracle_ok = fleet.run_flows(ORACLE_SAMPLE, cfg.workers).stats
        == fleet.run_flows_sequential(ORACLE_SAMPLE);
    if !oracle_ok {
        failed += ORACLE_SAMPLE as u64;
    }
    println!("fleet-walk: ops/s per call: {}", describe(&rates));
    let e2e = E2e {
        setup_s: median(&setups).expect("set-up ran"),
        ops_per_s: median(&rates).expect("walked"),
        refs_per_packet: stats.clue_refs as f64 / stats.flows as f64,
        attempted,
        failed,
    };
    println!(
        "fleet-walk: {} routers, setup_s {:.4} flows/s {:.0} (median of {} calls) \
         refs_per_packet {:.4} savings {:.4} oracle {}",
        fleet.router_count(),
        e2e.setup_s,
        e2e.ops_per_s,
        rates.len(),
        e2e.refs_per_packet,
        stats.savings(),
        if oracle_ok { "ok" } else { "MISMATCH" }
    );

    if run.probe {
        let hops = stats.hops as f64;
        let clued = (stats.link_hits() + stats.link_problematic() + stats.link_misses()) as f64;
        layer.insert(
            "netsim.fleet.build_s",
            tracer
                .median_s("fleet-walk", "netsim.fleet.build")
                .unwrap_or(f64::NAN),
        );
        layer.insert(
            "netsim.fleet.ns_per_hop",
            median(&walls_ns).unwrap_or(f64::NAN) / hops,
        );
        layer.insert("netsim.fleet.hops_per_flow", hops / stats.flows as f64);
        layer.insert(
            "netsim.fleet.lookups_per_hop",
            (hops + stats.clue_hops as f64) / hops,
        );
        layer.insert(
            "netsim.fleet.clue_hit_ratio",
            stats.link_hits() as f64 / clued,
        );
        layer.insert(
            "netsim.fleet.problematic_ratio",
            stats.link_problematic() as f64 / clued,
        );
        layer.insert("netsim.fleet.savings", stats.savings());
    }
    e2e
}
