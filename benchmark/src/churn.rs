//! `bgp-churn`: a paper-scale sender/receiver pair takes a BGP-style
//! update stream through `run_churn` while one reader serves frozen
//! snapshots.

use std::hint::black_box;
use std::time::Instant;

use clue_core::{ClueEngine, Decision, EngineConfig, EpochEngine, Method};
use clue_lookup::Family;
use clue_netsim::{run_churn, ChurnDriverConfig, ChurnReport};
use clue_tablegen::{
    derive_neighbor, generate, generate_churn, synthesize_ipv4, ChurnConfig, NeighborConfig,
    RouteUpdate, TrafficConfig, UpdateKind,
};
use clue_trie::{BinaryTrie, Cost, Ip4, Prefix};

use crate::stats::{closed_loop, describe, median, quantile, repeat_setup};
use crate::trace::Tracer;
use crate::{E2e, Layer, Run};

/// Sender table size: the paper's Mae-East scale.
const TABLE: usize = 40_000;
/// Route updates in the stream one `run_churn` call applies.
const UPDATES: usize = 400;
/// Pin-and-drop pairs timed for `core.epoch.pin_ns`.
const PINS: u64 = 1_000_000;

struct Inputs {
    sender: Vec<Prefix<Ip4>>,
    receiver: Vec<Prefix<Ip4>>,
    batches: Vec<Vec<RouteUpdate<Ip4>>>,
    driver: ChurnDriverConfig,
    /// The reader's packet stream, drawn as the driver draws it.
    dests: Vec<Ip4>,
    clues: Vec<Option<Prefix<Ip4>>>,
}

fn generate_inputs(seed: u64) -> Inputs {
    let sender = synthesize_ipv4(TABLE, seed);
    let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(seed.wrapping_add(1)));
    let batches = generate_churn(&receiver, &ChurnConfig::bgp(UPDATES, seed.wrapping_add(2)));
    let driver = ChurnDriverConfig::new(1, seed.wrapping_add(3));
    let dests = generate(
        &sender,
        &receiver,
        &TrafficConfig {
            count: driver.traffic,
            ..TrafficConfig::paper(driver.seed)
        },
    );
    let t1: BinaryTrie<Ip4, ()> = sender.iter().map(|p| (*p, ())).collect();
    let clues = dests
        .iter()
        .map(|&d| t1.lookup_counted(d, &mut Cost::new()).map(|r| t1.prefix(r)))
        .collect();
    Inputs {
        sender,
        receiver,
        batches,
        driver,
        dests,
        clues,
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig::new(Family::Regular, Method::Advance)
}

fn set_up(inputs: &Inputs, tracer: &Tracer) -> (ClueEngine<Ip4>, EpochEngine<Ip4>) {
    let live = tracer.span("core.engine.precompute", 0, || {
        ClueEngine::precomputed(&inputs.sender, &inputs.receiver, engine_config())
    });
    let epochs = tracer
        .span("core.epoch.engine_new", 0, || EpochEngine::new(&live))
        .expect("Regular engines freeze");
    (live, epochs)
}

pub fn bench(seed: u64, runs: &[Run<'_>], layer: &mut Layer) -> Vec<E2e> {
    let inputs = generate_inputs(seed);
    println!(
        "bgp-churn: sender {} prefixes, receiver {}, {} updates in {} batches, {} reader packets",
        inputs.sender.len(),
        inputs.receiver.len(),
        UPDATES,
        inputs.batches.len(),
        inputs.dests.len()
    );
    runs.iter()
        .map(|run| one_run(&inputs, run, layer))
        .collect()
}

fn one_run(inputs: &Inputs, run: &Run<'_>, layer: &mut Layer) -> E2e {
    let (tracer, cfg) = (run.tracer, &run.config);
    let ((_, epochs), setups) =
        repeat_setup(cfg.setup_reps, cfg.setup_seconds, || set_up(inputs, tracer));

    // What the reader serves: the published snapshot's decisions.
    let mut reader = epochs.reader();
    let mut out = vec![Decision::default(); inputs.dests.len()];
    tracer.span(
        "core.frozen.lookup_batch",
        inputs.dests.len() as u64,
        || {
            black_box(
                reader
                    .pin()
                    .lookup_batch(&inputs.dests, &inputs.clues, &mut out),
            )
        },
    );
    let refs: u64 = out.iter().map(|d| d.cost.total()).sum();

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reports: Vec<(ChurnReport, f64)> = Vec::new();
    let rates = closed_loop(cfg.seconds, 1, false, || {
        let t = Instant::now();
        let result = tracer.span("netsim.churn.run_churn", UPDATES as u64, || {
            run_churn(
                &inputs.sender,
                &inputs.receiver,
                &inputs.batches,
                &inputs.driver,
                None,
                None,
            )
        });
        let secs = t.elapsed().as_secs_f64();
        attempted += UPDATES as u64;
        match result {
            Ok(report) => {
                if report.final_identical != Some(true) || report.updates_applied != UPDATES as u64
                {
                    failed += UPDATES as u64;
                }
                reports.push((report, secs));
            }
            Err(e) => {
                println!("bgp-churn: run_churn failed: {e}");
                failed += UPDATES as u64;
            }
        }
        (UPDATES as u64, secs)
    });
    let reader_pps: Vec<f64> = reports
        .iter()
        .map(|(r, secs)| r.lookups_total as f64 / secs)
        .collect();
    println!("bgp-churn: ops/s per call: {}", describe(&rates));
    let e2e = E2e {
        setup_s: median(&setups).expect("set-up ran"),
        ops_per_s: median(&rates).expect("churned"),
        refs_per_packet: refs as f64 / inputs.dests.len() as f64,
        attempted,
        failed,
    };
    println!(
        "bgp-churn: setup_s {:.4} updates_per_s {:.2} (median of {} calls) reader pps {:.0} \
         refs_per_packet {:.4} failed {}",
        e2e.setup_s,
        e2e.ops_per_s,
        rates.len(),
        median(&reader_pps).unwrap_or(f64::NAN),
        e2e.refs_per_packet,
        e2e.failed
    );

    if run.probe {
        let w = "bgp-churn";
        layer.insert(
            "core.frozen.churn_lookup_ns",
            tracer
                .median_ns_per_item(w, "core.frozen.lookup_batch")
                .unwrap_or(f64::NAN),
        );
        let rebuild_ms: Vec<f64> = reports
            .iter()
            .flat_map(|(r, _)| r.rebuild_us.iter().map(|&us| us as f64 / 1e3))
            .collect();
        layer.insert(
            "core.frozen.rebuild_p50_ms",
            quantile(&rebuild_ms, 0.5).unwrap_or(f64::NAN),
        );
        layer.insert(
            "core.frozen.rebuild_p90_ms",
            quantile(&rebuild_ms, 0.9).unwrap_or(f64::NAN),
        );
        let med = |f: &dyn Fn(&ChurnReport) -> f64| {
            median(&reports.iter().map(|(r, _)| f(r)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        layer.insert("netsim.churn.epochs", med(&|r| r.epochs as f64));
        layer.insert("netsim.churn.stale_fraction", med(&|r| r.stale_fraction()));
        layer.insert(
            "netsim.churn.max_staleness",
            med(&|r| r.max_staleness as f64),
        );
        layer.insert(
            "netsim.churn.reader_pps",
            median(&reader_pps).unwrap_or(f64::NAN),
        );

        tracer.span("core.epoch.pin", PINS, || {
            for _ in 0..PINS {
                drop(black_box(reader.pin()));
            }
        });
        layer.insert(
            "core.epoch.pin_ns",
            tracer
                .median_ns_per_item(w, "core.epoch.pin")
                .unwrap_or(f64::NAN),
        );
        drop(reader);

        let run_wall =
            median(&reports.iter().map(|(_, s)| *s).collect::<Vec<_>>()).unwrap_or(f64::NAN);
        replay(inputs, tracer, run_wall, layer);
    }
    e2e
}

/// Replays the update stream on one thread through the public update,
/// freeze and publish calls, timing each, and checks how much of a
/// `run_churn` call's wall time the three account for.
fn replay(inputs: &Inputs, tracer: &Tracer, run_wall: f64, layer: &mut Layer) {
    let w = "bgp-churn";
    let (mut live, epochs) = set_up(inputs, tracer);
    tracer.span("netsim.churn.replay", UPDATES as u64, || {
        for batch in &inputs.batches {
            for update in batch {
                tracer.span("core.engine.apply", 1, || apply(&mut live, update));
            }
            let frozen = tracer
                .span("core.frozen.rebuild", 0, || live.freeze())
                .expect("freezes");
            tracer.span("core.epoch.publish", 0, || epochs.publish(frozen));
        }
    });
    epochs.reclaim();
    let (apply_s, freeze_s, publish_s) = (
        tracer.total_s(w, "core.engine.apply"),
        tracer.total_s(w, "core.frozen.rebuild"),
        tracer.total_s(w, "core.epoch.publish"),
    );
    let us = |name| tracer.median_ns_per_item(w, name).unwrap_or(f64::NAN) / 1e3;
    layer.insert("core.engine.apply_us", us("core.engine.apply"));
    layer.insert(
        "core.epoch.publish_us",
        tracer.median_s(w, "core.epoch.publish").unwrap_or(f64::NAN) * 1e6,
    );
    let accounted = apply_s + freeze_s + publish_s;
    layer.insert("netsim.churn.replay_ratio", accounted / run_wall);
    println!(
        "bgp-churn: replay apply {apply_s:.3} s + freeze {freeze_s:.3} s + publish {publish_s:.4} s \
         = {accounted:.3} s of a {run_wall:.3} s run_churn call (the rest is the driver's own \
         precompute and final check)"
    );
}

/// One update, as the churn driver applies it: modify is withdraw plus
/// re-announce of the same prefix.
fn apply(engine: &mut ClueEngine<Ip4>, update: &RouteUpdate<Ip4>) {
    match update.kind {
        UpdateKind::Announce => engine.add_receiver_route(update.prefix),
        UpdateKind::Withdraw => {
            engine.remove_receiver_route(&update.prefix);
        }
        UpdateKind::Modify => {
            engine.remove_receiver_route(&update.prefix);
            engine.add_receiver_route(update.prefix);
        }
    }
}
