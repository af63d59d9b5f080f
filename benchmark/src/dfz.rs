//! `dfz-forward`: one router with a default-free-zone-sized table
//! serving honest-clue traffic through `serve_lookups` from an
//! `EpochCell` holding the compressed engine.

use std::hint::black_box;
use std::time::Instant;

use clue_core::{
    BackendKind, ClueEngine, CompiledBackend, CompressedConfig, CompressedEngine, Decision,
    EngineConfig, EpochCell, FrozenEngine, Method, StrideConfig, DEFAULT_INTERLEAVE,
};
use clue_lookup::Family;
use clue_netsim::{serve_lookups, RuntimeConfig, ServeReport};
use clue_tablegen::{
    derive_neighbor, generate, synthesize_ipv4_modern, NeighborConfig, TrafficConfig,
};
use clue_telemetry::LookupClass;
use clue_trie::{BinaryTrie, Cost, Ip4, Prefix};

use crate::stats::{closed_loop, describe, median, quantile, repeat_setup};
use crate::{CoreTotals, E2e, Layer, Run};

/// Sender table size: a modern default-free zone.
const TABLE: usize = 1_000_000;
/// Packets per serving call.
const PACKETS: usize = 1_000_000;
/// Packets checked against the scalar engine.
const ORACLE_SAMPLE: usize = 20_000;
/// Packets per receive burst for the burst-latency probe.
const BURST: usize = 32;
/// A backend whose estimated compiled size exceeds this is skipped.
const BACKEND_BUDGET_BYTES: f64 = 512.0 * 1024.0 * 1024.0;
/// Stride bytes per receiver prefix measured at 40k prefixes (83.9 MB
/// arena for 40k): the estimate that decides the skip.
const STRIDE_BYTES_PER_PREFIX: f64 = 2080.0;

struct Inputs {
    sender: Vec<Prefix<Ip4>>,
    receiver: Vec<Prefix<Ip4>>,
    dests: Vec<Ip4>,
    clues: Vec<Option<Prefix<Ip4>>>,
}

fn generate_inputs(seed: u64) -> Inputs {
    let sender = synthesize_ipv4_modern(TABLE, seed);
    let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(seed.wrapping_add(1)));
    let dests = generate(
        &sender,
        &receiver,
        &TrafficConfig {
            count: PACKETS,
            ..TrafficConfig::paper(seed.wrapping_add(2))
        },
    );
    // Each packet carries the sender's best matching prefix as its clue.
    let t1: BinaryTrie<Ip4, ()> = sender.iter().map(|p| (*p, ())).collect();
    let clues = dests
        .iter()
        .map(|&d| t1.lookup(d).map(|r| t1.prefix(r)).filter(|c| !c.is_empty()))
        .collect();
    Inputs {
        sender,
        receiver,
        dests,
        clues,
    }
}

/// A ready-to-serve router: the scalar engine (kept as the oracle), its
/// frozen snapshot and the cell serving the compressed engine.
struct Ready {
    scalar: ClueEngine<Ip4>,
    frozen: FrozenEngine<Ip4>,
    cell: EpochCell<CompressedEngine<Ip4>>,
}

fn set_up(inputs: &Inputs, tracer: &crate::trace::Tracer) -> Ready {
    let config = EngineConfig::new(Family::Regular, Method::Advance);
    let scalar = tracer.span("core.engine.precompute", 0, || {
        ClueEngine::precomputed(&inputs.sender, &inputs.receiver, config)
    });
    let frozen = tracer
        .span("core.frozen.freeze", 0, || scalar.freeze())
        .expect("Regular engines freeze");
    let compressed = tracer.span("core.compressed.compile", 0, || {
        frozen.compile_compressed(CompressedConfig)
    });
    let cell = tracer.span("core.epoch.cell_new", 0, || EpochCell::new(compressed));
    Ready {
        scalar,
        frozen,
        cell,
    }
}

pub fn bench(seed: u64, runs: &[Run<'_>], layer: &mut Layer) -> Vec<E2e> {
    let t0 = Instant::now();
    let inputs = generate_inputs(seed);
    println!(
        "dfz-forward: inputs in {:.2} s (sender {} prefixes, receiver {}, {} packets); \
         not part of setup_s",
        t0.elapsed().as_secs_f64(),
        inputs.sender.len(),
        inputs.receiver.len(),
        inputs.dests.len()
    );
    runs.iter()
        .map(|run| one_run(&inputs, run, layer))
        .collect()
}

fn one_run(inputs: &Inputs, run: &Run<'_>, layer: &mut Layer) -> E2e {
    let (tracer, cfg) = (run.tracer, &run.config);
    let (mut ready, setups) =
        repeat_setup(cfg.setup_reps, cfg.setup_seconds, || set_up(inputs, tracer));
    let n = inputs.dests.len() as u64;

    let runtime = RuntimeConfig::with_workers(cfg.workers);
    let mut out = Vec::new();
    let mut first: Option<Vec<Decision<Ip4>>> = None;
    let mut reports: Vec<ServeReport> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let rates = closed_loop(cfg.seconds, 3, true, || {
        let t = Instant::now();
        let report = tracer.span("netsim.runtime.serve_lookups", n, || {
            serve_lookups(
                &ready.cell,
                &inputs.dests,
                &inputs.clues,
                &mut out,
                &runtime,
                None,
            )
        });
        let secs = t.elapsed().as_secs_f64();
        attempted += n;
        // Every call must give the first call's decisions.
        match &first {
            None => first = Some(out.clone()),
            Some(f) => failed += f.iter().zip(&out).filter(|(a, b)| a != b).count() as u64,
        }
        reports.push(report);
        (n, secs)
    });
    let decisions = first.expect("served at least once");

    // Oracle: the scalar engine on an evenly spaced sample.
    let step = (inputs.dests.len() / ORACLE_SAMPLE).max(1);
    let mut mismatches = 0u64;
    for i in (0..inputs.dests.len()).step_by(step) {
        let mut cost = Cost::new();
        let bmp = ready
            .scalar
            .lookup(inputs.dests[i], inputs.clues[i], None, &mut cost);
        if bmp != decisions[i].bmp || cost != decisions[i].cost {
            mismatches += 1;
        }
    }
    failed += mismatches;
    let refs: u64 = decisions.iter().map(|d| d.cost.total()).sum();
    println!("dfz-forward: ops/s per call: {}", describe(&rates));
    let e2e = E2e {
        setup_s: median(&setups).expect("set-up ran"),
        ops_per_s: median(&rates).expect("served"),
        refs_per_packet: refs as f64 / n as f64,
        attempted,
        failed,
    };
    let (p50, p99) = burst_latency(&ready, inputs);
    println!(
        "dfz-forward: setup_s {:.3} (reps {:?}) pps {:.0} (median of {} calls) refs_per_packet \
         {:.4} burst_p50_ns {p50:.0} burst_p99_ns {p99:.0} oracle mismatches {mismatches}",
        e2e.setup_s,
        setups
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        e2e.ops_per_s,
        rates.len(),
        e2e.refs_per_packet
    );

    if run.probe {
        let w = "dfz-forward";
        let get = |name| tracer.median_s(w, name).unwrap_or(f64::NAN);
        layer.insert("core.engine.precompute_s", get("core.engine.precompute"));
        layer.insert("core.frozen.freeze_s", get("core.frozen.freeze"));
        layer.insert("core.compressed.burst_p50_ns", p50);
        layer.insert("core.compressed.burst_p99_ns", p99);
        let med = |f: &dyn Fn(&ServeReport) -> f64| {
            median(&reports.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        layer.insert(
            "netsim.runtime.replica_clone_ms",
            med(&|r| r.replica_clone_ns as f64 / 1e6),
        );
        let totals = |r: &ServeReport| CoreTotals::of(&r.cores, r.elapsed_ns);
        layer.insert(
            "netsim.runtime.serve.busy_ratio",
            med(&|r| totals(r).busy_ratio),
        );
        layer.insert(
            "netsim.runtime.serve.backpressure_per_job",
            med(&|r| totals(r).backpressure_per_job),
        );
        let stats = reports[0].stats;
        let clued = stats.finals + stats.continued + stats.misses;
        layer.insert(
            "core.lookup.final_ratio",
            stats.finals as f64 / clued.max(1) as f64,
        );
        class_split(&ready, inputs, &decisions, tracer, layer);
        backend_matrix(&ready, inputs, &decisions, tracer, layer);
        layer.insert("core.compressed.compile_s", get("core.compressed.compile"));
    }
    e2e
}

/// Latency of one `BURST`-packet receive burst through the served
/// engine's batched lookup: every burst of the packet stream, twice.
fn burst_latency(ready: &Ready, inputs: &Inputs) -> (f64, f64) {
    let mut reader = ready.cell.reader();
    let guard = reader.pin();
    let mut out = [Decision::default(); BURST];
    let mut samples = Vec::with_capacity(2 * inputs.dests.len() / BURST);
    for _ in 0..2 {
        for (d, c) in inputs
            .dests
            .chunks_exact(BURST)
            .zip(inputs.clues.chunks_exact(BURST))
        {
            let t = Instant::now();
            black_box(guard.lookup_batch_interleaved(d, c, &mut out, DEFAULT_INTERLEAVE));
            samples.push(t.elapsed().as_nanos() as f64);
        }
    }
    (
        quantile(&samples, 0.5).unwrap_or(f64::NAN),
        quantile(&samples, 0.99).unwrap_or(f64::NAN),
    )
}

/// Batched lookups over the packets of each resolution class, and over
/// every packet with its clue stripped (the full, clue-less lookup).
fn class_split(
    ready: &Ready,
    inputs: &Inputs,
    decisions: &[Decision<Ip4>],
    tracer: &crate::trace::Tracer,
    layer: &mut Layer,
) {
    let mut reader = ready.cell.reader();
    let guard = reader.pin();
    let mut time = |span: &'static str, metric, dests: &[Ip4], clues: &[Option<Prefix<Ip4>>]| {
        let mut out = vec![Decision::default(); dests.len()];
        for _ in 0..3 {
            tracer.span(span, dests.len() as u64, || {
                black_box(guard.lookup_batch_interleaved(
                    dests,
                    clues,
                    &mut out,
                    DEFAULT_INTERLEAVE,
                ))
            });
        }
        layer.insert(
            metric,
            tracer
                .median_ns_per_item("dfz-forward", span)
                .unwrap_or(f64::NAN),
        );
    };
    for (span, metric, class) in [
        (
            "core.lookup.final",
            "core.lookup.final_ns",
            LookupClass::Final,
        ),
        (
            "core.lookup.continued",
            "core.lookup.continued_ns",
            LookupClass::Continued,
        ),
    ] {
        let idx: Vec<usize> = (0..decisions.len())
            .filter(|&i| decisions[i].class == class)
            .collect();
        let dests: Vec<Ip4> = idx.iter().map(|&i| inputs.dests[i]).collect();
        let clues: Vec<Option<Prefix<Ip4>>> = idx.iter().map(|&i| inputs.clues[i]).collect();
        time(span, metric, &dests, &clues);
    }
    time(
        "core.lookup.full",
        "core.lookup.full_ns",
        &inputs.dests,
        &vec![None; inputs.dests.len()],
    );
}

/// Every backend `BackendKind` lists, compiled from the same frozen
/// snapshot and timed on the same packets; a backend too big for the
/// machine is skipped and the skip printed.
fn backend_matrix(
    ready: &Ready,
    inputs: &Inputs,
    decisions: &[Decision<Ip4>],
    tracer: &crate::trace::Tracer,
    layer: &mut Layer,
) {
    let receiver = inputs.receiver.len() as f64;
    for kind in BackendKind::ALL {
        match kind {
            BackendKind::Frozen => {
                let row = time_backend(
                    &ready.frozen,
                    "core.frozen.lookup_batch",
                    inputs,
                    decisions,
                    tracer,
                );
                layer.insert("core.frozen.lookup_ns", row.0);
                layer.insert("core.frozen.bytes_per_prefix", row.1 / receiver);
            }
            BackendKind::Stride => {
                let estimate = receiver * STRIDE_BYTES_PER_PREFIX;
                if estimate > BACKEND_BUDGET_BYTES {
                    println!(
                        "dfz-forward: stride backend skipped: ~{:.0} MB estimated at {} prefixes \
                         exceeds the {:.0} MB budget",
                        estimate / 1e6,
                        inputs.receiver.len(),
                        BACKEND_BUDGET_BYTES / 1e6
                    );
                    continue;
                }
                let stride = tracer
                    .span("core.stride.compile", 0, || {
                        ready.frozen.compile_stride(StrideConfig::default())
                    })
                    .expect("default stride shape compiles");
                let row = time_backend(
                    &stride,
                    "core.stride.lookup_batch",
                    inputs,
                    decisions,
                    tracer,
                );
                println!(
                    "dfz-forward: stride backend {:.1} ns/lookup, {:.1} B/prefix",
                    row.0,
                    row.1 / receiver
                );
            }
            BackendKind::Compressed => {
                let compressed = tracer.span("core.compressed.compile", 0, || {
                    ready.frozen.compile_compressed(CompressedConfig)
                });
                let row = time_backend(
                    &compressed,
                    "core.compressed.lookup_batch",
                    inputs,
                    decisions,
                    tracer,
                );
                layer.insert("core.compressed.lookup_ns", row.0);
                layer.insert("core.compressed.bytes_per_prefix", row.1 / receiver);
            }
        }
    }
}

/// `(ns per lookup, compiled bytes)` of one backend; its decisions must
/// equal the served ones.
fn time_backend<E: CompiledBackend<Ip4>>(
    engine: &E,
    span: &'static str,
    inputs: &Inputs,
    decisions: &[Decision<Ip4>],
    tracer: &crate::trace::Tracer,
) -> (f64, f64) {
    let mut out = vec![Decision::default(); inputs.dests.len()];
    for _ in 0..3 {
        tracer.span(span, inputs.dests.len() as u64, || {
            black_box(engine.lookup_batch_interleaved(
                &inputs.dests,
                &inputs.clues,
                &mut out,
                DEFAULT_INTERLEAVE,
            ))
        });
    }
    assert!(
        out == decisions,
        "the {} backend disagrees with the served decisions",
        E::NAME
    );
    (
        tracer
            .median_ns_per_item("dfz-forward", span)
            .unwrap_or(f64::NAN),
        engine.memory_bytes() as f64,
    )
}
