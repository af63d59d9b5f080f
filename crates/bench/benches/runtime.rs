//! The shared-nothing serving runtime: the channel-fed multi-core
//! network walk against the sequential per-packet reference, and the
//! engine-level replica serving loop, at 1/2/4 worker cores.

use clue_core::{CompiledBackend, EngineConfig, EpochCell, Method, StrideConfig};
use clue_lookup::Family;
use clue_netsim::{
    run_workload_per_packet, serve_lookups, Network, NetworkConfig, RuntimeConfig, StrideNetwork,
    Topology,
};
use clue_trie::{BinaryTrie, Ip4, Prefix};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const PACKETS: usize = 4_000;

fn bench_network_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_network");
    let (topo, edges) = Topology::backbone(4, 2);
    let mut cfg =
        NetworkConfig::new(edges.clone(), EngineConfig::new(Family::Regular, Method::Advance));
    cfg.seed = 1999;
    let mut net: Network<Ip4> = Network::build(topo, cfg);
    group.throughput(Throughput::Elements(PACKETS as u64));

    group.bench_function("sequential", |b| {
        b.iter(|| black_box(run_workload_per_packet(&mut net, &edges, PACKETS, 1)))
    });

    let stride = StrideNetwork::freeze(&net, StrideConfig::default()).expect("compiles");
    for workers in [1usize, 2, 4] {
        let rc = RuntimeConfig {
            workers,
            batch: (PACKETS / workers / 4).max(1),
            ..RuntimeConfig::default()
        };
        group.bench_function(BenchmarkId::new("workers", workers), |b| {
            b.iter(|| {
                let (stats, report) = stride.run_workload_timed(&edges, PACKETS, 1, &rc, None);
                black_box((stats.total_accesses, report.elapsed_ns))
            })
        });
    }
    group.finish();
}

fn bench_engine_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_serving");
    let sender = clue_tablegen::synthesize_ipv4(8_000, 1999);
    let receiver = clue_tablegen::derive_neighbor(
        &sender,
        &clue_tablegen::NeighborConfig::same_isp(2000),
    );
    let engine = clue_core::ClueEngine::precomputed(
        &sender,
        &receiver,
        EngineConfig::new(Family::Regular, Method::Advance),
    );
    let stride = engine.freeze_stride(StrideConfig::default()).expect("compiles");
    let dests = clue_tablegen::generate(
        &sender,
        &receiver,
        &clue_tablegen::TrafficConfig { count: PACKETS, ..clue_tablegen::TrafficConfig::paper(7) },
    );
    let t1: BinaryTrie<Ip4, ()> = sender.iter().map(|p| (*p, ())).collect();
    let clues: Vec<Option<Prefix<Ip4>>> = dests
        .iter()
        .map(|&d| t1.lookup(d).map(|r| t1.prefix(r)).filter(|c| !c.is_empty()))
        .collect();
    group.throughput(Throughput::Elements(PACKETS as u64));

    for workers in [1usize, 2, 4] {
        let cell = EpochCell::new(stride.replicate());
        let rc = RuntimeConfig { workers, batch: 512, ..RuntimeConfig::default() };
        group.bench_function(BenchmarkId::new("workers", workers), |b| {
            b.iter(|| {
                let mut out = Vec::new();
                let r = serve_lookups(&cell, &dests, &clues, &mut out, &rc, None);
                black_box((out.len(), r.packets))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_network_runtime, bench_engine_serving);
criterion_main!(benches);
