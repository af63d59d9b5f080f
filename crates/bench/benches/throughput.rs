//! Lookup-pipeline throughput: the mutable scalar engine, the same
//! engine frozen (one call per packet), the frozen batch API, and the
//! multi-core network runtime on the frozen backend at 1/2/4 workers.
//!
//! The acceptance bar for this PR is batched-frozen >= 2x the scalar
//! engine in packets/second on the engine workload. Run with
//! `BENCH_TELEMETRY_OUT=BENCH_throughput.json` to dump the
//! measurements as JSON.

use std::hint::black_box;

use clue_bench::isp_pair;
use clue_core::{ClueEngine, CompiledBackend, Decision, EngineConfig, FrozenEngine, Method};
use clue_lookup::Family;
use clue_netsim::{CompiledNetwork, Network, NetworkConfig, Topology};
use clue_trie::{Cost, Ip4};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_engine_pipelines(c: &mut Criterion) {
    let pair = isp_pair(10_000, 2_000, 42);
    let mut group = c.benchmark_group("lookup_pipeline");
    group.throughput(Throughput::Elements(pair.dests.len() as u64));

    let mut scalar = ClueEngine::precomputed(
        &pair.sender,
        &pair.receiver,
        EngineConfig::new(Family::Regular, Method::Advance),
    );
    let frozen = scalar.freeze().expect("regular hashed engine freezes");

    group.bench_function(BenchmarkId::new("advance", "scalar"), |b| {
        b.iter(|| {
            let mut total = 0u64;
            for (&dest, &clue) in pair.dests.iter().zip(&pair.clues) {
                let mut cost = Cost::new();
                let bmp = scalar.lookup(black_box(dest), clue, None, &mut cost);
                total += bmp.map_or(0, |p| p.len() as u64);
            }
            black_box(total)
        })
    });

    group.bench_function(BenchmarkId::new("advance", "frozen-scalar"), |b| {
        b.iter(|| {
            let mut total = 0u64;
            for (&dest, &clue) in pair.dests.iter().zip(&pair.clues) {
                let mut cost = Cost::new();
                let (bmp, _) = frozen.lookup(black_box(dest), clue, &mut cost);
                total += bmp.map_or(0, |p| p.len() as u64);
            }
            black_box(total)
        })
    });

    let mut out = vec![Decision::default(); pair.dests.len()];
    group.bench_function(BenchmarkId::new("advance", "frozen-batch"), |b| {
        b.iter(|| {
            let stats = frozen.lookup_batch(black_box(&pair.dests), &pair.clues, &mut out);
            black_box(stats.finals + out.len() as u64)
        })
    });
    group.finish();
}

fn bench_parallel_driver(c: &mut Criterion) {
    let (topo, edges) = Topology::backbone(4, 2);
    let mut cfg =
        NetworkConfig::new(edges.clone(), EngineConfig::new(Family::Regular, Method::Advance));
    cfg.seed = 42;
    let net: Network<Ip4> = Network::build(topo, cfg);
    let frozen =
        CompiledNetwork::<Ip4, FrozenEngine<Ip4>>::compile(&net, &()).expect("freezable");
    let packets = 2_000;

    let mut group = c.benchmark_group("parallel_workload");
    group.throughput(Throughput::Elements(packets as u64));
    for workers in [1usize, 2, 4] {
        group.bench_function(BenchmarkId::new("backbone_4x2", workers), |b| {
            b.iter(|| {
                let stats = frozen.run_workload(&edges, packets, 7, workers);
                black_box(stats.total_accesses)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_pipelines, bench_parallel_driver);
criterion_main!(benches);
