//! The stride-compiled fast path, swept across its two tuning axes:
//!
//! * **initial stride** 8 / 13 / 16 — how many top address bits the
//!   direct-indexed root array resolves in one read;
//! * **interleave factor** 1 / 4 / 8 / 16 — how many packets the
//!   batch loop keeps in flight per prefetch group (1 = prefetch off).
//!
//! The frozen batch pipeline on the same workload is the baseline the
//! acceptance bar compares against (`stride_pps > batch_pps`). The
//! sweep is what backs the `DEFAULT_INITIAL_BITS` /
//! `DEFAULT_INTERLEAVE` choices in `clue-core`; the table is
//! paper-scale (~40k prefixes, the order of the Mae-East snapshot) so
//! the layouts are measured out of cache, where they differ.

use std::hint::black_box;

use clue_bench::isp_pair;
use clue_core::{ClueEngine, CompiledBackend, Decision, EngineConfig, Method, StrideConfig};
use clue_lookup::Family;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_stride_sweep(c: &mut Criterion) {
    let pair = isp_pair(40_000, 2_000, 42);
    let scalar = ClueEngine::precomputed(
        &pair.sender,
        &pair.receiver,
        EngineConfig::new(Family::Regular, Method::Advance),
    );
    let frozen = scalar.freeze().expect("regular hashed engine freezes");
    let mut out = vec![Decision::default(); pair.dests.len()];

    let mut group = c.benchmark_group("stride_sweep");
    group.throughput(Throughput::Elements(pair.dests.len() as u64));

    group.bench_function(BenchmarkId::new("baseline", "frozen-batch"), |b| {
        b.iter(|| {
            let stats = frozen.lookup_batch(black_box(&pair.dests), &pair.clues, &mut out);
            black_box(stats.finals + out.len() as u64)
        })
    });

    for initial in [8u8, 13, 16] {
        let stride = frozen
            .compile_stride(StrideConfig::new(initial, clue_core::DEFAULT_INNER_BITS))
            .expect("valid stride shape");
        for interleave in [1usize, 4, 8, 16] {
            let id = BenchmarkId::new(format!("initial{initial}"), format!("g{interleave}"));
            group.bench_function(id, |b| {
                b.iter(|| {
                    let stats = stride.lookup_batch_interleaved(
                        black_box(&pair.dests),
                        &pair.clues,
                        &mut out,
                        interleave,
                    );
                    black_box(stats.finals + out.len() as u64)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_stride_sweep);
criterion_main!(benches);
