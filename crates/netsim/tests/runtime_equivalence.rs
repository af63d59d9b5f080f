//! The serving runtime's determinism contract: for any network and
//! seed, [`CompiledNetwork::run_workload`] on every compiled backend
//! (frozen, stride, compressed) is **bit-identical** to the sequential
//! live-engine reference [`run_workload_per_packet`] at every worker
//! count, and [`serve_lookups`] returns exactly the plain batch lookup
//! of the same inputs on every backend at every worker count.

use std::sync::Arc;

use clue_core::{
    ClueEngine, CompiledBackend, CompressedConfig, CompressedEngine, EngineConfig, EpochCell,
    FrozenEngine, Method, QuarantineGate, StrideConfig, StrideEngine,
};
use clue_lookup::Family;
use clue_netsim::{
    run_workload_per_packet, serve_lookups, CompiledNetwork, Network, NetworkConfig, RouterId,
    RunStats, RuntimeConfig, Topology,
};
use clue_trie::{Ip4, Prefix};
use proptest::prelude::*;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn method(ix: u8) -> Method {
    match ix % 3 {
        0 => Method::Common,
        1 => Method::Simple,
        _ => Method::Advance,
    }
}

/// Runs `net` at every worker count and checks each run against the
/// scalar reference, and that every packet is attributed to a core.
fn check_backend<E: CompiledBackend<Ip4>>(
    net: &CompiledNetwork<'_, Ip4, E>,
    backend: &str,
    edges: &[RouterId],
    packets: usize,
    seed: u64,
    batch: usize,
    reference: &RunStats,
) -> Result<(), TestCaseError> {
    for workers in WORKER_COUNTS {
        let runtime_cfg = RuntimeConfig { workers, batch, ..RuntimeConfig::default() };
        let (stats, report) = net.run_workload_timed(edges, packets, seed, &runtime_cfg, None);
        prop_assert_eq!(
            &stats, reference,
            "{} workers={} batch={} diverged from the scalar reference", backend, workers, batch
        );
        let attributed: u64 = report.cores.iter().map(|c| c.packets).sum();
        prop_assert_eq!(attributed, packets as u64, "every packet attributed to a core");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Multi-core routing over dealt job lists folds to the same
    /// [`RunStats`] as the scalar walk, bit for bit, regardless of
    /// worker count or batch size.
    #[test]
    fn runtime_is_bit_identical_to_the_scalar_reference(
        core in 2usize..5,
        edges_per_core in 1usize..3,
        specifics in 4usize..20,
        net_seed in any::<u64>(),
        run_seed in any::<u64>(),
        method_ix in any::<u8>(),
        batch in 1usize..64,
        shift in any::<bool>(),
    ) {
        let (topo, edges) = Topology::backbone(core, edges_per_core);
        let mut cfg = NetworkConfig::new(
            edges.clone(),
            EngineConfig::new(Family::Regular, method(method_ix)),
        );
        cfg.specifics_per_origin = specifics;
        cfg.seed = net_seed;
        if shift {
            cfg.core = (0..core).collect();
            cfg.shift_work_to_edges = true;
        }
        let mut net: Network<Ip4> = Network::build(topo, cfg);

        let packets = 120;
        let reference = run_workload_per_packet(&mut net, &edges, packets, run_seed);
        let frozen = CompiledNetwork::<Ip4, FrozenEngine<Ip4>>::compile(&net, &()).unwrap();
        check_backend(&frozen, "frozen", &edges, packets, run_seed, batch, &reference)?;
        let stride =
            CompiledNetwork::<Ip4, StrideEngine<Ip4>>::compile(&net, &StrideConfig::default())
                .unwrap();
        check_backend(&stride, "stride", &edges, packets, run_seed, batch, &reference)?;
        let compressed =
            CompiledNetwork::<Ip4, CompressedEngine<Ip4>>::compile(&net, &CompressedConfig)
                .unwrap();
        check_backend(&compressed, "compressed", &edges, packets, run_seed, batch, &reference)?;
    }

    /// Engine-level serving returns the plain batch lookup, decision
    /// for decision, on every backend at every worker count — the
    /// empty run included — and an engaged quarantine gate serves
    /// exactly the all-`None` batch lookup.
    #[test]
    fn serving_is_bit_identical_to_the_plain_batch_lookup(
        prefix_blocks in 2u32..24,
        packets in 0usize..600,
        batch in 1usize..128,
        seed in any::<u64>(),
    ) {
        let prefixes: Vec<Prefix<Ip4>> = (0..prefix_blocks)
            .flat_map(|i| {
                let base = (10u32 << 24) | (i << 16);
                [Prefix::new(Ip4::from(base), 16), Prefix::new(Ip4::from(base | (1 << 8)), 24)]
            })
            .collect();
        let engine = ClueEngine::precomputed(
            &prefixes,
            &prefixes,
            EngineConfig::new(Family::Regular, Method::Advance),
        );

        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut dests = Vec::with_capacity(packets);
        let mut clues = Vec::with_capacity(packets);
        for _ in 0..packets {
            let block = next() % prefix_blocks;
            dests.push(Ip4::from((10u32 << 24) | (block << 16) | (next() & 0xFFFF)));
            clues.push(match next() % 3 {
                0 => None,
                1 => Some(Prefix::new(Ip4::from(10u32 << 24), 8)),
                _ => Some(Prefix::new(Ip4::from((10u32 << 24) | (block << 16)), 16)),
            });
        }

        let frozen = engine.freeze().unwrap();
        check_serving("frozen", frozen.clone(), &dests, &clues, batch)?;
        check_serving(
            "stride",
            frozen.compile_stride(StrideConfig::default()).unwrap(),
            &dests,
            &clues,
            batch,
        )?;
        check_serving(
            "compressed",
            frozen.compile_compressed(CompressedConfig),
            &dests,
            &clues,
            batch,
        )?;
    }
}

/// Serves `dests`/`clues` from `engine` at every worker count, with the
/// quarantine gate lifted and engaged, and checks each run against the
/// plain batch lookup (all-`None` clues while engaged) and its per-core
/// accounting: every packet and job attributed to exactly one core,
/// every core primed once from the current snapshot.
fn check_serving<E: CompiledBackend<Ip4>>(
    backend: &str,
    engine: E,
    dests: &[Ip4],
    clues: &[Option<Prefix<Ip4>>],
    batch: usize,
) -> Result<(), TestCaseError> {
    let n = dests.len();
    let no_clues = vec![None; n];
    let plain = |clues: &[Option<Prefix<Ip4>>]| {
        let mut out = vec![Default::default(); n];
        let stats = engine.lookup_batch(dests, clues, &mut out);
        (out, stats)
    };
    let clued = plain(clues);
    let clueless = plain(&no_clues);
    let cell = EpochCell::new(engine);
    let gate = Arc::new(QuarantineGate::default());
    for engaged in [false, true] {
        if engaged {
            gate.engage();
        }
        let (want, want_stats) = if engaged { &clueless } else { &clued };
        for workers in WORKER_COUNTS {
            let gate = Some(gate.clone());
            let cfg = RuntimeConfig { workers, batch, gate, ..RuntimeConfig::default() };
            let mut got = Vec::new();
            let report = serve_lookups(&cell, dests, clues, &mut got, &cfg, None);
            let at = format!("{backend} workers={workers} batch={batch} gate engaged={engaged}");
            prop_assert_eq!(&got, want, "decisions diverged: {}", at);
            prop_assert_eq!(&report.stats, want_stats, "class counts diverged: {}", at);
            prop_assert_eq!(report.packets, n as u64, "{}", at);
            prop_assert_eq!(report.cores.len(), workers, "{}", at);
            let packets: u64 = report.cores.iter().map(|c| c.packets).sum();
            prop_assert_eq!(packets, n as u64, "every packet attributed to a core: {}", at);
            let batches: u64 = report.cores.iter().map(|c| c.batches).sum();
            prop_assert_eq!(batches, n.div_ceil(batch) as u64, "every job served once: {}", at);
            for c in &report.cores {
                prop_assert!(c.replica_clones >= 1, "core {} never primed: {}", c.worker, at);
                prop_assert_eq!(c.max_staleness, 0, "core {} ran stale: {}", c.worker, at);
            }
        }
    }
    Ok(())
}
