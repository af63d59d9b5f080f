//! The serving runtime's determinism contract: for any network and
//! seed, [`CompiledNetwork::run_workload`] on every compiled backend
//! (frozen, stride, compressed) is **bit-identical** to the sequential
//! live-engine reference [`run_workload_per_packet`] at every worker
//! count, and [`serve_lookups`] returns exactly the plain batch lookup
//! of the same inputs on every backend at every worker count, on IPv4
//! and IPv6 alike.

use clue_core::{
    ClueEngine, CompiledBackend, CompressedConfig, CompressedEngine, EngineConfig, EpochCell,
    FrozenEngine, Method, StrideConfig, StrideEngine,
};
use clue_lookup::Family;
use clue_netsim::{
    run_workload_per_packet, serve_lookups, CompiledNetwork, Network, NetworkConfig, RouterId,
    RunStats, RuntimeConfig, Topology,
};
use clue_trie::{Address, Ip4, Ip6, Prefix};
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
    /// empty run included.
    #[test]
    fn serving_is_bit_identical_to_the_plain_batch_lookup(
        prefix_blocks in 2u32..24,
        packets in 0usize..600,
        batch in 1usize..128,
        seed in any::<u64>(),
    ) {
        check_every_backend::<Ip4>(prefix_blocks, packets, batch, seed)?;
    }

    /// The same contract at IPv6 width: 128-bit destinations, the
    /// blocks and clues scaled to /32, /64 and /96.
    #[test]
    fn serving_is_bit_identical_to_the_plain_batch_lookup_on_ipv6(
        prefix_blocks in 2u32..24,
        packets in 0usize..600,
        batch in 1usize..128,
        seed in any::<u64>(),
    ) {
        check_every_backend::<Ip6>(prefix_blocks, packets, batch, seed)?;
    }
}

/// Builds an Advance engine over `prefix_blocks` blocks of `A`'s width
/// (each a /(W/2) with one /(3W/4) specific inside `10/8`-style space
/// — /16 and /24 on IPv4), draws `packets` destinations inside the
/// blocks with absent, aggregate and block-level clues, and checks
/// serving on the frozen, stride and compressed backends.
fn check_every_backend<A: Address>(
    prefix_blocks: u32,
    packets: usize,
    batch: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let bits = A::BITS as u32;
    let (block_len, specific_len) = (A::BITS / 2, A::BITS / 4 * 3);
    let top = 10u128 << (bits - 8);
    let block = |i: u32| top | (i as u128) << (bits - block_len as u32);
    let prefixes: Vec<Prefix<A>> = (0..prefix_blocks)
        .flat_map(|i| {
            let specific = block(i) | 1 << (bits - specific_len as u32);
            [
                Prefix::new(A::from_u128(block(i)), block_len),
                Prefix::new(A::from_u128(specific), specific_len),
            ]
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
        (state >> 33) as u128
    };
    let host_mask = (1u128 << (bits - block_len as u32)) - 1;
    let mut dests = Vec::with_capacity(packets);
    let mut clues = Vec::with_capacity(packets);
    for _ in 0..packets {
        let b = next() as u32 % prefix_blocks;
        let host = (next() << 31 | next()) & host_mask;
        dests.push(A::from_u128(block(b) | host));
        clues.push(match next() % 3 {
            0 => None,
            1 => Some(Prefix::new(A::from_u128(top), A::BITS / 4)),
            _ => Some(Prefix::new(A::from_u128(block(b)), block_len)),
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
    check_serving("compressed", frozen.compile_compressed(CompressedConfig), &dests, &clues, batch)
}

/// Serves `dests`/`clues` from `engine` at every worker count and
/// checks each run against the plain batch lookup and its per-core
/// accounting: every packet and job attributed to exactly one core,
/// every core primed once from the current snapshot.
fn check_serving<A: Address, E: CompiledBackend<A>>(
    backend: &str,
    engine: E,
    dests: &[A],
    clues: &[Option<Prefix<A>>],
    batch: usize,
) -> Result<(), TestCaseError> {
    let n = dests.len();
    let mut want = vec![Default::default(); n];
    let want_stats = engine.lookup_batch(dests, clues, &mut want);
    let cell = EpochCell::new(engine);
    for workers in WORKER_COUNTS {
        let cfg = RuntimeConfig { workers, batch, ..RuntimeConfig::default() };
        let mut got = Vec::new();
        let report = serve_lookups(&cell, dests, clues, &mut got, &cfg, None);
        let at = format!("{backend} workers={workers} batch={batch}");
        prop_assert_eq!(&got, &want, "decisions diverged: {}", at);
        prop_assert_eq!(&report.stats, &want_stats, "class counts diverged: {}", at);
        prop_assert_eq!(report.packets, n as u64, "{}", at);
        prop_assert_eq!(report.cores.len(), workers, "{}", at);
        let packets: u64 = report.cores.iter().map(|c| c.packets).sum();
        prop_assert_eq!(packets, n as u64, "every packet attributed to a core: {}", at);
        let batches: u64 = report.cores.iter().map(|c| c.batches).sum();
        prop_assert_eq!(batches, n.div_ceil(batch) as u64, "every job served once: {}", at);
        for (w, c) in report.cores.iter().enumerate() {
            prop_assert!(c.replica_clones >= 1, "core {} never primed: {}", w, at);
            prop_assert_eq!(c.max_staleness, 0, "core {} ran stale: {}", w, at);
        }
    }
    Ok(())
}
