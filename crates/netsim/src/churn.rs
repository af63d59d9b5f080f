//! The live-churn workload: lookups served *through* a route-update
//! stream.
//!
//! [`CompiledNetwork`](crate::CompiledNetwork) serves a static
//! snapshot; this driver exercises the regime a deployed
//! router actually lives in. The **builder**, on the calling thread,
//! owns the mutable [`ClueEngine`], applies one [`RouteUpdate`] batch
//! at a time (announce → insert, withdraw → delete, modify → delete +
//! re-insert of the same prefix, forcing the localized reclassify),
//! re-freezes (patching the previous snapshot, see
//! [`ClueEngine::freeze`]), and publishes each snapshot through an
//! [`EpochEngine`]. Meanwhile `readers` workers of the serving
//! runtime's job driver pin snapshots and run `lookup_batch` over a
//! deterministic pre-generated packet stream, never blocking on the
//! builder, each at least once.
//!
//! Two numbers characterise the run:
//!
//! * **staleness** — how many lookups were answered from snapshot `N`
//!   while `N+1` already existed, and the worst epoch lag observed
//!   (readers are lock-free, so some staleness is the price of never
//!   stalling);
//! * **rebuild latency** — microseconds per freeze-and-publish, the
//!   update-cost axis that "Scaling IP Lookup" treats as co-equal
//!   with lookup throughput.
//!
//! The driver is hardened for partial failure: it returns a typed
//! [`ChurnError`] instead of panicking, and reader panics are caught
//! by the job driver and attributed per reader (a panicking reader
//! unwinds through its `EpochGuard` and its registration, quiescing
//! both, so reclamation never wedges). Every batch's freeze is
//! published: a patched freeze costs milliseconds, so holding one back
//! would only make the readers staler. The chaos harness
//! ([`run_chaos`](crate::run_chaos)) injects a reader panic through
//! [`ChurnDriverConfig::panic_reader`].
//!
//! With [`ChurnDriverConfig::check`] set, the run ends by freezing a
//! from-scratch engine built on [`end_state`] of the stream and
//! asserting the final published snapshot is
//! [`bit_identical`](FrozenEngine::bit_identical) to it — the
//! incremental updates and patched freezes provably converge to the
//! batch path. That is one extra freeze per run; the identity of every
//! intermediate epoch is left to the update-sequence proptests.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use clue_core::{
    ClueEngine, Decision, EngineConfig, EpochEngine, EpochReader, FreezeError,
    FrozenEngine, Method,
};
use clue_lookup::Family;
use clue_tablegen::{end_state, RouteUpdate, UpdateKind};
use clue_telemetry::ChurnTelemetry;
use clue_trie::{Address, Prefix};

use crate::faults::DegradationTelemetry;
use crate::runtime::drive_while;

/// Why a churn run could not complete. Every failure the driver can
/// hit is typed here — the serving loop itself never panics.
#[derive(Debug)]
pub enum ChurnError {
    /// The engine pair cannot be frozen (wrong family, indexed table
    /// or a cache — see [`FreezeError::feature`]).
    Freeze(FreezeError),
    /// `config.readers` was zero.
    NoReaders,
    /// The derived traffic pool was empty — nothing to serve.
    EmptyTraffic,
    /// A reader other than [`ChurnDriverConfig::panic_reader`]
    /// panicked; the job driver caught the panic, and it is attributed
    /// here.
    ReaderPanicked {
        /// Index of the reader that panicked.
        reader: usize,
        /// The panic payload, stringified.
        message: String,
    },
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::Freeze(e) => {
                write!(f, "cannot freeze the engine ({} blocks it): {e}", e.feature())
            }
            ChurnError::NoReaders => write!(f, "churn needs at least one reader"),
            ChurnError::EmptyTraffic => write!(f, "churn traffic pool is empty"),
            ChurnError::ReaderPanicked { reader, message } => {
                write!(f, "reader {reader} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ChurnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChurnError::Freeze(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FreezeError> for ChurnError {
    fn from(e: FreezeError) -> Self {
        ChurnError::Freeze(e)
    }
}

/// Parameters of the churn driver.
#[derive(Debug, Clone)]
pub struct ChurnDriverConfig {
    /// Reader threads serving lookups concurrently with the builder.
    pub(crate) readers: usize,
    /// Lookups a reader performs per pinned snapshot (one guard, one
    /// `lookup_batch` call).
    pub(crate) chunk: usize,
    /// Distinct packets pre-generated for the readers to cycle over.
    pub traffic: usize,
    /// Seed for the packet stream.
    pub seed: u64,
    /// Verify the final snapshot against a from-scratch rebuild.
    pub check: bool,
    /// This reader panics (while holding its `EpochGuard`) after its
    /// first served chunk; the driver must catch and attribute it
    /// (chaos harness only).
    pub(crate) panic_reader: Option<usize>,
    /// This reader panics after its first served chunk without the
    /// plan: the driver must fail the run with
    /// [`ChurnError::ReaderPanicked`]. A test hook, never compiled into
    /// the library.
    #[cfg(test)]
    unplanned_panic: Option<usize>,
}

impl ChurnDriverConfig {
    /// A driver with `readers` threads and defaults sized for tests
    /// and the CLI smoke: 256-lookup chunks over 4 096 packets, no
    /// injected reader panic.
    pub fn new(readers: usize, seed: u64) -> Self {
        ChurnDriverConfig {
            readers,
            chunk: 256,
            traffic: 4_096,
            seed,
            check: true,
            panic_reader: None,
            #[cfg(test)]
            unplanned_panic: None,
        }
    }
}

/// What a churn run did and observed.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Final published epoch (= batches applied).
    pub epochs: u64,
    /// Individual route updates applied by the builder.
    pub updates_applied: u64,
    /// Lookups served across all readers that completed cleanly.
    pub lookups_total: u64,
    /// Lookups answered from a snapshot that had already been
    /// superseded when their batch finished.
    pub stale_lookups: u64,
    /// Worst epoch lag any reader batch observed.
    pub max_staleness: u64,
    /// Microseconds per freeze, one entry per published epoch.
    pub rebuild_us: Vec<u64>,
    /// Caught reader panics, attributed `(reader index, message)`.
    /// Non-empty only with `ChurnDriverConfig::panic_reader` set — an
    /// unplanned panic fails the run as `ChurnError::ReaderPanicked`.
    pub reader_panics: Vec<(usize, String)>,
    /// Retired snapshots still unreclaimed after the final grace
    /// period (0 — every superseded snapshot was freed).
    pub retired_after: usize,
    /// `--check` verdict: final snapshot bit-identical to the
    /// from-scratch freeze of the end-state table (`None` = not run).
    pub final_identical: Option<bool>,
}

impl ChurnReport {
    /// Mean rebuild latency in microseconds (0 with no epochs).
    pub fn mean_rebuild_us(&self) -> f64 {
        if self.rebuild_us.is_empty() {
            0.0
        } else {
            self.rebuild_us.iter().sum::<u64>() as f64 / self.rebuild_us.len() as f64
        }
    }

    /// Worst rebuild latency in microseconds.
    pub fn max_rebuild_us(&self) -> u64 {
        self.rebuild_us.iter().copied().max().unwrap_or(0)
    }

    /// Stale fraction of all lookups served.
    pub fn stale_fraction(&self) -> f64 {
        if self.lookups_total == 0 {
            0.0
        } else {
            self.stale_lookups as f64 / self.lookups_total as f64
        }
    }
}

/// Applies one update to the live engine. Modify is delete +
/// re-insert of the same prefix: the set is unchanged but the entry's
/// FD, continuation and Claim-1 bits are recomputed, exactly like an
/// attribute change on a real feed.
fn apply_update<A: Address>(engine: &mut ClueEngine<A>, update: &RouteUpdate<A>) {
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

/// One churn reader's state: its registered epoch reader, decision
/// buffer and position in the traffic, and what it saw.
struct ChurnReader<'e, A: Address> {
    index: usize,
    reader: EpochReader<'e, FrozenEngine<A>>,
    out: Vec<Decision<A>>,
    pos: usize,
    /// Lookups served from a superseded snapshot.
    stale: u64,
}

/// Runs the churn workload for a sender/receiver pair and an update
/// stream (see the module docs). Lookup traffic is derived
/// deterministically from `config.seed`; scheduling (how many lookups
/// each reader serves, how stale they run) is timing-dependent by
/// nature, but every *answer* comes from some published snapshot and
/// the final state is checkable.
///
/// Churn observability goes to `telemetry`; caught reader panics
/// additionally go to `degradation` when attached.
///
/// # Errors
/// `ChurnError::NoReaders` / `ChurnError::EmptyTraffic` on a
/// config that cannot serve; `ChurnError::Freeze` if the pair stops
/// being freezable (the driver builds a Regular-family, hashed,
/// cache-less engine, so this only fires for address families without
/// a flattened walk); `ChurnError::ReaderPanicked` for a caught
/// panic of any reader but `ChurnDriverConfig::panic_reader`. The
/// driver itself does not panic.
pub fn run_churn<A: Address>(
    sender: &[Prefix<A>],
    receiver: &[Prefix<A>],
    batches: &[Vec<RouteUpdate<A>>],
    config: &ChurnDriverConfig,
    telemetry: Option<&ChurnTelemetry>,
    degradation: Option<&DegradationTelemetry>,
) -> Result<ChurnReport, ChurnError> {
    if config.readers == 0 {
        return Err(ChurnError::NoReaders);
    }
    let engine_config = EngineConfig::new(Family::Regular, Method::Advance);
    let mut live = ClueEngine::precomputed(sender, receiver, engine_config);
    let mut epochs = EpochEngine::new(&live)?;
    if let Some(t) = telemetry {
        epochs.attach_telemetry(t.clone());
    }

    // The packet stream: destinations covered by the sender table,
    // each carrying the sender's BMP as its clue (None where the
    // sender has no route or only its /0 — the clueless case rides
    // along).
    let (dests, clues) = churn_traffic(sender, receiver, config);
    if dests.is_empty() {
        return Err(ChurnError::EmptyTraffic);
    }

    let stale_lookups = AtomicU64::new(0);
    let max_staleness = AtomicU64::new(0);
    let mut rebuild_us = Vec::with_capacity(batches.len());
    let mut updates_applied = 0u64;
    let chunk = config.chunk.min(dests.len()).max(1);

    // The builder, on the calling thread while the readers serve.
    let build = || -> Result<(), FreezeError> {
        for batch in batches {
            for update in batch {
                apply_update(&mut live, update);
            }
            updates_applied += batch.len() as u64;
            if let Some(t) = telemetry {
                t.record_updates(batch.len() as u64);
            }
            let started = Instant::now();
            let frozen = live.freeze()?;
            let us = started.elapsed().as_micros() as u64;
            epochs.publish(frozen);
            rebuild_us.push(us);
            if let Some(t) = telemetry {
                t.record_rebuild_us(us);
            }
        }
        Ok(())
    };

    // Each reader serves one pinned chunk per call. A panicking reader
    // unwinds through its pinned guard and its registration, quiescing
    // both, so reclamation never wedges; the driver attributes the
    // panic to its slot.
    let (built, slots) = drive_while(
        build,
        config.readers,
        |r| ChurnReader {
            index: r,
            reader: epochs.reader(),
            out: vec![Decision::default(); chunk],
            // Stagger start offsets so readers don't stampede the same
            // cache lines.
            pos: (r * chunk * 7) % dests.len(),
            stale: 0,
        },
        |rd| {
            let (pos, end) = (rd.pos, (rd.pos + chunk).min(dests.len()));
            let window = end - pos;
            let guard = rd.reader.pin();
            guard.lookup_batch(&dests[pos..end], &clues[pos..end], &mut rd.out[..window]);
            let lag = guard.lag();
            if config.panic_reader == Some(rd.index) {
                // Deliberately while the guard is held: the unwind must
                // quiesce it.
                panic!("injected reader fault: reader {} panicked while pinned", rd.index);
            }
            #[cfg(test)]
            if config.unplanned_panic == Some(rd.index) {
                panic!("unplanned reader fault: reader {}", rd.index);
            }
            drop(guard);
            if lag > 0 {
                rd.stale += window as u64;
                stale_lookups.fetch_add(window as u64, Relaxed);
                max_staleness.fetch_max(lag, Relaxed);
            }
            if let Some(t) = telemetry {
                t.record_reader_batch(lag, window as u64);
            }
            rd.pos = if end == dests.len() { 0 } else { end };
            window
        },
    );
    built?;

    let mut lookups_total = 0u64;
    let mut reader_panics: Vec<(usize, String)> = Vec::new();
    let mut stale_total = 0u64;
    for (r, slot) in slots.into_iter().enumerate() {
        match slot {
            Ok((rd, core)) => {
                lookups_total += core.packets;
                stale_total += rd.stale;
            }
            Err(message) => reader_panics.push((r, message)),
        }
    }
    if reader_panics.is_empty() {
        // A panicked reader's in-flight chunk may be counted in the
        // atomics but not in its lost state, so this only holds on
        // clean runs.
        debug_assert_eq!(stale_total, stale_lookups.load(Relaxed));
    }

    if let Some(d) = degradation {
        d.record_reader_panics(reader_panics.len() as u64);
    }
    if let Some((reader, message)) =
        reader_panics.iter().find(|(r, _)| Some(*r) != config.panic_reader)
    {
        return Err(ChurnError::ReaderPanicked { reader: *reader, message: message.clone() });
    }

    // All readers have deregistered: one reclaim empties the retire
    // list (the EpochEngine records it into the telemetry bundle).
    epochs.reclaim();
    let retired_after = epochs.retired_count();

    let final_identical = if config.check {
        let end = end_state(receiver, batches);
        let fresh = ClueEngine::precomputed(sender, &end, engine_config).freeze()?;
        let mut reader = epochs.reader();
        let identical = reader.pin().bit_identical(&fresh);
        Some(identical)
    } else {
        None
    };

    Ok(ChurnReport {
        epochs: epochs.current_epoch(),
        updates_applied,
        lookups_total,
        stale_lookups: stale_lookups.into_inner(),
        max_staleness: max_staleness.load(Relaxed),
        rebuild_us,
        reader_panics,
        retired_after,
        final_identical,
    })
}

/// Deterministic reader traffic: destinations covered by the sender
/// table with the sender's honest clue
/// ([`clue_tablegen::generate_with_clues`]).
fn churn_traffic<A: Address>(
    sender: &[Prefix<A>],
    receiver: &[Prefix<A>],
    config: &ChurnDriverConfig,
) -> (Vec<A>, Vec<Option<Prefix<A>>>) {
    let traffic_config = clue_tablegen::TrafficConfig {
        count: config.traffic,
        ..clue_tablegen::TrafficConfig::paper(config.seed)
    };
    clue_tablegen::generate_with_clues(sender, receiver, &traffic_config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clue_telemetry::Registry;
    use clue_tablegen::{
        derive_neighbor, generate_churn, synthesize_ipv4, synthesize_ipv6, ChurnConfig,
        NeighborConfig,
    };
    use clue_trie::Ip4;

    fn pair() -> (Vec<Prefix<Ip4>>, Vec<Prefix<Ip4>>) {
        let sender = synthesize_ipv4(600, 42);
        let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(43));
        (sender, receiver)
    }

    #[test]
    fn churn_converges_to_the_from_scratch_engine_at_any_reader_count() {
        let (sender, receiver) = pair();
        let batches = generate_churn(&receiver, &ChurnConfig::bgp(400, 7));
        for readers in [1usize, 4, 8] {
            let mut cfg = ChurnDriverConfig::new(readers, 11);
            cfg.traffic = 512;
            cfg.chunk = 64;
            let report = run_churn(&sender, &receiver, &batches, &cfg, None, None).unwrap();
            assert_eq!(report.final_identical, Some(true), "{readers} readers");
            assert_eq!(report.epochs, batches.len() as u64);
            assert_eq!(report.updates_applied, 400);
            assert_eq!(report.rebuild_us.len(), batches.len());
            assert!(report.lookups_total > 0, "readers served lookups");
            assert_eq!(report.retired_after, 0, "every snapshot reclaimed");
            assert!(report.stale_fraction() <= 1.0);
            assert!(report.reader_panics.is_empty());
        }
    }

    #[test]
    fn served_answers_come_from_published_snapshots() {
        // Every snapshot the builder publishes is a freeze of the live
        // engine patched from the one before; each must equal a
        // from-scratch freeze of its epoch's table, bit for bit and
        // answer for answer, so no reader sees a torn or mixed table.
        let (sender, receiver) = pair();
        let batches = generate_churn(&receiver, &ChurnConfig::bgp(40, 3));
        let cfg = ChurnDriverConfig::new(2, 5);
        let engine_config = EngineConfig::new(Family::Regular, Method::Advance);
        let (dests, clues) = churn_traffic(&sender, &receiver, &cfg);
        let answers = |frozen: &FrozenEngine<Ip4>| {
            let mut out = vec![Decision::default(); dests.len()];
            frozen.lookup_batch(&dests, &clues, &mut out);
            out
        };
        let mut live = ClueEngine::precomputed(&sender, &receiver, engine_config);
        let mut published = live.freeze().unwrap();
        for k in 0..=batches.len() {
            let table = end_state(&receiver, &batches[..k]);
            let reference = ClueEngine::precomputed(&sender, &table, engine_config).freeze().unwrap();
            assert!(published.bit_identical(&reference), "epoch {k}");
            assert_eq!(answers(&published), answers(&reference), "epoch {k}");
            if let Some(batch) = batches.get(k) {
                batch.iter().for_each(|u| apply_update(&mut live, u));
                published = live.freeze().unwrap();
            }
        }

        let report = run_churn(&sender, &receiver, &batches, &cfg, None, None).unwrap();
        assert_eq!(report.final_identical, Some(true));
        assert_eq!(report.epochs, batches.len() as u64);
    }

    #[test]
    fn ipv6_churn_converges_to_the_from_scratch_engine() {
        let sender = synthesize_ipv6(400, 21);
        let receiver = derive_neighbor(&sender, &NeighborConfig::same_isp(22));
        let batches = generate_churn(&receiver, &ChurnConfig::bgp(200, 23));
        let mut cfg = ChurnDriverConfig::new(2, 24);
        cfg.traffic = 256;
        cfg.chunk = 64;
        let report = run_churn(&sender, &receiver, &batches, &cfg, None, None).unwrap();
        assert_eq!(report.final_identical, Some(true));
        assert_eq!(report.epochs, batches.len() as u64, "one epoch per batch");
        assert_eq!(report.updates_applied, 200);
    }

    #[test]
    fn telemetry_observes_the_run() {
        use clue_telemetry::Registry;
        let (sender, receiver) = pair();
        let batches = generate_churn(&receiver, &ChurnConfig::bgp(120, 9));
        let registry = Registry::new();
        let telemetry = ChurnTelemetry::registered(&registry);
        let mut cfg = ChurnDriverConfig::new(2, 13);
        cfg.traffic = 256;
        cfg.chunk = 64;
        let report =
            run_churn(&sender, &receiver, &batches, &cfg, Some(&telemetry), None).unwrap();
        assert!(registry.contains("clue_churn_updates_applied_total"));
        let updates = registry.counter("clue_churn_updates_applied_total", "").get();
        assert_eq!(updates, report.updates_applied);
        assert_eq!(report.rebuild_us.len() as u64, report.epochs);
        // Swaps are recorded by the EpochEngine only when the bundle is
        // attached to it — the driver attaches it, so the counts line
        // up with the epochs.
        assert_eq!(telemetry.swaps(), report.epochs);
        assert!(registry.contains("clue_churn_rebuild_latency_us"));
        let rebuilds = registry.histogram("clue_churn_rebuild_latency_us", "", &[1]).snapshot();
        assert_eq!(rebuilds.count, report.epochs);
    }

    #[test]
    fn bad_configs_are_typed_errors_not_panics() {
        let (sender, receiver) = pair();
        let batches = generate_churn(&receiver, &ChurnConfig::bgp(10, 1));
        let cfg = ChurnDriverConfig::new(0, 1);
        assert!(matches!(
            run_churn(&sender, &receiver, &batches, &cfg, None, None),
            Err(ChurnError::NoReaders)
        ));
        let mut cfg = ChurnDriverConfig::new(1, 1);
        cfg.traffic = 0;
        let err = run_churn(&sender, &receiver, &batches, &cfg, None, None).unwrap_err();
        assert!(matches!(err, ChurnError::EmptyTraffic));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn a_planned_reader_panic_is_survived_and_attributed() {
        let (sender, receiver) = pair();
        let batches = generate_churn(&receiver, &ChurnConfig::bgp(60, 5));
        let mut cfg = ChurnDriverConfig::new(2, 7);
        cfg.traffic = 256;
        cfg.chunk = 32;
        cfg.panic_reader = Some(0);
        let report = run_churn(&sender, &receiver, &batches, &cfg, None, None).unwrap();
        assert_eq!(report.reader_panics.len(), 1);
        assert_eq!(report.reader_panics[0].0, 0);
        assert!(report.reader_panics[0].1.contains("injected reader fault"));
        // Reader 0 panics on its first chunk, so every counted lookup
        // is the survivor's.
        assert!(report.lookups_total > 0, "surviving reader kept serving");
        assert_eq!(report.final_identical, Some(true), "convergence survives the panic");
        assert_eq!(report.retired_after, 0, "the unwound guard never blocks reclamation");
    }

    #[test]
    fn an_unplanned_reader_panic_is_caught_and_attributed() {
        let (sender, receiver) = pair();
        let batches = generate_churn(&receiver, &ChurnConfig::bgp(60, 5));
        // With and without a planned panic beside it: only the
        // unplanned one fails the run, and the error names its reader.
        for planned in [None, Some(0)] {
            let mut cfg = ChurnDriverConfig::new(3, 7);
            cfg.traffic = 256;
            cfg.chunk = 32;
            cfg.panic_reader = planned;
            cfg.unplanned_panic = Some(2);
            let registry = Registry::new();
            let degradation = DegradationTelemetry::registered(&registry, &[]);
            match run_churn(&sender, &receiver, &batches, &cfg, None, Some(&degradation)) {
                Err(ChurnError::ReaderPanicked { reader, message }) => {
                    assert_eq!(reader, 2, "planned {planned:?}");
                    assert!(message.contains("unplanned reader fault: reader 2"), "{message}");
                }
                other => panic!("planned {planned:?}: expected ReaderPanicked, got {other:?}"),
            }
            let panics = 1 + u64::from(planned.is_some());
            assert!(registry.contains("clue_fault_reader_panics_total"));
            let caught = registry.counter("clue_fault_reader_panics_total", "").get();
            assert_eq!(caught, panics, "planned {planned:?}");
        }
    }

    #[test]
    fn an_empty_update_stream_still_serves_on_every_reader() {
        let (sender, receiver) = pair();
        let mut cfg = ChurnDriverConfig::new(4, 3);
        cfg.traffic = 256;
        cfg.chunk = 64;
        let no_updates: &[Vec<RouteUpdate<Ip4>>] = &[];
        let report = run_churn(&sender, &receiver, no_updates, &cfg, None, None).unwrap();
        assert_eq!(report.epochs, 0);
        assert_eq!(report.final_identical, Some(true));
        // The driver calls every reader at least once however soon the
        // builder returns (runtime's
        // `an_instant_writer_still_gets_one_serve_from_every_worker`).
        assert!(report.lookups_total >= cfg.readers as u64, "{}", report.lookups_total);
    }
}
