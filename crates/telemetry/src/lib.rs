//! # clue-telemetry
//!
//! The unified observability layer of the clue-routing workspace.
//!
//! The paper's central claims are *measurement* claims — a clue lookup
//! costs ~1 memory reference, and only 0.5–5 % of clues are problematic
//! — so the workspace needs one place where every component reports
//! what it did, in a form that can be aggregated, snapshotted and
//! exported. This crate provides it, with zero external dependencies:
//!
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s and fixed-bucket
//!   [`Histogram`]s over `AtomicU64` cells. Handles are cheap clones
//!   of shared atomics, so the hot path never takes a lock and a
//!   shared `&Registry` works from parallel workloads. Counters and
//!   histograms are **cacheline-sharded** per recording thread and
//!   merged only at scrape time, so parallel recording never bounces a
//!   cacheline between cores.
//! * [`ScrapeServer`] — a zero-dependency HTTP endpoint (std
//!   `TcpListener`) serving `/metrics` (Prometheus) and
//!   `/metrics.json` live while a workload runs.
//! * [`trace`] — structured per-lookup events ([`LookupEvent`]) with a
//!   pluggable [`Subscriber`]; the default [`RingBufferSubscriber`]
//!   keeps the last N events in bounded memory.
//! * `export` — renders any registry to Prometheus text-exposition
//!   format or to JSON (hand-rolled writer; no serde).
//! * [`LookupTelemetry`] / [`CacheTelemetry`] and the other bundles —
//!   pre-named metric bundles for the workspace's hot paths, following
//!   the `clue_<component>_<metric>` naming convention
//!   (`clue_core_lookups_total`, `clue_cache_hits_total`, …). Each
//!   bundle has one constructor, `registered(registry, prefix, …)`; a
//!   `detached()` bundle is the same bundle registered into a private
//!   registry that nothing exports.
//!
//! Instrumentation is runtime-gated: components hold an
//! `Option<LookupTelemetry>` and skip all recording when it is absent,
//! so a disabled registry costs one predictable branch per lookup.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod churn;
mod batch;
mod compressed;
mod export;
mod fault;
mod fleet;
mod lookup;
mod registry;
mod runtime;
mod server;
mod shard;
pub mod trace;

pub use adversary::{AdversaryTelemetry, ReputationTelemetry};
pub use churn::ChurnTelemetry;
pub use batch::BatchTelemetry;
pub use compressed::CompressedTelemetry;
pub use fault::DegradationTelemetry;
pub use export::{parse_prometheus, to_json, to_prometheus, PromDocument};
pub use fleet::FleetTelemetry;
pub use lookup::{CacheTelemetry, LookupTelemetry};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Metric, Registry, Snapshot};
pub use runtime::RuntimeTelemetry;
pub use server::ScrapeServer;
pub use trace::{LookupClass, LookupEvent, RingBufferSubscriber, Subscriber};

/// Default memory-reference histogram bounds: fine granularity around
/// the 1-access clue-hit ideal, coarser toward full-lookup costs.
pub const MEMORY_REFERENCE_BOUNDS: &[u64] = &[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64];

/// Default search-depth histogram bounds (continued-walk lengths).
pub const SEARCH_DEPTH_BOUNDS: &[u64] = &[0, 1, 2, 4, 8, 16, 32];

/// Default clue/prefix-length histogram bounds (IPv4-centric, but the
/// overflow bucket absorbs IPv6 lengths).
pub const PREFIX_LENGTH_BOUNDS: &[u64] = &[8, 12, 16, 20, 24, 28, 32];

/// Default snapshot-rebuild latency bounds, in microseconds: a small
/// table re-freezes in well under a millisecond, a production-scale
/// one in the tens of milliseconds — the overflow bucket absorbs
/// pathological stalls.
pub const REBUILD_LATENCY_BOUNDS_US: &[u64] =
    &[50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000];

/// Default degraded-lookup cost-overhead bounds, in extra memory
/// references versus the clue-less baseline for the same destination.
/// A sound fault costs at most a wasted clue-table probe plus the full
/// fallback walk, so the interesting range is small; the overflow
/// bucket would indicate an unsound (and therefore buggy) degradation.
pub const DEGRADED_COST_BOUNDS: &[u64] = &[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64];

/// Default per-lookup latency bounds, in nanoseconds: geometric from a
/// cache-resident clue hit (tens of ns) up past a cold full walk; the
/// overflow bucket absorbs scheduler preemptions. Used by the
/// `clue profile` percentile report.
pub const LOOKUP_NANOS_BOUNDS: &[u64] = &[
    25, 50, 100, 200, 400, 800, 1_600, 3_200, 6_400, 12_800, 25_600, 51_200, 102_400, 204_800,
];
