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
//!   shared `&Registry` works from parallel workloads. Multi-core
//!   code accumulates plain integers and flushes them once per job or
//!   per run, so one cell per metric is enough.
//! * [`ScrapeServer`] — a zero-dependency HTTP endpoint (std
//!   `TcpListener`) serving `/metrics` (Prometheus) and
//!   `/metrics.json` live while a workload runs.
//! * `trace` — structured per-lookup events ([`LookupEvent`]) that
//!   [`LookupTelemetry::record`] folds into its counters and
//!   histograms.
//! * `export` — renders any registry to Prometheus text-exposition
//!   format or to JSON (hand-rolled writer; no serde).
//! * [`bundle!`] — the one declaration form for a metric bundle: a
//!   series prefix and one line per metric (field, kind, help text,
//!   histogram bounds) generate the bundle struct, with private fields,
//!   and its `registered(registry)` constructor. The series name is the
//!   prefix followed by the field name (`clue_core_lookups_total`, …).
//!   Each bundle is declared beside the code that records into it and
//!   records through its own methods: this crate declares the
//!   lookup-path bundles ([`LookupTelemetry`], [`BatchTelemetry`],
//!   [`CompressedTelemetry`]), which `clue-core` and `clue-cli` write;
//!   the cache bundle lives in `clue-core` and the runtime, churn,
//!   fleet, adversary, reputation and fault bundles in `clue-netsim`.
//!
//! Instrumentation is runtime-gated: the scalar engine holds an
//! `Option<LookupTelemetry>` and skips all recording when it is absent,
//! so a disabled registry costs one predictable branch per lookup.
//! Compiled engines hold no handle at all; the caller of a batch
//! records it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod batch;
mod bundle;
mod compressed;
mod export;
mod lookup;
mod registry;
mod server;
pub(crate) mod trace;

pub use batch::BatchTelemetry;
pub use compressed::CompressedTelemetry;
pub use lookup::LookupTelemetry;
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use server::ScrapeServer;
pub use trace::{LookupClass, LookupEvent};

/// Default memory-reference histogram bounds: fine granularity around
/// the 1-access clue-hit ideal, coarser toward full-lookup costs.
pub const MEMORY_REFERENCE_BOUNDS: &[u64] = &[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64];

/// Default clue/prefix-length histogram bounds (IPv4-centric, but the
/// overflow bucket absorbs IPv6 lengths).
pub const PREFIX_LENGTH_BOUNDS: &[u64] = &[8, 12, 16, 20, 24, 28, 32];

/// Default per-lookup latency bounds, in nanoseconds: geometric from a
/// cache-resident clue hit (tens of ns) up past a cold full walk; the
/// overflow bucket absorbs scheduler preemptions. Used by the
/// `clue profile` percentile report.
pub const LOOKUP_NANOS_BOUNDS: &[u64] = &[
    25, 50, 100, 200, 400, 800, 1_600, 3_200, 6_400, 12_800, 25_600, 51_200, 102_400, 204_800,
];
