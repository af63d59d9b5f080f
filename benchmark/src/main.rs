//! The repository benchmark: four serving workloads driven through the
//! public entry points that serve traffic, end-to-end metrics measured
//! with tracing off, and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload dfz-forward --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Inputs are generated from `--seed` with `clue_tablegen` before any
//! set-up starts. Every output is checked against an oracle outside the
//! timed region. Human-readable lines go to stdout first; the last line
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `benchmark/README.md` for the workload
//! rationale and the layer → end-to-end map.

mod backbone;
mod churn;
mod dfz;
mod fleet;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use trace::Tracer;

/// The end-to-end metrics every workload reports: `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("refs_per_packet", "refs"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run: `(name, unit)`.
const PER_LAYER: [(&str, &str); 48] = [
    ("core.engine.precompute_s", "s"),
    ("core.engine.apply_us", "us"),
    ("core.frozen.freeze_s", "s"),
    ("core.frozen.rebuild_p50_ms", "ms"),
    ("core.frozen.rebuild_p90_ms", "ms"),
    ("core.frozen.churn_lookup_ns", "ns"),
    ("core.frozen.lookup_ns", "ns"),
    ("core.frozen.bytes_per_prefix", "B"),
    ("core.compressed.compile_s", "s"),
    ("core.compressed.lookup_ns", "ns"),
    ("core.compressed.bytes_per_prefix", "B"),
    ("core.compressed.burst_p50_ns", "ns"),
    ("core.compressed.burst_p99_ns", "ns"),
    ("core.lookup.final_ratio", "ratio"),
    ("core.lookup.final_ns", "ns"),
    ("core.lookup.continued_ns", "ns"),
    ("core.lookup.full_ns", "ns"),
    ("core.epoch.publish_us", "us"),
    ("core.epoch.pin_ns", "ns"),
    ("netsim.runtime.compile_s", "s"),
    ("netsim.runtime.replica_clone_ms", "ms"),
    ("netsim.runtime.serve.busy_ratio", "ratio"),
    ("netsim.runtime.serve.backpressure_per_job", "count"),
    ("netsim.runtime.walk.busy_ratio", "ratio"),
    ("netsim.runtime.walk.backpressure_per_job", "count"),
    ("netsim.runtime.ns_per_hop", "ns"),
    ("netsim.runtime.hops_per_packet", "hops"),
    ("netsim.runtime.clue_hop_ratio", "ratio"),
    ("netsim.runtime.frozen.ns_per_hop", "ns"),
    ("netsim.runtime.stride.ns_per_hop", "ns"),
    ("netsim.runtime.compressed.ns_per_hop", "ns"),
    ("netsim.fleet.build_s", "s"),
    ("netsim.fleet.ns_per_hop", "ns"),
    ("netsim.fleet.hops_per_flow", "hops"),
    ("netsim.fleet.lookups_per_hop", "ratio"),
    ("netsim.fleet.clue_hit_ratio", "ratio"),
    ("netsim.fleet.problematic_ratio", "ratio"),
    ("netsim.fleet.savings", "ratio"),
    ("netsim.churn.epochs", "count"),
    ("netsim.churn.stale_fraction", "ratio"),
    ("netsim.churn.max_staleness", "epochs"),
    ("netsim.churn.reader_pps", "lookups/s"),
    ("netsim.churn.replay_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.setup_s_overhead", "ratio"),
    ("trace.ops_per_s_overhead", "ratio"),
    ("trace.refs_per_packet_overhead", "ratio"),
    ("trace.peak_rss_mb_overhead", "MB"),
];

/// Knobs of one measured run of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seconds the closed serving loop runs for.
    pub seconds: f64,
    /// Set-ups per run (at least); `setup_s` is their median.
    pub setup_reps: usize,
    /// Seconds the set-ups are repeated for (at least).
    pub setup_seconds: f64,
    /// Worker threads of the serving drivers.
    pub workers: usize,
}

/// One run of a workload: its knobs, the tracer its spans go to, and
/// whether the per-layer probes run after it.
pub struct Run<'t> {
    pub config: Config,
    pub tracer: &'t Tracer,
    pub probe: bool,
}

/// What one run measured end to end.
#[derive(Debug, Clone, Default)]
pub struct E2e {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub refs_per_packet: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Per-layer metric values by name.
pub type Layer = BTreeMap<&'static str, f64>;

/// The runtime's per-core attribution of one serving call: busy
/// nanoseconds summed over cores, their share of workers × timed wall,
/// and empty-or-full channel polls per job.
pub struct CoreTotals {
    pub busy_ns: f64,
    pub busy_ratio: f64,
    pub backpressure_per_job: f64,
}

impl CoreTotals {
    pub fn of(cores: &[clue_netsim::CoreStats], elapsed_ns: u64) -> Self {
        let busy: u64 = cores.iter().map(|c| c.busy_ns).sum();
        let backpressure: u64 = cores.iter().map(|c| c.backpressure).sum();
        let jobs: u64 = cores.iter().map(|c| c.batches).sum();
        CoreTotals {
            busy_ns: busy as f64,
            busy_ratio: busy as f64 / (cores.len().max(1) as f64 * elapsed_ns.max(1) as f64),
            backpressure_per_job: backpressure as f64 / jobs.max(1) as f64,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DfzForward,
    BackboneWalk,
    FleetWalk,
    BgpChurn,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::DfzForward,
        Workload::BackboneWalk,
        Workload::FleetWalk,
        Workload::BgpChurn,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::DfzForward => "dfz-forward",
            Workload::BackboneWalk => "backbone-walk",
            Workload::FleetWalk => "fleet-walk",
            Workload::BgpChurn => "bgp-churn",
        }
    }

    fn bench(self, seed: u64, runs: &[Run<'_>], layer: &mut Layer) -> Vec<E2e> {
        for run in runs {
            run.tracer.set_workload(self.name());
        }
        match self {
            Workload::DfzForward => dfz::bench(seed, runs, layer),
            Workload::BackboneWalk => backbone::bench(seed, runs, layer),
            Workload::FleetWalk => fleet::bench(seed, runs, layer),
            Workload::BgpChurn => churn::bench(seed, runs, layer),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// The default workload seed and the held-out seed kept for checking a
/// claimed gain on inputs it was not tuned on.
const DEFAULT_SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 2;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 12.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_owned());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: --workload <{}> --seed N --seconds S --trace 0|1",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One core dispatches (or builds), the rest serve.
    let workers = nproc.saturating_sub(1).max(1);
    println!(
        "workload {} seed {} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) seconds {} \
         trace {} nproc {nproc} workers {workers}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let config = Config {
        seconds: args.seconds,
        setup_reps: 3,
        setup_seconds: 2.0,
        workers,
    };
    let (e2e, metrics) = if args.trace {
        traced(&args, config)
    } else {
        let off = Tracer::new(false);
        let runs = [Run {
            config,
            tracer: &off,
            probe: false,
        }];
        let e2e = args
            .workload
            .bench(args.seed, &runs, &mut Layer::new())
            .remove(0);
        let rss = stats::peak_rss_mb().unwrap_or(f64::NAN);
        let values = [e2e.setup_s, e2e.ops_per_s, e2e.refs_per_packet, rss];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect();
        (e2e, metrics)
    };
    emit(&e2e, &metrics)
}

/// The traced run: the selected workload once with tracing off and
/// once with it on (their difference is the tracing overhead), then
/// every other workload traced, each followed by its layer probes —
/// so every per-layer metric is measured on the workload it belongs
/// to, whichever workload was asked for.
fn traced(args: &Args, config: Config) -> (E2e, Vec<(&'static str, f64, &'static str)>) {
    let tracer = Tracer::new(true);
    let off = Tracer::new(false);
    let mut layer = Layer::new();
    let mut total = E2e::default();
    let half = Config {
        seconds: (args.seconds / 2.0).max(1.0),
        ..config
    };
    let sweep = Config {
        seconds: 1.0,
        setup_reps: 1,
        setup_seconds: 0.0,
        ..config
    };
    for w in Workload::ALL {
        let e2e = if w == args.workload {
            let runs = [
                Run {
                    config: half,
                    tracer: &off,
                    probe: false,
                },
                Run {
                    config: half,
                    tracer: &tracer,
                    probe: true,
                },
            ];
            let out = w.bench(args.seed, &runs, &mut layer);
            let (plain, traced) = (&out[0], &out[1]);
            let rel = |t: f64, p: f64| (t - p) / p;
            layer.insert("trace.setup_s_overhead", rel(traced.setup_s, plain.setup_s));
            layer.insert(
                "trace.ops_per_s_overhead",
                rel(traced.ops_per_s, plain.ops_per_s),
            );
            layer.insert(
                "trace.refs_per_packet_overhead",
                rel(traced.refs_per_packet, plain.refs_per_packet),
            );
            let mut sum = out[0].clone();
            sum.attempted += out[1].attempted;
            sum.failed += out[1].failed;
            sum
        } else {
            w.bench(
                args.seed,
                &[Run {
                    config: sweep,
                    tracer: &tracer,
                    probe: true,
                }],
                &mut layer,
            )
            .remove(0)
        };
        total.attempted += e2e.attempted;
        total.failed += e2e.failed;
    }
    layer.insert("trace.spans", tracer.span_count() as f64);
    // Tracing holds no memory but its span buffer.
    layer.insert(
        "trace.peak_rss_mb_overhead",
        tracer.buffer_bytes() as f64 / (1 << 20) as f64,
    );

    let dir = std::path::Path::new(".bench_traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json())) {
        Ok(()) => println!("wrote {} spans to {}", tracer.span_count(), path.display()),
        Err(e) => println!("could not write spans to {}: {e}", path.display()),
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(n, u)| (n, layer.get(n).copied().unwrap_or(f64::NAN), u))
        .collect();
    (total, metrics)
}

/// Prints the result line; fails on a missing or non-finite metric and
/// on any failed operation.
fn emit(e2e: &E2e, metrics: &[(&'static str, f64, &'static str)]) -> ExitCode {
    let missing: Vec<&str> = metrics
        .iter()
        .filter(|(_, v, _)| !v.is_finite())
        .map(|(n, _, _)| *n)
        .collect();
    if !missing.is_empty() {
        eprintln!("benchmark: no finite value for {}", missing.join(", "));
        return ExitCode::FAILURE;
    }
    let correct = e2e.failed == 0 && e2e.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        e2e.attempted,
        e2e.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "benchmark: {} of {} operations failed",
            e2e.failed, e2e.attempted
        );
        ExitCode::FAILURE
    }
}
