#!/usr/bin/env bash
# Full verification gate: release build, test suite, lint wall, doc
# wall.
# Run from the repo root. Any failure aborts. Fresh exports go to a
# temporary directory and are diffed against the committed BENCH_*
# baselines, never written over them; to refresh a baseline on purpose,
# run that leg's command with `--json BENCH_x.json`.
set -euo pipefail
cd "$(dirname "$0")/.."
fresh=$(mktemp -d)
trap 'rm -rf "$fresh"' EXIT

# Polls a live scrape endpoint until its body matches PATTERN, for at
# most 30 s. Fails if the serving process exits before the match, and
# checks it is still alive once the match lands, so the scrape really
# happened mid-run. Usage: scrape_until PID URL PATTERN
scrape_until() {
  local pid=$1 url=$2 pattern=$3 body
  for _ in $(seq 300); do
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "verify: process $pid exited before $url showed $pattern" >&2
      return 1
    fi
    if body=$(curl -sf "$url") && grep -q "$pattern" <<<"$body"; then
      if kill -0 "$pid" 2>/dev/null; then
        return 0
      fi
      echo "verify: process $pid exited while $url was scraped" >&2
      return 1
    fi
    sleep 0.1
  done
  echo "verify: $url did not show $pattern within 30 s" >&2
  return 1
}

cargo build --release --workspace
cargo test -q --workspace
# The benchmark is a package of its own (an empty `[workspace]` table),
# so no workspace leg compiles it; its unit tests fail when a change
# breaks the public API it calls.
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
# Documentation gate: every intra-doc link resolves, unambiguously, and
# no public doc links a private item.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Throughput smoke: the batched-frozen, stride-compiled,
# entropy-compressed and multi-core runtime pipelines must agree exactly
# with the scalar engine (--check aborts on any divergence), and the
# fresh export is diffed against the committed BENCH_throughput.json.
# The perf gates are part of the bar: the stride path must beat the
# frozen batch path on the same (paper-scale table) workload, and the
# shared-nothing runtime's speedup over the sequential reference is
# gated per cause (see --min below): backend_speedup (the 1-worker
# stride runtime over the scalar walk) and scaling_efficiency (the
# runtime at 4 workers over the same runtime at 1). Each floor is the
# lowest of 35 runs on a 2-vCPU VM minus the runs' quartile distance;
# parallel_speedup, their product, is exported but not gated.
# Correctness must hold on every attempt; the relative perf gates get
# three attempts, because a loaded shared box can momentarily deflate
# a multiplier without any code regression.
throughput_ok=0
for attempt in 1 2 3; do
  target/release/clue throughput 100000 1 --threads 4 --check --runtime \
    --json "$fresh/BENCH_throughput.json"
  test -s "$fresh/BENCH_throughput.json"
  grep -q '"equivalent": true' "$fresh/BENCH_throughput.json"
  if grep -q '"stride_beats_batch": true' "$fresh/BENCH_throughput.json" &&
     grep -q '"parallel_scales": true' "$fresh/BENCH_throughput.json" &&
     target/release/clue bench-diff BENCH_throughput.json "$fresh/BENCH_throughput.json" \
       --tolerance 5 --time-tolerance 900 \
       --min backend_speedup=1.56 --min scaling_efficiency=0.59 \
       --max compressed_bytes_per_prefix=8; then
    throughput_ok=1
    break
  fi
  echo "verify: throughput perf gate missed on attempt ${attempt}; retrying" >&2
done
# Regression + floor gate (the bench-diff in the loop): the fresh run
# must stay structurally identical to the committed baseline (same
# keys, same deterministic values), within an order of magnitude on
# the timing keys — a shared CI box is too noisy for tight pps gates,
# but a 10x collapse is a real bug — and the runtime's
# backend_speedup and scaling_efficiency must clear their floors.
[ "$throughput_ok" -eq 1 ]

# Tablegen scale tests only exist in release (the 1M-prefix generation
# and shape checks are #[cfg(not(debug_assertions))]); run them
# explicitly so the modern-DFZ histogram contract is part of the gate.
cargo test -q --release -p clue-tablegen

# Compressed-backend smoke at modern-DFZ scale: build the 1M-prefix
# entropy-compressed engine (deterministic seed), prove it bit-identical
# to the scalar reference on the full workload (--check aborts on any
# divergence), and hold the layout to its budget: the nibble-packed
# arena must stay at or under 8 bytes per prefix (the frozen arena
# spends 3x+ that), with every CRAM key pinned to the committed
# baseline — layout bytes and expected-miss numbers are pure functions
# of the seeded table, so zero tolerance.
target/release/clue throughput 50000 1 --backend compressed --table 1000000 \
  --check --json "$fresh/BENCH_compressed.json"
test -s "$fresh/BENCH_compressed.json"
grep -q '"equivalent": true' "$fresh/BENCH_compressed.json"
target/release/clue bench-diff BENCH_compressed.json "$fresh/BENCH_compressed.json" \
  --tolerance 0 --time-tolerance 100000 --max compressed_bytes_per_prefix=8

# The serving runtime's whole metric family must be registered and
# live in one scrape of the default instrumented workload, and its
# deterministic series must be exact: 2 cores, 2000 packets in 8 jobs
# of 256, one priming clone per core timed once, one staleness sample
# per job. The same scrape must show the simulator's series from its
# 200-packet instrumented run (every packet delivered), the compressed,
# fleet and fault families registered at zero, and the adversarial
# fleet's seeded series: 151 crafted hops within the one-probe bound,
# and every one of the 6 quarantined links re-admitted through
# probation over 12 rounds of 162 directed links.
metrics=$(target/release/clue metrics 2000 1 --prom)
for line in 'clue_runtime_workers 2' 'clue_runtime_packets_total 2000' \
  'clue_runtime_batches_total 8' 'clue_runtime_replica_clones_total 2' \
  'clue_runtime_replica_clone_us_count 2' 'clue_runtime_staleness_epochs_count 8' \
  'clue_netsim_packets_total 200' 'clue_netsim_delivered_total 200' \
  'clue_compressed_packets_total 0' 'clue_fleet_flows_total 0' \
  'clue_fault_injected_total 0' \
  'clue_adversary_attacked_hops_total 151' 'clue_adversary_crafted_clues_total 151' \
  'clue_adversary_bound_violations_total 0' 'clue_adversary_worst_overhead 1' \
  'clue_reputation_batches_observed_total 1944' 'clue_reputation_quarantines_total 6' \
  'clue_reputation_probations_total 6' 'clue_reputation_readmissions_total 6' \
  'clue_reputation_quarantined_links 0'; do
  grep -qx "$line" <<<"$metrics"
done

# Churn smoke: builder + 4 epoch-pinned readers; --check aborts unless
# the final published snapshot is bit-identical to a from-scratch
# freeze of the end-state table. Its epoch, swap and lookup counts
# depend on thread timing, so the export declares them timings; the
# run shape is diffed exactly.
target/release/clue churn 1000 1 --readers 4 --check --json "$fresh/BENCH_churn.json"
test -s "$fresh/BENCH_churn.json"
grep -q '"identical": true' "$fresh/BENCH_churn.json"
target/release/clue bench-diff BENCH_churn.json "$fresh/BENCH_churn.json" \
  --tolerance 0 --time-tolerance 100000
# A route update costs only its chain and each freeze patches the last
# snapshot, so the 1000-update run above ends in well under a second
# and a 20000-update run in about 1.5 s. A 60000-update run (about 4 s
# on a 2-vCPU host) serves the scrape endpoint, and a mid-run curl must
# see live clue_churn_* metrics — the "observable while serving"
# contract, end to end over real HTTP.
target/release/clue churn 60000 1 --readers 4 --check --serve 127.0.0.1:9184 &
CHURN_PID=$!
scrape_until "$CHURN_PID" http://127.0.0.1:9184/metrics '^clue_churn_swaps_total'
scrape_until "$CHURN_PID" http://127.0.0.1:9184/metrics.json '"clue_churn_rebuild_latency_us"'
wait "$CHURN_PID"

# Profile smoke: the per-stage profiler must be semantically inert
# (--check replays every packet through the scalar lookup and each
# compiled backend's one kernel — frozen, stride, compressed, and the
# multi-core network runtime on the frozen backend — under both the
# plain Cost meter and the profiling StageMeter, failing on any
# divergence), and the predicted half of the fresh attribution
# (visits, ticks, bytes) must match the committed baseline exactly —
# only the measured-nanosecond keys are machine-dependent.
target/release/clue profile 20000 1 --check --json "$fresh/BENCH_profile.json"
test -s "$fresh/BENCH_profile.json"
grep -q '"inert": true' "$fresh/BENCH_profile.json"
target/release/clue bench-diff BENCH_profile.json "$fresh/BENCH_profile.json" \
  --tolerance 0 --time-tolerance 100000

# Chaos smoke: a million fault-injected packets spanning every fault
# class must forward bit-identically to the clue-less baseline, and the
# churn leg must survive an injected reader panic (--check aborts on any
# divergence or wedge). The fresh
# run is also diffed against the committed baseline: fault-class
# outcomes are seeded and deterministic, so any drift in the
# non-timing keys is a behaviour change, not noise.
target/release/clue chaos 1000000 1 --check --json "$fresh/BENCH_chaos.json"
test -s "$fresh/BENCH_chaos.json"
grep -q '"divergences": 0' "$fresh/BENCH_chaos.json"
grep -q '"churn_survived": true' "$fresh/BENCH_chaos.json"
target/release/clue bench-diff BENCH_chaos.json "$fresh/BENCH_chaos.json" \
  --tolerance 0 --time-tolerance 100000

# Adversarial chaos smoke: a pure lying-neighbor stream — every clue
# crafted to maximize degraded cost — must still forward bit-identically
# to the clue-less baseline (--check), and the per-class degradation
# counter must be live on the scrape endpoint mid-run.
target/release/clue chaos 2000000 1 --faults lying_neighbor --check \
  --serve 127.0.0.1:9186 &
CHAOS_PID=$!
scrape_until "$CHAOS_PID" http://127.0.0.1:9186/metrics \
  '^clue_fault_lying_neighbor_injected_total'
wait "$CHAOS_PID"

# Fleet smoke: a 1000+-router transit-stub fleet of stride-compiled
# clue engines. --check asserts the sharded flow leg is bit-identical
# to the sequential reference at 1/2/4/8 workers; the churn leg
# republishes engine bundles through per-router epoch cells while
# serving. The scrape server runs alongside and a mid-run curl must
# see live clue_fleet_* metrics. The fresh export is diffed against
# the committed baseline: topology, flow outcomes, per-link clue
# classes and per-hop savings are all seeded and deterministic.
target/release/clue fleet 50000 1 --routers 1024 --threads 4 --check \
  --churn 4 --json "$fresh/BENCH_fleet.json" --serve 127.0.0.1:9185 &
FLEET_PID=$!
scrape_until "$FLEET_PID" http://127.0.0.1:9185/metrics '^clue_fleet_routers'
scrape_until "$FLEET_PID" http://127.0.0.1:9185/metrics.json '"clue_fleet_link_hit_rate_pct"'
wait "$FLEET_PID"
test -s "$fresh/BENCH_fleet.json"
grep -q '"checked": true' "$fresh/BENCH_fleet.json"
grep -q '"dropped": 0' "$fresh/BENCH_fleet.json"
target/release/clue bench-diff BENCH_fleet.json "$fresh/BENCH_fleet.json" \
  --tolerance 0 --time-tolerance 100000

# The held-out fleet seed: the same determinism check on seed 2, with
# no baseline to diff against; every flow must be delivered.
fleet2=$(target/release/clue fleet 20000 2 --routers 1024 --threads 4 --check)
grep -qx 'checked: true' <<<"$fleet2"
grep -qx 'dropped: 0' <<<"$fleet2"

# Adversarial fleet smoke: 8 lying routers at the best-connected
# non-origin positions, each crafting the deepest-mismatch clue per
# packet. --check asserts the whole robustness contract: the +1-probe
# soundness bound on every packet (zero divergences, overhead max 1),
# quarantine within the detection window, re-admission after the
# attack, final-window savings reconverged to the honest fleet, and a
# sound 0..100% participation sweep. Everything but the timing keys is
# seeded and deterministic, so the sweep curve itself is diffed against
# the committed baseline.
target/release/clue fleet 20000 1 --routers 256 --adversaries 8 \
  --attack lying --check --json "$fresh/BENCH_adversarial.json"
test -s "$fresh/BENCH_adversarial.json"
grep -q '"sound": true' "$fresh/BENCH_adversarial.json"
grep -q '"adversary_divergences": 0' "$fresh/BENCH_adversarial.json"
grep -q '"adversary_bound_violations": 0' "$fresh/BENCH_adversarial.json"
target/release/clue bench-diff BENCH_adversarial.json "$fresh/BENCH_adversarial.json" \
  --tolerance 0 --time-tolerance 100000

echo "verify: OK"
