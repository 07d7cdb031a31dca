#!/usr/bin/env bash
# CI perf gate: run the read_parallel bench at the committed baseline's row
# count and compare cold-read throughput against the checked-in snapshot
# (BENCH_read_parallel.json at the repo root). Fails when throughput drops
# more than 20%. Skips cleanly when no baseline is committed — run the bench
# once and commit its snapshot to arm the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=BENCH_read_parallel.json
BUDGET=0.8 # new throughput must be >= BUDGET * baseline throughput

# Pull one numeric gauge out of a bench snapshot without a JSON tool: split
# on commas/braces, find the quoted key, strip everything up to the colon.
# Missing keys print nothing (the `|| true` keeps grep's miss from tripping
# `set -o pipefail` — callers probe optional keys like the host fingerprint).
val() { # file key
  tr ',{' '\n\n' <"$1" | grep -F "\"$2\":" | head -1 | sed 's/.*://; s/[}"]//g' || true
}

# Reclaim-throughput smoke: always runs (no baseline needed). The bin
# itself asserts the pass lands under budget; the gate just checks the
# pass finished and reported a positive reclaim rate.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
echo "== reclaim bench smoke (rows=2000, 2 pipelines) =="
MISTIQUE_BENCH_DIR="$smoke" cargo run --release -q -p mistique-bench --bin reclaim -- \
  --rows 2000 --pipelines 2 --reps 1
rate=$(val "$smoke/BENCH_reclaim.json" bench.reclaim.bytes_per_sec)
awk -v rate="$rate" 'BEGIN {
  if (rate + 0 <= 0) { print "FAIL: reclaim pass reported no reclaimed bytes"; exit 1 }
  printf "OK: reclaim pass sustained %.0f B/s\n", rate
}'

# Indexed top-k smoke: always runs (no baseline needed). The bin asserts
# indexed and scan answers are bit-identical; the gate checks the
# max-activation list actually beat the column scan. At any scale the list
# answers from memory while the scan decodes the column, so a speedup at or
# below 1x means the indexed path silently fell back to scanning.
echo "== topk_index bench smoke (examples=2000) =="
MISTIQUE_BENCH_DIR="$smoke" cargo run --release -q -p mistique-bench --bin topk_index -- \
  --examples 2000 --reps 3
topk_speedup=$(val "$smoke/BENCH_topk_index.json" bench.topk_index.topk_speedup)
awk -v s="$topk_speedup" 'BEGIN {
  if (s + 0 <= 1) { print "FAIL: indexed top-k did not beat the column scan"; exit 1 }
  printf "OK: indexed top-k %.1fx over the scan\n", s
}'

# Delta-dedup smoke: always runs (no baseline needed). The bin asserts the
# sweep's reads come back bit-identical at read_parallelism 1/2/4/0 and that
# the reduction clears 1.5x; the gate re-checks the snapshot so a bin that
# silently stopped asserting still fails here.
echo "== delta_dedup bench smoke (4 layers x 4096 values x 6 epochs) =="
MISTIQUE_BENCH_DIR="$smoke" cargo run --release -q -p mistique-bench --bin delta_dedup -- \
  --layers 4 --values 4096 --epochs 6
delta_ratio=$(val "$smoke/BENCH_delta_dedup.json" bench.delta_dedup.ratio)
awk -v r="$delta_ratio" 'BEGIN {
  if (r + 0 <= 1) { print "FAIL: base+delta frames did not reduce stored bytes"; exit 1 }
  printf "OK: delta store %.2fx smaller than raw\n", r
}'

# Capture/replay smoke: always runs (no baseline needed). `demo` captures a
# mixed TRAD/DNN workload into the audit journal; `replay --differential`
# re-executes it at read_parallelism 1/2/4/0 and exits nonzero unless every
# leg produces bit-identical answers and identical plan choices. `--bench`
# writes BENCH_replay.json with the measured capture overhead.
echo "== audit capture/replay differential smoke =="
cargo run --release -q -p mistique-core --bin mistique -- demo "$smoke/demo_store"
cargo run --release -q -p mistique-core --bin mistique -- replay "$smoke/demo_store" \
  --differential --bench "$smoke/BENCH_replay.json"
consistent=$(val "$smoke/BENCH_replay.json" differential_consistent)
overhead=$(val "$smoke/BENCH_replay.json" capture_overhead_pct)
awk -v c="$consistent" -v o="$overhead" 'BEGIN {
  if (c + 0 != 1) { print "FAIL: differential replay diverged"; exit 1 }
  printf "OK: differential replay consistent; capture overhead %.2f%%\n", o
  if (o + 0 > 5) printf "WARN: capture overhead %.2f%% exceeds the 5%% budget on this host\n", o
}'

if [[ ! -f "$BASELINE" ]]; then
  echo "no committed $BASELINE — skipping perf gate"
  exit 0
fi

base_rows=$(val "$BASELINE" bench.read_parallel.rows)
base_ms=$(val "$BASELINE" bench.read_parallel.serial_ms)
if [[ -z "$base_rows" || -z "$base_ms" ]]; then
  echo "malformed $BASELINE (missing rows/serial_ms gauges) — skipping perf gate"
  exit 0
fi

# Host fingerprint: a baseline captured on a machine with a different core
# count is not comparable (cold-read wall clock tracks the memory subsystem
# and CPU generation, which core count proxies). Skip rather than flag a
# phantom regression. Older baselines carried the count only under the
# bench-specific gauge, so try both names.
host_cpus=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo "")
base_cpus=$(val "$BASELINE" host.cpus)
[[ -z "$base_cpus" ]] && base_cpus=$(val "$BASELINE" bench.read_parallel.host_cpus)
if [[ -z "$base_cpus" ]]; then
  echo "baseline carries no host.cpus fingerprint — skipping perf gate"
  exit 0
fi
if [[ -z "$host_cpus" || "$base_cpus" != "$host_cpus" ]]; then
  echo "host fingerprint mismatch (baseline: ${base_cpus} cpus, here: ${host_cpus:-unknown}) — skipping perf gate"
  exit 0
fi

out=$(mktemp -d)
trap 'rm -rf "$out" "$smoke"' EXIT

echo "== read_parallel bench (rows=$base_rows, reps=3, workers=4) =="
MISTIQUE_BENCH_DIR="$out" cargo run --release -q -p mistique-bench --bin read_parallel -- \
  --rows "$base_rows" --reps 3 --workers 4

new_ms=$(val "$out/BENCH_read_parallel.json" bench.read_parallel.serial_ms)

# Config fingerprint: snapshots stamp a hash of every engine knob that
# shapes measured behaviour (block size, storage strategy, placement policy,
# read fan-out, …). A baseline captured under a different configuration is
# not comparable — refuse the comparison rather than flag a phantom
# regression (or mask a real one). Baselines older than the fingerprint
# gauge gate on the host check alone.
base_cfg=$(val "$BASELINE" config.fingerprint)
new_cfg=$(val "$out/BENCH_read_parallel.json" config.fingerprint)
if [[ -n "$base_cfg" && -n "$new_cfg" && "$base_cfg" != "$new_cfg" ]]; then
  echo "config fingerprint mismatch (baseline: ${base_cfg}, here: ${new_cfg}) — refusing to compare perf across configurations"
  exit 0
fi

# Gate on the serial cold read: it is the stable number across CI hosts
# (parallel speedup depends on the runner's core count).
awk -v rows="$base_rows" -v base_ms="$base_ms" -v new_ms="$new_ms" -v budget="$BUDGET" 'BEGIN {
  base_tp = rows / base_ms
  new_tp  = rows / new_ms
  ratio   = new_tp / base_tp
  printf "cold-read throughput: baseline %.0f rows/ms (%.2f ms), current %.0f rows/ms (%.2f ms), ratio %.2f\n",
         base_tp, base_ms, new_tp, new_ms, ratio
  if (ratio < budget) {
    printf "FAIL: cold-read throughput regressed more than %.0f%% vs the committed baseline\n", (1 - budget) * 100
    exit 1
  }
  printf "OK: within the %.0f%% regression budget\n", (1 - budget) * 100
}'

# Parallel-speedup gate: on a multi-core host the parallel cold read must
# not lose to the serial path. The adaptive fan-out clamps workers to the
# host CPUs and batch size, so any speedup below 0.95 on a host with more
# than one core is a real regression, not scheduling noise.
new_speedup=$(val "$out/BENCH_read_parallel.json" bench.read_parallel.speedup)
awk -v cpus="${host_cpus:-1}" -v speedup="$new_speedup" 'BEGIN {
  if (cpus + 0 <= 1) {
    print "single-CPU host: parallel-speedup gate not applicable"
    exit 0
  }
  if (speedup + 0 <= 0) {
    print "FAIL: read_parallel snapshot carries no bench.read_parallel.speedup gauge"
    exit 1
  }
  printf "parallel speedup on %d cpus: %.2fx\n", cpus, speedup
  if (speedup < 0.95) {
    print "FAIL: parallel cold read is slower than serial (speedup < 0.95) on a multi-core host"
    exit 1
  }
  print "OK: parallel read path at least matches serial"
}'
