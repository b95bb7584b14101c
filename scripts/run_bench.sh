#!/bin/sh
# Runs the simulator hot-path benchmark and records the result in
# BENCH_simkernel.json at the repo root, then sweeps the parallel kernel
# over the thread counts and configs listed in bench/parallel_manifest.json
# (the 480-instance fig-scale pair -> results/BENCH_parallel.json, the
# 300-node cluster config -> results/BENCH_cluster.json), all validated
# by tools/validate.py against the same manifest.
#
# The simkernel bench is run REPS times and the run with the fastest
# "mixed" phase is kept (best-of-N: the minimum wall time is the
# measurement least disturbed by other load on the machine). The committed
# results/bench_simkernel_baseline.json holds the pre-optimisation
# numbers the "speedup_mixed" field is computed against.
#
#   scripts/run_bench.sh [REPS]
set -eu

cd "$(dirname "$0")/.."
REPS="${1:-5}"

cmake -B build > /dev/null
cmake --build build --target bench_simkernel -j > /dev/null

best_json=""
best_rate=0
i=0
while [ "$i" -lt "$REPS" ]; do
  i=$((i + 1))
  json="$(./build/bench/bench_simkernel)"
  rate="$(printf '%s\n' "$json" | sed -n 's/.*"mixed".*"events_per_sec": \([0-9]*\).*/\1/p')"
  echo "rep $i/$REPS: mixed ${rate} events/sec"
  if [ "$rate" -gt "$best_rate" ]; then
    best_rate="$rate"
    best_json="$json"
  fi
done

baseline_rate="$(sed -n 's/.*"mixed".*"events_per_sec": \([0-9]*\).*/\1/p' \
  results/bench_simkernel_baseline.json 2>/dev/null || echo 0)"

{
  printf '%s\n' "$best_json" | sed '$d'
  if [ "$baseline_rate" -gt 0 ]; then
    speedup="$(awk "BEGIN { printf \"%.2f\", $best_rate / $baseline_rate }")"
    printf ',\n  "baseline_mixed_events_per_sec": %s,\n' "$baseline_rate"
    printf '  "speedup_mixed": %s,\n' "$speedup"
  else
    printf ',\n'
  fi
  printf '  "reps": %s\n}\n' "$REPS"
} > BENCH_simkernel.json

echo "wrote BENCH_simkernel.json (best mixed: ${best_rate} events/sec," \
     "baseline: ${baseline_rate}, see speedup_mixed)"

# --- parallel kernel sweeps --------------------------------------------------
# Same simulated work at every thread count (the kernel is bit-identical
# to serial); host_cores is recorded because wall-clock speedup is only
# meaningful when the host actually has cores for the partition threads.
# The sweep loop lives in scripts/run_parallel_sweep.sh (shared with CI);
# the (artifact, configs, threads) tuples come from
# bench/parallel_manifest.json — the same file tools/validate.py checks
# the artifacts against — so a new config cannot silently drop out of the
# sweep or the gate.
cmake --build build --target bench_fig21_22_multicast_latency -j > /dev/null

scripts/run_parallel_sweep.sh
