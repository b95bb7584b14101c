#!/bin/sh
# Runs every parallel-kernel sweep listed in bench/parallel_manifest.json
# (the same file tools/validate.py checks each sweep artifact against, so a
# config cannot silently drop out of the sweep or the gate) and writes each
# sweep's artifact, then validates the lot. Assumes
# build/bench/bench_fig21_22_multicast_latency is already built.
#
#   scripts/run_parallel_sweep.sh
set -eu

cd "$(dirname "$0")/.."

host_cores="$(nproc 2>/dev/null || echo 1)"
python3 -c '
import json
for s in json.load(open("bench/parallel_manifest.json"))["sweeps"]:
    print(s["name"], s["artifact"],
          ",".join(str(t) for t in s["threads"]), *s["configs"])
' | while read -r name artifact threads configs; do
  sweep=""
  for t in $(printf '%s\n' "$threads" | tr ',' ' '); do
    echo "parallel sweep [$name]: threads=$t"
    lines="$(./build/bench/bench_fig21_22_multicast_latency \
               --parallel "$t" $configs)"
    while [ -n "$lines" ]; do
      line="$(printf '%s\n' "$lines" | head -n 1)"
      lines="$(printf '%s\n' "$lines" | tail -n +2)"
      [ -n "$line" ] || continue
      if [ -n "$sweep" ]; then sweep="$sweep,
    $line"; else sweep="$line"; fi
    done
  done
  {
    printf '{\n  "bench": "parallel",\n'
    printf '  "sweep_name": "%s",\n' "$name"
    printf '  "host_cores": %s,\n' "$host_cores"
    printf '  "sweep": [\n    %s\n  ]\n}\n' "$sweep"
  } > "$artifact"
  echo "wrote $artifact"
done

python3 tools/validate.py
