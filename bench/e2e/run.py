#!/usr/bin/env python3
"""Run the end-to-end benchmark: build the harness, run workloads, check them.

    python3 bench/e2e/run.py [--workload NAME]... [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--out FILE]

Builds bench/e2e (Release) into bench/e2e/build, then runs whale_bench once
per workload (every workload when none is named), each in a fresh process
that measures for S seconds (BENCHMARK.json's run_seconds by default). The
harness's metric lines are echoed as they are; the last line of stdout is
one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}, ...}}

With --trace 0 (the default) the metrics are BENCHMARK.json's end_to_end
list, with --trace 1 its per_layer list. When several workloads run, metric
names are prefixed with "<workload>/". --smoke runs the workloads at toy
scale, for a few seconds in all, to check the harness itself. --out appends
one JSON record per workload run (every metric the harness printed, the
checks, the fingerprint) for compare.py.

Exits 0 when every check passed, 1 when a check failed or a metric is
missing (the JSON line is still printed), and 1 without a JSON line when
the harness cannot be built or run.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "whale_bench")
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "whale_bench",
              "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_harness(workload, seed, seconds, layers, smoke):
    """Runs one workload; returns (record, stdout_lines) or None on error."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if layers:
        cmd.append("--layers")
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: harness timed out after {HARNESS_TIMEOUT_S} s")
        return None
    if done.stderr:
        log(done.stderr.rstrip())
    if done.returncode not in (0, 1):
        log(f"{workload}: harness exited with {done.returncode}")
        return None
    rec = {"workload": workload, "seed": seed, "seconds": seconds,
           "pass": "layers" if layers else "end_to_end", "smoke": smoke,
           "metrics": {}, "checks": {}, "fingerprint": None,
           "exit_code": done.returncode}
    lines = done.stdout.splitlines()
    for line in lines:
        parts = line.split()
        if not parts or parts[0] != workload:
            continue
        if len(parts) >= 3 and parts[1] == "check":
            rec["checks"][parts[2]] = len(parts) >= 4 and parts[3] == "ok"
        elif len(parts) == 4 and parts[1] == "fingerprint":
            rec["fingerprint"] = parts[2]
        elif len(parts) == 4:
            rec["metrics"][parts[1]] = {"value": float(parts[2]),
                                        "unit": parts[3]}
    m = rec["metrics"]
    rec["host_cores"] = int(m.get("host_cores", {}).get("value", 0))
    rec["threads"] = int(m.get("threads", {}).get("value", 0))
    rec["attempted"] = int(m.get("attempted", {}).get("value", 0))
    rec["failed"] = int(m.get("failed", {}).get("value", 0))
    return rec, lines


def schema_errors(rec, expected):
    errors = []
    for spec in expected:
        got = rec["metrics"].get(spec["name"])
        if got is None:
            errors.append(f"missing metric {spec['name']}")
        elif got["unit"] != spec["unit"]:
            errors.append(f"{spec['name']}: unit {got['unit']} != "
                          f"{spec['unit']}")
    if not rec["checks"]:
        errors.append("no checks reported")
    if rec["fingerprint"] is None:
        errors.append("no fingerprint reported")
    if rec["attempted"] < 1:
        errors.append("nothing attempted")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    layers = args.trace == 1

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    unknown = [w for w in names if w not in known]
    if unknown:
        log(f"unknown workload(s): {', '.join(unknown)}; known: "
            f"{', '.join(known)}")
        return 1
    if not build():
        log("build failed")
        return 1
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.smoke:
        seconds = 0
    expected = spec["per_layer"] if layers else spec["end_to_end"]

    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in names:
        t0 = time.monotonic()
        got = run_harness(w, args.seed, seconds, layers, args.smoke)
        if got is None:
            return 1
        rec, lines = got
        rec["elapsed_s"] = time.monotonic() - t0
        for line in lines:
            print(line)
        errors = schema_errors(rec, expected)
        for e in errors:
            log(f"{w}: {e}")
        ok = (not errors and rec["exit_code"] == 0
              and all(rec["checks"].values()))
        rec["correct"] = ok
        correct = correct and ok
        attempted += rec["attempted"]
        failed += rec["failed"]
        prefix = "" if len(names) == 1 else w + "/"
        for s in expected:
            if s["name"] in rec["metrics"]:
                metrics[prefix + s["name"]] = rec["metrics"][s["name"]]
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(rec, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
