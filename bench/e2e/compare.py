#!/usr/bin/env python3
"""Compare two sets of benchmark runs recorded with run.py --out.

    python3 bench/e2e/compare.py --agree A.json B.json
    python3 bench/e2e/compare.py PARENT.json CHANGE.json

A set is a JSON-lines file of run records (run.py --out), or a JSON list of
them. Only end-to-end records are compared; metrics, units, directions and
bounds come from BENCHMARK.json at the repository root.

--agree A B checks that two sets of runs of the same code agree. Per
workload and metric it prints each set's median and its spread across
seeds (IQR/median); it fails when a metric's medians differ by more than
its bound, when a spread exceeds its bound (setup_s excepted), or when runs
of the same seed disagree on the fingerprint or any sim_* value.

PARENT CHANGE compares a change against its parent. It needs at least 10
runs per workload on each side, paired by seed; runs should alternate
sides. Each row reports both medians and quartiles. A metric is a gain when the change wins at least 9/10 of the
pairs and the medians differ by more than the parent's IQR; a regression
when the change's median is worse by more than the bound; unresolved when
the parent's spread exceeds the bound (unless every change run beats every
parent run); otherwise unchanged. Exits 1 on any regression.

Both modes refuse runs whose host_cores or thread counts differ.
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))


def load_runs(path):
    with open(path) as f:
        text = f.read().strip()
    if text.startswith("["):
        recs = json.loads(text)
    else:
        recs = [json.loads(line) for line in text.splitlines() if line]
    by_workload = defaultdict(list)
    for r in recs:
        if r.get("pass") == "end_to_end" and not r.get("smoke"):
            by_workload[r["workload"]].append(r)
    return by_workload


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs
            if name in r["metrics"]]


def worse_by(base, new, better):
    """Relative amount by which `new` is worse than `base` (<= 0: not worse)."""
    if base == 0:
        return 0.0
    rel = (new - base) / abs(base)
    return rel if better == "lower" else -rel


def same_host(a, b):
    hosts = {(r["host_cores"], r["threads"]) for r in a + b}
    return len(hosts) == 1, hosts


def agree(set_a, set_b, spec):
    ok = True
    for w in sorted(set(set_a) | set(set_b)):
        a, b = set_a.get(w, []), set_b.get(w, [])
        if not a or not b:
            print(f"{w}: present in only one set")
            ok = False
            continue
        same, hosts = same_host(a, b)
        if not same:
            print(f"{w}: refusing to compare runs from {sorted(hosts)} "
                  "(host_cores, threads)")
            ok = False
            continue
        print(f"\n[{w}] runs: {len(a)} vs {len(b)}")
        print(f"{'metric':28} {'median A':>14} {'median B':>14} "
              f"{'IQR/med A':>10} {'IQR/med B':>10} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va, vb = values(a, name), values(b, name)
            if not va or not vb:
                print(f"{name:28} missing")
                ok = False
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            problems = []
            if abs(worse_by(ma, mb, m["better"])) > bound:
                problems.append("medians differ")
            if name != "setup_s" and max(sa, sb) > bound:
                problems.append("spread")
            ok = ok and not problems
            print(f"{name:28} {ma:14.6g} {mb:14.6g} {sa:10.4f} {sb:10.4f} "
                  f"{bound:6.3f}  {', '.join(problems) or 'ok'}")
        # Same seed, same code: everything simulated must repeat exactly.
        by_seed_b = {r["seed"]: r for r in b}
        for r in a:
            other = by_seed_b.get(r["seed"])
            if other is None:
                continue
            if r["fingerprint"] != other["fingerprint"]:
                print(f"seed {r['seed']}: fingerprint {r['fingerprint']} != "
                      f"{other['fingerprint']}")
                ok = False
            for name, v in r["metrics"].items():
                if not name.startswith("sim_"):
                    continue
                if other["metrics"].get(name, {}).get("value") != v["value"]:
                    print(f"seed {r['seed']}: {name} differs")
                    ok = False
    print("\nagree: " + ("yes" if ok else "NO"))
    return ok


def parent_vs_change(parent, change, spec):
    regressions = 0
    for w in sorted(set(parent) | set(change)):
        p, c = parent.get(w, []), change.get(w, [])
        same, hosts = same_host(p, c)
        if not same:
            print(f"{w}: refusing to compare runs from {sorted(hosts)} "
                  "(host_cores, threads)")
            return False
        c_by_seed = {r["seed"]: r for r in c}
        pairs = [(r, c_by_seed[r["seed"]]) for r in p
                 if r["seed"] in c_by_seed]
        if len(pairs) < 10:
            print(f"{w}: {len(pairs)} seed-paired runs; at least 10 needed")
            return False
        print(f"\n[{w}] pairs: {len(pairs)}")
        print(f"{'metric':28} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'wins':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            vp = [x["metrics"][name]["value"] for x, _ in pairs]
            vc = [y["metrics"][name]["value"] for _, y in pairs]
            pq, cq = quartiles(vp), quartiles(vc)
            wins = 0
            for x, y in zip(vp, vc):
                if x != y and (y < x) == (better == "lower"):
                    wins += 1
            gap = abs(cq[1] - pq[1])
            iqr = pq[2] - pq[0]
            change_better = worse_by(pq[1], cq[1], better) < 0
            all_better = (max(vc) < min(vp) if better == "lower"
                          else min(vc) > max(vp))
            if change_better and wins >= 0.9 * len(pairs) and gap > iqr:
                verdict = "gain"
            elif worse_by(pq[1], cq[1], better) > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif spread(vp) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"{name:28} {fmt(pq):>32} {fmt(cq):>32} "
                  f"{wins:>3}/{len(pairs):<2}  {verdict}")
    return regressions == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--agree", action="store_true")
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    a, b = load_runs(args.a), load_runs(args.b)
    ok = agree(a, b, spec) if args.agree else parent_vs_change(a, b, spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
