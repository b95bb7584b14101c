#!/usr/bin/env python3
"""Convert bench outputs (results/*.txt) into per-experiment CSV files.

The bench binaries print one or more tab-separated tables preceded by a
`=== title ===` header and a `paper:` note. This script extracts every
table into results/csv/<bench>[_<n>].csv so the series can be plotted with
any tool.

Metrics snapshot JSON written by the obs layer (tools/obs_probe, or any
engine run with cfg.obs.metrics_enabled — schema in DESIGN.md §9) is also
picked up: every `*.json` under the results dir whose top level carries
`times_ns`/`series` becomes
    csv/<stem>_series.csv      one row per snapshot: time_ns, <series...>
    csv/<stem>_counters.csv    final counter totals (name, value)
    csv/<stem>_histograms.csv  latency histograms (name, count, mean_ns, ...)
Chrome trace JSON (`traceEvents`) is intentionally left alone — load it in
chrome://tracing or ui.perfetto.dev instead. So are the bench artifacts
(results/BENCH_*.json): they are machine-readable as they stand and
tools/validate.py checks them.

Usage: tools/results_to_csv.py [results_dir]
"""
import csv
import json
import pathlib
import sys


def tables_in(text: str):
    """Yields (section_label, rows) for each tab-separated table."""
    label = ""
    rows = []
    for line in text.splitlines():
        if line.startswith("=== "):
            label = line.strip("= ").strip()
            continue
        if line.startswith(("paper:", "[")):
            if line.startswith("["):
                if rows:
                    yield label, rows
                    rows = []
                label = line.strip("[] ")
            continue
        if "\t" in line:
            rows.append(line.split("\t"))
        elif rows:
            yield label, rows
            rows = []
    if rows:
        yield label, rows


def metrics_csvs(doc: dict, out: pathlib.Path, stem: str) -> int:
    """Writes series/counters/histograms CSVs for one metrics JSON doc."""
    written = 0
    times = doc["times_ns"]
    names = sorted(doc["series"])
    with (out / f"{stem}_series.csv").open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["time_ns"] + names)
        for i, t in enumerate(times):
            w.writerow([t] + [doc["series"][n][i] for n in names])
    written += 1
    counters = doc.get("counters_final", {})
    if counters:
        with (out / f"{stem}_counters.csv").open("w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["name", "value"])
            for name in sorted(counters):
                w.writerow([name, counters[name]])
        written += 1
    hists = doc.get("histograms", [])
    if hists:
        cols = ["name", "count", "mean_ns", "p50_ns", "p90_ns", "p99_ns",
                "max_ns"]
        with (out / f"{stem}_histograms.csv").open("w", newline="") as f:
            w = csv.writer(f)
            w.writerow(cols)
            for h in hists:
                w.writerow([h.get(c, "") for c in cols])
        written += 1
    return written


def main() -> int:
    results = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "results")
    out = results / "csv"
    out.mkdir(parents=True, exist_ok=True)
    written = 0
    for txt in sorted(results.glob("*.txt")):
        for i, (label, rows) in enumerate(tables_in(txt.read_text())):
            suffix = f"_{i}" if i else ""
            path = out / f"{txt.stem}{suffix}.csv"
            with path.open("w", newline="") as f:
                w = csv.writer(f)
                if label:
                    w.writerow([f"# {label}"])
                w.writerows(rows)
            written += 1
    for jf in sorted(results.rglob("*.json")):
        try:
            doc = json.loads(jf.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError):
            continue
        if not isinstance(doc, dict):
            continue
        if "times_ns" not in doc or "series" not in doc:
            continue  # not a metrics snapshot file (e.g. a Chrome trace)
        written += metrics_csvs(doc, out, jf.stem)
    print(f"wrote {written} csv files to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
