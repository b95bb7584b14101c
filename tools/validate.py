#!/usr/bin/env python3
"""Validate the bench artifacts and the obs_probe output.

Usage: tools/validate.py [PATH...]

Each PATH is a bench JSON artifact, checked by the rules for its `bench`
tag, or a directory holding obs_probe's trace.json and metrics.json. With
no PATH, every committed artifact is checked: BENCH_simkernel.json,
results/BENCH_checkpoint.json, results/BENCH_elastic.json,
results/BENCH_skew.json and every sweep artifact listed in
bench/parallel_manifest.json. A missing artifact is a failure, never a
skip. Stdlib only; exits non-zero on the first failed check.

simkernel (bench_simkernel, recorded by scripts/run_bench.sh):
  - both phases (mixed, engine) carry every field as a number and
    simulated at least one event
  - the mixed phase is allocation-free (allocs_per_event == 0): the
    kernel schedules from its slab and heap alone
  - speedup_mixed is the mixed events_per_sec over
    baseline_mixed_events_per_sec, to two decimals

checkpoint_recovery (bench_checkpoint_recovery):
  - top-level schema: bench tag, config, interval_sweep, overhead,
    remote_state, vs_acker
  - interval_sweep: non-empty, distinct ascending intervals; every row has
    the common + checkpoint fields as numbers; exactly one recovery per
    crash row; epochs complete at every interval; exactly-once holds
    (duplicates == 0) and nothing stays missing after the spout-log replay
  - overhead: the checkpoint-off and checkpoint-on fault-free runs deliver
    identical goodput (the barrier machinery must be cheap), and the
    recorded goodput_overhead_frac is within tolerance
  - remote_state: the staged backend comparison at 25ms — every row stays
    exactly-once through the crash; the remote rows post one-sided WRITEs
    and register memory regions; incremental deltas cut the per-epoch
    snapshot bytes at least 5x; unaligned barriers capture in-flight
    channel state and shrink the alignment stall
  - vs_acker: the acker-only replay duplicates sink applications (at-least
    -once) while the checkpointed run stays exactly-once

elastic (bench_elastic):
  - top-level schema: bench tag, config, episodes, conservation, summary
  - episodes: at least 4 executed rescales with at least one in each
    direction; every episode moves parallelism by exactly the recorded
    edge within the configured [min, max] bounds, carries a positive
    migration stall, and cutover times are strictly ascending
  - conservation: recovery-free exactly-once across every migration —
    emitted == applied_once, zero duplicates, zero losses, zero stale
    deliveries at retired instances, zero checkpoint recoveries, and
    lossless queues (any reject would void the ledger)
  - summary: episode counts match the per-direction totals, the spawn /
    retire census matches the episode edges, migration stall totals are
    consistent with the episode stalls, keyed state actually moved, and
    the controller genuinely polled

skew (bench_skew):
  - top-level schema: bench tag, config, sweep, acceptance
  - sweep: every (zipf, strategy) combination appears exactly once for the
    three strategies {fields, partial_key, po2c}; every row has numeric
    load/latency fields; routed traffic is non-zero; no queue rejects
    (routing, not backpressure, must shape the loads); imbalance is
    internally consistent (== max/avg within tolerance, >= 1)
  - skew responds: fields-grouping imbalance at the highest zipf exceeds
    its uniform (lowest-zipf) value
  - acceptance: at zipf 1.1 Partial Key Grouping spreads load strictly
    better than fields grouping, and the recorded pkg_improves flag agrees
    with the numbers

parallel (bench_fig21_22_multicast_latency sweeps):
  bench/parallel_manifest.json is the single source of truth for which
  (artifact, configs, threads) tuples exist: scripts/run_parallel_sweep.sh
  runs exactly those sweeps, and an artifact is checked against the
  manifest sweep its `sweep_name` names, so a config cannot silently drop
  out of either side.
  - the artifact parses and carries the expected tags
  - every (config, threads) point from the manifest appears exactly once;
    every row has numeric events/wall/rate fields
  - determinism: within a config, `events` AND the fingerprint digest `fp`
    are identical at every thread count (the parallel kernel is
    bit-identical to serial)
  - engagement: threads=1 stays serial (num_partitions 0); threads>=2
    engages with num_partitions >= the manifest's min_partitions
  - speedup gate (when the manifest sets one and the recording host has
    >= 4 cores): at least one config must reach the gate at 4 threads vs
    1. On smaller hosts the wall-clock columns carry no parallelism signal
    (the partitions time-slice one core), so the gate is reported as
    skipped rather than silently passed.

obs directory (tools/obs_probe):
  trace.json    parses as Chrome trace_event JSON; the tuple lifecycle is
                present (spout.emit, serialize, rdma_transfer, relay.forward,
                dispatch, sink spans); the fault plan's firings are
                instants in category 'fault', and fault.crash,
                fault.restart, fault.link_degrade, fault.relay_stall and
                fault.relay_unstall each fire at least once (the probe's
                link restores fall after its run ends); at least one
                repair episode (mcast.repair complete span) and one d*
                switch (mcast.switch complete span) are recorded, each kind
                of tree change with a positive duration; at least one
                repair and one restore instant, each with a numeric
                'moves' arg; complete events carry numeric ts/dur >= 0.
  metrics.json  parses against the schema in DESIGN.md §9; snapshot times
                are strictly increasing and spaced by snapshot_interval_ns;
                the controller input series (src.transfer_queue,
                src.in_queue) exist; every series has one value per
                snapshot; final counters include the conservation ledger.
"""
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "bench" / "parallel_manifest.json"
COMMITTED = ("BENCH_simkernel.json", "results/BENCH_checkpoint.json",
             "results/BENCH_elastic.json", "results/BENCH_skew.json")


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    raise SystemExit(1)


def load_json(path: pathlib.Path):
    if not path.exists():
        fail(f"{path} does not exist")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")


def require_numbers(row: dict, fields, where: str) -> None:
    for f in fields:
        if f not in row:
            fail(f"{where} missing field '{f}'")
        if not isinstance(row[f], (int, float)) or isinstance(row[f], bool):
            fail(f"{where} field '{f}' is not numeric: {row[f]!r}")


def require_keys(doc: dict, keys) -> None:
    for key in keys:
        if key not in doc:
            fail(f"missing top-level '{key}'")


# --- simkernel ------------------------------------------------------------------

SIMKERNEL_PHASE_FIELDS = ("events", "wall_ms", "events_per_sec",
                          "ns_per_event", "allocs_per_event",
                          "alloc_bytes_per_event")


def check_simkernel(doc: dict) -> str:
    require_keys(doc, ("phases",))
    phases = doc["phases"]
    for name in ("mixed", "engine"):
        if not isinstance(phases, dict) or name not in phases:
            fail(f"phases missing '{name}'")
        require_numbers(phases[name], SIMKERNEL_PHASE_FIELDS,
                        f"phases.{name}")
        if phases[name]["events"] <= 0:
            fail(f"phases.{name} simulated no events")
    mixed = phases["mixed"]
    if mixed["allocs_per_event"] != 0:
        fail(f"phases.mixed allocs_per_event {mixed['allocs_per_event']} "
             "!= 0: the kernel allocated on its hot path")
    require_numbers(doc, ("baseline_mixed_events_per_sec", "speedup_mixed"),
                    "simkernel")
    baseline = doc["baseline_mixed_events_per_sec"]
    if baseline <= 0:
        fail(f"baseline_mixed_events_per_sec {baseline} is not positive")
    ratio = f"{mixed['events_per_sec'] / baseline:.2f}"
    if f"{doc['speedup_mixed']:.2f}" != ratio:
        fail(f"speedup_mixed {doc['speedup_mixed']} != mixed "
             f"events_per_sec / baseline = {ratio}")
    return (f"mixed {mixed['ns_per_event']} ns/event, 0 allocs, "
            f"{doc['speedup_mixed']}x the baseline")


# --- checkpoint_recovery ------------------------------------------------------

COMMON_FIELDS = (
    "sink_tps", "mcast_tps", "recovery_ms", "emitted", "duplicates",
    "missing", "queue_rejects", "tuples_lost",
)
CHECKPOINT_FIELDS = (
    "epochs_completed", "epochs_aborted", "barriers", "checkpoint_bytes",
    "committed_completions", "duplicates_filtered", "recoveries",
    "checkpoint_replays", "align_stall_ms", "epoch_duration_ms",
)
REMOTE_FIELDS = (
    "snapshot_full_bytes", "dirty_cells", "clean_cells", "remote_writes",
    "remote_write_bytes", "remote_reads", "remote_read_bytes", "mr_regions",
    "mr_region_bytes", "mr_region_grows", "channel_tuples_captured",
    "channel_bytes", "channel_replays",
)


def check_interval_sweep(sweep) -> None:
    if not isinstance(sweep, list) or not sweep:
        fail("interval_sweep must be a non-empty list")
    intervals = []
    for row in sweep:
        require_numbers(row, ("interval_ms",) + COMMON_FIELDS +
                        CHECKPOINT_FIELDS,
                        f"interval_sweep[{len(intervals)}]")
        intervals.append(row["interval_ms"])
        where = f"interval {row['interval_ms']}ms"
        if row["epochs_completed"] <= 0:
            fail(f"{where}: no epoch ever committed")
        if row["recoveries"] != 1:
            fail(f"{where}: expected exactly one checkpoint recovery, "
                 f"got {row['recoveries']}")
        if row["checkpoint_replays"] <= 0:
            fail(f"{where}: crash run replayed nothing from the epoch log")
        if row["duplicates"] != 0:
            fail(f"{where}: exactly-once violated — {row['duplicates']} "
                 "duplicate sink applications")
        if row["missing"] != 0:
            fail(f"{where}: {row['missing']} sink applications missing "
                 "after replay")
        if row["recovery_ms"] < 0:
            fail(f"{where}: throughput never recovered after the crash")
    if intervals != sorted(intervals) or len(set(intervals)) != len(intervals):
        fail(f"intervals must be distinct and ascending: {intervals}")
    print(f"  interval_sweep  ok: {len(sweep)} intervals "
          f"{intervals}, exactly-once at every point")


def check_overhead(overhead) -> None:
    for name in ("off", "on"):
        if name not in overhead:
            fail(f"overhead missing scenario '{name}'")
        require_numbers(overhead[name], COMMON_FIELDS + ("wall_ms", "events"),
                        f"overhead/{name}")
    require_numbers(overhead["on"], CHECKPOINT_FIELDS, "overhead/on")
    frac = overhead.get("goodput_overhead_frac")
    if not isinstance(frac, (int, float)):
        fail("overhead missing goodput_overhead_frac")
    if abs(frac) > 0.02:
        fail(f"checkpoint-on goodput overhead {frac:+.3f} exceeds 2% "
             "(barriers should be within noise)")
    if overhead["on"]["epochs_completed"] <= 0:
        fail("fault-free checkpoint run committed no epochs")
    if overhead["on"]["recoveries"] != 0:
        fail("fault-free run should not recover")
    print(f"  overhead        ok: goodput overhead {frac:+.3f}")


def check_remote_state(rs) -> None:
    rows = ("aligned_full_local", "remote_full", "remote_incremental",
            "remote_incremental_unaligned")
    for name in rows:
        if name not in rs:
            fail(f"remote_state missing scenario '{name}'")
        row = rs[name]
        where = f"remote_state/{name}"
        require_numbers(row, COMMON_FIELDS + CHECKPOINT_FIELDS, where)
        if row["duplicates"] != 0 or row["missing"] != 0:
            fail(f"{where}: exactly-once violated "
                 f"(duplicates={row['duplicates']}, missing={row['missing']})")
        if row["recoveries"] != 1:
            fail(f"{where}: expected exactly one recovery, "
                 f"got {row['recoveries']}")
        if row["epochs_completed"] <= 0:
            fail(f"{where}: no epoch ever committed")
        if name != "aligned_full_local":
            require_numbers(row, REMOTE_FIELDS, where)
            if row["remote_writes"] <= 0 or row["mr_regions"] <= 0:
                fail(f"{where}: backend on but no one-sided writes / "
                     "registered regions")
            if row["remote_reads"] <= 0:
                fail(f"{where}: recovery never read the host images")
    unal = rs["remote_incremental_unaligned"]
    if unal["channel_tuples_captured"] <= 0:
        fail("unaligned row captured no in-flight channel state")
    if unal["align_stall_ms"] >= rs["aligned_full_local"]["align_stall_ms"]:
        fail("unaligned barriers did not reduce the alignment stall")
    summary = rs.get("summary")
    if not isinstance(summary, dict):
        fail("remote_state missing summary")
    require_numbers(summary, ("bytes_per_epoch_full",
                              "bytes_per_epoch_incremental",
                              "bytes_reduction_x", "align_stall_full_ms",
                              "align_stall_unaligned_ms",
                              "align_stall_reduction_x"),
                    "remote_state/summary")
    if summary["bytes_reduction_x"] < 5.0:
        fail(f"incremental snapshots cut per-epoch bytes only "
             f"{summary['bytes_reduction_x']:.2f}x (need >= 5x)")
    print(f"  remote_state    ok: bytes/epoch "
          f"{summary['bytes_per_epoch_full']:.0f} -> "
          f"{summary['bytes_per_epoch_incremental']:.0f} "
          f"({summary['bytes_reduction_x']:.1f}x), align stall "
          f"{summary['align_stall_full_ms']:.1f}ms -> "
          f"{summary['align_stall_unaligned_ms']:.1f}ms")


def check_vs_acker(vs) -> None:
    for name in ("acker_only", "checkpoint"):
        if name not in vs:
            fail(f"vs_acker missing scenario '{name}'")
        require_numbers(vs[name], COMMON_FIELDS, f"vs_acker/{name}")
    acker, ckpt = vs["acker_only"], vs["checkpoint"]
    require_numbers(acker, ("replayed_roots", "replay_completions",
                            "failed_roots"), "vs_acker/acker_only")
    require_numbers(ckpt, CHECKPOINT_FIELDS, "vs_acker/checkpoint")
    if acker["replayed_roots"] <= 0:
        fail("acker-only run replayed nothing — the crash scenario is inert")
    if ckpt["duplicates"] != 0:
        fail(f"checkpointed run produced {ckpt['duplicates']} duplicates")
    if acker["duplicates"] <= ckpt["duplicates"]:
        fail("acker-only replay should duplicate sink applications "
             f"(got {acker['duplicates']} vs checkpoint "
             f"{ckpt['duplicates']}) — the comparison shows nothing")
    print(f"  vs_acker        ok: acker duplicates {acker['duplicates']}, "
          f"checkpoint duplicates {ckpt['duplicates']}")


def check_checkpoint(doc: dict) -> str:
    require_keys(doc, ("config", "interval_sweep", "overhead",
                       "remote_state", "vs_acker"))
    check_interval_sweep(doc["interval_sweep"])
    check_overhead(doc["overhead"])
    check_remote_state(doc["remote_state"])
    check_vs_acker(doc["vs_acker"])
    return "checkpoint bench artifact valid"


# --- elastic ------------------------------------------------------------------

CONSERVATION_FIELDS = (
    "emitted", "applied_once", "duplicates", "lost", "stale_drops",
    "recoveries", "input_drops", "queue_rejects",
)
SUMMARY_FIELDS = (
    "scale_ups", "scale_downs", "rescales_canceled", "instances_spawned",
    "instances_retired", "keyed_entries_moved",
    "state_bytes_moved", "migration_stall_total_ms", "migration_stall_max_ms",
    "polls", "final_parallelism", "epochs_completed", "epochs_aborted",
    "events", "wall_ms",
)


def check_episodes(episodes, config) -> tuple:
    if not isinstance(episodes, list):
        fail("episodes must be a list")
    if len(episodes) < 4:
        fail(f"expected >= 4 rescale episodes, got {len(episodes)}")
    lo = config.get("min_parallelism", 1)
    hi = config.get("max_parallelism", 1 << 30)
    ups = downs = 0
    last_at = -1.0
    for i, ep in enumerate(episodes):
        where = f"episodes[{i}]"
        require_numbers(ep, ("op", "from", "to", "at_ms", "stall_ms",
                             "backlog"), where)
        if ep.get("direction") not in ("up", "down"):
            fail(f"{where}: direction must be 'up' or 'down'")
        if ep["to"] == ep["from"]:
            fail(f"{where}: no-op rescale {ep['from']} -> {ep['to']}")
        if (ep["to"] > ep["from"]) != (ep["direction"] == "up"):
            fail(f"{where}: direction '{ep['direction']}' contradicts edge "
                 f"{ep['from']} -> {ep['to']}")
        if not (lo <= ep["to"] <= hi):
            fail(f"{where}: target parallelism {ep['to']} outside "
                 f"[{lo}, {hi}]")
        if ep["stall_ms"] <= 0:
            fail(f"{where}: migration stall must be positive, "
                 f"got {ep['stall_ms']}")
        if ep["at_ms"] <= last_at:
            fail(f"{where}: cutover times must be strictly ascending")
        last_at = ep["at_ms"]
        ups += ep["direction"] == "up"
        downs += ep["direction"] == "down"
    if ups < 1 or downs < 1:
        fail(f"need at least one rescale per direction, got {ups} up / "
             f"{downs} down")
    print(f"  episodes      ok: {len(episodes)} rescales "
          f"({ups} up, {downs} down), stalls "
          f"{[round(e['stall_ms'], 1) for e in episodes]} ms")
    return ups, downs


def check_conservation(cons) -> None:
    require_numbers(cons, CONSERVATION_FIELDS, "conservation")
    if cons["emitted"] <= 0:
        fail("nothing was emitted — the scenario is inert")
    if cons["recoveries"] != 0:
        fail(f"rescales must be recovery-free, got {cons['recoveries']} "
             "checkpoint recoveries")
    if cons["duplicates"] != 0:
        fail(f"exactly-once violated: {cons['duplicates']} duplicate sink "
             "applications")
    if cons["lost"] != 0:
        fail(f"{cons['lost']} emitted tuples never reached the sink")
    if cons["stale_drops"] != 0:
        fail(f"{cons['stale_drops']} deliveries hit retired instances")
    if cons["input_drops"] != 0 or cons["queue_rejects"] != 0:
        fail("queues overflowed (input_drops="
             f"{cons['input_drops']}, queue_rejects={cons['queue_rejects']})"
             " — the conservation ledger is void")
    if cons["applied_once"] != cons["emitted"]:
        fail(f"emitted {cons['emitted']} != applied exactly once "
             f"{cons['applied_once']}")
    print(f"  conservation  ok: {cons['emitted']} emitted == applied once, "
          "0 duplicates / 0 lost / 0 recoveries")


def check_elastic_summary(summary, episodes, ups, downs) -> None:
    require_numbers(summary, SUMMARY_FIELDS, "summary")
    if summary["scale_ups"] != ups or summary["scale_downs"] != downs:
        fail(f"summary counts ({summary['scale_ups']} up, "
             f"{summary['scale_downs']} down) disagree with the episode "
             f"list ({ups} up, {downs} down)")
    spawned = sum(e["to"] - e["from"] for e in episodes if e["to"] > e["from"])
    retired = sum(e["from"] - e["to"] for e in episodes if e["to"] < e["from"])
    if summary["instances_spawned"] != spawned:
        fail(f"instances_spawned {summary['instances_spawned']} != "
             f"episode-edge total {spawned}")
    if summary["instances_retired"] != retired:
        fail(f"instances_retired {summary['instances_retired']} != "
             f"episode-edge total {retired}")
    if summary["keyed_entries_moved"] <= 0 or summary["state_bytes_moved"] <= 0:
        fail("no keyed state moved — the migrations were empty")
    if summary["polls"] <= 0:
        fail("the scaling controller never polled")
    stall_sum = sum(e["stall_ms"] for e in episodes)
    if abs(summary["migration_stall_total_ms"] - stall_sum) > 0.1:
        fail(f"migration_stall_total_ms {summary['migration_stall_total_ms']}"
             f" != episode stall sum {stall_sum:.3f}")
    if summary["migration_stall_max_ms"] > summary["migration_stall_total_ms"]:
        fail("migration_stall_max_ms exceeds the total")
    final = episodes[-1]["to"]
    if summary["final_parallelism"] != final:
        fail(f"final_parallelism {summary['final_parallelism']} != last "
             f"episode target {final}")
    print(f"  summary       ok: {spawned} spawned / {retired} retired, "
          f"{summary['keyed_entries_moved']} keyed entries "
          f"({summary['state_bytes_moved']} B) moved, stall total "
          f"{summary['migration_stall_total_ms']:.1f} ms")


def check_elastic(doc: dict) -> str:
    require_keys(doc, ("config", "episodes", "conservation", "summary"))
    ups, downs = check_episodes(doc["episodes"], doc["config"])
    check_conservation(doc["conservation"])
    check_elastic_summary(doc["summary"], doc["episodes"], ups, downs)
    return "elastic bench artifact valid"


# --- skew ---------------------------------------------------------------------

STRATEGIES = ("fields", "partial_key", "po2c")
SKEW_ROW_FIELDS = (
    "zipf", "tuples", "max_instance", "avg_instance", "imbalance",
    "sink_tps", "p99_ms", "queue_rejects",
)


def check_skew_sweep(sweep) -> dict:
    if not isinstance(sweep, list) or not sweep:
        fail("sweep must be a non-empty list")
    points = {}
    for i, row in enumerate(sweep):
        where = f"sweep[{i}]"
        if row.get("strategy") not in STRATEGIES:
            fail(f"{where}: unknown strategy {row.get('strategy')!r}")
        require_numbers(row, SKEW_ROW_FIELDS, where)
        key = (row["zipf"], row["strategy"])
        if key in points:
            fail(f"{where}: duplicate point {key}")
        points[key] = row
        where = f"zipf {row['zipf']} / {row['strategy']}"
        if row["tuples"] <= 0:
            fail(f"{where}: no traffic routed on the trades stream")
        if row["queue_rejects"] != 0:
            fail(f"{where}: queue rejects distort the load measurement")
        if row["imbalance"] < 1.0:
            fail(f"{where}: imbalance {row['imbalance']} below 1 (max/avg)")
        expect = row["max_instance"] / row["avg_instance"]
        if abs(expect - row["imbalance"]) > 0.01:
            fail(f"{where}: imbalance {row['imbalance']} != max/avg "
                 f"{expect:.4f}")
        if row["sink_tps"] <= 0:
            fail(f"{where}: sink delivered nothing")

    zipfs = sorted({z for (z, _) in points})
    if len(zipfs) < 3:
        fail(f"need at least 3 zipf points, got {zipfs}")
    for z in zipfs:
        for s in STRATEGIES:
            if (z, s) not in points:
                fail(f"missing sweep point (zipf {z}, {s})")

    lo, hi = zipfs[0], zipfs[-1]
    if points[(hi, "fields")]["imbalance"] <= \
            points[(lo, "fields")]["imbalance"]:
        fail("fields imbalance does not grow with skew "
             f"({points[(lo, 'fields')]['imbalance']} -> "
             f"{points[(hi, 'fields')]['imbalance']})")
    return points


def check_acceptance(acc, points) -> None:
    if not isinstance(acc, dict):
        fail("acceptance must be an object")
    require_numbers(acc, ("zipf", "fields_imbalance",
                          "partial_key_imbalance", "po2c_imbalance"),
                    "acceptance")
    z = acc["zipf"]
    for strategy, field in (("fields", "fields_imbalance"),
                            ("partial_key", "partial_key_imbalance"),
                            ("po2c", "po2c_imbalance")):
        row = points.get((z, strategy))
        if row is None:
            fail(f"acceptance zipf {z} has no sweep row for {strategy}")
        if abs(row["imbalance"] - acc[field]) > 1e-6:
            fail(f"acceptance {field} {acc[field]} disagrees with sweep "
                 f"row {row['imbalance']}")
    if acc["partial_key_imbalance"] >= acc["fields_imbalance"]:
        fail("PKG does not beat fields grouping at the acceptance point "
             f"({acc['partial_key_imbalance']} >= {acc['fields_imbalance']})")
    if acc.get("pkg_improves") is not True:
        fail("pkg_improves flag is not true")


def check_skew(doc: dict) -> str:
    if "config" not in doc or not isinstance(doc["config"], dict):
        fail("missing config object")
    points = check_skew_sweep(doc.get("sweep"))
    acc = doc.get("acceptance")
    check_acceptance(acc, points)
    return (f"{len(points)} sweep points, PKG beats fields at zipf "
            f"{acc['zipf']} ({acc['partial_key_imbalance']:.3f} vs "
            f"{acc['fields_imbalance']:.3f})")


# --- parallel -----------------------------------------------------------------

PARALLEL_ROW_FIELDS = ("threads", "events", "wall_ms", "events_per_sec")


def manifest_sweeps() -> list:
    sweeps = load_json(MANIFEST).get("sweeps")
    if not isinstance(sweeps, list) or not sweeps:
        fail(f"{MANIFEST} has no 'sweeps' list")
    return sweeps


def check_parallel_sweep(name, sweep, configs, threads,
                         min_partitions) -> dict:
    if not isinstance(sweep, list) or not sweep:
        fail(f"[{name}] sweep must be a non-empty list")
    points = {}
    for i, row in enumerate(sweep):
        where = f"[{name}] sweep[{i}]"
        if row.get("config") not in configs:
            fail(f"{where}: unknown config {row.get('config')!r}")
        require_numbers(row, PARALLEL_ROW_FIELDS, where)
        if not isinstance(row.get("engaged"), bool):
            fail(f"{where} missing boolean field 'engaged'")
        if not isinstance(row.get("num_partitions"), int):
            fail(f"{where} missing integer field 'num_partitions'")
        if not isinstance(row.get("fp"), str) or not row["fp"]:
            fail(f"{where} missing fingerprint digest field 'fp'")
        key = (row["config"], row["threads"])
        if key in points:
            fail(f"{where}: duplicate point {key}")
        points[key] = row

    for c in configs:
        for t in threads:
            if (c, t) not in points:
                fail(f"[{name}] missing sweep point ({c}, threads={t})")
        events = {points[(c, t)]["events"] for t in threads}
        if len(events) != 1:
            fail(f"[{name}] {c}: events differ across thread counts "
                 f"({sorted(events)}) — parallel runs are not reproducing "
                 "the serial run")
        fps = {points[(c, t)]["fp"] for t in threads}
        if len(fps) != 1:
            fail(f"[{name}] {c}: fingerprints differ across thread counts "
                 f"({sorted(fps)}) — parallel runs are not bit-identical "
                 "to serial")
        if points[(c, 1)]["engaged"]:
            fail(f"[{name}] {c}: threads=1 must stay on the serial kernel")
        if points[(c, 1)]["num_partitions"] != 0:
            fail(f"[{name}] {c}: serial run reports "
                 f"{points[(c, 1)]['num_partitions']} partitions, want 0")
        for t in threads[1:]:
            if not points[(c, t)]["engaged"]:
                fail(f"[{name}] {c}: parallel kernel did not engage at "
                     f"threads={t}")
            got = points[(c, t)]["num_partitions"]
            if got < min_partitions:
                fail(f"[{name}] {c}: num_partitions {got} below the "
                     f"manifest's {min_partitions} at threads={t} — "
                     "nodes are folding into shared partitions")
        if points[(c, 1)]["events"] <= 0:
            fail(f"[{name}] {c}: no simulated work recorded")
    return points


def check_parallel(doc: dict, entry=None) -> str:
    """Checks `doc` against manifest sweep `entry`; by default the sweep
    its sweep_name names."""
    if entry is None:
        entry = next((e for e in manifest_sweeps()
                      if e.get("name") == doc.get("sweep_name")), None)
        if entry is None:
            fail(f"sweep_name {doc.get('sweep_name')!r} names no sweep in "
                 f"{MANIFEST}")
    name = entry.get("name")
    artifact = entry.get("artifact")
    configs = entry.get("configs")
    threads = entry.get("threads")
    gate = entry.get("speedup_gate")
    min_partitions = entry.get("min_partitions")
    if not name or not artifact or not configs or not threads:
        fail(f"manifest sweep entry malformed: {entry!r}")
    if not isinstance(min_partitions, int) or min_partitions < 1:
        fail(f"[{name}] manifest min_partitions invalid: {min_partitions!r}")
    if 1 not in threads or len(threads) < 2:
        fail(f"[{name}] manifest threads must include 1 and a parallel "
             f"count: {threads!r}")

    if doc.get("sweep_name") != name:
        fail(f"[{name}] {artifact} carries sweep_name "
             f"{doc.get('sweep_name')!r} — stale artifact?")
    cores = doc.get("host_cores")
    if not isinstance(cores, int) or cores < 1:
        fail(f"[{name}] host_cores missing or invalid: {cores!r}")
    if "sweep" not in doc:
        fail(f"[{name}] {artifact} has no 'sweep' section")
    points = check_parallel_sweep(name, doc["sweep"], tuple(configs),
                                  tuple(threads), min_partitions)

    if gate is None:
        return (f"[{name}] {len(points)} points, determinism + "
                f"partition-count checks pass (no speedup gate)")
    probe = 4 if 4 in threads else max(t for t in threads if t > 1)
    best = max(points[(c, probe)]["events_per_sec"] /
               points[(c, 1)]["events_per_sec"] for c in configs)
    if cores >= 4:
        if best < gate:
            fail(f"[{name}] best {probe}-thread speedup {best:.2f}x below "
                 f"the {gate}x gate on a {cores}-core host")
        return (f"[{name}] {len(points)} points, best {probe}-thread "
                f"speedup {best:.2f}x (gate {gate}x, host_cores={cores})")
    return (f"[{name}] {len(points)} points, determinism checks pass; "
            f"speedup gate SKIPPED (host_cores={cores} < 4, recorded "
            f"{probe}-thread ratio {best:.2f}x carries no parallelism "
            "signal)")


# --- obs directory ------------------------------------------------------------

FAULT_INSTANTS = ("fault.crash", "fault.restart", "fault.link_degrade",
                  "fault.relay_stall", "fault.relay_unstall")


def check_trace(path: pathlib.Path) -> None:
    doc = load_json(path)
    events = doc["traceEvents"]
    if not events:
        fail("trace has no events")
    by_name = {}
    for ev in events:
        for key in ("name", "cat", "ph", "pid", "tid", "ts"):
            if key not in ev:
                fail(f"trace event missing '{key}': {ev}")
        if ev["ph"] not in ("X", "i"):
            fail(f"unexpected phase {ev['ph']!r}")
        if ev["ph"] == "X":
            if "dur" not in ev:
                fail(f"complete event missing dur: {ev}")
            if not (ev["ts"] >= 0 and ev["dur"] >= 0):
                fail(f"negative ts/dur: {ev}")
        by_name.setdefault(ev["name"], []).append(ev)
    lifecycle = ("spout.emit", "serialize", "rdma_transfer", "relay.forward",
                 "dispatch")
    for name in lifecycle:
        if name not in by_name:
            fail(f"trace missing lifecycle span '{name}'")
    if "sink" not in by_name and "bolt.execute" not in by_name:
        fail("trace missing sink/bolt execution spans")
    # Every kind of plan firing the probe's seeded plan reaches, each an
    # instant in category 'fault'.
    for name in FAULT_INSTANTS:
        if name not in by_name:
            fail(f"trace missing fault instant '{name}'")
        for ev in by_name[name]:
            if ev["ph"] != "i" or ev["cat"] != "fault":
                fail(f"'{name}' is not an instant in category 'fault': {ev}")
    # At least one recovery episode (the named repair span that re-parents
    # the orphaned subtree) and one d* switch.
    for name in ("mcast.repair", "mcast.switch"):
        if name not in by_name:
            fail(f"trace missing tree-change span '{name}'")
    # A leaf crash repairs in zero time (nothing to re-parent); at least one
    # episode of each kind must show the connection re-establishment cost.
    for name in ("mcast.repair", "mcast.switch"):
        if not any(ev["ph"] == "X" and ev["dur"] > 0 for ev in by_name[name]):
            fail(f"no {name} span records a positive duration")
    # The structural tree changes themselves: a crash excises an endpoint
    # (`repair`) and a restart re-admits it (`restore`), each an instant
    # carrying the number of connections re-made.
    for name in ("repair", "restore"):
        changes = by_name.get(name, [])
        if not changes:
            fail(f"trace missing tree-change instant '{name}'")
        for ev in changes:
            if ev["ph"] != "i" or not isinstance(
                    ev.get("args", {}).get("moves"), (int, float)):
                fail(f"'{name}' is not an instant with a 'moves' arg: {ev}")
    # At-least-once across the crashes: a root whose tuple tree completed
    # (`ack.complete`) and a failed root re-emitted by its spout (`replay`).
    for name in ("ack.complete", "replay"):
        if not any(ev["ph"] == "i" for ev in by_name.get(name, [])):
            fail(f"trace missing acking instant '{name}'")
    print(f"  trace.json    ok: {len(events)} events, "
          f"{len(by_name)} span names, "
          f"{sum(len(by_name[n]) for n in FAULT_INSTANTS)} fault instant(s), "
          f"{len(by_name['mcast.repair'])} repair episode(s), "
          f"{len(by_name['mcast.switch'])} switch(es), "
          f"{len(by_name['repair'])} repair / "
          f"{len(by_name['restore'])} restore instant(s), "
          f"{len(by_name['ack.complete'])} ack.complete / "
          f"{len(by_name['replay'])} replay instant(s)")


def check_metrics(path: pathlib.Path) -> None:
    doc = load_json(path)
    for key in ("snapshot_interval_ns", "times_ns", "series",
                "counters_final", "histograms"):
        if key not in doc:
            fail(f"metrics missing top-level '{key}'")
    times = doc["times_ns"]
    if len(times) < 2:
        fail("need at least two snapshots")
    interval = doc["snapshot_interval_ns"]
    for a, b in zip(times, times[1:]):
        if b - a != interval:
            fail(f"snapshot spacing {b - a} != interval {interval}")
    for name in ("src.transfer_queue", "src.in_queue", "acker.pending"):
        if name not in doc["series"]:
            fail(f"metrics missing series '{name}'")
    for name, values in doc["series"].items():
        if len(values) != len(times):
            fail(f"series '{name}' has {len(values)} values, "
                 f"expected {len(times)}")
    ledger = ("obs.roots_emitted", "obs.sink_completions", "obs.input_drops",
              "obs.queue_rejects", "obs.tuples_lost_engine",
              "obs.tuples_lost_qp", "obs.qp_fabric_drops", "obs.inflight_end")
    for name in ledger:
        if name not in doc["counters_final"]:
            fail(f"metrics missing final counter '{name}'")
    if doc["counters_final"]["obs.roots_emitted"] <= 0:
        fail("roots_emitted should be positive")
    print(f"  metrics.json  ok: {len(times)} snapshots, "
          f"{len(doc['series'])} series, "
          f"{len(doc['counters_final'])} counters")


def check_obs_dir(obs_dir: pathlib.Path) -> str:
    trace = obs_dir / "trace.json"
    metrics = obs_dir / "metrics.json"
    for p in (trace, metrics):
        if not p.exists():
            fail(f"missing {p} (run build/tools/obs_probe first)")
    check_trace(trace)
    check_metrics(metrics)
    return "obs artifacts valid"


# --- dispatch -----------------------------------------------------------------

CHECKS = {
    "simkernel": check_simkernel,
    "checkpoint_recovery": check_checkpoint,
    "elastic": check_elastic,
    "skew": check_skew,
    "parallel": check_parallel,
}


def check_path(path: pathlib.Path) -> None:
    print(f"{path}:")
    if path.is_dir():
        summary = check_obs_dir(path)
    else:
        doc = load_json(path)
        tag = doc.get("bench") if isinstance(doc, dict) else None
        if tag not in CHECKS:
            fail(f"unexpected bench tag: {tag!r}")
        summary = CHECKS[tag](doc)
    print(f"OK: {summary}")


def main() -> int:
    if len(sys.argv) > 1:
        for arg in sys.argv[1:]:
            check_path(pathlib.Path(arg))
        return 0
    for rel in COMMITTED:
        check_path(ROOT / rel)
    # Committed sweep artifacts are found through the manifest, so a sweep
    # whose artifact is missing fails here.
    for entry in manifest_sweeps():
        path = ROOT / str(entry.get("artifact"))
        print(f"{path}:")
        doc = load_json(path)
        if doc.get("bench") != "parallel":
            fail(f"[{entry.get('name')}] unexpected bench tag: "
                 f"{doc.get('bench')!r}")
        print(f"OK: {check_parallel(doc, entry)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
