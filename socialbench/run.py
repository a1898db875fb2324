#!/usr/bin/env python3
"""The repository benchmark: the social application tier on a Cluster.

    python3 socialbench/run.py --workload social_mix --seed 12 --seconds 30 --trace 0

Builds the socialbench program from source (CMake, into $CARGO_TARGET_DIR or
.bench_build at the repository root), checks the paper-calibration pins,
then runs a batch of universes of the workload: independent clusters whose
seeds derive from --seed (seed * 1000 + i). The batch is as large as the
workload's calibrated rate fits into --seconds, so the same arguments always
run the same universes. Every universe runs in its own single-threaded
process with every library default untouched.

--trace 0 prints the end-to-end metrics; --trace 1 runs a third of the batch
as untraced/traced pairs and prints the per-layer metrics, and writes the
first universe's spans under <build>/traces/. The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; attempted counts
the universes run and failed those that broke a correctness gate. The exit
code is non-zero when any gate or pin fails. BENCHMARK.json names every
metric with its unit; socialbench/catalog.json defines each under the same
name.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
with open(os.path.join(HERE, "catalog.json")) as f:
    CATALOG = json.load(f)
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
KINDS = ["read", "post", "follow", "register"]
WRITE_KINDS = ["post", "follow", "register"]
READ_LIMIT_USEC, WRITE_LIMIT_USEC = 1_000_000, 5_000_000
HISTOGRAM_CAP_USEC = 5_000_000
# Universes per host second on a 4-core x86-64 container; sizes the batch.
UNIVERSES_PER_SECOND = {"social_mix": 1.7, "social_read": 2.6, "wire_8node": 0.5}
CHILD_TIMEOUT_S = 170


class GateFailure(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base) if not os.path.isabs(base) else base


def build():
    out = os.path.join(build_dir(), "socialbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "socialbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "socialbench")


def run_lines(exe, *args):
    try:
        proc = subprocess.run([exe, *map(str, args)], capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise GateFailure(f"{' '.join(map(str, args))} ran past {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise GateFailure(f"{' '.join(map(str, args))} exited {proc.returncode}: {proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def check_pins(exe):
    bad = [p for p in run_lines(exe, "pins")[0]["pins"] if not p["ok"]]
    if bad:
        raise GateFailure("calibration drifted: " + ", ".join(
            f"{p['name']} {p['measured_ms']} ms != {p['expected_ms']} ms" for p in bad))


def censored_percentile_ms(lats, q):
    """Exact nearest-rank percentile (rank ceil(q*n)) of issued ops; a failed
    op (-1) ranks slower than every completed one. None when the rank lands
    on a failed op or fewer than ten ops lie beyond it."""
    n = len(lats)
    rank = max(1, math.ceil(q * n))
    done = sorted(v for v in lats if v >= 0)
    if n == 0 or rank > len(done) or n - rank < 10:
        return None
    return done[rank - 1] / 1000.0


def completed_percentile_ms(lats, q):
    done = sorted(v for v in lats if v >= 0)
    if not done:
        return None
    return done[max(1, math.ceil(q * len(done))) - 1] / 1000.0


def class_lats(universe, kinds):
    return [v for k in kinds for v in universe["latency_usec"][k]]


def gate(universe, label):
    if universe["errors"]:
        raise GateFailure(f"{label}: " + "; ".join(universe["errors"][:5]))


def timed_universe(exe, workload, seed, reps):
    lines = run_lines(exe, "timed", "--workload", workload, "--seed", seed, "--reps", reps)
    runs, rss = lines[:-1], lines[-1]["peak_rss_mb"]
    for r in runs:
        gate(r, f"{workload} seed {seed}")
    if any((r["transcript_hash"], r["metrics_hash"]) !=
           (runs[0]["transcript_hash"], runs[0]["metrics_hash"]) for r in runs):
        raise GateFailure(f"{workload} seed {seed}: same-seed runs diverged")
    return dict(runs[0], peak_rss_mb=rss)


def mean_of_universes(universes, kinds, q):
    vals = [censored_percentile_ms(class_lats(u, kinds), q) for u in universes]
    return None if None in vals else statistics.fmean(vals)


def end_to_end(universes):
    issued = sum(len(class_lats(u, KINDS)) for u in universes)
    ok = within = 0
    for u in universes:
        for k in KINDS:
            limit = READ_LIMIT_USEC if k == "read" else WRITE_LIMIT_USEC
            ok += sum(1 for v in u["latency_usec"][k] if v >= 0)
            within += sum(1 for v in u["latency_usec"][k] if 0 <= v <= limit)
    m = {
        "ok_ratio": ok / issued,
        "slo_ratio": within / issued,
        "read_p50_ms": mean_of_universes(universes, ["read"], 0.50),
        "read_p99_ms": censored_percentile_ms(
            [v for u in universes for v in class_lats(u, ["read"])], 0.99),
        "write_p50_ms": mean_of_universes(universes, WRITE_KINDS, 0.50),
        "write_p99_ms": censored_percentile_ms(
            [v for u in universes for v in class_lats(u, WRITE_KINDS)], 0.99),
        "wall_s": sum(u["wall_s"] for u in universes),
        "setup_s": statistics.median(u["setup_s"] for u in universes),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in universes),
    }
    return {k: v for k, v in m.items() if v is not None}


def per_layer(lines):
    L, H = {}, {}
    for line in lines:
        for k, v in line["layers"].items():
            L[k] = L.get(k, 0) + v
        for k, v in line["host"].items():
            H[k] = max(H.get(k, 0), v) if k == "busy_ratio_peak" else H.get(k, 0) + v
    g = lambda k: L.get(k, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    window_s = g("sim/window_usec") / 1e6
    accesses = g("dsm/hits") + g("dsm/read_faults") + g("dsm/write_faults")
    lookups = g("store/cache_hits") + g("store/cache_misses")
    attempts = g("txn/commits") + g("txn/aborts")
    m = {
        "sim.events": g("events_executed"),
        "sim.resumes": g("process_resumes"),
        "sim.spawns": g("processes_spawned"),
        "sim.host_ns_per_event": ratio(H["untraced_generator_run_s"] * 1e9, g("events_executed")),
        "sim.trace_entries": H["trace_entries"],
        "sim.cpu_seconds": g("sim/cpus") / len(lines) * window_s,
        "sim.cpu_busy_ratio": ratio(g("cpu/busy_usec") / 1e6, g("sim/cpus") / len(lines) * window_s),
        "sim.context_switches": g("cpu/context_switches"),
        "sim.window_s": window_s,
        "net.frames": g("eth/frames_on_wire"),
        "net.bytes": g("eth/bytes_on_wire"),
        "net.busy_ratio": ratio(g("eth/busy_usec") / 1e6, window_s),
        "net.busy_ratio_peak": H["busy_ratio_peak"],
        "net.frames_dropped": g("eth/frames_dropped"),
        "net.ratp_txns": g("ratp/transactions"),
        "net.ratp_retransmits": g("ratp/retransmits"),
        "net.ratp_retransmits_per_txn": ratio(g("ratp/retransmits"), g("ratp/transactions")),
        "net.ratp_timeouts": g("ratp/timeouts"),
        "net.ratp_reply_cache_hits": g("ratp/reply_cache_hits"),
        "net.ratp_completed": g("ratp/txn_latency_usec.count"),
        "net.ratp_txn_mean_ms": ratio(g("ratp/txn_latency_usec.sum") / 1000,
                                      g("ratp/txn_latency_usec.count")),
        "dsm.read_faults": g("dsm/read_faults"),
        "dsm.write_faults": g("dsm/write_faults"),
        "dsm.hits": g("dsm/hits"),
        "dsm.accesses": accesses,
        "dsm.hit_ratio": ratio(g("dsm/hits"), accesses),
        "dsm.invalidations": g("dsm/invalidations"),
        "dsm.remote_fetches": g("dsm/remote_fetches"),
        "dsm.evictions": g("dsm/evictions"),
        "dsm.faults_resolved": g("dsm/fault_latency_usec.count"),
        "dsm.fault_mean_ms": ratio(g("dsm/fault_latency_usec.sum") / 1000,
                                   g("dsm/fault_latency_usec.count")),
        "store.cache_lookups": lookups,
        "store.cache_hit_ratio": ratio(g("store/cache_hits"), lookups),
        "store.disk_reads": g("disk/reads"),
        "store.disk_writes": g("disk/writes"),
        "store.wal_forces": g("wal/forces"),
        "store.wal_records_per_force": ratio(g("wal/records_appended"), g("wal/forces")),
        "store.pages_written_back": g("wal/pages_written_back"),
        "txn.commits": g("txn/commits"),
        "txn.aborts": g("txn/aborts"),
        "txn.attempts": attempts,
        "txn.commit_ratio": ratio(g("txn/commits"), attempts),
        "txn.lock_waits": g("txn/lock_waits"),
        "txn.commit_mean_ms": ratio(g("txn/commit_latency_usec.sum") / 1000,
                                    g("txn/commit_latency_usec.count")),
        "obj.invocations": g("obj/invocations"),
        "obj.remote_invocations": g("obj/remote_invocations"),
        "obj.activations": g("obj/activations"),
        "obj.tx_retries": g("obj/tx_retries"),
        "sched.placements": g("sched/placements"),
        "sched.reports_sent": g("sched/reports_sent"),
        "sched.fallbacks": g("sched/fallbacks"),
        "sched.stale_evictions": g("sched/stale_evictions"),
        "host.cluster_ctor_s": H["cluster_ctor_s"],
        "host.app_build_s": H["app_build_s"],
        "host.generator_run_s": H["generator_run_s"],
        "host.snapshot_s": H["snapshot_s"],
        "host.trace_overhead_s": H["generator_run_s"] - H["untraced_generator_run_s"],
    }
    for k in KINDS:
        lats = [v for line in lines for v in line["latency_usec"][k]]
        m[f"load.{k}.issued"] = len(lats)
        m[f"load.{k}.ok"] = sum(1 for v in lats if v >= 0)
        m[f"load.{k}.failed"] = sum(1 for v in lats if v < 0)
        m[f"load.{k}.over_cap"] = sum(1 for v in lats if v > HISTOGRAM_CAP_USEC)
        for q, name in ((0.50, "p50_ms"), (0.99, "p99_ms")):
            value = completed_percentile_ms(lats, q)
            if value is not None:
                m[f"load.{k}.{name}"] = value
    return m


def name_drift():
    """Metric names that BENCHMARK.json and catalog.json do not share."""
    catalogued = set(CATALOG["end_to_end"])
    for layer in CATALOG["per_layer"].values():
        catalogued |= layer.keys()
    return sorted(catalogued ^ UNITS.keys())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(UNIVERSES_PER_SECOND))
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    batch = max(2, round(args.seconds * UNIVERSES_PER_SECOND[args.workload]))
    seeds = [args.seed * 1000 + i for i in range(batch)]
    holdout = CATALOG["holdout_seed"] * 1000
    attempted, failed, errors, metrics = 0, 0, [], {}
    try:
        check_pins(exe)
    except GateFailure as e:
        errors.append(str(e))

    def attempt(universes, fn, *a):
        nonlocal attempted, failed
        attempted += universes
        try:
            return fn(*a)
        except GateFailure as e:
            failed += universes
            errors.append(str(e))
            return None

    if args.trace == 0:
        # Universe 0 runs twice in its process: the determinism gate.
        universes = [attempt(1, timed_universe, exe, args.workload, s, 2 if i == 0 else 1)
                     for i, s in enumerate(seeds)]
        attempt(1, timed_universe, exe, args.workload, holdout, 2)
        if not errors:
            print(f"# batch: {sum(u['events'] for u in universes):.0f} simulated events, "
                  f"{sum(len(class_lats(u, KINDS)) for u in universes)} ops")
            metrics = end_to_end(universes)
    else:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        spans = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")

        def traced(seed_list, spans_file):
            lines = run_lines(exe, "traced", "--workload", args.workload, "--seeds",
                              ",".join(map(str, seed_list)), "--spans", spans_file)
            for s, line in zip(seed_list, lines):
                gate(line, f"{args.workload} seed {s} traced")
            return lines

        pairs = seeds[:max(1, batch // 3)]
        lines = attempt(len(pairs), traced, pairs, spans)
        attempt(1, traced, [holdout], os.path.join(traces, f"{args.workload}-holdout.json"))
        if not errors:
            metrics = per_layer(lines)
            log(f"# spans: {spans}")

    drift = name_drift()
    if drift:
        errors.append("named in only one of BENCHMARK.json and catalog.json: " + ", ".join(drift))
    expected = {m["name"] for m in BENCH["end_to_end" if args.trace == 0 else "per_layer"]}
    benchmarked = args.workload in {w["name"] for w in BENCH["workloads"]}
    if metrics and benchmarked and metrics.keys() != expected:
        errors.append("metrics differ from BENCHMARK.json's: " +
                      ", ".join(sorted(metrics.keys() ^ expected)))
    metrics = {k: v for k, v in metrics.items() if k in expected}
    print(f"# socialbench workload={args.workload} seed={args.seed} "
          f"holdout_seed={CATALOG['holdout_seed']} universes={batch} trace={args.trace}")
    for name, value in metrics.items():
        clock = CATALOG["end_to_end"].get(name, {}).get("clock", "")
        print(f"# {name} = {value:.6g} {UNITS[name]} {clock}".rstrip())
    for e in errors:
        log(f"# FAILED: {e}")
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"socialbench: {e}")
        sys.exit(1)
