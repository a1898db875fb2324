#!/usr/bin/env python3
"""Check that two socialbench builds simulate byte for byte the same.

    python3 tools/simhash.py PARENT_EXE CHANGE_EXE

Runs `socialbench timed --workload W --seed S` with both executables for
every workload BENCHMARK.json lists, over universes 12000-12009 and the
held-out universe (socialbench/catalog.json's holdout_seed x 1000). Each
run prints a transcript_hash and a metrics_hash; the tool prints every
universe whose hashes differ and exits 1 if any does, 0 if none does.

A change meant to move no simulated byte (a refactor, a host-time
optimisation) must exit 0. A change that moves bytes on purpose will not,
so no CI job gates on this tool.
"""
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = range(12000, 12010)
HASHES = ("transcript_hash", "metrics_hash")


def hashes(exe, workload, seed):
    """The two hashes of one timed universe."""
    out = subprocess.run([exe, "timed", "--workload", workload, "--seed", str(seed)],
                         check=True, capture_output=True, text=True).stdout
    for line in out.splitlines():
        result = json.loads(line)
        if HASHES[0] in result:
            return {name: result[name] for name in HASHES}
    raise RuntimeError(f"{exe}: no {HASHES[0]} for {workload} seed {seed}")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = argv[1], argv[2]
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    holdout = json.loads((ROOT / "socialbench" / "catalog.json").read_text())["holdout_seed"] * 1000
    mismatches = 0
    for workload in workloads:
        for seed in [*SEEDS, holdout]:
            before = hashes(parent, workload, seed)
            after = hashes(change, workload, seed)
            for name in HASHES:
                if before[name] != after[name]:
                    mismatches += 1
                    print(f"{workload} seed {seed}: {name} {before[name]} -> {after[name]}")
    universes = len(workloads) * (len(SEEDS) + 1)
    print(f"{universes} universes per build, {mismatches} hash mismatches", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
