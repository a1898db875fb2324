#!/usr/bin/env python3
"""Check that two builds' benches print the same `# metrics` lines.

    python3 tools/benchdiff.py PARENT_BUILD CHANGE_BUILD [BENCH ...]

PARENT_BUILD and CHANGE_BUILD are CMake build trees of the main project.
Runs each named bench (default: kernel network invocation consistency
migration dsm_sort pet store granularity scheduler) as
BUILD/bench/bench_NAME --benchmark_min_time=0.01 from both trees, the two
builds side by side, and compares the deterministic `# metrics <name>
{json}` lines each prints on stderr. It prints every line that differs, or
that only one build printed, and exits 1 if there is any, 0 if there is
none.

A change meant to move no simulated byte must exit 0. A change that moves
bytes on purpose will not, so no CI job gates on this tool.
"""
import pathlib
import subprocess
import sys

DEFAULT_BENCHES = ("kernel", "network", "invocation", "consistency", "migration", "dsm_sort",
                   "pet", "store", "granularity", "scheduler")
PREFIX = "# metrics "


def start(build, bench):
    exe = pathlib.Path(build) / "bench" / f"bench_{bench}"
    return subprocess.Popen([str(exe), "--benchmark_min_time=0.01"], stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)


def metrics(proc, build, bench):
    """The `# metrics` lines of one finished run, in the order printed."""
    _, err = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{build}: bench_{bench} exited {proc.returncode}")
    return [line for line in err.splitlines() if line.startswith(PREFIX)]


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = argv[1], argv[2]
    benches = argv[3:] or DEFAULT_BENCHES
    lines = differences = 0
    for bench in benches:
        runs = (start(parent, bench), start(change, bench))
        before = metrics(runs[0], parent, bench)
        after = metrics(runs[1], change, bench)
        for i in range(max(len(before), len(after))):
            lines += 1
            old = before[i] if i < len(before) else "(none)"
            new = after[i] if i < len(after) else "(none)"
            if old != new:
                differences += 1
                print(f"bench_{bench}, metrics line {i + 1}:")
                print(f"  - {old}")
                print(f"  + {new}")
    print(f"{len(benches)} benches, {lines} metrics lines, {differences} differ", file=sys.stderr)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
