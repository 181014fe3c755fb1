#!/usr/bin/env python3
"""Build and run the end-to-end fleet-audit benchmark.

Run from the root of a checkout:

    python3 bench_e2e/run.py --workload cold-distinct --seed 1 --seconds 20 --trace 0
    python3 bench_e2e/run.py          # all four workloads, untraced then traced

The analyzer libraries, tools/scada_serve and the bench_e2e program are built
from source (Release) into $CARGO_TARGET_DIR, or .bench_build when it is
unset; build output goes to stderr. With --workload the program's output is
passed through: a metric table, then one JSON object as the last line.
Without it every workload runs at both trace levels and one table per level
is printed, one row per workload.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold-distinct", "sweep-shared", "replay-hot", "interactive-open"]
BUILD_JOBS = "2"


def build(build_dir):
    """Configures once, then brings bench_e2e and scada_serve up to date."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("run.py: no analyzer sources next to %s; run from a full checkout" % HERE)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "bench_e2e", "-j", BUILD_JOBS],
                   stdout=sys.stderr, check=True)


def bench_command(build_dir, workload, seed, seconds, trace):
    return [os.path.join(build_dir, "bench_e2e"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
            "--serve", os.path.join(build_dir, "scada", "tools", "scada_serve"),
            "--out-dir", os.path.join(build_dir, "out")]


def print_tables(trace, rows):
    """One block of at most six metrics per table, one row per workload."""
    names = list(rows[0][1]["metrics"])
    for start in range(0, len(names), 6):
        block = names[start:start + 6]
        headers = ["workload"] + ["%s [%s]" % (n, rows[0][1]["metrics"][n]["unit"]) for n in block]
        table = [[w] + ["%.6g" % r["metrics"][n]["value"] for n in block] for w, r in rows]
        widths = [max(len(h), *(len(row[i]) for row in table)) for i, h in enumerate(headers)]
        print()
        print("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
        for row in table:
            print("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    print("(trace %d)" % trace)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None)
    args = parser.parse_args()

    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)

    if args.workload is not None:
        cmd = bench_command(build_dir, args.workload, args.seed, seconds, args.trace or 0)
        sys.stdout.flush()
        return subprocess.run(cmd).returncode

    status = 0
    for trace in ([args.trace] if args.trace is not None else [0, 1]):
        rows = []
        for workload in WORKLOADS:
            cmd = bench_command(build_dir, workload, args.seed, seconds, trace)
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                status = done.returncode
            lines = done.stdout.strip().splitlines()
            if not lines:
                print("%s: no result (exit %d)" % (workload, done.returncode), file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                status = status or 1
            rows.append((workload, result))
        if rows:
            print_tables(trace, rows)
    return status


if __name__ == "__main__":
    sys.exit(main())
