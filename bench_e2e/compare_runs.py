#!/usr/bin/env python3
"""Compare two commits on the end-to-end benchmark (standard library only).

Run alternated pairs, parent and change, in two checkouts that hold the same
bench_e2e/ directory, appending each result to a JSON-lines file:

    python3 bench_e2e/compare_runs.py run --parent ../parent --change . \\
        --pairs 10 --seed 1 --out pairs.jsonl
    python3 bench_e2e/compare_runs.py report pairs.jsonl

Repeat with --seed 2, the held-out seed, before claiming a gain.

`report` prints, for each end-to-end metric, one row per workload: both
sides' medians and quartiles, the change's wins over the pairs, and a
verdict under the metric's bound from BENCHMARK.json:

  regression  the change's median is worse than the parent's by more than
              the bound;
  unresolved  either side's quartile spread exceeds the bound, unless every
              change run beats every parent run;
  gain        the change wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile spread;
  same        none of the above.

Traced results (--trace 1) get per-layer medians side by side, without a
verdict: they show where a saving sits, not whether it counts.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["cold-distinct", "sweep-shared", "replay-hot", "interactive-open"]


def bench_digest(checkout):
    """Hash of every file under <checkout>/bench_e2e (sorted by path)."""
    root = os.path.join(checkout, "bench_e2e")
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "bench_e2e/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each checkout builds into its own .bench_build
    done = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("%s: %s printed no result (exit %d)" % (checkout, workload, done.returncode))
    return json.loads(lines[-1])


def cmd_run(args):
    if bench_digest(args.parent) != bench_digest(args.change):
        raise SystemExit("the two checkouts hold different bench_e2e/ code; "
                         "measure both with the same benchmark")
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            for workload in workloads:
                # Alternate which side runs first so drift favours neither.
                order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
                for side in order:
                    checkout = args.parent if side == "parent" else args.change
                    result = run_once(checkout, workload, args.seed, args.seconds, args.trace)
                    out.write(json.dumps({"side": side, "workload": workload, "pair": pair,
                                          "seed": args.seed, "trace": args.trace,
                                          "result": result}) + "\n")
                    out.flush()
                    print("pair %d %s %s done" % (pair, workload, side), file=sys.stderr)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(parent, change, better, bound):
    """parent/change: per-pair values, in pair order."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pairs = min(len(parent), len(change))
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "regression", wins, pairs
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins, pairs
    if pairs >= 10 and wins >= 0.9 * pairs and abs(c_med - p_med) > p_q3 - p_q1:
        return "gain", wins, pairs
    return "same", wins, pairs


def cmd_report(args):
    with open(args.benchmark) as f:
        bench = json.load(f)
    runs = {}
    with open(args.results) as f:
        for line in f:
            r = json.loads(line)
            key = (r["trace"], r["workload"], r["side"])
            runs.setdefault(key, []).append((r["pair"], r["result"]))

    def series(trace, workload, side, metric):
        rows = sorted(runs.get((trace, workload, side), []), key=lambda x: x[0])
        return [res["metrics"][metric]["value"] for _, res in rows if metric in res["metrics"]]

    workloads = [w for w in WORKLOADS if (0, w, "parent") in runs]
    for m in bench["end_to_end"]:
        print("\n%s [%s], %s is better, bound %g" % (m["name"], m["unit"], m["better"], m["bound"]))
        print("  %-17s %-34s %-34s %-6s %s" % ("workload", "parent q1/median/q3",
                                                "change q1/median/q3", "wins", "verdict"))
        for w in workloads:
            p, c = series(0, w, "parent", m["name"]), series(0, w, "change", m["name"])
            if not p or not c:
                continue
            v, wins, pairs = verdict(p, c, m["better"], m["bound"])
            print("  %-17s %-34s %-34s %-6s %s" % (
                w, "%.4g / %.4g / %.4g" % quartiles(p), "%.4g / %.4g / %.4g" % quartiles(c),
                "%d/%d" % (wins, pairs), v))
        for w in workloads:
            for side in ("parent", "change"):
                bad = [res for _, res in runs.get((0, w, side), [])
                       if not res["correct"] or res["failed"]]
                if bad:
                    print("  %s %s: %d run(s) with wrong verdicts or failed requests"
                          % (w, side, len(bad)))

    traced = [w for w in WORKLOADS if (1, w, "parent") in runs]
    for w in traced:
        print("\nper-layer medians, %s (traced runs)" % w)
        for m in bench["per_layer"]:
            p, c = series(1, w, "parent", m["name"]), series(1, w, "change", m["name"])
            if p and c:
                pm, cm = statistics.median(p), statistics.median(c)
                ratio = "%.3f" % (cm / pm) if pm else "-"
                print("  %-28s %-12.5g %-12.5g change/parent %s" % (m["name"], pm, cm, ratio))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run alternated parent/change pairs")
    run.add_argument("--parent", required=True, help="checkout of the parent commit")
    run.add_argument("--change", required=True, help="checkout of the change")
    run.add_argument("--workloads", help="comma-separated subset (default: all)")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=None,
                     help="window length (default: run_seconds from BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=[0, 1], default=0)
    run.add_argument("--out", required=True, help="JSON-lines file to append to")
    report = sub.add_parser("report", help="apply the bounds and the paired rule")
    report.add_argument("results")
    report.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args()
    if args.command == "run":
        if args.pairs < 10:
            print("note: a gain needs at least 10 pairs", file=sys.stderr)
        cmd_run(args)
    else:
        cmd_report(args)


if __name__ == "__main__":
    main()
