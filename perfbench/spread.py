#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload codesign_paper --seeds 1-10

For every end-to-end metric (or per-layer metric with --trace 1) it prints
the median over the runs and the distance between the first and third
quartiles as a share of the median -- the figure BENCHMARK.json's `bound`
is compared against -- plus each run's wall time. Exits 1 when a spread
exceeds its bound or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    defs = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    values = {d["name"]: [] for d in defs}
    ok = True
    for seed in seed_list(args.seeds):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", args.trace],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        wall = time.monotonic() - start
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        good = proc.returncode == 0 and result.get("correct") is True
        ok &= good
        print("seed %d: exit %d, correct %s, %d/%d failed, %.1f s" %
              (seed, proc.returncode, result.get("correct"),
               result.get("failed", -1), result.get("attempted", -1), wall))
        for name, entry in result.get("metrics", {}).items():
            values[name].append(entry["value"])

    print("%-28s %14s %8s %6s" % ("metric", "median", "spread", "bound"))
    for d in defs:
        series = values[d["name"]]
        if len(series) < 2:
            continue
        med = statistics.median(series)
        q = statistics.quantiles(series, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = d.get("bound")
        flag = ""
        if bound is not None and spread > bound:
            flag = "  OVER BOUND"
            ok = False
        elif bound is not None and spread > bound / 3:
            flag = "  over a third of the bound"
        print("%-28s %14.6g %8.4f %6s  [%s]%s" %
              (d["name"], med, spread, "-" if bound is None else bound,
               " ".join("%.4g" % v for v in series), flag))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
