#!/usr/bin/env python3
"""Steadiness check of the repository benchmark.

    python3 perfbench/tests/spread.py [--runs 10] [--workloads a,b]
                                      [--trace 0|1] [--out FILE]

Runs perfbench/run.py --runs times per workload, each with another --seed,
and prints, per metric, the median and the spread: the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median. For end-to-end metrics it also prints the bound from
BENCHMARK.json and whether the spread stays below a third of it. --out
writes every raw value as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    raw = {}
    steady = True
    for w in a.workloads.split(","):
        values = {}
        for i in range(a.runs):
            seed = a.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]),
                 "--trace", str(a.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit("%s seed %d: exit %d" % (w, seed, proc.returncode))
            res = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            if not res["correct"] or res["failed"]:
                print("%s seed %d: correct=%s failed=%d"
                      % (w, seed, res["correct"], res["failed"]))
                steady = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        raw[w] = values
        print("== %s (%d runs)" % (w, a.runs))
        for name, xs in sorted(values.items()):
            med = statistics.median(xs)
            if len(xs) >= 2 and med != 0:
                q = statistics.quantiles(xs, n=4)
                spread = (q[2] - q[0]) / abs(med)
            else:
                spread = 0.0
            note = ""
            if name in bounds:
                ok = spread < bounds[name] / 3
                steady = steady and ok
                note = "bound %.2f %s" % (bounds[name],
                                          "ok" if ok else "TOO WIDE")
            if a.trace == 0 or name in bounds or spread > 0:
                print("  %-40s median %-14.6g spread %.4f %s"
                      % (name, med, spread, note))
    if a.out:
        with open(a.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
