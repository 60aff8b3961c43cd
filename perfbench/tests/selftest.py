#!/usr/bin/env python3
"""Determinism and liveness self-test of the repository benchmark.

    python3 perfbench/tests/selftest.py

Builds the driver (as perfbench/run.py does), then at reduced sizes:

  1. runs every workload twice with the same seed and asserts that every
     deterministic per-layer count is identical, and that fail_frac is 0;
  2. asserts check_grid's counts are identical at jobs 1 and 2;
  3. runs paper_sim, check_grid and fuzz_farm with every registered seeded
     protocol fault enabled and asserts fail_frac > 0, which shows the
     output checks are live;
  4. asserts BENCHMARK.json names exactly the driver's metric catalogue.

Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402  (perfbench/run.py)

FAILURES = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def driver(workload, tmp, tag, *extra):
    """One reduced traced run; returns (result JSON, deterministic counts)."""
    det_path = os.path.join(tmp, "%s-%s.det" % (workload, tag))
    rc, out = run.run_driver(
        ["--workload", workload, "--seed", "7", "--seconds", "0.01",
         "--trace", "1", "--small", "--det-out", det_path] + list(extra),
        stderr=subprocess.DEVNULL)
    if rc != 0:
        check(False, "%s %s: driver exited %d" % (workload, tag, rc))
        return None, None
    with open(det_path) as f:
        det = dict(line.split() for line in f)
    return json.loads(out.rstrip("\n").split("\n")[-1]), det


def main():
    run.build()
    with tempfile.TemporaryDirectory(dir=os.path.join(run.ROOT, ".bench_build")) as tmp:
        for w in run.WORKLOADS:
            first, det_a = driver(w, tmp, "a")
            _, det_b = driver(w, tmp, "b")
            if first is None or det_b is None:
                continue
            check(det_a == det_b,
                  "%s: %d deterministic counts identical over two runs"
                  % (w, len(det_a)))
            check(first["failed"] == 0 and first["correct"],
                  "%s: fail_frac 0 (%d units)" % (w, first["attempted"]))

        _, jobs1 = driver("check_grid", tmp, "jobs1", "--jobs", "1")
        _, jobs2 = driver("check_grid", tmp, "jobs2", "--jobs", "2")
        if jobs1 is not None and jobs2 is not None:
            check(jobs1 == jobs2, "check_grid: counts identical at jobs 1 and 2")

        for w in ("paper_sim", "check_grid", "fuzz_farm"):
            res, _ = driver(w, tmp, "faults", "--faults")
            if res is not None:
                frac = res["failed"] / res["attempted"]
                check(frac > 0, "%s: seeded faults give fail_frac %.3f > 0"
                      % (w, frac))

    rc, out = run.run_driver(["--list-metrics"])
    catalogue = json.loads(out)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in catalogue[key]]
        have = [(m["name"], m["unit"]) for m in bench[key]]
        check(want == have, "BENCHMARK.json %s matches the driver (%d metrics)"
              % (key, len(want)))

    print("selftest: %s" % ("PASS" if not FAILURES else
                            "%d FAILED" % len(FAILURES)))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
