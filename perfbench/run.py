#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_driver from the checkout's sources (CMake, under
.bench_build/perfbench at the checkout root; incremental after the first
run), then runs one workload and relays the driver's report. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 1 the span record of the run is written to
.bench_build/spans/<workload>-seed<N>.json.

Workloads: paper_sim, mesh_sweep, check_grid, fuzz_farm (see
perfbench/README.md). Exits non-zero without a result when the sources are
missing, the build fails, or the driver fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("paper_sim", "mesh_sweep", "check_grid", "fuzz_farm")
DRIVER_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no pmc sources next to the benchmark "
                 "(expected src/CMakeLists.txt in the checkout)")
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("perfbench: cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    cmd = [cmake, "--build", BUILD, "--target", "perfbench_driver",
           "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def run_driver(args, stderr=None):
    """Runs the driver from the checkout root; returns (returncode, stdout)."""
    cmd = [DRIVER, "--root", ROOT] + list(args)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=stderr, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, ""
    return proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        args += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.json" % (a.workload, a.seed))]
    rc, out = run_driver(args)
    lines = out.rstrip("\n").split("\n")
    if rc != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        sys.exit("perfbench: driver failed (exit %d)" % rc)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
