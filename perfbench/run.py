#!/usr/bin/env python3
"""Build and run the perfbench wall-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload nest_churn --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 5 --trace 1
    python3 perfbench/run.py --selftest

The C++ benchmark is configured and built (Release) under .bench_build/ in
the current directory; build output goes to stderr.  The benchmark's own
stdout is passed through, so its last line is the result JSON object.
Traced runs write Chrome-trace JSON to .bench_build/perfbench-traces/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
WORKLOADS = ("nest_churn", "flat_fine", "serve_mix")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", *targets],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # and do not let git search the directories above
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--procs", type=int, default=0,
                    help="processors (default: nproc; refused above nproc)")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()

    if args.selftest:
        build(["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode)
    if args.workload is None:
        ap.error("--workload is required")

    build(["perfbench"])
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--commit", commit(),
           "--trace-dir", os.path.join(os.getcwd(), ".bench_build", "perfbench-traces")]
    if args.procs:
        cmd += ["--procs", str(args.procs)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.rstrip("\n")
    if proc.returncode != 0:
        sys.stdout.write(out + "\n" if out else "")
        sys.exit(proc.returncode)
    lines = out.split("\n")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if args.workload != "all" and want is not None and set(result["metrics"]) != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit("perfbench: metrics differ from BENCHMARK.json: %s"
                 % sorted(set(result["metrics"]) ^ want))
    sys.stdout.write(out + "\n")


if __name__ == "__main__":
    main()
