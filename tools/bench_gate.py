#!/usr/bin/env python3
"""Benchmark regression gate.

Runs the SEARCH-scalability bench (virtual-time: deterministic, exact,
host-independent) plus the real-hardware benches — E8 overheads, E11 hook
overhead, E15 serve (informational only: wall-clock, noisy) — and compares
the gated metrics against the committed baseline (BENCH_search.json).

  tools/bench_gate.py                         # run, write, compare
  tools/bench_gate.py --update-baseline       # refresh the baseline
  tools/bench_gate.py --max-procs 4 --skip-gbench   # quick smoke

Only metrics with "gate": true participate in the comparison; all of them
come from the vtime engine, whose virtual-cycle makespans are bit-identical
on any machine, so a >tolerance delta is a real code regression, not noise.
See docs/benchmarking.md for the schema and the refresh workflow.
"""

import argparse
import json
import os
import subprocess
import sys

SCHEMA = "selfsched-bench/v1"


def run_search_bench(build_dir, max_procs, tmp_path):
    exe = os.path.join(build_dir, "bench", "bench_search_scale")
    if not os.path.exists(exe):
        sys.exit(f"bench_gate: {exe} not built (cmake --build {build_dir})")
    subprocess.run([exe, "--json", tmp_path, "--max-procs", str(max_procs)],
                   check=True, stdout=subprocess.DEVNULL)
    with open(tmp_path) as f:
        data = json.load(f)
    os.unlink(tmp_path)
    return data["metrics"]


def run_overhead_bench(build_dir):
    """google-benchmark wall-clock numbers: informational, never gated."""
    exe = os.path.join(build_dir, "bench", "bench_overheads")
    if not os.path.exists(exe):
        print(f"bench_gate: note: {exe} not built, skipping overhead bench")
        return []
    proc = subprocess.run(
        [exe, "--benchmark_format=json", "--benchmark_min_time=0.05"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        print("bench_gate: note: bench_overheads failed, skipping:"
              f" {proc.stderr.strip()[:200]}")
        return []
    metrics = []
    for b in json.loads(proc.stdout).get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        metrics.append({
            "name": f"overheads/{b['name']}/real_time",
            "value": b["real_time"],
            "unit": b.get("time_unit", "ns"),
            "better": "less",
            "deterministic": False,
            "gate": False,
        })
    return metrics


def parse_hook_overhead(text):
    """Ratio metrics from bench_hook_overhead's table: one per row and per
    vs_* column, named hook_overhead/<row>_vs_<ref>.  A row's cell against
    itself reads "-" and is skipped."""
    metrics = []
    columns = None
    for line in text.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if cells[0] == "config":
            columns = [i for i, c in enumerate(cells) if c.startswith("vs_")]
            header = cells
            continue
        if columns is None or len(cells) != len(header):
            continue
        slug = cells[0].split(" (")[0].replace(",", "").replace(" ", "_")
        for i in columns:
            try:
                ratio = float(cells[i])
            except ValueError:
                continue
            metrics.append({
                "name": f"hook_overhead/{slug}_{header[i]}",
                "value": ratio,
                "unit": "ratio",
                "better": "less",
                "deterministic": False,
                "gate": False,
            })
    return metrics


def run_hook_overhead_bench(build_dir):
    """Trace/audit/fault hook cost ratios (bench_hook_overhead, E11):
    wall-clock, informational, never gated."""
    exe = os.path.join(build_dir, "bench", "bench_hook_overhead")
    if not os.path.exists(exe):
        print(f"bench_gate: note: {exe} not built, skipping hook bench")
        return []
    proc = subprocess.run([exe], capture_output=True, text=True)
    if proc.returncode != 0:
        print("bench_gate: note: bench_hook_overhead failed, skipping:"
              f" {proc.stderr.strip()[:200]}")
        return []
    return parse_hook_overhead(proc.stdout)


def run_serve_bench(build_dir, tmp_path):
    """Resident-service latency/throughput (bench_serve, E15): wall-clock
    and host-load sensitive, informational only — every row arrives with
    gate:false and is never compared against the baseline."""
    exe = os.path.join(build_dir, "bench", "bench_serve")
    if not os.path.exists(exe):
        print(f"bench_gate: note: {exe} not built, skipping serve bench")
        return []
    proc = subprocess.run([exe, "--json", tmp_path, "--programs", "16",
                           "--iters", "600"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        print("bench_gate: note: bench_serve failed, skipping:"
              f" {proc.stderr.strip()[:200]}")
        return []
    with open(tmp_path) as f:
        data = json.load(f)
    os.unlink(tmp_path)
    return data["metrics"]


def compare(baseline, current, tolerance):
    """Return (regressions, improvements, compared, only_base, only_cur,
    malformed) over gated metrics.  A metric missing "value"/"better" lands
    in `malformed` by name instead of raising KeyError mid-comparison."""
    base = {m.get("name", "<unnamed>"): m
            for m in baseline.get("metrics", []) if m.get("gate")}
    cur = {m.get("name", "<unnamed>"): m
           for m in current.get("metrics", []) if m.get("gate")}
    regressions, improvements, malformed, compared = [], [], [], 0
    for name in sorted(base.keys() & cur.keys()):
        old, new = base[name], cur[name]
        missing = [k for k in ("value", "better") if k not in old]
        missing += [k for k in ("value",) if k not in new]
        if missing:
            malformed.append((name, sorted(set(missing))))
            continue
        compared += 1
        if old["value"] == 0:
            continue
        ratio = new["value"] / old["value"]
        # "less" metrics regress upward, "more" metrics regress downward.
        delta = ratio - 1.0 if old["better"] == "less" else 1.0 - ratio
        entry = (name, old["value"], new["value"], delta)
        if delta > tolerance:
            regressions.append(entry)
        elif delta < -tolerance:
            improvements.append(entry)
    only_base = sorted(base.keys() - cur.keys())
    only_cur = sorted(cur.keys() - base.keys())
    return regressions, improvements, compared, only_base, only_cur, malformed


def evaluate(baseline, current, tolerance, allow_missing=False):
    """Apply the gate policy; returns (ok, lines).

    A gated baseline metric absent from a fresh run at the SAME max_procs
    is a failure with the missing names spelled out — a silently shrinking
    bench would otherwise pass the gate forever.  A shorter sweep
    (different max_procs) stays a note, as does --allow-missing.
    """
    regs, imps, compared, only_base, only_cur, malformed = compare(
        baseline, current, tolerance)
    lines = [f"bench_gate: compared {compared} gated metrics "
             f"(tolerance {tolerance:.0%})"]
    ok = True
    if malformed:
        for name, keys in malformed:
            lines.append(f"  MALFORMED {name}: missing {', '.join(keys)}")
        lines.append(f"bench_gate: FAIL — {len(malformed)} metric(s) "
                     "malformed; refresh with --update-baseline")
        ok = False
    if only_base:
        names = ", ".join(only_base[:5]) + (", ..." if len(only_base) > 5
                                            else "")
        if baseline.get("max_procs") != current.get("max_procs"):
            lines.append(f"bench_gate: note: {len(only_base)} baseline "
                         f"metrics not in this run ({names}) — smoke sweep?")
        elif allow_missing:
            lines.append(f"bench_gate: note: {len(only_base)} baseline "
                         f"metrics not in this run ({names}) — waived by "
                         "--allow-missing")
        else:
            lines.append(f"bench_gate: FAIL — {len(only_base)} gated "
                         f"baseline metric(s) missing from this run: {names}")
            lines.append("  (sweep matches the baseline's max_procs, so the "
                         "bench lost coverage; --allow-missing waives)")
            ok = False
    if only_cur:
        lines.append(f"bench_gate: note: {len(only_cur)} new metrics not in "
                     f"the baseline (first: {only_cur[0]}) — refresh the "
                     "baseline")
    for name, old, new, delta in imps:
        lines.append(f"  IMPROVED  {name}: {old:g} -> {new:g} ({delta:+.1%})")
    for name, old, new, delta in regs:
        lines.append(f"  REGRESSED {name}: {old:g} -> {new:g} ({delta:+.1%})")
    if regs:
        lines.append(f"bench_gate: FAIL — {len(regs)} gated metrics "
                     f"regressed beyond {tolerance:.0%}")
        ok = False
    if ok:
        lines.append("bench_gate: OK")
    return ok, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--baseline", default="BENCH_search.json",
                    help="committed baseline to compare against")
    ap.add_argument("--out", default=None,
                    help="write the fresh results here "
                         "(default: BENCH_search.new.json)")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional regression on gated metrics")
    ap.add_argument("--max-procs", type=int, default=8,
                    help="cap of the simulated-processor sweep; must match "
                         "the baseline's for a full comparison")
    ap.add_argument("--update-baseline", action="store_true",
                    help="overwrite --baseline with fresh results and exit")
    ap.add_argument("--skip-gbench", action="store_true",
                    help="skip the wall-clock benches (informational "
                         "metrics only)")
    ap.add_argument("--allow-missing", action="store_true",
                    help="downgrade gated baseline metrics missing from a "
                         "same-max-procs run from failure to note")
    args = ap.parse_args()

    metrics = run_search_bench(args.build_dir, args.max_procs,
                               os.path.join(args.build_dir,
                                            "bench_search_tmp.json"))
    if not args.skip_gbench:
        metrics += run_overhead_bench(args.build_dir)
        metrics += run_hook_overhead_bench(args.build_dir)
        metrics += run_serve_bench(args.build_dir,
                                   os.path.join(args.build_dir,
                                                "bench_serve_tmp.json"))

    current = {"schema": SCHEMA, "max_procs": args.max_procs,
               "metrics": metrics}

    if args.update_baseline:
        # The committed baseline must be machine-independent: keep only
        # the deterministic (vtime) metrics, never wall-clock ones.
        kept = [m for m in metrics if m["deterministic"]]
        with open(args.baseline, "w") as f:
            json.dump({"schema": SCHEMA, "max_procs": args.max_procs,
                       "metrics": kept}, f, indent=1)
            f.write("\n")
        gated = sum(1 for m in kept if m["gate"])
        print(f"bench_gate: wrote {args.baseline} "
              f"({len(kept)} metrics, {gated} gated)")
        return 0

    out = args.out or "BENCH_search.new.json"
    with open(out, "w") as f:
        json.dump(current, f, indent=1)
        f.write("\n")
    print(f"bench_gate: wrote {out} ({len(metrics)} metrics)")

    if not os.path.exists(args.baseline):
        sys.exit(f"bench_gate: baseline {args.baseline} not found — run "
                 "with --update-baseline to create it")
    with open(args.baseline) as f:
        baseline = json.load(f)
    if baseline.get("schema") != SCHEMA:
        sys.exit(f"bench_gate: baseline schema "
                 f"{baseline.get('schema')!r} != {SCHEMA!r}; refresh "
                 "with --update-baseline")
    ok, lines = evaluate(baseline, current, args.tolerance,
                         args.allow_missing)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
