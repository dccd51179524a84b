#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs two sets of runs, one after the other. A set runs every workload of
BENCHMARK.json N times, with seeds 1 .. N and the run length of
BENCHMARK.json. For every end-to-end metric and each set it prints the
median, the quartiles (as Python's statistics.quantiles(n=4) gives
them), the spread (Q3 - Q1) / median against the metric's bound, and the
largest deviation from the median. It then prints, per metric, the gap
|second median - first median| / first median against the bound: what a
comparison of two builds of the same code would see.

It also asserts that the deterministic metrics repeat exactly: the
plan-quality metrics of each seed across the two sets, and the
per-layer work counts of two --trace 1 runs of seed 1. Run from the
repository root:

    python3 perfbench/steady.py --runs 10

Exits 1 when a spread or a gap exceeds its bound or a deterministic
metric differs between runs of one seed.
"""

import argparse
import json
import statistics
import subprocess
import sys

SEED0 = 1
DETERMINISTIC_E2E = {"sim_io_s_per_query", "est_cost_s_per_query"}


def deterministic_layer(name):
    """Work counts that must repeat exactly for one seed (times excluded)."""
    if name.endswith(".alloc_kw"):
        return True
    layer, _, what = name.partition(".")
    return layer in ("volcano", "storage") and not what.endswith(("_ms", "_us"))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)}: {result['failed']} of {result['attempted']} queries failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def same(workload, seed, what, names, a, b):
    bad = [k for k in names if a[k] != b[k]]
    print(f"{workload} seed {seed} {what}: {len(names) - len(bad)}/{len(names)} deterministic metrics repeat exactly"
          + (f"; differ: {', '.join(f'{k} {a[k]!r} vs {b[k]!r}' for k in bad)}" if bad else ""))
    return not bad


def trace_determinism(workload, seconds):
    a, b = run(workload, SEED0, seconds, 1), run(workload, SEED0, seconds, 1)
    return same(workload, SEED0, "trace 1", [k for k in a if deterministic_layer(k)], a, b)


def one_set(workloads, runs, seconds):
    """{workload: [metrics of seed SEED0 + i]}"""
    return {w: [run(w, SEED0 + i, seconds, 0) for i in range(runs)] for w in workloads}


def spreads(bench, label, workload, results):
    ok = True
    print(f"\n{workload}, {label}: {len(results)} runs, seeds {SEED0}..{SEED0 + len(results) - 1}")
    print(f"  {'metric':24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6} {'maxdev':>8}")
    for m in bench["end_to_end"]:
        xs = [r[m["name"]] for r in results]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        maxdev = max(abs(x - med) for x in xs) / med
        flag = ""
        if spread > m["bound"]:
            flag, ok = "  OVER BOUND", False
        elif spread > m["bound"] / 3:
            flag = "  over bound/3"
        print(f"  {m['name']:24} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {m['bound']:6.2f} {maxdev:8.4f}{flag}")
    return ok


def gaps(bench, workload, first, second):
    ok = True
    print(f"\n{workload}: gap between the medians of the two sets")
    print(f"  {'metric':24} {'first':>14} {'second':>14} {'gap':>8} {'bound':>6}")
    for m in bench["end_to_end"]:
        m1 = statistics.median(r[m["name"]] for r in first)
        m2 = statistics.median(r[m["name"]] for r in second)
        gap = abs(m2 - m1) / m1
        flag = ""
        if gap > m["bound"]:
            flag, ok = "  OVER BOUND", False
        elif gap > m["bound"] / 3:
            flag = "  over bound/3"
        print(f"  {m['name']:24} {m1:14.6g} {m2:14.6g} {gap:8.4f} {m['bound']:6.2f}{flag}")
    return ok


def main():
    sys.stdout.reconfigure(line_buffering=True)
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10, help="runs per workload and set (at least 2)")
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        ok = trace_determinism(w, seconds) and ok
    first = one_set(workloads, args.runs, seconds)
    second = one_set(workloads, args.runs, seconds)
    for w in workloads:
        for i, (a, b) in enumerate(zip(first[w], second[w])):
            ok = same(w, SEED0 + i, "trace 0, both sets", sorted(DETERMINISTIC_E2E), a, b) and ok
        ok = spreads(bench, "first set", w, first[w]) and ok
        ok = spreads(bench, "second set", w, second[w]) and ok
        ok = gaps(bench, w, first[w], second[w]) and ok
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
