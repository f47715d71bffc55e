#!/usr/bin/env python3
"""A/B steadiness check for perfbench.

Runs the benchmark command of BENCHMARK.json for two checkouts, or for one
checkout twice, in alternating order (A B, B A, A B, ...), one seed per
pair, and prints for every workload and end-to-end metric each side's
median and quartiles, its spread (interquartile distance over the median),
and whether the two sets agree within the metric's bound:

  * each side's spread is within the bound (setup_s is exempt);
  * B's median is not worse than A's by more than the bound;
  * both sides fail the same share of operations.

    python3 perfbench/ab.py --a . --runs 10            # one build twice
    python3 perfbench/ab.py --a ../parent --b . --runs 10

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, spec, workload, seed, seconds):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed in %s: %s (exit %d)" % (root, " ".join(cmd), proc.returncode))
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description="perfbench A/B steadiness check")
    ap.add_argument("--a", default=".", help="checkout A (default: .)")
    ap.add_argument("--b", help="checkout B (default: A again)")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--runs", type=int, default=10, help="runs per side")
    ap.add_argument("--seed0", type=int, default=1000, help="first seed")
    ap.add_argument("--json", help="write every result to this file")
    args = ap.parse_args()

    a = os.path.abspath(args.a)
    b = os.path.abspath(args.b or args.a)
    spec = load_spec(a)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    results = {w: {"A": [], "B": []} for w in workloads}
    for w in workloads:
        for i in range(args.runs):
            seed = args.seed0 + i
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                root = a if side == "A" else b
                r = run_once(root, spec, w, seed, spec["run_seconds"])
                results[w][side].append(r)
                print("%s %s seed=%d correct=%s failed=%d/%d" % (
                    w, side, seed, r["correct"], r["failed"], r["attempted"]),
                    file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        print("\n== %s (%d runs per side) ==" % (w, args.runs))
        print("%-22s %6s %14s %14s %14s %8s %14s %8s %8s  %s" % (
            "metric", "bound", "A median", "A q1", "A q3", "A sprd",
            "B median", "B sprd", "B-A", "verdict"))
        for side in ("A", "B"):
            if not all(r["correct"] for r in results[w][side]):
                print("side %s: a run reported correct=false" % side)
                ok = False
        share = {s: sorted({r["failed"] / r["attempted"] for r in results[w][s]})
                 for s in ("A", "B")}
        if share["A"] != share["B"] or len(share["A"]) != 1:
            print("failed-operation share differs: %s" % share)
            ok = False
        for name, m in bounds.items():
            va = [r["metrics"][name]["value"] for r in results[w]["A"]]
            vb = [r["metrics"][name]["value"] for r in results[w]["B"]]
            ma, qa1, qa3, sa = summary(va)
            mb, _, _, sb = summary(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            bound = m["bound"]
            good = worse <= bound and (name == "setup_s" or (sa <= bound and sb <= bound))
            ok = ok and good
            print("%-22s %6.3f %14.6g %14.6g %14.6g %8.4f %14.6g %8.4f %+8.4f  %s" % (
                name, bound, ma, qa1, qa3, sa, mb, sb, worse,
                "ok" if good else "OUT OF BOUND"))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)
    print("\nverdict: %s" % ("the two sets agree within the bounds" if ok
                             else "NOT within the bounds"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
