#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the root of a checkout (builds perfbench first, like run.py):

    python3 perfbench/tests/selftest.py

1. Every workload, at small scale (--small) for a second, through every
   check, traced and untraced: exit 0, correct, no failed operation, and
   exactly the metrics BENCHMARK.json names, with their units.
2. A traced run writes a span for every per-layer metric its workload
   moves, and the draw-stream counts repeat exactly for one seed.
3. Injected faults must fail the run: a flipped release bin (caught by the
   fixed-window consistency check and by the served answers), a flipped
   panel bit (served answers and archive read-back), and a WAL frame that
   disagrees with replay (recovery refuses it).
4. In a directory holding only BENCHMARK.json and perfbench/, the command
   exits non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Spans each workload's traced run must contain (the per-layer metrics
# of that workload are computed from these).
SPANS = {
    "release_5m": [
        "data.generate", "core.fixed_window.first_release", "core.fixed_window.round",
        "core.fixed_window.pass", "core.cumulative.first_release", "core.cumulative.round",
        "core.cumulative.pass", "core.categorical.first_release", "core.categorical.round",
        "core.categorical.pass"],
    "durable_1m": [
        "data.generate", "data.pack", "persist.fixed_window.round",
        "persist.fixed_window.snapshot", "persist.cumulative.round",
        "persist.cumulative.snapshot", "persist.categorical.round",
        "persist.categorical.snapshot", "persist.fixed_window.session",
        "core.fixed_window.base_pass", "persist.reopen", "persist.replay",
        "core.to_dataset", "archive.seal", "archive.append", "archive.finish"],
    "serve_archive": [
        "data.generate", "archive.open", "archive.select", "query.releases.fixed_window",
        "query.releases.cumulative", "query.releases.categorical", "query.histogram",
        "query.spell.ever", "query.spell.ongoing", "query.spell.mean_length",
        "query.spell.length_histogram", "simd.plane_histogram"],
}

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, *extra, trace=0, seed=7, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc.stderr


def metrics_match(result, spec_metrics):
    got = result["metrics"]
    return (sorted(got) == sorted(m["name"] for m in spec_metrics) and
            all(got[m["name"]]["unit"] == m["unit"] for m in spec_metrics) and
            all(math.isfinite(v["value"]) for v in got.values()))


def trace_spans(workload, seed):
    build = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    path = os.path.join(build, "traces", "%s-seed%d.json" % (workload, seed))
    with open(path) as f:
        return {s["name"] for s in json.load(f)["spans"]}


def main():
    for w in WORKLOADS:
        rc, r, _ = run(w, "--small")
        expect(rc == 0 and r is not None and r["correct"] and r["failed"] == 0
               and r["attempted"] > 0, "%s: small run passes every check" % w)
        expect(r is not None and metrics_match(r, SPEC["end_to_end"])
               and all(v["value"] > 0 for v in r["metrics"].values()),
               "%s: prints every end-to-end metric, none zero" % w)
        rc, r, _ = run(w, "--small", trace=1)
        expect(rc == 0 and r is not None and r["correct"] and r["failed"] == 0,
               "%s: traced small run passes every check" % w)
        expect(r is not None and metrics_match(r, SPEC["per_layer"]),
               "%s: traced run prints every per-layer metric" % w)
        spans = trace_spans(w, 7)
        missing = [s for s in SPANS[w] if s not in spans]
        expect(not missing, "%s: trace holds the layer spans %s" % (w, missing or ""))

    counts = ["core.fixed_window.negative_clamps", "core.fixed_window.rounding_draws",
              "core.categorical.negative_clamps", "core.categorical.remainder_draws"]
    _, r1, _ = run("release_5m", "--small", trace=1, seed=11)
    _, r2, _ = run("release_5m", "--small", trace=1, seed=11)
    expect(r1 is not None and r2 is not None and
           all(r1["metrics"][c]["value"] == r2["metrics"][c]["value"] for c in counts),
           "release_5m: draw-stream counts repeat exactly for one seed")

    for w, fault, message in [
            ("release_5m", "flip_release_bin", "sliding-window constraint broken"),
            ("serve_archive", "flip_release_bin", "does not read back equal"),
            ("serve_archive", "flip_panel_bit", "panel does not read back bit for bit"),
            ("durable_1m", "wal_mismatch", "differs from the WAL frame")]:
        rc, r, err = run(w, "--small", "--fault", fault)
        expect(rc != 0 and r is not None and (not r["correct"] or r["failed"] > 0)
               and message in err, "%s --fault %s fails the run" % (w, fault))
        if w == "serve_archive":
            expect("a served answer differs" in err,
                   "%s --fault %s is caught by the answer checks" % (w, fault))

    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        start = time.time()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"], cwd=bare, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip() and time.time() - start < 180,
               "without the sources the command fails fast and prints no result")
    finally:
        shutil.rmtree(bare)

    print("\n%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
