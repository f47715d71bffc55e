#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload release_5m --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the
longdp library from src/ plus the program in perfbench/src/) into
.bench_build/, or into $CARGO_TARGET_DIR when that is set; later calls
rebuild incrementally. The program's report goes to stderr, and the last
line of stdout is its JSON result. With --trace 1 the spans are also
written to <build>/traces/<workload>-seed<seed>.json.

--small and --fault are for the benchmark's own tests (perfbench/tests/).
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("release_5m", "durable_1m", "serve_archive")
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the benchmark program; returns the binary's path."""
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(here, "..", "src", "CMakeLists.txt")):
        sys.exit("perfbench: no longdp sources next to perfbench/; run from a "
                 "checkout of the repository")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--fault", choices=("flip_release_bin", "flip_panel_bit", "wal_mismatch"))
    args = ap.parse_args()

    binary = build()
    out = build_dir()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out, "work", "%s-%d" % (args.workload, os.getpid()))]
    if args.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(out, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    if args.small:
        cmd.append("--small")
    if args.fault:
        cmd += ["--fault", args.fault]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if lines:
        print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
