#!/usr/bin/env python3
"""Builds the popdb benchmark driver from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload tpch_exec --seed 1 --seconds 36 --trace 0

Workloads: tpch_exec, dmv_adhoc, mixed_wire (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
and writes a Chrome trace (loads in Perfetto) to
<build dir>/trace-<workload>.json.

The driver is built with CMake (Release) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench under the repository root when that variable is
unset. Build output goes to stderr; the last line of stdout is the
driver's JSON result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpch_exec", "dmv_adhoc", "mixed_wire")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def configure(out):
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the popdb sources (src/) are not next to "
                 "perfbench/; run from a full checkout")
    if not configure(out):
        # A cache left by a checkout at another path: start over once.
        shutil.rmtree(out, ignore_errors=True)
        if not configure(out):
            sys.exit("perfbench: cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "popdb_perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(out, "popdb_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (query order, bindings, stream)")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int, default=0,
                        help="data generator seed; 0 = generator default")
    args = parser.parse_args()

    out = build_dir()
    exe = build(out)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--data-seed", str(args.data_seed)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(out, "trace-%s.json" % args.workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: the driver exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: the driver exited with %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.exit("perfbench: the driver printed no result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
