#!/usr/bin/env python3
"""Builds and runs the layered benchmark (see README.md).

Usage, from the repository root:

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and compiles the library sources and the
driver into .bench_build/layerbench (later runs find it up to date).
Build output goes to stderr, so the last line of standard output is the
driver's JSON result. Each run works in a private directory under
.bench_build that is removed when the run ends; a traced run also
leaves its spans in .bench_build/traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "layerbench")
BINARY = os.path.join(BUILD_DIR, "layerbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; False on any failure."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("layerbench: no library sources next to the benchmark",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true",
                        help="corrupt one expected answer; pass only if "
                             "the run counts it as the one failure")
    args = parser.parse_args()

    if not build():
        print("layerbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work-dir", work_dir]
    if args.trace == "1":
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    if args.self_test:
        command.append("--self-test")
    try:
        sys.stdout.flush()
        proc = subprocess.Popen(command)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("layerbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
