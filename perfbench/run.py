#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n>
        --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset, and is reused by later runs. Build output goes
to stderr; the program's stdout passes through, so the last stdout line is
the result JSON. A traced run also writes its spans (Chrome trace_event
JSON) to <build>/traces/<workload>.json. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("train-storage", "train-faults", "serve-ladder")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
MAX_BUILD_JOBS = 4


def run(cmd, timeout, **kwargs):
    """Runs cmd and returns its exit code; on timeout the child is killed
    and waited for, and TimeoutExpired propagates."""
    return subprocess.run(cmd, timeout=timeout, **kwargs).returncode


def build(build_dir):
    """Configures (once) and builds the program; returns the binary path."""
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            raise RuntimeError("cmake configure failed")
    jobs = max(1, min(MAX_BUILD_JOBS, os.cpu_count() or 1))
    if run(["cmake", "--build", build_dir, "-j", str(jobs)], BUILD_TIMEOUT_S,
           stdout=sys.stderr) != 0:
        raise RuntimeError("cmake build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, args.workload + ".json")]
    try:
        return run(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
