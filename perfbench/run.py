#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <fib_day|serve_hot|tres_mix|fed4> \
        --seed <n> --seconds <s> --trace <0|1> [--scale tiny] [--plant <defect>]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
always as a Release build of the sources in this checkout. Build output
goes to stderr; stdout is the benchmark's own, and its last line is the
JSON result. The exit code is the benchmark's (0 only if every
correctness check passed); a failed build or a run over the time limit
exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    generated = any(os.path.isfile(os.path.join(out_dir, f))
                    for f in ("build.ninja", "Makefile"))
    if not generated:
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=Release", "-DHPCWHISK_OBS=ON",
               "-DHPCWHISK_SANITIZE=OFF", "-DHPCWHISK_COVERAGE=OFF"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(out_dir, "perfbench")


def stop_group(proc):
    """Kills the binary's process group and waits until it is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--scale", choices=["full", "tiny"], default="full")
    p.add_argument("--plant", default="none")
    args = p.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--plant", args.plant]
    if args.trace == "1":
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, f"{args.workload}-{args.seed}.txt")]
    # The binary forks a child per simulated window; its own process
    # group lets a timeout stop them all.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124
    lines = stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        valid = isinstance(result, dict) and set(result) == RESULT_KEYS
    except (IndexError, ValueError):
        valid = False
    if not valid:
        sys.stderr.write(stdout)
        print("perfbench: no result line", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
