#!/usr/bin/env python3
"""The benchmark's own tests, on tiny-scale runs.

    python3 perfbench/tests/test_perfbench.py

They build the benchmark through perfbench/run.py (the first run
compiles the simulator) and check that every workload prints every
metric BENCHMARK.json names with its unit, that the correctness checks
fail on planted defects, that a seed reproduces its decisions exactly
and another seed changes them, and that the benchmark refuses to run
without the simulator's sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# The gated workloads plus tres_mix, which is run by hand.
WORKLOADS = [w["name"] for w in spec()["workloads"]] + ["tres_mix"]


def run(workload, seed=1, trace=0, plant="none", cwd=ROOT, env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--scale", "tiny",
           "--plant", plant]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digests(proc):
    return re.findall(r"digest ([0-9a-f]{16})", proc.stdout)


class Metrics(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        bench = spec()
        self.assertEqual(bench["command"], ["python3", "perfbench/run.py"])
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, trace=trace)
                    self.assertEqual(proc.returncode, 0, proc.stdout)
                    result = result_of(proc)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)


class Checks(unittest.TestCase):
    def test_corrupt_activation_record_fails_the_run(self):
        proc = run("serve_hot", plant="corrupt-activation")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result_of(proc)["correct"])
        self.assertIn("never reached a terminal state", proc.stdout)

    def test_double_allocation_fails_the_run(self):
        for workload in ("fib_day", "tres_mix"):
            with self.subTest(workload=workload):
                proc = run(workload, plant="double-allocation")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result_of(proc)["correct"])
                self.assertRegex(proc.stdout,
                                 "no-double-allocation|tres-capacity")

    def test_traced_run_matches_untraced_digest(self):
        proc = run("fed4", trace=1)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertNotIn("traced run changed", proc.stdout)


class Seeds(unittest.TestCase):
    def test_same_seed_reproduces_different_seed_differs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, b, c = run(workload, 7), run(workload, 7), run(workload, 8)
                self.assertEqual(digests(a), digests(b))
                self.assertNotEqual(digests(a), digests(c))
                sim = lambda p: {k: v for k, v in result_of(p)["metrics"].items()
                                 if k not in ("wall_s", "setup_s", "peak_rss_mb")}
                self.assertEqual(sim(a), sim(b))


class Checkout(unittest.TestCase):
    def test_fails_without_simulator_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fib_day",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
