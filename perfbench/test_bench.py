#!/usr/bin/env python3
"""Tests of the benchmark itself: the pinned-result check catches a
perturbed field, and refusals exit non-zero without a result.

    python3 perfbench/test_bench.py

Builds the benchmark on first use, like run.py.
"""

import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def assert_refused(test, proc):
    test.assertNotEqual(proc.returncode, 0)
    lines = proc.stdout.strip().splitlines()
    test.assertTrue(any(l.startswith("UNMEASURED:") for l in lines),
                    proc.stdout + proc.stderr)
    test.assertFalse(lines and lines[-1].startswith("{"),
                     "a refusal must not print a result")


class BenchTest(unittest.TestCase):
    def test_perturbed_field_is_caught(self):
        proc = run([RUN, "--self-test"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("self-test: ok", proc.stdout)

    def test_refuses_more_workers_than_cpus(self):
        too_many = len(os.sched_getaffinity(0)) + 1
        proc = run([RUN, "--workload", "fig06_cold", "--seconds", "1",
                    "--workers", str(too_many)])
        assert_refused(self, proc)

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "dense_1c", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, capture_output=True, text=True,
                timeout=180, env=env)
            assert_refused(self, proc)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
