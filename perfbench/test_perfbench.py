#!/usr/bin/env python3
"""Shrunken-input test of the benchmark.

Runs every workload of BENCHMARK.json at 1/16 size for one second, untraced
and traced. Each run must pass its output checks and print exactly the
metrics BENCHMARK.json names for that mode, each with its declared unit.

Run from the repository root:

    python3 perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def bench(*args):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, capture_output=True, text=True, timeout=900
    )


class ShrunkenRuns(unittest.TestCase):
    def test_every_name_is_printed_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for workload in spec["workloads"]:
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    out = bench("--workload", workload["name"], "--seed", "3",
                                "--seconds", "1", "--trace", trace, "--shrink", "16")
                    self.assertEqual(out.returncode, 0, out.stderr[-3000:])
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out.stdout[-3000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    declared = {m["name"]: m["unit"] for m in spec[kind]}
                    self.assertEqual(printed, declared)
                    for name, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), name)

    def test_unknown_workload_fails_without_a_result(self):
        out = bench("--workload", "no-such-workload", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
        self.assertNotEqual(out.returncode, 0)
        self.assertFalse(any(l.startswith("{") for l in out.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main()
