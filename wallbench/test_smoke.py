#!/usr/bin/env python3
"""Smoke test of the wall-clock benchmark.

Runs every workload at reduced size (--size small), untraced and traced, and
checks the result line against BENCHMARK.json: each named metric is printed
exactly once, with its unit and a finite value, and every check passed.

Run from the repository root:

    python3 wallbench/test_smoke.py
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        capture_output=True, text=True, check=False, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr[-4000:]
    return out.stdout.strip().splitlines()


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        lines = run(workload, trace)
        self.assertGreaterEqual(len(lines), 3)
        host = json.loads(lines[-3])["host"]
        for key in ("nproc", "elsa_threads", "cpu_model", "l2", "l3", "rustc",
                    "peak_gflops_start", "peak_gflops_end"):
            self.assertIn(key, host)
        named = json.loads(lines[-2])
        self.assertEqual(named["workload"], workload)
        raw = lines[-1]
        result = json.loads(raw)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            name = m["name"]
            self.assertEqual(raw.count(f'"{name}":'), 1, name)
            got = result["metrics"][name]
            self.assertEqual(got["unit"], m["unit"], name)
            self.assertIsInstance(got["value"], (int, float), name)
            self.assertTrue(math.isfinite(got["value"]), name)

    def test_every_workload(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)


if __name__ == "__main__":
    unittest.main()
