#!/usr/bin/env python3
"""Shows that the benchmark's output checks can fail, and that its output
matches BENCHMARK.json.

For every workload, a short run must pass and report exactly the declared
end-to-end metrics (--trace 0) or per-layer metrics (--trace 1), with their
declared units; the same run with the benchmark-only --corrupt switch (one
expected answer, epsilon or ack count altered) must exit nonzero and report
correct = false.

    python3 perfbench/tests/test_checks.py
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(BENCH_DIR, "run.py")
with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, corrupt=0, trace=0):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--corrupt", str(corrupt)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class ChecksCanFail(unittest.TestCase):
    def test_clean_runs_pass_and_report_the_declared_metrics(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc, result = run(workload, trace=trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    reported = {name: m["unit"]
                                for name, m in result["metrics"].items()}
                    self.assertEqual(reported, declared(kind))

    def test_corrupted_expectation_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, corrupt=1)
                self.assertNotEqual(proc.returncode, 0)
                self.assertIn("CHECK FAILED", proc.stderr)
                if result is not None:
                    self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
