#!/usr/bin/env python3
"""Tests bench/check_bench_regression.py, the CI bench gate, as CI runs it.

Each case copies the checked-in baselines into a scratch emissions
directory, breaks one thing, and runs the gate's --suite mode over it:
the untouched copy must pass, and a halved throughput, an ok_ratio
below 1 or a missing perfbench emission must each fail. A last case
flattens a perfbench output into its BENCH_perf_*.json emission.

    python3 tests/bench_gate_test.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(ROOT, "bench", "check_bench_regression.py")
BASELINE_DIR = os.path.join(ROOT, "bench", "baseline")
SUITE = os.path.join(BASELINE_DIR, "gate.json")

PERFBENCH_OUTPUT = """perfbench workload=serve seed=1 seconds=2 trace=0
serve clients=3 server_workers=2 plan_cache_hits=100 rejected=0
metric queries_per_s 25000 1/s
{"correct": true, "attempted": 100, "failed": 0, "metrics": \
{"queries_per_s": {"value": 25000.5, "unit": "1/s"}, \
"ok_ratio": {"value": 1, "unit": "ratio"}}}
"""


def run_gate(*args):
    return subprocess.run(
        [sys.executable, GATE, *args], capture_output=True, text=True
    )


class SuiteGateTest(unittest.TestCase):
    def setUp(self):
        self.current = tempfile.mkdtemp(prefix="bench_gate_")
        for name in os.listdir(BASELINE_DIR):
            if name.startswith("BENCH_"):
                shutil.copy(os.path.join(BASELINE_DIR, name), self.current)

    def tearDown(self):
        shutil.rmtree(self.current)

    def gate(self):
        return run_gate(
            "--suite", SUITE,
            "--current-dir", self.current,
            "--baseline-dir", BASELINE_DIR,
        )

    def edit(self, name, field, value):
        path = os.path.join(self.current, name)
        with open(path) as f:
            emission = json.load(f)
        self.assertIn(field, emission)
        emission[field] = value(emission[field])
        with open(path, "w") as f:
            json.dump(emission, f)

    def assertFailsOn(self, needle):
        run = self.gate()
        self.assertEqual(run.returncode, 1, run.stdout + run.stderr)
        self.assertIn(needle, run.stderr)

    def test_baselines_pass_against_themselves(self):
        run = self.gate()
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        self.assertIn("bench gate passed", run.stdout)

    def test_halved_queries_per_s_fails(self):
        self.edit("BENCH_perf_adhoc.json", "queries_per_s", lambda v: v / 2)
        self.assertFailsOn("BENCH_perf_adhoc.json: regression: queries_per_s")

    def test_ok_ratio_below_one_fails(self):
        self.edit("BENCH_perf_churn.json", "ok_ratio", lambda v: 0.999)
        self.assertFailsOn("BENCH_perf_churn.json: regression: ok_ratio")

    def test_missing_perfbench_emission_fails(self):
        os.remove(os.path.join(self.current, "BENCH_perf_serve.json"))
        self.assertFailsOn("BENCH_perf_serve.json: emission")

    def test_rejected_request_on_traced_serve_fails(self):
        self.edit("BENCH_perf_serve_traced.json", "server.rejected",
                  lambda v: 1)
        self.assertFailsOn("regression: server.rejected")


class FlattenTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp(prefix="bench_flatten_")

    def tearDown(self):
        shutil.rmtree(self.dir)

    def write(self, name, text):
        path = os.path.join(self.dir, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def test_result_line_becomes_an_emission(self):
        out = self.write("perf_serve.txt", PERFBENCH_OUTPUT)
        run = run_gate("--perfbench", out, "--current-dir", self.dir)
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        with open(os.path.join(self.dir, "BENCH_perf_serve.json")) as f:
            emission = json.load(f)
        self.assertEqual(emission["bench"], "perf_serve")
        self.assertEqual(emission["seed"], 1)
        self.assertEqual(emission["attempted"], 100)
        self.assertEqual(emission["queries_per_s"], 25000.5)
        self.assertEqual(emission["ok_ratio"], 1)
        self.assertGreaterEqual(emission["cores"], 1)

    def test_traced_run_gets_its_own_emission(self):
        out = self.write(
            "perf_serve_traced.txt",
            PERFBENCH_OUTPUT.replace("trace=0", "trace=1"),
        )
        run = run_gate("--perfbench", out, "--current-dir", self.dir)
        self.assertEqual(run.returncode, 0, run.stdout + run.stderr)
        self.assertTrue(os.path.exists(
            os.path.join(self.dir, "BENCH_perf_serve_traced.json")))

    def test_output_without_result_line_fails(self):
        out = self.write("perf_scan.txt",
                         "perfbench workload=scan seed=1 seconds=2 trace=0\n")
        run = run_gate("--perfbench", out, "--current-dir", self.dir)
        self.assertEqual(run.returncode, 1, run.stdout + run.stderr)
        self.assertFalse(os.path.exists(
            os.path.join(self.dir, "BENCH_perf_scan.json")))


if __name__ == "__main__":
    unittest.main()
