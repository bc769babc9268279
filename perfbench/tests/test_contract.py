#!/usr/bin/env python3
"""Contract tests of the perfbench binary against BENCHMARK.json.

    python3 perfbench/tests/test_contract.py BUILD/perfbench BENCHMARK.json

Checks that the metric names, units and directions the binary reports
are the ones BENCHMARK.json declares, that a run prints the result object
with exactly the declared metrics, and that two runs at one seed print
the same sim_digest.
"""
import json
import subprocess
import sys
import unittest

BINARY = None
SPEC = None


def run(*args):
    p = subprocess.run([BINARY, *args], capture_output=True, text=True, timeout=170)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines


class Contract(unittest.TestCase):
    def test_metric_catalogue_matches_benchmark_json(self):
        code, lines = run("--list-metrics")
        self.assertEqual(code, 0)
        listed = json.loads(lines[-1])
        self.assertEqual(listed["workloads"], [w["name"] for w in SPEC["workloads"]])
        for key in ("end_to_end", "per_layer"):
            declared = [{k: m[k] for k in ("name", "unit", "better")} for m in SPEC[key]]
            self.assertEqual(listed[key], declared, key)

    def test_result_line_and_digest_repeat(self):
        args = ["--workload", "serve_mixed", "--seed", "5", "--seconds", "0.01",
                "--trace", "0"]
        code1, out1 = run(*args)
        code2, out2 = run(*args)
        self.assertEqual((code1, code2), (0, 0))
        result = json.loads(out1[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1000)
        names = [m["name"] for m in SPEC["end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        digest1 = [l for l in out1 if l.startswith("sim_digest ")]
        digest2 = [l for l in out2 if l.startswith("sim_digest ")]
        self.assertEqual(len(digest1), 1)
        self.assertEqual(digest1, digest2)

    def test_traced_run_reports_every_layer_metric(self):
        code, out = run("--workload", "serve_mixed", "--seed", "5", "--seconds", "1",
                        "--trace", "1")
        self.assertEqual(code, 0)
        result = json.loads(out[-1])
        names = [m["name"] for m in SPEC["per_layer"]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_usage_errors_exit_2(self):
        self.assertEqual(run("--workload", "nope")[0], 2)
        self.assertEqual(run("--workload", "serve_mixed", "--trace", "2")[0], 2)


if __name__ == "__main__":
    BINARY, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        SPEC = json.load(f)
    unittest.main(argv=[sys.argv[0]], verbosity=2)
