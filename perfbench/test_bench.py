#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/test_bench.py          # from the repository root

Runs every workload briefly through perfbench/run.py and checks:
BENCHMARK.json and perfbench/metrics_map.json document the same
metrics and workloads; an untraced run prints every end-to-end metric
with its unit and no failed operation; the traced run emits every
per-layer metric with its unit, and its simulated counts repeat exactly
across two runs of one seed; the held-out seed gives different inputs
that still pass every output check.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
with open(os.path.join(HERE, "metrics_map.json")) as f:
    DOC = json.load(f)


def run(workload, seed, trace, seconds=0.5):
    """Runs one workload; returns (result, diagnostics) from the last two lines."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["diagnostics"]


def expect_clean(test, result, names):
    test.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
    test.assertTrue(result["correct"])
    test.assertGreaterEqual(result["attempted"], 1)
    test.assertEqual(result["failed"], 0)
    test.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, names)


class BenchmarkTest(unittest.TestCase):
    def test_documentation_matches_benchmark_json(self):
        self.assertEqual(
            [w["name"] for w in BENCH["workloads"]], list(DOC["workloads"]))
        self.assertEqual(
            [m["name"] for m in BENCH["per_layer"]], list(DOC["per_layer"]))
        for name, w in DOC["workloads"].items():
            self.assertTrue(w["unit"] and w["why"], name)
        workloads = set(DOC["workloads"])
        ends = {m["name"] for m in BENCH["end_to_end"]}
        for name, m in DOC["per_layer"].items():
            moves = m["should_move"]
            if moves is not None:
                self.assertIn(moves["metric"], ends, name)
                self.assertTrue(any(w in moves["workload"] for w in workloads), name)

    def test_end_to_end_metrics_on_default_and_held_out_seed(self):
        names = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        seeds = DOC["seeds"]
        for w in BENCH["workloads"]:
            digests = set()
            for seed in (seeds["default"], seeds["held_out"]):
                result, diag = run(w["name"], seed, 0)
                expect_clean(self, result, names)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                digests.add(diag["inputs_digest"])
            self.assertEqual(len(digests), 2, f"{w['name']}: held-out seed gave the same inputs")

    def test_traced_run_emits_every_per_layer_metric(self):
        names = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        seed = DOC["seeds"]["default"]
        first, _ = run(BENCH["workloads"][0]["name"], seed, 1)
        second, _ = run(BENCH["workloads"][-1]["name"], seed, 1)
        for result in (first, second):
            expect_clean(self, result, names)
        for name in names:
            if ".sim_" in name or name == "isa.trace_mb":
                self.assertEqual(
                    first["metrics"][name]["value"], second["metrics"][name]["value"], name)


if __name__ == "__main__":
    unittest.main()
