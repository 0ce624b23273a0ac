"""Fast self-test of the benchmark: tiny-size smoke runs of every workload.

    python3 perfbench/selftest.py

Checks that each workload passes its gates and emits every metric named in
``BENCHMARK.json`` with its unit, that another seed changes the inputs but
not the set of metric names, that a layer whose anchor function is gone is
reported absent rather than crashing the traced run, and that the benchmark
refuses to run in a directory holding only the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(run.SRC))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
declared = run.declared_units


class SmokeRuns(unittest.TestCase):
    def test_workloads_are_declared(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))

    def test_end_to_end_metrics(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                digests, metric_sets = set(), []
                for seed in (1, 2):
                    result, info, _run = run.run_workload(name, seed, 0.05, False, "tiny")
                    self.assertTrue(result["correct"], _run.errors)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, declared("end_to_end"))
                    for metric in result["metrics"].values():
                        self.assertGreater(metric["value"], 0)
                    digests.add(info["inputs_digest"])
                    metric_sets.append(set(units))
                self.assertEqual(len(digests), 2, "another seed must change the inputs")
                self.assertEqual(metric_sets[0], metric_sets[1])

    def test_per_layer_metrics(self):
        expected = declared("per_layer")
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                result, info, _run = run.run_workload(name, 3, 0.05, True, "tiny")
                self.assertTrue(result["correct"], _run.errors)
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(info["absent"], [])
                self.assertEqual(units, expected)
                self.assertGreater(result["metrics"]["enumeration.calls"]["value"], 0)

    def test_missing_anchor_marks_layer_absent(self):
        original = dict(spans.LAYERS)
        spans.LAYERS["inequalities"] = "merged_away"
        try:
            result, info, _run = run.run_workload("dense_events", 4, 0.05, True, "tiny")
        finally:
            spans.LAYERS.clear()
            spans.LAYERS.update(original)
        self.assertTrue(result["correct"], _run.errors)
        self.assertIn("inequalities.self_s", info["absent"])
        self.assertIn("inequalities.scans_per_check", info["absent"])
        self.assertIn("enumeration.calls", result["metrics"])

    def test_shared_scan_lowers_scans_per_check(self):
        # A fused verify: the covariance check is served from the scan the
        # expectation check made, so two checks share one scan.
        tracer = spans.Tracer()
        tracer.model_funcs = {("inequalities", "check_positive_expectation"),
                              ("inequalities", "check_positive_covariance")}
        tracer.spans = [
            (0, -1, 0, "inequalities", "check_positive_expectation", 0, 100),
            (1, 0, 0, "enumeration", "correlation_sums", 10, 90),
            (2, -1, 0, "inequalities", "check_positive_covariance", 100, 110),
        ]
        tracer.kernel_calls = [(1, 6, 729, 729)]
        values = spans.layer_metrics(tracer, [0], 1, 0, 0.0)
        self.assertEqual(values["inequalities.scans_per_check"], 0.5)

    def test_refuses_without_sources(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "ring_cli",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
