"""Smoke tests of the benchmark itself, at the tiny size of every workload.

    python3 bench/smoke_tests.py

They check that every metric BENCHMARK.json names is printed with its
unit, that the correctness gate fails when the program gives a wrong
verdict or a non-repeatable output, that traced and untraced outputs hash
the same, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
from blockdict import equivalence, harness, subspace  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def run_all(trace: int):
    proc = bench("--workload", "all", "--seed", "5", "--seconds", "0.3",
                 "--trace", str(trace), "--size", "tiny")
    lines = proc.stdout.strip().splitlines()
    return proc, [json.loads(line) for line in lines]


class PrintedMetrics(unittest.TestCase):
    def test_end_to_end_metrics_and_units(self):
        proc, lines = run_all(0)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        reports, result = lines[:-1], lines[-1]
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual([r["workload"] for r in reports], list(run.WORKLOADS))
        for r in reports:
            for spec in SPEC["end_to_end"]:
                printed = result["metrics"][f"{r['workload']}/{spec['name']}"]
                self.assertEqual(printed["unit"], spec["unit"])
                self.assertGreater(printed["value"], 0)
            expected = set(run.END_TO_END)
            if r["attempted"] < 20:
                expected.discard("item_s.tail")
            self.assertEqual(set(r["end_to_end"]), expected)
            for name, printed in r["end_to_end"].items():
                self.assertEqual(printed["unit"], run.END_TO_END[name])
        self.assertEqual(len(result["metrics"]), len(reports) * len(SPEC["end_to_end"]))

    def test_per_layer_metrics_and_trace_hashes(self):
        proc, lines = run_all(1)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        reports, result = lines[:-1], lines[-1]
        self.assertTrue(result["correct"])
        for r in reports:
            self.assertTrue(r["gate"]["hashes_match"])
            self.assertEqual(r["gate"]["rechecked_items"], r["attempted"])
            for spec in SPEC["per_layer"]:
                printed = result["metrics"][f"{r['workload']}/{spec['name']}"]
                self.assertEqual(printed["unit"], spec["unit"])
        self.assertEqual(len(result["metrics"]), len(reports) * len(SPEC["per_layer"]))

    def test_benchmark_json_matches_the_code(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         {k: run.END_TO_END[k] for k in run.BOUNDED})
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, run.PER_LAYER)


class CorrectnessGate(unittest.TestCase):
    def gate(self, workload):
        return run.run_workload(workload, seed=5, seconds=0.2, trace=False, size="tiny")

    def test_passes_on_the_program_as_it_is(self):
        for workload in run.WORKLOADS:
            self.assertTrue(self.gate(workload)["correct"], workload)

    def test_fails_when_certify_misses_a_planted_equivalence(self):
        def never_equivalent(*args, **kwargs):
            return equivalence.EquivalenceCertificate("not-equivalent", None, None, None)

        with mock.patch.object(equivalence, "recover_equivalence", never_equivalent):
            report = self.gate("certify")
        self.assertFalse(report["correct"])
        self.assertTrue(report["gate"]["invalid_items"])

    def test_fails_when_learn_claims_equivalence_without_evidence(self):
        def always_equivalent(*args, **kwargs):
            return equivalence.EquivalenceCertificate("equivalent", None, None, None)

        with mock.patch.object(harness, "recover_equivalence", always_equivalent):
            report = self.gate("learn-clean")
        self.assertFalse(report["correct"])

    def test_fails_when_screen_breaks_lemma1(self):
        with mock.patch.object(subspace, "check_lemma1", lambda *a, **k: False):
            report = self.gate("screen")
        self.assertFalse(report["correct"])

    def test_fails_when_outputs_do_not_repeat(self):
        real = harness.run_experiment
        calls = []

        def drifting(config):
            report = real(config)
            calls.append(None)
            report.generation_retries += len(calls)
            return report

        with mock.patch.object(harness, "run_experiment", drifting):
            report = self.gate("learn-noisy")
        self.assertFalse(report["gate"]["hashes_match"])
        self.assertFalse(report["correct"])


class Refusal(unittest.TestCase):
    def test_exits_nonzero_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("--workload", "screen", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
