#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself, on its shortened (--quick)
configuration:

    python3 e2ebench/test_e2ebench.py

They check that every metric BENCHMARK.json names is emitted with its unit,
that one seed reproduces the deterministic work counters exactly, that
another seed changes the inputs, and that a tampered answer fails the run.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fewerr-batch", "zipf-serve", "splice-edit")
# Counters the library returns that depend only on the inputs, never on
# timing. cache.hashed_tokens is left out: the harness derives it from the
# lookups it counts, so it would repeat whether or not the library's
# hashing did.
DETERMINISTIC = {
    "fewerr-batch": ("fpt.subproblems", "pipeline.solver_ops."),
    "splice-edit": ("doc.chunks_recomputed",),
}


def run(workload, seed, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--quick", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines


def result_of(lines):
    return json.loads(lines[-1])


def inputs_of(lines):
    return [line for line in lines if line.startswith("# inputs ")]


class BenchmarkTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        cls.runs = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                cls.runs[workload, trace] = run(workload, 1, trace)

    def test_every_metric_is_emitted_with_its_unit(self):
        for (workload, trace), (code, lines) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(code, 0, lines)
                result = result_of(lines)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                declared = self.bench["per_layer" if trace else "end_to_end"]
                self.assertEqual(
                    {name: m["unit"] for name, m in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in declared})
                for m in result["metrics"].values():
                    self.assertIsInstance(m["value"], (int, float))

    def test_latency_lines_carry_sample_counts(self):
        for workload in WORKLOADS:
            _, lines = self.runs[workload, 0]
            for metric in ("latency_p50_ms", "latency_p99_ms"):
                line = next(l for l in lines if l.startswith(metric + " "))
                self.assertRegex(line, r"\bms\s+n=\d+$")

    def test_one_seed_repeats_the_deterministic_counters(self):
        for workload, prefixes in DETERMINISTIC.items():
            with self.subTest(workload=workload):
                code, again = run(workload, 1, 1)
                self.assertEqual(code, 0)
                first = result_of(self.runs[workload, 1][1])["metrics"]
                second = result_of(again)["metrics"]
                names = [n for n in first if n.startswith(prefixes)]
                self.assertTrue(names)
                for name in names:
                    self.assertEqual(first[name]["value"],
                                     second[name]["value"], name)
                self.assertGreater(
                    sum(first[n]["value"] for n in names), 0)

    def test_another_seed_changes_the_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, seed1 = self.runs[workload, 0]
                _, seed1_traced = self.runs[workload, 1]
                code, seed2 = run(workload, 2, 0)
                self.assertEqual(code, 0)
                self.assertEqual(len(inputs_of(seed1)), 1)
                self.assertEqual(inputs_of(seed1), inputs_of(seed1_traced))
                self.assertNotEqual(inputs_of(seed1), inputs_of(seed2))

    def test_a_tampered_answer_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines = run(workload, 1, 0, "--tamper")
                self.assertEqual(code, 1)
                self.assertFalse(result_of(lines)["correct"])


if __name__ == "__main__":
    unittest.main()
