#!/usr/bin/env python3
"""Verdict rules of tools/e2e_ab.py on synthetic numbers (no benchmark
runs):

    python3 tools/test_e2e_ab.py
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import e2e_ab  # noqa: E402


class QuartilesTest(unittest.TestCase):

    def test_five_runs(self):
        self.assertEqual(e2e_ab.quartiles([5, 1, 4, 2, 3]), (2, 3, 4))

    def test_one_run(self):
        self.assertEqual(e2e_ab.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_relative_handles_zero_base(self):
        self.assertEqual(e2e_ab.relative(0, 0), 0.0)
        self.assertEqual(e2e_ab.relative(0, 3), math.inf)
        self.assertAlmostEqual(e2e_ab.relative(10, 12), 0.2)


class VerdictTest(unittest.TestCase):
    TIGHT = [100, 100, 101, 99, 100]

    def test_lower_is_better_median_past_bound_is_worse(self):
        change = [130, 131, 129, 130, 130]
        self.assertEqual(e2e_ab.verdict("lower", 0.25, self.TIGHT, change),
                         "worse")

    def test_lower_is_better_within_bound_is_ok(self):
        change = [120, 121, 119, 120, 120]
        self.assertEqual(e2e_ab.verdict("lower", 0.25, self.TIGHT, change),
                         "ok")

    def test_higher_is_better_drop_past_bound_is_worse(self):
        change = [75, 76, 74, 75, 75]
        self.assertEqual(e2e_ab.verdict("higher", 0.2, self.TIGHT, change),
                         "worse")

    def test_improvement_is_never_worse(self):
        self.assertEqual(e2e_ab.verdict("lower", 0.1, self.TIGHT, [50] * 5),
                         "ok")
        self.assertEqual(e2e_ab.verdict("higher", 0.1, self.TIGHT, [200] * 5),
                         "ok")

    def test_noisy_base_without_clean_separation_is_unresolved(self):
        noisy = [60, 80, 100, 120, 140]  # IQR/median = 0.4
        change = [70, 90, 100, 110, 130]
        self.assertEqual(e2e_ab.verdict("lower", 0.25, noisy, change),
                         "unresolved")

    def test_noisy_base_beaten_by_every_change_run_is_ok(self):
        noisy = [60, 80, 100, 120, 140]
        self.assertEqual(e2e_ab.verdict("lower", 0.25, noisy, [50] * 5), "ok")
        self.assertEqual(e2e_ab.verdict("higher", 0.25, noisy, [150] * 5),
                         "ok")

    def test_worse_wins_over_unresolved(self):
        noisy = [60, 80, 100, 120, 140]
        self.assertEqual(e2e_ab.verdict("lower", 0.25, noisy, [200] * 5),
                         "worse")

    def test_success_rate_drop_past_one_percent_is_worse(self):
        self.assertEqual(
            e2e_ab.verdict("higher", 0.01, [1.0] * 5, [0.98] * 5), "worse")
        self.assertEqual(
            e2e_ab.verdict("higher", 0.01, [1.0] * 5, [1.0] * 5), "ok")

    def test_all_zero_metric_is_ok(self):
        self.assertEqual(e2e_ab.verdict("lower", 0.25, [0] * 5, [0] * 5), "ok")


if __name__ == "__main__":
    unittest.main()
