#!/usr/bin/env python3
"""Checks tools/ab.py's statistics, verdicts and gate on synthetic runs.

    python3 tools/ab_test.py
"""
import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402

BASE = [100.0 + i for i in range(10)]  # Quartiles 102.25 and 106.75.


class CompareTest(unittest.TestCase):
    def test_medians_quartiles_and_pairs_with_ties(self):
        head = [100, 100, 103, 103, 105, 104, 106, 108, 107, 110]
        s = ab.compare(BASE, head, "lower")
        self.assertEqual(s["median"], [104.5, 104.5])
        self.assertEqual(s["quartiles"], [[102.25, 106.75], [103.0, 106.75]])
        # Ties at 100, 103 and 106 count for neither side.
        self.assertEqual((s["won"], s["lost"]), (3, 4))
        self.assertNotIn("verdict", s)
        s = ab.compare(BASE, head, "higher")
        self.assertEqual((s["won"], s["lost"]), (4, 3))

    def test_better(self):
        self.assertEqual(ab.compare(BASE, [x - 5 for x in BASE], "lower", 0.24)
                         ["verdict"], "better")
        self.assertEqual(ab.compare(BASE, [x * 1.06 for x in BASE], "higher",
                                    0.05)["verdict"], "better")
        # Nine of ten pairs won, but the medians differ by less than 4.5.
        head = [x - 4 for x in BASE[:9]] + [BASE[9] + 1]
        self.assertEqual(ab.compare(BASE, head, "lower", 0.24)["verdict"], "same")

    def test_worse(self):
        self.assertEqual(ab.compare(BASE, [x * 1.3 for x in BASE], "lower", 0.24)
                         ["verdict"], "worse")
        self.assertEqual(ab.compare(BASE, [x * 0.9 for x in BASE], "higher",
                                    0.05)["verdict"], "worse")

    def test_unresolved_unless_every_head_run_beats_every_base_run(self):
        wide = [60.0 + 10 * i for i in range(10)]  # Spread 45 > 0.24 * 105.
        self.assertEqual(ab.compare(wide, list(reversed(wide)), "lower", 0.24)
                         ["verdict"], "unresolved")
        self.assertEqual(ab.compare(wide, [x - 100 for x in wide], "lower", 0.24)
                         ["verdict"], "better")

    def test_same(self):
        self.assertEqual(ab.compare(BASE, list(BASE), "lower", 0.24)["verdict"],
                         "same")
        self.assertEqual(ab.compare(BASE, [x * 1.2 for x in BASE], "lower", 0.24)
                         ["verdict"], "same")


class GateTest(unittest.TestCase):
    def test_fires_on_a_ten_percent_shift_that_loses_every_pair(self):
        rng = random.Random(1)
        base = [rng.gauss(1900, 40) for _ in range(10)]
        s = ab.compare(base, [x * 1.1 for x in base], "lower", 0.24)
        self.assertEqual((s["lost"], s["verdict"]), (10, "same"))
        self.assertTrue(ab.fails_gate("cpu_us_per_request", s))
        self.assertFalse(ab.fails_gate("setup_s", s))

    def test_fires_on_a_worse_verdict_of_any_metric(self):
        s = ab.compare(BASE, [x * 1.3 for x in BASE], "lower", 0.25)
        self.assertTrue(ab.fails_gate("setup_s", s))

    def test_quiet_on_two_samples_from_one_distribution(self):
        rng = random.Random(2)
        fired = 0
        for _ in range(1000):
            base = [rng.gauss(1900, 40) for _ in range(10)]
            head = [rng.gauss(1900, 40) for _ in range(10)]
            fired += ab.fails_gate("cpu_us_per_request",
                                   ab.compare(base, head, "lower", 0.24))
        # Losing >= 9 of 10 fair pairs alone has probability 11/1024.
        self.assertLessEqual(fired, 20)


class HostLoadTest(unittest.TestCase):
    STAT = ("cpu  100 20 30 5000 7 4 6 10 3 1\n"
            "cpu0 50 10 15 2500 3 2 3 5 1 0\n"
            "intr 12345\n")

    def test_busy_seconds_sum_the_busy_fields_of_the_cpu_line(self):
        # user + nice + system + irq + softirq + steal: idle, iowait and
        # the guest fields (already inside user and nice) stay out.
        self.assertEqual(ab.host_busy_s(self.STAT, 100), 1.7)
        self.assertEqual(ab.host_busy_s(self.STAT, 10), 17.0)

    def test_no_cpu_line_is_an_error(self):
        with self.assertRaises(ValueError):
            ab.host_busy_s("cpu0 1 2 3 4 5 6 7 8 9 10\n", 100)

    def test_other_cpu_excludes_the_runs_own_process_tree(self):
        before = (ab.host_busy_s(self.STAT, 100), 2.0)
        after = (ab.host_busy_s("cpu  900 20 230 9000 7 4 6 10 3 1\n", 100),
                 9.5)
        # 10 s busy on the host, 7.5 s of it the run's own.
        self.assertAlmostEqual(ab.other_cpu_s(before, after), 2.5)


if __name__ == "__main__":
    unittest.main()
