"""Unit tests for perfbench/stats.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 0.5), 50)
        self.assertEqual(stats.percentile(values, 0.99), 99)
        self.assertEqual(stats.percentile([7], 0.99), 7)

    def test_p99_needs_ten_samples_beyond(self):
        # 1000 samples: p99 is rank 990, exactly 10 beyond it.
        values = list(range(1000))
        self.assertEqual(stats.samples_beyond(1000, 0.99), 10)
        self.assertEqual(stats.tail_percentile(values, 0.99), 989)
        # 999 samples leave only 9 beyond p99.
        with self.assertRaises(ValueError):
            stats.tail_percentile(values[:999], 0.99)

    def test_median_always_has_a_tail(self):
        self.assertEqual(stats.tail_percentile(list(range(21)), 0.5), 10)

    def test_unanswered_requests_sit_in_the_tail(self):
        values = [1.0] * 990 + [math.inf] * 10
        self.assertEqual(stats.tail_percentile(values, 0.99), 1.0)
        values = [1.0] * 989 + [math.inf] * 11
        self.assertEqual(stats.tail_percentile(values, 0.99), math.inf)


class SelfTime(unittest.TestCase):
    def test_span_minus_children(self):
        spans = [
            {"id": 1, "parent": 0, "start": 0, "end": 100},
            {"id": 2, "parent": 1, "start": 10, "end": 30},
            {"id": 3, "parent": 1, "start": 50, "end": 90},
            {"id": 4, "parent": 3, "start": 60, "end": 70},
        ]
        self.assertEqual(stats.self_times(spans),
                         {1: 40, 2: 20, 3: 30, 4: 10})

    def test_overlapping_children_count_once(self):
        spans = [
            {"id": 1, "parent": 0, "start": 0, "end": 100},
            {"id": 2, "parent": 1, "start": 20, "end": 60},
            {"id": 3, "parent": 1, "start": 40, "end": 80},
        ]
        self.assertEqual(stats.self_times(spans)[1], 40)

    def test_child_clipped_to_parent(self):
        # A queued request: the execute span can only start after submit.
        spans = [
            {"id": 1, "parent": 0, "start": 100, "end": 200},
            {"id": 2, "parent": 1, "start": 150, "end": 260},
        ]
        self.assertEqual(stats.self_times(spans)[1], 50)


class DueTimeLatency(unittest.TestCase):
    def test_late_generator_counts_against_latency(self):
        ms = 1_000_000
        # Due every 10 ms; the generator stalls 25 ms before the second send,
        # and each answer takes 1 ms after its send.
        rows = [
            (0 * ms, 0 * ms, 1 * ms),
            (10 * ms, 35 * ms, 36 * ms),
            (20 * ms, 35 * ms, 36 * ms),
            (30 * ms, 35 * ms, 36 * ms),
            (40 * ms, 40 * ms, 41 * ms),
        ]
        latencies, lateness = stats.due_time_latencies(rows)
        self.assertEqual(latencies, [1.0, 26.0, 16.0, 6.0, 1.0])
        self.assertEqual(lateness, [0.0, 25.0, 15.0, 5.0, 0.0])
        # Timed from send, every request would read 1 ms.
        self.assertEqual(max(r[2] - r[1] for r in rows) / ms, 1.0)

    def test_unanswered_is_infinite(self):
        latencies, _ = stats.due_time_latencies([(0, 0, 0)])
        self.assertEqual(latencies, [math.inf])


class CrossingRate(unittest.TestCase):
    def test_interpolates_in_log_latency(self):
        rate = stats.crossing_rate((900, 10.0), (1200, 1000.0), 100.0)
        self.assertAlmostEqual(rate, 1050.0)

    def test_no_failing_probe_reports_the_highest_pass(self):
        self.assertEqual(stats.crossing_rate((1800, 30.0), None, 100.0), 1800)

    def test_failure_not_due_to_latency_reports_the_pass(self):
        self.assertEqual(stats.crossing_rate((900, 30.0), (1200, 50.0), 100.0),
                         900)


if __name__ == "__main__":
    unittest.main()
