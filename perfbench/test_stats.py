"""Tests of perfbench's statistics and of its metric lists.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import unittest
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


class MedianAndPercentile(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([5, 1, 3]), 3)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_percentile_ignores_order(self):
        self.assertEqual(stats.percentile([30, 10, 20, 40], 75), 30)

    def test_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.median([])
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1, 2], 0)


class TailRule(unittest.TestCase):
    def test_beyond_counts_samples_above_the_rank(self):
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.beyond(999, 99), 9)
        self.assertEqual(stats.beyond(100, 50), 50)

    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(stats.reported_tail(1000), 99.0)
        self.assertEqual(stats.reported_tail(100000), 99.0)
        # 990 samples: only 9 lie beyond p99, so p98 (19 beyond) is reported.
        self.assertEqual(stats.reported_tail(990), 98.0)

    def test_falls_down_the_ladder(self):
        self.assertEqual(stats.reported_tail(200), 95.0)
        self.assertEqual(stats.reported_tail(40), 75.0)
        self.assertEqual(stats.reported_tail(20), 50.0)
        self.assertIsNone(stats.reported_tail(19))

    def test_reported_tail_always_has_ten_beyond(self):
        for n in range(20, 3000, 7):
            p = stats.reported_tail(n)
            self.assertGreaterEqual(stats.beyond(n, p), 10, n)


class SetupTime(unittest.TestCase):
    def test_tenth_percentile_of_the_start_ups(self):
        # 1..40 ms: the nearest-rank p10 is the 4th smallest.
        samples = [i / 1000 for i in range(40, 0, -1)]
        self.assertEqual(stats.setup_time(samples), 0.004)

    def test_slow_stretch_is_left_out(self):
        fast = [1.0] * 30
        self.assertEqual(stats.setup_time(fast + [3.0] * 50), 1.0)


class CostGrowth(unittest.TestCase):
    def test_windows_are_first_and_last_tenth(self):
        values = list(range(100))
        first, last = stats.tenth_windows(values)
        self.assertEqual(first, list(range(10)))
        self.assertEqual(last, list(range(90, 100)))

    def test_short_sequences_use_one_sample(self):
        first, last = stats.tenth_windows([3, 4, 5])
        self.assertEqual((first, last), ([3], [5]))

    def test_flat_cost_is_one(self):
        self.assertEqual(stats.cost_growth([7.0] * 50), 1.0)

    def test_linear_rise(self):
        # Medians of 1..10 and 91..100 are 5.5 and 95.5.
        self.assertAlmostEqual(stats.cost_growth(list(range(1, 101))),
                               95.5 / 5.5)

    def test_scale_cancels(self):
        values = [1.0 + i / 10 for i in range(200)]
        doubled = [2 * v for v in values]
        self.assertAlmostEqual(stats.cost_growth(values),
                               stats.cost_growth(doubled))


def phase(step_us, n=400, start=0.0, extra=None):
    """A repetition of n ops, one every step_us; extra maps op -> delay."""
    ends, lats, t = [], [], start
    for i in range(n):
        lat = step_us + (extra or {}).get(i, 0.0)
        t += lat
        ends.append(t)
        lats.append(lat)
    return (start, ends, lats)


class FastestBlocks(unittest.TestCase):
    def test_block_bounds(self):
        self.assertEqual(stats.block_bounds(10, 3), [(0, 3), (3, 6), (6, 9)])
        self.assertEqual(stats.block_bounds(2, 500), [(0, 1), (1, 2)])
        with self.assertRaises(ValueError):
            stats.block_bounds(0)

    def test_steady_rate(self):
        rate, lat = stats.fastest_blocks([phase(10.0)] * 3, blocks=40)
        self.assertAlmostEqual(rate, 1e5)
        self.assertEqual(lat, [10.0] * 400)

    def test_stall_is_left_out(self):
        stalled = phase(10.0, extra={123: 50000.0})
        rate, lat = stats.fastest_blocks([stalled, phase(10.0)], blocks=40)
        self.assertAlmostEqual(rate, 1e5)
        self.assertEqual(max(lat), 10.0)
        whole = 400 * 1e6 / stalled[1][-1]
        self.assertLess(whole, 0.1 * rate)

    def test_slow_stretches_of_different_repetitions(self):
        # Each repetition runs at half speed through a different half.
        first = phase(10.0, extra={i: 10.0 for i in range(200)})
        second = phase(10.0, extra={i: 10.0 for i in range(200, 400)})
        rate, lat = stats.fastest_blocks([first, second], blocks=40)
        self.assertAlmostEqual(rate, 1e5)
        self.assertEqual(lat, [10.0] * 400)

    def test_real_slowdown_shows(self):
        # Work slower in every repetition reads slower.
        rate, _ = stats.fastest_blocks([phase(20.0), phase(25.0)], blocks=40)
        self.assertAlmostEqual(rate, 5e4)

    def test_growing_cost_keeps_its_shape(self):
        grow = phase(1.0, extra={i: float(i) for i in range(400)})
        rate, lat = stats.fastest_blocks([grow, grow], blocks=40)
        self.assertAlmostEqual(rate, 400 * 1e6 / grow[1][-1])
        self.assertEqual(lat, grow[2])

    def test_repetitions_must_match(self):
        with self.assertRaises(ValueError):
            stats.fastest_blocks([phase(1.0, 10), phase(1.0, 11)])
        with self.assertRaises(ValueError):
            stats.fastest_blocks([])


class Spread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.4, 9.9]
        q1, med, q3, spread = stats.quartile_spread(values)
        expected = statistics.quantiles(values, n=4)
        self.assertEqual([q1, med, q3], expected)
        self.assertAlmostEqual(spread, (expected[2] - expected[0]) / expected[1])


class MetricLists(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        import run
        config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in config["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in config["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in config["per_layer"]],
                         list(run.PER_LAYER))

    def test_setup_has_the_largest_bound(self):
        config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(max(bounds.values()), 0.25)


if __name__ == "__main__":
    unittest.main()
