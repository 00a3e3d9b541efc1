"""Unit tests of the benchmark's statistics.

Run: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class MedianQuartilesTest(unittest.TestCase):
    def test_median_odd_even_empty(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.median([]), 0.0)

    def test_quartiles_match_statistics_module(self):
        values = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_quartiles_of_one_value(self):
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_spread_is_iqr_over_median(self):
        values = list(range(1, 11))  # Q1 2.75, median 5.5, Q3 8.25
        self.assertAlmostEqual(stats.spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(stats.spread([2.0, 2.0, 2.0]), 0.0)


class WindowedTest(unittest.TestCase):
    def test_median_of_per_window_statistic(self):
        windows = [[1, 2, 3], [10, 20, 30], [4, 5, 6]]
        self.assertEqual(stats.windowed(windows, stats.median), 5)
        self.assertEqual(stats.windowed(windows, max), 6)

    def test_a_stalled_window_does_not_move_it(self):
        calm = [[1.0, 1.1, 1.2]] * 4
        self.assertEqual(stats.windowed(calm + [[50.0, 60.0, 70.0]],
                                        stats.median),
                         stats.windowed(calm, stats.median))

    def test_no_windows(self):
        self.assertEqual(stats.windowed([], stats.median), 0.0)


class TailTest(unittest.TestCase):
    def test_p99_when_ten_samples_lie_beyond(self):
        values = list(range(1, 1001))  # 1..1000
        self.assertEqual(stats.tail(values), (99.0, 990))

    def test_lower_percentile_keeps_ten_beyond(self):
        values = list(range(1, 501))  # p99 would leave only 5 beyond
        pct, value = stats.tail(values)
        self.assertEqual(value, 490)
        self.assertAlmostEqual(pct, 98.0)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(1000, 0, -1)]
        self.assertEqual(stats.tail(values), (99.0, 990.0))

    def test_few_samples_keep_ten_beyond(self):
        # 20 samples: rank 10 is the highest with ten samples above it.
        self.assertEqual(stats.tail(list(range(1, 21))), (50.0, 10))
        self.assertEqual(stats.tail(list(range(1, 12))), (100.0 / 11, 1))

    def test_ten_or_fewer_samples_give_the_maximum(self):
        self.assertEqual(stats.tail([5.0, 1.0, 3.0]), (100.0, 5.0))
        self.assertEqual(stats.tail(list(range(10))), (100.0, 9))

    def test_empty(self):
        self.assertEqual(stats.tail([]), (0.0, 0.0))


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        # root [0,100): children [10,30) and [50,60); grandchild [12,20).
        spans = [
            (1, 0, "root", 0.0, 100.0),
            (2, 1, "a", 10.0, 20.0),
            (3, 1, "b", 50.0, 10.0),
            (4, 2, "c", 12.0, 8.0),
        ]
        own = stats.self_times(spans)
        self.assertEqual(own, {1: 70.0, 2: 12.0, 3: 10.0, 4: 8.0})

    def test_overlapping_children_count_once(self):
        # Parallel children on two threads: [0,60) and [40,100) cover 100.
        spans = [
            (1, 0, "op", 0.0, 120.0),
            (2, 1, "morsel", 0.0, 60.0),
            (3, 1, "morsel", 40.0, 60.0),
        ]
        self.assertEqual(stats.self_times(spans)[1], 20.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [(1, 0, "p", 10.0, 10.0), (2, 1, "c", 5.0, 10.0)]
        self.assertEqual(stats.self_times(spans)[1], 5.0)

    def test_totals_by_name(self):
        spans = [
            (1, 0, "q", 0.0, 10.0),
            (2, 1, "SCAN t", 0.0, 4.0),
            (3, 0, "q", 20.0, 6.0),
            (4, 3, "SCAN t", 20.0, 1.0),
        ]
        by_name = stats.self_time_by_name(spans)
        self.assertEqual(by_name["q"], (11.0, 2))
        self.assertEqual(by_name["SCAN t"], (5.0, 2))

    def test_excluded_roots_drop_their_trees(self):
        spans = [
            (1, 0, "read", 0.0, 10.0),
            (2, 1, "sql.parse", 0.0, 1.0),
            (3, 0, "write", 20.0, 10.0),
            (4, 3, "query", 20.0, 9.0),
            (5, 4, "sql.parse", 20.0, 5.0),
        ]
        by_name = stats.self_time_by_name(spans, exclude_roots=("write",))
        self.assertEqual(by_name["sql.parse"], (1.0, 1))
        self.assertNotIn("query", by_name)


if __name__ == "__main__":
    unittest.main()
