"""Tests of the benchmark's own helpers (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import struct
import unittest

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(999), 90.0)
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(10_000), 99.9)
        self.assertEqual(metrics.tail_percentile(1_000_000), 99.999)

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(metrics.tail_percentile(19))
        self.assertEqual(metrics.tail_percentile(20), 50.0)

    def test_tail_carries_value_and_sample_count(self):
        samples = list(range(1, 1001))  # 1..1000
        pct, value, count = metrics.tail(samples)
        self.assertEqual((pct, count), (99.0, 1000))
        self.assertEqual(value, 990)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertIsNone(metrics.tail([1.0] * 5))

    def test_nearest_rank_percentile(self):
        self.assertEqual(metrics.percentile([3, 1, 2], 50), 2)
        self.assertEqual(metrics.percentile([5.0], 99), 5.0)
        self.assertEqual(metrics.percentile(list(range(1, 101)), 99), 99)
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)


class MetricNameTest(unittest.TestCase):
    def test_accepts_dotted_names(self):
        for name in ("setup_s", "roadnet.router.heap_pops",
                     "mapmatch.route_cache.hit_ratio", "p99-ms", "9lives"):
            self.assertTrue(metrics.valid_name(name), name)

    def test_rejects_other_characters_and_lengths(self):
        for name in ("", "a b", "qps/s", ".hidden", "_x", "x" * 65,
                     "naïve", None, 7):
            self.assertFalse(metrics.valid_name(name), name)
        self.assertTrue(metrics.valid_name("x" * 64))

    def test_benchmark_json_names_are_valid_and_unique(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(metrics.valid_name(name), name)
        for span_metric in metrics.SPAN_METRICS.values():
            self.assertIn(span_metric, names)


class SelfTimeTest(unittest.TestCase):
    # (name, parent, start_ns, end_ns, tag)
    SPANS = [
        (0, -1, 0, 100, -1),    # 0 root: 100 ns
        (1, 0, 10, 40, 7),      # 1 child: 30 ns
        (2, 1, 20, 30, 7),      # 2 grandchild: 10 ns
        (1, 0, 50, 60, 8),      # 3 child: 10 ns
        (0, -1, 200, 205, -1),  # 4 second root, no children
    ]

    def test_self_time_is_duration_minus_direct_children(self):
        own = metrics.self_times(self.SPANS)
        expected = [60e-9, 20e-9, 10e-9, 10e-9, 5e-9]
        for got, want in zip(own, expected):
            self.assertAlmostEqual(got, want, places=15)

    def test_self_times_partition_the_root_spans(self):
        self.assertAlmostEqual(sum(metrics.self_times(self.SPANS)), 105e-9,
                               places=15)

    def test_by_name_and_binary_round_trip(self):
        data = b"".join(metrics.SPAN_RECORD.pack(*s) for s in self.SPANS)
        spans = metrics.read_spans(data)
        self.assertEqual(spans, self.SPANS)
        totals = metrics.self_time_by_name(spans, ["root", "child", "leaf"])
        self.assertAlmostEqual(totals["root"], 65e-9, places=15)
        self.assertAlmostEqual(totals["child"], 30e-9, places=15)
        self.assertAlmostEqual(totals["leaf"], 10e-9, places=15)
        self.assertEqual(metrics.SPAN_RECORD.size, 32)
        self.assertEqual(struct.calcsize("<iiqqq"), 32)


class FailedShareTest(unittest.TestCase):
    def test_out_of_bounds_probes_are_not_failures(self):
        tallies = {"queries": 1000, "answered": 800, "out_of_bounds": 150,
                   "empty_cell": 50}
        attempted, failed = metrics.accounting("serve_replay", tallies)
        self.assertEqual((attempted, failed), (1000, 0))
        self.assertEqual(metrics.failed_share(attempted, failed), 0.0)

    def test_queries_without_outcome_are_failures(self):
        tallies = {"queries": 1000, "answered": 790, "out_of_bounds": 150,
                   "empty_cell": 50}
        self.assertEqual(metrics.accounting("serve_replay", tallies),
                         (1000, 10))

    def test_unroutable_pairs_and_failed_studies(self):
        self.assertEqual(metrics.accounting(
            "metro_routing", {"routes": 512, "routes_unroutable": 1}),
            (512, 1))
        self.assertEqual(metrics.accounting(
            "paper_study", {"studies": 4, "studies_failed": 0}), (4, 0))

    def test_nothing_attempted_is_an_error(self):
        self.assertEqual(metrics.accounting("metro_routing", {}), (0, 0))
        with self.assertRaises(ValueError):
            metrics.failed_share(0, 0)
        with self.assertRaises(ValueError):
            metrics.accounting("unknown", {})
        with self.assertRaises(ValueError):
            metrics.accounting("online_ingest", {})


if __name__ == "__main__":
    unittest.main()
