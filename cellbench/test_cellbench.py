#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic on fixed synthetic inputs.

    python3 cellbench/test_cellbench.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import report  # noqa: E402
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0]  # unsorted on purpose
        self.assertEqual(stats.percentile(values, 0), 1.0)
        self.assertEqual(stats.percentile(values, 100), 4.0)
        self.assertAlmostEqual(stats.percentile(values, 50), 2.5)
        self.assertAlmostEqual(stats.percentile(values, 90), 3.7)

    def test_p90_of_one_to_hundred(self):
        values = [float(i) for i in range(1, 101)]
        self.assertAlmostEqual(stats.percentile(values, 90), 90.1)
        self.assertAlmostEqual(stats.percentile(values, 50), 50.5)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(stats.supported_percentile(19))
        self.assertEqual(stats.supported_percentile(20), 50.0)
        self.assertEqual(stats.supported_percentile(99), 50.0)
        # Exactly ten beyond p90 at 100 samples: the benchmark's minimum.
        self.assertEqual(stats.supported_percentile(100), 90.0)
        self.assertEqual(stats.supported_percentile(199), 90.0)
        self.assertEqual(stats.supported_percentile(200), 95.0)
        self.assertEqual(stats.supported_percentile(1000), 99.0)
        self.assertEqual(stats.supported_percentile(10000), 99.9)


class PerRoundNormalisation(unittest.TestCase):
    def test_divides_by_rounds(self):
        self.assertEqual(stats.per_round(12.0, 4), 3.0)
        with self.assertRaises(ValueError):
            stats.per_round(1.0, 0)

    def test_ratio_of_nothing_counted(self):
        self.assertEqual(stats.ratio(3.0, 0.0), 0.0)
        self.assertEqual(stats.ratio(3.0, 0.0, empty=1.0), 1.0)
        self.assertEqual(stats.ratio(3.0, 2.0), 1.5)

    def test_layer_metrics_of_a_synthetic_traced_run(self):
        result = synthetic_trace_result()
        m = report.per_layer(result)
        # Two traced cells of two rounds each: four rounds in all.
        self.assertAlmostEqual(m["ml.forward.busy_s"], 0.4 / 4)
        self.assertAlmostEqual(m["ml.grad.calls"], 40 / 4)
        self.assertAlmostEqual(m["aggregation.calls"], 8 / 4)
        self.assertAlmostEqual(m["aggregation.us_per_call"], 1e6 * 2.0 / 8)
        self.assertAlmostEqual(m["aggregation.rows_per_call"], 80 / 8)
        self.assertAlmostEqual(m["aggregation.wall_share"], 1.6 / 4.0)
        self.assertAlmostEqual(m["round.unattributed_share"], 1 - 3.0 / 4.0)
        self.assertAlmostEqual(m["compression.ratio"], 8000 / 1000)
        self.assertAlmostEqual(m["agreement.subrounds"], 12 / 4)
        self.assertAlmostEqual(m["agreement.builds_per_subround"], 6 / 12)
        self.assertAlmostEqual(m["agreement.share_hit_ratio"], 18 / 24)
        self.assertAlmostEqual(m["network.messages"], 360 / 4)
        self.assertAlmostEqual(m["network.drop_ratio"], 20 / 400)
        self.assertAlmostEqual(m["network.late_ratio"], 20 / 400)
        self.assertAlmostEqual(m["network.bytes"], 4 * 100.0 / 4)
        self.assertAlmostEqual(m["setup.dataset_s"], 0.2)
        # Traced rounds 1.1 s against untraced 1.0 s.
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.1)
        self.assertEqual(set(m), set(report.PER_LAYER_UNITS))

    def test_end_to_end_of_a_synthetic_run(self):
        cell = untraced_cell([0.5, 1.0, 1.5], setup_s=0.3)
        cell["honest_uploaders"] = [9, 9, 8, 9]
        cell["batch"] = 10
        result = {"peak_rss_mb": 12.5,
                  "cells": [cell, untraced_cell([1.0, 1.0, 1.0], 0.1),
                            untraced_cell([1.0, 1.0, 1.0], 0.2)]}
        m = report.end_to_end(result, attempted=12, failed=3)
        self.assertAlmostEqual(m["round_s.p50"], 1.0)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["ok_frac"], 0.75)
        # Rounds 1..3 of the first cell consume 9 + 8 + 9 uploads of 10
        # examples; the other two cells 8 uploads of 1 example per round.
        samples = (9 + 8 + 9) * 10 + 2 * 3 * 8 * 1
        self.assertAlmostEqual(m["samples_per_s"], samples / 9.0)
        self.assertEqual(set(m), set(report.END_TO_END_UNITS))


class BoundComparison(unittest.TestCase):
    def test_worsening_follows_the_direction(self):
        self.assertAlmostEqual(stats.worsening(1.0, 1.2, "lower"), 0.2)
        self.assertAlmostEqual(stats.worsening(1.0, 0.8, "lower"), -0.2)
        self.assertAlmostEqual(stats.worsening(100.0, 90.0, "higher"), 0.1)
        with self.assertRaises(ValueError):
            stats.worsening(1.0, 1.0, "sideways")
        with self.assertRaises(ValueError):
            stats.worsening(0.0, 1.0, "lower")

    def test_regressed_compares_medians_against_the_bound(self):
        base = [1.0, 1.0, 1.0, 10.0]  # an outlier does not move the median
        self.assertFalse(stats.regressed(base, [1.09, 1.09, 0.5], "lower",
                                         0.10))
        self.assertTrue(stats.regressed(base, [1.11, 1.11, 0.5], "lower",
                                        0.10))
        self.assertTrue(stats.regressed([100.0] * 3, [80.0] * 3, "higher",
                                        0.10))
        self.assertFalse(stats.regressed([100.0] * 3, [120.0] * 3, "higher",
                                         0.10))

    def test_relative_spread_is_iqr_over_median(self):
        values = [float(i) for i in range(1, 11)]
        # statistics.quantiles(n=4) of 1..10: 2.75, 5.5, 8.25.
        self.assertAlmostEqual(stats.relative_spread(values), 5.5 / 5.5)
        self.assertEqual(stats.relative_spread([2.0] * 10), 0.0)


class OutputChecks(unittest.TestCase):
    workload = {"rounds": 3, "min_accuracy": 0.5,
                "max_disagreement_ratio": 0}

    def test_passing_cell(self):
        self.assertEqual(
            report.check_cell(untraced_cell([1, 1]), self.workload), [])

    def test_each_failure_is_reported(self):
        low = untraced_cell([1, 1])
        low["history"][-1]["accuracy"] = 0.4
        self.assertIn("floor", report.check_cell(low, self.workload)[0])
        drift = untraced_cell([1, 1])
        drift["history"][1]["disagreement"] = 1e-300
        self.assertIn("disagreement", report.check_cell(drift,
                                                        self.workload)[0])
        lossy = dict(self.workload, max_disagreement_ratio=1.0)
        drift["history"][1]["gradient_diameter"] = 2e-300
        self.assertEqual(report.check_cell(drift, lossy), [])
        drift["history"][1]["disagreement"] = 3e-300
        self.assertIn("disagreement", report.check_cell(drift, lossy)[0])
        short = untraced_cell([1])
        self.assertIn("ran 2 of 3", report.check_cell(short, self.workload)[0])
        net = untraced_cell([1, 1])
        net["counters"]["net.messages_delivered"] = 10 * 8 * 12 + 1
        self.assertIn("network", report.check_cell(net, self.workload)[0])

    def test_run_counts_failed_rounds_and_transparency(self):
        good = untraced_cell([1, 1])
        traced = untraced_cell([1, 1])
        traced["traced"] = True
        result = {"cells": [good, traced]}
        self.assertEqual(report.check_run(result, self.workload),
                         (6, 0, []))
        traced["history"][2]["loss"] = 0.25000000000000006
        attempted, failed, failures = report.check_run(result, self.workload)
        self.assertEqual((attempted, failed), (6, 3))
        self.assertIn("traced history differs", failures[0])

    def test_traced_cell_must_follow_its_untraced_twin(self):
        traced = untraced_cell([1, 1])
        traced["traced"] = True
        traced["spec"] = "topology=decentralized n=10 f=2 seed=2"
        result = {"cells": [untraced_cell([1, 1]), traced]}
        self.assertEqual(report.check_run(result, self.workload)[:2], (6, 3))
        result = {"cells": [traced]}
        self.assertEqual(report.check_run(result, self.workload)[:2], (3, 3))


def untraced_cell(round_s, setup_s=0.1):
    rounds = len(round_s) + 1
    history = [{k: 0.0 for k in report.DETERMINISTIC_FIELDS}
               for _ in range(rounds)]
    for r, record in enumerate(history):
        record["round"] = r
        record["accuracy"] = 0.9
        record["loss"] = 0.25
        record["bytes_delivered"] = 100.0
        record["engine_seconds"] = 1.0
    return {
        "spec": "topology=decentralized n=10 f=2 seed=1",
        "traced": False, "error": "", "setup_s": setup_s, "batch": 1,
        "round_s": list(round_s), "honest_uploaders": [8] * rounds,
        "history": history,
        "counters": {"agreement.subrounds": 6, "agreement.gram_builds": 3,
                     "agreement.shared_hits": 9, "net.rounds": 6,
                     "net.messages_delivered": 180,
                     "net.messages_dropped": 10, "net.messages_late": 10,
                     "net.timeouts_fired": 0, "net.bytes_sent": 500,
                     "net.bytes_delivered": 400, "log.warnings": 0},
    }


def traced_cell():
    cell = untraced_cell([1.1])
    cell["traced"] = True
    cell["dataset_s"] = 0.2
    cell["trainer_s"] = 0.05
    del cell["counters"]["log.warnings"]
    per_round = {
        "wall_s": 1.0, "covered_s": 0.75, "agg_covered_s": 0.4,
        "forward_busy_s": 0.1, "forward_calls": 50,
        "backward_busy_s": 0.1, "grad_calls": 10,
        "corrupt_busy_s": 0.01, "corrupt_calls": 1,
        "encode_busy_s": 0.02, "encode_calls": 5,
        "encode_dense_bytes": 2000, "encode_wire_bytes": 250,
        "agg_busy_s": 0.5, "agg_calls": 2, "agg_rows": 20}
    cell["layers"] = {k: [v, v] for k, v in per_round.items()}
    return cell


def synthetic_trace_result():
    return {"peak_rss_mb": 1.0,
            "cells": [untraced_cell([1.0]), traced_cell(),
                      untraced_cell([1.0]), traced_cell()]}


if __name__ == "__main__":
    unittest.main()
