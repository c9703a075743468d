#!/usr/bin/env python3
"""Self-tests of the benchmark's own statistics (stats.py).

    python3 hebench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def make_step(rate, seconds, due, done, ok=None, idle=None, sent=None,
              conns=4):
    """A step record shaped like load.cpp's output."""
    n = len(due)
    sent = list(due) if sent is None else sent
    return {
        "rate": rate, "seconds": seconds, "conns": conns,
        "due_ms": list(due), "sent_ms": sent,
        "submitted_ms": [s if s < 0 else s + 0.1 for s in sent],
        "done_ms": list(done),
        "ok": [1] * n if ok is None else ok,
        "wrong": [0] * n,
        "idle": [0] * n if idle is None else idle,
        "polls": [1] * n,
    }


def steady_step(rate, seconds=2.0, latency_ms=5.0):
    """Requests evenly spaced at `rate`, each served in latency_ms."""
    due = [i * 1000.0 / rate for i in range(int(rate * seconds))]
    return make_step(rate, seconds, due, [d + latency_ms for d in due])


def overloaded_step(rate, capacity, seconds=2.0):
    """Arrivals at `rate`, served one at a time at `capacity`."""
    due = [i * 1000.0 / rate for i in range(int(rate * seconds))]
    done, free = [], 0.0
    for d in due:
        free = max(free, d) + 1000.0 / capacity
        done.append(free)
    return make_step(rate, seconds, due, done)


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_failures_sort_last(self):
        values = [1.0] * 98 + [stats.INF] * 2
        self.assertEqual(stats.percentile(values, 98), 1.0)
        self.assertEqual(stats.percentile(values, 99), stats.INF)

    def test_ten_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50)
        self.assertEqual(stats.tail_percentile(99), 50)
        self.assertEqual(stats.tail_percentile(100), 90)
        self.assertEqual(stats.tail_percentile(999), 90)
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_unsupported_percentile_is_refused(self):
        with self.assertRaises(ValueError):
            stats.require_percentile([1.0] * 999, 99, "test")
        self.assertEqual(stats.require_percentile([1.0] * 1000, 99, "t"), 1.0)


class StepRule(unittest.TestCase):
    LIMIT = 50.0

    def test_steady_rung_passes(self):
        step = steady_step(100)
        self.assertFalse(stats.backlog_grows(step))
        self.assertTrue(stats.rung_passes(step, self.LIMIT))

    def test_overload_grows_the_backlog(self):
        self.assertTrue(stats.backlog_grows(overloaded_step(200, 150)))
        self.assertFalse(stats.backlog_grows(overloaded_step(100, 150)))

    def test_slow_rung_fails_the_limit(self):
        self.assertFalse(
            stats.rung_passes(steady_step(100, latency_ms=60), self.LIMIT))

    def test_one_failure_fails_the_rung(self):
        step = steady_step(100)
        step["ok"][7] = 0
        self.assertFalse(stats.rung_passes(step, self.LIMIT))
        self.assertEqual(stats.step_counts(step), (200, 1, 0))

    def test_unsent_requests_miss_the_limit(self):
        step = steady_step(1000)
        for i in range(0, 2000, 50):  # 2% never sent
            step["sent_ms"][i] = -1
            step["done_ms"][i] = -1
        self.assertEqual(stats.step_latencies(step).count(stats.INF), 40)
        self.assertFalse(stats.rung_passes(step, self.LIMIT))
        self.assertEqual(stats.step_counts(step)[0], 1960)

    def test_max_rate_is_the_last_rung_before_the_first_failure(self):
        steps = [steady_step(100), steady_step(200),
                 overloaded_step(400, 300), steady_step(800)]
        # 400 requests completed between the first due time (0 ms) and
        # the last completion (1995 + 5 ms).
        self.assertAlmostEqual(stats.achieved_rate(steps[1]), 200.0)
        self.assertAlmostEqual(stats.max_rate(steps, self.LIMIT), 200.0)
        # Order of the list does not matter: the ladder ascends by rate.
        self.assertAlmostEqual(stats.max_rate(steps[::-1], self.LIMIT), 200.0)

    def test_max_rate_is_zero_when_the_lowest_rung_fails(self):
        steps = [steady_step(100, latency_ms=80), steady_step(200)]
        self.assertEqual(stats.max_rate(steps, self.LIMIT), 0.0)

    def test_generator_lateness_counts_idle_sends_only(self):
        step = make_step(10, 1.0, due=[0, 100, 200], done=[5, 105, 205],
                         sent=[0.5, 130, 202], idle=[1, 0, 1])
        self.assertEqual(stats.generator_late_ms([step]), [0.5, 2])


class Attribution(unittest.TestCase):
    # [name, start, end, id, parent, request, thread]
    SPANS = [
        ["request", 0, 100, 1, 0, 7, 0],
        ["client.submit", 10, 30, 2, 1, 7, 0],
        ["client.await", 20, 50, 3, 1, 7, 0],  # overlaps submit
        ["client.poll", 12, 15, 4, 2, 7, 0],
        ["request", 200, 210, 5, 0, 8, 0],
        ["client.submit", 195, 205, 6, 5, 8, 0],  # starts before parent
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        selfs = stats.self_times_ns(self.SPANS)
        self.assertEqual(selfs[1], 100 - 40)  # children cover [10, 50]
        self.assertEqual(selfs[2], 20 - 3)
        self.assertEqual(selfs[3], 30)
        self.assertEqual(selfs[4], 3)
        self.assertEqual(selfs[5], 10 - 5)  # child clipped to [200, 205]

    def test_layers_and_root_remainder(self):
        layers = stats.layer_self_ms(self.SPANS)
        self.assertAlmostEqual(layers["request"], 65e-6)
        self.assertAlmostEqual(layers["client.submit"], 27e-6)
        self.assertAlmostEqual(
            stats.unattributed_ms(self.SPANS, {"request"}), 32.5e-6)

    def test_self_times_add_up_to_the_roots(self):
        # Nested, non-overlapping children: the layers' self times sum to
        # the root durations exactly.
        spans = [["tower", 0, 100, 1, 0, 1, 0],
                 ["graph.build", 0, 10, 2, 1, 1, 0],
                 ["graph.execute", 10, 95, 3, 1, 1, 0],
                 ["batch.mul", 20, 40, 4, 3, 1, 0]]
        self.assertAlmostEqual(sum(stats.layer_self_ms(spans).values()),
                               100e-6)

    def test_no_roots_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.unattributed_ms(self.SPANS, {"tower"})


if __name__ == "__main__":
    unittest.main()
