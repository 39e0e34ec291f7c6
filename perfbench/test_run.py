"""Self-tests of run.py's metric arithmetic (python3 perfbench/run.py
--selftest runs them, together with the driver's C++ self-checks)."""

import math
import unittest

import run


def request(wall, ok=True, best=2.0, cancelled=False):
    return {"cell": "c", "wall_s": wall, "ok": ok, "cancelled": cancelled,
            "error": "", "best_ms": best, "digest": ""}


class TailPercentileTest(unittest.TestCase):
    def test_exactly_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, pct, n = run.tail_percentile(values)
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_order_does_not_matter(self):
        values = [5, 1, 4, 2, 3] * 10
        self.assertEqual(run.tail_percentile(values),
                         run.tail_percentile(sorted(values)))

    def test_smallest_run_with_a_percentile_above_the_median(self):
        value, pct, n = run.tail_percentile(list(range(21)))
        self.assertEqual((value, n), (10, 21))
        self.assertGreater(pct, 50.0)

    def test_too_few_samples_for_a_tail(self):
        for n in (0, 1, 16, 20):
            with self.assertRaises(ValueError):
                run.tail_percentile(list(range(n)))


class EndToEndTest(unittest.TestCase):
    def test_counts_and_fractions(self):
        reqs = [request(0.1 * (i + 1)) for i in range(30)]
        reqs += [request(3.0, ok=False, best=4.0, cancelled=True)] * 2
        m = run.end_to_end(reqs, timed_wall_s=10.0, setup_s=[3.0, 1.0, 2.0],
                           peak_rss_mb=12.5)
        self.assertEqual(set(m), set(run.UNITS))
        self.assertEqual(m["ok_frac"][0], 30 / 32)
        self.assertEqual(m["ok_frac"][2], 32)
        # Cancelled requests count their full wall but are not ok.
        self.assertEqual(m["requests_per_s"][0], 3.0)
        self.assertEqual(m["requests_per_s"][2], 30)
        self.assertEqual(m["request_wall_tail_s"][2], 32)
        self.assertEqual(m["setup_s"][0], 2.0)
        self.assertEqual(m["setup_s"][2], 3)
        # Every request counts in the geomean, cancelled ones at their
        # best-so-far.
        self.assertAlmostEqual(m["best_ms_geomean"][0],
                               math.exp((30 * math.log(2) + 2 * math.log(4))
                                        / 32))
        self.assertEqual(m["best_ms_geomean"][2], 32)
        for name, (_, unit, _, _) in m.items():
            self.assertEqual(unit, run.UNITS[name])

    def test_requests_without_a_best_are_left_out_and_noted(self):
        reqs = [request(1.0)] * 20 + [request(1.0, ok=False, best=None)]
        m = run.end_to_end(reqs, 1.0, [1.0], 1.0)
        self.assertEqual(m["best_ms_geomean"][0], 2.0)
        self.assertEqual(m["best_ms_geomean"][2], 20)
        self.assertIn("without a best", m["best_ms_geomean"][3])


class DigestTest(unittest.TestCase):
    def test_matches_the_driver_format(self):
        self.assertEqual(run.digest(1.0, 7, 2.0),
                         "3ff0000000000000:7:4000000000000000")


class RequestErrorsTest(unittest.TestCase):
    def test_cancellations_and_rejections_are_not_wrong_outputs(self):
        cancelled = request(3.0, ok=False, cancelled=True)
        rejected = dict(request(0.1, ok=False), error="rejected: queue_full")
        broken = dict(request(0.1, ok=False), error="session ended failed")
        self.assertEqual(run.request_errors([cancelled, rejected]), [])
        self.assertEqual(len(run.request_errors([broken, request(1.0)])), 1)


if __name__ == "__main__":
    unittest.main()
