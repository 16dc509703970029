#!/usr/bin/env python3
"""Self-test of bench/pairs.py: synthetic results through report().

    python3 bench/test_pairs.py

Checks the WORSE and UNRESOLVED verdicts and the --claim rule without
running perfbench.
"""
import contextlib
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pairs  # noqa: E402

# "higher is better" with a 25 % bound, "lower is better" with 20 %.
BOUNDS = {"serve_rps": ("higher", 0.25), "factor_s": ("lower", 0.2)}


def run(metrics, failed=0, attempted=100):
    return {"metrics": {k: {"value": v} for k, v in metrics.items()},
            "failed": failed, "attempted": attempted, "correct": True}


def side(name, values, **kw):
    return [run({name: v}, **kw) for v in values]


def call_report(a, b, claims=()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        ok = pairs.report("w", {"a": a, "b": b}, BOUNDS, claims)
    return ok, out.getvalue()


def verdict(text, name):
    for line in text.splitlines():
        if line.startswith("| %s |" % name):
            return line.rstrip(" |").rsplit("| ", 1)[1]
    raise AssertionError("no row for %s in\n%s" % (name, text))


QUIET = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


class Verdicts(unittest.TestCase):
    def test_identical_quiet_runs_pass(self):
        ok, text = call_report(side("serve_rps", QUIET),
                               side("serve_rps", QUIET))
        self.assertTrue(ok)
        self.assertEqual(verdict(text, "serve_rps"), "ok")

    def test_median_beyond_bound_is_worse(self):
        ok, text = call_report(side("factor_s", QUIET),
                               side("factor_s", [1.3 * v for v in QUIET]))
        self.assertFalse(ok)
        self.assertEqual(verdict(text, "factor_s"), "WORSE")

    def test_wide_overlapping_spread_is_unresolved(self):
        wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0,
                100.0]
        ok, text = call_report(side("serve_rps", wide),
                               side("serve_rps", list(reversed(wide))))
        self.assertFalse(ok)
        self.assertEqual(verdict(text, "serve_rps"), "UNRESOLVED")

    def test_wide_spread_resolved_when_every_b_beats_every_a(self):
        a = [60.0, 70.0, 80.0, 90.0, 100.0, 60.0, 70.0, 80.0, 90.0, 100.0]
        b = [v + 50.0 for v in a]
        ok, text = call_report(side("serve_rps", a), side("serve_rps", b))
        self.assertTrue(ok)
        self.assertEqual(verdict(text, "serve_rps"), "ok")

    def test_unbounded_metric_is_never_flagged(self):
        ok, text = call_report(side("la.gemm_d_gflops", QUIET),
                               side("la.gemm_d_gflops", [5 * v for v in
                                                          QUIET]))
        self.assertTrue(ok)
        self.assertEqual(verdict(text, "la.gemm_d_gflops"), "ok")

    def test_missing_run_fails(self):
        b = side("serve_rps", QUIET)
        b[3] = None
        ok, _ = call_report(side("serve_rps", QUIET), b)
        self.assertFalse(ok)


class Claims(unittest.TestCase):
    def test_clear_gain_is_met(self):
        ok, text = call_report(side("serve_rps", QUIET),
                               side("serve_rps", [v + 10 for v in QUIET]),
                               ["serve_rps"])
        self.assertTrue(ok)
        self.assertIn("claim serve_rps@w: gain met", text)

    def test_ties_count_for_neither_side(self):
        # 9 wins and 1 tie meet the 9-in-10 rule; 8 wins and 2 ties do not.
        b = [v + 10 for v in QUIET]
        b[0] = QUIET[0]
        ok, text = call_report(side("serve_rps", QUIET),
                               side("serve_rps", b), ["serve_rps"])
        self.assertTrue(ok, text)
        b[1] = QUIET[1]
        ok, text = call_report(side("serve_rps", QUIET),
                               side("serve_rps", b), ["serve_rps"])
        self.assertFalse(ok)
        self.assertIn("B won 8/10 pairs", text)

    def test_gain_inside_a_iqr_is_not_met(self):
        # B wins every pair by a hair: the median moves less than A's IQR.
        ok, text = call_report(side("serve_rps", QUIET),
                               side("serve_rps", [v + 0.05 for v in QUIET]),
                               ["serve_rps"])
        self.assertFalse(ok)
        self.assertIn("not above A's IQR", text)

    def test_lower_is_better_metric(self):
        ok, text = call_report(side("factor_s", QUIET),
                               side("factor_s", [v - 10 for v in QUIET]),
                               ["factor_s"])
        self.assertTrue(ok)
        self.assertIn("claim factor_s@w: gain met", text)

    def test_higher_failed_share_is_not_met(self):
        ok, text = call_report(
            side("serve_rps", QUIET),
            side("serve_rps", [v + 10 for v in QUIET], failed=1),
            ["serve_rps"])
        self.assertFalse(ok)
        self.assertIn("failed share", text)

    def test_unmeasured_metric_is_not_met(self):
        ok, text = call_report(side("serve_rps", QUIET),
                               side("serve_rps", QUIET), ["req_p50_s"])
        self.assertFalse(ok)
        self.assertIn("no pairs measured req_p50_s", text)


if __name__ == "__main__":
    unittest.main()
