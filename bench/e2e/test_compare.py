#!/usr/bin/env python3
"""Unit tests of compare.py on synthetic records.

    python3 -m unittest discover -s bench/e2e -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "w", "why": "synthetic"}],
    "end_to_end": [
        {"name": "latency_us", "unit": "us", "better": "lower", "bound": 0.1},
        {"name": "rate_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
    ],
}
HOST = {"cores": 4, "cpu": "test", "compiler": "GNU 12", "build_type": "R"}


def record(latency, rate=100.0, failed=0, fingerprint=None, **extra):
    r = {"schema": "aaws-e2e-record/v2", "workload": "w",
         "fingerprint": dict(fingerprint or HOST), "attempted": 1000,
         "failed": failed, "layers": None, "smoke": False,
         "metrics": {"latency_us": {"value": latency, "unit": "us"},
                     "rate_per_s": {"value": rate, "unit": "1/s"}}}
    r.update(extra)
    return r


def series(center, jitter, n=10):
    """n values around `center`, alternating +-jitter around it."""
    return [center * (1 + jitter * ((i % 5) - 2) / 2) for i in range(n)]


def verdicts(parent, change):
    result = compare.compare(parent, change, SPEC)
    return {row["metric"]: row["verdict"] for row in result["rows"]}, result


class CompareTest(unittest.TestCase):
    def test_same_distribution_is_ok(self):
        parent = [record(v) for v in series(100.0, 0.02)]
        change = [record(v) for v in series(100.0, 0.02)]
        got, _ = verdicts(parent, change)
        self.assertEqual(got, {"latency_us": "ok", "rate_per_s": "ok"})

    def test_slower_beyond_bound_is_a_regression(self):
        parent = [record(v) for v in series(100.0, 0.02)]
        change = [record(v, rate=80.0) for v in series(100.0, 0.02)]
        got, _ = verdicts(parent, change)
        self.assertEqual(got["rate_per_s"], "regression")
        self.assertEqual(got["latency_us"], "ok")

    def test_consistent_win_beyond_parent_spread_is_a_gain(self):
        parent = [record(v) for v in series(100.0, 0.01)]
        change = [record(v * 0.9) for v in series(100.0, 0.01)]
        got, _ = verdicts(parent, change)
        self.assertEqual(got["latency_us"], "gain")

    def test_win_inside_parent_spread_is_not_a_gain(self):
        parent = [record(v) for v in series(100.0, 0.04)]
        change = [record(v * 0.97) for v in series(100.0, 0.04)]
        got, _ = verdicts(parent, change)
        self.assertEqual(got["latency_us"], "ok")

    def test_fewer_than_ten_pairs_is_never_a_gain(self):
        parent = [record(v) for v in series(100.0, 0.01, n=9)]
        change = [record(v * 0.8) for v in series(100.0, 0.01, n=9)]
        got, _ = verdicts(parent, change)
        self.assertEqual(got["latency_us"], "ok")

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [record(v) for v in series(100.0, 0.3)]
        change = [record(v * 1.05) for v in series(100.0, 0.3)]
        got, _ = verdicts(parent, change)
        self.assertEqual(got["latency_us"], "unresolved")

    def test_wide_spread_but_every_change_run_better_resolves(self):
        parent = [record(v) for v in series(100.0, 0.3)]
        change = [record(v) for v in series(30.0, 0.1)]
        got, _ = verdicts(parent, change)
        self.assertNotEqual(got["latency_us"], "unresolved")

    def test_more_failures_is_reported_and_cancels_a_gain(self):
        parent = [record(v) for v in series(100.0, 0.01)]
        change = [record(v * 0.9, failed=5) for v in series(100.0, 0.01)]
        got, result = verdicts(parent, change)
        self.assertEqual(got["latency_us"], "ok")
        self.assertTrue(result["failures"][0]["more_failures"])
        self.assertAlmostEqual(result["failures"][0]["change"], 0.005)

    def test_different_fingerprints_are_refused(self):
        parent = [record(v) for v in series(100.0, 0.01)]
        other = dict(HOST, cores=8)
        change = [record(v, fingerprint=other) for v in series(100.0, 0.01)]
        with self.assertRaisesRegex(compare.Refused, "cores"):
            compare.compare(parent, change, SPEC)

    def test_different_schemas_are_refused(self):
        parent = [record(v, schema="aaws-e2e-record/v1")
                  for v in series(100.0, 0.01)]
        change = [record(v) for v in series(100.0, 0.01)]
        with self.assertRaisesRegex(compare.Refused, "schemas"):
            compare.compare(parent, change, SPEC)

    def test_load_skips_traced_and_smoke_records(self):
        lines = [record(100.0), record(100.0, layers={"x": {}}),
                 record(100.0, smoke=True)]
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                         delete=False) as f:
            f.write("\n".join(json.dumps(r) for r in lines) + "\n")
        try:
            self.assertEqual(len(compare.load_records(f.name)), 1)
        finally:
            os.unlink(f.name)

    def test_main_exit_status(self):
        parent = [record(v) for v in series(100.0, 0.02)]
        change = [record(v * 1.5) for v in series(100.0, 0.02)]
        with tempfile.TemporaryDirectory() as d:
            paths = {}
            for name, recs in (("p", parent), ("c", change), ("ok", parent)):
                paths[name] = os.path.join(d, name + ".jsonl")
                with open(paths[name], "w") as f:
                    f.write("\n".join(json.dumps(r) for r in recs) + "\n")
            spec = os.path.join(d, "BENCHMARK.json")
            with open(spec, "w") as f:
                json.dump(SPEC, f)
            with contextlib.redirect_stdout(io.StringIO()):
                regressed = compare.main([paths["p"], paths["c"],
                                          "--benchmark", spec])
                unchanged = compare.main([paths["p"], paths["ok"],
                                          "--benchmark", spec])
            self.assertEqual(regressed, 1)
            self.assertEqual(unchanged, 0)


if __name__ == "__main__":
    unittest.main()
