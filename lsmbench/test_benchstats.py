#!/usr/bin/env python3
"""Self-tests for the benchmark's own arithmetic and output schema.

    python3 lsmbench/test_benchstats.py

Also runs the lsmbench binary's --selftest (nearest-rank percentiles and
medians) when run.py has built it.
"""
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from benchstats import (load_spec, percentile, quartile_spread,  # noqa: E402
                        ratio, result_line)
import summarize  # noqa: E402

ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_with_count(self):
        values = list(range(1000, 0, -1))
        self.assertEqual(percentile(values, 50), (500.0, 1000, 500))
        self.assertEqual(percentile(values, 99), (990.0, 1000, 10))
        self.assertEqual(percentile(values, 100), (1000.0, 1000, 0))

    def test_small_and_empty(self):
        self.assertEqual(percentile([7], 99), (7.0, 1, 0))
        self.assertEqual(percentile([], 50), (0.0, 0, 0))
        # p99 of 100 samples has no sample beyond it: unsupported.
        self.assertEqual(percentile(list(range(100)), 99)[2], 1)


class QuartileTest(unittest.TestCase):
    def test_spread_uses_exclusive_quartiles(self):
        # statistics.quantiles(1..10, n=4) = [2.75, 5.5, 8.25].
        self.assertAlmostEqual(quartile_spread(list(range(1, 11))), 1.0)

    def test_constant_and_zero_median(self):
        self.assertEqual(quartile_spread([5.0] * 10), 0.0)
        self.assertEqual(quartile_spread([0.0] * 4), 0.0)
        self.assertEqual(quartile_spread([0, 0, 0, 0, 0, 0, 0, 9, 9, 9]),
                         float("inf"))


class RatioTest(unittest.TestCase):
    def test_keeps_base(self):
        self.assertEqual(ratio(3, 4),
                         {"value": 0.75, "numerator": 3, "base": 4})

    def test_zero_base(self):
        self.assertEqual(ratio(5, 0)["value"], 0.0)


class SchemaTest(unittest.TestCase):
    DECLARED = [{"name": "a_ms", "unit": "ms"}, {"name": "setup_s",
                                                 "unit": "s"}]

    def test_result_line_has_exact_keys(self):
        line = result_line(True, 10, 0, {"a_ms": 1.5, "setup_s": 0.25},
                           self.DECLARED)
        out = json.loads(line)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertEqual(out["metrics"]["a_ms"], {"value": 1.5, "unit": "ms"})

    def test_rejects_missing_extra_and_bad_counts(self):
        with self.assertRaises(ValueError):
            result_line(True, 10, 0, {"a_ms": 1.0}, self.DECLARED)
        with self.assertRaises(ValueError):
            result_line(True, 10, 0, {"a_ms": 1.0, "setup_s": 1.0, "b": 2},
                        self.DECLARED)
        with self.assertRaises(ValueError):
            result_line(True, 0, 0, {"a_ms": 1.0, "setup_s": 1.0},
                        self.DECLARED)
        with self.assertRaises(ValueError):
            result_line(True, 1, 0, {"a_ms": float("nan"), "setup_s": 1.0},
                        self.DECLARED)


class BenchmarkSpecTest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def setUp(self):
        self.spec = load_spec(SPEC_PATH)

    def test_top_level_shape(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], self.NAME)
            self.assertLessEqual(len(w["why"]), 200)

    def test_metrics(self):
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], self.NAME)
            self.assertRegex(m["unit"], self.UNIT)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_per_layer_matches_summarizer(self):
        declared = {m["name"]: (m["unit"], m["better"])
                    for m in self.spec["per_layer"]}
        self.assertEqual(declared, summarize.METRICS)


class SpanCheckTest(unittest.TestCase):
    def write_spans(self, lines):
        f = tempfile.NamedTemporaryFile("w", suffix=".tsv", delete=False)
        f.write("".join("\t".join(map(str, l)) + "\n" for l in lines))
        f.close()
        self.addCleanup(os.unlink, f.name)
        return f.name

    def test_children_inside_parent(self):
        path = self.write_spans([("op", 1, "get", 100, 200),
                                 ("io", 1, "sst_read", 110, 150, 4096)])
        ops, orphans = summarize.read_spans(path)
        self.assertEqual((summarize.check_spans(ops), orphans), (0, 0))
        row = summarize.span_table(ops)["get"]
        self.assertEqual(row["p50_us"], (0.1, 1, 0))
        self.assertAlmostEqual(row["self_p50_us"][0], 0.06)
        self.assertEqual(row["env_share"]["base"], 100)

    def test_child_outside_parent_and_orphan(self):
        path = self.write_spans([("op", 1, "get", 100, 200),
                                 ("io", 1, "sst_read", 150, 250, 4096),
                                 ("io", 9, "sst_read", 150, 160, 4096)])
        ops, orphans = summarize.read_spans(path)
        self.assertEqual((summarize.check_spans(ops), orphans), (1, 1))


class BinarySelfTest(unittest.TestCase):
    def test_cpp_selftest(self):
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        binary = os.path.join(ROOT, target, "lsmbench", "lsmbench")
        if not os.path.exists(binary):
            self.skipTest("lsmbench not built; run lsmbench/run.py first")
        done = subprocess.run([binary, "--selftest"], stdout=subprocess.PIPE,
                              universal_newlines=True)
        self.assertEqual(done.returncode, 0, done.stdout)


if __name__ == "__main__":
    unittest.main()
