#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny runs.

Run from the root of the repository:

    python3 perfbench/test_bench.py

Each test goes through perfbench/run.py, so the first one builds.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Runs by name but is not in BENCHMARK.json; its traced runs add these.
SERVING = "serve_mixed"
SERVING_METRICS = {
    "eval.submit_us_p99": "us", "eval.queue_wait_p99_ms": "ms",
    "eval.worker_busy_pct": "%", "eval.cache_hit_ratio": "ratio",
    "eval.cache_dedup_joins": "count", "eval.backlog_jobs": "count",
    "bench.gen_lag_p99_ms": "ms"}
# A tiny run: the first 24 loops of the suite, a fraction of a second.
TINY = ["--seed", "3", "--seconds", "0.3", "--loops", "24"]


def run(*args):
    """Run the benchmark; return (exit code, stdout, parsed last line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + list(args),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, proc.stdout, result


class EveryMetricPrinted(unittest.TestCase):
    def test_every_metric_has_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, out, result = run("--workload", workload,
                                            "--trace", trace, *TINY)
                    self.assertEqual(code, 0, out)
                    self.assertEqual(
                        sorted(result),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    printed = result["metrics"]
                    self.assertEqual(sorted(printed),
                                     sorted(m["name"] for m in SPEC[key]))
                    for m in SPEC[key]:
                        self.assertEqual(printed[m["name"]]["unit"],
                                         m["unit"])
                        self.assertIsInstance(
                            printed[m["name"]]["value"], (int, float))

    def test_serving_workload_adds_frontier_metrics(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            with self.subTest(trace=trace):
                code, out, result = run("--workload", SERVING,
                                        "--trace", trace, *TINY)
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"])
                expected = {m["name"]: m["unit"] for m in SPEC[key]}
                if trace == "1":
                    expected.update(SERVING_METRICS)
                printed = result["metrics"]
                self.assertEqual(sorted(printed), sorted(expected))
                for name, unit in expected.items():
                    self.assertEqual(printed[name]["unit"], unit)

    def test_replay_matches_compile(self):
        code, out, result = run("--workload", "sweep_clustered",
                                "--trace", "1", *TINY)
        self.assertEqual(code, 0, out)
        metrics = result["metrics"]
        self.assertEqual(metrics["pipeline.replay_match_ratio"]["value"], 1)
        self.assertEqual(metrics["pipeline.counter_match_ratio"]["value"], 1)


class CorruptScheduleFails(unittest.TestCase):
    def test_corrupted_schedule_counts_and_exits_nonzero(self):
        for workload in WORKLOADS + [SERVING]:
            with self.subTest(workload=workload):
                code, out, result = run("--workload", workload,
                                        "--trace", "0", "--corrupt-one",
                                        *TINY)
                self.assertNotEqual(code, 0, out)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLess(result["metrics"]["ok_ratio"]["value"], 1)


class ForeignSuiteSeed(unittest.TestCase):
    def suite_line(self, suite_seed):
        code, out, _ = run("--workload", "sweep_unified", "--trace", "0",
                           "--suite-seed", suite_seed, *TINY)
        self.assertEqual(code, 0, out)
        return next(line.strip() for line in out.splitlines()
                    if line.strip().startswith("suite:"))

    def test_other_seed_builds_its_own_suite(self):
        pinned = self.suite_line("42")
        other = self.suite_line("7")
        self.assertIn("source cache", pinned)
        self.assertIn("source buildSuite", other)
        content = lambda line: line.rsplit("content ", 1)[1]
        self.assertNotEqual(content(pinned), content(other))


if __name__ == "__main__":
    unittest.main()
