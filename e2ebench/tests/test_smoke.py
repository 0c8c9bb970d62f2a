#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

Run from anywhere:  python3 e2ebench/tests/test_smoke.py

Short smoke runs (a few seconds each) check that every metric
BENCHMARK.json declares is printed by name with its unit, that the
result line is well formed, that the correctness checks pass, and that
malformed arguments fail without printing a result.  The first run
builds the benchmark, which takes a minute or so.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("e2ebench", "run.py")
METRICS_HPP = os.path.join(REPO, "e2ebench", "src", "metrics.hpp")


def declared():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return spec, e2e, layer


def run_bench(workload, trace, seconds="2", seed="7"):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", seed,
         "--seconds", seconds, "--trace", trace],
        cwd=REPO, capture_output=True, text=True, timeout=900)
    return proc


class MetricTableTest(unittest.TestCase):
    def test_header_matches_benchmark_json(self):
        _, e2e, layer = declared()
        with open(METRICS_HPP) as f:
            src = f.read()

        def table(name):
            block = src[src.index(name):]
            block = block[:block.index("};")]
            return dict(re.findall(r'\{"([^"]+)", "([^"]+)"\}', block))

        self.assertEqual(table("kEndToEnd[]"), e2e)
        self.assertEqual(table("kPerLayer[]"), layer)
        self.assertIn("setup_s", e2e)


class SmokeRunTest(unittest.TestCase):
    def check_result(self, proc, expected, allow_failed=False):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        if not allow_failed:
            self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(expected))
        text = "\n".join(lines[:-1])
        for name, unit in expected.items():
            m = result["metrics"][name]
            self.assertEqual(m["unit"], unit, name)
            self.assertTrue(math.isfinite(m["value"]), name)
            # Every metric is also printed as a text row: name, value, unit.
            self.assertRegex(text, r"(?m)^\s+" + re.escape(name) +
                             r"\s+-?[0-9.]+ " + re.escape(unit) + r"$")
        self.assertRegex(text, r"(?m)^provenance \{")
        return text

    def test_live_one_untraced_and_traced(self):
        _, e2e, layer = declared()
        text = self.check_result(run_bench("live_one", "0"), e2e)
        self.assertRegex(text, r"parity: [1-9][0-9]* delivered poses compared "
                               r"bitwise with forward\(\), 0 mismatched")
        text = self.check_result(run_bench("live_one", "1"), layer)
        self.assertIn("# nn layer probe", text)

    def test_live_fleet_runs_outside_the_gated_set(self):
        spec, e2e, _ = declared()
        self.assertNotIn("live_fleet", [w["name"] for w in spec["workloads"]])
        # Ungated because a slow host can push four sessions past the
        # window limit, so late windows are allowed here.
        text = self.check_result(run_bench("live_fleet", "0"), e2e,
                                 allow_failed=True)
        self.assertRegex(text, r"parity: [1-9][0-9]* delivered poses")

    def test_offline_replay(self):
        _, e2e, _ = declared()
        text = self.check_result(run_bench("offline_replay", "0"), e2e)
        self.assertIn("first window: identical", text)

    def test_rejects_malformed_arguments(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "live_one", "--seed", "1"]):
            proc = subprocess.run([sys.executable, RUN] + args, cwd=REPO,
                                  capture_output=True, text=True, timeout=900)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
