#!/usr/bin/env python3
"""Self-test of the reproduction benchmark.

usage (from the repository root): python3 perfbench/test_run.py

Runs perfbench/run.py with one-second runs:
malformed arguments must exit non-zero without a result, every workload
must report every end-to-end metric of BENCHMARK.json with a well-formed
name and unit, and a traced run must report every per-layer metric with
the same first-unit digest as the untraced run.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def bench(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)


def run_workload(workload, seed, trace):
    run = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace))
    if run.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {run.returncode}:\n"
                             + run.stderr[-3000:])
    lines = run.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


def digest_line(lines):
    return next(line for line in lines if line.startswith("digest unit0 "))


class MalformedArguments(unittest.TestCase):
    def assert_rejected(self, *args):
        run = bench(*args)
        self.assertNotEqual(run.returncode, 0, args)
        self.assertNotIn('"metrics"', run.stdout, args)

    def test_malformed_seed(self):
        for seed in ("12x", "-3", "", "1.5", "0x10", "99999999999999999999"):
            self.assert_rejected("--workload", "campaign", "--seed", seed,
                                 "--seconds", "1", "--trace", "0")

    def test_unknown_workload(self):
        for workload in ("nope", "", "Campaign", "campaign "):
            self.assert_rejected("--workload", workload, "--seed", "1",
                                 "--seconds", "1", "--trace", "0")

    def test_malformed_seconds_and_trace(self):
        self.assert_rejected("--workload", "campaign", "--seed", "1",
                             "--seconds", "0", "--trace", "0")
        self.assert_rejected("--workload", "campaign", "--seed", "1",
                             "--seconds", "1", "--trace", "2")
        self.assert_rejected("--workload", "campaign", "--seed", "1")


class Workloads(unittest.TestCase):
    def check_result(self, result, section):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        for name, metric in result["metrics"].items():
            self.assertRegex(name, METRIC_NAME)
            self.assertTrue(metric["unit"], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        for wanted in SPEC[section]:
            self.assertIn(wanted["name"], result["metrics"])
            self.assertEqual(result["metrics"][wanted["name"]]["unit"], wanted["unit"])

    def check_layer_lines(self, lines):
        for line in lines:
            if line.startswith("layer "):
                _, name, value, unit = line.split()[:4]
                self.assertRegex(name, METRIC_NAME)
                float(value)
                self.assertTrue(unit)

    def test_every_workload_emits_every_end_to_end_metric(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload):
                lines, result = run_workload(workload, 7, 0)
                self.check_result(result, "end_to_end")
                self.check_layer_lines(lines)
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][metric["name"]]["value"], 0)

    def test_traced_run_reports_layers_and_matches_untraced(self):
        untraced, _ = run_workload("campaign", 8, 0)
        traced, result = run_workload("campaign", 8, 1)
        self.check_result(result, "per_layer")
        self.check_layer_lines(traced)
        self.assertEqual(result["metrics"]["trace.dropped_events"]["value"], 0)
        self.assertEqual(digest_line(untraced), digest_line(traced))


if __name__ == "__main__":
    unittest.main()
