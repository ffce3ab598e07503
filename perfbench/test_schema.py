#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny problem size.

    python3 perfbench/test_schema.py

Checks BENCHMARK.json against the record format, runs every workload with
--tiny in both modes, and checks that each run emits exactly the metrics
BENCHMARK.json names, with their units, in the output schema, with every
correctness check passing. Also checks that the benchmark fails cleanly
(non-zero exit, no record) when the library sources are absent.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900, env=env)


class SpecTest(unittest.TestCase):
    def test_keys_and_names(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for name in names:
            self.assertRegex(name, NAME)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class RunTest(unittest.TestCase):
    def check_record(self, proc, expected):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(rec), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(rec["correct"], True, proc.stderr[-3000:])
        self.assertIsInstance(rec["attempted"], int)
        self.assertGreaterEqual(rec["attempted"], 1)
        self.assertEqual(rec["failed"], 0)
        self.assertEqual(set(rec["metrics"]), set(expected))
        for name, m in rec["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], expected[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
        return rec["metrics"]

    def test_every_workload_emits_every_metric(self):
        spec = load_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            for w in spec["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    metrics = self.check_record(run(w["name"], trace), expected)
                    if trace == 0:
                        for name, m in metrics.items():
                            self.assertGreater(m["value"], 0.0, name)

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            proc = run("conv-flat", 0, cwd=tmp, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
