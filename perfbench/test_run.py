#!/usr/bin/env python3
"""Tests of the benchmark's one command and of BENCHMARK.json.

Runs every workload at its tiny size through `perfbench/run.py`, timed and
traced, and checks the result line against BENCHMARK.json. Run from
anywhere: python3 perfbench/test_run.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    return r.returncode, r.stdout, r.stderr


class BenchmarkJson(unittest.TestCase):
    def test_shape(self):
        b = benchmark()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual(b["command"], ["python3", "perfbench/run.py"])
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        names = [w["name"] for w in b["workloads"]]
        sys.path.insert(0, HERE)
        import run as runpy

        self.assertEqual(names, runpy.WORKLOADS)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        seen = set()
        for section in ("end_to_end", "per_layer"):
            for m in b[section]:
                self.assertTrue(NAME.match(m["name"]), m["name"])
                self.assertTrue(UNIT.match(m["unit"]), m["unit"])
                self.assertIn(m["better"], ("lower", "higher"))
                self.assertNotIn(m["name"], seen)
                seen.add(m["name"])
                if section == "end_to_end":
                    self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}])


class TinyRuns(unittest.TestCase):
    def check(self, workload, trace):
        code, out, err = run(workload, trace)
        self.assertEqual(code, 0, f"{workload} trace={trace} failed:\n{out}\n{err}")
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        section = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in benchmark()[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for k, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), k)
        self.assertIn("digest ", out)
        self.assertIn("context ", out)
        if trace:
            self.assertRegex(out, r"trace written to \S+")

    def test_scale_dispatch(self):
        self.check("scale_dispatch", 0)
        self.check("scale_dispatch", 1)

    def test_decode_steady(self):
        self.check("decode_steady", 0)
        self.check("decode_steady", 1)

    def test_prefix_pd(self):
        self.check("prefix_pd", 0)
        self.check("prefix_pd", 1)

    def test_gateway_sse(self):
        self.check("gateway_sse", 0)
        self.check("gateway_sse", 1)


if __name__ == "__main__":
    unittest.main()
