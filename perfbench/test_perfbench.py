#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/test_perfbench.py

Runs every workload run.py accepts end to end in tiny mode, untraced and
traced, and checks that each prints exactly the metrics BENCHMARK.json lists
(`resident` too, which BENCHMARK.json does not list). Then shows that the
correctness gate fails (exit 1, "correct": false) when one expected result
count is perturbed, and that the benchmark refuses to run (non-zero exit, no
result) in a directory holding only BENCHMARK.json and the benchmark itself.
"""
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def run(*extra, cwd=ROOT):
    cmd = SPEC["command"] + ["--seed", "7", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def check(self, workload, trace, names):
        proc = run("--workload", workload, "--trace", str(trace), "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = result(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(list(res["metrics"]), names)
        units = {m["name"]: m["unit"] for m in
                 SPEC["end_to_end" if trace == 0 else "per_layer"]}
        for name, m in res["metrics"].items():
            self.assertEqual(m["unit"], units[name])
            self.assertTrue(math.isfinite(m["value"]), name)
            if trace == 0:
                self.assertGreater(m["value"], 0, name)

    def test_end_to_end_metrics(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 0, names)

    def test_per_layer_metrics(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(w, 1, names)

    def test_gate_fails_on_perturbed_count(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run("--workload", w, "--trace", "0", "--tiny",
                           "--perturb")
                self.assertEqual(proc.returncode, 1, proc.stderr[-2000:])
                self.assertFalse(result(proc)["correct"])
                self.assertIn("MISMATCH", proc.stderr)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("--workload", WORKLOADS[0], "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
