#!/usr/bin/env python3
"""The benchmark's own tests, at tiny batch sizes (about a minute with a warm
build).  Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# Batch sizes: packets for the packet workloads, schedules for the fuzz one.
TINY = {"sync_write": 3000, "nat_churn": 3000, "fuzz_audited": 3}


def tiny_run(workload, seed, trace):
    return run.run_workload(workload, seed, 0.01, trace, TINY[workload])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        cls.spec = run.load_spec()

    def test_workloads_match_spec(self):
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]),
                         sorted(TINY))

    def test_each_workload_completes_at_tiny_size(self):
        for workload in TINY:
            with self.subTest(workload=workload):
                r = tiny_run(workload, 1, trace=False)
                self.assertTrue(r["correct"], r["error"])
                self.assertGreater(r["attempted"], 0)
                self.assertEqual(r["failed"], 0)

    def test_same_seed_gives_equal_digests(self):
        for workload in TINY:
            with self.subTest(workload=workload):
                a = tiny_run(workload, 5, trace=False)
                b = tiny_run(workload, 5, trace=False)
                self.assertEqual(a["digest"], b["digest"])
                self.assertEqual(a["metrics"]["delivered_pct"],
                                 b["metrics"]["delivered_pct"])

    def test_traced_run_reproduces_untraced_digest(self):
        for workload in TINY:
            with self.subTest(workload=workload):
                plain = tiny_run(workload, 3, trace=False)
                traced = tiny_run(workload, 3, trace=True)
                self.assertTrue(traced["correct"], traced["error"])
                self.assertGreaterEqual(traced["traced_batches"], 1)
                self.assertEqual(plain["digest"], traced["digest"])
                profile = run.OUT_DIR / f"{workload}.profile.json"
                self.assertIn("sites", json.loads(profile.read_text()))

    def test_printed_names_and_units_match_spec(self):
        # The traced run reports every metric the spec names and no other.
        every_name = {m["name"]
                      for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in TINY:
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(run.HERE / "run.py"),
                         "--workload", workload, "--seed", "2",
                         "--seconds", "0.01", "--trace", str(trace),
                         "--size", str(TINY[workload])],
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                        text=True, timeout=170)
                    self.assertEqual(proc.returncode, 0)
                    last = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(last),
                                     ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertTrue(last["correct"])
                    self.assertEqual(
                        {n: m["unit"] for n, m in last["metrics"].items()},
                        expected)
                    if trace:
                        raw = json.loads((run.OUT_DIR /
                                          f"{workload}.result.json").read_text())
                        self.assertEqual(set(raw["metrics"]), every_name)

    def test_baseline_gives_every_metric_a_clock(self):
        baseline = json.loads((run.HERE / "baseline.json").read_text())
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            with self.subTest(metric=m["name"]):
                self.assertIn(baseline["metrics"][m["name"]]["clock"],
                              baseline["clocks"])
        for w in self.spec["workloads"]:
            self.assertIn(w["name"], baseline["workloads"])
            self.assertIn(w["name"], baseline["baseline"])

    def test_fails_without_the_simulator_sources(self):
        lonely = run.BUILD_DIR / "lonely"
        shutil.rmtree(lonely, ignore_errors=True)
        shutil.copytree(run.HERE, lonely / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", lonely)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sync_write",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=lonely, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=170)
        shutil.rmtree(lonely)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
