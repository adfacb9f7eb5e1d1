"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_bench.py     (or: python3 perfbench/test_bench.py)

Checks that BENCHMARK.json and the runner declare the same metrics, that a
tiny run of every workload emits every metric with its unit, traced and
untraced, that a planted wrong expectation or a failing operation is counted
as failed instead of crashing the run, and that the runner refuses to run
without the package source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def tiny(name: str, trace: bool = False, plant=None):
    with tempfile.TemporaryDirectory() as tmp:
        return run.run(name, 3, 0.3, trace, tiny=True, probes=0, out_dir=tmp, plant=plant)


class BenchmarkSelfTest(unittest.TestCase):
    def test_declared_metrics_match_runner(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.layer_units())

    def test_tiny_runs_emit_every_metric(self):
        for name in run.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    details, line = tiny(name, trace)
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(line["correct"], details["failures"])
                    self.assertEqual(line["failed"], 0)
                    self.assertGreaterEqual(line["attempted"], 1)
                    want = run.layer_units() if trace else run.END_TO_END
                    self.assertEqual({k: v["unit"] for k, v in line["metrics"].items()}, want)
                    if not trace:
                        self.assertTrue(all(v["value"] > 0 for v in line["metrics"].values()))
                    self.assertEqual(details["seed"], 3)
                    self.assertEqual(set(details["machine"]), {"nproc", "cpu_model", "python", "numpy"})

    def test_planted_failures_are_counted(self):
        def wrong_shapes(wl):
            wl.instances[0]["shapes"].clear()

        def wrong_oracle(wl):
            doc, valid, _shape = wl._oracles[0]
            wl._oracles[0] = (doc, valid, ())

        def broken_input(wl):
            _doc, valid, shape = wl._oracles[1]
            wl._oracles[1] = ("{", valid, shape)

        def wrong_decision(wl):
            mu = next(iter(wl.shapes))
            wl.shapes[mu] = set()

        for name, plant in (
            ("census", wrong_shapes),
            ("reduce", wrong_oracle),
            ("reduce", broken_input),
            ("decide", wrong_decision),
        ):
            with self.subTest(workload=name):
                details, line = tiny(name, plant=plant)
                self.assertFalse(line["correct"])
                self.assertGreaterEqual(line["failed"], 1)
                self.assertLess(line["failed"], line["attempted"])
                self.assertGreater(details["failed_frac"], 0)
                self.assertTrue(details["failures"])

    def test_command_line_prints_result_last(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "verify", "--seed", "5",
             "--seconds", "0.3", "--trace", "0", "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(line["correct"])
        self.assertEqual(set(line["metrics"]), set(run.END_TO_END))

    def test_refuses_to_run_without_package_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
