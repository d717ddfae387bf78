#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py      # from the checkout root

Builds perfbench the way run.py does, then checks that every workload
passes its output checks at HEAD, that the checks catch smr_gate's
corrupt=stale self-injury, that each traced run reproduces its untraced
outcome and prints every per-layer metric, and that perfbench refuses
the TIMING_* knobs and fails cleanly without the repository's sources.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = json.load(open(os.path.join(HERE, "workloads.json")))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
CLEAN_ENV = {k: v for k, v in os.environ.items()
             if not k.startswith("TIMING_")}


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def drive(workload, seed, trace, *extra, env=None):
    """perfbench itself, one second of measurement."""
    done = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--root", ROOT, *extra],
        capture_output=True, text=True, env=env or CLEAN_ENV, timeout=180)
    return done


class Untraced(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        names = [m["name"] for m in BENCH["end_to_end"]]
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                # Seed 42 also holds wan_sweep to the fig1g golden stdout.
                done = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", w["name"], "--seed", "42",
                     "--seconds", "1", "--trace", "0"],
                    capture_output=True, text=True, env=CLEAN_ENV,
                    cwd=ROOT, timeout=180)
                self.assertEqual(done.returncode, 0, done.stderr)
                r = result(done.stdout)
                self.assertEqual(set(r), {"correct", "attempted", "failed",
                                          "metrics"})
                self.assertTrue(r["correct"], done.stderr)
                self.assertEqual(r["failed"], 0)
                self.assertGreater(r["attempted"], 0)
                self.assertEqual(list(r["metrics"]), names)
                for m in BENCH["end_to_end"]:
                    got = r["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertGreater(got["value"], 0)

    def test_corrupt_stale_smr_gate_fails_its_checks(self):
        done = drive("smr_gate", 3, 0, "--corrupt", "stale")
        self.assertEqual(done.returncode, 0, done.stderr)
        r = result(done.stdout)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"] / r["attempted"], 0)


class Traced(unittest.TestCase):
    def test_traced_runs_match_and_print_every_layer_metric(self):
        names = [m["name"] for m in BENCH["per_layer"]]
        common = WORKLOADS["every_workload_per_layer"]
        for w in BENCH["workloads"]:
            own = WORKLOADS["workloads"][w["name"]]["per_layer"]
            with self.subTest(workload=w["name"]):
                done = drive(w["name"], 5, 1)
                self.assertEqual(done.returncode, 0, done.stderr)
                r = result(done.stdout)
                self.assertTrue(r["correct"], done.stderr)
                self.assertEqual(r["failed"], 0)
                self.assertEqual(list(r["metrics"]), names)
                for name in own + common:
                    unit = r["metrics"][name]["unit"]
                    if unit in ("ns", "us", "ratio"):
                        self.assertGreater(r["metrics"][name]["value"], 0,
                                           name)
                for name in names:
                    if name not in own + common:
                        self.assertEqual(r["metrics"][name]["value"], 0,
                                         name)


class Environment(unittest.TestCase):
    def test_refuses_timing_knobs(self):
        for var in ("TIMING_TRACE", "TIMING_TRACE_MAX_EVENTS",
                    "TIMING_SPANS", "TIMING_RUNS", "TIMING_THREADS"):
            with self.subTest(var=var):
                done = drive("smr_gate", 1, 0, env=dict(CLEAN_ENV,
                                                        **{var: "1"}))
                self.assertNotEqual(done.returncode, 0)
                self.assertEqual(done.stdout, "")

    def test_fails_without_the_repository_sources(self):
        alone = os.path.join(BUILD, "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(CLEAN_ENV)
        env.pop("CARGO_TARGET_DIR", None)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "hunt",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, env=env, cwd=alone, timeout=180)
        shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    BINARY = run.build(BUILD)
    unittest.main()
