#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 membench/selftest.py

Runs every workload of BENCHMARK.json at self-test sizes through
`run.py` (untraced twice, traced once) and checks that the result line
holds exactly `correct`, `attempted`, `failed` and `metrics`, that every
named metric is present with its unit, that every run is correct, that
untraced runs print the host's slowdown and the raw figures, and that
the simulated-output digest repeats exactly. Also checks that the
benchmark refuses to run, without printing a result, when only
BENCHMARK.json and the benchmark's own files are present.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=7, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def digest(stdout, workload):
    lines = [l for l in stdout.splitlines() if l.startswith(f"membench-digest {workload} ")]
    assert len(lines) == 1, stdout
    return lines[0].split()[-1]


class SelfTest(unittest.TestCase):
    def check_result(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True, proc.stdout[-3000:])
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in names})
        for m in names:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        return result

    def test_workloads(self):
        for w in SPEC["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                first = run(name, 0)
                result = self.check_result(first, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
                raw = [l for l in first.stdout.splitlines() if l.startswith("membench-raw ")]
                self.assertEqual(len(raw), 1, first.stdout[-2000:])
                fields = dict(f.split("=", 1) for f in raw[0].split()[1:])
                self.assertGreater(float(fields["slowdown"]), 0)
                self.assertEqual(set(fields) - {"slowdown"},
                                 {m["name"] for m in SPEC["end_to_end"]})
                second = run(name, 0)
                self.check_result(second, SPEC["end_to_end"])
                traced = run(name, 1)
                self.check_result(traced, SPEC["per_layer"])
                self.assertEqual(digest(first.stdout, name), digest(second.stdout, name))
                self.assertEqual(digest(first.stdout, name), digest(traced.stdout, name))

    def test_refuses_without_sources(self):
        bare = ROOT / ".membench" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("target"))
            cmd = [sys.executable] + SPEC["command"][1:] + [
                "--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                "--trace", "0"]
            proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
