"""Smoke test for the benchmark itself, in seconds: python3 perfbench/smoke.py

Runs every workload at tiny size, untraced and traced, and checks that
the result line carries every metric BENCHMARK.json names, with its unit.
Then feeds each output check a corrupted output and expects a rejection.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import yaml

import workloads
from load import run_command
from run import load_benchmark_spec

HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(workloads.ROOT, ".perfbench_work")
# Per-layer metrics each traced workload must see; on validate-wide the
# trial layers run only in pool workers, so this checks their spans arrive.
SEEN = {
    "sweep-sym": ["channel.sample_channels.calls", "montecarlo.self.us_per_trial",
                  "allocation.exact.us.k2", "cli.self.s", "trace.accounted_frac"],
    "validate-wide": ["channel.sample_channels.calls", "reflection.random_phases.calls",
                      "montecarlo.pool.parallel_eff", "montecarlo.computed_bytes_per_trial"],
    "alloc-scale": ["allocation.exact.attempted.k64", "analysis.objective_phi.us.k64",
                    "cli.load_config.ms"],
}


def tearDownModule():
    try:
        os.rmdir(SCRATCH)
    except OSError:
        pass


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class ResultLine(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        spec = load_benchmark_spec()
        for workload in workloads.NAMES:
            for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = _bench(workloads.ROOT, "--workload", workload, "--seed", "3",
                                  "--seconds", "0.2", "--trace", trace, "--size", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True, proc.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {name: m["unit"] for name, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in listed},
                    )
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    names = [m["name"] for m in listed] if trace == "0" else SEEN[workload]
                    for name in names:
                        self.assertGreater(result["metrics"][name]["value"], 0.0, name)

    def test_counts_depend_on_the_seed_only(self):
        # a longer run repeats the problem set; attempted and failed count it once
        counts = []
        for seconds in ("0.2", "3"):
            proc = _bench(workloads.ROOT, "--workload", "alloc-scale", "--seed", "5",
                          "--seconds", seconds, "--trace", "0", "--size", "tiny")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            counts.append((result["attempted"], result["failed"]))
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0][0], workloads.SIZES["tiny"]["alloc-scale"])

    def test_fails_without_the_program(self):
        os.makedirs(SCRATCH, exist_ok=True)
        bare = tempfile.mkdtemp(dir=SCRATCH)
        try:
            shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _bench(bare, "--workload", "sweep-sym", "--seed", "1", "--seconds", "1",
                          "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class ChecksRejectBadOutput(unittest.TestCase):
    def setUp(self):
        os.makedirs(SCRATCH, exist_ok=True)
        self.dir = tempfile.mkdtemp(dir=SCRATCH)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def test_sweep(self):
        wl = workloads.make("sweep-sym", 1, self.dir, "tiny")
        rc, *_, out, err = run_command(wl.argv(0))
        self.assertEqual(wl.check(0, rc, out, err), (workloads.SWEEP_ROWS, 0))
        path = os.path.join(wl.out, "metrics.csv")
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines(keepends=True)
        fields = lines[3].split(",")
        fields[2] = repr(float(fields[2]) * 2.0)  # mean_gain far outside 4 se
        corrupted = lines[:3] + [",".join(fields)] + lines[4:]
        for bad in (corrupted, lines[:-1]):
            with open(path, "w", encoding="utf-8") as f:
                f.write("".join(bad))
            with self.assertRaises(workloads.CheckFailed):
                wl.check(1, 0, out, err)
        with open(path, "w", encoding="utf-8") as f:
            f.write("".join(lines[:1] + lines[2:] + lines[1:2]))  # same rows, other bytes
        with self.assertRaises(workloads.CheckFailed):
            wl.check(1, 0, out, err)
        with self.assertRaises(workloads.CheckFailed):
            wl.check(1, 3, out, "numerical failure: x")

    def test_validate(self):
        wl = workloads.make("validate-wide", 1, self.dir, "tiny")
        wl.prepare()
        rc, *_, out, err = run_command(wl.argv(0))
        attempted, failed = wl.check(0, rc, out, err)
        self.assertEqual(failed, 0)
        path = os.path.join(wl.out, "validation_report.yaml")
        with open(path, encoding="utf-8") as f:
            report = f.read()
        bad = report.replace("status: pass", "status: fail", 1)
        self.assertNotEqual(bad, report)
        with open(path, "w", encoding="utf-8") as f:
            f.write(bad)
        with self.assertRaises(workloads.CheckFailed):
            wl.check(1, 1, out, err)

    def test_allocate(self):
        # the bundled symmetric layout, which `exact` solves, with every allocator
        with open(workloads.SYM_CONFIG, encoding="utf-8") as f:
            cfg = yaml.safe_load(f)
        del cfg["run"]
        path = os.path.join(self.dir, "allocate.yaml")
        with open(path, "w", encoding="utf-8") as f:
            yaml.safe_dump(cfg, f)
        counts = cfg["scenario"]["element_counts"]
        rc, *_, out, err = run_command(["allocate", "--config", path])
        self.assertEqual(rc, 0, err)
        workloads.check_allocate_output(rc, out, err, counts)
        rows = out.splitlines()
        wrong_budget = [rows[0]] + [r.replace(r.split()[2], repr(float(r.split()[2]) * 1.001))
                                    if r.startswith("eq28") else r for r in rows[1:]]
        phi = {r.split()[0]: r.split()[4] for r in rows[1:]}
        low_phi = [r.replace(phi["exact"], f"{float(phi['eq28']) * 0.99:.6e}")
                   if r.startswith("exact") else r for r in rows]
        self.assertNotEqual(wrong_budget, rows)
        self.assertNotEqual(low_phi, rows)
        for bad_rc, bad_out, bad_err in (
            (0, "\n".join(wrong_budget), ""),
            (0, "\n".join(low_phi), ""),
            (3, "", "no convergence"),
            (3, "", "Traceback (most recent call last):\nnumerical failure"),
            (1, "", ""),
        ):
            with self.assertRaises(workloads.CheckFailed):
                workloads.check_allocate_output(bad_rc, bad_out, bad_err, counts)
        workloads.check_allocate_output(3, "", "numerical failure: no convergence", counts)

    def test_allocate_repeat(self):
        wl = workloads.make("alloc-scale", 1, self.dir, "tiny")
        wl.prepare()
        rc, *_, out, err = run_command(wl.argv(0))
        wl.check(0, rc, out, err)
        wl.check(0, rc, out, err)  # a repeat that prints the same passes
        with self.assertRaises(workloads.CheckFailed):
            wl.check(0, rc, out + " ", err)
        with self.assertRaises(workloads.CheckFailed):
            wl.check(0, 0 if rc == 3 else 3, out, err)


if __name__ == "__main__":
    unittest.main(verbosity=2)
