"""Tests of the benchmark itself (stdlib unittest; a few seconds).

    python3 perfbench/selftest.py

They run small subsets of each workload, so they prove the harness, not the
timings: counts repeat exactly between traced runs in separate interpreters,
self times add up to the traced pass, the tracer leaves the library as it
found it, a wrong expected value fails the run, and a directory without the
pairform sources makes the benchmark exit nonzero without a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

import checkout
import run
import tracer
import workloads

HERE = checkout.ROOT / "perfbench"


def subset(name: str, seed: int = 1) -> workloads.Workload:
    """The cheap items of a workload: a second or less per pass."""
    workload = workloads.WORKLOADS[name](seed)
    cheap = {
        "identities": lambda i, item: i < len(workloads.IDENTITY_CHARTS),
        "bands": lambda i, item: any(w in item.name for w in ("relative", "primed", "p=0")),
    }[name]
    workload.items = [item for i, item in enumerate(workload.items) if cheap(i, item)]
    return workload


def traced_pass(workload: workloads.Workload) -> dict:
    tally, tr = run.Tally(), tracer.Tracer()
    pass_s, work = 0.0, 0
    for index, item in enumerate(workload.items):
        elapsed, units = run.run_traced(item, index, tally, tr)
        pass_s += elapsed
        work += units
    assert tally.failed == 0
    columns = work if workload.unit == workloads.MATRIX_COLUMNS else 0
    return tr.metrics(pass_s, 0.0, columns)


def traced_counts(name: str) -> dict:
    metrics = traced_pass(subset(name))
    return {n: metrics[n] for n in tracer.COUNT_METRICS}


class TracedRuns(unittest.TestCase):
    def test_counts_repeat_between_interpreters(self):
        for name in workloads.WORKLOADS:
            runs = []
            for hash_seed in ("1", "2"):
                proc = subprocess.run(
                    [sys.executable, "-c",
                     f"import json, selftest; print(json.dumps(selftest.traced_counts({name!r})))"],
                    cwd=HERE, capture_output=True, text=True, timeout=300,
                    env={**os.environ, "PYTHONHASHSEED": hash_seed})
                self.assertEqual(proc.returncode, 0, proc.stderr)
                runs.append(json.loads(proc.stdout))
            self.assertEqual(runs[0], runs[1], name)
            self.assertGreater(runs[0]["rationals.mul.calls"], 0)

    def test_layers_reached_by_each_workload(self):
        identities = traced_counts("identities")
        self.assertGreater(identities["randgen.calls"], 0)
        self.assertEqual(identities["linalg.rank.calls"], 0)
        self.assertEqual(identities["cohomology.basis_cols"], 0)
        self.assertEqual(identities["exterior.laplacian.calls"], 0)
        bands = traced_counts("bands")
        for name in ("linalg.rank.calls", "linalg.matmul.calls", "linalg.kernel_basis.calls",
                     "pair.pair_laplacian.calls", "exterior.hodge_star.calls",
                     "cohomology.basis_cols"):
            self.assertGreater(bands[name], 0, name)
        self.assertEqual(bands["randgen.calls"], 0)

    def test_self_times_and_harness_add_up_to_the_pass(self):
        for name in workloads.WORKLOADS:
            metrics = traced_pass(subset(name))
            total = sum(v for n, v in metrics.items() if n.endswith("self_s"))
            self.assertAlmostEqual(total, metrics["trace.pass_s"], delta=1e-9)
            self.assertGreaterEqual(metrics["harness.self_s"], 0)

    def test_uninstall_restores_every_binding(self):
        from pairform import cohomology, pair
        from pairform.rationals import GaussianRational

        before = (cohomology.pair_d, pair.pair_d, GaussianRational.__rmul__,
                  cohomology.pair_complex)
        tr = tracer.Tracer().install()
        self.assertIsNot(cohomology.pair_d, before[0])
        self.assertIs(cohomology.pair_d, pair.pair_d)
        tr.uninstall()
        self.assertEqual((cohomology.pair_d, pair.pair_d, GaussianRational.__rmul__,
                          cohomology.pair_complex), before)


class Verdicts(unittest.TestCase):
    def test_wrong_expected_value_fails_the_run(self):
        build = workloads.build

        def corrupted(name, seed):
            workload = subset(name, seed)
            workload.items[0].expected = [0] * len(workload.items[0].expected)
            return workload

        workloads.build = corrupted
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", "bands", "--seed", "3", "--seconds", "0",
                                 "--trace", "0"])
        finally:
            workloads.build = build
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], run.MIN_PASSES)
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_directory_without_sources_exits_nonzero(self):
        bare = checkout.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(checkout.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "bands", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


class Declaration(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         tracer.METRICS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
