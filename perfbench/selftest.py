"""Smoke-size self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that the same seed gives the same inputs, that traced counts
repeat exactly, that self times stay within each task's wall time, that
tracing leaves chainwave as it found it, that BENCHMARK.json names the
metrics the runner prints, and that the runner refuses to run without
the chainwave sources.  A few seconds on two cores.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.setdefault("CHAINWAVE_THREADS", "1")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import chainwave.solver  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

WORK_DIR = HERE / "_run" / "selftest"


def _inputs(workload) -> list:
    """Every array and number a workload's tasks were built from."""
    out = []
    for task in workload.tasks:
        for key, value in sorted(vars(task).items()):
            if isinstance(value, chainwave.model.SpectralPair):
                out.append((key, value.q_coeffs, value.p_coeffs))
            elif isinstance(value, (int, float, str)):
                out.append((key, value))
            elif isinstance(value, chainwave.model.LatticeState):
                out.append((key, value.support_min, value.q, value.p))
    for name in ("epsilons", "alphas"):
        out.append((name, getattr(workload, name, None)))
    return out


def _same(a, b) -> bool:
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a is not None and b is not None and np.array_equal(a, b)
    return a == b


def _traced_counts(name: str, seed: int, tasks: int) -> tuple[dict, bool]:
    """Counts of the cheapest ``tasks`` tasks, traced, plus the
    self-within-wall verdict of that trace."""
    workload = workloads.WORKLOADS[name](seed, WORK_DIR)
    workload.tasks = sorted(workload.tasks, key=lambda t: getattr(t, "t", 0.0) or getattr(t, "times", [0])[-1])[:tasks]
    loop = worker.Loop(workload)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop.one_pass(tracer, 0)
    finally:
        tracer.uninstall()
    stats = tracer.stats(lambda task: isinstance(task, tuple))
    assert sum(loop.failed_instances) == 0, loop.errors
    return tracing.counts_signature(stats), worker.self_within_wall(tracer)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertTrue(_same(_inputs(cls(7, WORK_DIR)), _inputs(cls(7, WORK_DIR))))
                self.assertFalse(_same(_inputs(cls(7, WORK_DIR)), _inputs(cls(8, WORK_DIR))))

    def test_strata_do_not_depend_on_seed(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                labels = [[task.label for task in cls(seed, WORK_DIR).tasks] for seed in (1, 2)]
                self.assertEqual(labels[0], labels[1])


class Tracing(unittest.TestCase):
    def test_counts_repeat_and_self_within_wall(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first, ok_first = _traced_counts(name, 3, 3)
                second, ok_second = _traced_counts(name, 3, 3)
                self.assertEqual(first, second)
                self.assertTrue(ok_first and ok_second)
                self.assertGreater(first["quadrature.refine"][0][1], 0)

    def test_uninstall_restores_every_binding(self):
        before = {
            (mod, attr): getattr(sys.modules[mod], attr)
            for mod in ("chainwave.solver", "chainwave.model", "chainwave.asymptotics")
            for attr in ("dispersion", "solve_at", "graded_half_integral", "refine_until")
            if hasattr(sys.modules[mod], attr)
        }
        p_values = chainwave.bounds.EpsilonSpectrum.p_values
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(chainwave.solver.dispersion, before[("chainwave.solver", "dispersion")])
        tracer.uninstall()
        for (mod, attr), value in before.items():
            self.assertIs(getattr(sys.modules[mod], attr), value)
        self.assertIs(chainwave.bounds.EpsilonSpectrum.p_values, p_values)
        self.assertEqual(tracer.missing, [])

    def test_self_time_is_duration_minus_children(self):
        tracer = tracing.Tracer()
        outer = tracer.open("outer")
        inner = tracer.open("inner")
        tracer.close(inner)
        tracer.close(outer)
        own = tracer.self_times()
        self.assertAlmostEqual(own[0] + own[1], tracer.ends[0] - tracer.starts[0])
        self.assertGreaterEqual(own.min(), 0.0)


class ReferenceSeconds(unittest.TestCase):
    def test_latency_scaled_by_the_kernel_runs_around_it(self):
        workload = workloads.WORKLOADS["ray-pointwise"](5, WORK_DIR)
        workload.tasks = workload.tasks[:2]
        loop = worker.Loop(workload)
        loop.one_pass()
        refs = loop.references
        self.assertEqual(len(refs), len(workload.tasks) + 1)
        for i in range(len(workload.tasks)):
            expected = loop.latencies[i][0] * 2.0 * loop.reference.nominal_s / (refs[i] + refs[i + 1])
            self.assertAlmostEqual(loop.scaled[i][0], expected, delta=1e-12)


class Tail(unittest.TestCase):
    def test_highest_ladder_percentile_with_ten_beyond(self):
        self.assertEqual(worker.tail(list(range(99)))[0], 50.0)
        self.assertEqual(worker.tail(list(range(100)))[0], 90.0)
        self.assertEqual(worker.tail(list(range(1000)))[0], 99.0)


class Runner(unittest.TestCase):
    def run_bench(self, cwd: Path, *args: str) -> subprocess.CompletedProcess:
        cmd = [sys.executable, "perfbench/run.py", *args]
        return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_benchmark_json_matches_runner(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.LAYER_METRICS)):
            self.assertEqual(
                {m["name"]: (m["unit"], m["better"]) for m in spec[key]}, table
            )

    def test_result_line(self):
        for trace, table in (("0", metrics.END_TO_END), ("1", metrics.LAYER_METRICS)):
            with self.subTest(trace=trace):
                proc = self.run_bench(
                    ROOT, "--workload", "ray-pointwise", "--seed", "2", "--seconds", "0.3", "--trace", trace
                )
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), set(table))

    def test_refuses_without_sources(self):
        bare = WORK_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_run", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = self.run_bench(bare, "--workload", "grid-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    unittest.main()
