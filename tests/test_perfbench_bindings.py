"""The benchmark's bindings to chainwave stay valid.

``perfbench/`` traces chainwave functions by name and builds its
workloads from the public API; a rename that breaks either would
otherwise show only in the separate benchmark self-test, and a task that
misses its reference only as a failed benchmark run.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from chainwave import bounds, model, quadrature, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracing = _load("tracing")
    # the benchmark has imported every traced module before it traces
    for module, _ in tracing.TARGETS.values():
        importlib.import_module(module)
    assert tracing.Tracer().missing == []


def test_every_workload_builds(tmp_path):
    workloads = _load("workloads")
    assert len(workloads.WORKLOADS) == 4
    for name, cls in workloads.WORKLOADS.items():
        assert cls(501, tmp_path).tasks, name


def _traced_epsilon_solve(params: model.ChainParams) -> dict:
    """Tracer stats of one epsilon-family q_0(100) solve at tolerance 1e-2."""
    tracing = _load("tracing")
    spectrum = bounds.epsilon_spectrum(0.4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cfg = solver.SolverConfig(tolerance=1e-2)
        solver.solve_at(spectrum, params, 100.0, 0, cfg)
    finally:
        tracer.uninstall()
    return tracer.stats(lambda task: True)


def test_unpinned_epsilon_solve_skips_p_values():
    # the descent route sums the power sum directly: no P-tilde point, no
    # graded mesh
    stats = _traced_epsilon_solve(model.ChainParams(0.0, 0.5))
    assert "bounds.p_values" not in stats
    assert "quadrature.graded_half_integral" not in stats
    assert stats["solver.solve_at"]["calls"] == 1


def test_graded_half_integral_takes_n_second():
    # the tracer counts graded nodes from positional argument 1, named n
    assert list(inspect.signature(quadrature.graded_half_integral).parameters)[1] == "n"


def test_mesh_eval_takes_spectrum_params_t_n_first():
    # the tracer wraps _mesh_eval as traced(spectrum, params, t, n, ...)
    # and records the mesh n of every solve_grid slice from it
    assert list(inspect.signature(solver._mesh_eval).parameters)[:4] == [
        "spectrum",
        "params",
        "t",
        "n",
    ]


@pytest.mark.parametrize("name", ["grid-sweep", "slow-growth", "oracle-compare", "ray-pointwise"])
def test_one_seeded_pass_meets_every_check(name, tmp_path):
    # one pass of the workload, each task run and then verified as the
    # benchmark does, so a check it would count as failed fails here
    # first; the ray-pointwise kicks hold solve_at to criterion 11's
    # tolerance against bessel_time_integral
    workloads = _load("workloads")
    workload = workloads.WORKLOADS[name](501, tmp_path)
    for task in workload.tasks:
        output, checks = workload.run(task)
        for reference, measure, limit in checks + workload.verify(task, output):
            assert measure <= limit, (task.label, reference, measure, limit)
