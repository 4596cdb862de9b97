"""The benchmark's bindings to chainwave stay valid.

``perfbench/`` traces chainwave functions by name and builds its
workloads from the public API; a rename that breaks either would
otherwise show only in the separate benchmark self-test.
"""

import importlib.util
import inspect
from pathlib import Path

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


def test_epsilon_solve_reaches_p_values():
    # the tracer's bounds.p_values.* metrics time the slow-growth hot path
    # only while the epsilon family evaluates P-tilde through p_values
    tracing = _load("tracing")
    spectrum = bounds.epsilon_spectrum(0.4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cfg = solver.SolverConfig(tolerance=1e-2)
        solver.solve_at(spectrum, model.ChainParams(0.0, 0.5), 100.0, 0, cfg)
    finally:
        tracer.uninstall()
    stats = tracer.stats(lambda task: True)
    points = stats["bounds.p_values"]["count"]
    assert points > 0
    assert points == stats["model.dispersion"]["count"]


def test_graded_half_integral_takes_n_second():
    # the tracer counts graded nodes from positional argument 1, named n
    assert list(inspect.signature(quadrature.graded_half_integral).parameters)[1] == "n"


def test_ray_pointwise_kicks_pass_their_reference(tmp_path):
    # the kick tasks check solve_at against bessel_time_integral within
    # criterion 11's tolerance, so the benchmark's reference stays in Tier-1
    workloads = _load("workloads")
    workload = workloads.RayPointwise(501, tmp_path)
    kicks = [task for task in workload.tasks if task.kind == "kick"]
    assert len(kicks) == 2
    for task in kicks:
        _, checks = workload.run(task)
        for reference, measure, limit in checks:
            assert measure <= limit, (task.label, reference, measure, limit)
