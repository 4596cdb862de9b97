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

from chainwave import bounds, model, oracle, quadrature, solver

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


def test_oracle_steps_follow_the_segment_rule(monkeypatch):
    # the tracer counts oracle.steps, and from them site_steps_per_s, by
    # the oracle's segment rule; the oracle runs exactly that many steps,
    # each ladder level carrying 2^j of them
    one_step, doubled, advance = oracle._one_step, oracle._doubled, oracle._advance
    steps_of, taken = {}, []

    def one_step_counted(c1, c0):
        level = one_step(c1, c0)
        steps_of[id(level)] = 1
        return level

    def doubled_counted(level):
        square = doubled(level)
        steps_of[id(square)] = 2 * steps_of[id(level)]
        return square

    def advance_counted(q, drift, stencils):
        taken.append(steps_of[id(stencils)])
        advance(q, drift, stencils)

    monkeypatch.setattr(oracle, "_one_step", one_step_counted)
    monkeypatch.setattr(oracle, "_doubled", doubled_counted)
    monkeypatch.setattr(oracle, "_advance", advance_counted)
    # t = 0 and repeats record without stepping; 0.3, 0.7, 0.37 and 0.63
    # round to 23, 54, 28 and 48 steps of 0.013
    times = [0.0, 0.0, 0.3, 0.3, 1.0, 1.37, 2.0, 2.0]
    cfg = oracle.OracleConfig(radius=20, dt=0.013)
    state = model.LatticeState.single_site(0, q=1.0)
    oracle.integrate_snapshots(state, model.ChainParams(1.0, 1.0), times, cfg)
    tracing = _load("tracing")
    assert tracing._oracle_steps((state, None, times, cfg), {}) == (sum(taken), 41)
    assert sum(taken) == 23 + 54 + 28 + 48


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
