"""In-memory span tracer for the traced benchmark run.

The tracer replaces chainwave's public functions at every name their
callers bind (``chainwave.solver.dispersion``,
``chainwave.model.graded_half_integral``, ``EpsilonSpectrum.p_values``,
...) with wrappers that record one span per call: name, start, end, parent
span and task id, plus a work count taken from the arguments (points,
nodes, steps, rows).  The two mesh-doubling hooks, ``refine_until`` and
the private ``solver._mesh_eval``, record events instead of spans: they
count the meshes every refinement loop evaluates while the time stays
with the solver call that runs the loop.  Nothing inside ``chainwave`` is edited; the wrappers live
only while ``install()`` is in effect.

Spans stay in memory and are written once, by ``dump()``, when the run
ends.  A span's self time is its duration minus the durations of its
direct children, so the self times of one task's spans add up to the
task's wall time.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

import numpy as np

import chainwave.bounds

#: span name -> (defining module, attribute); the class attribute
#: EpsilonSpectrum.p_values is patched on the class itself
TARGETS = {
    "model.dispersion": ("chainwave.model", "dispersion"),
    "model.forward_transform": ("chainwave.model", "forward_transform"),
    "quadrature.refine_until": ("chainwave.quadrature", "refine_until"),
    "quadrature.graded_half_integral": ("chainwave.quadrature", "graded_half_integral"),
    "quadrature.tanh_sinh": ("chainwave.quadrature", "tanh_sinh"),
    "quadrature.gauss_legendre_panels": ("chainwave.quadrature", "gauss_legendre_panels"),
    "solver.solve_grid": ("chainwave.solver", "solve_grid"),
    "solver.solve_at": ("chainwave.solver", "solve_at"),
    "solver.sinc_kernel": ("chainwave.solver", "sinc_kernel"),
    "solver._mesh_eval": ("chainwave.solver", "_mesh_eval"),
    "bounds.epsilon_spectrum": ("chainwave.bounds", "epsilon_spectrum"),
    "specfun.bessel_j": ("chainwave.specfun", "bessel_j"),
    "specfun.lower_incomplete_gamma": ("chainwave.specfun", "lower_incomplete_gamma"),
    "oracle.integrate_snapshots": ("chainwave.oracle", "integrate_snapshots"),
    "asymptotics.ray_asymptote": ("chainwave.asymptotics", "ray_asymptote"),
    "asymptotics.bessel_time_integral": ("chainwave.asymptotics", "bessel_time_integral"),
    "reports.write_csv": ("chainwave.reports", "write_csv"),
}
P_VALUES = "bounds.p_values"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _oracle_steps(args, kwargs) -> tuple[int, int]:
    """(Verlet steps, lattice sites) of one integrate_snapshots call.

    Computed from the arguments with the oracle's documented segment rule
    (each segment runs round(span/dt) steps, at least one).
    """
    times = [float(t) for t in _arg(args, kwargs, 2, "times")]
    cfg = _arg(args, kwargs, 3, "cfg")
    steps = 0
    t_now = 0.0
    for t in times:
        if t > t_now:
            steps += max(1, int(round((t - t_now) / cfg.dt)))
            t_now = t
    return steps, 2 * cfg.radius + 1


# work counted per call, from the arguments; spans without an entry count 0
_COUNTERS = {
    "model.dispersion": lambda a, k: int(np.size(_arg(a, k, 1, "lam"))),
    "quadrature.graded_half_integral": lambda a, k: int(_arg(a, k, 1, "n")) + 1,
    "specfun.bessel_j": lambda a, k: int(np.size(_arg(a, k, 1, "x"))),
    P_VALUES: lambda a, k: int(np.size(_arg(a, k, 1, "lam"))),
}


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tasks: list = []
        self.counts: list[int] = []
        self.aux: dict[int, object] = {}
        self.refines: list[tuple[object, list[int], bool]] = []
        self.grid_evals: list[tuple[int, float, int]] = []
        self.task = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = self._build_wrappers()

    # ---------------------------------------------------------------- spans
    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.tasks.append(self.task)
        self.counts.append(0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int, count: int = 0) -> None:
        self.ends[idx] = time.perf_counter()
        self.counts[idx] = count
        self._stack.pop()

    # ------------------------------------------------------------- patching
    def _plain(self, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx, counter(args, kwargs) if counter else 0)

        return traced

    def _refine(self, fn):
        # an event, not a span, so the loop's time stays with the solver
        # call that runs it; the event keeps every mesh evaluated, the last
        # one of a loop that returned being the accepted mesh
        @functools.wraps(fn)
        def traced(evaluate, n_start, *args, **kwargs):
            meshes: list[int] = []

            def counted(n):
                meshes.append(int(n))
                return evaluate(n)

            accepted = False
            try:
                value = fn(counted, n_start, *args, **kwargs)
                accepted = True
                return value
            finally:
                self.refines.append((self.task, meshes, accepted))

        return traced

    def _mesh_eval(self, fn):
        # also an event; those whose caller is solve_grid are the mesh
        # sizes of its own doubling loop
        @functools.wraps(fn)
        def traced(spectrum, params, t, n, *args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if parent >= 0 and self.names[parent] == "solver.solve_grid":
                self.grid_evals.append((parent, float(t), int(n)))
            return fn(spectrum, params, t, n, *args, **kwargs)

        return traced

    def _oracle(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open("oracle.integrate_snapshots")
            try:
                return fn(*args, **kwargs)
            finally:
                steps, sites = _oracle_steps(args, kwargs)
                self.aux[idx] = sites
                self.close(idx, steps)

        return traced

    def _write_csv(self, fn):
        @functools.wraps(fn)
        def traced(path, header, rows):
            idx = self.open("reports.write_csv")
            seen = [0]

            def counted():
                for row in rows:
                    seen[0] += 1
                    yield row

            try:
                return fn(path, header, counted())
            finally:
                self.close(idx, seen[0])

        return traced

    def _build_wrappers(self) -> dict:
        special = {
            "quadrature.refine_until": self._refine,
            "solver._mesh_eval": self._mesh_eval,
            "oracle.integrate_snapshots": self._oracle,
            "reports.write_csv": self._write_csv,
        }
        wrappers = {}
        for name, (module_name, attr) in TARGETS.items():
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                self.missing.append(name)
                continue
            make = special.get(name)
            wrappers[id(original)] = (
                original,
                make(original) if make else self._plain(name, original),
            )
        p_values = chainwave.bounds.EpsilonSpectrum.p_values
        wrappers[id(p_values)] = (p_values, self._plain(P_VALUES, p_values))
        return wrappers

    def install(self) -> None:
        """Patch every chainwave binding of every target function."""
        if self._patches:
            return
        owners = [m for n, m in sorted(sys.modules.items()) if n.startswith("chainwave")]
        owners.append(chainwave.bounds.EpsilonSpectrum)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(owner, attr, entry[1])
                    self._patches.append((owner, attr, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- analysis
    def self_times(self) -> np.ndarray:
        duration = np.array(self.ends) - np.array(self.starts)
        own = duration.copy()
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= duration[idx]
        return own

    def stats(self, task_filter) -> dict:
        """Per span name: calls, summed work count, self and total seconds,
        over the spans whose task id passes ``task_filter``; plus the mesh
        bookkeeping behind quadrature.refine.*."""
        own = self.self_times()
        out: dict = {}
        evaluated = accepted = evaluations = 0
        grid_slices: dict[int, list[tuple[float, int]]] = {}
        for idx, name in enumerate(self.names):
            if not task_filter(self.tasks[idx]):
                continue
            entry = out.setdefault(name, {"calls": 0, "count": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["count"] += self.counts[idx]
            entry["self_s"] += float(own[idx])
            entry["total_s"] += self.ends[idx] - self.starts[idx]
            if name == "oracle.integrate_snapshots":
                entry.setdefault("site_steps", 0)
                entry["site_steps"] += self.counts[idx] * self.aux[idx]
        for task, meshes, ok in self.refines:
            if task_filter(task):
                evaluations += len(meshes)
                evaluated += sum(meshes)
                accepted += meshes[-1] if ok and meshes else 0
        for parent, t, n in self.grid_evals:
            if task_filter(self.tasks[parent]):
                grid_slices.setdefault(parent, []).append((t, n))
        # solve_grid's own doubling loop: one run of mesh evaluations per
        # time slice, the last mesh of each run being the accepted one
        for evals in grid_slices.values():
            evaluations += len(evals)
            evaluated += sum(n for _, n in evals)
            for i, (t, n) in enumerate(evals):
                if i + 1 == len(evals) or evals[i + 1][0] != t:
                    accepted += n
        out["quadrature.refine"] = {
            "evaluations": evaluations,
            "evaluated_nodes": evaluated,
            "accepted_nodes": accepted,
        }
        return out

    def meshes(self, task_filter) -> list[int]:
        """Every mesh size any refinement loop evaluated."""
        sizes = [n for task, meshes, _ in self.refines if task_filter(task) for n in meshes]
        sizes += [n for parent, _, n in self.grid_evals if task_filter(self.tasks[parent])]
        return sizes

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, task."""
        origin = min(self.starts, default=0.0)
        with open(path, "w") as fh:
            for idx, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        [
                            name,
                            round(self.starts[idx] - origin, 9),
                            round(self.ends[idx] - origin, 9),
                            self.parents[idx],
                            self.tasks[idx],
                        ]
                    )
                    + "\n"
                )


# time metrics take the median over traced passes; counts are per pass
_SELF = {
    "bounds.p_values.self_s": P_VALUES,
    "quadrature.graded_half_integral.self_s": "quadrature.graded_half_integral",
    "quadrature.tanh_sinh.self_s": "quadrature.tanh_sinh",
    "quadrature.gauss_legendre_panels.self_s": "quadrature.gauss_legendre_panels",
    "solver.solve_grid.self_s": "solver.solve_grid",
    "solver.solve_at.self_s": "solver.solve_at",
    "solver.sinc_kernel.self_s": "solver.sinc_kernel",
    "model.dispersion.self_s": "model.dispersion",
    "oracle.integrate_snapshots.self_s": "oracle.integrate_snapshots",
    "specfun.bessel_j.self_s": "specfun.bessel_j",
    "specfun.lower_incomplete_gamma.self_s": "specfun.lower_incomplete_gamma",
    "asymptotics.ray_asymptote.self_s": "asymptotics.ray_asymptote",
    "asymptotics.bessel_time_integral.self_s": "asymptotics.bessel_time_integral",
    "reports.write_csv.self_s": "reports.write_csv",
}
_CALLS = {
    "quadrature.graded_half_integral.calls": "quadrature.graded_half_integral",
    "quadrature.tanh_sinh.calls": "quadrature.tanh_sinh",
    "solver.solve_grid.calls": "solver.solve_grid",
    "solver.solve_at.calls": "solver.solve_at",
    "model.forward_transform.calls": "model.forward_transform",
    "specfun.bessel_j.calls": "specfun.bessel_j",
}
_COUNTS = {
    "bounds.p_values.points": P_VALUES,
    "quadrature.graded_half_integral.nodes": "quadrature.graded_half_integral",
    "model.dispersion.points": "model.dispersion",
    "oracle.steps": "oracle.integrate_snapshots",
    "specfun.bessel_j.points": "specfun.bessel_j",
    "reports.write_csv.rows": "reports.write_csv",
}


def _field(stats: dict, span: str, key: str):
    return stats.get(span, {}).get(key, 0)


def counts_signature(stats: dict) -> dict:
    """Every exact count of one traced pass, for the repeat check."""
    sig = {name: (s["calls"], s["count"]) for name, s in stats.items() if "calls" in s}
    sig["quadrature.refine"] = tuple(sorted(stats["quadrature.refine"].items()))
    return sig


def layer_metrics(setup: dict, passes: list[dict]) -> dict:
    """Per-layer metrics of one traced set-up plus one pass of the task list.

    Counts come from the first traced pass (every pass repeats them);
    self times are the set-up's plus the median over traced passes.
    """
    first = passes[0]

    def self_s(span: str) -> float:
        return _field(setup, span, "self_s") + statistics.median(
            _field(p, span, "self_s") for p in passes
        )

    def count(span: str, key: str) -> int:
        return _field(setup, span, key) + _field(first, span, key)

    out = {name: self_s(span) for name, span in _SELF.items()}
    out.update({name: count(span, "calls") for name, span in _CALLS.items()})
    out.update({name: count(span, "count") for name, span in _COUNTS.items()})
    out["bounds.epsilon_spectrum.s"] = _field(setup, "bounds.epsilon_spectrum", "total_s") + statistics.median(
        _field(p, "bounds.epsilon_spectrum", "total_s") for p in passes
    )
    points = out["bounds.p_values.points"]
    out["bounds.p_values.ns_per_point"] = (
        1e9 * out["bounds.p_values.self_s"] / points if points else 0.0
    )
    site_steps = count("oracle.integrate_snapshots", "site_steps")
    oracle_s = out["oracle.integrate_snapshots.self_s"]
    out["oracle.site_steps_per_s"] = site_steps / oracle_s if oracle_s > 0.0 else 0.0
    refine = {
        key: setup["quadrature.refine"][key] + first["quadrature.refine"][key]
        for key in first["quadrature.refine"]
    }
    out["quadrature.refine.evaluations"] = refine["evaluations"]
    out["quadrature.refine.useful_ratio"] = (
        refine["accepted_nodes"] / refine["evaluated_nodes"]
        if refine["evaluated_nodes"]
        else 0.0
    )
    return out
