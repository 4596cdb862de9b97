"""Seeded inputs, tasks and reference checks for the benchmark workloads.

Each workload turns a seed into one *pass*: a fixed list of tasks that
mirror one CLI command.  The seed draws every input value (supports,
amplitudes, exponents, kick sites and amplitudes); the strata that set
each task's cost (times, site windows, ray lengths, chain parameters)
and the task order are the same for every seed, so passes cost the same
across seeds and the run-to-run spread stays small.

``run(task)`` is the task's own work, the part the timed loop measures,
and returns ``(output, checks)``.  A check is ``(reference, measure,
limit)`` and passes when ``measure <= limit``.  ``verify(task, output)``
holds the checks that are not the task's own work; they run after the
timed loop.

Calls go through module attributes (``solver.solve_grid``, not a name
imported from it) so that the traced run sees them.
"""

from __future__ import annotations

import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from chainwave import asymptotics, bounds, model, oracle, reports, solver


class Workload:
    """One seeded pass of tasks plus their references."""

    name = ""
    #: parts of the reference kernel that times are scaled by (see
    #: worker.REFERENCE_PARTS): those that stand for the tasks' own work
    REFERENCE: tuple[str, ...] = ()

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.tasks: list[SimpleNamespace] = []
        self.warm: list[SimpleNamespace] = []

    def run(self, task):
        raise NotImplementedError

    def verify(self, task, output) -> list[tuple[str, float, float]]:
        return []

    def warmup(self) -> None:
        """Run the cheapest task of each kind once, so lazy set-up is paid
        before timing starts."""
        for task in self.warm:
            self.run(task)

    def properties(self) -> dict:
        raise NotImplementedError


class GridSweep(Workload):
    """``bounds-check``/``simulate``: one time slice over the wave-cone
    window on the trig-FFT route, its max-norm bound and its CSV rows."""

    name = "grid-sweep"
    REFERENCE = ("small-steps", "ffts", "exponentials")
    # half-decade steps up to 1e3, quarter-decade steps above; the meshes
    # grow from 2^10 to 2^19 nodes
    TIMES = [10.0 ** (e / 4.0) for e in (4, 6, 8, 10, 12, 13, 14, 15, 16)]
    PARAMS = (model.ChainParams(0.0, 1.0), model.ChainParams(1.0, 1.0), model.ChainParams(2.0, 1.0))
    MAX_WIDTH = 12
    #: grid and pointwise solves each meet 1e-11; they must agree to this
    RESOLVE_TOL = 1e-9
    RESOLVED_SITES = 3

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.cfg = solver.SolverConfig()
        tasks = []
        # one chain per time, in turn: each time is then a single task whose
        # cost sits well apart from its neighbours', which keeps the median
        # and the tail on one kind of task
        for i, t in enumerate(self.TIMES):
            params = self.PARAMS[i % len(self.PARAMS)]
            width = int(self.rng.integers(1, self.MAX_WIDTH + 1))
            state = model.LatticeState(
                int(self.rng.integers(-width, 1)),
                self.rng.uniform(-1.0, 1.0, width),
                self.rng.uniform(-1.0, 1.0, width),
            )
            # the windowed_sup window: the wave front travels at most
            # omega1 * t sites
            window = int(math.ceil(1.1 * params.omega1 * t)) + 60
            tasks.append(
                SimpleNamespace(
                    label=f"w0={params.omega0:g} t={t:.4g}",
                    params=params,
                    t=t,
                    state=state,
                    spectrum=model.forward_transform(state),
                    window=window,
                )
            )
        self.tasks = tasks
        for i, task in enumerate(self.tasks):
            task.csv = out_dir / f"slice-{i:02d}.csv"
        self.warm = [min(self.tasks, key=lambda task: task.t)]

    def run(self, task):
        sites = range(-task.window, task.window + 1)
        grid = solver.solve_grid(task.spectrum, task.params, [task.t], sites, self.cfg)
        sup = solver.max_norm(grid, 0)
        if task.params.pinned:
            bound = bounds.energy_sup_bound(task.params, model.energy(task.state, task.params))
        else:
            bound = bounds.sqrt_growth_bound(
                task.t, task.state.q_norm(), task.state.p_norm(), task.params
            )
        reports.write_csv(task.csv, ["t", "k", "q"], grid.rows())
        return grid.values[0], [("max-norm bound", sup, bound + 1e-9)]

    def verify(self, task, output):
        """Sampled sites of the slice re-solved pointwise with solve_at."""
        rng = np.random.default_rng([self.seed, self.tasks.index(task)])
        cone = min(task.window, int(math.ceil(task.params.omega1 * task.t)) + self.MAX_WIDTH)
        sites = {int(np.argmax(np.abs(output))) - task.window}
        while len(sites) < self.RESOLVED_SITES:
            sites.add(int(rng.integers(-cone, cone + 1)))
        checks = []
        for k in sorted(sites):
            exact = solver.solve_at(task.spectrum, task.params, task.t, k, self.cfg)
            checks.append(("pointwise re-solve", abs(exact - output[k + task.window]), self.RESOLVE_TOL))
        return checks

    def properties(self) -> dict:
        widths = [len(task.state.q) for task in self.tasks]
        windows = [2 * task.window + 1 for task in self.tasks]
        return {
            "t": [min(self.TIMES), max(self.TIMES)],
            "support_width": [min(widths), max(widths)],
            "window_sites": [min(windows), max(windows)],
            "pinned_tasks": sum(task.params.pinned for task in self.tasks),
            "tasks_per_pass": len(self.tasks),
        }


class SlowGrowth(Workload):
    """``growth``: q_0(t) of the epsilon family (the alpha average built by
    EpsilonSpectrum) and of the alpha family on the graded route."""

    name = "slow-growth"
    REFERENCE = ("exponentials",)
    PARAMS = model.ChainParams(0.0, 0.5)
    EPS_TIMES = [float(t) for t in np.geomspace(1e2, 3e4, 6)]
    #: (alpha index, t): three alpha-family solves between the epsilon ones
    ALPHA_RUNS = ((0, 1e2), (1, 1e3), (0, 1e4))
    #: the growth command's full-chain solve and criterion 06's alpha solve
    EPS_CFG = solver.SolverConfig(mesh_points=64, tolerance=1e-2, max_mesh=1 << 24)
    ALPHA_CFG = solver.SolverConfig(tolerance=1e-8)
    IDENTITY_TOL = 1e-8

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.epsilons = sorted(float(e) for e in self.rng.uniform(0.2, 0.45, 2))
        # from alpha ~ 0.35 up the t = 1e4 solve needs two more doublings;
        # the band stays below so that a pass costs the same for every seed
        self.alphas = sorted(float(a) for a in self.rng.uniform(0.1, 0.3, 2))
        self.eps_spectra = [bounds.epsilon_spectrum(eps) for eps in self.epsilons]
        # P-tilde(pi) is the weight sum of the alpha average, which scales
        # the alpha family's remainder bound up to the epsilon family
        self.weight_sums = [float(sp.P(math.pi).real) for sp in self.eps_spectra]
        self.alpha_spectra = [bounds.alpha_spectrum(a) for a in self.alphas]
        self.families = [bounds.growth_family(a) for a in self.alphas]
        first = int(self.rng.integers(2))
        tasks = [
            SimpleNamespace(label=f"epsilon t={t:.4g}", kind="epsilon", t=t, index=(first + i) % 2)
            for i, t in enumerate(self.EPS_TIMES)
        ]
        tasks += [
            SimpleNamespace(label=f"alpha t={t:.4g}", kind="alpha", t=t, index=j)
            for j, t in self.ALPHA_RUNS
        ]
        self.tasks = tasks
        self.warm = [
            min((task for task in self.tasks if task.kind == kind), key=lambda task: task.t)
            for kind in ("epsilon", "alpha")
        ]

    def run(self, task):
        t, i = task.t, task.index
        if task.kind == "alpha":
            q0 = solver.solve_at(self.alpha_spectra[i], self.PARAMS, t, 0, self.ALPHA_CFG)
            fam = self.families[i]
            # criterion 06: |q_0 - phi t^alpha| <= a_alpha (3 + 2/t)
            remainder = abs(q0 - fam.phi_alpha * t**fam.alpha)
            return q0, [("alpha remainder bound", remainder, fam.a_alpha * (3.0 + 2.0 / t))]
        eps = self.epsilons[i]
        q0 = solver.solve_at(self.eps_spectra[i], self.PARAMS, t, 0, self.EPS_CFG)
        predicted = bounds.growth_prediction(t, eps, self.PARAMS)
        s = 2.0 * self.PARAMS.omega1 * t
        lhs = bounds.growth_main_integral_quadrature(s, eps + 0.5)
        rhs = bounds.growth_main_integral_gamma(s, eps + 0.5)
        return q0, [
            ("growth prediction", abs(q0 - predicted), self.weight_sums[i] * (3.0 + 2.0 / t)),
            ("semi-analytic identity", abs(lhs - rhs) / abs(rhs), self.IDENTITY_TOL),
        ]

    def properties(self) -> dict:
        return {
            "t": [min(self.EPS_TIMES), max(self.EPS_TIMES)],
            "epsilon": self.epsilons,
            "alpha": self.alphas,
            "tasks_per_pass": len(self.tasks),
        }


class OracleCompare(Workload):
    """``oracle-compare``: the Verlet oracle and a small spectral grid on a
    seeded random state, compared site by site."""

    name = "oracle-compare"
    REFERENCE = ("small-steps",)
    # (chain, final time), cycling through criterion 01's five chains; the
    # Verlet work, steps times lattice sites, grows about 1.45x from one
    # task to the next, so no two tasks cost about the same
    RUNS = (
        (model.ChainParams(0.0, 1.0), 2.0),
        (model.ChainParams(0.0, 0.5), 5.5),
        (model.ChainParams(1.0, 1.0), 3.5),
        (model.ChainParams(2.0, 0.7), 4.5),
        (model.ChainParams(0.3, 2.0), 4.0),
        (model.ChainParams(0.0, 1.0), 10.5),
        (model.ChainParams(0.0, 0.5), 29.0),
        (model.ChainParams(1.0, 1.0), 18.0),
        (model.ChainParams(2.0, 0.7), 24.0),
    )
    K_MAX = 15
    #: Verlet step in units of 1/omega0'
    STEP = 4e-3

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.cfg = solver.SolverConfig()
        tasks = []
        for params, t_final in self.RUNS:
            width = int(self.rng.integers(5, 22))
            state = model.LatticeState(
                int(self.rng.integers(-10, 12 - width)),
                self.rng.uniform(-1.0, 1.0, width),
                self.rng.uniform(-1.0, 1.0, width),
            )
            dt = self.STEP / params.omega0_prime
            # velocity Verlet shifts a mode of frequency w by w^3 dt^2/24,
            # so after t_final no site moves by more than this phase-error
            # bound; the spectral side is exact to 1e-11
            tol = (
                t_final * params.omega0_prime**3 * dt**2 / 24.0
                * (np.sum(np.abs(state.q)) + np.sum(np.abs(state.p)))
                + 1e-10
            )
            tasks.append(
                SimpleNamespace(
                    label=f"w0={params.omega0:g} w1={params.omega1:g} t={t_final:g}",
                    params=params,
                    state=state,
                    spectrum=model.forward_transform(state),
                    times=[t_final / 4.0, t_final / 2.0, t_final],
                    ocfg=oracle.OracleConfig(
                        radius=oracle.required_radius(self.K_MAX, t_final, params), dt=dt
                    ),
                    tol=float(tol),
                )
            )
        self.tasks = tasks
        self.sites = list(range(-self.K_MAX, self.K_MAX + 1))
        self.warm = [min(self.tasks, key=lambda task: task.times[-1] * task.params.omega0_prime)]

    def run(self, task):
        grid = solver.solve_grid(task.spectrum, task.params, task.times, self.sites, self.cfg)
        snapshots = oracle.integrate_snapshots(task.state, task.params, task.times, task.ocfg)
        lo = self.sites[0] + task.ocfg.radius
        verlet = np.array([snap.q[lo : lo + len(self.sites)] for snap in snapshots])
        residual = float(np.max(np.abs(grid.values - verlet)))
        return (grid.values, verlet), [("spectral residual", residual, task.tol)]

    def properties(self) -> dict:
        widths = [len(task.state.q) for task in self.tasks]
        radii = [task.ocfg.radius for task in self.tasks]
        return {
            "t": [min(t for _, t in self.RUNS), max(t for _, t in self.RUNS)],
            "support_width": [min(widths), max(widths)],
            "oracle_sites": [2 * min(radii) + 1, 2 * max(radii) + 1],
            "tasks_per_pass": len(self.tasks),
        }


class RayPointwise(Workload):
    """``asymptotics``: one pointwise solve per (k, t) on trig data, against
    the supersonic ray asymptote (pinned) or the Bessel time integral
    (unpinned kick)."""

    name = "ray-pointwise"
    REFERENCE = ("small-steps", "ffts", "exponentials")
    #: supersonic rays, beta -> chain; gamma(beta) = 2, 5 and 7 keeps them
    #: clear of the critical ray, where the two stationary points merge and
    #: the k^(-3/2) term is not yet the remainder
    RAYS = {
        2.0: model.ChainParams(0.5, 1.0),
        3.0: model.ChainParams(1.0, 1.0),
        8.0: model.ChainParams(1.0, 0.5),
    }
    KICK = model.ChainParams(0.0, 1.0)
    #: (kind, beta, |k|) from cheapest to dearest, each well apart in cost
    POINTS = (
        ("ray", 2.0, 128),
        ("ray", 2.0, 256),
        ("ray", 3.0, 500),
        ("ray", 8.0, 500),
        ("kick", 1.5, 256),
        ("ray", 8.0, 2000),
        ("kick", 3.0, 800),
    )
    MAX_HALF_WIDTH = 6
    #: next-order stationary-phase term: |exact - asymptote| <= C M2 |k|^(-3/2)
    #: with M2 = sum (1 + j^2)(|q_j| + |p_j|)
    RAY_C = 1.0
    #: criterion 11's tolerance for the Bessel identity
    KICK_TOL = 1e-8

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.cfg = solver.SolverConfig()
        geometry = {beta: asymptotics.ray_geometry(beta, params) for beta, params in self.RAYS.items()}
        tasks = []
        for kind, beta, k in self.POINTS:
            if kind == "ray":
                state = self._symmetric_state()
                j = state.sites
                m2 = float(np.sum((1.0 + j * j) * (np.abs(state.q) + np.abs(state.p))))
                task = SimpleNamespace(
                    params=self.RAYS[beta],
                    geo=geometry[beta],
                    spectrum=model.forward_transform(state),
                    tol=self.RAY_C * m2 / k**1.5,
                )
            else:
                site = int(self.rng.integers(-3, 4))
                amplitude = float(self.rng.uniform(0.5, 1.5) * self.rng.choice((-1, 1)))
                k = int(k * self.rng.choice((-1, 1)))
                task = SimpleNamespace(
                    params=self.KICK,
                    site=site,
                    amplitude=amplitude,
                    spectrum=model.forward_transform(model.LatticeState.single_site(site, p=amplitude)),
                    tol=self.KICK_TOL,
                )
            task.label = f"{kind} beta={beta:g} k={abs(k)}"
            task.kind, task.k, task.t = kind, k, beta * abs(k)
            tasks.append(task)
        self.tasks = tasks
        self.warm = [next(task for task in self.tasks if task.kind == kind) for kind in ("ray", "kick")]

    def _symmetric_state(self) -> model.LatticeState:
        # reflection-symmetric data, q_{-j} = q_j: ray_asymptote pairs the
        # spectrum at mu with the phase of -mu, which matches the exact
        # solution only when Q and P are even
        half = int(self.rng.integers(0, self.MAX_HALF_WIDTH + 1))
        decay = float(self.rng.uniform(0.5, 0.8)) ** np.arange(half + 1)
        q = self.rng.uniform(-1.0, 1.0, half + 1) * decay
        p = self.rng.uniform(-1.0, 1.0, half + 1) * decay
        return model.LatticeState(
            -half, np.concatenate([q[:0:-1], q]), np.concatenate([p[:0:-1], p])
        )

    def run(self, task):
        exact = solver.solve_at(task.spectrum, task.params, task.t, task.k, self.cfg)
        if task.kind == "ray":
            predicted = asymptotics.ray_asymptote(task.spectrum, task.geo, task.k, task.params)
            reference = "ray asymptote"
        else:
            predicted = task.amplitude * asymptotics.bessel_time_integral(
                task.k - task.site, task.t, task.params
            )
            reference = "bessel time integral"
        return (exact, predicted), [(reference, abs(exact - predicted), task.tol)]

    def properties(self) -> dict:
        ks = [abs(task.k) for task in self.tasks]
        ts = [task.t for task in self.tasks]
        return {
            "k": [min(ks), max(ks)],
            "t": [min(ts), max(ts)],
            "ray_tasks": sum(task.kind == "ray" for task in self.tasks),
            "tasks_per_pass": len(self.tasks),
        }


WORKLOADS = {cls.name: cls for cls in (GridSweep, SlowGrowth, OracleCompare, RayPointwise)}
