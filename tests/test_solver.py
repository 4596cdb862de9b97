"""Spectral solver: kernels, pointwise and grid solves, closed-form routes."""

import builtins
import math
import re
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainwave import bounds, model, quadrature, reports, solver
from chainwave.quadrature import ConvergenceError

mp.mp.dps = 30

UNPINNED = model.ChainParams(0.0, 1.0)
TIGHT = solver.SolverConfig(tolerance=1e-13)


def spike(q=1.0, p=0.0, k=0):
    return model.forward_transform(model.LatticeState.single_site(k, q=q, p=p))


def assert_first_certified(n, spectrum, params, t, k_max, cfg):
    """n is the trig route's mesh for sites |k| <= k_max: the first of
    mesh_points 2^j that exceeds 2 reach and whose alias bound is below the
    tolerance, so half of it, if not below mesh_points, fails one of the two."""
    support_max = spectrum.support_min + len(spectrum.q_coeffs) - 1
    reach = k_max + max(abs(spectrum.support_min), abs(support_max))
    log_bound = solver._alias_log_bound(spectrum, params, t, reach)
    log_tolerance = math.log(cfg.tolerance)
    steps = n // cfg.mesh_points
    assert n % cfg.mesh_points == 0 and steps & (steps - 1) == 0
    assert n > 2 * reach and log_bound(n) < log_tolerance
    if n > cfg.mesh_points:
        assert n // 2 <= 2 * reach or log_bound(n // 2) >= log_tolerance


class TestSincKernel:
    def test_omega_zero_limit(self):
        assert solver.sinc_kernel(2.0, 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_sine_zero(self):
        assert solver.sinc_kernel(1.0, math.pi) == pytest.approx(0.0, abs=1e-16)

    def test_generic_value(self):
        # sin(1.5)/0.5, 30-digit reference 1.99498997320811...
        assert solver.sinc_kernel(3.0, 0.5) == pytest.approx(
            1.9949899732081087, rel=1e-14
        )

    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e6])
    def test_quotient_against_mpmath(self, t):
        # the reference is sin(fl(t omega))/omega at 30 digits; where fl(t
        # omega) is 0 or subnormal it is the exact sin(t omega)/omega, which
        # rounds to t.  The factor 4/3 fills the mantissa of omega, so that a
        # subnormal fl(t omega) has rounded and fl(t omega)/omega is not t.
        zs = np.array([0.0, 1e-310, 1e-300, 1e-8, 1e-2, 1e2])
        oms = zs / t * (4.0 / 3.0)
        out = solver.sinc_kernel(t, oms)
        for om, value in zip(oms, out):
            z = t * om
            if z >= np.finfo(float).tiny:
                ref = mp.sin(mp.mpf(z)) / mp.mpf(om)
            else:
                ref = mp.sin(mp.mpf(t) * mp.mpf(om)) / mp.mpf(om) if om else mp.mpf(t)
            assert abs(value - ref) <= 4.4e-16 * abs(ref), (t, om)
            assert solver.sinc_kernel(t, float(om)) == value

    def test_array_input(self):
        om = np.array([0.0, 1e-8, 0.3, 2.0])
        out = solver.sinc_kernel(2.5, om)
        assert out[0] == pytest.approx(2.5)
        assert out[3] == pytest.approx(math.sin(5.0) / 2.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            solver.sinc_kernel(-1.0, 1.0)


class TestEvolveSpectrum:
    def test_t_zero_is_identity_on_q(self):
        rng = np.random.default_rng(11)
        state = model.LatticeState(-3, rng.uniform(-1, 1, 7), rng.uniform(-1, 1, 7))
        spectrum = model.forward_transform(state)
        lam = 2.0 * math.pi * np.arange(64) / 64
        evolved = solver.evolve_spectrum(spectrum, UNPINNED, 0.0)
        assert np.allclose(evolved(lam), spectrum.Q(lam), atol=1e-15)

    def test_zero_spectrum(self):
        spectrum = spike(q=0.0)
        evolved = solver.evolve_spectrum(spectrum, UNPINNED, 3.0)
        lam = np.linspace(0.0, 2.0 * math.pi, 33)
        assert np.allclose(evolved(lam), 0.0)

    def test_weak_coupling_limit(self):
        # omega(lam) ~ omega0 when omega1 -> 0: evolution is cos(t omega0)
        params = model.ChainParams(1.0, 1e-4)
        spectrum = spike(q=1.0)
        evolved = solver.evolve_spectrum(spectrum, params, 7.0)
        lam = np.linspace(0.0, 2.0 * math.pi, 11)
        assert np.allclose(evolved(lam).real, math.cos(7.0), atol=1e-6)


class TestSolveAt:
    def test_zero_spec(self):
        assert solver.solve_at(spike(q=0.0), UNPINNED, 4.0, 3, TIGHT) == 0.0

    def test_bessel_j0(self):
        # single displaced site: q_0(t) = J_0(2t)
        v = solver.solve_at(spike(), UNPINNED, 1.0, 0, TIGHT)
        assert v == pytest.approx(0.2238907791412357, abs=1e-12)

    def test_bessel_j2(self):
        v = solver.solve_at(spike(), UNPINNED, 1.0, 1, TIGHT)
        assert v == pytest.approx(float(mp.besselj(2, 2)), abs=1e-12)

    def test_bessel_family(self):
        # q_k(t) = J_{2k}(2t) across the window
        t = 5.0
        for k in (0, 2, 7):
            v = solver.solve_at(spike(), UNPINNED, t, k, TIGHT)
            assert v == pytest.approx(float(mp.besselj(2 * k, 2 * t)), abs=1e-12)

    def test_t_zero_reproduces_data(self):
        rng = np.random.default_rng(12)
        narrow = model.LatticeState(-4, rng.uniform(-1, 1, 9), rng.uniform(-1, 1, 9))
        # wider than the 256-node starting mesh
        wide = model.LatticeState(-150, rng.uniform(-1, 1, 300), rng.uniform(-1, 1, 300))
        for state in (narrow, wide):
            spectrum = model.forward_transform(state)
            for k in range(-6, 7):
                assert solver.solve_at(spectrum, UNPINNED, 0.0, k, TIGHT) == pytest.approx(
                    state.q_at(k), abs=1e-12
                )

    def test_mesh_synthesis_folds_wide_support(self):
        # the FFT synthesis of a support wider than the mesh folds the
        # coefficients onto their aliases: the conjugate of the dense sum
        # at the nodes j <= n/2
        rng = np.random.default_rng(14)
        state = model.LatticeState(-150, rng.uniform(-1, 1, 300), rng.uniform(-1, 1, 300))
        spectrum = model.forward_transform(state)
        params = model.ChainParams(0.5, 1.0)
        for n in (128, 256):
            dense = solver.evolve_spectrum(spectrum, params, 3.0)(quadrature.periodic_mesh(n))
            synthesized = solver._mesh_eval(spectrum, params, 3.0, n)
            assert np.max(np.abs(synthesized - dense[: n // 2 + 1].conj())) < 1e-10

    @pytest.mark.parametrize("params", [UNPINNED, model.ChainParams(0.7, 1.0)])
    @pytest.mark.parametrize("half_width", [2, 150])
    def test_half_mesh_sites_match_dense_reference(self, params, half_width):
        # the real FFTs of the half mesh against one complex FFT of the
        # evolved spectrum on all n nodes, on supports narrower and wider
        # than the mesh, at sites of both signs and at the Nyquist bin
        # k = +-n/2; the reference's rounding of t omega, up to about
        # 1e-12 at t = 1e3, also shows as its imaginary residue
        rng = np.random.default_rng(15)
        size = 2 * half_width + 1
        state = model.LatticeState(-half_width, rng.uniform(-1, 1, size), rng.uniform(-1, 1, size))
        spectrum = model.forward_transform(state)
        for n in (64, 256, 4096):
            sites = np.array([-n // 2 - 3, -n // 2, -7, -1, 0, 1, 5, n // 2 - 1, n // 2])
            for t in (0.0, 1.0, 37.5, 1e3):
                dense = solver.evolve_spectrum(spectrum, params, t)(quadrature.periodic_mesh(n))
                ref = np.fft.fft(dense, norm="forward")[np.mod(sites, n)]
                got = trapezoid_sites(spectrum, params, t, n, sites)
                assert got.dtype == float
                assert np.max(np.abs(got - ref.real)) < 1e-11, (n, t)

    def test_long_time_window_matches_dense_reference(self):
        # at t = 1e5 the phase t omega is rounded to about 1e-11, and the
        # half-mesh route must stay within that rounding of the dense
        # reference over the whole window on a 2^19 mesh
        state = model.LatticeState(-1, np.array([0.3, 1.0, -0.5]), np.array([0.2, 0.0, 0.7]))
        spectrum = model.forward_transform(state)
        t, n = 1e5, 1 << 19
        window = np.arange(-110060, 110061)
        dense = solver.evolve_spectrum(spectrum, UNPINNED, t)(quadrature.periodic_mesh(n))
        ref = np.fft.fft(dense, norm="forward")[np.mod(window, n)]
        row = trapezoid_sites(spectrum, UNPINNED, t, n, window)
        assert np.max(np.abs(row - ref.real)) < 1e-10
        assert np.max(np.abs(row)) > 0.1

    def test_time_symmetry_cosine(self):
        # pure displacement data evolves through cos(t omega): even in t,
        # so the value matches the same solve at |t| by construction
        spectrum = spike(q=0.7)
        params = model.ChainParams(0.5, 1.0)
        a = solver.solve_at(spectrum, params, 3.0, 2, TIGHT)
        lam = 2.0 * math.pi * np.arange(4096) / 4096
        om = model.dispersion(params, lam)
        direct = np.mean(spectrum.Q(lam) * np.cos(3.0 * om) * np.exp(-2j * lam)).real
        assert a == pytest.approx(direct, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(13)
        st_a = model.LatticeState(-2, rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5))
        st_b = model.LatticeState(-2, rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5))
        st_sum = model.LatticeState(-2, st_a.q + st_b.q, st_a.p + st_b.p)
        t, k = 4.0, 3
        v = solver.solve_at(model.forward_transform(st_sum), UNPINNED, t, k, TIGHT)
        va = solver.solve_at(model.forward_transform(st_a), UNPINNED, t, k, TIGHT)
        vb = solver.solve_at(model.forward_transform(st_b), UNPINNED, t, k, TIGHT)
        assert v == pytest.approx(va + vb, abs=1e-12)

    def test_coupling_rescaling_identity(self):
        # velocity-only data: solve at coupling w1 equals the half-coupling
        # solve at rescaled time, divided by 2 w1
        spectrum = spike(q=0.0, p=1.0)
        w1 = 0.8
        t = 3.0
        lhs = solver.solve_at(spectrum, model.ChainParams(0.0, w1), t, 2, TIGHT)
        rhs = solver.solve_at(
            spectrum, model.ChainParams(0.0, 0.5), 2.0 * w1 * t, 2, TIGHT
        ) / (2.0 * w1)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        support_min=st.integers(-8, 8),
        qp=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=8),
        omega0=st.one_of(st.just(0.0), st.floats(0.1, 2.0)),
        omega1=st.floats(0.25, 2.0),
        t=st.floats(0.0, 40.0),
        k=st.integers(-30, 30),
    )
    def test_reflection_symmetry(self, support_min, qp, omega0, omega1, t, k):
        # reflected data q'_j = q_{-j}, p'_j = p_{-j} give q'_{-k}(t) = q_k(t)
        q, p = np.array(qp).T
        state = model.LatticeState(support_min, q, p)
        mirror = model.LatticeState(-state.support_max, q[::-1], p[::-1])
        params = model.ChainParams(omega0, omega1)
        direct = solver.solve_at(model.forward_transform(state), params, t, k, TIGHT)
        reflected = solver.solve_at(model.forward_transform(mirror), params, t, -k, TIGHT)
        assert reflected == pytest.approx(direct, abs=1e-12)

    def test_mesh_doubling_is_spectral(self):
        # trig data: once the mesh resolves the oscillation budget the
        # trapezoid error collapses to machine precision
        spectrum = spike()
        got = solver.solve_at(spectrum, UNPINNED, 20.0, 4, solver.SolverConfig(tolerance=1e-13))
        assert got == pytest.approx(float(mp.besselj(8, 40)), abs=1e-12)
        # at the tolerance edge: from a floor of 16, the bound alone picks the
        # mesh, half of which it rejects, and the value still meets the
        # tolerance, out to the wave front k = omega1 t
        edge = solver.SolverConfig(mesh_points=16, tolerance=1e-13)
        for t in (1.0, 10.0, 1e2, 1e3, 1e4):
            # mpmath takes seconds per J_n(2t) for 0 << n < 2t at t = 1e4,
            # so there the mid-cone site is replaced by k = 2
            mid = int(t) // 2 if t < 1e4 else 2
            for k in sorted({0, 1, mid, int(t)}):
                n = solver._trig_route_mesh(spectrum, UNPINNED, t, k, edge)
                assert_first_certified(n, spectrum, UNPINNED, t, k, edge)
                ref = mp.besselj(2 * k, 2 * t, maxprec=50000, maxterms=10**6)
                got = solver.solve_at(spectrum, UNPINNED, t, k, edge)
                assert abs(got - float(ref)) < edge.tolerance, (t, k)
        # a pinned chain against a mesh 2^4 times finer
        spectrum = spike(q=1.0, p=-0.5, k=3)
        params = model.ChainParams(1.0, 1.0)
        for t in (1.0, 10.0, 1e2, 1e3, 1e4):
            for k in (0, 3, -(int(t) // 2), int(t)):
                n = solver._trig_route_mesh(spectrum, params, t, abs(k), edge)
                assert_first_certified(n, spectrum, params, t, abs(k), edge)
                ref = trapezoid_sites(spectrum, params, t, 16 * n, np.array([k]))[0]
                got = solver.solve_at(spectrum, params, t, k, edge)
                assert abs(got - ref) < edge.tolerance, (t, k)

    def test_no_convergence_raises(self):
        cfg = solver.SolverConfig(mesh_points=16, tolerance=1e-13, max_mesh=32)
        with pytest.raises(ConvergenceError):
            solver.solve_at(spike(), UNPINNED, 50.0, 0, cfg)
        # a closed form's lattice state names the mesh it needs (on a
        # pinned chain, since the unpinned one takes the descent route here)
        cfg = solver.SolverConfig(tolerance=1e-13, max_mesh=64)
        with pytest.raises(ConvergenceError, match=r"its mesh must exceed \d+; max_mesh=64"):
            solver.solve_at(bounds.alpha_spectrum(0.25), model.ChainParams(0.1, 0.5), 50.0, 0, cfg)

    def test_negative_time_rejected(self):
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                solver.solve_at(spike(), UNPINNED, t, 0)
            with pytest.raises(ValueError):
                solver.solve_grid(spike(), UNPINNED, [1.0, t], [0])


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mesh_points=48),
            dict(tolerance=0.0),
            dict(tolerance=math.nan),
            dict(tolerance=math.inf),
            dict(mesh_points=64, max_mesh=32),
            dict(max_mesh=math.inf),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            solver.SolverConfig(**kwargs)


class TestMeshCap:
    """A starting mesh past the cap raises before any mesh is evaluated."""

    @pytest.fixture(autouse=True)
    def no_mesh_evaluation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a mesh was evaluated")

        monkeypatch.setattr(solver, "_mesh_eval", refuse)
        # a closed form's lattice state is not built either
        monkeypatch.setattr(model.PowerSum, "coefficients", refuse)

    CFG = solver.SolverConfig(max_mesh=1 << 20)

    def test_solve_at_trig(self):
        with pytest.raises(ConvergenceError):
            solver.solve_at(spike(), UNPINNED, 1.0, 10**7, self.CFG)

    def test_solve_at_lattice(self):
        alpha = bounds.alpha_spectrum(0.25)
        with pytest.raises(ConvergenceError):
            solver.solve_at(alpha, model.ChainParams(0.0, 0.5), 1.0, 10**7, self.CFG)

    def test_solve_grid(self):
        with pytest.raises(ConvergenceError):
            solver.solve_grid(spike(), UNPINNED, [1.0], [-(10**7), 0], self.CFG)

    def test_windowed_sup_refuses_before_building_sites(self):
        # the default window at t = 1e6 holds 2.2e6 sites; the closed form
        # is refused before its descent sites, too, and a trig range given
        # to solve_grid before its site array
        cfg = solver.SolverConfig(max_mesh=4096)
        sites = range(-2_200_000, 2_200_001)
        solves = [
            lambda: solver.windowed_sup(spike(p=1.0), UNPINNED, 1e6, cfg),
            lambda: solver.windowed_sup(bounds.alpha_spectrum(0.25), UNPINNED, 1e6, cfg),
            lambda: solver.solve_grid(spike(p=1.0), UNPINNED, [1e6], sites, cfg),
        ]
        for solve in solves:
            tracemalloc.start()
            try:
                with pytest.raises(ConvergenceError, match=r"max_mesh=4096"):
                    solve()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    @pytest.mark.parametrize(
        "params, t, sites",
        [
            # k^2 > 4x = 8e6 at the widest sites only
            (UNPINNED, 1e6, range(-5000, 5001)),
            (model.ChainParams(0.5, 1.0), 1e4, range(-10, 11)),
            (UNPINNED, 0.0, range(-5000, 5001)),
        ],
    )
    def test_solve_grid_refuses_closed_form_before_descent(self, monkeypatch, params, t, sites):
        # a slice whose widest site is off the descent route (k^2 > 4x, a
        # pinned chain, t = 0) is refused before any site is tried on it
        def refuse(*args, **kwargs):
            raise AssertionError("a site was tried on the descent route")

        monkeypatch.setattr(solver, "_descent_solve", refuse)
        cfg = solver.SolverConfig(max_mesh=4096)
        with pytest.raises(ConvergenceError, match=r"max_mesh=4096"):
            solver.solve_grid(bounds.alpha_spectrum(0.25), params, [t], sites, cfg)

    def test_solve_grid_refuses_closed_form_before_site_set(self, monkeypatch):
        # 4.4 million sites past the cap: refused from their extremes, before
        # the deduplicated site set is built
        def refuse(*args, **kwargs):
            raise AssertionError("the site set was built")

        monkeypatch.setattr(solver, "set", refuse, raising=False)
        cfg = solver.SolverConfig(max_mesh=4096)
        sites = range(-2_200_000, 2_200_001)
        with pytest.raises(ConvergenceError, match=r"max_mesh=4096"):
            solver.solve_grid(bounds.alpha_spectrum(0.25), UNPINNED, [1e6], sites, cfg)
        # sites given once, as an iterator, are read twice all the same
        with pytest.raises(ConvergenceError, match=r"max_mesh=4096"):
            solver.solve_grid(bounds.alpha_spectrum(0.25), UNPINNED, [1e6], iter([0, 5000]), cfg)

    def test_solve_grid_reads_extremes_without_a_pass(self, monkeypatch):
        # a range knows its ends: the refusal takes no Python-level pass
        # over the 4.4 million sites
        sites = range(-2_200_000, 2_200_001)

        def guard(builtin):
            def guarded(*args, **kwargs):
                if any(isinstance(arg, range) for arg in args):
                    raise AssertionError("the sites were walked in Python")
                return builtin(*args, **kwargs)

            return guarded

        for name in ("min", "max", "set", "sorted", "list"):
            monkeypatch.setattr(solver, name, guard(getattr(builtins, name)), raising=False)
        cfg = solver.SolverConfig(max_mesh=4096)
        for given in (sites, sites[::-1]):
            with pytest.raises(ConvergenceError, match=r"max_mesh=4096"):
                solver.solve_grid(bounds.alpha_spectrum(0.25), UNPINNED, [1e6], given, cfg)


def trapezoid_sites(spectrum, params, t, n, sites):
    """Trapezoid values of mesh n at ``sites``, one inverse real FFT of the
    evolved half mesh."""
    return np.fft.irfft(solver._mesh_eval(spectrum, params, t, n), n)[np.mod(sites, n)]


def wide_state(half_width=300):
    # support far wider than the starting mesh's reach: the certified mesh
    # must exceed twice the support radius
    rng = np.random.default_rng(21)
    size = 2 * half_width
    return model.LatticeState(-half_width, rng.uniform(-1, 1, size), rng.uniform(-1, 1, size))


class TestAliasBound:
    """The a-priori bound on the trig route's trapezoid (alias) error."""

    STATE = model.LatticeState(
        -3, np.random.default_rng(3).uniform(-1, 1, 7), np.random.default_rng(4).uniform(-1, 1, 7)
    )
    SITES = np.arange(-4, 5)
    REACH = 4 + 3
    REFERENCE_MESH = 1 << 16

    @pytest.mark.parametrize(
        "omega0, omega1, n, t",
        [
            # meshes where the bound is informative (below 1)
            (0.0, 1.0, 16, 2.5),
            (0.0, 1.0, 32, 13.0),
            (1.0, 1.0, 32, 15.0),
            (0.5, 2.0, 32, 6.5),
            (2.0, 0.5, 16, 5.0),
            (0.0, 0.3, 32, 45.0),
            # meshes far too coarse for t, up to n = 512
            (0.0, 1.0, 64, 45.0),
            (0.5, 2.0, 128, 52.0),
            (0.0, 1.0, 256, 243.0),
            (1.0, 1.0, 512, 740.0),
            (0.0, 0.3, 512, 1740.0),
        ],
    )
    def test_bound_covers_coarse_mesh_error(self, omega0, omega1, n, t):
        params = model.ChainParams(omega0, omega1)
        spectrum = model.forward_transform(self.STATE)
        got = trapezoid_sites(spectrum, params, t, n, self.SITES)
        ref = trapezoid_sites(spectrum, params, t, self.REFERENCE_MESH, self.SITES)
        error = float(np.max(np.abs(got - ref)))
        assert error > 1e-12  # the aliasing is visible on this mesh
        assert math.log(error) <= solver._alias_log_bound(spectrum, params, t, self.REACH)(n)

    def test_zero_spectrum_has_zero_bound(self):
        log_bound = solver._alias_log_bound(spike(q=0.0), UNPINNED, 5.0, 4)
        assert log_bound(16) == -math.inf

    def test_wide_support_mesh_grows_past_start(self):
        spectrum = model.forward_transform(wide_state())
        params = model.ChainParams(0.5, 1.0)
        t = 3.0
        n = solver._trig_route_mesh(spectrum, params, t, 0, TIGHT)
        # the support radius, not the bound, sets this mesh
        assert n == 1024
        assert_first_certified(n, spectrum, params, t, 0, TIGHT)
        ref = trapezoid_sites(spectrum, params, t, self.REFERENCE_MESH, np.array([-2, 0, 5]))
        assert solver.solve_at(spectrum, params, t, 0, TIGHT) == pytest.approx(ref[1], abs=1e-12)
        grid = solver.solve_grid(spectrum, params, [t], [-2, 0, 5], TIGHT)
        assert np.allclose(grid.values[0], ref, rtol=0.0, atol=1e-12)


def omega_on_line(omega0, omega1, a, x):
    """omega(x + ia) by numpy's complex square root."""
    return np.sqrt(omega0**2 + 2.0 * omega1**2 * (1.0 - np.cos(x + 1j * a)))


#: (omega0, omega1): unpinned, then omega0/omega1 from 0.1 to 30
STRIP_CHAINS = [(0.0, 1.0), (0.1, 1.0), (1.0, 1.0), (2.0, 0.5), (30.0, 1.0)]


class TestStripRate:
    """I(a) = max |Im omega| on the line Im lam = a, which sets the growth
    of the time factors in the alias bound and the lattice cut."""

    LINE = np.linspace(-np.pi, np.pi, 200_001)

    @pytest.mark.parametrize("omega0, omega1", STRIP_CHAINS)
    def test_closed_form_is_the_maximum(self, omega0, omega1):
        for a in solver._STRIP_WIDTHS:
            rate = solver._im_omega_max(omega0, omega1, a)
            # no sampled point exceeds the closed form ...
            sampled = float(np.max(np.abs(omega_on_line(omega0, omega1, a, self.LINE).imag)))
            assert sampled <= rate * (1.0 + 1e-12), a
            # ... and it is attained at x* = arccos(min(u*, 1))
            k = 2.0 * omega1**2
            r = 1.0 + omega0**2 / k
            u = min(math.cosh(a) / (r + math.sqrt(r * r - 1.0)), 1.0)
            attained = abs(complex(omega_on_line(omega0, omega1, a, math.acos(u))).imag)
            assert attained == pytest.approx(rate, rel=1e-14, abs=0.0), a

    @pytest.mark.parametrize("omega1", [0.3, 1.0, 2.0])
    def test_unpinned_rate(self, omega1):
        for a in solver._STRIP_WIDTHS:
            expected = 2.0 * omega1 * math.sinh(0.5 * a)
            assert solver._im_omega_max(0.0, omega1, a) == pytest.approx(expected, rel=1e-15)

    def test_pinned_rate_follows_the_group_velocity(self):
        # as a -> 0, I(a)/a tends to the top group velocity, 0.618 at
        # omega0 = omega1 = 1, against omega1 on the unpinned chain
        lam = np.linspace(0.0, np.pi, 100_001)
        omega = model.dispersion(model.ChainParams(1.0, 1.0), lam)
        top = float(np.max(np.sin(lam) / omega))
        assert top == pytest.approx(0.618, abs=1e-3)
        assert solver._im_omega_max(1.0, 1.0, 1e-6) / 1e-6 == pytest.approx(top, rel=1e-6)

    @pytest.mark.parametrize("omega0, omega1", STRIP_CHAINS)
    def test_time_factors_within_bounds(self, omega0, omega1):
        x = self.LINE[::10]
        for a in solver._STRIP_WIDTHS[::2]:
            rate = solver._im_omega_max(omega0, omega1, a)
            omega = omega_on_line(omega0, omega1, a, x)
            for t in (0.3, 3.0, 30.0, 300.0):
                if t * rate > 300.0:
                    continue
                cos_max = np.max(np.abs(np.cos(t * omega)))
                sinc_max = np.max(np.abs(np.sin(t * omega) / omega))
                assert cos_max <= math.cosh(t * rate) * (1.0 + 1e-12), (a, t)
                assert sinc_max <= math.sinh(t * rate) / rate * (1.0 + 1e-12), (a, t)

    def test_rates_are_cached_per_chain(self):
        rates = solver._strip_rates(1.0, 1.0)
        assert solver._strip_rates(1.0, 1.0) is rates
        assert [a for a, _ in rates] == list(solver._STRIP_WIDTHS)

    def test_uncoupled_limit(self):
        # omega1^2 underflows: the rate is 0 and each site oscillates alone,
        # q_0(t) = cos(omega0 t) + 0.5 sin(omega0 t)/omega0, or 1 + 0.5 t
        assert solver._im_omega_max(1.0, 1e-200, 1.0) == 0.0
        data = spike(q=1.0, p=0.5)
        got = solver.solve_at(data, model.ChainParams(1.0, 1e-200), 10.0, 0)
        assert got == pytest.approx(math.cos(10.0) + 0.5 * math.sin(10.0), rel=1e-14)
        got = solver.solve_at(data, model.ChainParams(0.0, 1e-200), 10.0, 0)
        assert got == pytest.approx(6.0, rel=1e-15)

    @pytest.mark.parametrize("t, mesh", [(1e2, 128), (1e3, 1024), (1e4, 8192)])
    def test_pinned_mesh_is_tight(self, t, mesh):
        # a kick at site 3 on the pinned chain: the certified mesh meets
        # the tolerance against a mesh 2^4 finer, half of it does not
        edge = solver.SolverConfig(mesh_points=16, tolerance=1e-13)
        kick = spike(q=0.0, p=1.0, k=3)
        params = model.ChainParams(1.0, 1.0)
        n = solver._trig_route_mesh(kick, params, t, 0, edge)
        assert n == mesh
        assert_first_certified(n, kick, params, t, 0, edge)
        ref = trapezoid_sites(kick, params, t, 16 * n, np.array([0]))[0]
        assert abs(solver.solve_at(kick, params, t, 0, edge) - ref) < edge.tolerance
        half = trapezoid_sites(kick, params, t, n // 2, np.array([0]))[0]
        assert abs(half - ref) > edge.tolerance

    def test_unpinned_kick_mesh(self):
        # the Bessel kick of the asymptotics check: site 2, k = 800, t = 2400
        cfg = solver.SolverConfig()
        kick = spike(q=0.0, p=1.0, k=2)
        n = solver._trig_route_mesh(kick, UNPINNED, 2400.0, 800, cfg)
        assert n == 4096
        assert_first_certified(n, kick, UNPINNED, 2400.0, 800, cfg)
        ref = trapezoid_sites(kick, UNPINNED, 2400.0, 16 * n, np.array([800]))[0]
        assert abs(solver.solve_at(kick, UNPINNED, 2400.0, 800, cfg) - ref) < cfg.tolerance
        half = trapezoid_sites(kick, UNPINNED, 2400.0, n // 2, np.array([800]))[0]
        assert abs(half - ref) > 0.1

    @pytest.mark.parametrize("t, cut", [(100.0, 98), (1000.0, 698)])
    def test_lattice_cut_meets_the_tolerance(self, t, cut):
        # a pinned closed form's cut J: its value agrees, within the
        # tolerance, with the solve of the state cut at 2J
        cfg = solver.SolverConfig()
        alpha = bounds.alpha_spectrum(0.25)
        params = model.ChainParams(1.0, 1.0)
        assert solver._lattice_cut(alpha.power_sum, params, t, 0, cfg) == cut
        half = alpha.power_sum.coefficients(2 * cut)
        p = np.concatenate([half[:0:-1], half])
        wide = model.SpectralPair(support_min=-2 * cut, q_coeffs=np.zeros_like(p), p_coeffs=p)
        half_cfg = solver.SolverConfig(tolerance=0.5 * cfg.tolerance)
        ref = solver.solve_at(wide, params, t, 0, half_cfg)
        assert abs(solver.solve_at(alpha, params, t, 0, cfg) - ref) < cfg.tolerance


class TestCertifiedMesh:
    """``certified_mesh`` returns n > 2 reach, so a grid slice's FFT gives
    every site |k| <= k_max its own bin without a guard in ``solve_grid``."""

    @pytest.mark.parametrize("reach", [0, 31, 32, 33, 100, 1000, 5000])
    @pytest.mark.parametrize("slope", [math.inf, 0.25, 0.01])
    def test_exceeds_twice_the_reach(self, reach, slope):
        # log_bound(n) = -slope n: an infinite slope certifies every mesh
        n_start = 64
        n = quadrature.certified_mesh(lambda n: -slope * n, n_start, reach, 1e-11, 1 << 30)
        assert n > 2 * reach
        assert -slope * n < math.log(1e-11)
        # and n is the first mesh of the doubling sequence that passes both
        assert n % n_start == 0 and (n // n_start) & (n // n_start - 1) == 0
        if n > n_start:
            half = n // 2
            assert half <= 2 * reach or -slope * half >= math.log(1e-11)


class TestTrigEvaluations:
    """The trig route evaluates one certified mesh per solve, none past the cap."""

    @pytest.fixture
    def meshes(self, monkeypatch):
        seen = []
        mesh_eval = solver._mesh_eval

        def counted(spectrum, params, t, n):
            seen.append(n)
            return mesh_eval(spectrum, params, t, n)

        def refuse(*args, **kwargs):
            raise AssertionError("the trig route refined by doubling")

        monkeypatch.setattr(solver, "_mesh_eval", counted)
        monkeypatch.setattr(quadrature, "refine_until", refuse)
        return seen

    def test_one_evaluation_per_solve_at(self, meshes):
        params = model.ChainParams(0.5, 1.0)
        for t, mesh in ((20.0, 64), (200.0, 256)):
            solver.solve_at(spike(p=1.0), params, t, 7, TIGHT)
            assert meshes == [mesh]
            assert_first_certified(mesh, spike(p=1.0), params, t, 7, TIGHT)
            meshes.clear()

    def test_one_evaluation_per_grid_slice(self, meshes):
        solver.solve_grid(spike(p=1.0), UNPINNED, [0.0, 3.0, 30.0], range(-10, 11), TIGHT)
        assert len(meshes) == 3

    def test_no_evaluation_past_the_cap(self, meshes):
        spectrum = model.forward_transform(wide_state())
        params = model.ChainParams(0.5, 1.0)
        # the support radius alone needs 1024 > 2 * 300, past the cap
        cfg = solver.SolverConfig(max_mesh=512)
        with pytest.raises(ConvergenceError, match=r"needs mesh 1024 > max_mesh=512"):
            solver.solve_at(spectrum, params, 3.0, 0, cfg)
        with pytest.raises(ConvergenceError):
            solver.solve_grid(spectrum, params, [3.0], [0, 1], cfg)
        assert meshes == []

    def test_cap_error_names_the_bound(self, meshes):
        cfg = solver.SolverConfig(max_mesh=1 << 12)
        with pytest.raises(ConvergenceError) as err:
            solver.solve_at(spike(p=1.0), UNPINNED, 1e4, 0, cfg)
        match = re.fullmatch(
            r"the error bound needs mesh (\d+) > max_mesh=4096; at max_mesh it "
            r"reaches 10\^(\S+) against the tolerance 1e-11",
            str(err.value),
        )
        assert match is not None, str(err.value)
        assert int(match[1]) == 16384
        assert_first_certified(16384, spike(p=1.0), UNPINNED, 1e4, 0, cfg)
        assert float(match[2]) > -11.0
        assert meshes == []


state_draws = st.lists(
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=8
)
chain_draws = st.builds(
    model.ChainParams,
    omega0=st.one_of(st.just(0.0), st.floats(0.1, 2.0)),
    omega1=st.floats(0.25, 2.0),
)


@settings(max_examples=30, deadline=None)
@given(
    support_min=st.integers(-8, 8),
    qp=state_draws,
    params=chain_draws,
    t=st.floats(0.0, 40.0),
    sites=st.lists(st.integers(-30, 30), min_size=1, max_size=6),
)
def test_grid_matches_pointwise_property(support_min, qp, params, t, sites):
    q, p = np.array(qp).T
    spectrum = model.forward_transform(model.LatticeState(support_min, q, p))
    grid = solver.solve_grid(spectrum, params, [t], sites, TIGHT)
    for k in grid.sites:
        assert grid.at(0, k) == pytest.approx(
            solver.solve_at(spectrum, params, t, k, TIGHT), abs=1e-12
        )


@settings(max_examples=30, deadline=None)
@given(
    starts=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
    qp_a=state_draws,
    qp_b=state_draws,
    scale=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    params=chain_draws,
    t=st.floats(0.0, 40.0),
    k=st.integers(-30, 30),
)
def test_linearity_property(starts, qp_a, qp_b, scale, params, t, k):
    # q_k(t) is linear in the data (q, p), also for data on different supports
    a = model.LatticeState(starts[0], *np.array(qp_a).T)
    b = model.LatticeState(starts[1], *np.array(qp_b).T)
    c_a, c_b = scale
    lo = min(a.support_min, b.support_min)
    hi = max(a.support_max, b.support_max)
    combined = model.LatticeState(
        lo,
        [c_a * a.q_at(j) + c_b * b.q_at(j) for j in range(lo, hi + 1)],
        [c_a * a.p_at(j) + c_b * b.p_at(j) for j in range(lo, hi + 1)],
    )

    def solve(state):
        return solver.solve_at(model.forward_transform(state), params, t, k, TIGHT)

    assert solve(combined) == pytest.approx(c_a * solve(a) + c_b * solve(b), abs=1e-11)


class TestSolveGrid:
    def test_single_cell_matches_solve_at(self):
        grid = solver.solve_grid(spike(), UNPINNED, [2.0], [1], TIGHT)
        assert grid.at(0, 1) == pytest.approx(
            solver.solve_at(spike(), UNPINNED, 2.0, 1, TIGHT), abs=1e-14
        )

    def test_t_zero_row_is_initial_data(self):
        rng = np.random.default_rng(14)
        state = model.LatticeState(-4, rng.uniform(-1, 1, 9), rng.uniform(-1, 1, 9))
        grid = solver.solve_grid(
            model.forward_transform(state), UNPINNED, [0.0], range(-8, 9), TIGHT
        )
        for k in range(-8, 9):
            assert grid.at(0, k) == pytest.approx(state.q_at(k), abs=1e-13)

    def test_matches_pointwise_on_random_data(self):
        rng = np.random.default_rng(15)
        state = model.LatticeState(-5, rng.uniform(-1, 1, 11), rng.uniform(-1, 1, 11))
        spectrum = model.forward_transform(state)
        times = [0.5, 1.0, 2.5, 4.0, 8.0]
        sites = range(-8, 9)
        grid = solver.solve_grid(spectrum, UNPINNED, times, sites, TIGHT)
        worst = 0.0
        for i, t in enumerate(times):
            for k in sites:
                worst = max(
                    worst,
                    abs(grid.at(i, k) - solver.solve_at(spectrum, UNPINNED, t, k, TIGHT)),
                )
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "sites",
        [range(-40, 41), range(40, -41, -1), range(-40, 41, 3), range(41, -40, -3), range(7, 8)],
    )
    def test_solve_grid_lays_out_a_range_without_a_pass(self, monkeypatch, sites):
        # a range, reversed or stepped, gives its list's grid, and its site
        # set is built without sorted() or set()
        rng = np.random.default_rng(31)
        state = model.LatticeState(-3, rng.uniform(-1, 1, 7), rng.uniform(-1, 1, 7))
        spectra = (model.forward_transform(state), bounds.alpha_spectrum(0.3))
        expected = [solver.solve_grid(s, UNPINNED, [0.0, 6.5], list(sites)) for s in spectra]

        def refuse(*args, **kwargs):
            raise AssertionError("the sites were walked in Python")

        for name in ("set", "sorted"):
            monkeypatch.setattr(solver, name, refuse, raising=False)
        for spectrum, want in zip(spectra, expected):
            grid = solver.solve_grid(spectrum, UNPINNED, [0.0, 6.5], sites)
            np.testing.assert_array_equal(grid.sites, want.sites)
            np.testing.assert_array_equal(grid.sites, sorted(sites))
            assert grid.sites.dtype == np.int64 and not grid.sites.flags.writeable
            np.testing.assert_array_equal(grid.values, want.values)
        for empty in (range(3, 3), range(0, 5, -1)):
            with pytest.raises(ValueError, match="non-empty"):
                solver.solve_grid(spectra[0], UNPINNED, [1.0], empty)

    def test_non_finite_values_are_refused(self, monkeypatch):
        # a grid may hold NaN (the oracle's rows), a solve may not
        monkeypatch.setattr(solver, "_trig_sites", lambda *args: np.array([0.0, np.nan, 1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            solver.solve_grid(spike(), UNPINNED, [1.0], [-1, 0, 1])

    def test_deterministic_row_order(self):
        grid = solver.solve_grid(spike(), UNPINNED, [1.0, 2.0], [3, -3, 0], TIGHT)
        rows = list(grid)
        assert [(r[0], r[1]) for r in rows] == [
            (1.0, -3), (1.0, 0), (1.0, 3), (2.0, -3), (2.0, 0), (2.0, 3),
        ]

    @pytest.mark.parametrize(
        "params",
        [model.ChainParams(0.0, 0.5), model.ChainParams(0.1, 0.5)],
        ids=["unpinned", "pinned"],
    )
    def test_closed_form_slice_matches_solve_at(self, params):
        # the sites of a slice that the descent route refuses share one
        # lattice solve, cut for the widest of them; each stays within the
        # tolerance of its own solve
        cfg = solver.SolverConfig()
        sites = [-25, -9, -3, 0, 2, 7, 16, 30]
        for spectrum in (bounds.alpha_spectrum(0.3), bounds.epsilon_spectrum(0.4)):
            grid = solver.solve_grid(spectrum, params, [0.0, 3.0, 40.0], sites, cfg)
            for i, t in enumerate(grid.times):
                for k in sites:
                    single = solver.solve_at(spectrum, params, t, k, cfg)
                    assert grid.at(i, k) == pytest.approx(single, abs=cfg.tolerance), (t, k)

    def test_csv_round_trip(self, tmp_path):
        grid = solver.solve_grid(spike(), UNPINNED, [0.0, 1.0], [-1, 0, 1], TIGHT)
        out = tmp_path / "grid.csv"
        reports.write_csv(out, ["t", "k", "q"], grid)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,k,q"
        assert len(lines) == 1 + 2 * 3
        _, k, q = lines[2].split(",")
        assert (int(k), float(q)) == (0, pytest.approx(1.0))


class TestMaxNorm:
    def test_zero_grid(self):
        grid = solver.solve_grid(spike(q=0.0), UNPINNED, [1.0], range(-4, 5), TIGHT)
        assert solver.max_norm(grid, 0) == 0.0

    def test_initial_spike(self):
        grid = solver.solve_grid(spike(), UNPINNED, [0.0], range(-10, 11), TIGHT)
        assert solver.max_norm(grid, 0) == pytest.approx(1.0)

    def test_bessel_window(self):
        # max over |k| <= 40 of |J_{2k}(10)| at t = 5
        grid = solver.solve_grid(spike(), UNPINNED, [5.0], range(-40, 41), TIGHT)
        expected = max(abs(float(mp.besselj(2 * k, 10))) for k in range(-40, 41))
        assert solver.max_norm(grid, 0) == pytest.approx(expected, abs=1e-12)

    def test_narrow_window_warns(self):
        grid = solver.solve_grid(spike(), UNPINNED, [10.0], range(-6, 7), TIGHT)
        with pytest.warns(solver.EdgeDominanceWarning):
            solver.max_norm(grid, 0)

    def test_wide_window_is_silent(self):
        grid = solver.solve_grid(spike(), UNPINNED, [10.0], range(-25, 26), TIGHT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solver.max_norm(grid, 0)

    def test_windowed_sup_helper(self):
        expected = max(abs(float(mp.besselj(2 * k, 10))) for k in range(-30, 31))
        for window in (None, np.int64(30)):
            value = solver.windowed_sup(spike(), UNPINNED, 5.0, TIGHT, window)
            assert value == pytest.approx(expected, abs=1e-10)
        for window in (-3, 2.5, True, np.True_, "3", 3.0):
            with pytest.raises(ValueError, match="window"):
                solver.windowed_sup(spike(), UNPINNED, 5.0, TIGHT, window)


class TestSingularRoute:
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
    def test_alpha_family_against_mpmath(self, alpha):
        # q_0(t) for the power-law velocity spectrum at half coupling
        spectrum = bounds.alpha_spectrum(alpha)
        params = model.ChainParams(0.0, 0.5)
        t = 10.0
        got = solver.solve_at(spectrum, params, t, 0, solver.SolverConfig(tolerance=1e-9))
        a = bounds.alpha_normalization(alpha)
        f = lambda lam: mp.sin(t * mp.sin(lam / 2)) / mp.sin(lam / 2) ** (1 + mp.mpf(alpha))
        ref = float(a / (2 * mp.pi) * 2 * mp.quad(f, [0, mp.pi / 2, mp.pi]))
        assert got == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize(
        "alpha, t, tolerance, margin",
        [
            (0.25, 4.0, 1e-9, 1e-8),
            (0.4, 100.0, 1e-11, 1e-11),
        ],
    )
    def test_alpha_family_nonzero_site(self, alpha, t, tolerance, margin):
        spectrum = bounds.alpha_spectrum(alpha)
        params = model.ChainParams(0.0, 0.5)
        k = 3
        got = solver.solve_at(spectrum, params, t, k, solver.SolverConfig(tolerance=tolerance))
        a = bounds.alpha_normalization(alpha)
        f = lambda lam: (
            mp.sin(t * mp.sin(lam / 2))
            / mp.sin(lam / 2) ** (1 + mp.mpf(alpha))
            * mp.cos(k * lam)
        )
        ref = float(a / mp.pi * mp.quad(f, [mp.pi * j / 16 for j in range(17)]))
        assert got == pytest.approx(ref, abs=margin)


CLOSED_FORMS = {
    "alpha": lambda: bounds.alpha_spectrum(0.3),
    "epsilon": lambda: bounds.epsilon_spectrum(0.4),
}


class TestGaussLaguerre:
    def test_matches_numpy_at_beta_zero(self):
        nodes, weights = quadrature.gauss_laguerre(8, [0.0])
        ref_nodes, ref_weights = np.polynomial.laguerre.laggauss(8)
        assert nodes[0] == pytest.approx(ref_nodes, rel=1e-14)
        assert weights[0] == pytest.approx(ref_weights, rel=1e-13)

    def test_exact_for_polynomials_of_degree_below_2n(self):
        betas = [-0.5, 0.3, 0.99]
        nodes, weights = quadrature.gauss_laguerre(8, betas)
        assert nodes.shape == weights.shape == (3, 8)
        for row, beta in enumerate(betas):
            for j in range(16):
                moment = float(np.sum(weights[row] * nodes[row] ** j))
                assert moment == pytest.approx(math.gamma(beta + j + 1.0), rel=1e-13)


#: the lattice route as defined here, out of reach of monkeypatching
LATTICE_SITES = solver._lattice_sites


def lattice_reference(spectrum, params, t, k, cfg):
    """``solve_at``'s lattice route, called directly: the reference for the
    descent route and for its fallbacks."""
    return float(LATTICE_SITES(spectrum, params, t, np.array([k]), cfg)[0])


def alpha_reference(alpha, t, k, params=model.ChainParams(0.0, 0.5)):
    """30-digit mpmath q_k(t) of the alpha family, on panels of about one
    oscillation each."""
    w0, w1 = mp.mpf(params.omega0), mp.mpf(params.omega1)

    def f(lam):
        s = mp.sin(lam / 2)
        om = mp.sqrt(w0**2 + 4 * w1**2 * s**2)
        return mp.sin(t * om) / om / s ** mp.mpf(alpha) * mp.cos(k * lam)

    a = bounds.alpha_normalization(alpha)
    n = max(16, int(abs(k) + t * params.omega0_prime) // 2)
    return float(a / mp.pi * mp.quad(f, [mp.pi * j / n for j in range(n + 1)]))


class TestDescentRoute:
    """Power sums on the unpinned chain: steepest descent, lattice fallback."""

    HALF = model.ChainParams(0.0, 0.5)

    @pytest.fixture
    def no_lattice(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the lattice route ran")

        monkeypatch.setattr(solver, "_lattice_sites", refuse)

    @pytest.mark.parametrize("t, ref", [(100.0, 1.142161137488487), (1e3, 2.074991813603672)])
    def test_alpha_against_mpmath_values(self, no_lattice, t, ref):
        # mpmath q_0(t) at alpha = 0.25
        got = solver.solve_at(bounds.alpha_spectrum(0.25), self.HALF, t, 0, TIGHT)
        assert got == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.1, 0.4])
    @pytest.mark.parametrize("k", [0, 3])
    def test_alpha_against_mpmath(self, no_lattice, alpha, k):
        got = solver.solve_at(
            bounds.alpha_spectrum(alpha), self.HALF, 20.0, k, solver.SolverConfig(tolerance=1e-11)
        )
        assert got == pytest.approx(alpha_reference(alpha, 20.0, k), abs=1e-12)

    @pytest.mark.parametrize("t", [1e2, 1e3, 1e4])
    def test_epsilon_against_lattice(self, no_lattice, t):
        spectrum = bounds.epsilon_spectrum(0.3)
        cfg = solver.SolverConfig(tolerance=1e-7)
        got = solver.solve_at(spectrum, self.HALF, t, 0, cfg)
        assert got == pytest.approx(lattice_reference(spectrum, self.HALF, t, 0, cfg), abs=1e-7)

    def test_growth_past_the_graded_route(self, no_lattice):
        # t = 1e9: a quadrature of the spectrum, graded or lattice, would
        # need a mesh of ~2^32 nodes, past any cap
        t = 1e9
        cfg = solver.SolverConfig(tolerance=1e-6)
        eps = bounds.epsilon_spectrum(0.4)
        q0 = solver.solve_at(eps, self.HALF, t, 0, cfg)
        weight_sum = float(np.sum(eps.power_sum.weights))
        # criterion 06's remainder bound summed over the alpha average
        assert abs(q0 - bounds.growth_prediction(t, 0.4, self.HALF)) <= weight_sum * (3.0 + 2.0 / t)
        fam = bounds.growth_family(0.25)
        q0 = solver.solve_at(bounds.alpha_spectrum(0.25), self.HALF, t, 0, cfg)
        assert abs(q0 - fam.phi_alpha * t**fam.alpha) <= fam.a_alpha * (3.0 + 2.0 / t)

    @pytest.mark.parametrize("family", sorted(CLOSED_FORMS))
    @pytest.mark.parametrize(
        "params, t, k",
        [
            (HALF, 0.0, 0),
            (HALF, 1e-300, 0),
            (model.ChainParams(0.1, 0.5), 100.0, 0),
            (HALF, 100.0, 100),
            (HALF, 1.0, 0),
        ],
        ids=["t=0", "tiny-t", "pinned", "large-k", "small-x"],
    )
    def test_fallback_is_the_lattice_value(self, family, params, t, k):
        # where the route does not apply or misses the tolerance, the solve
        # is the lattice solve, bit for bit, and the attempt is silent
        spectrum = CLOSED_FORMS[family]()
        cfg = solver.SolverConfig(tolerance=1e-11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solver.solve_at(spectrum, params, t, k, cfg)
        assert got == lattice_reference(spectrum, params, t, k, cfg)
        if family == "alpha":
            assert got == pytest.approx(alpha_reference(0.3, t, k, params), abs=1e-11)


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.1, 0.4), t=st.floats(0.5, 1e3), k=st.integers(-12, 12))
def test_descent_agrees_with_lattice(alpha, t, k):
    # wherever the descent route holds, the two routes agree to within both
    # tolerances
    spectrum = bounds.alpha_spectrum(alpha)
    params = model.ChainParams(0.0, 0.5)
    cfg = solver.SolverConfig()
    descent = solver._descent_solve(spectrum, params, t, k, cfg)
    assume(descent is not None)
    lattice = lattice_reference(spectrum, params, t, k, cfg)
    assert descent == pytest.approx(lattice, abs=2.0 * cfg.tolerance)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.1, 0.4),
    omega1=st.floats(0.25, 2.0),
    t=st.floats(0.0, 1e3),
    k=st.integers(-8, 8),
)
def test_closed_form_coupling_rescaling(alpha, omega1, t, k):
    # velocity-only data: q^{w1}(t) = q^{1/2}(2 w1 t) / (2 w1); the rescaled
    # phase x = 2 w1 t runs from the lattice route (small x, or k^2 > 4x)
    # into the descent route, and the two sides may take different routes
    spectrum = bounds.alpha_spectrum(alpha)
    cfg = solver.SolverConfig(tolerance=1e-9)
    lhs = solver.solve_at(spectrum, model.ChainParams(0.0, omega1), t, k, cfg)
    rhs = solver.solve_at(spectrum, model.ChainParams(0.0, 0.5), 2.0 * omega1 * t, k, cfg)
    assert lhs == pytest.approx(rhs / (2.0 * omega1), abs=1e-7)
