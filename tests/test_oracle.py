"""Truncated-chain Verlet oracle: accuracy, energy behavior, horizons."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainwave import model, oracle, solver

mp.mp.dps = 30

UNPINNED = model.ChainParams(0.0, 1.0)
#: the chains of acceptance criterion 1
CRITERION_01_CHAINS = [(0.0, 1.0), (0.0, 0.5), (1.0, 1.0), (2.0, 0.7), (0.3, 2.0)]


def random_state(seed, n=11, support_min=-5):
    rng = np.random.default_rng(seed)
    return model.LatticeState(
        support_min=support_min,
        q=rng.uniform(-1.0, 1.0, n),
        p=rng.uniform(-1.0, 1.0, n),
    )


def criterion_01_states():
    rng = np.random.default_rng(2024)
    return [
        model.LatticeState(-10, rng.uniform(-1, 1, 21), rng.uniform(-1, 1, 21))
        for _ in range(3)
    ]


def acceleration(q, params):
    """Textbook acceleration of q, zero ghost sites beyond both ends."""
    padded = np.concatenate(([0.0], q, [0.0]))
    lap = padded[2:] - 2.0 * q + padded[:-2]
    return params.omega1**2 * lap - params.omega0**2 * q


def textbook_steps(q, p, params, dt, steps):
    """``steps`` textbook velocity-Verlet steps of dt, clamped ends."""
    a = acceleration(q, params)
    for _ in range(steps):
        q = q + dt * p + 0.5 * dt * dt * a
        a_next = acceleration(q, params)
        p = p + 0.5 * dt * (a + a_next)
        a = a_next
    return q, p


def reference_snapshots(state, params, times, cfg):
    """Textbook velocity Verlet, with the oracle's segment rule and clamped ends."""
    q = np.zeros(2 * cfg.radius + 1)
    p = np.zeros_like(q)
    lo = state.support_min + cfg.radius
    q[lo : lo + len(state.q)] = state.q
    p[lo : lo + len(state.p)] = state.p

    out, t_now = [], 0.0
    for t in times:
        if t > t_now:
            steps = max(1, int(round((t - t_now) / cfg.dt)))
            q, p = textbook_steps(q, p, params, (t - t_now) / steps, steps)
            t_now = t
        out.append((q, p))
    return out


def assert_matches_reference(state, params, times, cfg, snaps, tol=1e-12):
    for (q, p), snap in zip(reference_snapshots(state, params, times, cfg), snaps, strict=True):
        assert snap.support_min == -cfg.radius
        assert np.max(np.abs(snap.q - q)) <= tol
        assert np.max(np.abs(snap.p - p)) <= tol


class TestSummedForm:
    """The summed kick-drift loop against the textbook velocity-Verlet loop."""

    @pytest.mark.parametrize("chain", CRITERION_01_CHAINS)
    def test_criterion_01_chains(self, chain):
        params = model.ChainParams(*chain)
        cfg = oracle.OracleConfig(
            radius=oracle.required_radius(20, 25.0, params), dt=1e-3 / params.omega0_prime
        )
        state = criterion_01_states()[0]
        times = [1.0, 5.0]
        assert_matches_reference(
            state, params, times, cfg, oracle.integrate_snapshots(state, params, times, cfg)
        )

    def test_segments_with_different_steps(self):
        # 0.3, 0.7, 0.37 and 0.63 round to 23, 54, 28 and 48 steps of 0.013:
        # every segment runs at its own effective step; t = 0 and a repeat
        # record the state without stepping
        cfg = oracle.OracleConfig(radius=40, dt=0.013)
        times = [0.0, 0.3, 0.3, 1.0, 1.37, 2.0]
        steps = [round(b / cfg.dt) for b in (0.3, 0.7, 0.37, 0.63)]
        assert len({span / n for span, n in zip((0.3, 0.7, 0.37, 0.63), steps)}) == 4
        state = random_state(31)
        params = model.ChainParams(1.0, 1.0)
        snaps = oracle.integrate_snapshots(state, params, times, cfg)
        assert_matches_reference(state, params, times, cfg, snaps)
        assert np.array_equal(snaps[0].q[35:46], state.q)
        assert np.array_equal(snaps[0].p[35:46], state.p)
        assert np.array_equal(snaps[1].q, snaps[2].q)

    def test_subnormal_span(self):
        # one step of dt = 2.2e-313 would keep p = drift / dt to ~11 digits
        # (a linearity failure once found at this t); such a span records the
        # state unchanged, and the next segment covers it
        cfg = oracle.OracleConfig(radius=12, dt=0.05)
        state = model.LatticeState(0, np.array([0.5, 0.3]), np.array([-0.75, 0.2]))
        times = [2.2250738585e-313, 1.0]
        snaps = oracle.integrate_snapshots(state, UNPINNED, times, cfg)
        assert np.array_equal(snaps[0].q[12:14], state.q)
        assert np.array_equal(snaps[0].p[12:14], state.p)
        [(q, p)] = reference_snapshots(state, UNPINNED, [1.0], cfg)
        assert np.max(np.abs(snaps[1].q - q)) <= 1e-12
        assert np.max(np.abs(snaps[1].p - p)) <= 1e-12

    def test_weak_coupling(self):
        params = model.ChainParams(2.0, 1e-8)
        cfg = oracle.OracleConfig(radius=10, dt=1e-3 / params.omega0_prime)
        state = random_state(32, n=5, support_min=-2)
        times = [0.5, math.pi / 2.0]
        assert_matches_reference(
            state, params, times, cfg, oracle.integrate_snapshots(state, params, times, cfg)
        )

    def test_state_at_the_lattice_edge(self):
        # data on the outermost sites reaches the zero ghost sites at once
        cfg = oracle.OracleConfig(radius=10, dt=1e-2)
        state = random_state(33, n=21, support_min=-10)
        times = [1.0, 3.0]
        assert_matches_reference(
            state, UNPINNED, times, cfg, oracle.integrate_snapshots(state, UNPINNED, times, cfg)
        )


class TestBlocks:
    """Segments in ladder blocks of 2^j steps against the textbook loop."""

    PARAMS = model.ChainParams(1.0, 1.0)

    @staticmethod
    def edge_state(radius):
        # data on every site, the outermost ones next to the zero ghosts included
        return random_state(40 + radius, n=2 * radius + 1, support_min=-radius)

    def run_steps(self, steps, radius, step):
        cfg = oracle.OracleConfig(radius=radius, dt=step / self.PARAMS.omega0_prime)
        times = [steps * cfg.dt]
        assert round(times[0] / cfg.dt) == steps
        state = self.edge_state(radius)
        snaps = oracle.integrate_snapshots(state, self.PARAMS, times, cfg)
        assert_matches_reference(state, self.PARAMS, times, cfg, snaps)

    @pytest.mark.parametrize("step", [0.1, oracle.MAX_STEP_FREQUENCY])
    @pytest.mark.parametrize("radius", [1, 2, 40])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1), (5, 3)])
    def test_step_counts(self, step, radius, blocks, extra):
        # 1, K - 1, K, K + 1, 2K + 1 and 5K + 3 steps for K = min(32, sites):
        # counts whose set bits call for several ladder levels at once;
        # radius 1 and 2 give lattices of 3 and 5 sites, where reach stops
        # the ladder early; at the stability limit the stencils keep nearly
        # all of their sites
        self.run_steps(blocks * min(32, 2 * radius + 1) + extra, radius, step)

    @pytest.mark.parametrize("step", [0.1, oracle.MAX_STEP_FREQUENCY])
    @pytest.mark.parametrize("radius", [1, 2, 40])
    @pytest.mark.parametrize("top", [3, 6])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_around_the_top(self, step, radius, top, offset):
        # 2^j - 1 steps take every level below j once, 2^j one block of
        # level j and 2^j + 1 that block and one step
        self.run_steps(2**top + offset, radius, step)

    @pytest.mark.parametrize("radius", [1, 2, 40])
    def test_segments_with_different_steps(self, radius):
        # segments of 65, 163, 33 and 65 steps, each span off a multiple of
        # dt by a different fraction of a step, so each segment runs at its
        # own step size; a repeated time records without stepping
        cfg = oracle.OracleConfig(radius=radius, dt=0.05)
        segments = [(65, 0.0), (163, 0.4), (33, -0.3), (65, 0.2)]
        times = [0.0]
        for steps, fraction in segments:
            times.append(times[-1] + (steps + fraction) * cfg.dt)
        times.insert(2, times[1])
        state = self.edge_state(radius)
        snaps = oracle.integrate_snapshots(state, self.PARAMS, times, cfg)
        assert_matches_reference(state, self.PARAMS, times, cfg, snaps)

    @pytest.mark.parametrize("radius", [1, 2, 40])
    def test_long_segments(self, radius):
        # about 5,000 steps a segment, each at its own step size, the
        # second segment the same as the first, so it reuses its ladder
        cfg = oracle.OracleConfig(radius=radius, dt=0.1 / self.PARAMS.omega0_prime)
        spans = [(5000, 0.0), (5000, 0.0), (4999, 0.3), (5003, -0.45)]
        times = [0.0]
        for steps, fraction in spans:
            times.append(times[-1] + (steps + fraction) * cfg.dt)
        state = self.edge_state(radius)
        snaps = oracle.integrate_snapshots(state, self.PARAMS, times, cfg)
        assert_matches_reference(state, self.PARAMS, times, cfg, snaps)

    def test_criterion_01_chain_to_t_25(self):
        params = model.ChainParams(*CRITERION_01_CHAINS[0])
        cfg = oracle.OracleConfig(
            radius=oracle.required_radius(20, 25.0, params), dt=1e-3 / params.omega0_prime
        )
        state = criterion_01_states()[0]
        times = [1.0, 5.0, 25.0]
        assert_matches_reference(
            state, params, times, cfg, oracle.integrate_snapshots(state, params, times, cfg)
        )

    @pytest.mark.parametrize("step", [0.1, oracle.MAX_STEP_FREQUENCY])
    def test_level_is_the_impulse_response(self, step):
        # level j maps (q, drift) as 2^j steps of the textbook loop do on
        # the unbounded chain, drift = dt p + dt^2 a/2 being the half kick
        dt = step / self.PARAMS.omega0_prime
        c1 = dt * dt * self.PARAMS.omega1**2
        c0 = dt * dt * (2.0 * self.PARAMS.omega1**2 + self.PARAMS.omega0**2)
        level = oracle._one_step(c1, c0)
        for j in range(8):
            if j:
                level = oracle._doubled(level)
            steps = 2**j
            # nothing moves further than `steps` sites in `steps` steps, so
            # the clamped ends of 2 steps + 1 sites are never felt
            unit = np.zeros(2 * steps + 1)
            unit[steps] = 1.0
            responses = []
            for q, drift in ((unit, np.zeros_like(unit)), (np.zeros_like(unit), unit)):
                half_kick = 0.5 * dt * dt * acceleration(q, self.PARAMS)
                q, p = textbook_steps(q, (drift - half_kick) / dt, self.PARAMS, dt, steps)
                responses.append((q, dt * p + 0.5 * dt * dt * acceleration(q, self.PARAMS)))
            (a, c), (b, e) = responses
            # the ladder holds the increments, its trimmed ends taken as zero;
            # the textbook's a - 1 and e - 1 keep only ulps of 1 at the centre
            reach = len(level[0]) // 2
            for got, want in zip(level, (a - unit, b, c, e - unit), strict=True):
                full = np.zeros_like(want)
                full[steps - reach : steps + reach + 1] = got
                assert np.max(np.abs(full - want)) <= 1e-12 * np.max(np.abs(want)) + 1e-15


@settings(max_examples=25, deadline=None)
@given(
    qp=st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=2, max_size=6
    ),
    support_min=st.integers(-12, 6),
    scale=st.floats(-2.0, 2.0),
    omega0=st.one_of(st.just(0.0), st.floats(0.1, 2.0)),
    omega1=st.floats(0.25, 2.0),
    t=st.floats(0.0, 3.0),
)
def test_pass_is_linear(qp, support_min, scale, omega0, omega1, t):
    # the map (q, p) -> (q(t), p(t)) of a pass is linear
    params = model.ChainParams(omega0, omega1)
    cfg = oracle.OracleConfig(radius=12, dt=0.05 / params.omega0_prime)
    q, p = np.array(qp).T
    a = model.LatticeState(support_min, q, p)
    b = model.LatticeState(support_min, p, -q)
    combined = model.LatticeState(support_min, q + scale * p, p - scale * q)
    sa, sb, sc = (oracle.integrate(state, params, t, cfg) for state in (a, b, combined))
    assert np.allclose(sc.q, sa.q + scale * sb.q, rtol=0.0, atol=1e-12)
    assert np.allclose(sc.p, sa.p + scale * sb.p, rtol=0.0, atol=1e-12)


class TestIntegrate:
    def test_zero_state_stays_zero(self):
        cfg = oracle.OracleConfig(radius=20, dt=1e-2)
        out = oracle.integrate(model.LatticeState.single_site(0), UNPINNED, 5.0, cfg)
        assert not np.any(out.q) and not np.any(out.p)

    def test_decoupled_oscillator_limit(self):
        # omega1 -> 0: site 0 is a lone oscillator, q_0(t) = cos(omega0 t)
        params = model.ChainParams(2.0, 1e-8)
        cfg = oracle.OracleConfig(radius=10, dt=1e-3 / params.omega0_prime)
        out = oracle.integrate(
            model.LatticeState.single_site(0, q=1.0), params, math.pi / 2.0, cfg
        )
        assert out.q_at(0) == pytest.approx(math.cos(math.pi), abs=1e-5)

    def test_bessel_value(self):
        cfg = oracle.OracleConfig(radius=60, dt=1e-4)
        out = oracle.integrate(
            model.LatticeState.single_site(0, q=1.0), UNPINNED, 1.0, cfg
        )
        assert out.q_at(0) == pytest.approx(float(mp.besselj(0, 2)), abs=1e-7)

    def test_agrees_with_spectral_solver(self):
        state = random_state(21)
        params = model.ChainParams(1.0, 1.0)
        cfg = oracle.OracleConfig(radius=70, dt=2e-4 / params.omega0_prime)
        spectrum = model.forward_transform(state)
        snaps = oracle.integrate_snapshots(state, params, [2.0, 6.0], cfg)
        tight = solver.SolverConfig(tolerance=1e-13)
        for t, snap in zip([2.0, 6.0], snaps):
            for k in range(-10, 11):
                assert snap.q_at(k) == pytest.approx(
                    solver.solve_at(spectrum, params, t, k, tight), abs=1e-6
                )

    def test_radius_doubling_invariance(self):
        # interior values don't move when the truncation radius doubles,
        # as long as t stays inside the validity horizon
        state = random_state(22)
        t = 8.0
        small = oracle.OracleConfig(radius=70, dt=1e-3)
        large = oracle.OracleConfig(radius=140, dt=1e-3)
        out_s = oracle.integrate(state, UNPINNED, t, small)
        out_l = oracle.integrate(state, UNPINNED, t, large)
        for k in range(-10, 11):
            assert out_s.q_at(k) == pytest.approx(out_l.q_at(k), abs=1e-10)

    def test_support_exceeds_radius(self):
        state = model.LatticeState.single_site(30, q=1.0)
        with pytest.raises(ValueError, match="support"):
            oracle.integrate(state, UNPINNED, 1.0, oracle.OracleConfig(radius=20, dt=1e-3))

    def test_unstable_step_rejected(self):
        state = model.LatticeState.single_site(0, q=1.0)
        with pytest.raises(ValueError, match="unstable"):
            oracle.integrate(state, UNPINNED, 1.0, oracle.OracleConfig(radius=20, dt=0.3))

    def test_step_cap(self):
        # 2^24 + 1 steps of the pass are refused before the first one
        state = model.LatticeState.single_site(0, q=1.0)
        cfg = oracle.OracleConfig(radius=20, dt=2.0**-24)
        with pytest.raises(ValueError, match="exceeds the cap of 16777216 steps"):
            oracle.integrate_snapshots(state, UNPINNED, [0.5, 1.0 + 2.0**-24], cfg)

    def test_snapshot_times_monotone(self):
        state = model.LatticeState.single_site(0, q=1.0)
        cfg = oracle.OracleConfig(radius=20, dt=1e-2)
        for times in ([2.0, 1.0], [1.0, math.nan], [math.inf]):
            with pytest.raises(ValueError):
                oracle.integrate_snapshots(state, UNPINNED, times, cfg)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(radius=0, dt=1e-2),
            dict(radius=math.inf, dt=1e-2),
            dict(radius=20, dt=0.0),
            dict(radius=20, dt=math.nan),
            dict(radius=20, dt=math.inf),
            dict(radius=2.5, dt=1e-2),
            dict(radius=3.0, dt=1e-2),
            dict(radius=True, dt=1e-2),
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            oracle.OracleConfig(**kwargs)


class TestEnergyDrift:
    def test_zero_state(self):
        cfg = oracle.OracleConfig(radius=20, dt=1e-2)
        assert oracle.energy_drift(
            model.LatticeState.single_site(0), UNPINNED, 5.0, cfg
        ) == 0.0

    def test_drift_is_bounded_second_order(self):
        # symplectic integrator: deviation stays at the (omega dt)^2 scale
        state = random_state(23)
        params = model.ChainParams(1.0, 1.0)
        dt = 1e-3
        cfg = oracle.OracleConfig(radius=160, dt=dt)
        drift = oracle.energy_drift(state, params, 100.0, cfg)
        assert drift <= 0.25 * (params.omega0_prime * dt) ** 2

    def test_halving_dt_quarters_drift(self):
        state = random_state(24)
        params = model.ChainParams(1.0, 1.0)
        t = 50.0
        d1 = oracle.energy_drift(
            state, params, t, oracle.OracleConfig(radius=120, dt=0.05 / params.omega0_prime)
        )
        d2 = oracle.energy_drift(
            state, params, t, oracle.OracleConfig(radius=120, dt=0.025 / params.omega0_prime)
        )
        assert d1 / d2 == pytest.approx(4.0, abs=0.6)


class TestValidityHorizon:
    def test_rule_values(self):
        cfg = oracle.OracleConfig(radius=100, dt=1e-3)
        assert oracle.validity_horizon(cfg, model.ChainParams(0.0, 1.0), 20) == 30.0
        assert oracle.validity_horizon(cfg, model.ChainParams(0.0, 0.5), 20) == 60.0

    def test_no_horizon(self):
        cfg = oracle.OracleConfig(radius=60, dt=1e-3)
        assert oracle.validity_horizon(cfg, UNPINNED, 20) == 0.0

    def test_required_radius_inverts_horizon(self):
        params = model.ChainParams(0.0, 1.3)
        radius = oracle.required_radius(k_max=15, t_final=12.0, params=params)
        cfg = oracle.OracleConfig(radius=radius, dt=1e-3)
        assert oracle.validity_horizon(cfg, params, 15) >= 12.0
