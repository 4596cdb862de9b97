"""Truncated-chain Verlet oracle: accuracy, energy behavior, horizons."""

import math

import mpmath as mp
import numpy as np
import pytest

from chainwave import model, oracle, solver

mp.mp.dps = 30

UNPINNED = model.ChainParams(0.0, 1.0)


def random_state(seed, n=11, support_min=-5):
    rng = np.random.default_rng(seed)
    return model.LatticeState(
        support_min=support_min,
        q=rng.uniform(-1.0, 1.0, n),
        p=rng.uniform(-1.0, 1.0, n),
    )


class TestIntegrate:
    def test_zero_state_stays_zero(self):
        cfg = oracle.OracleConfig(radius=20, dt=1e-2)
        out = oracle.integrate(model.LatticeState.single_site(0), UNPINNED, 5.0, cfg)
        assert np.allclose(out.q, 0.0)
        assert np.allclose(out.p, 0.0)

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
