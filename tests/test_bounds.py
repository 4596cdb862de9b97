"""Bound evaluators, the alpha growth family and the epsilon average."""

import math

import mpmath as mp
import numpy as np
import pytest

from chainwave import bounds, model, solver
from chainwave.quadrature import tanh_sinh

mp.mp.dps = 30

UNPINNED = model.ChainParams(0.0, 1.0)
HALF = model.ChainParams(0.0, 0.5)


def mp_a_alpha(alpha):
    a = mp.mpf(alpha)
    return mp.sqrt(mp.gamma(1 - a) / (2 * mp.sqrt(mp.pi) * mp.gamma(mp.mpf("0.5") - a)))


def mp_phi(alpha):
    a = mp.mpf(alpha)
    return 2 * mp_a_alpha(a) * mp.gamma(1 - a) * mp.sin(mp.pi * a / 2) / (mp.pi * a)


class TestClosedFormBounds:
    def test_energy_sup_examples(self):
        assert bounds.energy_sup_bound(model.ChainParams(2.0, 1.0), 2.0) == pytest.approx(1.0)
        assert bounds.energy_sup_bound(model.ChainParams(1.0, 1.0), 0.0) == 0.0

    def test_energy_sup_requires_pinning(self):
        with pytest.raises(ValueError, match="pinning"):
            bounds.energy_sup_bound(UNPINNED, 1.0)

    def test_sqrt_growth_examples(self):
        assert bounds.sqrt_growth_bound(4.0, 0.0, 1.0, UNPINNED) == pytest.approx(4.0)
        assert bounds.sqrt_growth_bound(0.0, 3.0, 7.0, UNPINNED) == pytest.approx(3.0)

    def test_sqrt_growth_requires_unpinned(self):
        with pytest.raises(ValueError):
            bounds.sqrt_growth_bound(1.0, 1.0, 1.0, model.ChainParams(1.0, 1.0))

    def test_log_growth_example(self):
        state = model.LatticeState.single_site(0, p=1.0)
        slope = bounds.log_growth_bound(math.e, state, UNPINNED)
        assert slope == pytest.approx(math.sqrt(2.0) / math.pi, rel=1e-12)

    def test_log_growth_balanced_velocities(self):
        state = model.LatticeState(
            -1, np.array([0.5, 0.0, 0.5]), np.array([1.0, 0.0, -1.0])
        )
        for t in (10.0, 100.0):
            assert bounds.log_growth_bound(t, state, UNPINNED) == pytest.approx(
                state.q_norm()
            )

    def test_log_growth_domain(self):
        state = model.LatticeState.single_site(0, p=1.0)
        with pytest.raises(ValueError):
            bounds.log_growth_bound(0.5, state, UNPINNED)
        with pytest.raises(ValueError):
            bounds.log_growth_bound(2.0, state, model.ChainParams(1.0, 1.0))

    def test_pinned_run_respects_energy_bound(self):
        rng = np.random.default_rng(31)
        params = model.ChainParams(1.0, 1.0)
        state = model.LatticeState(-5, rng.uniform(-1, 1, 11), rng.uniform(-1, 1, 11))
        spectrum = model.forward_transform(state)
        bound = bounds.energy_sup_bound(params, model.energy(state, params))
        for t in (1.0, 10.0, 40.0):
            m = solver.windowed_sup(spectrum, params, t)
            assert m <= bound + 1e-9

    def test_unpinned_run_respects_sqrt_bound(self):
        rng = np.random.default_rng(32)
        state = model.LatticeState(-5, rng.uniform(-1, 1, 11), rng.uniform(-1, 1, 11))
        spectrum = model.forward_transform(state)
        for t in (1.0, 10.0, 100.0):
            m = solver.windowed_sup(spectrum, UNPINNED, t)
            assert m <= bounds.sqrt_growth_bound(t, state.q_norm(), state.p_norm(), UNPINNED)


class TestAlphaFamily:
    def test_normalization_small_alpha_limit(self):
        assert bounds.alpha_normalization(1e-8) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-6
        )

    def test_normalization_quarter(self):
        ref = float(mp_a_alpha(mp.mpf("0.25")))
        assert bounds.alpha_normalization(0.25) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
    def test_normalization_integral_is_one(self, alpha):
        # independent route: quadrature of the defining L2 integral
        a = bounds.alpha_normalization(alpha)
        integral = 2.0 * tanh_sinh(
            lambda lam: np.sin(lam / 2.0) ** (-2.0 * alpha), 0.0, math.pi,
            tolerance=1e-12,
        )
        assert a * a * integral == pytest.approx(1.0, abs=1e-8)

    def test_beta_identity(self):
        # 2 B((1-2a)/2, 1/2) against the same quadrature
        from chainwave.specfun import gamma_fn

        alpha = 0.3
        lhs = 2.0 * gamma_fn(0.5 - alpha) * gamma_fn(0.5) / gamma_fn(1.0 - alpha)
        rhs = 2.0 * tanh_sinh(
            lambda lam: np.sin(lam / 2.0) ** (-2.0 * alpha), 0.0, math.pi,
            tolerance=1e-12,
        )
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_amplitude_quarter(self):
        ref = float(mp_phi(mp.mpf("0.25")))
        assert bounds.alpha_leading_amplitude(0.25) == pytest.approx(ref, rel=1e-13)

    def test_amplitude_times_alpha_small_limit(self):
        for alpha in (1e-2, 1e-3):
            value = bounds.alpha_leading_amplitude(alpha) * alpha
            assert math.isfinite(value) and value > 0.0

    def test_alpha_range_errors(self):
        for bad in (0.0, 0.5, -0.1, 0.9):
            with pytest.raises(ValueError):
                bounds.alpha_normalization(bad)

    def test_spectrum_at_pi(self):
        spectrum = bounds.alpha_spectrum(0.25)
        assert complex(spectrum.P(math.pi)).real == pytest.approx(
            bounds.alpha_normalization(0.25), rel=1e-13
        )

    def test_spectrum_symmetry(self):
        # what the lattice route rests on: every closed form is real, even
        # in lam and 2pi-periodic, so its coefficients are real and p_-j = p_j
        lam = np.linspace(0.3, 3.0, 11)
        near_zero = np.array([1e-24, 1e-12, 1e-6])
        for spectrum in (bounds.alpha_spectrum(0.3), bounds.epsilon_spectrum(0.4)):
            assert np.allclose(spectrum.P(lam), spectrum.P(2.0 * math.pi - lam))
            for x in (lam, near_zero):
                values = spectrum.P(x)
                assert np.array_equal(spectrum.P(-x), values)
                assert np.all(values.imag == 0.0)

    def test_remainder_bound_midscale(self):
        # |q_0(t) - phi t^alpha| <= a (3 + 2/t) at alpha = 0.3, t = 50
        alpha, t = 0.3, 50.0
        fam = bounds.growth_family(alpha)
        spectrum = bounds.alpha_spectrum(alpha)
        q0 = solver.solve_at(spectrum, HALF, t, 0, solver.SolverConfig(tolerance=1e-8))
        assert abs(q0 - fam.phi_alpha * t**alpha) <= fam.a_alpha * (3.0 + 2.0 / t)

    def test_power_growth_emerges(self):
        # q_0(t)/t^alpha approaches phi(alpha) from the defining integral
        alpha = 0.25
        fam = bounds.growth_family(alpha)
        spectrum = bounds.alpha_spectrum(alpha)
        cfg = solver.SolverConfig(tolerance=1e-7)
        ratios = [
            solver.solve_at(spectrum, HALF, t, 0, cfg) / t**alpha for t in (1e2, 1e4)
        ]
        assert abs(ratios[1] - fam.phi_alpha) < abs(ratios[0] - fam.phi_alpha)


class TestEpsilonFamily:
    def test_weight_matches_direct_formula(self):
        # moderate alpha: compare against the unsimplified definition
        w = bounds.epsilon_weight(0.3, 0.2)
        direct = 1.0 / (bounds.alpha_leading_amplitude(0.3) * (0.2) ** (0.3))
        assert w == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.1, 0.3])
    def test_weight_integrable(self, eps):
        coarse = bounds.weight_integral(eps, tolerance=1e-6)
        fine = bounds.weight_integral(eps, tolerance=1e-10)
        assert math.isfinite(fine) and fine > 0.0
        assert abs(coarse - fine) < 1e-6

    def test_q_part_is_zero(self):
        spectrum = bounds.epsilon_spectrum(0.4)
        lam = np.linspace(0.2, 6.0, 9)
        assert np.allclose(spectrum.Q(lam), 0.0)

    def test_p_at_pi_matches_alpha_average(self):
        # at lam = pi every |sin|^(-alpha) factor is 1, so P-tilde(pi) is
        # the plain weight-times-normalization integral
        spectrum = bounds.epsilon_spectrum(0.4)

        def integrand(a):
            aa = mp.mpf(a)
            return mp_a_alpha(aa) / (
                mp_phi(aa) * (mp.mpf("0.5") - aa) ** mp.mpf("0.1")
            )

        ref = float(
            mp.quad(integrand, [mp.mpf("1e-30"), mp.mpf("0.25"), mp.mpf("0.5") - mp.mpf("1e-30")])
        )
        assert complex(spectrum.P(math.pi)).real == pytest.approx(ref, abs=1e-9)

    def test_mesh_refinement_converges_pointwise(self):
        lam = np.array([0.05, 1.0, math.pi])
        coarse = bounds.build_epsilon_mesh(0.3, level=6).p_values(lam)
        fine = bounds.build_epsilon_mesh(0.3, level=8).p_values(lam)
        assert np.max(np.abs(coarse - fine)) < 1e-8

    def test_l2_norm_below_weight_integral(self):
        # Minkowski: ||P-tilde|| <= int w_eps; the numeric square adds an
        # analytic bound for the unresolved sliver at the singular endpoint
        eps = 0.3
        mesh = bounds.build_epsilon_mesh(eps)
        lam_floor = 1e-60

        def integrand(lam):
            return mesh.p_values(lam) ** 2

        body = 2.0 * tanh_sinh(integrand, lam_floor, math.pi, tolerance=1e-8)
        # |P-tilde| <= ratio_max Gamma(eps+1/2) s^{-1/2} ln(1/s)^{-(eps+1/2)}
        ratio_max = max(bounds.amplitude_ratio(a) for a in np.linspace(1e-6, 0.5, 50))
        from chainwave.specfun import gamma_fn

        coef = ratio_max * gamma_fn(eps + 0.5)
        log_floor = math.log(2.0 / lam_floor)
        tail = 2.0 * coef**2 * log_floor ** (-2.0 * eps) / (2.0 * eps)
        total = math.sqrt(body + tail)
        assert total <= bounds.weight_integral(eps)

    def test_epsilon_range_errors(self):
        for bad in (0.0, 0.5, 0.7):
            with pytest.raises(ValueError):
                bounds.epsilon_spectrum(bad)


class TestGrowthPrediction:
    def test_delta_one_closed_form(self):
        # at delta = 1 both routes reduce to (sqrt(t) - 1)/ln t
        t = math.e**2
        lhs = bounds.growth_main_integral_quadrature(t, 1.0)
        rhs = bounds.growth_main_integral_gamma(t, 1.0)
        exact = (math.e - 1.0) / 2.0
        assert lhs == pytest.approx(exact, rel=1e-12)
        assert rhs == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("t", [10.0, 100.0, 1000.0])
    @pytest.mark.parametrize("delta", [0.6, 0.9])
    def test_identity(self, t, delta):
        lhs = bounds.growth_main_integral_quadrature(t, delta)
        rhs = bounds.growth_main_integral_gamma(t, delta)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_gamma_ratio_saturates(self):
        from chainwave.specfun import gamma_fn, lower_incomplete_gamma

        assert lower_incomplete_gamma(0.9, 20.0) / gamma_fn(0.9) >= 1.0 - 1e-7

    def test_scaled_prediction_approaches_limit(self):
        from chainwave.specfun import gamma_fn

        eps = 0.4
        delta = eps + 0.5
        target = gamma_fn(delta) / math.sqrt(2.0 * HALF.omega1)
        vals = []
        for t in (1e4, 1e8):
            pred = bounds.growth_prediction(t, eps, HALF)
            vals.append(pred * math.log(t) ** delta / math.sqrt(t))
        assert abs(vals[1] - target) < abs(vals[0] - target)
        assert vals[1] == pytest.approx(target, rel=1e-2)

    def test_rescaling_consistency(self):
        # prediction for coupling w1 equals the half-coupling prediction
        # evaluated at the rescaled time, divided by 2 w1
        eps, t, w1 = 0.3, 1e4, 2.0
        lhs = bounds.growth_prediction(t, eps, model.ChainParams(0.0, w1))
        rhs = bounds.growth_prediction(2.0 * w1 * t, eps, HALF) / (2.0 * w1)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bounds.growth_prediction(0.5, 0.3, HALF)
        with pytest.raises(ValueError):
            bounds.growth_prediction(10.0, 0.3, model.ChainParams(1.0, 1.0))
