"""Ray classification/geometry, long-time asymptotes, decay-exponent fits."""

import ast
import math
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from chainwave import asymptotics as asym
from chainwave import bounds, model, quadrature, solver, specfun
from test_specfun import running_integral_reference

mp.mp.dps = 30

UNPINNED = model.ChainParams(0.0, 1.0)
PINNED = model.ChainParams(1.0, 1.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
TIGHT = solver.SolverConfig(tolerance=1e-13)


def spike(q=1.0, p=0.0, k=0):
    return model.forward_transform(model.LatticeState.single_site(k, q=q, p=p))


class TestClassifyRay:
    def test_supersonic_unpinned(self):
        assert asym.ray_discriminant(2.0, UNPINNED) == pytest.approx(3.0)
        assert asym.classify_ray(2.0, UNPINNED) == "supersonic"

    def test_golden_ratio_is_critical(self):
        # beta^2 - beta - 1 = 0 at the golden ratio
        assert asym.classify_ray(GOLDEN, PINNED) == "critical"

    def test_subsonic(self):
        assert asym.ray_discriminant(1.0, PINNED) == pytest.approx(-1.0)
        assert asym.classify_ray(1.0, PINNED) == "subsonic"

    def test_requires_positive_beta(self):
        with pytest.raises(ValueError):
            asym.classify_ray(0.0, PINNED)


class TestRayGeometry:
    def test_reference_values(self):
        geo = asym.ray_geometry(3.0, PINNED)
        assert geo.delta == pytest.approx(math.sqrt(55.0), rel=1e-14)
        assert [point.branch for point in geo.points] == [+1, -1]
        for point in geo.points:
            cos_mu = (1.0 + point.branch * math.sqrt(55.0)) / 9.0
            assert math.cos(point.mu) == pytest.approx(cos_mu)
            assert math.sin(point.mu) < 0.0
            assert point.omega == model.dispersion(PINNED, point.mu)
            assert point.h == point.mu + 3.0 * point.omega

    def test_amplitude_formula(self):
        geo = asym.ray_geometry(3.0, PINNED)
        for point in geo.points:
            assert point.c == pytest.approx(
                0.5 * math.sqrt(3.0 * point.omega / (2.0 * math.pi * geo.delta))
            )
            # the stationary-phase amplitude 1/(2 sqrt(2 pi |h''|))
            assert point.c == pytest.approx(0.5 / math.sqrt(2.0 * math.pi * abs(point.h2)))

    def test_unpinned_geometry_has_one_point(self):
        # the plus point sits on the lam = 0 kink; its contribution is
        # ray_asymptote's plateau, not a stationary point
        geo = asym.ray_geometry(3.0, UNPINNED)
        assert [point.branch for point in geo.points] == [-1]
        assert geo.points[0].c > 0.0 and geo.points[0].omega > 0.0

    def test_second_derivative_signs(self):
        geo = asym.ray_geometry(3.0, PINNED)
        for point in geo.points:
            assert math.copysign(1.0, point.h2) == point.branch

    def test_second_derivative_matches_finite_differences(self):
        geo = asym.ray_geometry(3.0, PINNED)
        h = 1e-5

        def phase(lam):
            return lam + geo.beta * model.dispersion(PINNED, lam)

        for point in geo.points:
            mu = point.mu
            numeric = (phase(mu + h) - 2.0 * phase(mu) + phase(mu - h)) / h**2
            assert numeric == pytest.approx(point.h2, rel=1e-4)

    def test_phase_is_odd_in_k(self):
        geo = asym.ray_geometry(3.0, PINNED)
        for point in geo.points:
            for k in (1, 7, 32):
                assert point.phase(-k) == pytest.approx(-point.phase(k))

    def test_not_supersonic_raises(self):
        with pytest.raises(ValueError, match="not supersonic"):
            asym.ray_geometry(1.0, PINNED)

    @pytest.mark.parametrize("omega0", [1e-9, 1e-6, 1e-4, 1e-3])
    def test_small_pinning(self, omega0):
        # cos mu of the plus point lies within ~omega0^2 of 1, where acos
        # of it raised ArithmeticError (residuals -8.3e-4, -3.7e-8, 1.7e-10
        # at 1e-6, 1e-4, 1e-3) or dropped the point (1e-9)
        params = model.ChainParams(omega0, 1.0)
        geo = asym.ray_geometry(3.0, params)
        assert [point.branch for point in geo.points] == [+1, -1]
        with mp.workdps(50):
            b2w2 = mp.mpf(9)
            delta = mp.sqrt((b2w2 - 1) ** 2 - (3 * mp.mpf(omega0)) ** 2)
            for point in geo.points:
                assert abs(asym._phase_derivative(point.mu, 3.0, params)) <= (
                    asym.PHASE_RESIDUAL_TOL
                )
                exact = -mp.acos((1 + point.branch * delta) / b2w2)
                assert point.mu == pytest.approx(float(exact), rel=1e-15)


class TestRayAsymptote:
    def test_zero_spectrum(self):
        geo = asym.ray_geometry(3.0, PINNED)
        assert asym.ray_asymptote(spike(q=0.0), geo, 16, PINNED) == 0.0

    @pytest.mark.parametrize("k", [16, -16], ids=["k-positive", "k-negative"])
    @pytest.mark.parametrize(
        "state",
        [
            model.LatticeState.single_site(0, q=1.0),
            model.LatticeState(-1, [0.3, 1.0, -0.4], [0.5, -0.2, 0.7]),
        ],
        ids=["spike", "asymmetric"],
    )
    def test_real_output_structure(self, state, k):
        # the two-point sum c (Q(-s mu) e^{iw} + Q(s mu) e^{-iw}) - i c
        # (P(-s mu) e^{iw} - P(s mu) e^{-iw})/omega(mu), s = sign(k), is real
        # for real data and is the asymptote
        geo = asym.ray_geometry(3.0, PINNED)
        spectrum = model.forward_transform(state)
        s = 1.0 if k > 0 else -1.0
        expected = 0.0
        for point in geo.points:
            mu, c = point.mu, point.c
            wave = np.exp(1j * point.phase(abs(k)))
            expected += c * (spectrum.Q(-s * mu) * wave + spectrum.Q(s * mu) * wave.conjugate())
            expected -= 1j * c * (spectrum.P(-s * mu) * wave - spectrum.P(s * mu) * wave.conjugate()) / point.omega
        expected /= math.sqrt(abs(k))
        assert abs(expected.imag) <= 1e-15
        assert asym.ray_asymptote(spectrum, geo, k, PINNED) == pytest.approx(expected.real)

    @pytest.mark.parametrize(
        "state, k, exact",
        [
            (model.LatticeState.single_site(1, q=1.0), 2000, -2.9045e-3),
            (model.LatticeState.single_site(1, q=1.0), -2000, 4.3889e-3),
            (model.LatticeState(-1, [0.5, 1.0, 0.5], [0.2, -0.3, 0.2]), -2000, 3.6867e-3),
        ],
        ids=["off-center-k-positive", "off-center-k-negative", "symmetric-k-negative"],
    )
    def test_matches_exact_at_large_k(self, state, k, exact):
        # the k^(-3/2) remainder is ~2e-6 here; pairing a stationary
        # point with the wrong wave is off by ~5e-3
        geo = asym.ray_geometry(3.0, PINNED)
        spectrum = model.forward_transform(state)
        solved = solver.solve_at(spectrum, PINNED, 3.0 * abs(k), k, TIGHT)
        assert solved == pytest.approx(exact, abs=1e-7)
        assert asym.ray_asymptote(spectrum, geo, k, PINNED) == pytest.approx(solved, abs=1e-5)

    #: float.hex of ray_asymptote on the ray-pointwise benchmark rays,
    #: (beta, omega0, omega1), at k = 128, -256, 500 and 2000 for the
    #: asymmetric state below: the pinned point sum is pinned bit for bit
    PINNED_HEX = {
        (2.0, 0.5, 1.0): ("-0x1.19351d4601031p-4", "-0x1.586c5255e0722p-6",
                          "0x1.05e1e23501dc7p-6", "0x1.717761df7cd5dp-9"),
        (3.0, 1.0, 1.0): ("-0x1.3887abbe25045p-5", "0x1.2c1b759ca53e5p-6",
                          "0x1.0e37dfb7a7a0cp-5", "-0x1.8666468a33643p-15"),
        (8.0, 1.0, 0.5): ("-0x1.10ac6200e7210p-7", "-0x1.296d1ff0573e0p-12",
                          "0x1.8b0cd0dd0a1d7p-6", "0x1.143dc2b6a52fdp-10"),
    }

    @pytest.mark.parametrize("beta, omega0, omega1", sorted(PINNED_HEX))
    def test_pinned_values_are_bit_identical(self, beta, omega0, omega1):
        params = model.ChainParams(omega0, omega1)
        geo = asym.ray_geometry(beta, params)
        spectrum = model.forward_transform(
            model.LatticeState(-1, [0.3, 1.0, -0.4], [0.5, -0.2, 0.7])
        )
        values = [asym.ray_asymptote(spectrum, geo, k, params).hex() for k in (128, -256, 500, 2000)]
        assert tuple(values) == self.PINNED_HEX[beta, omega0, omega1]

    @pytest.mark.parametrize("omega1, beta", [(1.0, 3.0), (0.5, 8.0), (2.0, 1.5)])
    @pytest.mark.parametrize(
        "state",
        [
            model.LatticeState.single_site(0, p=1.0),
            model.LatticeState(-1, [0.3, 1.0, -0.4], [0.5, -0.2, 0.7]),
        ],
        ids=["kick", "asymmetric"],
    )
    def test_unpinned_plateau(self, omega1, beta, state):
        # unpinned, the lam = 0 kink adds P(0)/(2 omega1) inside the light
        # cone; without it the residual is that plateau (0.25 to 1.0 here),
        # with it the next stationary-phase order, k^(-3/2) (at most 0.088
        # |k|^(-3/2) measured)
        params = model.ChainParams(0.0, omega1)
        geo = asym.ray_geometry(beta, params)
        spectrum = model.forward_transform(state)
        for k in (32, 64, 128, 256, 512, -32, -64, -128, -256, -512):
            exact = solver.solve_at(spectrum, params, beta * abs(k), k, TIGHT)
            pred = asym.ray_asymptote(spectrum, geo, k, params)
            assert abs(exact - pred) * abs(k) ** 1.5 <= 0.1, k

    def test_pinned_skips_the_plateau(self):
        # a pinned chain has no kink: P(0) is never evaluated
        class NoZero:
            def Q(self, lam):
                return spike().Q(lam)

            def P(self, lam):
                assert lam != 0.0
                return spike().P(lam)

        geo = asym.ray_geometry(3.0, PINNED)
        assert asym.ray_asymptote(NoZero(), geo, 16, PINNED) == asym.ray_asymptote(
            spike(), geo, 16, PINNED
        )

    def test_k_zero_rejected(self):
        geo = asym.ray_geometry(3.0, PINNED)
        with pytest.raises(ValueError):
            asym.ray_asymptote(spike(), geo, 0, PINNED)

    @pytest.mark.parametrize("omega0", [1e-9, 1e-4])
    def test_refuses_the_kink_window(self, omega0):
        # the plus point lies within ~omega0 of the lam = 0 kink; for
        # |k| < 1/(h'' mu^2) its term is wrong (3.0 against an exact 0.52 at
        # omega0 = 1e-4, k = 32), and the kink's Klein-Gordon term
        # P(0)/(2 omega1) J0(z), z = |k| omega0 sqrt(beta^2 - 1), beside the
        # minus point's term, is what the exact solution follows
        params = model.ChainParams(omega0, 1.0)
        geo = asym.ray_geometry(3.0, params)
        minus = asym.RayGeometry(geo.beta, geo.delta, geo.points[1:])
        spectrum = spike(q=0.0, p=1.0)
        for k in (32, 128, 512, -512):
            with pytest.raises(ValueError, match="lam = 0 kink"):
                asym.ray_asymptote(spectrum, geo, k, params)
            exact = solver.solve_at(spectrum, params, 3.0 * abs(k), k)
            z = abs(k) * omega0 * math.sqrt(8.0)
            kink = 0.5 * specfun.bessel_j(0, z)
            minus_term = asym.ray_asymptote(spectrum, minus, k, params)
            assert exact == pytest.approx(minus_term + kink, abs=1e-4)

    @pytest.mark.parametrize("omega0, k", [(1e-3, 8192), (1e-2, 512), (1e-2, 2048)])
    def test_small_pinning_past_the_kink_window(self, omega0, k):
        params = model.ChainParams(omega0, 1.0)
        geo = asym.ray_geometry(3.0, params)
        spectrum = spike(q=0.0, p=1.0)
        exact = solver.solve_at(spectrum, params, 3.0 * k, k)
        assert asym.ray_asymptote(spectrum, geo, k, params) == pytest.approx(exact, abs=1e-3)

    def test_supersonic_envelope_shrinks(self):
        # scaled residual sqrt(k) |exact - predicted|: octave maxima decay
        geo = asym.ray_geometry(3.0, PINNED)
        spectrum = spike()
        peaks = []
        for base in (24, 48, 96):
            worst = 0.0
            for k in range(base, 2 * base, max(1, base // 8)):
                exact = solver.solve_at(spectrum, PINNED, 3.0 * k, k, TIGHT)
                pred = asym.ray_asymptote(spectrum, geo, k, PINNED)
                worst = max(worst, abs(exact - pred) * math.sqrt(k))
            peaks.append(worst)
        assert peaks[2] < peaks[0]


class TestFixedKPinned:
    def test_parity_flips_optical_terms(self):
        spectrum = spike()
        t = 37.0
        w0, w0p = PINNED.omega0, PINNED.omega0_prime
        v0 = asym.fixed_k_asymptote(spectrum, PINNED, 0, t)
        v1 = asym.fixed_k_asymptote(spectrum, PINNED, 1, t)
        acoustic = (v0 + v1) / 2.0
        optical = (v0 - v1) / 2.0
        c1 = math.sqrt(w0 / (2 * math.pi)) / PINNED.omega1
        assert acoustic == pytest.approx(
            c1 * math.cos(t * w0 + math.pi / 4.0) / math.sqrt(t)
        )
        c2 = math.sqrt(w0p / (2 * math.pi)) / PINNED.omega1
        assert optical == pytest.approx(
            c2 * math.cos(t * w0p - math.pi / 4.0) / math.sqrt(t)
        )

    def test_velocity_data_uses_sine_terms(self):
        spectrum = spike(q=0.0, p=1.0)
        t = 11.0
        w0, w0p, w1 = PINNED.omega0, PINNED.omega0_prime, PINNED.omega1
        s1 = math.sqrt(w0 / (2 * math.pi)) / (w1 * w0)
        s2 = math.sqrt(w0p / (2 * math.pi)) / (w1 * w0p)
        expected = (
            s1 * math.sin(t * w0 + math.pi / 4.0)
            + s2 * math.sin(t * w0p - math.pi / 4.0)
        ) / math.sqrt(t)
        assert asym.fixed_k_asymptote(spectrum, PINNED, 0, t) == pytest.approx(expected)

    def test_scaled_residual_vanishes(self):
        spectrum = spike()
        vals = []
        for t in (1e2, 1e4):
            exact = solver.solve_at(spectrum, PINNED, t, 0, TIGHT)
            pred = asym.fixed_k_asymptote(spectrum, PINNED, 0, t)
            vals.append(abs(exact - pred) * math.sqrt(t))
        assert vals[1] < vals[0]
        assert vals[1] < 0.05

    def test_vanishing_endpoint_data_decays_faster(self):
        # two balanced spikes kill Q(0) and Q(pi): prediction is exactly 0
        # and the exact solution decays faster than 1/sqrt(t)
        state = model.LatticeState(0, np.array([1.0, 0.0, -1.0]), np.zeros(3))
        spectrum = model.forward_transform(state)
        assert abs(complex(spectrum.Q(0.0))) < 1e-14
        assert abs(complex(spectrum.Q(math.pi))) < 1e-14
        assert asym.fixed_k_asymptote(spectrum, PINNED, 0, 100.0) == 0.0
        ts = np.geomspace(1e2, 1e4, 24)
        res = [abs(solver.solve_at(spectrum, PINNED, float(t), 0, TIGHT)) for t in ts]
        fit = asym.envelope_decay_exponent(ts, res)
        assert fit.exponent > 0.6

    def test_values_pinned_bit_for_bit(self):
        # the two-band formula's evaluation order is fixed: (c1 cos + s1 sin
        # + optical) / sqrt(t), with both q and p data on both edges
        state = model.LatticeState(-1, np.array([0.3, -1.2, 0.7]), np.array([0.5, 0.0, -0.4]))
        spectrum = model.forward_transform(state)
        params = model.ChainParams(0.7, 1.3)
        pins = {
            (0, 1.0): "0x1.854f1d0bb7616p-2",
            (1, 37.0): "-0x1.370287791a371p-6",
            (-3, 250.5): "0x1.46b482d80424dp-7",
            (4, 1e4): "0x1.03613a4d5240cp-12",
            (7, 3.3e6): "-0x1.022d850881e0ep-11",
        }
        for (k, t), value in pins.items():
            assert asym.fixed_k_asymptote(spectrum, params, k, t) == float.fromhex(value), (k, t)

    def test_requires_positive_time(self):
        for params in (PINNED, UNPINNED):
            with pytest.raises(ValueError):
                asym.fixed_k_asymptote(spike(), params, 0, 0.0)


class TestFixedKUnpinned:
    def test_plateau_value(self):
        spectrum = spike(q=0.0, p=1.0)
        half = model.ChainParams(0.0, 0.5)
        # P(0) = 1, plateau = 1/(2 * 0.5) = 1
        value = asym.fixed_k_asymptote(spectrum, half, 0, 1e6)
        assert value == pytest.approx(1.0, abs=1e-3)

    def test_zero_plateau_for_balanced_velocities(self):
        state = model.LatticeState(0, np.zeros(2), np.array([1.0, -1.0]))
        spectrum = model.forward_transform(state)
        v0 = asym.fixed_k_asymptote(spectrum, UNPINNED, 0, 1e8)
        assert abs(v0) < 1e-3

    def test_exact_approaches_plateau(self):
        spectrum = spike(q=0.0, p=1.0)
        half = model.ChainParams(0.0, 0.5)
        v = solver.solve_at(spectrum, half, 1e4, 0, solver.SolverConfig(tolerance=1e-11))
        assert abs(v - 1.0) <= 1e-2

    def test_residual_exponent_three_halves(self):
        spectrum = spike(q=0.0, p=1.0)
        half = model.ChainParams(0.0, 0.5)
        ts = np.geomspace(1e2, 1e4, 33)
        res = []
        for t in ts:
            exact = solver.solve_at(spectrum, half, float(t), 1, TIGHT)
            pred = asym.fixed_k_asymptote(spectrum, half, 1, float(t))
            res.append(exact - pred)
        fit = asym.envelope_decay_exponent(ts, res)
        assert 1.3 <= fit.exponent <= 1.7

    def test_matches_the_band_top_closed_form(self):
        # plateau + (-1)^k (Q(pi) cos w + P(pi) sin w / (2 omega1)) / sqrt(pi omega1 t),
        # w = 2 omega1 t - pi/4: the unpinned chain's own form of the train.
        # The two forms round apart by ~eps times the size of their terms,
        # so within 1e-15 where the terms are O(1)
        rng = np.random.default_rng(7)
        for _ in range(20):
            state = model.LatticeState(-2, rng.normal(size=5), rng.normal(size=5))
            spectrum = model.forward_transform(state)
            w1 = rng.uniform(0.1, 3.0)
            params = model.ChainParams(0.0, w1)
            q_top, p_top = spectrum.Q(math.pi).real, spectrum.P(math.pi).real
            plateau = spectrum.P(0.0).real / (2.0 * w1)
            for k in (0, 1, -4, 9):
                for t in (0.3, 37.0, 1e5):
                    w = 2.0 * w1 * t - math.pi / 4.0
                    train = q_top * math.cos(w) + p_top / (2.0 * w1) * math.sin(w)
                    amplitude = 1.0 / math.sqrt(math.pi * w1 * t)
                    expected = plateau + (-1.0) ** k * amplitude * train
                    size = abs(plateau) + amplitude * (abs(q_top) + abs(p_top) / (2.0 * w1))
                    got = asym.fixed_k_asymptote(spectrum, params, k, t)
                    assert got == pytest.approx(expected, rel=0.0, abs=1e-15 * max(1.0, size))

    def test_band_top_train_is_shared_with_the_pinned_chain(self):
        # half of v(0) - v(1) is the lam = pi train alone; at omega0 = 1e-12
        # omega0' rounds to 2 omega1, so both chains give the same train
        # up to the rounding of the pinned chain's large lam = 0 terms
        state = model.LatticeState(-1, np.array([0.3, -1.2, 0.7]), np.array([0.5, 0.0, -0.4]))
        spectrum = model.forward_transform(state)
        for w1 in (0.5, 1.0, 1.7):
            for t in (3.0, 41.5, 2e4):
                trains = []
                for w0 in (1e-12, 0.0):
                    params = model.ChainParams(w0, w1)
                    v0, v1 = (asym.fixed_k_asymptote(spectrum, params, k, t) for k in (0, 1))
                    trains.append((v0 - v1) / 2.0)
                assert trains[0] == pytest.approx(trains[1], rel=0.0, abs=1e-10)


class TestBesselTimeIntegral:
    def test_zero_time(self):
        assert asym.bessel_time_integral(0, 0.0, UNPINNED) == 0.0

    def test_matches_spectral_representation(self):
        # the lambda-route: (1/2pi) int sin(t omega)/omega e^{-ik lam} dlam
        half = model.ChainParams(0.0, 0.5)
        for k in (0, 1, 5):
            for t in (1.0, 10.0, 50.0):
                spectral = solver.solve_at(spike(q=0.0, p=1.0), half, t, k, TIGHT)
                timeside = asym.bessel_time_integral(k, t, half)
                assert timeside == pytest.approx(spectral, abs=1e-10)

    def test_limit_half_over_omega1(self):
        half = model.ChainParams(0.0, 0.5)
        assert asym.bessel_time_integral(0, 1e4, half) == pytest.approx(1.0, abs=1e-2)

    def test_requires_unpinned(self):
        with pytest.raises(ValueError):
            asym.bessel_time_integral(0, 1.0, PINNED)

    @pytest.mark.parametrize(
        "k, t, omega1",
        # criterion 11's grid
        [(k, t, 0.5) for k in (0, 1, 5) for t in (1.0, 10.0, 50.0)]
        # the benchmark's unit kicks, k - site with site in [-3, 3]
        + [(k, 384.0, 1.0) for k in (256, -256, -253, 259)]
        + [(k, 2400.0, 1.0) for k in (800, -800, 797, -803)],
    )
    def test_against_mpmath(self, k, t, omega1):
        # int_0^t J_2k(2 w1 s) ds = (1/2w1) int_0^x J_2k, x = 2 w1 t
        x = 2.0 * omega1 * t
        ref = running_integral_reference(abs(2 * k), x) / (2.0 * omega1)
        value = asym.bessel_time_integral(k, t, model.ChainParams(0.0, omega1))
        assert value == pytest.approx(ref, abs=1e-13)

    def test_deep_tail_is_finite(self):
        value = asym.bessel_time_integral(2000, 100.0, UNPINNED)
        assert math.isfinite(value) and 0.0 <= value <= 1e-300

    @pytest.mark.parametrize("k", [0, 5])
    def test_tiny_time(self, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = asym.bessel_time_integral(k, 1e-20, UNPINNED)
        ref = running_integral_reference(2 * k, 2e-20) / 2.0
        assert value == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_evaluates_no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("bessel_time_integral reached a quadrature route")

        for module in (quadrature, specfun, asym):
            for name in ("gauss_legendre_panels", "bessel_j"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert asym.bessel_time_integral(800, 2400.0, UNPINNED) == pytest.approx(
            running_integral_reference(1600, 4800.0) / 2.0, abs=1e-13
        )


class TestDecayFits:
    def test_pure_power_law(self):
        ks = np.array([8, 16, 32, 64, 128])
        vals = 3.0 * ks ** (-1.5)
        fit = asym.fit_decay_exponent(ks, vals)
        assert fit.exponent == pytest.approx(1.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_saturation_flag(self):
        fit = asym.fit_decay_exponent([8, 16, 32], [1e-16, 1e-15, 1e-16])
        assert fit.saturated and math.isinf(fit.exponent)
        # values at the floor are not above it, so none is kept
        floor = asym.NOISE_FLOOR
        fit = asym.fit_decay_exponent([8, 16, 32], [floor, -floor, floor])
        assert fit.saturated and math.isinf(fit.exponent)

    def test_envelope_ignores_zero_crossings(self):
        ks = np.geomspace(8, 256, 64)
        vals = ks ** (-1.5) * np.cos(2.3 * ks)
        fit = asym.envelope_decay_exponent(ks, vals)
        assert fit.exponent == pytest.approx(1.5, abs=0.15)

    def test_subsonic_ray_saturates(self):
        # beta = 0.5 with pinning: exact values collapse below the noise
        # floor well before k = 64
        spectrum = spike()
        for k in (64, 96):
            v = solver.solve_at(spectrum, PINNED, 0.5 * k, k, TIGHT)
            assert abs(v) <= 1e-8

    @staticmethod
    def _spatial_exponent(ks):
        values = [solver.solve_at(spike(), UNPINNED, 1.0, k, TIGHT) for k in ks]
        return asym.fit_decay_exponent(ks, values).exponent

    def test_fixed_time_superpolynomial_decay(self):
        # trig data at fixed t decays faster than any power: the fitted
        # exponent grows as the window moves out
        inner = self._spatial_exponent([2, 3, 4])
        outer = self._spatial_exponent([5, 6, 7])
        assert outer > inner > 0.0

    def test_spatial_exponent_saturated_window(self):
        assert math.isinf(self._spatial_exponent([40, 60, 80]))

    @pytest.mark.parametrize("xs", [[0, 1, 2], [-1, 1, 2], [1.0, math.nan, 2.0]])
    def test_refuses_non_positive_x(self, xs, capfd):
        with pytest.raises(ValueError, match="x > 0"):
            asym.fit_decay_exponent(xs, [1.0, 0.5, 0.25])
        assert capfd.readouterr().err == ""

    def test_critical_ray_cube_root_scaling(self):
        # degenerate stationary point: envelope of |q_k(beta k)| matches
        # k^(-1/3) Airy scaling (clean to see on octave maxima)
        spectrum = spike()
        peaks = []
        for base in (16, 32, 64):
            worst = 0.0
            for k in range(base, 2 * base, max(1, base // 8)):
                v = solver.solve_at(spectrum, PINNED, GOLDEN * k, k, TIGHT)
                worst = max(worst, abs(v) * k ** (1.0 / 3.0))
            peaks.append(worst)
        assert max(peaks) / min(peaks) < 1.35


def package_imports(path: Path) -> set[str]:
    """The chainwave modules a source file imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("chainwave." if node.level else "") + (node.module or "")
            if module.rstrip(".") == "chainwave":  # from . import name
                dotted = [f"chainwave.{alias.name}" for alias in node.names]
            else:
                dotted = [module]
        else:
            continue
        found.update(name.split(".")[1] for name in dotted if name.startswith("chainwave."))
    return found


def test_package_import_layers():
    # the predictions stay independent of the solver they are checked
    # against, and the solver of the writer that formats its grids
    table = {
        "asymptotics": {"model", "specfun"},
        "solver": {"model", "quadrature", "specfun"},
        "reports": {"model"},
    }
    package = Path(asym.__file__).parent
    for module, allowed in table.items():
        assert package_imports(package / f"{module}.py") == allowed, module
