"""Chain model: parameters, dispersion, transforms, energy."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from chainwave import bounds, model


def random_state(rng, n=11, support_min=-5):
    return model.LatticeState(
        support_min=support_min,
        q=rng.uniform(-1.0, 1.0, n),
        p=rng.uniform(-1.0, 1.0, n),
    )


class TestChainParams:
    def test_omega0_prime(self):
        p = model.ChainParams(omega0=3.0, omega1=2.0)
        assert p.omega0_prime == pytest.approx(5.0)

    def test_omega0_prime_lower_bound(self):
        p = model.ChainParams(omega0=0.0, omega1=1.3)
        assert p.omega0_prime == pytest.approx(2.0 * p.omega1)
        pinned = model.ChainParams(omega0=0.7, omega1=1.3)
        assert pinned.omega0_prime > 2.0 * pinned.omega1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(omega0=0.0, omega1=0.0),
            dict(omega0=-1.0, omega1=1.0),
            dict(omega0=0.0, omega1=-1.0),
            dict(omega0=math.nan, omega1=1.0),
            dict(omega0=0.0, omega1=math.inf),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            model.ChainParams(**kwargs)

    @pytest.mark.parametrize("bad", [True, np.bool_(False), "1.0"])
    def test_bools_and_strings_rejected(self, bad):
        # a bool is an int to Python, and would be stored as omega0=True
        with pytest.raises(ValueError, match="omega0 must be a real number"):
            model.ChainParams(bad, 1.0)
        with pytest.raises(ValueError, match="omega1 must be a real number"):
            model.ChainParams(0.0, bad)

    def test_numpy_scalars_accepted(self):
        p = model.ChainParams(np.float64(0.5), np.int64(1))
        assert p.omega0_prime == pytest.approx(math.hypot(0.5, 2.0))


class TestDispersion:
    def test_unpinned_band_top(self):
        assert model.dispersion(model.ChainParams(0.0, 1.0), math.pi) == pytest.approx(2.0)

    def test_pinned_band_edges(self):
        p = model.ChainParams(3.0, 2.0)
        assert model.dispersion(p, 0.0) == pytest.approx(3.0)
        assert model.dispersion(p, math.pi) == pytest.approx(5.0)

    def test_even_periodic_monotone(self):
        p = model.ChainParams(0.7, 1.1)
        lam = np.linspace(0.0, math.pi, 1000)
        w = model.dispersion(p, lam)
        assert np.all(np.diff(w) > 0.0)
        assert np.all(w >= p.omega0 - 1e-15)
        assert w[-1] == pytest.approx(p.omega0_prime)
        sample = np.linspace(-7.0, 7.0, 173)
        assert model.dispersion(p, -sample) == pytest.approx(
            model.dispersion(p, sample)
        )
        assert model.dispersion(p, sample + 2.0 * math.pi) == pytest.approx(
            model.dispersion(p, sample)
        )


class TestTransforms:
    def test_zero_state(self):
        spectrum = model.forward_transform(model.LatticeState.single_site(0))
        lam = np.linspace(0.0, 2.0 * math.pi, 17)
        assert np.allclose(spectrum.Q(lam), 0.0)
        assert np.allclose(spectrum.P(lam), 0.0)

    def test_delta_at_origin(self):
        spectrum = model.forward_transform(model.LatticeState.single_site(0, q=1.0))
        lam = np.linspace(0.0, 2.0 * math.pi, 17)
        assert np.allclose(spectrum.Q(lam), 1.0)

    def test_delta_at_one(self):
        spectrum = model.forward_transform(model.LatticeState.single_site(1, q=1.0))
        assert spectrum.Q(math.pi) == pytest.approx(-1.0)

    def test_parseval(self):
        rng = np.random.default_rng(3)
        state = random_state(rng)
        spectrum = model.forward_transform(state)
        n = 1 << 10
        lam = 2.0 * math.pi * np.arange(n) / n
        mean_sq = np.mean(np.abs(spectrum.Q(lam)) ** 2)
        assert mean_sq == pytest.approx(state.q_norm() ** 2, rel=1e-12)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(4)
        spectrum = model.forward_transform(random_state(rng))
        lam = np.linspace(0.1, 3.0, 23)
        assert np.allclose(spectrum.Q(-lam), np.conj(spectrum.Q(lam)))
        assert np.allclose(spectrum.P(-lam), np.conj(spectrum.P(lam)))

    def test_periodicity(self):
        rng = np.random.default_rng(40)
        spectrum = model.forward_transform(random_state(rng))
        lam = np.linspace(0.0, 2.0 * math.pi, 29)
        assert np.allclose(spectrum.Q(lam + 2.0 * math.pi), spectrum.Q(lam), atol=1e-12)
        assert np.allclose(spectrum.P(lam + 2.0 * math.pi), spectrum.P(lam), atol=1e-12)

    def test_inverse_of_constant(self):
        state = model.LatticeState.single_site(0, q=1.0)
        spectrum = model.forward_transform(state)
        assert model.inverse_transform(spectrum, 0)[0] == pytest.approx(1.0, abs=1e-13)
        assert model.inverse_transform(spectrum, 5)[0] == pytest.approx(0.0, abs=1e-13)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        state = random_state(rng)
        spectrum = model.forward_transform(state)
        for k in range(state.support_min - 2, state.support_max + 3):
            q_k, p_k = model.inverse_transform(spectrum, k)
            assert q_k == pytest.approx(state.q_at(k), abs=1e-12)
            assert p_k == pytest.approx(state.p_at(k), abs=1e-12)

    def test_pair_without_route_rejected(self):
        # a pair takes exactly one kind: trig coefficients or a power sum
        for fields in ({}, {"support_min": 0, "q_coeffs": np.ones(1)}):
            with pytest.raises(ValueError, match="exactly one of"):
                model.SpectralPair(**fields)

    @pytest.mark.parametrize(
        "q, p, match",
        [
            (np.array([1.0 + 0.5j]), np.ones(1), "q_coeffs entries must be real"),
            (np.ones(2), np.array([1.0, 0j]), "p_coeffs entries must be real"),
            (np.array([1.0, math.nan]), np.ones(2), "q_coeffs must be finite"),
            (np.ones(2), np.array([math.inf, 0.0]), "p_coeffs must be finite"),
            ([[1.0, 2.0], [3.0]], [1.0, 2.0], "q_coeffs entries must be real"),
            (np.ones(3), np.ones(2), "equal, nonzero length"),
            (np.ones((2, 2)), np.ones((2, 2)), "1-d arrays"),
            (np.ones(0), np.ones(0), "equal, nonzero length"),
        ],
    )
    def test_trig_coefficients_must_be_real_finite_1d(self, q, p, match):
        # the trig route takes real FFTs of the coefficients, so anything
        # else is refused here, not deep in a solve
        with pytest.raises(ValueError, match=match):
            model.SpectralPair(support_min=0, q_coeffs=q, p_coeffs=p)

    def test_trig_coefficients_are_frozen_floats(self):
        spectrum = model.SpectralPair(support_min=-1, q_coeffs=[1, 2], p_coeffs=np.array([0, 3]))
        for coeffs in (spectrum.q_coeffs, spectrum.p_coeffs):
            assert coeffs.dtype == float and not coeffs.flags.writeable

    @staticmethod
    def exact_coefficient(alpha, k):
        """c_k(alpha) of |sin(lam/2)|^(-alpha) in 30 digits."""
        h = mp.mpf(alpha) / 2
        return 2 ** (2 * h) * mp.gamma(1 - 2 * h) * mp.gamma(k + h) / (
            mp.gamma(h) * mp.gamma(1 - h) * mp.gamma(k + 1 - h)
        )

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
    def test_inverse_of_closed_form(self, alpha):
        # lattice coefficients of a |sin(lam/2)|^(-alpha), read to rounding
        spectrum = bounds.alpha_spectrum(alpha)
        a = mp.mpf(bounds.alpha_normalization(alpha))
        with mp.workdps(30):
            for k in (0, 1, 5, 40, 1000):
                exact = float(a * self.exact_coefficient(alpha, k))
                for site in (k, -k):
                    q_k, p_k = model.inverse_transform(spectrum, site)
                    assert q_k == 0.0
                    assert p_k == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_inverse_of_closed_form_refuses_far_sites(self):
        # the recurrence takes O(|k|) time and memory: past
        # MAX_COEFFICIENT_SITE it is refused before anything is allocated
        spectrum = bounds.epsilon_spectrum(0.3)
        tracemalloc.start()
        try:
            for k in (10**9, -(10**9), model.MAX_COEFFICIENT_SITE + 1):
                with pytest.raises(ValueError, match="coefficient index"):
                    model.inverse_transform(spectrum, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_inverse_of_epsilon_family(self):
        # 211 terms, down to alpha ~ 1e-100 and up to 1/2, all positive
        spectrum = bounds.epsilon_spectrum(0.3)
        ps = spectrum.power_sum
        with mp.workdps(30):
            for k in (0, 3, 200):
                exact = mp.fsum(
                    mp.mpf(w) * self.exact_coefficient(a, k) for a, w in zip(ps.alphas, ps.weights)
                )
                _, p_k = model.inverse_transform(spectrum, k)
                assert p_k == pytest.approx(float(exact), rel=1e-14, abs=0.0)

    def test_json_round_trip(self):
        rng = np.random.default_rng(7)
        state = random_state(rng)
        again = model.LatticeState.from_dict(state.to_dict())
        assert again.support_min == state.support_min
        assert np.array_equal(again.q, state.q)
        assert np.array_equal(again.p, state.p)


class TestEnergy:
    def test_zero_state(self):
        p = model.ChainParams(1.0, 1.0)
        assert model.energy(model.LatticeState.single_site(0), p) == 0.0

    def test_single_displacement_two_bonds(self):
        p = model.ChainParams(0.0, 1.0)
        st = model.LatticeState.single_site(0, q=1.0)
        assert model.energy(st, p) == pytest.approx(1.0)

    def test_single_velocity(self):
        p = model.ChainParams(0.0, 1.0)
        st = model.LatticeState.single_site(0, p=1.0)
        assert model.energy(st, p) == pytest.approx(0.5)

    def test_positive_definite_when_pinned(self):
        rng = np.random.default_rng(8)
        p = model.ChainParams(0.5, 1.0)
        st = random_state(rng)
        assert model.energy(st, p) > 0.0


class TestDisplacement:
    def test_zero(self):
        out = model.displacement_transform(model.LatticeState.single_site(0))
        assert np.allclose(out.q, 0.0)
        assert np.allclose(out.p, 0.0)

    def test_spike(self):
        st = model.LatticeState.single_site(0, q=1.0)
        out = model.displacement_transform(st)
        assert out.q_at(-1) == pytest.approx(1.0)
        assert out.q_at(0) == pytest.approx(-1.0)
        assert sum(abs(out.q_at(k)) > 0 for k in out.sites) == 2

    def test_velocity_sum_telescopes(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            st = random_state(rng, n=rng.integers(1, 15))
            out = model.displacement_transform(st)
            assert model.total_velocity_sum(out) == pytest.approx(0.0, abs=1e-12)


class TestVelocitySum:
    def test_single(self):
        assert model.total_velocity_sum(model.LatticeState.single_site(0, p=1.0)) == 1.0

    def test_cancellation(self):
        st = model.LatticeState(-3, np.zeros(7), np.array([-1.0, 0, 0, 0, 0, 0, 1.0]))
        assert model.total_velocity_sum(st) == 0.0

    def test_random_sum(self):
        rng = np.random.default_rng(10)
        st = random_state(rng, n=7)
        assert model.total_velocity_sum(st) == pytest.approx(float(np.sum(st.p)))


class TestImmutability:
    def test_arrays_frozen(self):
        st = model.LatticeState.single_site(0, q=1.0)
        with pytest.raises(ValueError):
            st.q[0] = 2.0

    @pytest.mark.parametrize("bad", [True, np.bool_(True), "1.0"])
    def test_bool_and_string_entries_rejected(self, bad):
        # np.asarray([1, True]) is an int64 array, so each entry is checked
        data = {"support_min": 0, "q": [1.0, bad], "p": [0, 0]}
        with pytest.raises(ValueError, match="q entries must be real numbers"):
            model.LatticeState.from_dict(data)
        with pytest.raises(ValueError, match="p entries must be real numbers"):
            model.LatticeState(0, [0.0, 1], np.array([bad, 0], dtype=object))
        with pytest.raises(ValueError, match="q entries must be real numbers"):
            model.LatticeState(0, np.array([True, False]), [0.0, 0.0])

    def test_numeric_entries_accepted(self):
        data = {"support_min": 0, "q": [1, np.float32(0.5)], "p": [0, 2]}
        st = model.LatticeState.from_dict(data)
        assert st.q.dtype == float and list(st.q) == [1.0, 0.5] and list(st.p) == [0.0, 2.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="q must be finite"):
            model.LatticeState(0, [1.0, bad], [0.0, 0.0])
        with pytest.raises(ValueError, match="p must be finite"):
            model.LatticeState(0, [1.0, 0.0], [bad, 0.0])


class TestPowerSum:
    def test_alpha_family_carries_its_power_sum(self):
        spectrum = bounds.alpha_spectrum(0.3)
        ps = spectrum.power_sum
        assert list(ps.alphas) == [0.3] and list(ps.weights) == [bounds.alpha_normalization(0.3)]

    def test_epsilon_power_sum_matches_p_values(self):
        spectrum = bounds.epsilon_spectrum(0.3)
        ps = spectrum.power_sum
        lam = np.array([1e-8, 0.01, 1.0, 3.0])
        direct = np.abs(np.sin(lam / 2.0))[:, None] ** -ps.alphas @ ps.weights
        assert np.allclose(spectrum.P(lam).real, direct, rtol=1e-12, atol=0.0)
        # the alpha nodes depend on the rule level alone
        assert np.array_equal(ps.alphas, bounds.epsilon_spectrum(0.2).power_sum.alphas)

    @pytest.mark.parametrize(
        "alphas, weights",
        [
            ([0.0], [1.0]),
            ([1.0], [1.0]),
            ([0.2, 0.3], [1.0]),
            ([], []),
            ([0.2], [math.nan]),
            ([0.2], [True]),
        ],
    )
    def test_invalid(self, alphas, weights):
        with pytest.raises(ValueError):
            model.PowerSum(alphas, weights)

    def test_equal_alphas_merge(self):
        ps = model.PowerSum([0.3, 0.1, 0.3, 0.3], [1.0, 2.0, 0.5, 0.25])
        assert list(ps.alphas) == [0.1, 0.3] and list(ps.weights) == [2.0, 1.75]
        lam = np.array([1e-6, 0.5, 3.0])
        s = np.abs(np.sin(lam / 2.0))
        assert np.allclose(ps.p_values(lam), 2.0 * s**-0.1 + 1.75 * s**-0.3, rtol=1e-15, atol=0.0)
        # the epsilon rule's 47 nodes at alpha = 1/2 become one term
        eps = bounds.epsilon_spectrum(0.3).power_sum
        assert len(eps.alphas) == 211 and np.count_nonzero(eps.alphas == 0.5) == 1

    def test_needs_a_closed_form(self):
        # a power sum is the whole closed form: no trig coefficient beside it
        state = model.LatticeState.single_site(0, p=1.0)
        ps = model.PowerSum([0.2], [1.0])
        for fields in (
            {"support_min": 0, "q_coeffs": state.q, "p_coeffs": state.p},
            {"p_coeffs": state.p},
        ):
            with pytest.raises(ValueError, match="exactly one of"):
                model.SpectralPair(**fields, power_sum=ps)
