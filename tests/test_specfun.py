"""Special-function checks against independent references (mpmath, scipy,
closed forms and frozen 30-digit values)."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from chainwave import specfun

mp.mp.dps = 30

#: tiny arguments, down to where one Miller step outgrows the fixed rescale
TINY_X = (1e-300, 1e-100, 1e-20, 1e-8)


def mp_besselj(n, x):
    """J_n(x) from mpmath; its hypergeometric route at n = 1000, x = 1e4
    cancels ~14,500 bits, past mpmath's default precision cap."""
    return float(mp.besselj(n, x, maxprec=20000))


class TestGamma:
    def test_half_integer(self):
        assert specfun.gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    @pytest.mark.parametrize("n,expected", [(1, 1.0), (2, 1.0), (5, 24.0), (10, 362880.0)])
    def test_factorials(self, n, expected):
        assert specfun.gamma_fn(float(n)) == pytest.approx(expected, rel=1e-14)

    def test_recurrence(self):
        x = 0.3
        assert specfun.gamma_fn(x + 1.0) == pytest.approx(
            x * specfun.gamma_fn(x), rel=1e-13
        )

    def test_reflection(self):
        x = 0.23
        lhs = specfun.gamma_fn(x) * specfun.gamma_fn(1.0 - x)
        assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-13)

    @pytest.mark.parametrize("x", [0.05, 0.37, 1.0, 2.71, 7.5, 21.0, 49.9])
    def test_against_mpmath(self, x):
        assert specfun.gamma_fn(x) == pytest.approx(float(mp.gamma(x)), rel=1e-13)

    def test_pole_raises(self):
        with pytest.raises(ValueError):
            specfun.gamma_fn(0.0)
        with pytest.raises(ValueError):
            specfun.gamma_fn(-3.0)

    @pytest.mark.parametrize("x", [0.1, 0.9, 3.3, 40.0])
    def test_log_gamma(self, x):
        assert specfun.log_gamma(x) == pytest.approx(float(mp.loggamma(x)), abs=1e-12)


class TestBesselJ:
    def test_j0_at_zero(self):
        assert specfun.bessel_j(0, 0.0) == 1.0
        assert specfun.bessel_j(3, 0.0) == 0.0

    def test_j0_of_two(self):
        # ascending series value, 30 digits: 0.223890779141235668051827454650
        assert specfun.bessel_j(0, 2.0) == pytest.approx(
            0.2238907791412357, abs=1e-14
        )

    def test_three_term_recurrence(self):
        n, x = 5, 7.0
        lhs = specfun.bessel_j(n - 1, x) + specfun.bessel_j(n + 1, x)
        rhs = 2.0 * n / x * specfun.bessel_j(n, x)
        assert abs(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 11, 40, 80, 200, 1000])
    @pytest.mark.parametrize("x", [0.3, 2.0, 9.7, 14.9, 15.1, 60.0, 1e3, 1e4])
    def test_lattice_against_mpmath(self, n, x):
        assert specfun.bessel_j(n, x) == pytest.approx(mp_besselj(n, x), abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 11, 40, 80, 200, 1000])
    @pytest.mark.parametrize("offset", [-0.01, 0.01])
    def test_lattice_beside_old_seam_against_mpmath(self, n, offset):
        # x = 1.2 n + 5 was where an upward-recurrence branch once took over
        x = 1.2 * n + 5.0 + offset
        assert specfun.bessel_j(n, x) == pytest.approx(mp_besselj(n, x), abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 3, 7, 12])
    @pytest.mark.parametrize("x", [0.5, 3.0, 8.0, 30.0])
    def test_integral_representation_lattice(self, n, x):
        assert abs(specfun.bessel_j(n, x) - specfun.bessel_j_integral(n, x)) <= 1e-10

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.0, 0.5, 3.0, 20.0, 200.0])
        vec = specfun.bessel_j(2, xs)
        assert vec == pytest.approx([specfun.bessel_j(2, float(x)) for x in xs])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.bessel_j(-1, 1.0)
        for x in (-1.0, math.inf, math.nan, np.array([1.0, math.inf])):
            with pytest.raises(ValueError):
                specfun.bessel_j(0, x)

    @pytest.mark.parametrize("n", [0, 1, 3, 10, 1000])
    @pytest.mark.parametrize("x", TINY_X)
    def test_tiny_arguments_against_mpmath(self, n, x):
        # one recurrence step grows by 2m/x, past what a fixed rescale absorbs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = specfun.bessel_j(n, x)
        with mp.workdps(40):
            assert value == pytest.approx(float(mp.besselj(n, x)), rel=1e-13, abs=0.0)

    def test_tiny_beside_large_argument(self):
        # each point runs its own recurrence from its own start order, so a
        # large x in the same call changes nothing for a tiny one
        xs = np.array([1e-8, 1e-20, 2.0, 1e3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vec = specfun.bessel_j(3, xs)
        assert vec == pytest.approx([specfun.bessel_j(3, float(x)) for x in xs], rel=1e-13)


def running_integral_reference(n, x):
    """int_0^x J_n = x^(n+1) / (2^n (n+1) n!) 1F2((n+1)/2; n+1, (n+3)/2; -x^2/4)."""
    with mp.workdps(40):
        x = mp.mpf(x)
        head = x ** (n + 1) / (2**n * (n + 1) * mp.factorial(n))
        half = mp.mpf(n + 1) / 2
        return float(head * mp.hyp1f2(half, n + 1, half + 1, -x * x / 4))


class TestBesselRunningIntegral:
    @pytest.mark.parametrize(
        "n, x",
        [(0, 0.3), (0, 1.0), (3, 2.5), (10, 10.0), (2, 50.0), (101, 30.0), (40, 400.0), (0, 1e4)],
    )
    def test_against_mpmath(self, n, x):
        assert specfun.bessel_j_running_integral(n, x) == pytest.approx(
            running_integral_reference(n, x), abs=1e-13
        )

    @pytest.mark.parametrize("n", [0, 1, 5, 10])
    @pytest.mark.parametrize("x", TINY_X)
    def test_tiny_arguments_against_mpmath(self, n, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = specfun.bessel_j_running_integral(n, x)
        assert value == pytest.approx(running_integral_reference(n, x), rel=1e-13, abs=0.0)

    def test_derivative_is_bessel_j(self):
        n, x, h = 4, 7.3, 1e-4
        slope = (
            specfun.bessel_j_running_integral(n, x + h) - specfun.bessel_j_running_integral(n, x - h)
        ) / (2.0 * h)
        assert slope == pytest.approx(specfun.bessel_j(n, x), abs=1e-8)

    def test_zero(self):
        assert specfun.bessel_j_running_integral(7, 0.0) == 0.0

    def test_domain_errors(self):
        for n, x in ((-1, 1.0), (0, -1.0), (0, math.inf), (0, math.nan)):
            with pytest.raises(ValueError):
                specfun.bessel_j_running_integral(n, x)


class TestLowerIncompleteGamma:
    def test_closed_form_s1(self):
        assert specfun.lower_incomplete_gamma(1.0, 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-13
        )

    def test_zero_argument(self):
        assert specfun.lower_incomplete_gamma(2.3, 0.0) == 0.0

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 12.0, 40)
        vals = [specfun.lower_incomplete_gamma(0.9, float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_saturates_to_gamma(self):
        ratio = specfun.lower_incomplete_gamma(0.9, 20.0) / specfun.gamma_fn(0.9)
        assert ratio >= 1.0 - 1e-7

    @pytest.mark.parametrize(
        "s,x", [(0.6, 0.4), (0.6, 6.9), (0.9, 3.45), (1.4, 10.0), (5.0, 2.0)]
    )
    def test_against_mpmath(self, s, x):
        ref = float(mp.gammainc(s, 0, x))
        assert specfun.lower_incomplete_gamma(s, x) == pytest.approx(ref, rel=1e-12)

    def test_complement_consistency(self):
        s, x = 1.3, 4.0
        lower = specfun.lower_incomplete_gamma(s, x)
        upper = float(mp.gammainc(s, x, mp.inf))
        assert lower + upper == pytest.approx(specfun.gamma_fn(s), rel=1e-12)


class TestBohmer:
    def test_half_is_fresnel(self):
        assert specfun.bohmer_sine_integral(0.5) == pytest.approx(
            math.sqrt(2.0 * math.pi), rel=1e-14
        )

    def test_finite_and_positive_near_one(self):
        # the u -> 0 endpoint stops being integrable at alpha = 1, so the
        # value grows like Gamma(1-alpha) there but stays finite before it
        values = [specfun.bohmer_sine_integral(a) for a in (0.9, 0.95, 0.99)]
        assert all(math.isfinite(v) and v > 0.0 for v in values)
        assert values[0] < values[1] < values[2]

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4, 0.7])
    def test_quadrature_cross_check(self, alpha):
        closed = specfun.bohmer_sine_integral(alpha)
        assert abs(closed - specfun.bohmer_quadrature(alpha)) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
    def test_against_mpmath(self, alpha):
        # singular head by tanh-sinh, oscillatory tail by quadosc
        f = lambda u: mp.sin(u) / u ** (1 + mp.mpf(alpha))
        ref = float(mp.quad(f, [0, 1]) + mp.quadosc(f, [1, mp.inf], period=2 * mp.pi))
        assert specfun.bohmer_sine_integral(alpha) == pytest.approx(ref, rel=1e-9)

    def test_range_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                specfun.bohmer_sine_integral(bad)


class TestDirichlet:
    def test_pi_half(self):
        assert specfun.dirichlet_constant_check() == pytest.approx(
            math.pi / 2.0, abs=1e-6
        )

    def test_integrand_limit_at_zero(self):
        # sin^2(x)/x^2 -> 1; the quadrature kernel must not blow up there
        x = np.array([1e-12, 1e-6, 1e-3])
        vals = (np.sin(x) / x) ** 2
        assert vals == pytest.approx(np.ones(3), abs=1e-6)

    def test_tail_bound(self):
        # contribution beyond R is at most 1/R
        full = specfun.dirichlet_constant_check(cutoff=1200.0)
        short = specfun.dirichlet_constant_check(cutoff=300.0)
        assert abs(full - short) <= 1.0 / 300.0
