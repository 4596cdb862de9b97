"""Self-contained special functions: Bessel J_n and its running integral
int_0^x J_n, gamma, lower incomplete gamma, and the generalized Fresnel
(Bohmer) sine integral.

Everything here is implemented in-repo with classical algorithms: Lanczos;
one downward Miller recurrence for J_n and int_0^x J_n = 2 sum_m
J_{n+2m+1}(x) together; series/continued-fraction incomplete gamma a la
Numerical Recipes ch. 6.  The tests check each function against mpmath or
closed forms, J_n also against ``bessel_j_integral`` and the Bohmer closed
form against ``bohmer_quadrature``.  The ``specfun-selftest`` CLI command
checks only ``gamma_fn``, that Bohmer pair and ``dirichlet_constant_check``.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import gauss_legendre_panels, periodic_mesh, tanh_sinh


# --------------------------------------------------------------------------
# gamma / log-gamma (Lanczos, g = 7, 9 coefficients; ~1e-15 relative)
# --------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos(x: float) -> tuple[float, float, float]:
    """(x - 1/2, t, A) with Gamma(x) = sqrt(2 pi) t^(x - 1/2) e^(-t) A, for x >= 1/2."""
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (z + i)
    return z + 0.5, z + _LANCZOS_G + 0.5, acc


def gamma_fn(x: float) -> float:
    """Gamma function for real ``x`` away from the poles at 0, -1, -2, ..."""
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma pole at nonpositive integer x={x}")
    if x < 0.5:
        # reflection keeps the Lanczos sum on its accurate half-line
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    power, t, acc = _lanczos(x)
    return math.sqrt(2.0 * math.pi) * t**power * math.exp(-t) * acc


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        return log_gamma(x + 1.0) - math.log(x)
    power, t, acc = _lanczos(x)
    return 0.5 * math.log(2.0 * math.pi) + power * math.log(t) - t + math.log(acc)


# --------------------------------------------------------------------------
# Bessel J_n for integer n >= 0, x >= 0
# --------------------------------------------------------------------------

def _ascending_jn(n: int, x: float) -> float:
    """J_n by the ascending series (x/2)^n / n! sum_k (-x^2/4)^k / (k! (n+1)_k)
    for tiny x, where it is one or two terms.

    The leading term is built as a product, so it underflows to 0 where
    (x/2)^n / n! is below the float range instead of overflowing n!.
    """
    half = 0.5 * x
    term = 1.0
    for i in range(1, n + 1):
        term *= half / i
        if term == 0.0:
            return term
    total = term
    for k in range(1, 10):
        term = term * (-half * half) / (k * (n + k))
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return total


def _miller(n: int, x: float) -> tuple[float, float]:
    """(J_n(x), int_0^x J_n) for integer n >= 0 and finite x > 0 by one
    downward Miller recurrence at x, normalized by the sum rule J_0 + 2 sum_m
    J_{2m} = 1; the integral is 2 sum_{m>=0} J_{n+2m+1}(x) (Abramowitz &
    Stegun 11.1.1; DLMF 10.22(i)).  The start order has x under the square
    root, so the orders it drops are negligible for x >> n too.  Tiny x, where
    the fixed rescale cannot keep up, takes the ascending series; the integral
    there keeps J_{n+1} and J_{n+3}, and the next term is (x/2)^4 smaller.
    """
    top = max(n, int(x))
    m_start = top + int(math.sqrt(40.0 * max(top, 2))) + 20
    m_start += m_start % 2  # even start keeps the normalization sum aligned
    # a step multiplies j by up to 2 m_start / x, which the fixed 1e-10
    # rescale keeps up with only while that is below 1e10
    if x < 2e-10 * m_start:
        return _ascending_jn(n, x), 2.0 * (_ascending_jn(n + 3, x) + _ascending_jn(n + 1, x))
    jp, j = 0.0, 1e-30
    norm = odd = 0.0
    # orders above n feed both sums; after each step j holds J_{m-1}
    for m in range(m_start, n + 1, -1):
        jp, j = j, 2.0 * m / x * j - jp
        if abs(j) > 1e10:
            j, jp, norm, odd = j * 1e-10, jp * 1e-10, norm * 1e-10, odd * 1e-10
        if m % 2 == 1:  # J_{m-1} has even index
            norm += j
        if (m - n) % 2 == 0:  # m - 1 is one of n+1, n+3, ...
            odd += j
    # orders n down to 0 feed the normalization; J_n is the first of them,
    # taken before its step's rescale so that every rescale applies to it
    jn = 2.0 * (n + 1) / x * j - jp
    for m in range(n + 1, 0, -1):
        jp, j = j, 2.0 * m / x * j - jp
        if abs(j) > 1e10:
            j, jp, norm, odd, jn = j * 1e-10, jp * 1e-10, norm * 1e-10, odd * 1e-10, jn * 1e-10
        if m % 2 == 1:
            norm += j
    scale = 2.0 * norm - j
    return jn / scale, 2.0 * odd / scale


def bessel_j(n: int, x: float | np.ndarray) -> float | np.ndarray:
    """Bessel function of the first kind J_n(x) for integer n >= 0 and
    finite x >= 0, by one Miller recurrence per point (``_miller``), so a
    point costs O(max(n, x)) steps.  Absolute error below 1e-12 for x <= 1e4.
    """
    if n < 0:
        raise ValueError("bessel_j requires n >= 0")
    xa = np.asarray(x, dtype=float)
    if not np.all((xa >= 0.0) & (xa < math.inf)):
        raise ValueError("bessel_j requires finite x >= 0")
    out = [_miller(n, xi)[0] if xi > 0.0 else float(n == 0) for xi in xa.ravel().tolist()]
    return out[0] if np.isscalar(x) else np.array(out).reshape(xa.shape)


def bessel_j_running_integral(n: int, x: float) -> float:
    """int_0^x J_n(u) du for integer n >= 0 and finite x >= 0, from the
    closed form 2 sum_{m>=0} J_{n+2m+1}(x) by ``_miller``; no quadrature."""
    if n < 0:
        raise ValueError("bessel_j_running_integral requires n >= 0")
    if not 0.0 <= x < math.inf:
        raise ValueError("bessel_j_running_integral requires finite x >= 0")
    return _miller(n, x)[1] if x > 0.0 else 0.0


def bessel_j_integral(n: int, x: float) -> float:
    """J_n(x) by its integral representation (1/pi) int_0^pi cos(n t - x sin t) dt.

    Independent of the recurrence route; the integrand extends to a smooth
    2pi-periodic function, so the uniform trapezoid rule is spectrally
    accurate once the mesh resolves n + x oscillations.
    """
    n_mesh = 1 << max(8, int(math.ceil(math.log2(8.0 * (n + abs(x) + 16.0)))))
    theta = periodic_mesh(n_mesh)
    return float(np.mean(np.cos(n * theta - x * np.sin(theta))))



# --------------------------------------------------------------------------
# lower incomplete gamma
# --------------------------------------------------------------------------

_IGAM_EPS = 1e-16
_IGAM_ITMAX = 600


def _igam_series(s: float, x: float) -> float:
    """Regularized P(s, x) by the ascending series; for x < s + 1."""
    if x == 0.0:
        return 0.0
    ap = s
    delta = 1.0 / s
    total = delta
    for _ in range(_IGAM_ITMAX):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * _IGAM_EPS:
            break
    return total * math.exp(-x + s * math.log(x) - log_gamma(s))


def _igam_cf(s: float, x: float) -> float:
    """Regularized Q(s, x) by the Lentz continued fraction; for x >= s + 1."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _IGAM_ITMAX):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < _IGAM_EPS:
            break
    return math.exp(-x + s * math.log(x) - log_gamma(s)) * h


def lower_incomplete_gamma(s: float, x: float) -> float:
    """gamma(s, x) = int_0^x e^(-y) y^(s-1) dy for s > 0, x >= 0.

    Series branch below x = s + 1, continued fraction (via the upper-tail
    complement) above; relative error ~1e-13 throughout.
    """
    if s <= 0.0:
        raise ValueError("lower_incomplete_gamma requires s > 0")
    if x < 0.0:
        raise ValueError("lower_incomplete_gamma requires x >= 0")
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        p = _igam_series(s, x)
    else:
        p = 1.0 - _igam_cf(s, x)
    return p * gamma_fn(s)


# --------------------------------------------------------------------------
# Bohmer (generalized Fresnel) sine integral
# --------------------------------------------------------------------------


def bohmer_sine_integral(alpha: float) -> float:
    """int_0^inf sin(u) / u^(alpha+1) du = Gamma(1-alpha) sin(pi alpha / 2) / alpha.

    Closed form from the Mellin pair int_0^inf u^(s-1) sin u du
    = Gamma(s) sin(pi s / 2) continued to s = -alpha (Gradshteyn-Ryzhik
    3.712, after one integration by parts).  Valid for 0 < alpha < 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("bohmer_sine_integral requires 0 < alpha < 1")
    return gamma_fn(1.0 - alpha) * math.sin(math.pi * alpha / 2.0) / alpha


def bohmer_quadrature(alpha: float) -> float:
    """The same integral by truncated oscillatory quadrature.

    [0, 1] is done with tanh-sinh (u^(-alpha) endpoint), [1, cutoff] with
    composite Gauss-Legendre panels, and the tail with the two-term
    integration-by-parts expansion, whose remainder is below
    (1+alpha)(2+alpha) / cutoff^(2+alpha), cutoff = 4000.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("bohmer_quadrature requires 0 < alpha < 1")
    cutoff = 4000.0
    f = lambda u: np.sin(u) * u ** (-1.0 - alpha)
    head = tanh_sinh(f, 0.0, 1.0, tolerance=1e-12)
    n_panels = int(cutoff / math.pi * 2) + 8
    body = gauss_legendre_panels(f, 1.0, cutoff, n_panels)
    t1 = math.cos(cutoff) / cutoff ** (1.0 + alpha)
    t2 = (1.0 + alpha) * math.sin(cutoff) / cutoff ** (2.0 + alpha)
    return head + body + t1 + t2


def dirichlet_constant_check(cutoff: float = 1200.0) -> float:
    """Quadrature estimate of int_0^inf sin^2(x)/x^2 dx (exact value pi/2).

    Used once to validate the oscillatory-quadrature kernel: composite
    Gauss-Legendre on [0, cutoff] plus the integrated-by-parts tail
    1/(2R) + sin(2R)/(4R^2) - cos(2R)/(4R^3) + O(R^-4).
    """
    def f(x: np.ndarray) -> np.ndarray:
        out = np.ones_like(x)
        nz = x != 0.0
        out[nz] = (np.sin(x[nz]) / x[nz]) ** 2
        return out

    n_panels = int(cutoff / math.pi * 2) + 8
    body = gauss_legendre_panels(f, 0.0, cutoff, n_panels)
    r = cutoff
    tail = 1.0 / (2.0 * r) + math.sin(2.0 * r) / (4.0 * r * r) \
        - math.cos(2.0 * r) / (4.0 * r**3)
    return body + tail
