"""Closed-form long-time and ray asymptotics of the chain, plus the
empirical decay-exponent fits used to verify them.  The module imports
no solver, so nothing it predicts comes from what it is checked against.

Three regimes are covered:

* fixed site, t -> infinity: a t^(-1/2) wave train at the band top
  omega0' = sqrt(omega0^2 + 4 omega1^2), and at the band bottom a second
  train at omega0 (pinned) or the plateau P(0)/(2 omega1) (unpinned);
* unpinned chain, unit kick: the Bessel time integral
  int_0^t J_{2k}(2 omega1 s) ds;
* rays t = beta |k|: classified by gamma(beta) = beta^2 omega1^2 - 1 -
  beta omega0 into supersonic (two stationary points, k^(-1/2) amplitude
  with explicit coefficients; unpinned, one point plus the plateau
  P(0)/(2 omega1)), critical and subsonic decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ChainParams, SpectralPair, dispersion, require_unpinned
from .specfun import bessel_j_running_integral

#: |gamma(beta)| below this counts as the critical ray
CRITICAL_TOL = 1e-12

#: residual tolerance for the stationary-phase equation h'(mu) = 0
PHASE_RESIDUAL_TOL = 1e-10


def ray_discriminant(beta: float, params: ChainParams) -> float:
    """gamma(beta) = beta^2 omega1^2 - 1 - beta omega0."""
    return beta * beta * params.omega1**2 - 1.0 - beta * params.omega0


def classify_ray(beta: float, params: ChainParams) -> str:
    """Trichotomy on gamma(beta): 'supersonic', 'critical' or 'subsonic'."""
    if beta <= 0.0:
        raise ValueError("classify_ray requires beta > 0")
    gamma = ray_discriminant(beta, params)
    if abs(gamma) <= CRITICAL_TOL:
        return "critical"
    return "supersonic" if gamma > 0.0 else "subsonic"


@dataclass(frozen=True)
class StationaryPoint:
    """One radiating critical point of the phase lam + beta omega(lam).

    mu lies in (-pi, 0) with cos mu = (1 + branch Delta)/(beta omega1)^2;
    omega = omega(mu); c is the k^(-1/2) amplitude; h = mu + beta omega(mu)
    is the phase value and h2 = h''(mu) = branch Delta/(beta omega(mu)),
    of the sign of branch.
    """

    branch: int
    mu: float
    omega: float
    c: float
    h: float
    h2: float

    def phase(self, k: int) -> float:
        """k h + branch pi/4 sign(k); odd in k."""
        return k * self.h + self.branch * math.pi / 4.0 * float(np.sign(k))


@dataclass(frozen=True)
class RayGeometry:
    """Stationary-phase data of a supersonic ray: the radiating points,
    plus branch first."""

    beta: float
    delta: float
    points: tuple[StationaryPoint, ...]


def _phase_derivative(lam: float, beta: float, params: ChainParams) -> float:
    om = dispersion(params, lam)
    return 1.0 + beta * params.omega1**2 * math.sin(lam) / om


def ray_geometry(beta: float, params: ChainParams) -> RayGeometry:
    """Critical points and amplitudes for a supersonic ray.

    Each point is ``mu = -2 asin(sqrt((1 - cos mu)/2))``, with ``1 - cos mu``
    formed without cancellation, so a small omega0 keeps the plus point's
    digits where ``acos`` of its cosine, within ~omega0^2 of 1, would not.
    At omega0 = 0 the plus point sits on the kink of omega at lam = 0
    (cos mu = 1, omega(mu) = 0) and is left out: only the minus point
    radiates, and the kink gives ``ray_asymptote``'s plateau.  A pinned
    chain keeps it however small omega0 is; ``ray_asymptote`` refuses the
    sites where it is too close to the kink.
    """
    if classify_ray(beta, params) != "supersonic":
        raise ValueError(f"ray beta={beta} is not supersonic for {params}")
    b2w2 = beta * beta * params.omega1**2
    delta = math.sqrt((b2w2 - 1.0) ** 2 - (beta * params.omega0) ** 2)
    points = []
    for branch in (+1, -1):
        if branch > 0 and not params.pinned:
            continue
        # gap = 1 - cos mu = (b2w2 - 1 - branch Delta)/b2w2; on the plus
        # branch (b2w2 - 1 - Delta)(b2w2 - 1 + Delta) = (beta omega0)^2
        # spares it the cancellation of a small omega0
        if branch > 0:
            gap = (beta * params.omega0) ** 2 / (b2w2 * (b2w2 - 1.0 + delta))
        else:
            gap = (b2w2 - 1.0 + delta) / b2w2
        mu = -2.0 * math.asin(math.sqrt(0.5 * gap))
        residual = _phase_derivative(mu, beta, params)
        if abs(residual) > PHASE_RESIDUAL_TOL:
            raise ArithmeticError(
                f"phase derivative residual {residual:.3e} at the branch {branch:+d} point"
            )
        om = dispersion(params, mu)
        c = 0.5 * math.sqrt(beta * om / (2.0 * math.pi * delta))
        h2 = branch * delta / (beta * om)
        points.append(StationaryPoint(branch, mu, om, c, mu + beta * om, h2))
    return RayGeometry(beta, delta, tuple(points))


def ray_asymptote(
    spectrum: SpectralPair, geo: RayGeometry, k: int, params: ChainParams
) -> float:
    """Leading term of q_k(beta |k|) on a supersonic ray.

    (1/sqrt|k|) sum_points 2 c (Re(Q(-s mu) e^{i w}) +
    Im(P(-s mu)/omega(mu) e^{i w})), w = phase(|k|), s = sign(k), plus
    the plateau P(0)/(2 omega1) of the lam = 0 kink on the unpinned chain.
    For k > 0 the e^{i w} wave is stationary at -mu, the critical point of
    lam - beta omega(lam); q_k for k < 0 is q_|k| of the reflected data
    Q(lam) -> Q(-lam), which swaps the two points.  The e^{-i w} wave at
    s mu is the conjugate of that at -s mu, since real coefficients give
    Q(s mu) = conj Q(-s mu) and likewise P, so each point is twice a real
    part and Q, P are evaluated once per point.

    A point's term holds only where its stationary window
    1/sqrt(|k h''(mu)|) is narrower than its distance |mu| to the kink of
    omega at lam = 0.  A pinned chain with a small omega0 has its plus
    point within ~omega0/omega1 of the kink, and there the kink's own
    Klein-Gordon term P(0)/(2 omega1) J0(|k| omega0 sqrt(beta^2 -
    1/omega1^2)) takes over: for a unit kick at omega0 = 1e-4, beta = 3
    the plus point's term gives 3.0 at k = 32 against an exact 0.52.  Such
    sites raise ValueError.
    """
    if k == 0:
        raise ValueError("ray_asymptote requires k != 0")
    s = 1.0 if k > 0 else -1.0
    total = 0.0
    for point in geo.points:
        if abs(k) * abs(point.h2) * point.mu**2 < 1.0:
            raise ValueError(
                f"|k| = {abs(k)} puts the branch {point.branch:+d} point's stationary "
                f"window over the lam = 0 kink; its term needs "
                f"|k| >= {1.0 / (abs(point.h2) * point.mu**2):.4g}"
            )
        w = point.phase(abs(k))
        rot = complex(math.cos(w), math.sin(w))
        q_wave = spectrum.Q(-s * point.mu) * rot
        p_wave = spectrum.P(-s * point.mu) / point.omega * rot
        total += 2.0 * point.c * (q_wave.real + p_wave.imag)
    value = total / math.sqrt(abs(k))
    if not params.pinned:
        value += spectrum.P(0.0).real / (2.0 * params.omega1)
    return value


def fixed_k_asymptote(
    spectrum: SpectralPair, params: ChainParams, k: int, t: float
) -> float:
    """Long-time asymptote of q_k(t) at a fixed site, pinned or not.

    The band top lam = pi radiates with phase t omega0' - pi/4 and parity
    (-1)^k; the band bottom lam = 0 with phase t omega0 + pi/4 when pinned,
    else it leaves the plateau P(0)/(2 omega1).  The internal names avoid
    the frequency symbols so the coupling constant cannot be shadowed.
    """
    if t <= 0.0:
        raise ValueError("requires t > 0")
    w0p = params.omega0_prime
    w1 = params.omega1
    p_bottom = spectrum.P(0.0).real
    q_top = spectrum.Q(math.pi).real
    p_top = spectrum.P(math.pi).real
    c2 = math.sqrt(w0p / (2.0 * math.pi)) / w1 * q_top
    s2 = math.sqrt(w0p / (2.0 * math.pi)) / (w1 * w0p) * p_top
    phase_optical = t * w0p - math.pi / 4.0
    parity = -1.0 if k % 2 else 1.0
    top = parity * (c2 * math.cos(phase_optical) + s2 * math.sin(phase_optical))
    if not params.pinned:
        return p_bottom / (2.0 * w1) + top / math.sqrt(t)
    w0 = params.omega0
    q_bottom = spectrum.Q(0.0).real
    c1 = math.sqrt(w0 / (2.0 * math.pi)) / w1 * q_bottom
    s1 = math.sqrt(w0 / (2.0 * math.pi)) / (w1 * w0) * p_bottom
    phase_acoustic = t * w0 + math.pi / 4.0
    return (
        c1 * math.cos(phase_acoustic) + s1 * math.sin(phase_acoustic) + top
    ) / math.sqrt(t)


def bessel_time_integral(k: int, t: float, params: ChainParams) -> float:
    """I_k(t) = int_0^t J_{2k}(2 omega1 s) ds for the unpinned chain.

    Equals the spectral integral
    (1/2pi) int_0^{2pi} sin(t omega)/omega e^{-i k lam} dlam and converges
    to 1/(2 omega1) as t grows.  Computed without quadrature as
    (1/omega1) sum_{m>=0} J_{2|k|+2m+1}(2 omega1 t), see
    ``bessel_j_running_integral``.
    """
    require_unpinned(params, "bessel_time_integral")
    if t < 0.0:
        raise ValueError("requires t >= 0")
    rate = 2.0 * params.omega1
    return bessel_j_running_integral(abs(2 * k), rate * t) / rate


# --------------------------------------------------------------------------
# decay-exponent fits
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Least-squares decay exponent of |values| ~ x^(-exponent)."""

    exponent: float
    r_squared: float
    saturated: bool


NOISE_FLOOR = 1e-13
_SAMPLES_PER_BIN = 8


def fit_decay_exponent(xs, values) -> FitResult:
    """Log-log least squares; saturated when fewer than two |values| exceed the floor."""
    xs = np.asarray(xs, dtype=float)
    vals = np.abs(np.asarray(values, dtype=float))
    if len(xs) != len(vals) or len(xs) < 2:
        raise ValueError("need at least two samples")
    if not np.all(xs > 0.0):
        raise ValueError("a log-log fit needs every x > 0")
    keep = vals > NOISE_FLOOR
    lx = np.log(xs[keep])
    ly = np.log(vals[keep])
    if len(lx) < 2:
        return FitResult(exponent=math.inf, r_squared=1.0, saturated=True)
    design = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    fitted = design @ np.array([slope, intercept])
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return FitResult(exponent=-float(slope), r_squared=r2, saturated=False)


def envelope_decay_exponent(xs, values) -> FitResult:
    """Decay exponent of the binned envelope max |values|.

    Oscillatory residuals pass through zero, which wrecks pointwise
    log-log fits; the maximum over bins of consecutive samples tracks the
    envelope instead.  Samples are sorted by x and grouped into bins of
    eight.
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.abs(np.asarray(values, dtype=float))
    order = np.argsort(xs)
    xs, vals = xs[order], vals[order]
    centers = []
    peaks = []
    for start in range(0, len(xs), _SAMPLES_PER_BIN):
        chunk_x = xs[start : start + _SAMPLES_PER_BIN]
        chunk_v = vals[start : start + _SAMPLES_PER_BIN]
        if len(chunk_x) < _SAMPLES_PER_BIN // 2:
            break  # partial trailing bin underestimates the envelope
        centers.append(float(np.exp(np.mean(np.log(chunk_x)))))
        peaks.append(float(np.max(chunk_v)))
    if len(centers) < 2:
        raise ValueError("not enough samples for an envelope fit")
    return fit_decay_exponent(centers, peaks)
