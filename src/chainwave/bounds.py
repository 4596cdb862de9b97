"""Max-norm bounds and the slow-growth construction.

Pinned chains (omega0 > 0) obey the energy bound sup|q_k| <= sqrt(2H)/omega0.
Unpinned chains obey the square-root bound
M(t) <= (2/sqrt(omega1)) ||p(0)|| sqrt(t) + ||q(0)|| and, for summable
velocity data, a logarithmic bound whose slope is
(sqrt(2)/(omega1 pi)) |sum p_k(0)|.

The alpha family realises power growth t^alpha from velocity spectra
P(lam) = a_alpha |sin(lam/2)|^(-alpha); averaging it over alpha with the
weight w_eps produces sqrt(t)/log^delta(t) growth with explicit constant
Gamma(delta)/sqrt(2 omega1), delta = eps + 1/2.  Both families are closed
forms, ``PowerSum``s whose lattice coefficients the solver reads exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ChainParams, LatticeState, PowerSum, SpectralPair, require_unpinned
from .quadrature import tanh_sinh, tanh_sinh_pairs
from .specfun import gamma_fn, lower_incomplete_gamma


# --------------------------------------------------------------------------
# bounds of the three regimes
# --------------------------------------------------------------------------


def energy_sup_bound(params: ChainParams, total_energy: float) -> float:
    """sqrt(2 H) / omega0 -- uniform-in-time bound on sup_k |q_k(t)|."""
    if params.omega0 <= 0.0:
        raise ValueError("energy_sup_bound requires pinning (omega0 > 0)")
    if total_energy < 0.0:
        raise ValueError("energy must be nonnegative")
    return math.sqrt(2.0 * total_energy) / params.omega0


def sqrt_growth_bound(
    t: float, q_norm: float, p_norm: float, params: ChainParams
) -> float:
    """(2/sqrt(omega1)) ||p(0)|| sqrt(t) + ||q(0)|| for the unpinned chain."""
    require_unpinned(params, "sqrt_growth_bound")
    if t < 0.0:
        raise ValueError("sqrt_growth_bound requires t >= 0")
    return 2.0 / math.sqrt(params.omega1) * p_norm * math.sqrt(t) + q_norm


def log_growth_bound(t: float, state: LatticeState, params: ChainParams) -> float:
    """Slope part (sqrt(2)/(omega1 pi)) |sum p_k(0)| ln t + ||q(0)||.

    The true bound adds an unspecified data-dependent constant, so callers
    test boundedness of M(t) minus this slope part rather than a literal
    inequality.
    """
    require_unpinned(params, "log_growth_bound")
    if t < 1.0:
        raise ValueError("log_growth_bound requires t >= 1")
    total_p = abs(float(np.sum(state.p)))
    return (
        math.sqrt(2.0) / (params.omega1 * math.pi) * total_p * math.log(t)
        + state.q_norm()
    )


# --------------------------------------------------------------------------
# the alpha growth family
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthFamily:
    """Singularity exponent with its normalization and leading amplitude."""

    alpha: float
    a_alpha: float
    phi_alpha: float


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")


def alpha_normalization(alpha: float) -> float:
    """a_alpha = sqrt(Gamma(1-alpha) / (2 sqrt(pi) Gamma(1/2-alpha))).

    Normalizes the velocity spectrum a_alpha |sin(lam/2)|^(-alpha) to unit
    L2 norm on [0, 2pi]; the closed form comes from the beta integral
    int_0^{2pi} |sin(lam/2)|^(-2 alpha) dlam = 2 B((1-2 alpha)/2, 1/2).
    """
    _check_alpha(alpha)
    return math.sqrt(
        gamma_fn(1.0 - alpha) / (2.0 * math.sqrt(math.pi) * gamma_fn(0.5 - alpha))
    )


def alpha_leading_amplitude(alpha: float) -> float:
    """phi(alpha) = 2 a_alpha Gamma(1-alpha) sin(pi alpha/2) / (pi alpha).

    Leading coefficient of q_0(t) = phi(alpha) t^alpha + O(1) for the
    alpha-family data at omega1 = 1/2; the transcendental factor is the
    Bohmer integral int_0^inf sin(u)/u^(1+alpha) du
    = Gamma(1-alpha) sin(pi alpha/2)/alpha.
    """
    _check_alpha(alpha)
    return (
        2.0
        * alpha_normalization(alpha)
        * gamma_fn(1.0 - alpha)
        * math.sin(math.pi * alpha / 2.0)
        / (math.pi * alpha)
    )


def growth_family(alpha: float) -> GrowthFamily:
    return GrowthFamily(
        alpha=alpha,
        a_alpha=alpha_normalization(alpha),
        phi_alpha=alpha_leading_amplitude(alpha),
    )


def alpha_spectrum(alpha: float) -> SpectralPair:
    """Q = 0, P(lam) = a_alpha |sin(lam/2)|^(-alpha); unit L2 norm.

    A closed form: its one-term power sum.
    """
    _check_alpha(alpha)
    return SpectralPair(power_sum=PowerSum([alpha], [alpha_normalization(alpha)]))


# --------------------------------------------------------------------------
# the epsilon-averaged spectrum and its growth law
# --------------------------------------------------------------------------


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")


def amplitude_ratio(alpha: float) -> float:
    """a_alpha / phi(alpha) = pi alpha / (2 Gamma(1-alpha) sin(pi alpha/2)).

    Both factors vanish like sqrt(1/2 - alpha) at the right endpoint, so
    this ratio is the numerically stable way to evaluate w_eps * a_alpha;
    it extends continuously to both endpoints (value 1 at alpha = 0).
    """
    if not 0.0 <= alpha <= 0.5:
        raise ValueError(f"alpha must lie in [0, 1/2], got {alpha}")
    if alpha == 0.0:
        return 1.0
    return math.pi * alpha / (2.0 * gamma_fn(1.0 - alpha) * math.sin(math.pi * alpha / 2.0))


def _a_alpha_from_gap(gap: float) -> float:
    """a_alpha expressed through the gap v = 1/2 - alpha.

    Writing Gamma(1/2 - alpha) = Gamma(v) keeps full precision for gaps
    far below machine epsilon, where alpha itself rounds to 1/2.
    """
    if gap <= 0.0:
        raise ValueError("gap must be positive")
    return math.sqrt(
        gamma_fn(0.5 + gap) / (2.0 * math.sqrt(math.pi) * gamma_fn(gap))
    )


def epsilon_weight(alpha: float, epsilon: float) -> float:
    """w_eps(alpha) = 1 / (phi(alpha) (1/2 - alpha)^(1/2 - eps))."""
    _check_alpha(alpha)
    _check_epsilon(epsilon)
    return 1.0 / (
        alpha_leading_amplitude(alpha) * (0.5 - alpha) ** (0.5 - epsilon)
    )


def weight_integral(epsilon: float, tolerance: float = 1e-10) -> float:
    """int_0^{1/2} w_eps(alpha) d alpha, finite by the (1/2-alpha)^(eps-1) tail."""
    _check_epsilon(epsilon)

    def integrand(v: np.ndarray) -> np.ndarray:
        # v = 1/2 - alpha; w_eps = [a/phi](alpha) / (a_alpha v^{1/2-eps})
        out = np.empty_like(v)
        for i, vi in enumerate(v):
            out[i] = amplitude_ratio(0.5 - vi) / (
                _a_alpha_from_gap(vi) * vi ** (0.5 - epsilon)
            )
        return out

    return tanh_sinh(integrand, 0.0, 0.5, tolerance=tolerance)


@dataclass(frozen=True)
class EpsilonSpectrum(PowerSum):
    """Quadrature discretization of the alpha average defining P-tilde.

    ``alphas``/``weights`` form a double-exponential rule on (0, 1/2),
    graded into the alpha = 1/2 endpoint where w_eps blows up like
    (1/2 - alpha)^(eps-1); ``weights`` already contain w_eps * a_alpha.
    P-tilde(lam) = sum_i weights_i |sin(lam/2)|^(-alpha_i) is the power sum.
    """

    epsilon: float


def _epsilon_rule(epsilon: float, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Double-exponential nodes and weights for
    int_0^{1/2} w_eps(alpha) a_alpha (...) d alpha, as ``(alphas, weights)``.

    Node gaps v = 1/2 - alpha near the singular endpoint are kept exactly
    (they reach ~1e-100, far below machine epsilon relative to alpha), so
    the v^(eps - 1/2) weight factor never loses precision.
    """
    _check_epsilon(epsilon)
    d, w = tanh_sinh_pairs(level)
    half_d = 0.5 * d[1:]
    # v = 1/2 - alpha on (0, 1/2); each side keeps its small quantity exact:
    # near alpha = 1/2 the gap v is half_d itself, near alpha = 0 it is alpha
    gaps = np.concatenate([[0.25], half_d, 0.5 - half_d])
    alphas = np.concatenate([[0.25], 0.5 - half_d, half_d])
    base_w = 0.5 * np.concatenate([[w[0]], w[1:], w[1:]])
    # alpha rounds to exactly 1/2 in the deepest nodes of the singular
    # side; amplitude_ratio extends continuously there
    ratio = np.array([amplitude_ratio(a) for a in alphas])
    return alphas, base_w * ratio * gaps ** (epsilon - 0.5)


def build_epsilon_mesh(epsilon: float, level: int = 7) -> EpsilonSpectrum:
    """The ``EpsilonSpectrum`` of the level-``level`` alpha rule."""
    alphas, weights = _epsilon_rule(epsilon, level)
    return EpsilonSpectrum(epsilon=epsilon, alphas=alphas, weights=weights)


def epsilon_spectrum(epsilon: float) -> SpectralPair:
    """Q = 0 and the alpha-averaged P-tilde as a closed form: the power sum
    of its alpha mesh, whose 47 nodes at alpha = 1/2 merge into one term.

    The alpha mesh has level 7; its nodes depend on the level alone, so
    every epsilon shares one alpha set.  Raises if refining it by one level still
    moves the value at lam = pi by more than 1e-9; there every
    |sin(lam/2)|^(-alpha) factor is 1, so P-tilde(pi) is the sum of the
    weights.
    """
    mesh = build_epsilon_mesh(epsilon, 7)
    _, finer = _epsilon_rule(epsilon, 8)
    if abs(mesh.weights.sum() - finer.sum()) > 1e-9:
        raise ValueError(f"alpha mesh at level 7 not converged for epsilon={epsilon}")
    return SpectralPair(power_sum=mesh)


def growth_main_integral_quadrature(t: float, delta: float) -> float:
    """int_0^{1/2} t^alpha (1/2-alpha)^(delta-1) d alpha by direct quadrature."""
    if t <= 1.0:
        raise ValueError("requires t > 1")

    def integrand(u: np.ndarray) -> np.ndarray:
        return t ** (0.5 - u) * u ** (delta - 1.0)

    return tanh_sinh(integrand, 0.0, 0.5)


def growth_main_integral_gamma(t: float, delta: float) -> float:
    """The same integral as sqrt(t) (ln t)^(-delta) gamma(delta, (ln t)/2)."""
    if t <= 1.0:
        raise ValueError("requires t > 1")
    log_t = math.log(t)
    return math.sqrt(t) * log_t ** (-delta) * lower_incomplete_gamma(delta, log_t / 2.0)


def growth_prediction(t: float, epsilon: float, params: ChainParams) -> float:
    """Semi-analytic main term of q_0(t) for the epsilon-family data.

    For general coupling the solve rescales onto the omega1 = 1/2 chain,
    q^(omega1)(t) = q^(1/2)(2 omega1 t) / (2 omega1), giving

        (1/(2 omega1)) sqrt(s) (ln s)^(-delta) gamma(delta, ln(s)/2),
        s = 2 omega1 t, delta = eps + 1/2.

    Multiplied by ln^delta(t)/sqrt(t) it converges to
    Gamma(delta)/sqrt(2 omega1).
    """
    require_unpinned(params, "growth_prediction")
    _check_epsilon(epsilon)
    if t <= 1.0:
        raise ValueError("growth_prediction requires t > 1")
    s = 2.0 * params.omega1 * t
    if s <= 1.0:
        raise ValueError("rescaled time 2*omega1*t must exceed 1")
    return growth_main_integral_gamma(s, epsilon + 0.5) / (2.0 * params.omega1)
