"""Exact evolution of the chain by quadrature of the spectral representation.

Each mode evolves as a harmonic oscillator of frequency omega(lam), so

    q_k(t) = (1/2pi) int_0^{2pi} [Q(lam) cos(t omega) +
                                  P(lam) sin(t omega)/omega] e^{-i k lam} dlam.

Trig-polynomial spectra are integrated with the uniform trapezoid rule
in one evaluation, on a mesh certified in advance: the trapezoid error of
mesh n is the aliased solution sum_{l != 0} q_{k+ln}(t), and because
cos(t omega) and sin(t omega)/omega are entire in lam, a contour shift
into the strip |Im lam| < a bounds it (Trefethen & Weideman, SIAM Review
56, 2014).  There the time factors grow like e^{t I(a)}, I(a) the largest
|Im omega| on the strip's edge, in closed form; as a -> 0, I(a)/a tends
to the top group velocity, so the mesh follows the chain's wave front.
The coefficients are real and the time factors real and even in lam, so
the nodes j <= n/2 determine the evolved spectrum: one real FFT of the
folded coefficients gives it there, and one inverse real FFT gives the
sites of a solve, one or many.

A closed form is a power sum, P(lam) = sum_i w_i |sin(lam/2)|^(-alpha_i)
with Q = 0.  On the unpinned chain it is first tried on the
steepest-descent route: in s = sin(lam/2) the phase t omega = x s,
x = 2 omega1 t, is linear, and the path from s = 0 to s = 1 deforms into
two legs up the imaginary direction on which e^{ixs} decays like e^{-u},
so two Gauss-Laguerre rules of 8 and 16 nodes give q_k(t) at the same
cost for every t (Huybrechs & Vandewalle, SIAM J. Numer. Anal. 44, 2006;
Deano, Huybrechs & Iserles, Computing Highly Oscillatory Integrals, SIAM
2018).  Where the two rules disagree by the tolerance or more (small x,
large |k|), where k^2 > 4x, and on the pinned chain, the solve takes the
lattice route: a closed form is the lattice state p_j = sum_i w_i
c_|j|(alpha_i) of its exact coefficients, which the same strip argument
cuts to |j| <= J with a certified tail, and that finite state takes the
trig route.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import model
from .model import ChainParams, SolutionGrid, SpectralPair, dispersion
from .quadrature import ConvergenceError, certified_mesh, gauss_laguerre, periodic_mesh
from .specfun import bohmer_sine_integral

#: strip half-widths a over which the alias bound is minimized
_STRIP_WIDTHS = tuple(2.0 ** (j / 2.0) for j in range(-6, 11))
#: Gauss-Laguerre node counts of the descent route; the finer value is
#: taken when the two agree to the tolerance
_DESCENT_NODES = (8, 16)
#: the descent route takes sites with k^2 <= _DESCENT_REACH x: on the leg
#: from s = 1, |T_k| grows like e^{2|k| sqrt(y)} against the decay e^{-xy},
#: which amplifies the integrand by about e^{k^2/x}
_DESCENT_REACH = 4.0


class EdgeDominanceWarning(UserWarning):
    """Site window too narrow: boundary values are not negligible."""


@dataclass(frozen=True)
class SolverConfig:
    """Mesh controls for the oscillatory quadrature.

    ``mesh_points`` is the floor of the one mesh a trig or lattice solve
    evaluates (a power of two, so coefficient extraction is one FFT): the
    first of ``mesh_points`` 2^j whose certified error is below
    ``tolerance``, of which a lattice solve gives half to the cut of its
    state and half to the alias bound.  The descent route evaluates no
    mesh, and its 8- and 16-node values must differ by less than
    ``tolerance``.  No mesh past ``max_mesh`` is evaluated.
    """

    mesh_points: int = 64
    tolerance: float = 1e-11
    max_mesh: int = 1 << 24

    def __post_init__(self) -> None:
        if self.mesh_points < 16 or self.mesh_points & (self.mesh_points - 1):
            raise ValueError("mesh_points must be a power of two >= 16")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if not self.mesh_points <= self.max_mesh < math.inf:
            raise ValueError("max_mesh must be finite and >= mesh_points")


def sinc_kernel(t: float, omega: float | np.ndarray) -> float | np.ndarray:
    """sin(t omega)/omega, continued through omega = 0 by its limit t.

    One quotient of sin(z), z = t omega, by omega: it keeps full relative
    precision for every normal z, and below the smallest normal z, where
    sin(t omega)/omega rounds to t, the value is t.
    """
    if t < 0.0:
        raise ValueError("sinc_kernel requires t >= 0")
    om = np.asarray(omega, dtype=float)
    if np.any(om < 0.0):
        raise ValueError("sinc_kernel requires omega >= 0")
    z = t * om
    out = np.full_like(z, t)
    # a NaN z fails z < tiny and so stays NaN through the quotient
    np.divide(np.sin(z), om, out=out, where=~(z < np.finfo(float).tiny))
    return float(out) if np.isscalar(omega) else out


def evolve_spectrum(spectrum: SpectralPair, params: ChainParams, t: float):
    """Return lam -> Q(lam) cos(t omega) + P(lam) sin(t omega)/omega."""
    if not 0.0 <= t < math.inf:
        raise ValueError("evolve_spectrum requires finite t >= 0")

    def evolved(lam: np.ndarray) -> np.ndarray:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        om = dispersion(params, lam)
        return spectrum.Q(lam) * np.cos(t * om) + spectrum.P(lam) * sinc_kernel(t, om)

    return evolved


def _mesh_eval(
    spectrum: SpectralPair, params: ChainParams, t: float, n: int
) -> np.ndarray:
    """The conjugate of the evolved trig spectrum on the half n-mesh, the
    n/2 + 1 nodes lam_j, j <= n/2.

    The coefficients are folded onto their residues mod n, one row for Q
    and one for P; at the nodes e^{i k lam} depends only on k mod n, so the
    fold is exact for any coefficient span.  One real FFT of both rows
    gives conj Q and conj P at the nodes j <= n/2, which determine the
    rest: the coefficients are real and cos(t omega) and sin(t omega)/omega
    are real and even in lam.  The time factors multiply the transformed
    rows in place.
    """
    idx = np.mod(np.arange(spectrum.support_min, spectrum.support_min + len(spectrum.q_coeffs)), n)
    folded = np.zeros((2, n))
    np.add.at(folded, (slice(None), idx), (spectrum.q_coeffs, spectrum.p_coeffs))
    q_half, p_half = np.fft.rfft(folded)
    om = dispersion(params, periodic_mesh(n)[: n // 2 + 1])
    p_half *= sinc_kernel(t, om)
    om *= t
    q_half *= np.cos(om, out=om)
    q_half += p_half
    return q_half


def _im_omega_max(omega0: float, omega1: float, a: float) -> float:
    """I(a) = max over real x of |Im omega(x + ia)|, in closed form.

    With k = 2 omega1^2, c = cosh a and u = cos x, omega^2 = A + iB where
    A = omega0^2 + k (1 - u c) and B = k sinh(a) sin x, and |Im omega| =
    sqrt((|omega^2| - A)/2), which vanishes at u = -1.  Its one critical
    point inside (-1, 1) is the smaller root u* = c/(r + sqrt(r^2 - 1)) of
    u^2 - 2 r c u + c^2 = 0, r = 1 + omega0^2/k, so I(a) is the larger of
    the values at u* (when u* < 1) and at u = 1, sqrt(max(0, -A)).  On the
    unpinned chain u* >= 1 and I(a) = 2 omega1 sinh(a/2).
    """
    k = 2.0 * omega1**2
    if k == 0.0:
        # omega1^2 underflows: omega = omega0 on the whole strip
        return 0.0
    c = math.cosh(a)
    # -A at u = 1 is k (c - 1) - omega0^2, with c - 1 = 2 sinh^2(a/2)
    best = math.sqrt(max(0.0, 2.0 * k * math.sinh(0.5 * a) ** 2 - omega0**2))
    d = omega0**2 / k
    u = c / (1.0 + d + math.sqrt(d * (2.0 + d)))
    if u < 1.0:
        real = k * (1.0 + d - u * c)
        imag = k * math.sinh(a) * math.sqrt((1.0 - u) * (1.0 + u))
        modulus = math.hypot(real, imag)
        # |omega^2| - A, free of cancellation where A > 0
        gap = imag * imag / (modulus + real) if real > 0.0 else modulus - real
        best = max(best, math.sqrt(0.5 * gap))
    return best


@functools.lru_cache(maxsize=8)
def _strip_rates(omega0: float, omega1: float) -> tuple[tuple[float, float], ...]:
    """(a, I(a)) per strip width a of the chain (omega0, omega1)."""
    return tuple((a, _im_omega_max(omega0, omega1, a)) for a in _STRIP_WIDTHS)


def _strip_prefactors(params: ChainParams, t: float, q_norm: float, p_norm: float) -> list:
    """(a, ln(2 (q_norm cosh(tI) + p_norm sinh(tI)/I))) per strip width a.

    The time factors are entire in lam, and on the line Im lam = +-a,
    |Im omega| <= I(a) (``_im_omega_max``); so |cos(t omega)| <= cosh(tI)
    and |sin(t omega)/omega| = |int_0^t cos(s omega) ds| <= sinh(tI)/I,
    and the Fourier coefficients of the two obey |C_m| <= cosh(tI) e^{-a|m|}
    and |S_m| <= sinh(tI)/I e^{-a|m|}.  Kept in logs, since cosh(tI)
    overflows at large t.
    """
    prefactors = []
    for a, rate in _strip_rates(params.omega0, params.omega1):
        x = t * rate
        # 2 (q_norm cosh x + p_norm sinh(x)/rate) e^{-x}, free of overflow;
        # sinh(x)/rate tends to t as the rate vanishes
        sinh_term = -math.expm1(-2.0 * x) / rate if rate > 0.0 else 2.0 * t
        scaled = q_norm * (1.0 + math.exp(-2.0 * x)) + p_norm * sinh_term
        prefactors.append((a, x + math.log(scaled) if scaled > 0.0 else -math.inf))
    return prefactors


def _alias_log_bound(
    spectrum: SpectralPair, params: ChainParams, t: float, reach: int
) -> Callable[[int], float]:
    """n -> ln of a bound on the trapezoid error of mesh n at every site k
    with |k| + |j| <= ``reach`` for every support site j.

    That error is the aliased solution sum_{l != 0} q_{k+ln}(t); summed over
    the aliases, the coefficient bounds of ``_strip_prefactors`` give
    |error| <= (|q|_1 cosh(tI) + |p|_1 sinh(tI)/I) 2 e^{-a(n-reach)} /
    (1 - e^{-an}), minimized over a.
    """
    q_norm = float(np.sum(np.abs(spectrum.q_coeffs)))
    p_norm = float(np.sum(np.abs(spectrum.p_coeffs)))
    prefactors = _strip_prefactors(params, t, q_norm, p_norm)

    def log_bound(n: int) -> float:
        return min(c - a * (n - reach) - math.log1p(-math.exp(-a * n)) for a, c in prefactors)

    return log_bound


def _trig_route_mesh(
    spectrum: SpectralPair, params: ChainParams, t: float, k_max: int, cfg: SolverConfig
) -> int:
    """The one mesh a trig solve evaluates for sites |k| <= k_max at time t:
    the first of ``mesh_points`` 2^j that exceeds 2 reach >= 2 k_max, so
    that every such site has its own FFT bin, and whose alias bound is
    below the tolerance."""
    support_max = spectrum.support_min + len(spectrum.q_coeffs) - 1
    reach = k_max + max(abs(spectrum.support_min), abs(support_max))
    log_bound = _alias_log_bound(spectrum, params, t, reach)
    return certified_mesh(log_bound, cfg.mesh_points, reach, cfg.tolerance, cfg.max_mesh)


def _trig_sites(
    spectrum: SpectralPair, params: ChainParams, t: float, sites: np.ndarray, n: int
) -> np.ndarray:
    """q_k(t) at ``sites`` of a trig pair on their certified mesh n: one
    ``_mesh_eval`` and one inverse real FFT, real by construction."""
    return np.fft.irfft(_mesh_eval(spectrum, params, t, n), n)[np.mod(sites, n)]


def _lattice_cut(
    power_sum: model.PowerSum, params: ChainParams, t: float, k_max: int, cfg: SolverConfig
) -> int:
    """The least cut J >= k_max at which the lattice coefficients p_j,
    |j| > J, of a closed form move no site |k| <= k_max by half the tolerance.

    They move site k by sum_{|j|>J} p_j G_{k-j}(t), G the response to a unit
    kick, whose |G_m| <= sinh(tI)/I e^{-a|m|} by ``_strip_prefactors``; with
    |p_j| <= C0 = sum_i |w_i| c_0(alpha_i), the sum is at most C0 sinh(tI)/I
    2 e^{-a(J+1-|k|)}/(1 - e^{-a}).  Raises ``ConvergenceError`` before
    anything is built if the state's mesh, past 2 (k_max + J), passes max_mesh.
    """
    pairs = zip(power_sum.alphas, power_sum.weights)
    c0 = sum(abs(w) * model.mean_coefficient(a) for a, w in pairs)
    log_tolerance = math.log(0.5 * cfg.tolerance)
    # J + 1 - k_max must exceed (c - ln(1 - e^{-a}) - ln(tol/2))/a for one a
    excess = min(
        (c - math.log1p(-math.exp(-a)) - log_tolerance) / a
        for a, c in _strip_prefactors(params, t, 0.0, c0)
    )
    cut = k_max + math.floor(min(max(excess, 0.0), cfg.max_mesh))
    need = 2 * (k_max + cut)
    if need >= cfg.max_mesh or cut > model.MAX_COEFFICIENT_SITE:
        raise ConvergenceError(
            f"the lattice state of |k| <= {k_max} at t={t} is cut at |j| <= {cut} (at most "
            f"{model.MAX_COEFFICIENT_SITE}): its mesh must exceed {need}; max_mesh={cfg.max_mesh}"
        )
    return cut


def _lattice_sites(
    spectrum: SpectralPair, params: ChainParams, t: float, sites: np.ndarray, cfg: SolverConfig
) -> np.ndarray:
    """Real q_k(t) at ``sites`` of a closed form: its lattice state cut by
    ``_lattice_cut`` to half the tolerance, solved by ``_trig_sites`` to
    the other half."""
    k_max = int(np.max(np.abs(sites)))
    cut = _lattice_cut(spectrum.power_sum, params, t, k_max, cfg)
    half = spectrum.power_sum.coefficients(cut)
    p = np.concatenate([half[:0:-1], half])
    state = SpectralPair(support_min=-cut, q_coeffs=np.zeros_like(p), p_coeffs=p)
    half_cfg = dataclasses.replace(cfg, tolerance=0.5 * cfg.tolerance)
    return _trig_sites(state, params, t, sites, _trig_route_mesh(state, params, t, k_max, half_cfg))


@functools.lru_cache(maxsize=8)
def _descent_tables(alpha_bytes: bytes) -> tuple[np.ndarray, list]:
    """Per exponent set, packed as bytes: the Bohmer constant of each
    alpha and, for each count in ``_DESCENT_NODES``, the Gauss-Laguerre
    ``(nodes, weights)`` whose rows are the rules of u^(1 - alpha) e^{-u},
    one per alpha, then the rule of u^(-1/2) e^{-u}.

    The tables are built once per exponent set, which every closed form of
    a family shares; the arrays are read-only.
    """
    alphas = np.frombuffer(alpha_bytes)
    bohmer = np.array([bohmer_sine_integral(a) for a in alphas])
    rules = [gauss_laguerre(n, np.append(1.0 - alphas, -0.5)) for n in _DESCENT_NODES]
    for arr in (bohmer, *(a for rule in rules for a in rule)):
        arr.setflags(write=False)
    return bohmer, rules


def _descent_holds(params: ChainParams, t: float, k: int) -> bool:
    """Whether the descent route holds at site k: on an unpinned chain, at
    t > 0 and for k^2 <= ``_DESCENT_REACH`` x, x = 2 omega1 t."""
    return not params.pinned and t > 0.0 and k * k <= _DESCENT_REACH * 2.0 * params.omega1 * t


def _descent_solve(
    spectrum: SpectralPair, params: ChainParams, t: float, k: int, cfg: SolverConfig
) -> float | None:
    """q_k(t) of a closed form on the steepest-descent route, or None where
    the route does not apply or does not reach the tolerance.

    With s = sin(lam/2), x = 2 omega1 t and m = |k| (cos(k lam) =
    T_m(1 - 2 s^2)), q_k(t) = (1/(pi omega1)) sum_i w_i I(alpha_i), where

        I(alpha) = int_0^1 s^(-alpha-1) T_m(1 - 2s^2) (1 - s^2)^(-1/2) sin(xs) ds
                 = x^alpha B(alpha) + Im(L0 - L1).

    B is the Bohmer integral of s^(-alpha-1) sin(s) over the half-line.
    L0 runs from s = 0 up the imaginary axis, s = iu/x, and carries the
    -1 that B subtracts; with y = u/x and r = sqrt(1 + y^2) its integrand
    is x^(alpha-2) u^(1-alpha) e^{-u} G(y) times a unit phase, where
    G(y) = [T_m(1 + 2y^2)/r - 1]/y^2 = (2 sinh^2(m asinh y) -
    y^2/(1 + r))/(r y^2), free of cancellation.  L1 runs from s = 1,
    s = 1 + iu/x, with weight u^(-1/2) e^{-u} for every alpha.  The route
    holds for m^2 <= ``_DESCENT_REACH`` x, and its value is accepted when
    the rules of both ``_DESCENT_NODES`` agree to ``cfg.tolerance``.  It
    neither warns nor raises on the way to None.
    """
    if not _descent_holds(params, t, k):
        return None
    x = 2.0 * params.omega1 * t
    m = abs(k)
    alphas, weights = spectrum.power_sum.alphas, spectrum.power_sum.weights
    bohmer, rules = _descent_tables(alphas.tobytes())
    values = []
    with np.errstate(all="ignore"):
        for nodes, gauss_w in rules:
            # L0 = i e^{-i pi (alpha+1)/2} x^(alpha-2) sum v G(y), Im(L0) = -leg0
            y = nodes[:-1] / x
            r = np.sqrt(1.0 + y * y)
            g = (2.0 * np.sinh(m * np.arcsinh(y)) ** 2 - y * y / (1.0 + r)) / (r * y * y)
            leg0 = np.sin(0.5 * np.pi * alphas) * x ** (alphas - 2.0) * (gauss_w[:-1] * g).sum(1)
            # L1 = i e^{ix} x^(-1/2) sum v s^(-alpha-1) T_m(1 - 2s^2) (y - 2i)^(-1/2)
            # with s = 1 + iy and principal roots, Im(L1) = leg1
            y = nodes[-1] / x
            s = 1.0 + 1j * y
            along = gauss_w[-1] * np.cos(2 * m * np.arcsin(s)) / np.sqrt(y - 2j)
            powers = np.exp(np.outer(-1.0 - alphas, np.log(s)))
            leg1 = (np.exp(1j * x) / math.sqrt(x) * (powers @ along)).real
            integrals = x**alphas * bohmer - leg0 - leg1
            values.append(float(weights @ integrals) / (math.pi * params.omega1))
    coarse, fine = values
    # false for NaN and for infinities alike
    return fine if abs(fine - coarse) < cfg.tolerance else None


def solve_at(
    spectrum: SpectralPair,
    params: ChainParams,
    t: float,
    k: int,
    cfg: SolverConfig | None = None,
) -> float:
    """q_k(t) with absolute error at the configured tolerance.

    A trig pair takes the trig route; a closed form takes the descent
    route where it holds and reaches the tolerance, else the lattice one.
    k is read by ``model.site_array``."""
    cfg = cfg or SolverConfig()
    if not 0.0 <= t < math.inf:
        raise ValueError("solve_at requires finite t >= 0")
    sites = model.site_array([k])
    k = int(sites[0])
    if spectrum.power_sum is None:
        n = _trig_route_mesh(spectrum, params, t, abs(k), cfg)
        return float(_trig_sites(spectrum, params, t, sites, n)[0])
    descent = _descent_solve(spectrum, params, t, k, cfg)
    if descent is not None:
        return descent
    return float(_lattice_sites(spectrum, params, t, sites, cfg)[0])


def solve_grid(
    spectrum: SpectralPair,
    params: ChainParams,
    times,
    sites,
    cfg: SolverConfig | None = None,
) -> SolutionGrid:
    """Solve on a whole (times x sites) grid.

    On the trig route one half-mesh evaluation plus one inverse real FFT
    per time slice produces every site at once.  A closed form tries each
    site of a slice on the descent route, and the sites it refuses share
    one lattice solve.  Sites are read by ``model.site_array``, sorted and
    deduplicated; a ``range``, of any step, is read from its ends and laid
    out by ``np.arange`` without a Python pass.  Each slice is certified at
    its widest site, by its trig mesh or, off the descent route, its
    lattice cut, before the sites are sorted or a range is laid out.  A
    value that is not finite is refused with ``ValueError``.
    """
    cfg = cfg or SolverConfig()
    times = [float(t) for t in times]
    if not all(0.0 <= t < math.inf for t in times):
        raise ValueError("solve_grid requires finite t >= 0")
    if isinstance(sites, range):
        # a range holds only ints, and one past int64 is past any max_mesh below 2^64
        sites = sites if sites.step > 0 else sites[::-1]
        widest = max(-sites[0], sites[-1]) if sites else None
    else:
        sites = model.site_array(sites)
        widest = max(-int(sites.min()), int(sites.max())) if sites.size else None
    if not times or widest is None:
        raise ValueError("times and sites must be non-empty")
    if spectrum.power_sum is None:
        meshes = [_trig_route_mesh(spectrum, params, t, widest, cfg) for t in times]
    else:
        for t in times:
            # the lattice route takes the widest site whatever the rules give
            if not _descent_holds(params, t, widest):
                _lattice_cut(spectrum.power_sum, params, t, widest, cfg)

    if isinstance(sites, range):
        site_idx = np.arange(sites.start, sites.stop, sites.step, dtype=np.int64)
    else:
        site_idx = np.sort(sites)
        site_idx = site_idx[np.concatenate(([True], site_idx[1:] != site_idx[:-1]))]
    values = np.empty((len(times), site_idx.size))
    for i, t in enumerate(times):
        if spectrum.power_sum is None:
            values[i] = _trig_sites(spectrum, params, t, site_idx, meshes[i])
            continue
        # a refusal, None, is stored as NaN, which the descent route never returns
        values[i] = [_descent_solve(spectrum, params, t, k, cfg) for k in map(int, site_idx)]
        refused = np.flatnonzero(np.isnan(values[i]))
        if refused.size:
            values[i, refused] = _lattice_sites(spectrum, params, t, site_idx[refused], cfg)
    if not np.all(np.isfinite(values)):
        raise ValueError("solution grid contains non-finite values")
    return SolutionGrid(times, site_idx, values)


def max_norm(grid: SolutionGrid, t_index: int) -> float:
    """Windowed sup_k |q_k| at one time slice.

    Warns if the two outermost sites on either side of the window carry
    more than 1e-3 of the interior maximum, i.e. the window may have
    clipped the wave front.
    """
    row = np.abs(grid.values[t_index])
    peak = float(np.max(row))
    if peak > 0.0 and len(row) > 4:
        edge = max(float(np.max(row[:2])), float(np.max(row[-2:])))
        if edge > 1e-3 * peak:
            warnings.warn(
                f"window edge value {edge:.3e} exceeds 1e-3 of the interior "
                f"max {peak:.3e} at t={grid.times[t_index]}",
                EdgeDominanceWarning,
                stacklevel=2,
            )
    return peak


def windowed_sup(
    spectrum: SpectralPair,
    params: ChainParams,
    t: float,
    cfg: SolverConfig | None = None,
    window: int | None = None,
) -> float:
    """sup over |k| <= window of |q_k(t)|, window-defaulted past the wave front.

    The fastest mode travels no faster than omega1, so a window of
    1.1 * omega1 * t + 60 sites keeps the boundary values negligible.  A
    ``window`` that is not a nonnegative integer raises ``ValueError``;
    ``solve_grid`` refuses one past ``max_mesh`` before building its sites.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError("windowed_sup requires finite t >= 0")
    if window is None:
        window = int(math.ceil(1.1 * params.omega1 * t)) + 60
    elif isinstance(window, bool) or not isinstance(window, numbers.Integral) or window < 0:
        raise ValueError(f"window must be a nonnegative integer, not {window!r}")
    grid = solve_grid(spectrum, params, [t], range(-window, window + 1), cfg)
    return max_norm(grid, 0)
