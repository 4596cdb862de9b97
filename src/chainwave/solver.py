"""Exact evolution of the chain by quadrature of the spectral representation.

Each mode evolves as a harmonic oscillator of frequency omega(lam), so

    q_k(t) = (1/2pi) int_0^{2pi} [Q(lam) cos(t omega) +
                                  P(lam) sin(t omega)/omega] e^{-i k lam} dlam.

Trig-polynomial spectra are integrated with the uniform trapezoid rule
in one evaluation, on a mesh certified in advance: the trapezoid error of
mesh n is the aliased solution sum_{l != 0} q_{k+ln}(t), and because
cos(t omega) and sin(t omega)/omega are entire in lam, a contour shift
into the strip |Im lam| < a bounds it (Trefethen & Weideman, SIAM Review
56, 2014); the sites of a solve, one or many, come out of a single FFT.
Endpoint-singular closed forms, real and even in lam, are integrated as a
cosine transform over one power-graded half [0, pi], whose mesh doubles
until two successive values agree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ChainParams, SpectralPair, _extract_real, dispersion
from .quadrature import certified_mesh, graded_coefficient, graded_mesh_start, periodic_mesh

#: series/direct switch for sin(t omega)/omega
_SINC_SWITCH = 1e-2
_SINC_TERMS = 8
#: strip half-widths a over which the alias bound is minimized
_STRIP_WIDTHS = tuple(2.0 ** (j / 2.0) for j in range(-6, 11))


class EdgeDominanceWarning(UserWarning):
    """Site window too narrow: boundary values are not negligible."""


@dataclass(frozen=True)
class SolverConfig:
    """Mesh controls for the oscillatory quadrature.

    ``mesh_points`` is the floor for the starting mesh on both routes (a
    power of two, so coefficient extraction is one FFT).  On the trig route
    the one mesh evaluated is the first of ``mesh_points`` 2^j whose
    certified alias error is below ``tolerance``; on the graded route
    meshes double until two successive results differ by less than
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


@dataclass(frozen=True)
class SolutionGrid:
    """q values on a (times x sites) grid; row-major over times."""

    params: ChainParams
    times: tuple[float, ...]
    sites: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.times), len(self.sites)):
            raise ValueError("values must have shape (len(times), len(sites))")
        if not np.all(np.isfinite(values)):
            raise ValueError("solution grid contains non-finite values")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def at(self, t_index: int, site: int) -> float:
        return float(self.values[t_index, self.sites.index(site)])

    def rows(self):
        """Yield (t, k, q) in deterministic order: t-major, k ascending."""
        for i, t in enumerate(self.times):
            for k, q in zip(self.sites, self.values[i].tolist()):
                yield t, k, q

    def to_csv(self, path) -> None:
        """Write the grid as ``t,k,q`` rows (deterministic order/format)."""
        from .reports import write_csv

        write_csv(path, ["t", "k", "q"], self.rows())


def sinc_kernel(t: float, omega: float | np.ndarray) -> float | np.ndarray:
    """sin(t omega)/omega, continued through omega = 0 by its power series.

    Below t*omega = 1e-2 an 8-term alternating series in (t omega)^2 is
    used; both branches agree to machine precision at the switch.
    """
    if t < 0.0:
        raise ValueError("sinc_kernel requires t >= 0")
    om = np.asarray(omega, dtype=float)
    if np.any(om < 0.0):
        raise ValueError("sinc_kernel requires omega >= 0")
    z = t * om
    small = z < _SINC_SWITCH
    out = np.empty_like(om)
    if np.any(small):
        z2 = z[small] ** 2
        series = np.zeros_like(z2)
        for m in range(_SINC_TERMS - 1, 0, -1):
            series = (series + (-1.0) ** m / math.factorial(2 * m + 1)) * z2
        out[small] = t * (1.0 + series)
    big = ~small
    if np.any(big):
        out[big] = np.sin(z[big]) / om[big]
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
    """Evolved trig spectrum sampled on the uniform n-mesh.

    Q and P are synthesized by an inverse FFT of the coefficients folded
    onto their residues mod n; at the nodes e^{i k lam} depends only on
    k mod n, so the fold is exact for any coefficient span.  The products
    are formed in the synthesized arrays, so that peak memory stays at the
    mesh-long arrays the synthesis needs.  omega is evaluated for j <= n/2
    and mirrored: exactly even, it leaves real data no imaginary residue.
    """
    om = dispersion(params, periodic_mesh(n)[: n // 2 + 1])
    om = np.concatenate([om, om[-2:0:-1]])
    c_q = np.zeros(n, dtype=complex)
    c_p = np.zeros(n, dtype=complex)
    idx = np.mod(np.arange(spectrum.support_min, spectrum.support_min + len(spectrum.q_coeffs)), n)
    np.add.at(c_q, idx, spectrum.q_coeffs)
    np.add.at(c_p, idx, spectrum.p_coeffs)
    q_vals = np.fft.ifft(c_q, norm="forward")
    p_vals = np.fft.ifft(c_p, norm="forward")
    p_vals *= sinc_kernel(t, om)
    om *= t
    q_vals *= np.cos(om, out=om)
    q_vals += p_vals
    return q_vals


def _alias_log_bound(
    spectrum: SpectralPair, params: ChainParams, t: float, reach: int
) -> Callable[[int], float]:
    """n -> ln of a bound on the trapezoid error of mesh n at every site k
    with |k| + |j| <= ``reach`` for every support site j.

    That error is the aliased solution sum_{l != 0} q_{k+ln}(t).  The time
    factors are entire in omega^2 = omega0^2 + 2 omega1^2 (1 - cos lam), and
    on the strip |Im lam| <= a, |omega| <= W with W^2 = omega0^2 +
    2 omega1^2 (1 + cosh a); so their Fourier coefficients obey |C_m| <=
    cosh(tW) e^{-a|m|} and |S_m| <= sinh(tW)/W e^{-a|m|}, and summed over the
    aliases |error| <= (|q|_1 cosh(tW) + |p|_1 sinh(tW)/W) 2 e^{-a(n-reach)}
    / (1 - e^{-an}).  The bound is minimized over a few a and kept in logs,
    since cosh(tW) overflows at large t.
    """
    q_norm = float(np.sum(np.abs(spectrum.q_coeffs)))
    p_norm = float(np.sum(np.abs(spectrum.p_coeffs)))
    prefactors = []
    for a in _STRIP_WIDTHS:
        w = math.sqrt(params.omega0**2 + 2.0 * params.omega1**2 * (1.0 + math.cosh(a)))
        x = t * w
        # 2 (q_norm cosh x + p_norm sinh(x)/w) e^{-x}, free of overflow
        scaled = q_norm * (1.0 + math.exp(-2.0 * x)) - p_norm * math.expm1(-2.0 * x) / w
        if scaled == 0.0:
            return lambda n: -math.inf
        prefactors.append((a, x + math.log(scaled)))

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
    spectrum: SpectralPair, params: ChainParams, t: float, sites: np.ndarray, cfg: SolverConfig
) -> np.ndarray:
    """Complex q_k(t) at ``sites`` of a trig pair: one certified mesh, one
    ``_mesh_eval`` and one forward FFT."""
    n = _trig_route_mesh(spectrum, params, t, int(np.max(np.abs(sites))), cfg)
    coeffs = np.fft.fft(_mesh_eval(spectrum, params, t, n), norm="forward")
    return coeffs[np.mod(sites, n)]


def solve_at(
    spectrum: SpectralPair,
    params: ChainParams,
    t: float,
    k: int,
    cfg: SolverConfig | None = None,
) -> float:
    """q_k(t) with absolute error at the configured tolerance."""
    cfg = cfg or SolverConfig()
    if not 0.0 <= t < math.inf:
        raise ValueError("solve_at requires finite t >= 0")
    if spectrum.singular_endpoints:
        n0 = max(cfg.mesh_points, graded_mesh_start(k, t * params.omega0_prime))
        evolved = evolve_spectrum(spectrum, params, t)
        return graded_coefficient(evolved, k, n0, cfg.tolerance, cfg.max_mesh)
    value = complex(_trig_sites(spectrum, params, t, np.array([k]), cfg)[0])
    return _extract_real(value, f"solve_at(k={k}, t={t})")


def solve_grid(
    spectrum: SpectralPair,
    params: ChainParams,
    times,
    sites,
    cfg: SolverConfig | None = None,
) -> SolutionGrid:
    """Solve on a whole (times x sites) grid.

    On the trig route one mesh evaluation plus one FFT per time slice
    produces every site at once; sites are deduplicated and sorted
    ascending.
    """
    cfg = cfg or SolverConfig()
    times = [float(t) for t in times]
    sites = sorted({int(k) for k in sites})
    if not times or not sites:
        raise ValueError("times and sites must be non-empty")
    if not all(0.0 <= t < math.inf for t in times):
        raise ValueError("solve_grid requires finite t >= 0")

    if spectrum.singular_endpoints:
        values = np.empty((len(times), len(sites)))
        for i, t in enumerate(times):
            for j, k in enumerate(sites):
                values[i, j] = solve_at(spectrum, params, t, k, cfg)
        return SolutionGrid(params, tuple(times), tuple(sites), values)

    site_idx = np.asarray(sites)
    values = np.empty((len(times), len(sites)))
    for i, t in enumerate(times):
        row = _trig_sites(spectrum, params, t, site_idx, cfg)
        worst = np.argmax(np.abs(row.imag))
        _extract_real(complex(row[worst]), f"solve_grid(t={t})")
        values[i] = row.real
    return SolutionGrid(params, tuple(times), tuple(sites), values)


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
    trig window whose mesh would pass ``max_mesh`` is refused before its
    sites are built.
    """
    cfg = cfg or SolverConfig()
    if not 0.0 <= t < math.inf:
        raise ValueError("windowed_sup requires finite t >= 0")
    if window is None:
        window = int(math.ceil(1.1 * params.omega1 * t)) + 60
    if not spectrum.singular_endpoints:
        _trig_route_mesh(spectrum, params, t, window, cfg)
    sites = range(-window, window + 1)
    grid = solve_grid(spectrum, params, [t], sites, cfg)
    return max_norm(grid, 0)
