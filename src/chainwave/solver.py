"""Exact evolution of the chain by quadrature of the spectral representation.

Each mode evolves as a harmonic oscillator of frequency omega(lam), so

    q_k(t) = (1/2pi) int_0^{2pi} [Q(lam) cos(t omega) +
                                  P(lam) sin(t omega)/omega] e^{-i k lam} dlam.

Trig-polynomial spectra are integrated with the uniform trapezoid rule,
which is spectrally accurate for periodic integrands and doubles the mesh
until two successive values agree; whole site ranges come out of a single
FFT per time slice.  Endpoint-singular closed forms, real and even in lam,
are integrated as a cosine transform over one power-graded half [0, pi].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ChainParams, SpectralPair, _extract_real, dispersion
from .quadrature import (
    ConvergenceError,
    graded_coefficient,
    graded_mesh_start,
    periodic_mesh,
    refine_until,
    trig_coefficient,
    trig_mesh,
)

#: series/direct switch for sin(t omega)/omega
_SINC_SWITCH = 1e-2
_SINC_TERMS = 8


class EdgeDominanceWarning(UserWarning):
    """Site window too narrow: boundary values are not negligible."""


@dataclass(frozen=True)
class SolverConfig:
    """Mesh controls for the oscillatory quadrature.

    ``mesh_points`` is the floor for the starting mesh (a power of two, so
    coefficient extraction is one FFT); meshes double until two successive
    results differ by less than ``tolerance`` or ``max_mesh`` is hit.
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
            for j, k in enumerate(self.sites):
                yield t, k, float(self.values[i, j])

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
    k mod n, so the fold is exact for any coefficient span.
    """
    lam = periodic_mesh(n)
    om = dispersion(params, lam)
    c_q = np.zeros(n, dtype=complex)
    c_p = np.zeros(n, dtype=complex)
    idx = np.mod(np.arange(spectrum.support_min, spectrum.support_min + len(spectrum.q_coeffs)), n)
    np.add.at(c_q, idx, spectrum.q_coeffs)
    np.add.at(c_p, idx, spectrum.p_coeffs)
    q_vals = np.fft.ifft(c_q) * n
    p_vals = np.fft.ifft(c_p) * n
    return q_vals * np.cos(t * om) + p_vals * sinc_kernel(t, om)


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
    phase = t * params.omega0_prime
    if spectrum.singular_endpoints:
        n0 = max(cfg.mesh_points, graded_mesh_start(k, phase))
        evolved = evolve_spectrum(spectrum, params, t)
        return graded_coefficient(evolved, k, n0, cfg.tolerance, cfg.max_mesh)
    n0 = max(cfg.mesh_points, trig_mesh(k, phase))
    value = trig_coefficient(
        lambda n: _mesh_eval(spectrum, params, t, n), k, n0, cfg.tolerance, cfg.max_mesh
    )
    return _extract_real(value, f"solve_at(k={k}, t={t})")


def solve_grid(
    spectrum: SpectralPair,
    params: ChainParams,
    times,
    sites,
    cfg: SolverConfig | None = None,
) -> SolutionGrid:
    """Solve on a whole (times x sites) grid.

    One mesh evaluation plus one FFT per time slice produces every site at
    once; sites are deduplicated and sorted ascending.
    """
    cfg = cfg or SolverConfig()
    times = [float(t) for t in times]
    sites = sorted({int(k) for k in sites})
    if not times or not sites:
        raise ValueError("times and sites must be non-empty")
    if not all(0.0 <= t < math.inf for t in times):
        raise ValueError("solve_grid requires finite t >= 0")
    k_max = max(abs(sites[0]), abs(sites[-1]))

    if spectrum.singular_endpoints:
        values = np.empty((len(times), len(sites)))
        for i, t in enumerate(times):
            for j, k in enumerate(sites):
                values[i, j] = solve_at(spectrum, params, t, k, cfg)
        return SolutionGrid(params, tuple(times), tuple(sites), values)

    site_idx = np.asarray(sites)

    def slice_at(t: float):
        def at(n: int) -> np.ndarray:
            if k_max >= n // 2:
                raise ConvergenceError(
                    f"mesh {n} cannot resolve sites up to |k|={k_max}"
                )
            f = _mesh_eval(spectrum, params, t, n)
            coeffs = np.fft.fft(f) / n
            return coeffs[np.mod(site_idx, n)]

        n0 = max(cfg.mesh_points, trig_mesh(k_max, t * params.omega0_prime))
        return refine_until(at, n0, cfg.tolerance, cfg.max_mesh)

    values = np.empty((len(times), len(sites)))
    for i, t in enumerate(times):
        row = slice_at(t)
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
    1.1 * omega1 * t + 60 sites keeps the boundary values negligible.
    """
    if window is None:
        window = int(math.ceil(1.1 * params.omega1 * t)) + 60
    sites = range(-window, window + 1)
    grid = solve_grid(spectrum, params, [t], sites, cfg)
    return max_norm(grid, 0)
