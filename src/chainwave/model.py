"""Physical parameters, lattice states, spectral pairs, solution grids and
the transforms between them for the one-dimensional harmonic chain.

Displacements q_k from the equilibrium positions x_k = k a satisfy

    q''_k = -omega0^2 q_k + omega1^2 (q_{k+1} - 2 q_k + q_{k-1}),

whose plane-wave modes e^{i k lam} oscillate at the dispersion frequency
omega(lam) = sqrt(omega0^2 + 4 omega1^2 sin^2(lam/2)).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

#: largest lattice index whose closed-form coefficient is computed; the
#: coefficients come from an O(|k|) recurrence, refused past it
MAX_COEFFICIENT_SITE = 1 << 23


def _is_real(value) -> bool:
    """True for a real number; bools (numpy's too) and strings are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def _real_entries(values, name: str) -> np.ndarray:
    """``values`` as a float array whose every entry was a real number.

    The entries are checked one by one unless ``values`` is already a
    numeric array: ``np.asarray([1, True])`` is an int64 array, so a bool
    would pass a dtype check.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        return values.astype(float)
    entries = np.asarray(values, dtype=object)
    for value in entries.flat:
        if not _is_real(value):
            raise ValueError(f"{name} entries must be real numbers, not {value!r}")
    return entries.astype(float)


def _freeze_real_pair(obj, first: str, second: str) -> None:
    """Set the fields ``first`` and ``second`` of the frozen dataclass
    ``obj`` to read-only float arrays, refusing entries that are not real
    numbers, arrays that are not 1-d of equal, nonzero length and values
    that are not finite."""
    a = _real_entries(getattr(obj, first), first)
    b = _real_entries(getattr(obj, second), second)
    if a.ndim != 1 or a.shape != b.shape or len(a) == 0:
        raise ValueError(f"{first} and {second} must be 1-d arrays of equal, nonzero length")
    for name, arr in ((first, a), (second, b)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class ChainParams:
    """Chain frequencies: pinning omega0 and coupling omega1."""

    omega0: float
    omega1: float

    def __post_init__(self) -> None:
        for name in ("omega0", "omega1"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"{name} must be a real number, not {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.omega1 <= 0.0:
            raise ValueError("omega1 must be positive")
        if self.omega0 < 0.0:
            raise ValueError("omega0 must be nonnegative")

    @property
    def omega0_prime(self) -> float:
        """Top of the dispersion band, sqrt(omega0^2 + 4 omega1^2)."""
        return math.hypot(self.omega0, 2.0 * self.omega1)

    @property
    def pinned(self) -> bool:
        return self.omega0 > 0.0


def require_unpinned(params: ChainParams, what: str) -> None:
    """Reject a pinned chain; ``what`` names the formula that needs omega0 = 0."""
    if params.omega0 != 0.0:
        raise ValueError(f"{what} requires omega0 = 0")


def dispersion(params: ChainParams, lam: float | np.ndarray) -> float | np.ndarray:
    """omega(lam) = sqrt(omega0^2 + 4 omega1^2 sin^2(lam/2)).

    Even, 2pi-periodic, increasing on [0, pi] from omega0 to omega0_prime.
    """
    s = np.sin(np.asarray(lam, dtype=float) / 2.0)
    out = np.sqrt(params.omega0**2 + 4.0 * params.omega1**2 * s * s)
    return float(out) if np.isscalar(lam) else out


@dataclass(frozen=True)
class LatticeState:
    """Finitely supported displacement/velocity data on the integer lattice.

    ``q[j]`` and ``p[j]`` live at site ``support_min + j``; both arrays
    are frozen after construction (operations return new states).
    """

    support_min: int
    q: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        _freeze_real_pair(self, "q", "p")

    @property
    def support_max(self) -> int:
        return self.support_min + len(self.q) - 1

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.support_min, self.support_max + 1)

    def q_norm(self) -> float:
        return float(np.linalg.norm(self.q))

    def p_norm(self) -> float:
        return float(np.linalg.norm(self.p))

    def q_at(self, k: int) -> float:
        j = k - self.support_min
        return float(self.q[j]) if 0 <= j < len(self.q) else 0.0

    def p_at(self, k: int) -> float:
        j = k - self.support_min
        return float(self.p[j]) if 0 <= j < len(self.p) else 0.0

    def to_dict(self) -> dict:
        return {
            "support_min": int(self.support_min),
            "q": [float(v) for v in self.q],
            "p": [float(v) for v in self.p],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatticeState":
        return cls(
            support_min=int(data["support_min"]),
            q=data["q"],
            p=data["p"],
        )

    @classmethod
    def single_site(cls, k: int = 0, q: float = 0.0, p: float = 0.0) -> "LatticeState":
        return cls(support_min=k, q=np.array([q]), p=np.array([p]))


@dataclass(frozen=True)
class PowerSum:
    """The velocity spectrum P(lam) = sum_i weights_i |sin(lam/2)|^(-alphas_i),
    0 < alphas_i < 1, of a closed form whose Q is 0.

    Equal alphas are merged at construction, their weights summed; the
    alphas come out ascending.
    """

    alphas: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        _freeze_real_pair(self, "alphas", "weights")
        if not np.all((self.alphas > 0.0) & (self.alphas < 1.0)):
            raise ValueError("alphas must lie in (0, 1)")
        alphas, where = np.unique(self.alphas, return_inverse=True)
        weights = np.bincount(where, weights=self.weights, minlength=len(alphas))
        for name, arr in (("alphas", alphas), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def p_values(self, lam: np.ndarray) -> np.ndarray:
        """P(lam) = sum_i weights_i |sin(lam/2)|^(-alphas_i), term by term."""
        s = np.abs(np.sin(np.asarray(lam, dtype=float) / 2.0))
        out = np.zeros_like(s)
        for w, alpha in zip(self.weights, self.alphas):
            out += w * s ** (-alpha)
        return out

    def coefficients(self, cut: int) -> np.ndarray:
        """The lattice coefficients p_0 .. p_cut of P (p_{-j} = p_j), p_j =
        sum_i weights_i c_j(alphas_i), in O(cut) memory; a cut past
        ``MAX_COEFFICIENT_SITE`` raises ``ValueError`` before anything is allocated.

        c_j(alpha) are the coefficients of |sin(lam/2)|^(-alpha) =
        2^alpha (1 - e^{i lam})^(-alpha/2) (1 - e^{-i lam})^(-alpha/2) from its
        two binomial series: c_0 = ``mean_coefficient(alpha)`` and
        c_{j+1} = c_j (j + alpha/2)/(j + 1 - alpha/2), one cumulative product
        per alpha.  Past j = 0 the factor is taken as 1 - (1 - alpha)/(j + 1 -
        alpha/2): the rounding of j + alpha/2 has one sign for every j of a
        binade and would add up over the steps, that of the small quotient
        does not.
        """
        if not 0 <= cut <= MAX_COEFFICIENT_SITE:
            raise ValueError(f"coefficient index {cut} outside [0, {MAX_COEFFICIENT_SITE}]")
        out = np.zeros(cut + 1)
        factors = np.empty(cut + 1)
        steps = np.arange(2.0, cut + 1.0)
        for w, alpha in zip(self.weights, self.alphas):
            # factors[j] takes c_{j-1} to c_j
            factors[:2] = (mean_coefficient(alpha), alpha / (2.0 - alpha))[: cut + 1]
            tail = np.subtract(steps, alpha / 2.0, out=factors[2:])
            np.subtract(1.0, np.divide(1.0 - alpha, tail, out=tail), out=tail)
            out += w * np.cumprod(factors, out=factors)
        return out


def mean_coefficient(alpha: float) -> float:
    """c_0(alpha) = 2^alpha Gamma(1 - alpha)/Gamma(1 - alpha/2)^2, the mean and the
    largest of the lattice coefficients of |sin(lam/2)|^(-alpha), which decrease in |j|."""
    return 2.0**alpha * math.gamma(1.0 - alpha) / math.gamma(1.0 - alpha / 2.0) ** 2


@dataclass(frozen=True)
class SpectralPair:
    """2pi-periodic spectral data (Q, P), one of two representations.

    A trig pair is the trigonometric polynomial with real, finite
    coefficients ``q_coeffs``/``p_coeffs`` at sites ``support_min`` onward,
    frozen after construction.  A closed form is its ``power_sum``: Q = 0
    and P that sum, real, even in lam and singular only at lam = 0 (mod
    2pi).  Exactly one of the two is given.
    """

    support_min: int | None = None
    q_coeffs: np.ndarray | None = None
    p_coeffs: np.ndarray | None = None
    power_sum: PowerSum | None = None

    def __post_init__(self) -> None:
        trig = [v is not None for v in (self.support_min, self.q_coeffs, self.p_coeffs)]
        if not (all(trig) if self.power_sum is None else not any(trig)):
            raise ValueError(
                "a spectral pair takes exactly one of its trig coefficients "
                "(support_min, q_coeffs, p_coeffs) or a power_sum"
            )
        if self.power_sum is None:
            # the trig route takes real FFTs of the coefficients
            _freeze_real_pair(self, "q_coeffs", "p_coeffs")

    def Q(self, lam: float | np.ndarray) -> complex | np.ndarray:
        return self._values(lam, self.q_coeffs, None)

    def P(self, lam: float | np.ndarray) -> complex | np.ndarray:
        return self._values(lam, self.p_coeffs, self.power_sum)

    def _values(self, lam, coeffs, power_sum) -> complex | np.ndarray:
        """The trig polynomial of ``coeffs`` at ``lam`` or, for a closed
        form, ``power_sum`` (None for Q, which is 0)."""
        arr = np.asarray(lam, dtype=float)
        flat = np.atleast_1d(arr)
        if coeffs is not None:
            idx = np.arange(self.support_min, self.support_min + len(coeffs))
            out = np.exp(1j * np.outer(flat, idx)) @ coeffs
        elif power_sum is not None:
            out = power_sum.p_values(flat).astype(complex)
        else:
            out = np.zeros(flat.shape, dtype=complex)
        return complex(out[0]) if arr.ndim == 0 else out


def forward_transform(state: LatticeState) -> SpectralPair:
    """Q(lam) = sum_k q_k e^{i k lam} and likewise P, as a trig polynomial."""
    return SpectralPair(support_min=state.support_min, q_coeffs=state.q, p_coeffs=state.p)


def inverse_transform(spectrum: SpectralPair, k: int) -> tuple[float, float]:
    """(q_k, p_k) = (1/2pi) int_0^{2pi} (Q, P)(lam) e^{-i k lam} dlam, read exactly.

    A trig pair's coefficients are read off.  A closed form has q_k = 0 and
    p_k from ``PowerSum.coefficients``, whose O(|k|) recurrence refuses
    |k| past ``MAX_COEFFICIENT_SITE`` with ``ValueError``.
    """
    if spectrum.power_sum is not None:
        return 0.0, float(spectrum.power_sum.coefficients(abs(k))[-1])
    j = k - spectrum.support_min
    if not 0 <= j < len(spectrum.q_coeffs):
        return 0.0, 0.0
    return float(spectrum.q_coeffs[j]), float(spectrum.p_coeffs[j])


def energy(state: LatticeState, params: ChainParams) -> float:
    """H = sum p^2/2 + (omega0^2/2) sum q^2 + (omega1^2/2) sum (q_k - q_{k-1})^2.

    Conserved by the dynamics; bonds to the zero field outside the support
    are included.
    """
    bonds = np.diff(state.q, prepend=0.0, append=0.0)
    return float(
        0.5 * np.sum(state.p**2)
        + 0.5 * params.omega0**2 * np.sum(state.q**2)
        + 0.5 * params.omega1**2 * np.sum(bonds**2)
    )


def displacement_transform(state: LatticeState) -> LatticeState:
    """Bond variables z_k = q_{k+1} - q_k, u_k = p_{k+1} - p_k.

    These satisfy the same unpinned chain dynamics; the support widens
    by one site on the left and sum(u) telescopes to zero.
    """
    z = np.diff(np.concatenate([[0.0], state.q, [0.0]]))
    u = np.diff(np.concatenate([[0.0], state.p, [0.0]]))
    return LatticeState(support_min=state.support_min - 1, q=z, p=u)


def total_velocity_sum(state: LatticeState) -> float:
    """sum_k p_k(0) -- the conserved total momentum of the initial data."""
    return float(np.sum(state.p))


def site_array(sites) -> np.ndarray:
    """``sites`` as an int64 array, by the one site rule: a 1-d array of
    signed integers, or an iterable of ints within int64 and no bools.
    Anything else, a float, a bool, a string or 2**63, raises ``TypeError``."""
    if not isinstance(sites, np.ndarray):
        sites = list(sites)
        if any(isinstance(k, (bool, np.bool_)) for k in sites):
            raise TypeError("grid sites must be integers, not bools")
    sites = np.asarray(sites)
    if sites.ndim != 1 or sites.size and sites.dtype.kind != "i":
        raise TypeError("grid sites must be a 1-d sequence of integers within int64")
    return sites.astype(np.int64)


@dataclass(frozen=True)
class SolutionGrid:
    """q values on a (times x sites) grid; row-major over times.

    ``sites`` is a read-only, strictly ascending int64 array read by
    ``site_array``; ``values`` a read-only float array of shape ``(len(times),
    len(sites))`` that may hold NaN or infinities.  Iterating yields the
    ``(t, k, q)`` rows, t-major, k and q as Python numbers, as often as asked.
    """

    times: tuple
    sites: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        sites = site_array(self.sites)
        if np.any(sites[1:] <= sites[:-1]):
            raise ValueError("grid sites must be strictly ascending")
        values = np.array(self.values, dtype=float)
        if values.shape != (len(self.times), sites.size):
            raise ValueError("values must have shape (len(times), len(sites))")
        for arr in (sites, values):
            arr.setflags(write=False)
        object.__setattr__(self, "times", tuple(self.times))
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "values", values)

    def __iter__(self):
        sites = self.sites.tolist()
        for t, row in zip(self.times, self.values.tolist()):
            for k, q in zip(sites, row):
                yield t, k, q

    def at(self, t_index: int, site: int) -> float:
        j = int(np.searchsorted(self.sites, site))
        if j == self.sites.size or self.sites[j] != site:
            raise ValueError(f"site {site} is not on the grid")
        return float(self.values[t_index, j])

    def rows(self) -> SolutionGrid:
        """The grid itself.  Kept only because ``perfbench/workloads.py``
        writes ``grid.rows()``; a grid is its own rows."""
        return self
