"""Brute-force oracle: velocity-Verlet integration of the truncated chain.

Independent of the spectral solver in every ingredient (time domain,
finite lattice, no Fourier analysis), which is what makes the
solver-vs-oracle agreement a meaningful cross-check.  Sites beyond the
truncation radius are clamped to q = p = 0, held as one zero ghost site
beyond each end of the q buffer; the group speed of the chain is bounded
by omega1, so boundary effects stay outside the observation window for t
below the validity horizon.

Velocity Verlet runs in its summed form, where consecutive half kicks
merge (Hairer, Lubich & Wanner, Acta Numerica 12, 2003); see
:func:`integrate_snapshots`.  The summed step is linear and
shift-invariant, so a segment of S steps goes in about log2 S blocks of
2^j steps, each four convolutions with stencils from squaring the
one-step map, the clamped ends taken as odd reflections.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import ChainParams, LatticeState, energy

#: sites of safety margin added on top of the ballistic travel distance
HORIZON_MARGIN = 50

#: stability/accuracy guard for the integrator step
MAX_STEP_FREQUENCY = 0.5

#: most steps one pass may take, counted as t_final / dt; a pass of
#: criterion 1's companion takes about 2e5
MAX_PASS_STEPS = 1 << 24


@dataclass(frozen=True)
class OracleConfig:
    """Truncation radius and step size for the Verlet integrator."""

    radius: int
    dt: float

    def __post_init__(self) -> None:
        if isinstance(self.radius, bool) or not isinstance(self.radius, numbers.Integral):
            raise ValueError(f"radius must be an integer, got {self.radius!r}")
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")


def required_radius(k_max: int, t_final: float, params: ChainParams) -> int:
    """Smallest admissible radius for observing |k| <= k_max up to t_final."""
    return k_max + int(math.ceil(params.omega1 * t_final)) + HORIZON_MARGIN


def validity_horizon(cfg: OracleConfig, params: ChainParams, k_max: int) -> float:
    """Largest t with negligible boundary influence at sites |k| <= k_max.

    Uses the group-speed bound max |omega'(lam)| <= omega1: influence from
    the clamped boundary needs t > (radius - k_max - margin)/omega1 to
    reach the observation window.
    """
    return max(0.0, (cfg.radius - k_max - HORIZON_MARGIN)) / params.omega1


def _check_preconditions(
    state: LatticeState, params: ChainParams, t_final: float, cfg: OracleConfig
) -> None:
    if state.support_min < -cfg.radius or state.support_max > cfg.radius:
        raise ValueError(
            f"state support [{state.support_min}, {state.support_max}] exceeds "
            f"truncation radius {cfg.radius}"
        )
    if cfg.dt * params.omega0_prime > MAX_STEP_FREQUENCY:
        raise ValueError(
            f"unstable step: dt * omega0' = {cfg.dt * params.omega0_prime:.3g} "
            f"> {MAX_STEP_FREQUENCY}"
        )
    if t_final / cfg.dt > MAX_PASS_STEPS:
        raise ValueError(
            f"t_final / dt = {t_final / cfg.dt:.3g} exceeds the cap of {MAX_PASS_STEPS} steps"
        )


def integrate(
    state: LatticeState,
    params: ChainParams,
    t_final: float,
    cfg: OracleConfig,
) -> LatticeState:
    """Evolve the truncated chain to t_final with velocity Verlet."""
    snapshots = integrate_snapshots(state, params, [t_final], cfg)
    return snapshots[0]


def integrate_snapshots(
    state: LatticeState,
    params: ChainParams,
    times,
    cfg: OracleConfig,
) -> list[LatticeState]:
    """One Verlet pass recording the state at each requested time.

    Times must be nondecreasing, and the last at most ``MAX_PASS_STEPS``
    steps of ``cfg.dt``.  Each segment between snapshots runs at a
    constant step as close to cfg.dt as divides the segment exactly (the
    adjustment is below dt/2 per segment), so snapshots land on the
    requested times and results are deterministic for a given config.
    With ``drift = dt p_{n+1/2}`` one step of the summed form is

        q += drift;  drift += dt^2 (omega1^2 (q_{k-1} + q_{k+1}) - (2 omega1^2 + omega0^2) q_k)

    A half kick opens each constant-step segment (``drift = dt p + dt^2 a/2``)
    and one closes it (``p = (drift - dt^2 a/2) / dt``, with the acceleration
    of the final q), so snapshots carry ``p`` at their time.  The q buffer
    has one zero ghost site beyond each end: the clamped boundary.  A span
    shorter than the smallest normal double is not stepped: its snapshot
    is the state at the previous time, which differs by less than the span
    times ``|p|``, and the next segment starts from there.

    Between the half kicks a segment of S steps runs in stencil blocks of
    2^j steps.  The step is linear and shift-invariant, so a block is four
    convolutions, its stencils level j of a ladder built by squaring the
    one-step map once per step size in the call (see :func:`_doubled`),
    the clamped ends taken as odd reflections about the ghost sites (see
    :func:`_advance`).  The ladder's top level is the highest with
    ``2^top <= S`` whose stencils one reflection still serves; the
    segment takes ``S >> top`` blocks of that level, then one block for
    each set bit of the remainder below it.
    """
    times = [float(t) for t in times]
    if not all(0.0 <= t < math.inf for t in times) or any(
        b < a for a, b in zip(times, times[1:])
    ):
        raise ValueError("times must be finite, nonnegative and nondecreasing")
    _check_preconditions(state, params, max(times, default=0.0), cfg)

    n = 2 * cfg.radius + 1
    ghosted = np.zeros(n + 2)
    q = ghosted[1:-1]
    p = np.zeros_like(q)
    lo = state.support_min + cfg.radius
    q[lo : lo + len(state.q)] = state.q
    p[lo : lo + len(state.p)] = state.p
    drift = np.empty_like(q)
    half = np.empty_like(q)

    w1sq = params.omega1**2
    diag = 2.0 * w1sq + params.omega0**2
    ladders: dict[float, list[np.ndarray]] = {}
    snapshots: list[LatticeState] = []
    t_now = 0.0
    for t in times:
        span = t - t_now
        # below the smallest normal double, dt p keeps only a few bits
        if span >= np.finfo(float).tiny:
            steps = max(1, int(round(span / cfg.dt)))
            dt = span / steps
            c1 = dt * dt * w1sq
            c0 = dt * dt * diag
            if dt not in ladders:
                ladders[dt] = [_one_step(c1, c0)]
            ladder = ladders[dt]
            while 2 ** len(ladder) <= steps:
                level = _doubled(ladder[-1])
                # one odd reflection serves stencils reaching W <= sites + 1
                if len(level[0]) // 2 - 1 > n:
                    break
                ladder.append(level)
            top = min(len(ladder), steps.bit_length()) - 1
            # opening half kick
            _half_kick(ghosted, c1, c0, half)
            np.multiply(p, dt, out=drift)
            drift += half
            for _ in range(steps >> top):
                _advance(q, drift, ladder[top])
            for j in range(top):
                if steps >> j & 1:
                    _advance(q, drift, ladder[j])
            # closing half kick
            _half_kick(ghosted, c1, c0, half)
            np.subtract(drift, half, out=p)
            p /= dt
            t_now = t
        snapshots.append(LatticeState(support_min=-cfg.radius, q=q, p=p))
    return snapshots


def _half_kick(ghosted, c1: float, c0: float, out) -> None:
    """``out = dt^2 a / 2`` of the q held between the zero ghosts of ``ghosted``."""
    np.add(ghosted[:-2], ghosted[2:], out=out)
    out *= 0.5 * c1
    out -= 0.5 * c0 * ghosted[1:-1]


def _one_step(c1: float, c0: float) -> np.ndarray:
    """Level 0 of the ladder: one summed-form step on the unbounded chain.

    The step maps ``(q, drift)`` to ``(a * q + b * drift, c * q + e * drift)``,
    ``*`` being convolution: ``q' = q + drift`` and ``drift' = drift + L q'``
    with ``L = [c1, -c0, c1]``, so ``a = b = delta``, ``c = L`` and
    ``e = delta + L``.  The ladder holds the increments ``(a - delta, b, c,
    e - delta)``, here ``(0, delta, L, L)``: storing ``e`` itself would
    round away the low bits of its O(dt^2) entries next to the unit centre.
    """
    L = np.array([c1, -c0, c1])
    delta = np.array([0.0, 1.0, 0.0])
    return np.array([np.zeros(3), delta, L, L])


def _doubled(level: np.ndarray) -> np.ndarray:
    """The ladder level after ``level``: its map composed with itself.

    With ``a = delta + A`` and ``e = delta + E`` the square of the map
    ``[[a, b], [c, e]]`` has the increments

        A' = 2A + A*A + b*c,  b' = 2b + b*(A + E),
        c' = 2c + c*(A + E),  E' = 2E + E*E + b*c,

    the convolutions commuting.  Far from the centre the entries fall off
    factorially; the outer sites where all four are below eps^2 of their
    largest are cut off.  Each term so dropped is below eps^2 times the
    largest entry times its datum, far below the rounding of one step, and
    the convolutions are spared both its work and its subnormal products.
    At least one site a side is kept.
    """
    A, b, c, E = level
    r = len(A) // 2
    bc = np.convolve(b, c)
    AE = A + E
    out = np.array([
        np.convolve(A, A) + bc,
        np.convolve(b, AE),
        np.convolve(c, AE),
        np.convolve(E, E) + bc,
    ])
    out[:, r : 3 * r + 1] += 2.0 * level
    size = np.abs(out)
    felt = np.any(size >= np.finfo(float).eps ** 2 * size.max(axis=1, keepdims=True), axis=0)
    reach = max(1, 2 * r - int(np.argmax(felt)))
    return out[:, 2 * r - reach : 2 * r + reach + 1]


def _advance(q, drift, stencils) -> None:
    """Advance ``(q, drift)`` in place by one ladder block.

    The clamped chain is the unbounded chain whose data are odd about each
    zero ghost site (the stencils are symmetric, so oddness and the zero
    ghosts persist).  Stencils that reach W sites need the data extended
    by their zero ghosts and W - 1 reflected sites beyond each; one
    reflection suffices while W - 1 <= sites, which the ladder's top ensures.
    """
    A, b, c, E = stencils
    reflected = len(A) // 2 - 1
    xq = _odd_extension(q, reflected)
    xd = _odd_extension(drift, reflected)
    q += np.convolve(xq, A, "valid") + np.convolve(xd, b, "valid")
    drift += np.convolve(xq, c, "valid") + np.convolve(xd, E, "valid")


def _odd_extension(x, m: int):
    """``x`` between zero ghost sites, each followed by ``m`` sites of -x mirrored."""
    zero = np.zeros(1)
    return np.concatenate((-x[:m][::-1], zero, x, zero, -x[len(x) - m :][::-1]))


def energy_drift(
    state: LatticeState,
    params: ChainParams,
    t_final: float,
    cfg: OracleConfig,
) -> float:
    """|H(t_final) - H(0)| / max(H(0), 1e-300) for the truncated system.

    Velocity Verlet is symplectic, so the deviation stays bounded (no
    secular growth) and scales as O(dt^2).
    """
    h0 = energy(state, params)
    final = integrate(state, params, t_final, cfg)
    h1 = energy(final, params)
    return abs(h1 - h0) / max(h0, 1e-300)
