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
:func:`integrate_batch`, whose one-state case is :func:`integrate_snapshots`.
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
    state: LatticeState, params: ChainParams, cfg: OracleConfig
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

    Times must be nondecreasing.  Each segment between snapshots runs at a
    constant step as close to cfg.dt as divides the segment exactly (the
    adjustment is below dt/2 per segment), so snapshots land on the
    requested times and results are deterministic for a given config.
    This is the one-state case of :func:`integrate_batch`.
    """
    return integrate_batch([state], params, times, cfg)[0]


def integrate_batch(
    states,
    params: ChainParams,
    times,
    cfg: OracleConfig,
) -> list[list[LatticeState]]:
    """One Verlet pass over several states at once; per state, its snapshots.

    The states are the columns of one ``(sites, states)`` array, and each
    column is bit-identical to its one-state run (every operation is
    elementwise).  With ``drift = dt p_{n+1/2}`` one step of the summed
    form is six in-place operations on preallocated buffers:

        q += drift;  drift += dt^2 (omega1^2 (q_{k-1} + q_{k+1}) - (2 omega1^2 + omega0^2) q_k)

    A half kick opens each constant-step segment (``drift = dt p + dt^2 a/2``)
    and one closes it (``p = (drift - dt^2 a/2) / dt``, with the last
    step's acceleration), so snapshots carry ``p`` at their time.  The
    q buffer has one zero ghost site beyond each end: the clamped boundary.
    """
    states = list(states)
    if not states:
        raise ValueError("at least one state is required")
    times = [float(t) for t in times]
    if not all(0.0 <= t < math.inf for t in times) or any(
        b < a for a, b in zip(times, times[1:])
    ):
        raise ValueError("times must be finite, nonnegative and nondecreasing")
    for state in states:
        _check_preconditions(state, params, cfg)

    n = 2 * cfg.radius + 1
    ghosted = np.zeros((n + 2, len(states)))
    q = ghosted[1:-1]
    left, right = ghosted[:-2], ghosted[2:]
    p = np.zeros_like(q)
    for j, state in enumerate(states):
        lo = state.support_min + cfg.radius
        q[lo : lo + len(state.q), j] = state.q
        p[lo : lo + len(state.p), j] = state.p
    drift = np.empty_like(q)
    kick = np.empty_like(q)
    scratch = np.empty_like(q)

    w1sq = params.omega1**2
    diag = 2.0 * w1sq + params.omega0**2
    snapshots: list[list[LatticeState]] = [[] for _ in states]
    t_now = 0.0
    for t in times:
        span = t - t_now
        if span > 0.0:
            steps = max(1, int(round(span / cfg.dt)))
            dt = span / steps
            c1 = dt * dt * w1sq
            c0 = dt * dt * diag
            # opening half kick
            np.add(left, right, out=kick)
            kick *= 0.5 * c1
            np.multiply(q, 0.5 * c0, out=scratch)
            kick -= scratch
            np.multiply(p, dt, out=drift)
            drift += kick
            for _ in range(steps):
                q += drift
                np.add(left, right, out=kick)
                kick *= c1
                np.multiply(q, c0, out=scratch)
                kick -= scratch
                drift += kick
            # closing half kick
            kick *= 0.5
            np.subtract(drift, kick, out=p)
            p /= dt
            t_now = t
        for j, column in enumerate(snapshots):
            column.append(LatticeState(support_min=-cfg.radius, q=q[:, j], p=p[:, j]))
    return snapshots


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
