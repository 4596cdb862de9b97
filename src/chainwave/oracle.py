"""Brute-force oracle: velocity-Verlet integration of the truncated chain.

Independent of the spectral solver in every ingredient (time domain,
finite lattice, no Fourier analysis), which is what makes the
solver-vs-oracle agreement a meaningful cross-check.  Sites beyond the
truncation radius are clamped to q = p = 0; the group speed of the chain
is bounded by omega1, so boundary effects stay outside the observation
window for t below the validity horizon.
"""

from __future__ import annotations

import math
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
        if not 1 <= self.radius < math.inf:
            raise ValueError("radius must be finite and >= 1")
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
    """
    times = [float(t) for t in times]
    if not all(0.0 <= t < math.inf for t in times) or any(
        b < a for a, b in zip(times, times[1:])
    ):
        raise ValueError("times must be finite, nonnegative and nondecreasing")
    _check_preconditions(state, params, cfg)

    n = 2 * cfg.radius + 1
    q = np.zeros(n)
    p = np.zeros(n)
    lo = state.support_min + cfg.radius
    q[lo : lo + len(state.q)] = state.q
    p[lo : lo + len(state.p)] = state.p

    w0sq = params.omega0**2
    w1sq = params.omega1**2

    def acceleration(q: np.ndarray, out: np.ndarray) -> np.ndarray:
        # clamped-zero neighbours beyond the truncation radius
        out[1:-1] = q[2:] - 2.0 * q[1:-1] + q[:-2]
        out[0] = q[1] - 2.0 * q[0]
        out[-1] = q[-2] - 2.0 * q[-1]
        out *= w1sq
        out -= w0sq * q
        return out

    a = acceleration(q, np.empty_like(q))
    a_next = np.empty_like(q)
    snapshots: list[LatticeState] = []
    t_now = 0.0
    for t in times:
        span = t - t_now
        if span > 0.0:
            steps = max(1, int(round(span / cfg.dt)))
            dt = span / steps
            half_dt = 0.5 * dt
            for _ in range(steps):
                q += dt * p + half_dt * dt * a
                acceleration(q, a_next)
                p += half_dt * (a + a_next)
                a, a_next = a_next, a
            t_now = t
        snapshots.append(
            LatticeState(support_min=-cfg.radius, q=q.copy(), p=p.copy())
        )
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
