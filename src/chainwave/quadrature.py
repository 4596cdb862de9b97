"""Quadrature kernels shared by the solver and the special functions.

Four families cover every integral in the package:

* uniform trapezoid on the periodic cell [0, 2pi) -- spectrally accurate
  for smooth periodic integrands, on one mesh certified in advance by an
  a-priori error bound (``certified_mesh``);
* tanh-sinh (double-exponential) rules for non-oscillatory integrals with
  algebraic endpoint singularities, where spectral convergence is wanted
  at modest node counts;
* Gauss-Laguerre rules for the legs of the steepest-descent route, on
  which the oscillation e^{ixs} has become the decay e^{-u};
* composite 16-point Gauss-Legendre panels for the oscillatory bodies of
  the special-function checks (``specfun.bohmer_quadrature`` and
  ``dirichlet_constant_check``), with panels that resolve the oscillation.

``refine_until`` and ``graded_half_integral`` have no caller in the
package; the tracer of ``perfbench/`` binds them by name.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np


class ConvergenceError(RuntimeError):
    """Raised when no mesh within the cap meets the tolerance: the certified
    mesh, or the mesh a closed form's lattice state needs, lies past it."""


def refine_until(
    evaluate: Callable[[int], complex | np.ndarray],
    n_start: int,
    tolerance: float,
    n_max: int,
) -> complex | np.ndarray:
    """Double ``n`` until two successive evaluations agree to ``tolerance``.

    ``evaluate(n)`` must return the quadrature value at resolution ``n``,
    a scalar or an array; two values agree when their largest absolute
    difference is below ``tolerance``.  Returns the finer of the last two
    values.  A start that leaves no doubling within ``n_max`` can never
    converge and raises before anything is evaluated; a run that reaches
    ``n_max`` unconverged raises with its last mesh and difference.
    """
    if 2 * n_start > n_max:
        raise ConvergenceError(
            f"starting mesh {n_start} leaves no doubling within n_max={n_max}"
        )
    value = evaluate(n_start)
    n = n_start
    while 2 * n <= n_max:
        n *= 2
        refined = evaluate(n)
        change = np.max(np.abs(refined - value))
        if change < tolerance:
            return refined
        value = refined
    raise ConvergenceError(
        f"quadrature did not stabilize to {tolerance:g} within n_max={n_max}: "
        f"the last mesh, {n}, still moved by {change:.3g}"
    )


def certified_mesh(
    log_bound: Callable[[int], float],
    n_start: int,
    reach: int,
    tolerance: float,
    n_max: int,
) -> int:
    """The first of ``n_start``, 2 ``n_start``, 4 ``n_start``, ... that
    exceeds 2 ``reach`` and whose a-priori error bound, ``exp(log_bound(n))``,
    is below ``tolerance``.

    The mesh is chosen in arithmetic alone: nothing is evaluated.  A mesh
    past ``n_max`` raises, naming the mesh the bound needs and the bound
    it reaches at ``n_max``.
    """
    n = n_start
    log_tolerance = math.log(tolerance)
    while n <= 2 * reach or log_bound(n) >= log_tolerance:
        n *= 2
    if n > n_max:
        short = f", and a mesh must exceed 2 * {reach}" if n_max <= 2 * reach else ""
        raise ConvergenceError(
            f"the error bound needs mesh {n} > max_mesh={n_max}; at max_mesh it "
            f"reaches 10^{log_bound(n_max) / math.log(10.0):.1f} against the "
            f"tolerance {tolerance:g}{short}"
        )
    return n


def periodic_mesh(n: int) -> np.ndarray:
    """Uniform nodes lam_j = 2 pi j / n, j = 0..n-1 (left endpoints)."""
    return 2.0 * np.pi * np.arange(n) / n


#: exponent of the grading lam = 2 u^4, which clusters nodes at lam = 0 so that
#: integrands with an |sin(lam/2)|^(-a), a < 1/2 singularity become
#: Hoelder-smooth in u
_GRADE = 4


def graded_half_integral(integrand: Callable[[np.ndarray], np.ndarray], n: int) -> float:
    """Integrate a real f(lam) over [0, pi] on n panels of lam = 2 u^4,
    u in [0, (pi/2)^(1/4)], taking the u = 0 node as zero: valid whenever
    f(lam) * dlam/du -> 0, as for |sin(lam/2)|^(-a) with a < 1/2."""
    u = np.linspace(0.0, (np.pi / 2.0) ** (1.0 / _GRADE), n + 1)
    vals = np.zeros(len(u))
    # the Jacobian 8 u^3 is applied in place, so that no mesh-long lam,
    # Jacobian or product array outlives this line
    vals[1:] = integrand(2.0 * u[1:] ** _GRADE)
    vals[1:] *= 2.0 * _GRADE * u[1:] ** (_GRADE - 1)
    return float(np.trapezoid(vals, u))


#: tanh-sinh abscissae run over u in [0, 5]; levels stop at 2^12 steps
_TANH_SINH_U_MAX = 5.0
_TANH_SINH_MAX_LEVEL = 12


def tanh_sinh_pairs(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Double-exponential node pairs for integrals over (0, 1).

    Returns ``(d, w)`` where ``d[j]`` is the distance of the j-th node
    from its *nearer* endpoint and ``w[j]`` its weight; each entry stands
    for the symmetric pair {d_j, 1 - d_j} except ``d[0] = 1/2`` (the
    center node, to be counted once).  Distances are computed as
    exp(-2s)/(1 + exp(-2s)) rather than (1 - tanh s)/2, which keeps full
    relative precision down to d ~ 1e-100 -- essential when the integrand
    has an endpoint singularity.
    """
    h = _TANH_SINH_U_MAX / (1 << level)
    u = np.arange(0, (1 << level) + 1) * h
    s = np.pi / 2.0 * np.sinh(u)
    e = np.exp(-2.0 * s)
    d = e / (1.0 + e)
    w = h * np.pi * np.cosh(u) * e / (1.0 + e) ** 2
    keep = (d > 0.0) & (w > 1e-300)
    return d[keep], w[keep]


def tanh_sinh(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tolerance: float = 1e-12,
) -> float:
    """Integrate f over (a, b), allowing algebraic endpoint singularities.

    Levels are doubled until two successive values agree to ``tolerance``
    (absolute, scaled by the running magnitude).  The integrand is never
    evaluated at the endpoints themselves.
    """
    scale = b - a
    previous = None
    for level in range(6, _TANH_SINH_MAX_LEVEL + 1):
        d, w = tanh_sinh_pairs(level)
        left = np.sum(f(a + scale * d[1:]) * w[1:])
        right = np.sum(f(b - scale * d[1:]) * w[1:])
        center = f(np.array([a + 0.5 * scale]))[0] * w[0]
        value = float((left + right + center) * scale)
        if previous is not None and abs(value - previous) <= tolerance * max(
            1.0, abs(value)
        ):
            return value
        previous = value
    raise ConvergenceError(
        f"tanh-sinh quadrature did not stabilize to {tolerance:g} "
        f"by level {_TANH_SINH_MAX_LEVEL}"
    )


def gauss_laguerre(n: int, betas) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rules for int_0^inf u^beta e^{-u} f(u) du, one for each
    beta > -1, as ``(nodes, weights)`` of shape (len(betas), n).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    generalized Laguerre polynomials (diagonal 2j + beta + 1, off-diagonal
    sqrt(j (j + beta))), and each weight is Gamma(beta + 1) times the
    squared first component of its eigenvector.  One ``eigh`` call on the
    stack of matrices serves every beta.
    """
    betas = np.asarray(betas, dtype=float)
    j = np.arange(n)
    jacobi = np.zeros((len(betas), n, n))
    jacobi[:, j, j] = 2.0 * j + betas[:, None] + 1.0
    # eigh reads the lower triangle only
    jacobi[:, j[1:], j[:-1]] = np.sqrt(j[1:] * (j[1:] + betas[:, None]))
    nodes, vectors = np.linalg.eigh(jacobi)
    mass = np.array([math.gamma(b + 1.0) for b in betas])
    return nodes, mass[:, None] * vectors[:, 0, :] ** 2


@functools.cache
def _legendre() -> tuple[np.ndarray, np.ndarray]:
    """16-point Gauss-Legendre nodes and weights on [-1, 1], built on first
    use so that importing chainwave does not load numpy.polynomial."""
    return np.polynomial.legendre.leggauss(16)


def gauss_legendre_panels(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    n_panels: int,
) -> float:
    """Composite 16-point Gauss-Legendre rule; panels must resolve the oscillation."""
    x, w = _legendre()
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    return float(np.sum(f(nodes.ravel()).reshape(nodes.shape) * w[None, :] * half[:, None]))
