"""chainwave: exact spectral solutions, bounds and asymptotics for the
infinite harmonic chain with finitely supported or closed-form data."""

import os as _os

# CHAINWAVE_THREADS caps the numeric thread pools; it must reach the
# BLAS/OpenMP environment before numpy initializes them
if "CHAINWAVE_THREADS" in _os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["CHAINWAVE_THREADS"])

from .asymptotics import (
    FitResult,
    RayGeometry,
    bessel_time_integral,
    classify_ray,
    envelope_decay_exponent,
    fit_decay_exponent,
    fixed_k_asymptote,
    ray_asymptote,
    ray_discriminant,
    ray_geometry,
)
from .bounds import (
    EpsilonSpectrum,
    GrowthFamily,
    alpha_leading_amplitude,
    alpha_normalization,
    alpha_spectrum,
    energy_sup_bound,
    epsilon_spectrum,
    epsilon_weight,
    growth_family,
    growth_main_integral_gamma,
    growth_main_integral_quadrature,
    growth_prediction,
    log_growth_bound,
    sqrt_growth_bound,
    weight_integral,
)
from .model import (
    ChainParams,
    LatticeState,
    PowerSum,
    SolutionGrid,
    SpectralPair,
    dispersion,
    displacement_transform,
    energy,
    forward_transform,
    inverse_transform,
    total_velocity_sum,
)
from .oracle import (
    OracleConfig,
    energy_drift,
    integrate,
    integrate_snapshots,
    required_radius,
    validity_horizon,
)
from .quadrature import ConvergenceError
from .solver import (
    EdgeDominanceWarning,
    SolverConfig,
    evolve_spectrum,
    max_norm,
    sinc_kernel,
    solve_at,
    solve_grid,
    windowed_sup,
)
from .specfun import (
    bessel_j,
    bohmer_sine_integral,
    dirichlet_constant_check,
    gamma_fn,
    log_gamma,
    lower_incomplete_gamma,
)

__version__ = "0.1.0"
