"""Names, units and better-directions of every metric the benchmark reports.

Shared by run.py, which runs without importing chainwave, and by the
worker's tracer; BENCHMARK.json at the repository root lists the same
names.
"""

#: end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "tasks_per_s": ("1/s", "higher"),
    "task_p50_s": ("s", "lower"),
    "task_tail_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

#: per-layer metrics: name -> (unit, better)
LAYER_METRICS = {
    "bounds.p_values.points": ("count", "lower"),
    "bounds.p_values.self_s": ("s", "lower"),
    "bounds.p_values.ns_per_point": ("ns", "lower"),
    "bounds.epsilon_spectrum.s": ("s", "lower"),
    "quadrature.graded_half_integral.calls": ("count", "lower"),
    "quadrature.graded_half_integral.nodes": ("count", "lower"),
    "quadrature.graded_half_integral.self_s": ("s", "lower"),
    "quadrature.refine.evaluations": ("count", "lower"),
    "quadrature.refine.useful_ratio": ("ratio", "higher"),
    "quadrature.tanh_sinh.calls": ("count", "lower"),
    "quadrature.tanh_sinh.self_s": ("s", "lower"),
    "quadrature.gauss_legendre_panels.self_s": ("s", "lower"),
    "solver.solve_grid.calls": ("count", "lower"),
    "solver.solve_grid.self_s": ("s", "lower"),
    "solver.solve_at.calls": ("count", "lower"),
    "solver.solve_at.self_s": ("s", "lower"),
    "solver.sinc_kernel.self_s": ("s", "lower"),
    "model.dispersion.points": ("count", "lower"),
    "model.dispersion.self_s": ("s", "lower"),
    "model.forward_transform.calls": ("count", "lower"),
    "oracle.steps": ("count", "lower"),
    "oracle.integrate_snapshots.self_s": ("s", "lower"),
    "oracle.site_steps_per_s": ("1/s", "higher"),
    "specfun.bessel_j.calls": ("count", "lower"),
    "specfun.bessel_j.points": ("count", "lower"),
    "specfun.bessel_j.self_s": ("s", "lower"),
    "specfun.lower_incomplete_gamma.self_s": ("s", "lower"),
    "asymptotics.ray_asymptote.self_s": ("s", "lower"),
    "asymptotics.bessel_time_integral.self_s": ("s", "lower"),
    "reports.write_csv.rows": ("count", "lower"),
    "reports.write_csv.self_s": ("s", "lower"),
    "verify.err_to_tol_max": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
