"""Command-line driver.

    chainwave <command> --config <path> [--out <path>]

Commands: simulate, oracle-compare, bounds-check, asymptotics, growth,
specfun-selftest.  Configs are single JSON files; every tolerance is
explicit in the file (with documented defaults), so a config rerun is
byte-identical.  Exit codes: 0 all checks passed, 1 a check failed,
2 invalid config, 3 quadrature did not converge.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .asymptotics import (
    classify_ray,
    fit_decay_exponent,
    fixed_k_asymptote,
    ray_asymptote,
    ray_geometry,
)
from .bounds import (
    alpha_normalization,
    alpha_spectrum,
    energy_sup_bound,
    epsilon_spectrum,
    growth_main_integral_gamma,
    growth_main_integral_quadrature,
    sqrt_growth_bound,
)
from .model import ChainParams, LatticeState, energy, forward_transform
from .oracle import (
    MAX_PASS_STEPS,
    MAX_STEP_FREQUENCY,
    OracleConfig,
    integrate_snapshots,
    required_radius,
)
from .quadrature import ConvergenceError, tanh_sinh
from .reports import GridRows, summary_path_for, write_csv, write_summary
from .solver import SolverConfig, solve_at, solve_grid, windowed_sup
from .specfun import (
    bohmer_quadrature,
    bohmer_sine_integral,
    dirichlet_constant_check,
    gamma_fn,
    lower_incomplete_gamma,
)

_COMMANDS = (
    "simulate",
    "oracle-compare",
    "bounds-check",
    "asymptotics",
    "growth",
    "specfun-selftest",
)


#: commands whose checks need lattice data; closed forms have singular or
#: infinite-energy lattice realizations
_NEEDS_STATE = ("oracle-compare", "bounds-check", "asymptotics")

#: commands that read k_grid
_NEEDS_SITES = ("simulate", "oracle-compare", "asymptotics")

#: most points a grid, or a t_grid x k_grid product, may hold; checked first
MAX_GRID_POINTS = 1 << 20


@dataclass
class RunConfig:
    """A config as read: the command, its raw JSON and the output path."""

    command: str
    raw: dict[str, Any]
    output_path: str

    @classmethod
    def from_file(cls, path: str | Path, command: str, out: str | None = None) -> "RunConfig":
        """The config at ``path``, run as ``command``; output ``<command>.csv`` by default."""
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        if raw.get("command") not in (None, command):
            raise ValueError(
                f"config file declares command {raw['command']!r} "
                f"but {command!r} was requested"
            )
        output = out or raw.get("output_path") or f"{command}.csv"
        return cls(command=command, raw=raw, output_path=output)


def _section(parent: dict, key: str) -> dict:
    """parent[key] as a JSON object; an absent or null key reads as empty."""
    value = parent.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be a JSON object")
    return value


def _parse_grid(grid_spec, integer: bool = False) -> list:
    if isinstance(grid_spec, list):
        _cap_points(len(grid_spec), "grid")
        vals = [_real(v, "grid value") for v in grid_spec]
    elif isinstance(grid_spec, dict):
        start, stop = (_real(grid_spec[end], f"grid {end}") for end in ("start", "stop"))
        count = _integer(grid_spec["count"], "grid count")
        scale = grid_spec.get("scale", "linear")
        if count < 1:
            raise ValueError("grid count must be >= 1")
        _cap_points(count, "grid count")
        if scale == "linear":
            vals = [start + (stop - start) * i / max(count - 1, 1) for i in range(count)]
        elif scale == "geometric":
            if start <= 0 or stop <= 0:
                raise ValueError("geometric grid requires positive endpoints")
            ratio = (stop / start) ** (1.0 / max(count - 1, 1))
            vals = [start * ratio**i for i in range(count)]
        else:
            raise ValueError(f"unknown grid scale {scale!r}")
    else:
        raise ValueError("grid must be a list or a {start, stop, count, scale} object")
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("grid values must be finite")
    # a listed site must be an integer; a {start, stop, count} grid is rounded
    if integer and isinstance(grid_spec, list) and any(v != round(v) for v in vals):
        raise ValueError("grid values must be integers")
    return [round(v) for v in vals] if integer else vals


def _integer(value, key: str) -> int:
    """``value`` as an int: an int or an integral float, never a bool."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"{key} must be an integer, not {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """``value`` as a float: an int or a float, never a bool or a string."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"{key} must be a number, not {value!r}")
    return float(value)


def _cap_points(points: int, key: str) -> None:
    """Refuse a grid past ``MAX_GRID_POINTS`` before it is built."""
    if points > MAX_GRID_POINTS:
        raise ValueError(f"{key} of {points} points exceeds the cap of {MAX_GRID_POINTS}")


def _finite(value, key: str, low: float, strict: bool = False) -> float:
    """``value`` as a finite float, at least ``low`` (above it when ``strict``)."""
    value = _real(value, key)
    if not (value > low if strict else value >= low) or not math.isfinite(value):
        raise ValueError(f"must be finite and {'>' if strict else '>='} {low:g}")
    return value


def _time_grid(grid_spec, low: float, strict: bool = False) -> list:
    """A grid of times, each at least ``low`` (above it when ``strict``)."""
    times = _parse_grid(grid_spec)
    for t in times:
        _finite(t, "t_grid", low, strict)
    return times


def parse(config: RunConfig) -> tuple[dict[str, Any], list[str]]:
    """Every input the command uses, each built once, and every config problem.

    Inputs are keyed by config key and are complete only when the problem
    list is empty.  Each value is built by the dataclass or check the
    library uses and its errors are collected under the key it came from;
    only the checks across keys are written out here.
    """
    raw = config.raw
    command = config.command
    if command not in _COMMANDS:
        return {}, [f"unknown command {command!r}; expected one of {', '.join(_COMMANDS)}"]
    inputs: dict[str, Any] = {}
    problems: list[str] = []
    if command == "specfun-selftest":
        return inputs, problems

    def build(key: str, builder, *args):
        try:
            return builder(*args)
        except KeyError as exc:
            problems.append(f"{key}: missing key {exc}")
        except (TypeError, ValueError) as exc:
            message = str(exc)
            problems.append(message if message.startswith(key) else f"{key}: {message}")
        return None

    def finite(key: str, value, low: float, strict: bool = False):
        return build(key, _finite, value, key, low, strict)

    def tolerance(key: str, default: float) -> None:
        section = build("tolerances", _section, raw, "tolerances") or {}
        inputs[key] = finite(f"tolerances.{key}", section.get(key, default), 0.0, True)

    params = inputs["params"] = build("params", _build_params, raw)
    pinned = params is not None and params.pinned

    if command == "growth":
        eps = inputs["epsilon"] = build("epsilon", _real, raw.get("epsilon", 0.4), "epsilon")
        if eps is not None and not 0.0 < eps < 0.5:
            problems.append("epsilon must lie in (0, 1/2)")
        if pinned:
            problems.append("growth requires omega0 = 0 (unpinned chain)")
        t_grid = raw.get("t_grid", [10.0, 100.0, 1000.0])
        inputs["t_grid"] = build("t_grid", _time_grid, t_grid, 1.0, True)
        tolerance("identity_rel", 1e-8)
        inputs["limit_t"] = finite("limit_t", raw.get("limit_t", 1e6), 1.0)
        stress = build("full_chain", _section, raw, "full_chain")
        if stress:
            rel_tol = stress.get("rel_tol", 0.1)
            inputs["full_chain"] = {
                "t": finite("full_chain.t", stress.get("t", 1e6), 1.0),
                "rel_tol": finite("full_chain.rel_tol", rel_tol, 0.0, True),
                "solver": build("full_chain", _build_stress_cfg, stress),
            }
        return inputs, problems

    spectrum, state = build("initial_data", _build_spectrum, raw) or (None, None)
    inputs.update(spectrum=spectrum, state=state)
    if spectrum is not None and state is None:  # closed form
        if command in _NEEDS_STATE:
            problems.append(f"{command} requires inline 'state' data")
        if pinned:
            problems.append("closed-form data is defined for the unpinned chain; set omega0 = 0")

    regime = inputs["regime"] = raw.get("regime", "fixed-k")
    ray = command == "asymptotics" and regime == "ray"
    if command == "asymptotics" and regime not in ("fixed-k", "ray"):
        problems.append("asymptotics.regime must be 'fixed-k' or 'ray'")
    elif ray:
        inputs["beta"] = finite("beta", raw.get("beta", 0.0), 0.0, True)
        tolerance("subsonic_floor", 1e-6)

    # fixed-k asymptotes need t > 0; the ray regime takes its times from beta
    t_grid = inputs["t_grid"] = [] if ray else build(
        "t_grid", _time_grid, raw.get("t_grid", []), 0.0, command == "asymptotics"
    )
    if t_grid == [] and not ray:
        problems.append("t_grid must be non-empty")
    k_grid = inputs["k_grid"] = build("k_grid", _parse_grid, raw.get("k_grid", []), True)
    if k_grid == [] and command in _NEEDS_SITES:
        problems.append("k_grid must be non-empty")
    if command in _NEEDS_SITES and t_grid and k_grid:
        build("t_grid x k_grid", _cap_points, len(t_grid) * len(k_grid), "t_grid x k_grid")
    if ray and k_grid and 0 in k_grid:
        problems.append("k_grid: the ray regime needs sites k != 0")
    inputs["solver"] = build("solver", _build_solver_cfg, raw)

    if command == "oracle-compare":
        ocfg = inputs["oracle"] = build("oracle", _build_oracle_cfg, raw)
        tolerance("oracle_match", 1e-6)
        inputs["oracle_csv"] = Path(config.output_path).with_suffix(".oracle.csv")
        if params is not None and ocfg is not None:
            if ocfg.dt * params.omega0_prime > MAX_STEP_FREQUENCY:
                problems.append(
                    f"oracle.dt violates stability: dt * omega0' must be <= {MAX_STEP_FREQUENCY}"
                )
            if t_grid and max(t_grid) / ocfg.dt > MAX_PASS_STEPS:
                problems.append(
                    f"oracle.dt: max(t_grid) / dt = {max(t_grid) / ocfg.dt:.3g} exceeds "
                    f"the cap of {MAX_PASS_STEPS} steps"
                )
            if t_grid and k_grid:
                needed = required_radius(max(abs(k) for k in k_grid), max(t_grid), params)
                if ocfg.radius < needed:
                    problems.append(
                        f"oracle.radius {ocfg.radius} is below the horizon rule; "
                        f"minimal admissible radius is {needed}"
                    )
    return inputs, problems


def validate(config: RunConfig) -> list[str]:
    """All config violations; empty list means the config is runnable."""
    return parse(config)[1]


def _build_params(raw: dict) -> ChainParams:
    p = _section(raw, "params")
    return ChainParams(
        omega0=_real(p.get("omega0", 0.0), "params.omega0"),
        omega1=_real(p["omega1"], "params.omega1"),
    )


def _build_spectrum(raw: dict):
    data = _section(raw, "initial_data")
    if ("state" in data) == ("closed_form" in data):
        raise ValueError("initial_data must contain exactly one of 'state' or 'closed_form'")
    if "state" in data:
        fields = _section(data, "state")
        _integer(fields["support_min"], "initial_data.state.support_min")
        for name in ("q", "p"):
            for v in fields[name]:
                _real(v, f"initial_data.state.{name}")
        state = LatticeState.from_dict(fields)
        return forward_transform(state), state
    cf = _section(data, "closed_form")
    if cf["name"] == "alpha-family":
        return alpha_spectrum(_real(cf["alpha"], "initial_data.closed_form.alpha")), None
    if cf["name"] == "epsilon-family":
        return epsilon_spectrum(_real(cf["epsilon"], "initial_data.closed_form.epsilon")), None
    raise ValueError(f"unknown closed form {cf['name']!r}")


def _build_solver_cfg(raw: dict) -> SolverConfig:
    s = _section(raw, "solver")
    return SolverConfig(
        mesh_points=_integer(s.get("mesh_points", 64), "solver.mesh_points"),
        tolerance=_real(s.get("tolerance", 1e-11), "solver.tolerance"),
        max_mesh=_integer(s.get("max_mesh", 1 << 24), "solver.max_mesh"),
    )


def _build_stress_cfg(stress: dict) -> SolverConfig:
    return SolverConfig(
        mesh_points=64,
        tolerance=_real(stress.get("abs_tol", 1e-2), "full_chain.abs_tol"),
        max_mesh=_integer(stress.get("max_mesh", 1 << 24), "full_chain.max_mesh"),
    )


def _build_oracle_cfg(raw: dict) -> OracleConfig:
    o = _section(raw, "oracle")
    radius = _integer(o["radius"], "oracle.radius")
    _cap_points(2 * radius + 1, "oracle.radius: a lattice")
    return OracleConfig(radius=radius, dt=_real(o["dt"], "oracle.dt"))


def _cmd_simulate(inputs: dict) -> tuple[GridRows, dict, bool]:
    grid = solve_grid(
        inputs["spectrum"], inputs["params"], inputs["t_grid"], inputs["k_grid"], inputs["solver"]
    )
    summary = {"max_abs_q": float(np.max(np.abs(grid.values))), "rows": grid.values.size}
    return grid.rows(), summary, True


def _cmd_oracle_compare(inputs: dict) -> tuple[GridRows, dict, bool]:
    params = inputs["params"]
    times = sorted(inputs["t_grid"])
    sites = sorted(set(inputs["k_grid"]))
    tol = inputs["oracle_match"]

    grid = solve_grid(inputs["spectrum"], params, times, sites, inputs["solver"])
    snapshots = integrate_snapshots(inputs["state"], params, times, inputs["oracle"])
    # one slice per snapshot; sites outside its lattice read 0.0
    k = np.asarray(sites)
    oracle = np.zeros((len(snapshots), k.size))
    for row, snap in zip(oracle, snapshots):
        j = k - snap.support_min
        inside = (j >= 0) & (j < len(snap.q))
        row[inside] = snap.q[j[inside]]
    worst = float(np.max(np.abs(grid.values - oracle)))
    oracle_path = inputs["oracle_csv"]
    write_csv(oracle_path, ["t", "k", "q"], GridRows(times, sites, oracle))
    summary = {"max_residual": worst, "oracle_csv": str(oracle_path), "tolerance": tol}
    return grid.rows(), summary, worst <= tol


def _cmd_bounds_check(inputs: dict) -> tuple[list, dict, bool]:
    params, spectrum, state = inputs["params"], inputs["spectrum"], inputs["state"]
    rows = []
    ok = True
    worst_residual = math.inf
    for t in inputs["t_grid"]:
        m = windowed_sup(spectrum, params, t, inputs["solver"])
        if params.pinned:
            bound_name = "energy-sup"
            bound = energy_sup_bound(params, energy(state, params))
        else:
            bound_name = "sqrt-growth"
            bound = sqrt_growth_bound(t, state.q_norm(), state.p_norm(), params)
        residual = bound - m
        worst_residual = min(worst_residual, residual)
        ok = ok and residual >= -1e-9
        rows.append((t, m, bound_name, bound, residual))
    summary = {"min_bound_margin": worst_residual}
    return rows, summary, ok


def _cmd_asymptotics(inputs: dict) -> tuple[list, dict, bool]:
    params, spectrum, cfg = inputs["params"], inputs["spectrum"], inputs["solver"]
    regime = inputs["regime"]
    rows = []
    summary: dict[str, Any] = {"regime": regime}
    ok = True

    if regime == "fixed-k":
        times = sorted(inputs["t_grid"])
        label = "fixed-k-pinned" if params.pinned else "fixed-k-unpinned"
        for k in inputs["k_grid"]:
            scaled = []
            for t in times:
                exact = solve_at(spectrum, params, t, k, cfg)
                pred = fixed_k_asymptote(spectrum, params, k, t)
                res = exact - pred
                scaled.append(abs(res) * math.sqrt(t))
                rows.append((label, k, t, exact, pred, res, scaled[-1]))
            ok = ok and scaled[-1] <= scaled[0] + 1e-12
        summary["final_scaled_residual"] = rows[-1][6] if rows else 0.0
    else:
        beta = inputs["beta"]
        # each listed site as given, nearest first; t = beta |k|
        sites = sorted(set(inputs["k_grid"]), key=lambda k: (abs(k), k))
        kind = classify_ray(beta, params)
        summary["classification"] = kind
        values = []
        scaled = []
        geo = ray_geometry(beta, params) if kind == "supersonic" else None
        for k in sites:
            t = beta * abs(k)
            exact = solve_at(spectrum, params, t, k, cfg)
            pred = ray_asymptote(spectrum, geo, k, params) if geo is not None else 0.0
            res = exact - pred
            values.append(exact)
            scaled.append(abs(res) * math.sqrt(abs(k)))
            rows.append((f"ray-{kind}", k, t, exact, pred, res, scaled[-1]))
        if kind == "supersonic":
            ok = scaled[-1] <= scaled[0] + 1e-12
        elif kind == "subsonic":
            ok = abs(values[-1]) <= inputs["subsonic_floor"]
        else:
            fit = fit_decay_exponent([abs(k) for k in sites], values)
            summary["fitted_exponent"] = fit.exponent
            summary["r_squared"] = fit.r_squared
            ok = fit.saturated or fit.exponent > 0.0
    return rows, summary, ok


def _cmd_growth(inputs: dict) -> tuple[list, dict, bool]:
    params, eps = inputs["params"], inputs["epsilon"]
    delta = eps + 0.5
    rows = []
    ok = True
    worst = 0.0
    for t in sorted(inputs["t_grid"]):
        lhs = growth_main_integral_quadrature(t, delta)
        rhs = growth_main_integral_gamma(t, delta)
        rel = abs(lhs - rhs) / abs(rhs)
        worst = max(worst, rel)
        ok = ok and rel <= inputs["identity_rel"]
        rows.append((t, delta, lhs, rhs, rel))
    lower = lower_incomplete_gamma(delta, math.log(inputs["limit_t"]) / 2.0)
    summary: dict[str, Any] = {
        "delta": delta,
        "max_identity_rel_err": worst,
        "gamma_ratio_at_limit_t": lower / gamma_fn(delta),
        "limit_value": gamma_fn(delta) / math.sqrt(2.0 * params.omega1),
    }

    stress = inputs.get("full_chain")
    if stress:
        t_stress = stress["t"]
        q0 = solve_at(epsilon_spectrum(eps), params, t_stress, 0, stress["solver"])
        ratio = q0 * math.log(t_stress) ** delta / math.sqrt(t_stress)
        target = gamma_fn(delta) / math.sqrt(2.0 * params.omega1)
        rel = abs(ratio - target) / target
        summary["full_chain"] = {
            "t": t_stress,
            "q0": q0,
            "scaled_ratio": ratio,
            "target": target,
            "rel_err": rel,
        }
        ok = ok and rel <= stress["rel_tol"]
    return rows, summary, ok


def _cmd_specfun_selftest(inputs: dict) -> tuple[list, dict, bool]:
    rows = []

    def check(name: str, value: float, reference: float, tol: float) -> bool:
        err = abs(value - reference)
        rows.append((name, value, reference, err, tol))
        return err <= tol

    ok = check("gamma_half", gamma_fn(0.5), math.sqrt(math.pi), 1e-13)
    ok &= check("dirichlet_pi_half", dirichlet_constant_check(), math.pi / 2.0, 1e-6)
    ok &= check(
        "bohmer_quarter", bohmer_sine_integral(0.25), bohmer_quadrature(0.25), 1e-6
    )

    # beta-identity normalization: quadrature of the defining integral
    # against the closed form for a_alpha
    for alpha in (0.1, 0.25, 0.4):
        integral = 2.0 * tanh_sinh(
            lambda lam: np.sin(lam / 2.0) ** (-2.0 * alpha), 0.0, math.pi,
            tolerance=1e-11,
        )
        ok &= check(
            f"alpha_normalization_{alpha}",
            alpha_normalization(alpha) ** 2 * integral,
            1.0,
            1e-8,
        )
    summary = {"checks": len(rows)}
    return rows, summary, bool(ok)


_HANDLERS = {
    "simulate": (_cmd_simulate, ["t", "k", "q"]),
    "oracle-compare": (_cmd_oracle_compare, ["t", "k", "q"]),
    "bounds-check": (
        _cmd_bounds_check,
        ["t", "M_windowed", "bound_name", "bound_value", "residual"],
    ),
    "asymptotics": (
        _cmd_asymptotics,
        ["regime", "k", "t", "exact", "predicted", "residual", "scaled_residual"],
    ),
    "growth": (_cmd_growth, ["t", "delta", "lhs_quadrature", "rhs_gamma", "rel_err"]),
    "specfun-selftest": (
        _cmd_specfun_selftest,
        ["check", "value", "reference", "abs_err", "tolerance"],
    ),
}


def run(config: RunConfig) -> int:
    """Parse and execute a config; returns the process exit code."""
    inputs, problems = parse(config)
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2

    handler, header = _HANDLERS[config.command]
    try:
        rows, summary, passed = handler(inputs)
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    summary_out = {
        "command": config.command,
        "params": config.raw.get("params", {}),
        "pass": bool(passed),
        **summary,
    }
    write_csv(config.output_path, header, rows)
    write_summary(summary_path_for(config.output_path), summary_out)
    print(json.dumps(summary_out, sort_keys=True))
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chainwave",
        description="Harmonic-chain spectral solver, bound checks and asymptotics",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="override the output CSV path")
    args = parser.parse_args(argv)

    try:
        config = RunConfig.from_file(args.config, args.command, args.out)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
