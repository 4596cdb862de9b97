"""CLI driver: validation diagnostics, command runs, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from chainwave import cli, model, solver
from chainwave.bounds import alpha_spectrum


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def base_simulate(out):
    return {
        "command": "simulate",
        "params": {"omega0": 0.0, "omega1": 1.0},
        "initial_data": {"state": {"support_min": 0, "q": [1.0], "p": [0.0]}},
        "t_grid": [0.0, 1.0],
        "k_grid": [-2, -1, 0, 1, 2],
        "output_path": str(out),
    }


class TestValidate:
    def _problems(self, payload):
        return cli.validate(cli.RunConfig(payload.get("command", ""), payload, "x.csv"))

    def test_valid_config_is_clean(self, tmp_path):
        assert self._problems(base_simulate(tmp_path / "o.csv")) == []

    def test_omega1_must_be_positive(self, tmp_path):
        cfg = base_simulate(tmp_path / "o.csv")
        cfg["params"]["omega1"] = 0.0
        assert any("omega1 must be positive" in p for p in self._problems(cfg))

    def test_alpha_family_needs_unpinned_chain(self, tmp_path):
        cfg = base_simulate(tmp_path / "o.csv")
        cfg["params"]["omega0"] = 1.0
        cfg["initial_data"] = {"closed_form": {"name": "alpha-family", "alpha": 0.25}}
        assert any("omega0 = 0" in p for p in self._problems(cfg))

    def test_oracle_radius_horizon_diagnostic(self, tmp_path):
        cfg = base_simulate(tmp_path / "o.csv")
        cfg["command"] = "oracle-compare"
        cfg["t_grid"] = [10.0]
        cfg["k_grid"] = [-20, 20]
        cfg["oracle"] = {"radius": 40, "dt": 1e-3}
        msgs = self._problems(cfg)
        assert any("minimal admissible radius is 80" in p for p in msgs)

    def test_exactly_one_data_source(self, tmp_path):
        cfg = base_simulate(tmp_path / "o.csv")
        cfg["initial_data"] = {}
        assert any("exactly one" in p for p in self._problems(cfg))

    def test_unknown_command(self):
        assert any("unknown command" in p for p in self._problems({"command": "frobnicate"}))

    def test_empty_grid(self, tmp_path):
        cfg = base_simulate(tmp_path / "o.csv")
        cfg["t_grid"] = []
        assert any("t_grid" in p for p in self._problems(cfg))

    def test_ray_regime_reads_no_t_grid(self, tmp_path):
        cfg = base_simulate(tmp_path / "o.csv")
        cfg.update(command="asymptotics", regime="ray", beta=3.0, t_grid=[], k_grid=[16, 32])
        assert self._problems(cfg) == []

    def test_integral_floats_are_integers(self):
        cfg = dict(
            ORACLE,
            oracle={"radius": 60.0, "dt": 5e-4},
            initial_data={"state": {"support_min": -1.0, "q": [1.0], "p": [0.0]}},
            solver={"mesh_points": 64.0, "max_mesh": 1e6},
            k_grid={"start": -3, "stop": 3, "count": 7.0},
        )
        inputs, problems = cli.parse(cli.RunConfig("oracle-compare", cfg, "x.csv"))
        assert problems == []
        assert inputs["oracle"].radius == 60 and inputs["state"].support_min == -1
        assert (inputs["solver"].mesh_points, inputs["solver"].max_mesh) == (64, 10**6)
        assert inputs["k_grid"] == [-3, -2, -1, 0, 1, 2, 3]
        growth = dict(GROWTH, full_chain={"max_mesh": 1e6})
        inputs, problems = cli.parse(cli.RunConfig("growth", growth, "x.csv"))
        assert problems == [] and inputs["full_chain"]["solver"].max_mesh == 10**6


VALID = json.dumps(base_simulate("o.csv"))
GROWTH = {
    "command": "growth",
    "params": {"omega0": 0.0, "omega1": 0.5},
    "t_grid": [10.0, 100.0],
    "output_path": "o.csv",
}
SUBSONIC_RAY = dict(
    base_simulate("o.csv"),
    command="asymptotics",
    params={"omega0": 1.0, "omega1": 1.0},
    regime="ray",
    beta=0.5,
    k_grid=[16, 32, 64],
)
ORACLE = dict(
    base_simulate("o.csv"),
    command="oracle-compare",
    t_grid=[1.0, 3.0],
    k_grid=list(range(-5, 6)),
    oracle={"radius": 60, "dt": 5e-4},
)
FIXED_K = dict(base_simulate("o.csv"), command="asymptotics")
SUPERSONIC_RAY = dict(FIXED_K, regime="ray", beta=3.0, k_grid=[0, 16, 32])


def variant(base, **changes):
    """(command, config text) of ``base`` with some keys replaced."""
    return base["command"], json.dumps({**base, **changes})


class TestMalformedConfig:
    """A config that cannot be read or built exits 2 with one line."""

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("simulate", VALID[:-5], "line 1"),
            ("simulate", None, "No such file"),
            ("simulate", "[1, 2]", "JSON object"),
            ("simulate", VALID.replace('"p": [0.0]', '"x": [0.0]'), "missing key 'p'"),
            ("simulate", VALID.replace('"omega0": 0.0', '"omega0": NaN'), "omega0 must be finite"),
            ("simulate", VALID.replace('"q": [1.0]', '"q": [Infinity]'), "q must be finite"),
            ("simulate", VALID.replace("[0.0, 1.0]", "[0.0, NaN]"),
             "t_grid: grid values must be finite"),
            ("simulate",
             VALID.replace('"solver"', '"x"').replace('"params": {', '"solver": [], "params": {'),
             "solver must be a JSON object"),
            (*variant(GROWTH, limit_t=[1]), "limit_t: float() argument"),
            (*variant(GROWTH, limit_t=math.nan), "limit_t: must be finite and >= 1"),
            (*variant(GROWTH, limit_t=0.5), "limit_t: must be finite and >= 1"),
            (*variant(GROWTH, tolerances={"identity_rel": math.nan}),
             "tolerances.identity_rel: must be finite and > 0"),
            (*variant(GROWTH, full_chain={"t": 0.5}), "full_chain.t: must be finite and >= 1"),
            (*variant(GROWTH, full_chain={"abs_tol": -1}),
             "full_chain: tolerance must be positive and finite"),
            (*variant(SUBSONIC_RAY, tolerances={"subsonic_floor": None}),
             "tolerances.subsonic_floor: float() argument"),
            (*variant(ORACLE, tolerances={"oracle_match": math.inf}),
             "tolerances.oracle_match: must be finite and > 0"),
            (*variant(base_simulate("o.csv"), k_grid=[0.6, 1.5]),
             "k_grid: grid values must be integers"),
            (*variant(base_simulate("o.csv"), t_grid=[-1]), "t_grid: must be finite and >= 0"),
            (*variant(dict(base_simulate("o.csv"), command="bounds-check"), t_grid=[-1]),
             "t_grid: must be finite and >= 0"),
            (*variant(ORACLE, t_grid=[-1]), "t_grid: must be finite and >= 0"),
            (*variant(FIXED_K, t_grid=[-5, 100]), "t_grid: must be finite and > 0"),
            (*variant(FIXED_K, t_grid=[0, 100]), "t_grid: must be finite and > 0"),
            (*variant(GROWTH, t_grid=[0.5]), "t_grid: must be finite and > 1"),
            (*variant(GROWTH, t_grid=[1.0]), "t_grid: must be finite and > 1"),
            (*variant(SUPERSONIC_RAY), "k_grid: the ray regime needs sites k != 0"),
            (*variant(SUPERSONIC_RAY, beta=1.0), "k_grid: the ray regime needs sites k != 0"),
            (*variant(ORACLE, oracle={"radius": 60.9, "dt": 5e-4}),
             "oracle.radius must be an integer, not 60.9"),
            (*variant(ORACLE, oracle={"radius": True, "dt": 5e-4}),
             "oracle.radius must be an integer, not True"),
            (*variant(base_simulate("o.csv"),
                      initial_data={"state": {"support_min": -0.5, "q": [1.0], "p": [0.0]}}),
             "initial_data.state.support_min must be an integer, not -0.5"),
            (*variant(base_simulate("o.csv"), solver={"max_mesh": 1e6 + 0.5}),
             "solver.max_mesh must be an integer, not 1000000.5"),
            (*variant(base_simulate("o.csv"), solver={"mesh_points": 64.7}),
             "solver.mesh_points must be an integer, not 64.7"),
            (*variant(GROWTH, full_chain={"max_mesh": 1e6 + 0.5}),
             "full_chain.max_mesh must be an integer, not 1000000.5"),
            (*variant(base_simulate("o.csv"), k_grid={"start": -3, "stop": 3, "count": 7.9}),
             "k_grid: grid count must be an integer, not 7.9"),
            (*variant(base_simulate("o.csv"), params={"omega0": 0.0, "omega1": True}),
             "params.omega1 must be a number, not True"),
            (*variant(base_simulate("o.csv"), params={"omega0": 0.0, "omega1": "1.0"}),
             "params.omega1 must be a number, not '1.0'"),
            (*variant(base_simulate("o.csv"), solver={"tolerance": True}),
             "solver.tolerance must be a number, not True"),
            (*variant(ORACLE, oracle={"radius": 60, "dt": "5e-4"}),
             "oracle.dt must be a number, not '5e-4'"),
            (*variant(ORACLE, tolerances={"oracle_match": True}),
             "tolerances.oracle_match must be a number, not True"),
            (*variant(GROWTH, limit_t="1e6"), "limit_t must be a number, not '1e6'"),
            (*variant(base_simulate("o.csv"),
                      initial_data={"state": {"support_min": 0, "q": [True], "p": [0.0]}}),
             "initial_data.state.q must be a number, not True"),
            (*variant(base_simulate("o.csv"),
                      initial_data={"closed_form": {"name": "alpha-family", "alpha": "0.25"}}),
             "initial_data.closed_form.alpha must be a number, not '0.25'"),
            (*variant(base_simulate("o.csv"), t_grid=[0.0, "1.0"]),
             "t_grid: grid value must be a number, not '1.0'"),
            (*variant(base_simulate("o.csv"), k_grid={"start": False, "stop": 3, "count": 4}),
             "k_grid: grid start must be a number, not False"),
            (*variant(base_simulate("o.csv"), k_grid={"start": 0, "stop": 1, "count": 1e12}),
             "k_grid: grid count of 1000000000000 points exceeds the cap of 1048576"),
            (*variant(base_simulate("o.csv"), t_grid=[0.0] * (2**20 + 1)),
             "t_grid: grid of 1048577 points exceeds the cap of 1048576"),
            (*variant(base_simulate("o.csv"), t_grid={"start": 0, "stop": 1, "count": 2048},
                      k_grid={"start": -512, "stop": 511, "count": 1024}),
             "t_grid x k_grid of 2097152 points exceeds the cap of 1048576"),
            (*variant(ORACLE, oracle={"radius": 10**12, "dt": 5e-4}),
             "oracle.radius: a lattice of 2000000000001 points exceeds the cap of 1048576"),
            (*variant(ORACLE, oracle={"radius": 2**19, "dt": 5e-4}),
             "oracle.radius: a lattice of 1048577 points exceeds the cap of 1048576"),
            (*variant(ORACLE, oracle={"radius": 60, "dt": 1e-300}),
             "oracle.dt: max(t_grid) / dt = 3e+300 exceeds the cap of 16777216 steps"),
            (*variant(ORACLE, oracle={"radius": 60, "dt": 5e-324}),
             "oracle.dt: max(t_grid) / dt = inf exceeds the cap of 16777216 steps"),
        ],
        ids=[
            "truncated", "missing-file", "not-object", "missing-key", "nan", "inf",
            "nan-time", "wrong-type", "limit-t-list", "limit-t-nan", "limit-t-below-1",
            "identity-rel-nan", "full-chain-t-below-1", "full-chain-abs-tol-negative",
            "subsonic-floor-null", "oracle-match-inf", "k-grid-fractional",
            "simulate-t-negative", "bounds-check-t-negative", "oracle-compare-t-negative",
            "fixed-k-t-negative", "fixed-k-t-zero", "growth-t-below-1", "growth-t-1",
            "supersonic-ray-k-zero", "critical-ray-k-zero", "oracle-radius-fractional",
            "oracle-radius-bool", "support-min-fractional", "solver-max-mesh-fractional",
            "solver-mesh-points-fractional", "full-chain-max-mesh-fractional",
            "grid-count-fractional", "params-real-bool", "params-real-string",
            "solver-real-bool", "oracle-real-string", "tolerance-real-bool",
            "scalar-real-string", "state-entry-real-bool", "closed-form-real-string",
            "grid-value-real-string", "grid-start-real-bool", "grid-count-past-cap",
            "grid-list-past-cap", "grid-product-past-cap", "oracle-radius-past-cap",
            "oracle-lattice-one-past-cap", "oracle-dt-tiny", "oracle-dt-subnormal",
        ],
    )
    def test_exits_2_with_one_line(self, tmp_path, monkeypatch, capfd, command, text, message):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "c.json"
        if text is not None:
            path.write_text(text)
        assert cli.main([command, "--config", str(path)]) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        assert message in err
        assert [p.name for p in tmp_path.iterdir() if p != path] == []


class TestSimulate:
    def test_zero_data_produces_zero_csv(self, tmp_path):
        out = tmp_path / "zero.csv"
        cfg = base_simulate(out)
        cfg["initial_data"]["state"]["q"] = [0.0]
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["simulate", "--config", str(path)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,k,q"
        assert len(lines) == 1 + 2 * 5
        assert all(line.endswith(",0") for line in lines[1:])

    def test_row_count_and_values(self, tmp_path):
        out = tmp_path / "sim.csv"
        path = write_config(tmp_path, "c.json", base_simulate(out))
        assert cli.main(["simulate", "--config", str(path)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 5
        # t = 0 row at k = 0 carries the initial spike
        row = dict()
        for line in lines[1:]:
            t, k, q = line.split(",")
            row[(float(t), int(k))] = float(q)
        assert row[(0.0, 0)] == pytest.approx(1.0, abs=1e-12)

    def test_idempotent_byte_identical(self, tmp_path):
        out = tmp_path / "sim.csv"
        path = write_config(tmp_path, "c.json", base_simulate(out))
        cli.main(["simulate", "--config", str(path)])
        first = out.read_bytes()
        cli.main(["simulate", "--config", str(path)])
        assert out.read_bytes() == first

    def test_default_output_is_named_after_the_command_run(self, tmp_path, monkeypatch):
        # a config without "command" or "output_path" writes <command>.csv
        monkeypatch.chdir(tmp_path)
        cfg = base_simulate("unused.csv")
        del cfg["command"], cfg["output_path"]
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["simulate", "--config", str(path)]) == 0
        produced = sorted(p.name for p in tmp_path.iterdir() if p != path)
        assert produced == ["simulate.csv", "simulate.csv.summary.json"]

    def test_spacing_is_ignored(self, tmp_path):
        # params.spacing is no longer read: the rows are those without it
        plain = tmp_path / "plain.csv"
        cli.main(["simulate", "--config", str(write_config(tmp_path, "a.json", base_simulate(plain)))])
        spaced = base_simulate(tmp_path / "spaced.csv")
        spaced["params"]["spacing"] = 2.5
        path = write_config(tmp_path, "b.json", spaced)
        assert cli.main(["simulate", "--config", str(path)]) == 0
        assert (tmp_path / "spaced.csv").read_bytes() == plain.read_bytes()

    def test_closed_form_simulate(self, tmp_path):
        out = tmp_path / "alpha.csv"
        cfg = base_simulate(out)
        cfg["initial_data"] = {"closed_form": {"name": "alpha-family", "alpha": 0.25}}
        cfg["params"] = {"omega0": 0.0, "omega1": 0.5}
        cfg["t_grid"] = [0.0, 2.0]
        cfg["k_grid"] = [0, 1]
        cfg["solver"] = {"mesh_points": 64, "tolerance": 1e-8}
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["simulate", "--config", str(path)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 4
        # velocity-only data: everything vanishes at t = 0
        assert float(lines[1].split(",")[2]) == 0.0

    def test_closed_form_spectrum_built_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(alpha):
            calls.append(alpha)
            return alpha_spectrum(alpha)

        monkeypatch.setattr(cli, "alpha_spectrum", counted)
        cfg = base_simulate(tmp_path / "alpha.csv")
        cfg["initial_data"] = {"closed_form": {"name": "alpha-family", "alpha": 0.25}}
        cfg["k_grid"] = [0]
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["simulate", "--config", str(path)]) == 0
        assert calls == [0.25]

    def test_geometric_grid_spec(self, tmp_path):
        out = tmp_path / "sim.csv"
        cfg = base_simulate(out)
        cfg["t_grid"] = {"start": 1.0, "stop": 4.0, "count": 3, "scale": "geometric"}
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["simulate", "--config", str(path)]) == 0
        ts = sorted({float(l.split(",")[0]) for l in out.read_text().splitlines()[1:]})
        assert ts == pytest.approx([1.0, 2.0, 4.0])

    def test_trig_mesh_past_cap_exits_3(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        cfg = base_simulate(out)
        cfg["t_grid"] = [1e3]
        cfg["solver"] = {"max_mesh": 1024}
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["simulate", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "the error bound needs mesh 2048 > max_mesh=1024" in err
        assert not out.exists()


class TestOracleCompare:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "cmp.csv"
        cfg = base_simulate(out)
        cfg["command"] = "oracle-compare"
        cfg["t_grid"] = [1.0, 3.0]
        cfg["k_grid"] = list(range(-5, 6))
        cfg["oracle"] = {"radius": 60, "dt": 5e-4}
        cfg["tolerances"] = {"oracle_match": 1e-6}
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["oracle-compare", "--config", str(path)]) == 0
        assert (tmp_path / "cmp.oracle.csv").exists()
        summary = json.loads((tmp_path / "cmp.csv.summary.json").read_text())
        assert summary["pass"] is True
        assert summary["max_residual"] <= 1e-6

    def test_default_oracle_csv_follows_the_command(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = base_simulate("unused.csv")
        del cfg["command"], cfg["output_path"]
        cfg["t_grid"] = [1.0]
        cfg["oracle"] = {"radius": 60, "dt": 1e-3}
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["oracle-compare", "--config", str(path)]) == 0
        produced = sorted(p.name for p in tmp_path.iterdir() if p != path)
        assert produced == [
            "oracle-compare.csv", "oracle-compare.csv.summary.json", "oracle-compare.oracle.csv"
        ]

    def test_invalid_radius_exits_2(self, tmp_path):
        out = tmp_path / "cmp.csv"
        cfg = base_simulate(out)
        cfg["command"] = "oracle-compare"
        cfg["t_grid"] = [10.0]
        cfg["oracle"] = {"radius": 30, "dt": 1e-3}
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["oracle-compare", "--config", str(path)]) == 2


class TestBoundsCheck:
    def test_pinned_energy_bound(self, tmp_path):
        out = tmp_path / "b.csv"
        rng = np.random.default_rng(41)
        cfg = base_simulate(out)
        cfg["command"] = "bounds-check"
        cfg["params"] = {"omega0": 2.0, "omega1": 1.0}
        cfg["initial_data"] = {
            "state": {
                "support_min": -5,
                "q": rng.uniform(-1, 1, 11).tolist(),
                "p": rng.uniform(-1, 1, 11).tolist(),
            }
        }
        cfg["t_grid"] = [1.0, 5.0]
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["bounds-check", "--config", str(path)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,M_windowed,bound_name,bound_value,residual"
        assert all("energy-sup" in line for line in lines[1:])


class TestGrowth:
    def test_identity_run(self, tmp_path):
        out = tmp_path / "g.csv"
        cfg = {
            "command": "growth",
            "params": {"omega0": 0.0, "omega1": 0.5},
            "epsilon": 0.4,
            "t_grid": [10.0, 100.0, 1000.0],
            "output_path": str(out),
        }
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["growth", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "g.csv.summary.json").read_text())
        assert summary["max_identity_rel_err"] <= 1e-8
        assert summary["limit_value"] == pytest.approx(
            math.gamma(0.9), rel=1e-12
        )

    def test_full_chain_stress_short(self, tmp_path):
        # small-t version of the long stress solve to exercise the path
        out = tmp_path / "g.csv"
        cfg = {
            "command": "growth",
            "params": {"omega0": 0.0, "omega1": 0.5},
            "epsilon": 0.4,
            "t_grid": [10.0, 100.0],
            "full_chain": {"t": 1e4, "rel_tol": 0.1},
            "output_path": str(out),
        }
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["growth", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "g.csv.summary.json").read_text())
        assert summary["full_chain"]["rel_err"] <= 0.1

    def test_full_chain_max_mesh_is_read(self, tmp_path):
        # at t = 25 the descent route misses an abs_tol of 1e-30, so the
        # lattice route runs; its state is cut at |j| <= 40, whose mesh
        # must exceed 80: past a max_mesh of 64, within one of 128
        for max_mesh, code in ((64, 3), (128, 1)):
            cfg = dict(GROWTH, full_chain={"t": 25.0, "abs_tol": 1e-30, "max_mesh": max_mesh})
            cfg["output_path"] = str(tmp_path / "g.csv")
            path = write_config(tmp_path, "c.json", cfg)
            assert cli.main(["growth", "--config", str(path)]) == code

    def test_pinned_growth_rejected(self, tmp_path):
        cfg = {
            "command": "growth",
            "params": {"omega0": 1.0, "omega1": 1.0},
            "t_grid": [10.0],
            "output_path": str(tmp_path / "g.csv"),
        }
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["growth", "--config", str(path)]) == 2


class TestAsymptotics:
    def test_fixed_k_pinned_run(self, tmp_path):
        out = tmp_path / "a.csv"
        cfg = base_simulate(out)
        cfg["command"] = "asymptotics"
        cfg["params"] = {"omega0": 1.0, "omega1": 1.0}
        cfg["regime"] = "fixed-k"
        cfg["t_grid"] = [100.0, 10000.0]
        cfg["k_grid"] = [0]
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["asymptotics", "--config", str(path)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("regime,k,t,exact,predicted")
        assert all(line.startswith("fixed-k-pinned") for line in lines[1:])

    def test_subsonic_ray_run(self, tmp_path):
        out = tmp_path / "a.csv"
        cfg = base_simulate(out)
        cfg["command"] = "asymptotics"
        cfg["params"] = {"omega0": 1.0, "omega1": 1.0}
        cfg["regime"] = "ray"
        cfg["beta"] = 0.5
        cfg["k_grid"] = [16, 32, 64]
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["asymptotics", "--config", str(path)]) == 0
        summary = json.loads((tmp_path / "a.csv.summary.json").read_text())
        assert summary["classification"] == "subsonic"

    def test_ray_regime_solves_negative_sites(self, tmp_path):
        # asymmetric data: site -k differs from site k, so each listed site
        # is solved as given, at t = beta |k|
        out = tmp_path / "a.csv"
        cfg = base_simulate(out)
        cfg.update(
            command="asymptotics",
            params={"omega0": 1.0, "omega1": 1.0},
            initial_data={"state": {"support_min": 0, "q": [0.5, 1.0], "p": [0.0, 0.3]}},
            regime="ray",
            beta=3.0,
            k_grid=[-200, -100, -50],
        )
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["asymptotics", "--config", str(path)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        sites = [(int(r[1]), float(r[2])) for r in rows]
        assert sites == [(-50, 150.0), (-100, 300.0), (-200, 600.0)]
        state = model.LatticeState(0, np.array([0.5, 1.0]), np.array([0.0, 0.3]))
        spectrum = model.forward_transform(state)
        params = model.ChainParams(1.0, 1.0)
        for r in rows:
            k, t = int(r[1]), float(r[2])
            exact = solver.solve_at(spectrum, params, t, k, solver.SolverConfig())
            assert float(r[3]) == exact
            assert exact != pytest.approx(solver.solve_at(spectrum, params, t, -k), abs=1e-6)

    def test_ray_regime_refuses_the_kink_window(self, tmp_path, capsys):
        # at omega0 = 1e-4 the plus point's term needs |k| >= ~3.2e4
        out = tmp_path / "a.csv"
        cfg = base_simulate(out)
        cfg.update(
            command="asymptotics",
            params={"omega0": 1e-4, "omega1": 1.0},
            initial_data={"state": {"support_min": 0, "q": [0.0], "p": [1.0]}},
            regime="ray",
            beta=3.0,
            k_grid=[32, 128, 512],
        )
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["asymptotics", "--config", str(path)]) == 2
        assert "lam = 0 kink" in capsys.readouterr().err
        assert not out.exists()


class TestSpecfunSelftest:
    def test_battery_passes(self, tmp_path):
        out = tmp_path / "s.csv"
        cfg = {"command": "specfun-selftest", "output_path": str(out)}
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["specfun-selftest", "--config", str(path)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) >= 6

    def test_command_mismatch_is_config_error(self, tmp_path):
        cfg = {"command": "simulate"}
        path = write_config(tmp_path, "c.json", cfg)
        assert cli.main(["growth", "--config", str(path)]) == 2
