"""Byte pins of every CLI command's CSV and summary on small fixed configs.

Each ``tests/golden/<case>.json`` config sits next to the files the CLI
wrote for it.  Regenerate a case from inside ``tests/golden`` with

    python -m chainwave.cli <command> --config <case>.json
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from chainwave import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(path.stem for path in GOLDEN.glob("*.json") if path.suffixes == [".json"])


def test_every_command_is_pinned():
    commands = {json.loads((GOLDEN / f"{case}.json").read_text())["command"] for case in CASES}
    assert commands == set(cli._COMMANDS)


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden(case, tmp_path, monkeypatch):
    config = GOLDEN / f"{case}.json"
    shutil.copy(config, tmp_path)
    monkeypatch.chdir(tmp_path)
    command = json.loads(config.read_text())["command"]
    assert cli.main([command, "--config", config.name]) == 0
    expected = {path.name for path in GOLDEN.glob(f"{case}.*")} - {config.name}
    produced = {path.name for path in tmp_path.iterdir()} - {config.name}
    assert produced == expected
    for name in sorted(expected):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_grid_commands_leave_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on its first call, which adds start-up
    # time and resident memory to every run that solves a grid
    for case in ("simulate_trig", "oracle_compare"):
        shutil.copy(GOLDEN / f"{case}.json", tmp_path)
    script = (
        "import json, sys\n"
        "from chainwave import cli\n"
        "for case in ('simulate_trig', 'oracle_compare'):\n"
        "    command = json.load(open(case + '.json'))['command']\n"
        "    assert cli.main([command, '--config', case + '.json']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


#: 30-digit mpmath q_k(t) of the simulate_alpha case (alpha = 0.25,
#: omega1 = 1/2), by (t, |k|)
SIMULATE_ALPHA_MPMATH = {
    (2.0, 0): 0.57077764210753890551,
    (2.0, 1): 0.19038710583313727503,
    (2.0, 3): 0.049509227763155857895,
    (5.0, 0): 0.46728576517090549875,
    (5.0, 1): 0.65934856240647697286,
    (5.0, 3): 0.18085454091028083179,
}


def test_simulate_alpha_against_mpmath():
    # the closed-form golden is pinned to its values, not only its bytes
    lines = (GOLDEN / "simulate_alpha.csv").read_text().splitlines()
    for line in lines[1:]:
        t, k, q = line.split(",")
        if float(t) == 0.0:
            assert q == "0"
        else:
            assert abs(float(q) - SIMULATE_ALPHA_MPMATH[(float(t), abs(int(k)))]) <= 1e-10, line
