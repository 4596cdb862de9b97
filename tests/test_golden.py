"""Byte pins of every CLI command's CSV and summary on small fixed configs.

Each ``tests/golden/<case>.json`` config sits next to the files the CLI
wrote for it.  Regenerate a case from inside ``tests/golden`` with

    python -m chainwave.cli <command> --config <case>.json
"""

import json
import shutil
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
