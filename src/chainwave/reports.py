"""Deterministic CSV/JSON emission for the CLI commands.

All floats are written with 17 significant digits so reruns of the same
config produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows``: floats (numpy's float64 included) as
    ``%.17g``, every other value as ``str``.

    Each row is formatted by one ``%`` template, built once per signature
    of value types.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    templates: dict[tuple[type, ...], str] = {}
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(
                "%.17g" if issubclass(kind, float) else "%s" for kind in kinds
            )
        lines.append(template % row)
    path.write_text("\n".join(lines) + "\n")


def write_summary(path: str | Path, summary: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def summary_path_for(output_path: str | Path) -> Path:
    output_path = Path(output_path)
    return output_path.with_suffix(output_path.suffix + ".summary.json")
