"""Deterministic CSV/JSON emission for the CLI commands.

All floats are written with 17 significant digits so reruns of the same
config produce byte-identical files.  One rule formats every CSV value:
floats (numpy's float64 included) as ``%.17g``, everything else as
``str``.  It has two producers, and the type of the rows alone picks
one: a ``GridRows`` is written one time slice at a time, any other
iterable one row at a time.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _format(v) -> str:
    return "%.17g" % v if isinstance(v, float) else str(v)


class GridRows:
    """The ``(t, k, q)`` rows of a (times x sites) grid of q values.

    Iterates, as often as asked, t-major with k in the order of ``sites``,
    yielding each q as a Python float.  ``write_csv`` formats such rows a
    time slice at a time.  ``sites`` are integers.
    """

    __slots__ = ("times", "sites", "values")

    def __init__(self, times, sites, values) -> None:
        self.times, self.sites = times, sites
        self.values = np.asarray(values, dtype=float)

    def __iter__(self):
        for t, row in zip(self.times, self.values.tolist()):
            for k, q in zip(self.sites, row):
                yield t, k, q


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows``: floats (numpy's float64 included) as
    ``%.17g``, every other value as ``str``.

    A ``GridRows`` is written one time slice at a time: its t is formatted
    once per slice, and the slice's (k, q) pairs by one ``%`` template
    over the slice's list of floats.  Any other iterable is written one
    value at a time.  Both produce the same bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    if isinstance(rows, GridRows):
        for t, row in zip(rows.times, rows.values.tolist()):
            prefix = _format(t).replace("%", "%%")
            lines.extend(map((prefix + ",%s,%.17g").__mod__, zip(rows.sites, row)))
    else:
        lines.extend(",".join(map(_format, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_summary(path: str | Path, summary: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def summary_path_for(output_path: str | Path) -> Path:
    output_path = Path(output_path)
    return output_path.with_suffix(output_path.suffix + ".summary.json")
