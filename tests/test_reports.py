"""CSV and summary emission: byte-exact formatting of every value type."""

import math

import numpy as np

from chainwave import model, reports, solver


def joined(row) -> str:
    """The per-value formatting the CSV writer must reproduce: floats
    (numpy's float64 included) as %.17g, everything else through str."""
    return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)


def test_csv_matches_per_value_formatting(tmp_path):
    rows = [
        ("a", 1, True, None, np.float64(0.1), np.int64(7), math.nan),
        (1.0, -0.0, math.inf, -math.inf, 1e-300, 2.0**60, 1 / 3),
        ("a", 2, False, None, np.float64(-2.5e17), np.int64(-1), 5e-324),
        [np.float64(-0.0), np.float64(math.nan), "x,y", 3, 0.5, False, np.int64(0)],
        (),
        (np.float32(0.1), 1 + 2j, (1, 2), "%s", "%.17g", 10**20, math.pi),
    ]
    path = tmp_path / "mixed.csv"
    reports.write_csv(path, ["c1", "c2"], rows)
    expected = "\n".join(["c1,c2"] + [joined(row) for row in rows]) + "\n"
    assert path.read_text() == expected


def test_grid_rows_are_python_floats():
    grid = solver.SolutionGrid(
        model.ChainParams(0.0, 1.0), (0.0, 1.5), (-1, 2), np.array([[0.1, -0.0], [1e-20, 3.0]])
    )
    rows = list(grid.rows())
    assert rows == [(0.0, -1, 0.1), (0.0, 2, -0.0), (1.5, -1, 1e-20), (1.5, 2, 3.0)]
    assert all(type(q) is float for _, _, q in rows)
    assert math.copysign(1.0, rows[1][2]) == -1.0
