"""CSV and summary emission: byte-exact formatting of every value type."""

import math

import numpy as np
import pytest

from chainwave import reports, solver


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


AWKWARD_GRIDS = [
    (
        (0.0, 0.1, 1 / 3, 2.5, 1e4),
        (-7, -1, 0, 3, 12),
        np.array(
            [
                [-0.0, 1e-300, 5e-324, -5e-324, 0.0],
                [1e17, -1e17 + 16, 99999999999999984.0, 1.0000000000000002, 0.1],
                [math.pi, -math.e, 1 / 3, 2.0**-1074 * 3, 123456789.0],
                [1e-20, -1e-20, 0.5, -0.25, 7.0],
                [1.7976931348623157e308, -2.2250738585072014e-308, 1e22, 1e23, -0.0],
            ]
        ),
    ),
    ((1e-300,), (-3,), np.array([[-0.0]])),
    ((0.0, 5e-324, 0.7), (5,), np.array([[1e17], [-5e-324], [0.30000000000000004]])),
]


def old_rows(grid):
    """The rows the grid yielded as a generator: t-major, k ascending."""
    for i, t in enumerate(grid.times):
        for k, q in zip(grid.sites, grid.values[i].tolist()):
            yield t, k, q


@pytest.mark.parametrize("times, sites, values", AWKWARD_GRIDS)
def test_grid_csv_matches_per_value_formatting(tmp_path, times, sites, values):
    grid = solver.SolutionGrid(times, sites, values)
    expected = "\n".join(["t,k,q"] + [joined(row) for row in old_rows(grid)]) + "\n"
    reports.write_csv(tmp_path / "slices.csv", ["t", "k", "q"], grid.rows())
    # a plain generator over the same rows takes the row-at-a-time path
    reports.write_csv(tmp_path / "rows.csv", ["t", "k", "q"], (row for row in grid.rows()))
    assert (tmp_path / "slices.csv").read_text() == expected
    assert (tmp_path / "rows.csv").read_text() == expected


def test_grid_rows_of_any_time_type(tmp_path):
    rows = reports.GridRows(
        [3, np.float64(0.1), "5%s"], (-1, np.int64(2)), [[1, 2], [0.5, -0.0], [3, 4]]
    )
    reports.write_csv(tmp_path / "slices.csv", ["t", "k", "q"], rows)
    expected = "\n".join(["t,k,q", *map(joined, rows)]) + "\n"
    assert (tmp_path / "slices.csv").read_text() == expected


@pytest.mark.parametrize("times, sites, values", AWKWARD_GRIDS)
def test_grid_rows_iterate_twice_as_before(times, sites, values):
    grid = solver.SolutionGrid(times, sites, values)
    rows = grid.rows()
    first = list(rows)
    assert first == list(rows) == list(old_rows(grid))
    assert all(type(q) is float for _, _, q in first)


def test_grid_rows_are_python_floats():
    grid = solver.SolutionGrid((0.0, 1.5), (-1, 2), np.array([[0.1, -0.0], [1e-20, 3.0]]))
    rows = list(grid.rows())
    assert rows == [(0.0, -1, 0.1), (0.0, 2, -0.0), (1.5, -1, 1e-20), (1.5, 2, 3.0)]
    assert all(type(q) is float for _, _, q in rows)
    assert math.copysign(1.0, rows[1][2]) == -1.0
