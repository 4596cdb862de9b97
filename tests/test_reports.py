"""CSV and summary emission: byte-exact formatting of every value type."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def slice_text(tmp_path, values, sites=None):
    """The q fields of a one-slice GridRows of ``values`` as write_csv writes them."""
    values = np.asarray(values, dtype=float)
    sites = range(values.size) if sites is None else sites
    path = tmp_path / "slice.csv"
    reports.write_csv(path, ["t", "k", "q"], reports.GridRows([0.5], sites, values[None, :]))
    lines = path.read_text().split("\n")
    assert lines[0] == "t,k,q" and lines[-1] == ""
    return [line.split(",")[2] for line in lines[1:-1]]


def assert_formats_as_percent_g(tmp_path, values):
    values = np.asarray(values, dtype=float)
    got = slice_text(tmp_path, values)
    expected = ["%.17g" % v for v in values.tolist()]
    wrong = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
    assert not wrong, wrong[:10]


def test_power_of_ten_neighbours(tmp_path):
    # log10 rounds to E just below 10^E, where D = |x| 10^(16 - E) falls
    # below 10^16 and would round up to it; 1e-277's lower neighbour is
    # 9.9999999999999997e-278, not 1e-277
    values = []
    for e in range(-307, 308):
        up = down = float(f"1e{e}")
        values.append(up)
        for _ in range(4):
            down, up = np.nextafter(down, 0.0), np.nextafter(up, math.inf)
            values += [down, up]
    assert len(values) == 615 * 9
    assert_formats_as_percent_g(tmp_path, values)
    below = np.nextafter(1e-277, 0.0)
    assert slice_text(tmp_path, [below]) == ["%.17g" % below] != ["1e-277"]


@pytest.mark.parametrize(
    "shift, probes",
    [(-1e-9, [1.0, 1e22]), (1e-9, [np.nextafter(1.0, 0.0), np.nextafter(1e22, 0.0)])],
)
def test_log10_rounding_across_a_power_of_ten(tmp_path, monkeypatch, shift, probes):
    # a log10 a hair low or high puts E one off next to a power of ten: D
    # then rounds to 10^17 or falls below 10^16, and %.17g takes the value
    values = [10.0**e for e in range(-20, 23)]
    values += [np.nextafter(v, to) for v in values for to in (0.0, math.inf)]
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    assert_formats_as_percent_g(tmp_path, values)
    ok, _, _ = reports._certified_digits(np.array(probes))
    assert not ok.any()


def test_exact_decimal_ties(tmp_path):
    # 1e14 + n + 0.125 has 18 significant digits ending in 5, as has
    # 2^-25 = 2.98023223876953125e-08: %.17g rounds the tie to even, and
    # such values are left to it
    near_1e14 = [1e14 + n + 0.125 for n in range(-500, 500)]
    near_1e14 += [1e14 + n + 0.375 for n in range(-50, 50)]
    powers = [2.0**-k for k in range(1075)] + [2.0**k for k in range(1024)]
    halves = [n + 0.5 for n in range(10**16 // 2 - 20, 10**16 // 2 + 20)]
    assert_formats_as_percent_g(tmp_path, near_1e14 + powers + halves)
    ok, _, _ = reports._certified_digits(np.array([1e14 + 0.125, 1e14 + 7.375, 2.0**-25]))
    assert not ok.any()


def test_special_values_and_band_edges(tmp_path):
    low, high = reports._BAND
    values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.0**-1074 * 3]
    tiny = 2.2250738585072014e-308
    values += [tiny, np.nextafter(tiny, 0.0), 1.7976931348623157e308]
    for edge in (low, high):
        values += [edge, -edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf)]
    assert_formats_as_percent_g(tmp_path, values)
    probes = [3 * low, high / 3, np.nextafter(low, 0.0), np.nextafter(high, math.inf)]
    ok, _, _ = reports._certified_digits(np.array(probes))
    assert ok.tolist() == [True, True, False, False]


def test_random_bit_patterns(tmp_path):
    rng = np.random.default_rng(2025)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 200_000, dtype=np.int64)
    scaled = rng.standard_normal(100_000) * 10.0 ** rng.uniform(-300, 300, 100_000)
    assert_formats_as_percent_g(tmp_path, np.concatenate([bits.view(np.float64), scaled]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(width=64), min_size=1, max_size=40),
    st.integers(1, 3),
    st.sampled_from(["int", "int64", "negative"]),
)
def test_grid_bytes_equal_the_row_path(tmp_path_factory, values, slices, kind):
    tmp_path = tmp_path_factory.mktemp("grid")
    width = -(-len(values) // slices)
    values = (values * slices)[: width * slices]
    sites = {
        "int": list(range(3, 3 + width)),
        "int64": [np.int64(k) for k in range(-(width // 2), width - width // 2)],
        "negative": [-(10**12) - 7 * k for k in range(width)],
    }[kind]
    times = [0.25 * i for i in range(slices)]
    rows = reports.GridRows(times, sites, np.reshape(values, (slices, width)))
    reports.write_csv(tmp_path / "slices.csv", ["t", "k", "q"], rows)
    reports.write_csv(tmp_path / "rows.csv", ["t", "k", "q"], (row for row in rows))
    assert (tmp_path / "slices.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_grid_sites_must_be_integers(tmp_path):
    for sites in ([0.5, 1.5], [True, False], ["a", "b"]):
        with pytest.raises(TypeError, match="integers"):
            rows = reports.GridRows([0.0], sites, [[1.0, 2.0]])
            reports.write_csv(tmp_path / "x.csv", ["t", "k", "q"], rows)


@pytest.mark.parametrize("omega0, t", [(0.0, 1e3), (1.0, 316.0), (2.0, 1778.0)])
def test_solved_slices_stay_on_the_vector_path(omega0, t):
    # a slide into all-fallback would keep the bytes and lose the speed
    rng = np.random.default_rng(int(t))
    state = model.LatticeState(-4, rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6))
    window = int(1.1 * t) + 60
    spectrum, params = model.forward_transform(state), model.ChainParams(omega0, 1.0)
    grid = solver.solve_grid(spectrum, params, [t], range(-window, window + 1))
    ok, _, _ = reports._certified_digits(grid.values[0])
    assert ok.mean() >= 0.999


def test_power_table_is_exact():
    # hi is 10^s correctly rounded and lo the rounded remainder
    for i, (hi, lo) in enumerate(zip(reports._POW10_HI.tolist(), reports._POW10_LO.tolist())):
        exact = Fraction(10) ** (16 - (reports._E_MIN + i))
        assert hi == float(exact) and lo == float(exact - Fraction(hi))
    assert reports._POW10_HI.size == reports._E_MAX - reports._E_MIN + 1
