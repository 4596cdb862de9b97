"""Deterministic CSV/JSON emission for the CLI commands.

All floats are written with 17 significant digits so reruns of the same
config produce byte-identical files.  One rule formats every CSV value:
floats (numpy's float64 included) as ``%.17g``, everything else as
``str``.  It has two producers, and the type of the rows alone picks
one: a ``GridRows`` is written one time slice at a time from one byte
matrix, any other iterable one row at a time.  The byte matrix holds the
q values in ``%.17g`` digits found in double-double arithmetic; each
value whose digits that arithmetic cannot certify is formatted by the
rule itself (see :func:`_certified_digits`).
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
    yielding each q as a Python float.  ``write_csv`` writes such rows a
    time slice at a time.  ``sites`` are integers within int64 (Python or
    numpy signed ints, not bools; ``write_csv`` refuses other sites), and
    the text of each time holds no NUL character.
    """

    __slots__ = ("times", "sites", "values")

    def __init__(self, times, sites, values) -> None:
        self.times, self.sites = times, sites
        self.values = np.asarray(values, dtype=float)

    def __iter__(self):
        for t, row in zip(self.times, self.values.tolist()):
            for k, q in zip(self.sites, row):
                yield t, k, q


# The exponents E = floor(log10 |x|) of the certified band [1e-280, 1e280],
# one either side for a log10 that rounds across a power of ten.
_E_MIN, _E_MAX = -281, 281
_BAND = (1e-280, 1e280)
# A D whose fraction is this close to 1/2 (past twice D's error bound) is
# left to _format.
_TIE_MARGIN = 2.0**-46


def _pow10_pairs() -> tuple[np.ndarray, np.ndarray]:
    """10^(16 - E) for E in [_E_MIN, _E_MAX] as hi + lo, hi = fl(10^s) and
    lo = fl(10^s - hi); an int / int quotient is correctly rounded."""
    his, los = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        s = 16 - e
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        hi = num / den
        a, b = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * b - a * den) / (den * b))
    return np.array(his), np.array(los)


_POW10_HI, _POW10_LO = _pow10_pairs()


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of a into two halves of at most 26 bits each."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _certified_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of ``%.17g`` for each value of ``v``.

    Returns ``(ok, e, n)``: where ``ok``, ``%.17g`` writes the digits of
    the int64 ``n`` in [10^16, 10^17) at the decimal exponent ``e``.

    With ``E = floor(log10 |x|)``, ``D = |x| 10^(16 - E)`` is formed as
    ``p + c``: ``p = fl(|x| hi)`` and its exact error by Dekker's two-
    product (no fused multiply-add), plus ``|x| lo``, with ``hi + lo``
    10^(16 - E) as a double-double.  ``p`` is an integer (it is past
    2^53), so ``n = p + rint(c)`` and ``f = c - rint(c)`` is exact.  For a
    certified D below 10^17 the error in ``c`` is at most 1.23e-15 from
    ``lo``'s rounding, 8.9e-16 from ``|x| lo`` and 1.78e-15 from the sum
    (|c| < 20), under 3.9e-15 < 2^-47; so where ``|f| < 1/2 - 2^-46``,
    ``n`` is D correctly rounded.  A value is left uncertified when it is
    zero, not finite or outside [1e-280, 1e280], when ``f`` is that close
    to a tie (true ties included), or when D is below 10^16 or ``n``
    reaches 10^17, i.e. log10 rounded across a power of ten.  A computed
    D at or above 10^16 whose exact value is below it is within 4e-15 of
    10^16, where ``%.17g`` also writes 10^E.
    """
    a = np.abs(v)
    ok = (a >= _BAND[0]) & (a <= _BAND[1])
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _POW10_HI[e - _E_MIN], _POW10_LO[e - _E_MIN]
    p = a * hi
    ah, al = _split(a)
    hh, hl = _split(hi)
    c = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    r = np.rint(c)
    f = c - r
    n = p.astype(np.int64) + r.astype(np.int64)
    ok &= (np.abs(f) < 0.5 - _TIE_MARGIN) & (n < 10**17)
    ok &= (n > 10**16) | ((n == 10**16) & (f >= 0.0))
    return ok, e, n


_WORD = np.dtype("<u8")


def _word(b: bytes) -> int:
    return int.from_bytes(b.ljust(8, b"\0"), "little")


def _layout(e: int) -> tuple[int, int, bytes, bytes]:
    """``%.17g``'s layout at decimal exponent e: the number of digits after
    the first that precede the dot (16: none), the fewest of them kept,
    and the text before the first digit and after the last."""
    if 0 <= e <= 16:
        return e, e, b"", b"\n"
    if -4 <= e < 0:
        return 16, 0, b"0." + b"0" * (-e - 1), b"\n"
    return 0, 0, b"", b"e%+03d\n" % e


_LAYOUTS = [_layout(e) for e in range(_E_MIN, _E_MAX + 1)]
_AFTER = np.array([lay[0] for lay in _LAYOUTS])
_LIM_MIN = np.array([lay[1] for lay in _LAYOUTS])
_PREFIX = np.array([_word(b"\0" + lay[2]) for lay in _LAYOUTS], np.uint64)
_SUFFIX = np.array([_word(b"\0" + lay[3]) for lay in _LAYOUTS], np.uint64)
_I4 = np.arange(10_000)
# the four digits of 0..9999, the first in the lowest byte
_DIGITS4 = sum((48 + _I4 // 10 ** (3 - j) % 10) << (8 * j) for j in range(4)).astype(np.uint64)
_TRAILING4 = np.select([_I4 == 0, _I4 % 1000 == 0, _I4 % 100 == 0, _I4 % 10 == 0], [4, 3, 2, 1], 0)


def _halves(b: bytes) -> np.ndarray:
    """The first sixteen bytes of b, NUL-padded, as two words."""
    return np.frombuffer(b[:16].ljust(16, b"\0"), _WORD)


# the first j of sixteen bytes, and a dot at byte j (none at 16), as two
# rows of words, one per half
_FIRST = np.array([_halves(b"\xff" * j) for j in range(17)]).T.copy()
_DOT = np.array([_halves(b"\0" * j + b".") for j in range(17)]).T.copy()
_POW10_U64 = 10 ** np.arange(20, dtype=np.uint64)
# the last j of the four digits of a group
_LAST_BYTES = np.array([0, 0xFF000000, 0xFFFF0000, 0xFFFFFF00, 0xFFFFFFFF], np.uint64)


def _q_words(v: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of each value and a newline, in four little-endian
    words of NUL-padded bytes: [sign, prefix, first digit], the sixteen
    digits after it with the dot, [the byte the dot pushed out, suffix].

    Of the digits after the first, which fill bytes 0..15 of ``s0, s1``,
    the first ``lim`` are kept, so a fraction loses its trailing zeros;
    the first ``cut`` stay and the rest move up one byte, behind a dot at
    byte ``cut``.  A value ``_certified_digits`` leaves uncertified has
    its row overwritten by ``_format``.
    """
    ok, e, n = _certified_digits(v)
    i = e - _E_MIN
    top = n // 10**8
    bottom = n - top * 10**8
    d0 = top // 10**8
    g1 = (top - d0 * 10**8) // 10**4
    g2 = top - d0 * 10**8 - g1 * 10**4
    g3 = bottom // 10**4
    g4 = bottom - g3 * 10**4
    trailing = _TRAILING4[g1]
    for g in (g2, g3, g4):
        trailing = _TRAILING4[g] + (g == 0) * trailing
    last = 16 - trailing
    after = _AFTER[i]
    lim = np.maximum(last, _LIM_MIN[i])
    cut = np.minimum(lim, after)
    dot = np.where(lim > cut, cut, 16)
    s0 = _DIGITS4[g1] | (_DIGITS4[g2] << np.uint64(32))
    s1 = _DIGITS4[g3] | (_DIGITS4[g4] << np.uint64(32))
    low0, low1 = _FIRST[0][cut], _FIRST[1][cut]
    moved0 = s0 & (_FIRST[0][lim] ^ low0)
    moved1 = s1 & (_FIRST[1][lim] ^ low1)
    q = np.empty((v.size, 4), _WORD)
    q[:, 0] = _PREFIX[i] | (v < 0) * np.uint64(45) | ((d0 + 48).astype(np.uint64) << np.uint64(56))
    q[:, 1] = (s0 & low0) | (moved0 << np.uint64(8)) | _DOT[0][dot]
    q[:, 2] = (s1 & low1) | (moved1 << np.uint64(8)) | (moved0 >> np.uint64(56)) | _DOT[1][dot]
    q[:, 3] = (moved1 >> np.uint64(56)) | _SUFFIX[i]
    bad = np.flatnonzero(~ok)
    text = [(_format(x) + "\n").encode() for x in v[bad].tolist()]
    q.view(np.uint8)[bad] = np.array(text, dtype="S32").view(np.uint8).reshape(-1, 32)
    return q


def _site_cells(sites) -> np.ndarray:
    """``str(k)`` of each site: a sign byte, then its digits right-aligned
    in NUL-padded bytes."""
    k = np.asarray(sites)
    if k.size and k.dtype.kind != "i":
        raise TypeError("GridRows sites must be integers")
    mag = np.abs(k.astype(np.int64)).view(np.uint64)  # |int64 min| included
    digits = np.maximum(np.searchsorted(_POW10_U64, mag, side="right"), 1)
    width = int(digits.max(initial=1))
    groups = -(-width // 4)
    cells = np.zeros((k.size, 1 + 4 * groups), np.uint8)
    cells[:, 0] = np.where(k < 0, ord("-"), 0)
    words = cells[:, 1:].view("<u4")
    for j in range(groups):  # the lowest group first, in the last word
        rest = mag // np.uint64(10_000)
        shown = _LAST_BYTES[np.clip(digits - 4 * j, 0, 4)]
        words[:, groups - 1 - j] = _DIGITS4[mag - rest * np.uint64(10_000)] & shown
        mag = rest
    return cells


def _grid_slices(rows: GridRows):
    """The CSV bytes of each time slice of ``rows``: one NUL-padded byte
    matrix ``[t, k, pad | q words]`` with its NULs dropped."""
    sites = _site_cells(rows.sites)
    times = [_format(t).encode() for t in rows.times]
    tw = max(map(len, times), default=0)
    head = -(-(tw + sites.shape[1] + 2) // 8)
    m = np.zeros((len(sites), 8 * head + 32), np.uint8)
    m[:, tw] = m[:, tw + 1 + sites.shape[1]] = ord(",")
    m[:, tw + 1 : tw + 1 + sites.shape[1]] = sites
    words = m.view(_WORD)
    for t, values in zip(times, rows.values):
        m[:, :tw] = np.frombuffer(t.ljust(tw, b"\0"), np.uint8)
        words[:, head:] = _q_words(values)
        yield m[m != 0].tobytes()


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows``: floats (numpy's float64 included) as
    ``%.17g``, every other value as ``str``.

    A ``GridRows`` is written one time slice at a time: the slice's t is
    formatted once, its sites once per call, and its q values at once
    into a byte matrix (see :func:`_certified_digits`); ``_format`` writes
    each value the matrix cannot certify.  Any other iterable is written
    one value at a time.  Both produce the same bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(rows, GridRows):
        with path.open("w") as f:
            f.write(",".join(header) + "\n")
            for chunk in _grid_slices(rows):
                f.write(chunk.decode())
    else:
        lines = [",".join(header)]
        lines.extend(",".join(map(_format, row)) for row in rows)
        path.write_text("\n".join(lines) + "\n")


def write_summary(path: str | Path, summary: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


def summary_path_for(output_path: str | Path) -> Path:
    output_path = Path(output_path)
    return output_path.with_suffix(output_path.suffix + ".summary.json")
