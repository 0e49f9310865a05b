"""Flat-file emission: versioned CSV and JSON with round-trip-safe floats."""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

SCHEMA_VERSION = 1
#: Block size of both writers.  write_json converts and writes BLOCK_ROWS rows
#: at a time.  write_csv encodes the rows of an array, or the lines of a grid,
#: in blocks of about BLOCK_ROWS numbers (whole rows, at least one), one
#: _encode call and one fh.write each, so the encoder's temporaries stay
#: near 1 MB; rows given as lists are encoded BLOCK_ROWS rows at a time.
BLOCK_ROWS = 4096
#: Bytes of one encoded number: the longest '%.17g' text, "-1.2345678901234567e-308".
CELL_BYTES = 24


# _encode: the bytes of '%.17g' % x for a float64 array, without a format call
# per value.  Each |x| in [FAST_MIN, FAST_MAX) is multiplied by 10^(16-E), E its
# decimal exponent, with 10^k held as two doubles hi + lo (hi the nearest double,
# lo the nearest double to the rest) and Dekker's exact two-product for |x| * hi
# (Numer. Math. 18, 1971).  The product P + r is within 2^-47 of |x| 10^(16-E),
# so q = the nearest integer holds the 17 significant digits whenever r's
# residue is more than MARGIN from a half.  Zero, non-finite values, |x| outside
# that range and residues within MARGIN of a rounding boundary (exact ties among
# them) are formatted by '%.17g' itself.
FAST_MIN, FAST_MAX = 1e-280, 1e290
MARGIN = 2.0**-30
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
# the fast range's exponents, -280 .. 289, and one beyond each end: log10 may
# miss by one next to a power of ten, and rounding may carry into the next one
_E_MIN, _E_MAX = -281, 290
_WORD = np.dtype("<u8")  # a cell is three little-endian words: byte k is text byte k


def _words(texts) -> np.ndarray:
    """(3, len(texts)) words of each text NUL-padded to CELL_BYTES."""
    data = b"".join(t.ljust(CELL_BYTES, b"\0") for t in texts)
    return np.frombuffer(data, _WORD).reshape(-1, 3).T.copy()


_EXPONENTS = range(_E_MIN, _E_MAX + 1)
# 10^k for k = 16 - E, E in [_E_MIN, _E_MAX] (index E - _E_MIN), as two doubles:
# the nearest double and the nearest double to the rest, from exact integers
# (Python's int true division and int-to-float conversion round correctly);
# the first also split into two halves of 26 bits for the two-product.
_P10, _P10_REST = [], []
_p = 10 ** (_E_MAX - 16)
for _k in range(16 - _E_MAX, 17 - _E_MIN):
    if _k < 0:  # 10^k = 1 / _p
        _P10.append(1 / _p)
        _num, _den = _P10[-1].as_integer_ratio()
        _P10_REST.append((_den - _num * _p) / (_den * _p))
        _p //= 10
    else:  # 10^k = _p
        _P10.append(float(_p))
        _P10_REST.append(float(_p - int(_P10[-1])))
        _p *= 10
_P10, _P10_REST = np.array(_P10[::-1]), np.array(_P10_REST[::-1])
_P10_HIGH = _P10 * _SPLIT - (_P10 * _SPLIT - _P10)
_P10_LOW = _P10 - _P10_HIGH
del _p, _k, _num, _den
# Per decimal exponent E, '%.17g''s layout: the digits before the point (E + 1
# in fixed form, 0 below 1, 1 in exponent form), the byte of the first digit,
# and the text around the digits: "0." and zeros below 1, "e+XX" in exponent form.
_INT_DIGITS = np.array([e + 1 if 0 <= e <= 16 else 0 if -4 <= e < 0 else 1 for e in _EXPONENTS])
_FIRST = np.array([2 - e if -4 <= e < 0 else 2 for e in _EXPONENTS])
_AROUND = _words([b"\0" + b"0." + b"0" * (-e - 1) if -4 <= e < 0
                  else b"" if 0 <= e <= 16 else b"\0" * 19 + b"e%+03d" % e for e in _EXPONENTS])
_BELOW = _words([b"\xff" * k for k in range(CELL_BYTES + 1)])  # bytes 0 .. k-1
_POINT = _words([b"\0" * (1 + k) + b"." if k else b"" for k in range(18)])  # after k digits
# Per 4-digit group 0 .. 9999: its digits as the low 4 bytes of a word, and the
# place of its last nonzero digit (1 .. 4, 0 for 0000), also counted among q's
# 17 digits for the group after the first 1 + 4 j.
_DIGITS = [np.arange(10000) // 10 ** (3 - k) % 10 for k in range(4)]
_DIGITS4 = sum((48 + d).astype(_WORD) << np.uint64(8 * k) for k, d in enumerate(_DIGITS))
_LAST4 = np.max([(k + 1) * (d != 0) for k, d in enumerate(_DIGITS)], axis=0)
_LAST = [np.where(_LAST4 > 0, _LAST4 + 4 * j, 0).astype(np.int8) for j in range(4)]
del _DIGITS, _LAST4


def _scaled(ax: np.ndarray, e: np.ndarray):
    """(P, r): ax 10^(16-e) = P + r to within 2^-47, P a double."""
    c = ax * _SPLIT
    high = c - (c - ax)
    low = ax - high
    i = e - _E_MIN
    th, tl = _P10_HIGH[i], _P10_LOW[i]
    P = ax * _P10[i]
    err = ((high * th - P) + high * tl + low * th) + low * tl  # ax * _P10[i] - P, exactly
    return P, err + ax * _P10_REST[i]


def _encode(x, out: np.ndarray | None = None) -> np.ndarray:
    """Cells holding '%.17g' % v of each v in x, NUL-padded to CELL_BYTES.

    The cells are written into out, a uint8 array of shape x.shape +
    (CELL_BYTES,) that may be a strided view, or into a new array; the NULs
    are for the caller to remove.  A cell is built as three words: the sign
    at byte 0, "0." and zeros from byte 1 below 1, the 17 digits from byte 2
    (2 - E below 1) with trailing zeros blanked (those of the integer part
    kept), the integer digits moved down one byte to open the point's byte,
    and "e+XX" from byte 19 in exponent form.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty((*x.shape, CELL_BYTES), np.uint8)
    x = x.ravel()
    ax = np.abs(x)
    with np.errstate(invalid="ignore"):
        fast = (ax >= FAST_MIN) & (ax < FAST_MAX)
    ax[~fast] = 1.0
    e = np.floor(np.log10(ax)).astype(np.intp)
    P, r = _scaled(ax, e)
    low = (P < 1e16) | ((P == 1e16) & (r < 0))
    high = (P > 1e17) | ((P == 1e17) & (r >= 0))
    off = np.flatnonzero(low | high)  # log10 missed by one, next to a power of ten
    if off.size:
        e[off] += high[off].astype(np.intp) - low[off]
        P[off], r[off] = _scaled(ax[off], e[off])
    r_int = np.floor(r + 0.5)
    fast &= np.abs(r - r_int) < 0.5 - MARGIN
    q = P.astype(np.int64) + r_int.astype(np.int64)
    carry = q == 10**17  # rounded up to the next power of ten
    q[carry] = 10**16
    e += carry
    i = e - _E_MIN
    # q = d 10^16 + 4-digit groups g0 .. g3
    d = q // 10**16
    q -= d * 10**16
    g = [q // 10**12, q // 10**8, q // 10**4, q]
    for j in (3, 2, 1):
        g[j] -= g[j - 1] * 10**4
    n_sig = 1 + np.maximum(np.maximum(_LAST[0][g[0]], _LAST[1][g[1]]),
                           np.maximum(_LAST[2][g[2]], _LAST[3][g[3]]))
    n_int = _INT_DIGITS[i]
    first = _FIRST[i]
    kept = first + np.maximum(n_sig, n_int)
    head = _DIGITS4[g[0]] | _DIGITS4[g[1]] << 32
    tail = _DIGITS4[g[2]] | _DIGITS4[g[3]] << 32
    up = (8 * first).astype(_WORD)
    down = 56 - up
    w = np.empty((3, x.size), _WORD)
    w[0] = (d + 48).astype(_WORD) << up | head << up + 8
    w[1] = head >> down | tail << up + 8
    w[2] = tail >> down
    w &= [_BELOW[k][kept] for k in range(3)]
    # the integer digits, bytes 2 .. n_int + 1, move down one byte to open byte n_int + 1
    ints = w & [_BELOW[k][n_int + 2] for k in range(3)]
    w ^= ints
    w[0] |= ints[0] >> 8 | ints[1] << 56
    w[1] |= ints[1] >> 8 | ints[2] << 56
    w[2] |= ints[2] >> 8
    point = np.where(n_sig > n_int, n_int, 0)
    w |= [_POINT[k][point] | _AROUND[k][i] for k in range(3)]
    w[0] |= (x < 0).astype(_WORD) * ord("-")
    slow = np.flatnonzero(~fast)
    if slow.size:
        w[:, slow] = _words([b"%.17g" % v for v in x[slow].tolist()])
    out[...] = w.T.copy().view(np.uint8).reshape(out.shape)
    return out


class GridRows(NamedTuple):
    """A table over a product grid: row (a_i, b_j, v[i, j] for v in values).

    axes holds the two 1-D sample arrays (a, b), a varying slowest; values
    holds 2-D arrays of shape (len a, len b).  write_csv encodes each axis
    value once instead of once per row (_write_grid).
    """

    axes: tuple
    values: tuple

    def arrays(self):
        """(a, b, [value arrays]) as float arrays, the value shapes checked."""
        a, b = (np.asarray(x, dtype=float) for x in self.axes)
        values = [np.asarray(v, dtype=float) for v in self.values]
        for v in values:
            if v.shape != (a.size, b.size):
                raise ValueError(f"grid values must be ({a.size},{b.size}), got {v.shape}")
        return a, b, values

    def expand(self):
        """The same table as ordinary rows."""
        a, b, values = self.arrays()
        b = b.tolist()
        for i, x in enumerate(a.tolist()):
            for y, *vals in zip(b, *(v[i].tolist() for v in values)):
                yield [x, y, *vals]


def _check_width(width: int, ncol: int, schema_name: str) -> None:
    if width != ncol:
        raise ValueError(f"row has {width} fields, schema {schema_name} has {ncol}")


def _blocks(rows, ncol: int, schema_name: str):
    """Lists of at most BLOCK_ROWS rows, each row's width checked against ncol.

    A 2-D array converts one block at a time.  Blocks before a row of the
    wrong width are yielded, the block that holds it is not.
    """
    if isinstance(rows, np.ndarray):
        blocks = (rows[i : i + BLOCK_ROWS].tolist() for i in range(0, len(rows), BLOCK_ROWS))
    else:
        rows = iter(rows)
        blocks = iter(lambda: list(islice(rows, BLOCK_ROWS)), [])
    for block in blocks:
        for row in block:
            _check_width(len(row), ncol, schema_name)
        yield block


def _lines(shape) -> np.ndarray:
    """Lines of cells to encode into, uint8 (*shape, CELL_BYTES + 1).

    Each cell is followed by ',', the last of a line by a line end.
    """
    buf = np.empty((*shape, CELL_BYTES + 1), np.uint8)
    buf[..., CELL_BYTES] = ord(",")
    buf[..., -1, CELL_BYTES] = ord("\n")
    return buf


def _text(buf: np.ndarray) -> str:
    """The text of encoded lines: their bytes with the NUL padding removed."""
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def _write_rows(fh, schema_name: str, ncol: int, rows) -> None:
    """Numeric rows a block at a time through _encode; blocks holding a string go through csv."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "biuf":
        _check_width(rows.shape[1], ncol, schema_name)
        step = max(1, BLOCK_ROWS // max(ncol, 1))  # about BLOCK_ROWS numbers
        blocks = (rows[i : i + step] for i in range(0, len(rows), step))
    else:
        blocks = _blocks(rows, ncol, schema_name)
    writer = csv.writer(fh, lineterminator="\n")
    for block in blocks:
        values = np.asarray(block)
        if values.dtype.kind in "biuf":
            buf = _lines(values.shape)
            _encode(values, buf[..., :CELL_BYTES])
            fh.write(_text(buf))
        else:  # a string field: the csv module quotes it, numbers still as '%.17g'
            writer.writerows(
                [c if isinstance(c, str) else "%.17g" % c for c in row] for row in block
            )


def _write_grid(fh, grid: GridRows) -> None:
    """The lines in blocks of about BLOCK_ROWS values; each a and b value encoded once."""
    a, b, values = grid.arrays()
    a_cells, b_cells = _encode(a), _encode(b)
    step = max(1, BLOCK_ROWS // max(b.size * len(values), 1))
    for start in range(0, a.size, step):
        rows = slice(start, min(start + step, a.size))
        buf = _lines((rows.stop - start, b.size, 2 + len(values)))
        buf[:, :, 0, :CELL_BYTES] = a_cells[rows, None]
        buf[:, :, 1, :CELL_BYTES] = b_cells
        block = np.empty(buf.shape[:2] + (len(values),))
        for k, v in enumerate(values):
            block[..., k] = v[rows]
        _encode(block, buf[:, :, 2:, :CELL_BYTES])
        fh.write(_text(buf))


@contextmanager
def _atomic_write(path: Path):
    """A text file handle on path's .tmp sibling, moved onto path only on success.

    The parent directory is created first; on any exception, interrupts
    included, the .tmp file is removed and path is left as it was.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def write_csv(path: Path, schema_name: str, columns, rows) -> Path:
    """Write rows atomically; the header comment line carries the schema tag.

    Every numeric field is the bytes of '%.17g' (17 significant digits,
    enough to round-trip any double), a block of rows encoded by _encode at
    a time.  Blocks holding a string go through the csv module, numbers
    still as '%.17g'; it quotes fields containing a comma, a quote or a
    line break (QUOTE_MINIMAL).  A GridRows table gives the same bytes as
    its expanded rows.
    """
    path = Path(path)
    ncol = len(columns)
    with _atomic_write(path) as fh:
        fh.write(f"# schema={schema_name}-v{SCHEMA_VERSION} columns={ncol}\n")
        fh.write(",".join(columns) + "\n")
        if isinstance(rows, GridRows):
            _check_width(len(rows.axes) + len(rows.values), ncol, schema_name)
            _write_grid(fh, rows)
        else:
            _write_rows(fh, schema_name, ncol, rows)
    return path


def _json_rows(block: list) -> str:
    """The rows of a block as json.dump(..., indent=1) writes them two levels deep."""
    return " " + json.dumps(block, indent=1)[2:-2].replace("\n", "\n ")


def write_json(path: Path, schema_name: str, columns, rows) -> Path:
    """Write rows atomically as one JSON object with schema, columns and rows.

    The bytes of json.dump(payload, indent=1, sort_keys=True) plus a
    newline, every number as a float; the rows are converted and written
    a block of BLOCK_ROWS at a time, so no more than one block is held as
    Python objects.
    """
    path = Path(path)
    ncol = len(columns)
    if isinstance(rows, GridRows):
        rows = rows.expand()
    frame = {"schema": f"{schema_name}-v{SCHEMA_VERSION}", "columns": list(columns), "rows": []}
    # keys sorted: the rows go between "columns" and "schema"
    head, tail = json.dumps(frame, indent=1, sort_keys=True).split('\n "rows": []', 1)
    with _atomic_write(path) as fh:
        fh.write(head + '\n "rows": [')
        empty = True
        for block in _blocks(rows, ncol, schema_name):
            block = [[c if isinstance(c, str) else float(c) for c in row] for row in block]
            fh.write(("\n" if empty else ",\n") + _json_rows(block))
            empty = False
        fh.write(("]" if empty else "\n ]") + tail + "\n")
    return path


def write_table(path: Path, fmt: str, schema_name: str, columns, rows) -> Path:
    if fmt == "csv":
        return write_csv(path, schema_name, columns, rows)
    if fmt == "json":
        return write_json(path, schema_name, columns, rows)
    raise ValueError(f"unknown format {fmt!r}")
