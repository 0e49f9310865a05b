"""Flat-file emission: versioned CSV and JSON with round-trip-safe floats."""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

SCHEMA_VERSION = 1
BLOCK_ROWS = 4096  # rows formatted per string operation in write_csv and write_json


class GridRows(NamedTuple):
    """A table over a product grid: row (a_i, b_j, v[i, j] for v in values).

    axes holds the two 1-D sample arrays (a, b), a varying slowest; values
    holds 2-D arrays of shape (len a, len b).  write_csv formats each axis
    value once instead of once per row, and the values of a mirrored pair
    of rows once (_write_grid).
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


def _write_rows(fh, schema_name: str, ncol: int, rows) -> None:
    """Numeric rows a block at a time; blocks holding a string go through csv."""
    line = ",".join(["%.17g"] * ncol) + "\n"
    writer = csv.writer(fh, lineterminator="\n")
    for block in _blocks(rows, ncol, schema_name):
        try:
            fh.write((line * len(block)) % tuple(chain.from_iterable(block)))
        except TypeError:  # a string field: format row by row
            writer.writerows(
                [c if isinstance(c, str) else "%.17g" % c for c in row] for row in block
            )


def _write_grid(fh, grid: GridRows) -> None:
    """One string operation per a-row, every row through one template.

    The template is the row's a value x followed, for each b value y_j
    (formatted once for the whole grid), by ",y_j%s\n"; a row fills it
    with its per-b value strings (",%.17g" per value array), the pieces of
    its formatted text split at the line ends.  Row n_a-1-i that equals
    row i read backwards in b (index -j mod n_b, the reflection phi -> -phi
    of a periodic grid starting at -pi), bit for bit in every value array,
    reuses row i's text: it is held as one string until the mirror row is
    written, then split and read in the flipped order.
    """
    a, b, values = grid.arrays()
    n_a, n_b = a.size, b.size
    flip = (-np.arange(n_b)) % n_b
    bits = [v.view(np.int64) for v in values]
    mirrored = {
        i for i in range(n_a // 2)
        if all(np.array_equal(v[n_a - 1 - i], v[i, flip]) for v in bits)
    }
    held = {}  # mirrored row i -> its values, one line of ",%.17g" fields per b
    cells = ",%.17g" * len(values) + "\n"
    filled = [",%.17g%%s\n" % y for y in b.tolist()]
    flip = flip.tolist()
    for i, x in enumerate(a.tolist()):
        if n_a - 1 - i in mirrored:
            pieces = held.pop(n_a - 1 - i).split("\n")
            pieces = [pieces[j] for j in flip]
        else:
            text = (cells * n_b) % tuple(np.stack([v[i] for v in values], axis=1).ravel().tolist())
            if i in mirrored:
                held[i] = text
            pieces = text.split("\n")[:-1]
        head = "%.17g" % x
        fh.write((head + head.join(filled)) % tuple(pieces))


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

    Numeric fields are written with '%.17g' (17 significant digits, enough
    to round-trip any double), a block of rows per string operation.
    Blocks holding a string go through the csv module, numbers still as
    '%.17g'; it quotes fields containing a comma, a quote or a line break
    (QUOTE_MINIMAL).  A GridRows table gives the same bytes as its
    expanded rows.
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
