"""Flat-file emission: versioned CSV and JSON with round-trip-safe floats."""

from __future__ import annotations

import csv
import json
import math
import os
from itertools import chain, islice
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1
BLOCK_ROWS = 4096  # rows formatted per string operation in write_csv


def format_float(x) -> str:
    """17 significant digits: enough to round-trip any double."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    return format(x, ".17g")


def _blocks(rows):
    """Lists of at most BLOCK_ROWS rows; a 2-D array converts one block at a time."""
    if isinstance(rows, np.ndarray):
        for start in range(0, len(rows), BLOCK_ROWS):
            yield rows[start : start + BLOCK_ROWS].tolist()
        return
    rows = iter(rows)
    while block := list(islice(rows, BLOCK_ROWS)):
        yield block


def write_csv(path: Path, schema_name: str, columns, rows) -> Path:
    """Write rows atomically; the header comment line carries the schema tag.

    Numeric fields are written as format_float writes them ('%.17g' gives the
    same bytes), a block of rows per string operation.  Blocks holding a
    string fall back to the csv module, which quotes fields containing a
    comma, a quote or a line break (QUOTE_MINIMAL).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ncol = len(columns)
    line = ",".join(["%.17g"] * ncol) + "\n"
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(f"# schema={schema_name}-v{SCHEMA_VERSION} columns={ncol}\n")
            fh.write(",".join(columns) + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            for block in _blocks(rows):
                bad = next((row for row in block if len(row) != ncol), None)
                if bad is not None:
                    raise ValueError(f"row has {len(bad)} fields, schema {schema_name} has {ncol}")
                try:
                    fh.write((line * len(block)) % tuple(chain.from_iterable(block)))
                except TypeError:  # a string field: format row by row
                    writer.writerows(
                        [c if isinstance(c, str) else format_float(c) for c in row] for row in block
                    )
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    return path


def write_json(path: Path, schema_name: str, columns, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ncol = len(columns)
    payload_rows = []
    for row in chain.from_iterable(_blocks(rows)):
        if len(row) != ncol:
            raise ValueError(f"row has {len(row)} fields, schema {schema_name} has {ncol}")
        payload_rows.append([c if isinstance(c, str) else float(c) for c in row])
    payload = {
        "schema": f"{schema_name}-v{SCHEMA_VERSION}",
        "columns": list(columns),
        "rows": payload_rows,
    }
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def write_table(path: Path, fmt: str, schema_name: str, columns, rows) -> Path:
    if fmt == "csv":
        return write_csv(path, schema_name, columns, rows)
    if fmt == "json":
        return write_json(path, schema_name, columns, rows)
    raise ValueError(f"unknown format {fmt!r}")
