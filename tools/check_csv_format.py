"""Check that every number in the CSV files under some directories is written as '%.17g'.

Each file must open with the schema line "# schema=NAME-vK columns=C" and a
header of C column names; every row must hold C fields, and every field
outside the text columns must equal '%.17g' % float(field).  This catches a
number written in any other form even when repeat runs agree byte for byte.
One line per file is printed; the exit status is 1 if any file fails or no
CSV file is found.

    python tools/check_csv_format.py DIR [DIR ...]
"""

from __future__ import annotations

import csv
import re
import sys
from pathlib import Path

SCHEMA = re.compile(r"# schema=(?P<name>.+)-v\d+ columns=(?P<ncol>\d+)\n")
TEXT_COLUMNS = {"bjj-sweep": {"status"}}  # per schema, the columns that hold text, not numbers
SHOWN = 3  # faults reported per file


def faults(path: Path) -> list[str]:
    """What is wrong with one CSV file, at most SHOWN items; empty when it passes."""
    found = []
    with open(path, newline="") as fh:
        match = SCHEMA.fullmatch(fh.readline())
        if match is None:
            return ["no schema line"]
        reader = csv.reader(fh)
        columns = next(reader, [])
        ncol = int(match["ncol"])
        if len(columns) != ncol:
            return [f"schema line says {ncol} columns, header has {len(columns)}"]
        text = TEXT_COLUMNS.get(match["name"], set())
        numeric = [k for k, name in enumerate(columns) if name not in text]
        for line, row in enumerate(reader, start=3):
            if len(row) != ncol:
                found.append(f"line {line}: {len(row)} fields, not {ncol}")
            else:
                for k in numeric:
                    try:
                        ok = row[k] == "%.17g" % float(row[k])
                    except ValueError:
                        ok = False
                    if not ok:
                        found.append(f"line {line}, {columns[k]}: {row[k]!r}")
                        break
            if len(found) >= SHOWN:
                break
    return found


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    paths = sorted(p for d in argv for p in Path(d).rglob("*.csv"))
    failed = 0
    for path in paths:
        found = faults(path)
        failed += bool(found)
        print(f"{path}: {'ok' if not found else 'FAILED ' + '; '.join(found)}")
    if not paths:
        print("no CSV files found", file=sys.stderr)
    return 1 if failed or not paths else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
