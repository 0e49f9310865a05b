"""Flat-file emission: block formatting, string quoting and row validation."""

import csv
import math

import numpy as np
import pytest

from bjjsim.output import BLOCK_ROWS, format_float, write_csv, write_table

EDGE = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.8e308, 1.7976931348623157e308, 1 / 3]


def data_lines(path):
    return path.read_text().splitlines()[2:]


def per_field(rows):
    return [",".join(format_float(x) for x in row) for row in rows]


def test_block_writer_matches_format_float_on_edge_values(tmp_path):
    rows = np.array(EDGE).reshape(3, 3)
    path = write_csv(tmp_path / "edge.csv", "t", ["a", "b", "c"], rows)
    assert data_lines(path) == per_field(rows)


def test_block_boundary_and_row_types(tmp_path):
    rows = np.random.default_rng(7).standard_normal((BLOCK_ROWS + 7, 3))
    from_array = write_csv(tmp_path / "a.csv", "t", ["a", "b", "c"], rows)
    from_lists = write_csv(tmp_path / "l.csv", "t", ["a", "b", "c"], [list(r) for r in rows])
    assert data_lines(from_array) == per_field(rows)
    assert from_array.read_bytes() == from_lists.read_bytes()


def test_json_array_rows_match_list_rows(tmp_path):
    rows = np.array(EDGE[3:]).reshape(2, 3)
    a = write_table(tmp_path / "a.json", "json", "t", ["a", "b", "c"], rows)
    b = write_table(tmp_path / "b.json", "json", "t", ["a", "b", "c"], rows.tolist())
    assert a.read_bytes() == b.read_bytes()


def test_string_fields_quoted_minimally(tmp_path):
    text = 'error: CovarianceYZ(gzz=1.0, gyy=2.0) is "not" valid\nsecond line'
    rows = [[0.5, "ok"], [-0.0, text], [math.nan, "plain"]]
    path = write_csv(tmp_path / "s.csv", "t", ["x", "status"], rows)
    with open(path, newline="") as fh:
        assert fh.readline().startswith("# schema=t-v")
        assert list(csv.reader(fh)) == [["x", "status"], ["0.5", "ok"], ["-0", text], ["nan", "plain"]]
    assert data_lines(path)[0] == "0.5,ok"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [[1.0], [1.0, 2.0, 3.0]])
def test_row_length_validated_without_leftovers(tmp_path, fmt, bad):
    rows = [[0.0, 1.0]] * (BLOCK_ROWS + 1) + [bad]
    with pytest.raises(ValueError, match=f"row has {len(bad)} fields"):
        write_table(tmp_path / f"v.{fmt}", fmt, "t", ["a", "b"], rows)
    assert list(tmp_path.iterdir()) == []
