"""Flat-file emission: block formatting, string quoting and row validation."""

import csv
import json
import math

import numpy as np
import pytest

import bjjsim.output
from bjjsim.output import BLOCK_ROWS, SCHEMA_VERSION, GridRows, write_csv, write_table

EDGE = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.8e308, 1.7976931348623157e308, 1 / 3]


def data_lines(path):
    return path.read_text().splitlines()[2:]


def per_field(rows):
    return [",".join(format(float(x), ".17g") for x in row) for row in rows]


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


JSON_TABLES = {
    "numeric": np.vstack((np.array(EDGE).reshape(3, 3),
                          np.random.default_rng(3).standard_normal((BLOCK_ROWS + 7, 3)))),
    # a sweep-like table: a nan, ints, and a string error row between ok rows
    "mixed": [[0.5, math.nan, "ok"], [np.float64(-0.0), 3, 'error: "lam", 1\nsecond line'],
              [math.inf, -math.inf, "ok"]] * 3,
    "empty": [],
}


@pytest.mark.parametrize("block_rows", [BLOCK_ROWS, 2])
@pytest.mark.parametrize("table", sorted(JSON_TABLES))
def test_json_blocks_give_the_bytes_of_one_dump(tmp_path, monkeypatch, block_rows, table):
    # rows are written a block at a time; the file is json.dump of the whole payload
    monkeypatch.setattr(bjjsim.output, "BLOCK_ROWS", block_rows)
    rows = JSON_TABLES[table]
    path = write_table(tmp_path / "t.json", "json", "t", ["a", "b", "c"], rows)
    payload = {"schema": f"t-v{SCHEMA_VERSION}", "columns": ["a", "b", "c"],
               "rows": [[c if isinstance(c, str) else float(c) for c in row] for row in rows]}
    with open(tmp_path / "want.json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "want.json").read_bytes()


def test_string_fields_quoted_minimally(tmp_path):
    text = 'error: CovarianceYZ(gzz=1.0, gyy=2.0) is "not" valid\nsecond line'
    rows = [[0.5, "ok"], [-0.0, text], [math.nan, "plain"]]
    path = write_csv(tmp_path / "s.csv", "t", ["x", "status"], rows)
    with open(path, newline="") as fh:
        assert fh.readline().startswith("# schema=t-v")
        assert list(csv.reader(fh)) == [["x", "status"], ["0.5", "ok"], ["-0", text], ["nan", "plain"]]
    assert data_lines(path)[0] == "0.5,ok"


def test_json_dump_failure_leaves_no_file(tmp_path, monkeypatch):
    # the rows fail after the head of the object is written
    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(bjjsim.output, "_json_rows", fail)
    with pytest.raises(OSError, match="disk full"):
        write_table(tmp_path / "d.json", "json", "t", ["a"], [[1.0]])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad", [[1.0], [1.0, 2.0, 3.0]])
def test_row_length_validated_without_leftovers(tmp_path, fmt, bad):
    rows = [[0.0, 1.0]] * (BLOCK_ROWS + 1) + [bad]
    with pytest.raises(ValueError, match=f"row has {len(bad)} fields"):
        write_table(tmp_path / f"v.{fmt}", fmt, "t", ["a", "b"], rows)
    assert list(tmp_path.iterdir()) == []


GRID_COLUMNS = ["theta", "phi", "w", "w_peak"]


def grid_table(n_a, n_b, seed=0):
    rng = np.random.default_rng(seed)
    a, b = np.sort(rng.standard_normal(n_a)), np.sort(rng.standard_normal(n_b))
    values = rng.standard_normal((2, n_a, n_b)) * 10.0 ** rng.integers(-300, 300, (2, n_a, n_b))
    edge = np.resize(EDGE, values.size).reshape(values.shape)
    values = np.where(rng.random(values.shape) < 0.3, edge, values)
    return GridRows((a, b), tuple(values))


def expanded(grid):
    (a, b), (v, w) = grid
    return [[x, y, v[i, j], w[i, j]] for i, x in enumerate(a) for j, y in enumerate(b)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (13, 29)])
def test_grid_rows_match_expanded_rows(tmp_path, fmt, shape):
    grid = grid_table(*shape, seed=shape[0] * 100 + shape[1])
    got = write_table(tmp_path / f"g.{fmt}", fmt, "t", GRID_COLUMNS, grid)
    want = write_table(tmp_path / f"r.{fmt}", fmt, "t", GRID_COLUMNS, expanded(grid))
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_rows_edge_values_on_axes_and_values(tmp_path, fmt):
    axis = np.array([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1 / 3, 1.7976931348623157e308])
    values = np.resize(EDGE, (axis.size, axis.size))
    grid = GridRows((axis, axis[::-1]), (values, -values.T))
    got = write_table(tmp_path / f"g.{fmt}", fmt, "t", GRID_COLUMNS, grid)
    want = write_table(tmp_path / f"r.{fmt}", fmt, "t", GRID_COLUMNS, expanded(grid))
    assert got.read_bytes() == want.read_bytes()
    if fmt == "csv":
        assert data_lines(got) == per_field(expanded(grid))


def mirror_rows(grid, rows):
    """grid with row n_a-1-i set to row i read backwards in b (index -j mod n_b), for i in rows."""
    (a, b), values = grid
    flip = (-np.arange(b.size)) % b.size
    values = [v.copy() for v in values]
    for v in values:
        for i in rows:
            v[a.size - 1 - i] = v[i, flip]
    return GridRows((a, b), tuple(values))


@pytest.mark.parametrize("shape", [(1, 5), (2, 1), (9, 13), (10, 12)])
@pytest.mark.parametrize("part", ["all", "some", "none"])
def test_mirrored_grid_rows_match_expanded_rows(tmp_path, shape, part):
    grid = grid_table(*shape, seed=shape[0] * 100 + shape[1])
    half = range(shape[0] // 2)
    grid = mirror_rows(grid, {"all": half, "some": half[::2], "none": []}[part])
    got = write_csv(tmp_path / "g.csv", "t", GRID_COLUMNS, grid)
    want = write_csv(tmp_path / "r.csv", "t", GRID_COLUMNS, expanded(grid))
    assert got.read_bytes() == want.read_bytes()


def test_mirror_equal_only_up_to_signed_zero_is_formatted_as_is(tmp_path):
    # 0.0 == -0.0, but the two write as "0" and "-0": such a row is not a mirror
    a, b = np.arange(3.0), np.array([-1.0, 0.0, 1.0])
    v = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [-0.0, 2.0, 1.0]])
    w = np.array([[0.5, 0.25, -0.0], [3.0, 4.0, 5.0], [0.5, 0.0, 0.25]])
    grid = GridRows((a, b), (v, w))
    got = write_csv(tmp_path / "g.csv", "t", GRID_COLUMNS, grid)
    assert data_lines(got) == per_field(expanded(grid))
    assert data_lines(got)[6:] == ["2,-1,-0,0.5", "2,0,2,0", "2,1,1,0.25"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n_values", [1, 3])
def test_grid_field_count_validated_without_leftovers(tmp_path, fmt, n_values):
    a, b = np.arange(3.0), np.arange(4.0)
    grid = GridRows((a, b), tuple(np.ones((n_values, 3, 4))))
    rows = [[x, y] + [1.0] * n_values for x in a for y in b]
    message = f"row has {2 + n_values} fields, schema t has 4"
    with pytest.raises(ValueError, match=message):
        write_table(tmp_path / f"r.{fmt}", fmt, "t", GRID_COLUMNS, rows)
    with pytest.raises(ValueError, match=message):
        write_table(tmp_path / f"g.{fmt}", fmt, "t", GRID_COLUMNS, grid)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_value_shape_validated_without_leftovers(tmp_path, fmt):
    grid = GridRows((np.arange(3.0), np.arange(4.0)), (np.ones((3, 4)), np.ones((4, 3))))
    with pytest.raises(ValueError, match="grid values must be"):
        write_table(tmp_path / f"g.{fmt}", fmt, "t", GRID_COLUMNS, grid)
    assert list(tmp_path.iterdir()) == []
