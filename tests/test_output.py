"""Flat-file emission: the number encoder, block formatting, string quoting and row validation."""

import csv
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bjjsim.output
from bjjsim.output import (
    BLOCK_ROWS,
    CELL_BYTES,
    SCHEMA_VERSION,
    GridRows,
    _encode,
    write_csv,
    write_table,
)

EDGE = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.8e308, 1.7976931348623157e308, 1 / 3]


def data_lines(path):
    return path.read_text().splitlines()[2:]


def per_field(rows):
    return [",".join(format(float(x), ".17g") for x in row) for row in rows]


def encoded(values):
    """_encode's text of each value, its NUL padding removed."""
    return [c.tobytes().replace(b"\0", b"").decode() for c in _encode(np.ravel(values))]


def formatted(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def powers_of_ten():
    """Every power of ten a double reaches, 1e-323 .. 1e308, and its two neighbours."""
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    return [y for x in powers for y in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]


def exact_ties():
    """Doubles whose 18th significant digit is an exact 5: q = k 5^(16-E) / 2 for odd k.

    x = k / 2^(17-E) in decade E has x 10^(16-E) = n + 1/2, so '%.17g' rounds
    a true half to even; both parities of n are taken.
    """
    ties = [1000000000000000.25]
    for e in range(-8, 16):
        k = math.ceil(Fraction(10) ** e * 2 ** (17 - e)) | 1
        ties += [k / 2 ** (17 - e), (k + 2) / 2 ** (17 - e)]
    return ties


SUBNORMALS = [5e-324, 1e-323, 2.2250738585072009e-308, 1.5e-310, 4.9406564584124654e-320]
FORM_SWITCHES = [  # '%.17g' changes between fixed and exponent form at 1e-4 and 1e17
    1e-5, 9.9999999999999991e-06, 1.0000000000000001e-05, 1e-4, 9.9999999999999991e-05,
    0.00010000000000000002, 0.00012345, 1e16, 9999999999999998.0, 10000000000000002.0,
    99999999999999984.0, 1e17, 100000000000000016.0, 123456789012345678.0, 12345678901234567.0,
]
EDGE_LISTS = {
    "powers of ten": powers_of_ten(),
    "zeros, infinities, nan, subnormals": [0.0, -0.0, math.inf, -math.inf, math.nan, *SUBNORMALS],
    "exact ties": exact_ties(),
    "fixed and exponent form": FORM_SWITCHES,
}


@pytest.mark.parametrize("name", sorted(EDGE_LISTS))
def test_encoder_matches_format_on_edge_lists(name):
    values = np.array(EDGE_LISTS[name])
    values = np.concatenate([values, -values])
    assert encoded(values) == formatted(values)


def test_edge_ties_are_true_ties():
    for x in exact_ties():
        e = math.floor(math.log10(x))
        assert Fraction(x) * 10 ** (16 - e) % 1 == Fraction(1, 2)


def test_encoder_matches_format_on_a_million_values():
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2**64, 500_000, dtype=np.uint64, endpoint=False).view(np.float64)
    scaled = rng.standard_normal(500_000) * 10.0 ** rng.integers(-30, 30, 500_000)
    for values in (bits, scaled):
        assert encoded(values) == formatted(values)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=64))
def test_encoder_matches_format_on_any_bit_pattern(words):
    values = np.array(words, dtype=np.uint64).view(np.float64)
    assert encoded(values) == formatted(values)


def test_ties_need_the_fallback(monkeypatch):
    # with a margin of -1/2 no residue goes to '%.17g', and a half is rounded up, not to
    # even: the ties above are written right only because they take the fallback
    ties = exact_ties()
    monkeypatch.setattr(bjjsim.output, "MARGIN", -0.5)
    assert encoded(ties) != formatted(ties)


@pytest.mark.parametrize("change", [{"MARGIN": 0.5}, {"FAST_MIN": math.inf}])
def test_fallback_alone_gives_the_same_bytes(monkeypatch, change):
    # every value through '%.17g': every residue within the margin, or every |x| out of range
    for name, value in change.items():
        monkeypatch.setattr(bjjsim.output, name, value)
    values = np.concatenate([powers_of_ten(), exact_ties(), FORM_SWITCHES, SUBNORMALS,
                             np.random.default_rng(5).standard_normal(1000)])
    assert encoded(values) == formatted(values)


def test_encoder_writes_into_a_strided_block():
    # the cells of a block of lines, each cell followed by its separator byte
    values = np.random.default_rng(9).standard_normal((4, 3)) * 1e-7
    buf = np.full((4, 3, CELL_BYTES + 1), ord(","), np.uint8)
    buf[:, -1, CELL_BYTES] = ord("\n")
    _encode(values, buf[..., :CELL_BYTES])
    want = "".join(",".join(row) + "\n" for row in np.reshape(formatted(values.ravel()), (4, 3)))
    assert buf.tobytes().replace(b"\0", b"").decode() == want


def reference_csv(columns, rows):
    """The bytes write_csv promises: one '%.17g' format per number, row by row."""
    lines = [f"# schema=t-v{SCHEMA_VERSION} columns={len(columns)}", ",".join(columns)]
    lines += [",".join("%.17g" % v for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def evolve_table(rng):
    # 50 steps of 23 columns: times, O(1) moments, tiny residues and a zero first time
    table = rng.standard_normal((50, 23)) * 10.0 ** rng.integers(-16, 4, (1, 23))
    table[:, 0] = np.linspace(0.0, 10.0, 50)
    return table


def separatrix_table(rng):
    phi = np.linspace(-math.pi, math.pi, 721)
    z = np.sqrt(np.abs(rng.standard_normal(721))) * 0.9
    return np.column_stack((phi, z, -z))


@pytest.mark.parametrize("block_rows", [BLOCK_ROWS, 2])
@pytest.mark.parametrize("shape", ["evolve", "separatrix"])
def test_array_tables_give_the_reference_bytes(tmp_path, monkeypatch, block_rows, shape):
    monkeypatch.setattr(bjjsim.output, "BLOCK_ROWS", block_rows)
    rows = {"evolve": evolve_table, "separatrix": separatrix_table}[shape](np.random.default_rng(4))
    columns = [f"c{k}" for k in range(rows.shape[1])]
    for table in (rows, rows.tolist()):
        path = write_csv(tmp_path / "t.csv", "t", columns, table)
        assert path.read_bytes() == reference_csv(columns, rows.tolist())


@pytest.mark.parametrize("block_rows", [BLOCK_ROWS, 2])
@pytest.mark.parametrize("part", ["all", "some", "none"])
def test_grid_tables_give_the_reference_bytes(tmp_path, monkeypatch, block_rows, part):
    monkeypatch.setattr(bjjsim.output, "BLOCK_ROWS", block_rows)
    grid = grid_table(9, 13, seed=17)
    grid = mirror_rows(grid, {"all": range(4), "some": range(0, 4, 2), "none": []}[part])
    path = write_csv(tmp_path / "g.csv", "t", GRID_COLUMNS, grid)
    assert path.read_bytes() == reference_csv(GRID_COLUMNS, expanded(grid))


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
def test_grid_without_value_arrays_writes_its_axes(tmp_path, fmt):
    grid = GridRows((np.arange(3.0), np.array([-0.5, 0.25])), ())
    got = write_table(tmp_path / f"g.{fmt}", fmt, "t", ["theta", "phi"], grid)
    want = write_table(tmp_path / f"r.{fmt}", fmt, "t", ["theta", "phi"],
                       [[x, y] for x in range(3) for y in (-0.5, 0.25)])
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


def test_grid_numbers_are_encoded_once(tmp_path, monkeypatch):
    # 9 rows, the last four the first four mirrored: each axis value and each value once
    counted = []

    def counting(x, out=None):
        counted.append(np.size(x))
        return encode(x, out)

    encode = bjjsim.output._encode
    monkeypatch.setattr(bjjsim.output, "_encode", counting)
    grid = mirror_rows(grid_table(9, 13, seed=3), range(4))
    write_csv(tmp_path / "g.csv", "t", GRID_COLUMNS, grid)
    assert sum(counted) == 9 + 13 + 9 * 13 * 2


def test_grid_writer_memory_does_not_grow_with_rows(tmp_path):
    # a fully mirrored grid of 361 columns: no row's cells outlive its block
    def peak(n_a):
        grid = mirror_rows(grid_table(n_a, 361, seed=5), range(n_a // 2))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "g.csv", "t", GRID_COLUMNS, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(101), peak(401)
    assert large <= 1.05 * small, (small, large)


def test_mirror_equal_only_up_to_signed_zero_is_formatted_as_is(tmp_path):
    # 0.0 == -0.0, but the two write as "0" and "-0": the last row is written as given
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
