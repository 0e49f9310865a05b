"""tools/check_csv_format.py passes what write_csv writes and fails any other number form."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from bjjsim.output import GridRows, write_csv

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_csv_format.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("check_csv_format", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_passes_what_write_csv_writes(tmp_path):
    tool = load_tool()
    rows = np.array([[0.1, -0.0, math.nan], [math.inf, 1e-300, 123456789.0]])
    write_csv(tmp_path / "a.csv", "bjj-evolve", ["x", "y", "z"], rows)
    # a sweep's status column is text, quoted when it holds a comma, a quote or a line break
    write_csv(tmp_path / "sub" / "sweep.csv", "bjj-sweep", ["lam", "status"],
              [[0.5, "ok"], [1.0, 'error: "lam", 1\nsecond line']])
    grid = GridRows((np.arange(3.0), np.linspace(-1, 1, 5)), (np.ones((3, 5)) / 3,))
    write_csv(tmp_path / "sub" / "g.csv", "bjj-wigner", ["theta", "phi", "w"], grid)
    assert tool.main([str(tmp_path)]) == 0


@pytest.mark.parametrize("body, fault", [
    ("# schema=t-v1 columns=2\nx,y\n0.1,1\n", "line 3, x: '0.1'"),
    ("# schema=t-v1 columns=2\nx,y\n1,1.0\n", "line 3, y: '1.0'"),
    ("# schema=t-v1 columns=2\nx,y\n1,2\n3\n", "line 4: 1 fields, not 2"),
    ("# schema=t-v1 columns=2\nx,y\n1,ok\n", "line 3, y: 'ok'"),
    ("# schema=t-v1 columns=3\nx,y\n1,2\n", "schema line says 3 columns, header has 2"),
    ("x,y\n1,2\n", "no schema line"),
])
def test_fails_a_number_not_in_17g_form_or_a_wrong_width(tmp_path, capsys, body, fault):
    tool = load_tool()
    (tmp_path / "t.csv").write_text(body)
    assert tool.main([str(tmp_path)]) == 1
    assert fault in capsys.readouterr().out


def test_fails_a_directory_without_csv(tmp_path):
    assert load_tool().main([str(tmp_path)]) == 1
