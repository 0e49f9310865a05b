"""The code-line rule of tools/code_lines.py, on a small inline source."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment: the line counts

# a comment-only line


def f(x):
    """Function docstring."""
    total = (x
             + math.pi)
    return total


class C:
    """Class docstring,

    over three lines."""

    label = """a string that is no docstring
spans two lines"""
'''


def test_counts_token_lines_outside_docstrings():
    # import, def, total = (x, + math.pi), return, class, and both lines of label
    assert load_tool().code_lines(SOURCE) == 8
