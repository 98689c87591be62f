"""`tools/loc.py` counts lines and code lines: blank lines, comments and docstrings are not code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "loc.py"


def _loc():
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""A module docstring
over two lines."""

import os  # a comment after code is code

# a comment line


class Thing:
    """A class docstring."""

    def run(self):
        """A function docstring,
        over two lines.
        """
        text = """a string that
        is no docstring"""
        return (
            text,
        )
'''


def test_the_counter_skips_blank_lines_comments_and_docstrings():
    # code: the import, the class and def lines, the string assignment's two lines, and the return's three
    assert _loc().count(SNIPPET) == (20, 8)


def test_a_string_statement_after_the_first_is_code():
    assert _loc().count('"""doc"""\n"""not a docstring"""\nx = 1\n') == (3, 2)


def test_every_module_is_counted(capsys):
    assert _loc().main() == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == len(list(TOOL.parent.parent.joinpath("src", "provpurpose").glob("*.py"))) + 1
    assert rows[-1].split()[0] == "total"
