"""bench/loc.py counts code lines: no blank lines, no comment-only lines, no docstrings."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("loc", Path(__file__).resolve().parents[1] / "bench" / "loc.py")
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

# The lines that count are listed by number in the first test.
FIXTURE = '''"""Module docstring,
over two lines."""

import math  # code


# a comment-only line
class Shape:
    """Class docstring."""

    sides = 4  # code

    def area(self):
        """Function docstring
        over two lines.
        """
        # comment
        return math.pi  # code


TEXT = """not a docstring:
a string statement that is not the first of its body"""
"""Not a docstring either: the second statement of the module."""
values = dict(
    a=1,
    b=2,
)
'''


def test_code_lines_of_a_fixture_source():
    counted = [4, 8, 11, 13, 18, 21, 22, 23, 24, 25, 26, 27]
    assert loc.code_lines(FIXTURE) == len(counted)


def test_an_empty_or_docstring_only_source_has_no_code_lines():
    assert loc.code_lines("") == 0
    assert loc.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\ny = 2  # two\n")
    assert loc.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["12", str(tmp_path / "pkg" / "a.py")],
        ["2", str(tmp_path / "pkg" / "b.py")],
        ["14", "total"],
    ]
