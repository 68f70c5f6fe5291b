import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import src_lines  # noqa: E402

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import math  # a trailing comment keeps a code line


class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Method docstring.

        Three lines of it.
        """
        note = """a string that is not a docstring
        spans two lines"""
        return math.pi * self.size ** 2, note


def bare():
    return "first statement, but not alone as an expression"
'''


def test_blank_comment_and_docstring_lines_are_not_code():
    total, code = src_lines.count(SOURCE)
    # code: import, class, size, def area, the two lines of note, return, def bare, its return
    assert (total, code) == (24, 9)


def test_the_report_lists_each_module_and_the_sums(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert src_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [f"{'a.py':<16}{24:>7}{9:>7}", f"{'b.py':<16}{2:>7}{1:>7}", f"{'all':<16}{26:>7}{10:>7}"]
