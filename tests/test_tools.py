"""Tests for the line counter in tools/loc.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""Module
docstring."""

import os  # a trailing comment


class A:
    """One line."""

    # a comment line
    x = """not a
docstring"""

    def f(self):
        """Two
        lines."""
        return (1,
                2)
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    # import, class, x = (2 lines), def, return (2 lines)
    assert loc.code_lines(SOURCE) == 7


def test_counts_match_wc_and_cover_every_module(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
    assert loc.counts(tmp_path) == [("a.py", 18, 7), ("b.py", 3, 1)]
