"""The code-line counter in tools/ that ROADMAP and CHANGES.md quote."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def test_counts_code_but_not_docstrings_comments_or_blanks():
    source = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# a comment-only line
class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        return text
'''
    # import, class, def, the two lines of the assignment, return.
    assert code_lines.code_lines(source) == 6
