"""tools/loc.py counts code lines: no docstrings, comments or blank lines."""

from __future__ import annotations

from conftest import load_tool

loc = load_tool("loc")

FIXTURE = '''"""Module docstring,
on two lines."""

import os  # a comment after code: the line counts


# a comment line
def f(x):
    """Function docstring."""
    s = """a string that is not a docstring,
    on two lines"""
    return (x +
            1)


class C:
    """Class docstring,

    with a blank line inside."""

    y = 1
'''


def test_counts_a_fixture_exactly():
    # import, def, the two lines of s, the two of the return, class, y = 1
    assert loc.code_lines(FIXTURE) == 8
