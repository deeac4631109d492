"""The mutation checks in tools/mutants.py still aim at code that exists.

Running the mutants takes minutes and is its own CI step; this only checks
that every substitution applies exactly once and names test files that
exist, so a refactor that moves the code it breaks fails here first, and
that no two mutants make the same edit.
"""

from __future__ import annotations

import collections
import os

import pytest

from conftest import load_tool

mutants = load_tool("mutants")


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once(mutant):
    with open(os.path.join(mutants.SRC, "mvpsim", mutant.path), encoding="utf-8") as f:
        assert f.read().count(mutant.old) == 1
    assert mutant.old != mutant.new
    for name in mutant.tests:
        assert os.path.isfile(os.path.join(mutants.ROOT, "tests", name))


def test_no_two_mutants_make_the_same_edit():
    edits = collections.Counter((m.path, m.old, m.new) for m in mutants.MUTANTS)
    assert [edit for edit, k in edits.items() if k > 1] == []
