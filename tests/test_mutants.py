"""The mutation checks in tools/mutants.py still aim at code that exists.

Running the mutants takes minutes and is its own CI step; this only checks
that every substitution applies exactly once and names test files that
exist, so a refactor that moves the code it breaks fails here first.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("mutants", os.path.join(ROOT, "tools", "mutants.py"))
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once(mutant):
    with open(os.path.join(mutants.SRC, "mvpsim", mutant.path), encoding="utf-8") as f:
        assert f.read().count(mutant.old) == 1
    assert mutant.old != mutant.new
    for name in mutant.tests:
        assert os.path.isfile(os.path.join(ROOT, "tests", name))
