"""The benchmark's fault-injection machines still fail the way its checks expect.

`perfbench/harness.py` subclasses AxisLadderMachine twice: `inverted-row`
must give a wrong product and `overcharge` a right product with a wrong
ledger. A refactor that makes either raise instead (for instance by
removing state that a fault machine writes) would still be caught by the
benchmark's self-check, but by a crash rather than by its result and
ledger checks, so it is caught here.
"""

from __future__ import annotations

import os
import sys
from random import Random

import pytest

import mvpsim
import mvpsim.bits
import mvpsim.cli
import mvpsim.contract
import mvpsim.drivers
from mvpsim import AxisLadderMachine, BitMatrix, Mode, OpCategory, matmul, oracle_matmul

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "perfbench"))
import harness  # noqa: E402  (perfbench/ is a directory of scripts, not a package)

# Built from the modules already imported: harness.import_mvpsim() would
# drop them from sys.modules and import a second copy.
FAULTS = harness.fault_classes(
    harness.Modules(mvpsim, mvpsim.bits, mvpsim.contract, mvpsim.drivers, mvpsim.cli)
)


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("mode", [Mode.SEQ, Mode.PAR], ids=["seq", "par"])
def test_fault_machines_give_wrong_results_without_raising(n, mode):
    rng = Random(f"faults:{n}")
    a = BitMatrix.random(n, rng, 0.5)
    b = BitMatrix.random(n, rng, 0.5)
    want = oracle_matmul(a, b)
    real = matmul(AxisLadderMachine(n), a, b, mode)

    inverted = matmul(FAULTS["inverted-row"](n), a, b, mode)
    assert inverted.result != want

    over = matmul(FAULTS["overcharge"](n), a, b, mode)
    assert over.result == want == real.result
    moves = OpCategory.LADDER_MOVE
    assert over.ops.count(moves) == real.ops.count(moves) + n
