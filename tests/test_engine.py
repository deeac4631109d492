"""The machine state under random interleavings of the state-changing
primitives, checked after every step against a shadow model kept by the
test itself: the loaded columns and the active set, from which every
blocked row and every protrusion follows by the definition.

Sizes straddle the 30-bit digit and the 64-bit word of Python's int, so a
bit-packed state that drops a high bit or mixes up rows shows here.
"""

from __future__ import annotations

from random import Random

import pytest

from mvpsim import AxisLadderMachine, BitMatrix, BitVector

SIZES = (1, 31, 64, 65)
STEPS = 150


class Shadow:
    """What the machine should hold, kept without the machine's help."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.a = BitMatrix.zeros(n)
        self.active: set[int] = set()
        self.loaded = False

    def blocked(self, i: int) -> bool:
        return any(self.a.rows[i][j] for j in self.active)


def _check(m, s: Shadow) -> None:
    n = s.n
    assert m.loaded_matrix() == s.a
    assert m.active_columns() == s.active
    assert [m.column_active(j) for j in range(n)] == [j in s.active for j in range(n)]
    axis = isinstance(m, AxisLadderMachine)
    for i in range(n):
        row = s.a.rows[i]
        if axis:
            assert m.row_blocked(i) == s.blocked(i)
            cells = [m.protrusion(i, j) for j in range(n)]
            assert cells == [j in s.active and row[j] == 1 for j in range(n)]
        else:
            assert m.row_occluded(i) == s.blocked(i)
            cells = [m.passes_light(i, j) for j in range(n)]
            assert cells == [not (j in s.active and row[j] == 1) for j in range(n)]


def _step(m, s: Shadow, rng: Random) -> None:
    n = s.n
    axis = isinstance(m, AxisLadderMachine)
    op = rng.choice(("load", "toggle", "toggle", "toggle", "sync", "sense", "reset"))
    if op == "load":
        a = BitMatrix.random(n, rng, rng.choice((0.0, 0.1, 0.5, 1.0)))
        if axis and rng.random() < 0.5:
            m.parallel_load_matrix(a)
        else:
            m.load_matrix(a)
        s.a, s.active, s.loaded = a, set(), True
    elif op == "toggle":
        j = rng.randrange(n)
        on = rng.random() < 0.5
        if (j in s.active) == on:
            return  # illegal in this state: skip
        if axis or rng.random() < 0.5:
            (m.activate_column if on else m.deactivate_column)(j)
        else:
            (m.shift_wall_down if on else m.shift_wall_up)(j)
        (s.active.add if on else s.active.discard)(j)
    elif op == "sync":
        if not s.loaded:
            return  # illegal before load_matrix: skip
        v = BitVector.random(n, rng, rng.random())
        if axis and rng.random() < 0.5:
            m.parallel_load_vector(v)
        else:
            m.load_vector(v)
        if axis and rng.random() < 0.5:
            m.parallel_sync()
        else:
            m.sync_columns()
        s.active = {j for j in range(n) if v[j] == 1}
    elif op == "sense":
        i = rng.randrange(n)
        if axis:
            if m.ladder_shifted(i):
                return  # illegal until reset: skip
            assert m.move_ladder(i) == (not s.blocked(i))
            assert m.output_section(i) == int(s.blocked(i))
        else:
            assert m.observe_light(i) == (not s.blocked(i))
    else:
        m.reset_output()
        assert [m.output_section(i) for i in range(n)] == [1] * n


@pytest.mark.parametrize("n", SIZES)
def test_random_interleavings_match_the_shadow_model(machine_cls, n):
    rng = Random(f"engine:{machine_cls.backend}:{n}")
    m = machine_cls(n)
    s = Shadow(n)
    _check(m, s)
    for _ in range(STEPS):
        _step(m, s, rng)
        _check(m, s)
