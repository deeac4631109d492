"""Sliding-wall physics: occlusion, light observation, charges, no parallel
drive. That a wall's light agrees with an axis machine's stroke is held
by acceptance gate C7 and by the shared model's `sense` and `inspect`
rules in test_stateful.py."""

from __future__ import annotations

import pytest

from mvpsim import (
    BitMatrix,
    BitVector,
    MachineStateError,
    Mode,
    OpCategory,
    WallLightMachine,
    matvec,
)

A4 = BitMatrix.from_columns(
    [
        BitVector((1, 1, 0, 1)),
        BitVector((0, 1, 0, 0)),
        BitVector((1, 0, 0, 1)),
        BitVector((0, 1, 0, 1)),
    ]
)


class TestWalls:
    def test_idle_wall_passes_everywhere(self):
        m = WallLightMachine(4)
        m.load_matrix(A4)
        assert all(m.passes_light(i, j) for i in range(4) for j in range(4))
        assert all(m.observe_light(i) for i in range(4))

    def test_shifted_wall_occludes_its_ones(self):
        m = WallLightMachine(4)
        m.load_matrix(BitMatrix.from_columns([BitVector((1, 1, 0, 1))] + [BitVector.zeros(4)] * 3))
        m.activate_column(0)
        assert [m.passes_light(i, 0) for i in range(4)] == [False, False, True, False]
        assert [m.observe_light(i) for i in range(4)] == [False, False, True, False]
        assert [m.row_blocked(i) for i in range(4)] == [True, True, False, True]

    def test_shift_involution(self):
        m = WallLightMachine(4)
        m.load_matrix(A4)
        m.activate_column(1)
        m.deactivate_column(1)
        assert all(m.passes_light(i, 1) for i in range(4))
        assert not m.column_active(1)

    def test_shift_preconditions(self):
        m = WallLightMachine(2)
        m.activate_column(0)
        with pytest.raises(MachineStateError):
            m.activate_column(0)
        m.deactivate_column(0)
        with pytest.raises(MachineStateError):
            m.deactivate_column(0)

    def test_index_bounds(self):
        # A bool or a float is refused like an index out of range, never
        # read as the number it equals, and nothing is charged.
        m = WallLightMachine(2)
        m.load_matrix(BitMatrix.ones(2))
        before = m.oplog.snapshot()
        calls = (m.activate_column, m.deactivate_column, m.observe_light, m.row_blocked,
                 m.column_active, m.output_section,
                 lambda k: m.passes_light(k, 0), lambda k: m.passes_light(0, k))
        for bad in (9, 2, -3, True, 1.0):
            for call in calls:
                with pytest.raises(IndexError):
                    call(bad)
                assert m.oplog.snapshot() == before

    def test_shift_charges_join_the_activation_tally(self):
        m = WallLightMachine(3)
        m.activate_column(2)
        m.deactivate_column(2)
        ops = m.oplog.snapshot()
        assert ops.count(OpCategory.COLUMN_ACTIVATE) == 1
        assert ops.count(OpCategory.COLUMN_DEACTIVATE) == 1

    def test_observation_is_counted(self):
        m = WallLightMachine(3)
        assert m.observe_light(0) is True
        assert m.oplog.snapshot().count(OpCategory.LIGHT_OBSERVE) == 1


class TestOutputMechanism:
    def test_full_pass_on_known_instance(self):
        m = WallLightMachine(4)
        m.load_matrix(A4)
        rep = matvec(m, BitVector((1, 0, 1, 0)))
        assert rep.result == BitVector((1, 1, 0, 1))
        assert rep.ops.total == 20

    def test_set_output_charges(self):
        m = WallLightMachine(4)
        m.load_matrix(A4)
        m.load_vector(BitVector((1, 0, 1, 0)))
        m.sync_columns()
        before = m.oplog.snapshot()
        m.set_output()
        delta = m.oplog.snapshot() - before
        assert delta.count(OpCategory.LIGHT_OBSERVE) == 4
        assert delta.count(OpCategory.OUTPUT_SWITCH) == 1  # only row 2 is lit

    def test_reset_is_free_when_everything_is_blocked(self):
        m = WallLightMachine(3)
        m.load_matrix(BitMatrix.ones(3))
        m.load_vector(BitVector.ones(3))
        m.sync_columns()
        m.set_output()
        before = m.oplog.snapshot()
        m.reset_output()
        delta = m.oplog.snapshot() - before
        assert delta.total == 0

    def test_reset_pays_per_flipped_section(self):
        m = WallLightMachine(3)
        m.load_matrix(BitMatrix.zeros(3))
        m.load_vector(BitVector.ones(3))
        m.sync_columns()
        m.set_output()  # every row lit, every section flips
        before = m.oplog.snapshot()
        m.reset_output()
        delta = m.oplog.snapshot() - before
        assert delta.count(OpCategory.RESET_STEP) == 3
        assert all(m.output_section(i) == 1 for i in range(3))


class TestParallelDrive:
    def test_no_parallel_drive(self):
        assert WallLightMachine.supports_parallel is False
        m = WallLightMachine(3)
        m.load_matrix(BitMatrix.identity(3))
        with pytest.raises(ValueError):
            matvec(m, BitVector.ones(3), Mode.PAR)
