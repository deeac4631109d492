"""Rotating-axis physics: protrusions, ladder strokes, parallel drives."""

from __future__ import annotations

import pytest

from mvpsim import (
    AxisLadderMachine,
    BitMatrix,
    BitVector,
    DimensionError,
    MachineStateError,
    Mode,
    OpCategory,
    matvec,
    oracle_matvec,
)
from conftest import PerRowAxisMachine

A4 = BitMatrix.from_columns(
    [
        BitVector((1, 1, 0, 1)),
        BitVector((0, 1, 0, 0)),
        BitVector((1, 0, 0, 1)),
        BitVector((0, 1, 0, 1)),
    ]
)


class JammedLadderMachine(AxisLadderMachine):
    """The last ladder charges its stroke, then jams."""

    def move_ladder(self, i: int) -> bool:
        if i == self.n - 1:
            self.oplog.charge(OpCategory.LADDER_MOVE)
            raise RuntimeError("ladder jammed")
        return super().move_ladder(i)


class TestProtrusions:
    def test_single_column_protrusion_pattern(self):
        m = AxisLadderMachine(4)
        m.load_matrix(BitMatrix.from_columns([BitVector((1, 1, 0, 1))] + [BitVector.zeros(4)] * 3))
        assert not any(m.protrusion(i, 0) for i in range(4))  # inactive column
        m.activate_column(0)
        assert [m.protrusion(i, 0) for i in range(4)] == [True, True, False, True]
        assert [m.row_blocked(i) for i in range(4)] == [True, True, False, True]
        m.deactivate_column(0)
        assert not any(m.row_blocked(i) for i in range(4))

    def test_two_active_columns(self):
        m = AxisLadderMachine(4)
        m.load_matrix(A4)
        m.activate_column(0)
        m.activate_column(2)
        assert [m.row_blocked(i) for i in range(4)] == [True, True, False, True]


class TestPrimitives:
    def test_activation_preconditions(self):
        m = AxisLadderMachine(2)
        m.activate_column(0)
        with pytest.raises(MachineStateError):
            m.activate_column(0)
        m.deactivate_column(0)
        with pytest.raises(MachineStateError):
            m.deactivate_column(0)

    def test_index_bounds(self):
        # A bool or a float is refused like an index out of range, never
        # read as the number it equals, and nothing is charged.
        m = AxisLadderMachine(2)
        m.load_matrix(BitMatrix.ones(2))
        before = m.oplog.snapshot()
        calls = (m.activate_column, m.deactivate_column, m.move_ladder, m.row_blocked,
                 m.ladder_shifted, m.column_active, m.output_section,
                 lambda k: m.protrusion(k, 0), lambda k: m.protrusion(0, k))
        for bad in (2, -1, 5, True, 1.0):
            for call in calls:
                with pytest.raises(IndexError):
                    call(bad)
                assert m.oplog.snapshot() == before

    def test_unblocked_stroke_flips_the_section(self):
        m = AxisLadderMachine(2)
        assert m.output_section(0) == 1
        assert m.move_ladder(0) is True
        assert m.ladder_shifted(0)
        assert m.output_section(0) == 0
        ops = m.oplog.snapshot()
        assert ops.count(OpCategory.LADDER_MOVE) == 1
        assert ops.count(OpCategory.OUTPUT_SWITCH) == 1

    def test_blocked_stroke_leaves_the_section(self):
        m = AxisLadderMachine(2)
        m.load_matrix(BitMatrix.ones(2))
        m.activate_column(0)
        assert m.move_ladder(0) is False
        assert not m.ladder_shifted(0)
        assert m.output_section(0) == 1
        assert m.oplog.snapshot().count(OpCategory.OUTPUT_SWITCH) == 0

    def test_shifted_ladder_cannot_stroke_again(self):
        m = AxisLadderMachine(2)
        m.move_ladder(0)
        with pytest.raises(MachineStateError):
            m.move_ladder(0)

    def test_blocked_ladder_can_retry_after_deactivation(self):
        m = AxisLadderMachine(2)
        m.load_matrix(BitMatrix.ones(2))
        m.activate_column(1)
        assert m.move_ladder(0) is False
        m.deactivate_column(1)
        assert m.move_ladder(0) is True


class TestOutputMechanism:
    def test_full_pass_on_known_instance(self):
        m = AxisLadderMachine(4)
        m.load_matrix(A4)
        rep = matvec(m, BitVector((1, 0, 1, 0)))
        assert rep.result == BitVector((1, 1, 0, 1))
        assert rep.ops.total == 24

    def test_reset_charges(self):
        m = AxisLadderMachine(4)
        m.load_matrix(A4)
        m.load_vector(BitVector((1, 0, 1, 0)))
        m.sync_columns()
        m.set_output()  # row 2 strokes through, one section flips
        before = m.oplog.snapshot()
        m.reset_output()
        delta = m.oplog.snapshot() - before
        assert delta.count(OpCategory.RESET_STEP) == 4 + 1
        assert delta.total == 5
        assert all(m.output_section(i) == 1 for i in range(4))
        assert not any(m.ladder_shifted(i) for i in range(4))

    def test_reset_with_no_flipped_sections(self):
        m = AxisLadderMachine(3)
        m.load_matrix(BitMatrix.ones(3))
        m.load_vector(BitVector.ones(3))
        m.sync_columns()
        m.set_output()  # every row blocked, nothing flips
        before = m.oplog.snapshot()
        m.reset_output()
        delta = m.oplog.snapshot() - before
        assert delta.count(OpCategory.RESET_STEP) == 3

    def test_set_output_charges(self):
        m = AxisLadderMachine(4)
        m.load_matrix(A4)
        m.load_vector(BitVector((1, 0, 1, 0)))
        m.sync_columns()
        before = m.oplog.snapshot()
        m.set_output()
        delta = m.oplog.snapshot() - before
        assert delta.count(OpCategory.LADDER_MOVE) == 4
        assert delta.count(OpCategory.OUTPUT_SWITCH) == 1  # only row 2 is clear

    @pytest.mark.parametrize("parallel", [False, True], ids=["seq", "par"])
    def test_section_cleared_by_hand_after_a_saturated_stroke(self, parallel):
        # The stroke blocks every row and writes no section; a ladder moved
        # by hand afterwards flips one, and the report and the reset must
        # read it from the sections, not from the stroke's outcome.
        n = 6
        m = AxisLadderMachine(n)
        m.load_matrix(BitMatrix.identity(n))
        m.load_vector(BitVector.ones(n))
        m.sync_columns()
        if parallel:
            m.parallel_ladder_step()
        else:
            m.set_output()
        m.deactivate_column(3)
        assert m.move_ladder(3) is True
        report = m.parallel_report_output() if parallel else m.report_output()
        assert report == BitVector(tuple(int(i != 3) for i in range(n)))
        before = m.oplog.snapshot()
        if parallel:
            m.parallel_reset_output()
        else:
            m.reset_output()
        assert (m.oplog.snapshot() - before).count(OpCategory.RESET_STEP) == n + 1
        if parallel:
            m.parallel_ladder_step()
        else:
            m.set_output()
        assert m.report_output() == BitVector(tuple(int(i != 3) for i in range(n)))

    @pytest.mark.parametrize("cls", [AxisLadderMachine, PerRowAxisMachine], ids=["bulk", "per-row"])
    @pytest.mark.parametrize("parallel", [False, True], ids=["seq", "par"])
    def test_stroke_refused_while_a_ladder_is_away(self, cls, parallel):
        n = 4
        m = cls(n)
        log = m.oplog
        log.phase(m.load_matrix, BitMatrix.zeros(n))
        log.phase(lambda: (m.load_vector(BitVector.ones(n)), m.sync_columns()))
        assert log.phase(m.move_ladder, n - 1)  # every row is clear: ladder 3 stays away
        before = log.snapshot()
        with pytest.raises(MachineStateError, match="set_output called before reset_output"):
            if parallel:
                m.parallel_ladder_step()
            else:
                m.set_output()
        assert log.snapshot() == before  # nothing charged, no phase recorded
        assert before.total == sum(before.phase_ops)
        m.reset_output()
        m.set_output()
        assert m.report_output() == BitVector.zeros(n)


class TestParallelDrive:
    def test_supports_parallel(self):
        assert AxisLadderMachine.supports_parallel is True

    def test_parallel_pass_is_six_phases(self):
        m = AxisLadderMachine(4)
        m.load_matrix(A4)
        rep = matvec(m, BitVector((1, 0, 1, 0)), Mode.PAR)
        assert rep.result == BitVector((1, 1, 0, 1))
        assert rep.ops.parallel_phases == 6
        assert rep.ops.phase_ops == (4, 0, 2, 5, 4, 5)

    def test_parallel_load_matrix_phases(self):
        m = AxisLadderMachine(4)
        m.parallel_load_matrix(A4)
        snap = m.oplog.snapshot()
        assert snap.parallel_phases == 4 + 1
        assert snap.count(OpCategory.CELL_LOAD) == 16
        assert snap.phase_ops == (0, 4, 4, 4, 4)
        assert m.loaded_matrix() == A4

    def test_parallel_load_matrix_releases_active_columns(self):
        m = AxisLadderMachine(4)
        m.load_matrix(A4)
        m.load_vector(BitVector.ones(4))
        m.sync_columns()
        before = m.oplog.snapshot()
        m.parallel_load_matrix(BitMatrix.identity(4))
        delta = m.oplog.snapshot() - before
        assert delta.phase_ops[0] == 4  # the release phase pays one op per column
        assert m.active_columns() == frozenset()

    def test_parallel_protocol_errors(self):
        m = AxisLadderMachine(3)
        with pytest.raises(MachineStateError):
            m.parallel_sync()
        m.parallel_load_matrix(BitMatrix.identity(3))
        with pytest.raises(MachineStateError):
            m.parallel_ladder_step()
        with pytest.raises(MachineStateError):
            m.parallel_report_output()

    def test_refused_parallel_calls_leave_the_ledger_unchanged(self):
        m = AxisLadderMachine(4)

        def assert_refused(*calls):
            before = m.oplog.snapshot()
            for call in calls:
                with pytest.raises((DimensionError, MachineStateError)):
                    call()
                assert m.oplog.snapshot() == before

        def load_in_open_phase():
            m.oplog.phase(m.parallel_load_matrix, A4)

        assert_refused(
            lambda: m.parallel_load_matrix(BitMatrix.identity(3)),
            load_in_open_phase,
            lambda: m.parallel_load_vector(BitVector.ones(5)),
            m.parallel_sync,
            m.parallel_ladder_step,
            m.parallel_report_output,
        )
        # The refused loads left the machine unloaded: a sync would read
        # an all-zero matrix.
        with pytest.raises(MachineStateError, match="column sync before load_matrix"):
            m.sync_columns()
        v = BitVector((1, 0, 1, 0))
        m.parallel_load_matrix(A4)
        m.parallel_load_vector(v)
        m.parallel_sync()
        m.parallel_ladder_step()
        assert_refused(m.parallel_sync, m.parallel_ladder_step)
        # On a loaded, synced machine with its blocked-row tables built, a
        # refused load leaves the content, the columns and the tables, and
        # the next stroke needs no resync.
        for _ in range(8):
            m.parallel_reset_output()
            m.parallel_ladder_step()
        m.parallel_reset_output()
        tables = m._tables
        assert tables is not None
        assert_refused(
            load_in_open_phase,
            lambda: m.load_matrix(BitMatrix.identity(5)),
            lambda: m.parallel_load_matrix(BitMatrix.identity(5)),
        )
        assert m.loaded_matrix() == A4
        assert m.active_columns() == {0, 2}
        assert m._tables is tables
        m.set_output()
        assert m.report_output() == oracle_matvec(A4, v)

    def test_ledger_stays_consistent_when_a_phase_fails_midway(self):
        m = JammedLadderMachine(4)
        m.parallel_load_matrix(A4)
        m.parallel_load_vector(BitVector((1, 0, 1, 0)))
        m.parallel_sync()
        with pytest.raises(RuntimeError):
            m.parallel_ladder_step()
        m.parallel_reset_output()
        ops = m.oplog.snapshot()
        assert ops.total == sum(ops.phase_ops)
        # Strokes of rows 0-2 (only row 2 is clear) and the jammed stroke.
        assert ops.phase_ops[-2:] == (5, 5)

    def test_running_total_survives_refused_and_raising_calls(self):
        m = JammedLadderMachine(4)
        log = m.oplog
        in_phases = 0

        def call(fn, *args, refused=None):
            nonlocal in_phases
            before = log.snapshot().total
            if refused is None:
                fn(*args)
            else:
                with pytest.raises(refused):
                    fn(*args)
            after = log.snapshot()
            if fn.__name__.startswith("parallel_"):
                in_phases += after.total - before
            # Phases are measured from the log's running total, the
            # snapshot's total from its counts: the two must agree.
            assert sum(after.phase_ops) == in_phases

        call(m.parallel_sync, refused=MachineStateError)
        call(m.parallel_load_matrix, A4)
        call(m.load_vector, BitVector((0, 1, 0, 1)))
        call(m.sync_columns)
        call(m.parallel_load_vector, BitVector.ones(3), refused=DimensionError)
        call(m.parallel_load_vector, BitVector((1, 0, 1, 0)))
        call(m.parallel_sync)
        call(m.parallel_ladder_step, refused=RuntimeError)  # charged, then jammed
        call(m.parallel_ladder_step, refused=MachineStateError)  # ladder 2 is away
        call(m.set_output, refused=MachineStateError)
        call(m.parallel_reset_output)
        call(m.reset_output)
        with pytest.raises(MachineStateError):
            log.phase(log.phase, lambda: None)
        call(m.load_matrix, BitMatrix.identity(4))
        ops = log.snapshot()
        assert ops.phase_ops[-4:] == (2, 2, 5, 5)  # release, rotate, jam, reset
        assert ops.total > in_phases

    def test_parallel_reset_is_legal_in_any_state(self):
        m = AxisLadderMachine(3)
        phases_before = m.oplog.snapshot().parallel_phases
        m.parallel_reset_output()  # idle machine: one phase, ladders rehomed
        assert m.oplog.snapshot().parallel_phases == phases_before + 1
        assert all(m.output_section(i) == 1 for i in range(3))

    def test_repeated_parallel_sync_still_charges_two_phases(self):
        # Unlike the sequential toggle-only sync, the machine-wide strokes
        # run regardless: release-all then rotate-selected, 2 phases each time.
        m = AxisLadderMachine(4)
        m.load_matrix(A4)
        v = BitVector((1, 0, 1, 0))
        for expected_ops in (2, 4):  # second round releases and re-rotates
            m.parallel_load_vector(v)
            before = m.oplog.snapshot()
            m.parallel_sync()
            delta = m.oplog.snapshot() - before
            assert delta.parallel_phases == 2
            assert delta.total == expected_ops
            assert m.active_columns() == {0, 2}

    def test_modes_interleave_on_one_machine(self):
        a = BitMatrix(((1, 0, 1), (0, 0, 0), (1, 1, 0)))
        v = BitVector((0, 1, 1))
        m = AxisLadderMachine(3)
        m.load_matrix(a)
        want = oracle_matvec(a, v)
        assert matvec(m, v).result == want
        assert matvec(m, v, Mode.PAR).result == want
        assert matvec(m, v).result == want
