"""The shared machine protocol: call order, exact charges, state readback."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpsim import (
    AxisLadderMachine,
    BitMatrix,
    BitVector,
    DimensionError,
    MachineStateError,
    Mode,
    OpCategory,
    OpCounts,
    OpLog,
    matvec,
    oracle_matvec,
)
from conftest import bit_matrices, bit_vectors, matrix_vector_pairs

A4 = BitMatrix(((1, 0, 1, 0), (1, 1, 0, 1), (0, 0, 0, 0), (1, 0, 1, 1)))


def run_pass(machine, v):
    machine.load_vector(v)
    machine.sync_columns()
    machine.set_output()
    out = machine.report_output()
    machine.reset_output()
    return out


class TestProtocol:
    def test_dimension_must_be_positive(self, machine_cls):
        with pytest.raises(ValueError):
            machine_cls(0)
        with pytest.raises(ValueError):
            machine_cls(-3)

    def test_sync_before_load_matrix(self, machine_cls):
        m = machine_cls(4)
        m.load_vector(BitVector.ones(4))
        with pytest.raises(MachineStateError):
            m.sync_columns()

    def test_sync_before_load_vector(self, machine_cls):
        m = machine_cls(4)
        m.load_matrix(A4)
        with pytest.raises(MachineStateError):
            m.sync_columns()

    def test_set_before_sync(self, machine_cls):
        m = machine_cls(4)
        m.load_matrix(A4)
        m.load_vector(BitVector.ones(4))
        with pytest.raises(MachineStateError):
            m.set_output()

    def test_loading_a_vector_invalidates_sync(self, machine_cls):
        m = machine_cls(4)
        m.load_matrix(A4)
        m.load_vector(BitVector.ones(4))
        m.sync_columns()
        m.load_vector(BitVector.zeros(4))
        with pytest.raises(MachineStateError):
            m.set_output()

    def test_loading_a_matrix_invalidates_sync(self, machine_cls):
        m = machine_cls(4)
        m.load_matrix(A4)
        m.load_vector(BitVector.ones(4))
        m.sync_columns()
        m.load_matrix(A4)
        with pytest.raises(MachineStateError):
            m.set_output()

    def test_report_before_set(self, machine_cls):
        m = machine_cls(4)
        m.load_matrix(A4)
        m.load_vector(BitVector.ones(4))
        m.sync_columns()
        with pytest.raises(MachineStateError):
            m.report_output()

    def test_reset_is_legal_in_any_state(self, machine_cls):
        m = machine_cls(4)
        m.reset_output()  # fresh machine: nothing observable happens
        assert m.oplog.snapshot().total <= 2 * 4
        m.load_matrix(A4)
        run_pass(m, BitVector((1, 0, 1, 0)))
        m.reset_output()  # extra reset after a completed pass is fine too
        assert all(not m.column_active(j) or j in (0, 2) for j in range(4))

    def test_set_output_reusable_after_reset_without_resync(self, machine_cls):
        # Activation persists across reset, so a second stroke recomputes
        # the same output without loading or syncing again.
        m = machine_cls(4)
        m.load_matrix(A4)
        m.load_vector(BitVector((1, 0, 1, 0)))
        m.sync_columns()
        m.set_output()
        first = m.report_output()
        m.reset_output()
        m.set_output()
        assert m.report_output() == first == BitVector((1, 1, 0, 1))

    def test_no_second_stroke_without_reset(self, machine_cls):
        m = machine_cls(4)
        m.load_matrix(A4)
        m.load_vector(BitVector.ones(4))
        m.sync_columns()
        m.set_output()
        with pytest.raises(MachineStateError):
            m.set_output()
        with pytest.raises(MachineStateError):
            m.sync_columns()

    def test_report_is_repeatable(self, machine_cls):
        m = machine_cls(4)
        m.load_matrix(A4)
        m.load_vector(BitVector((1, 0, 1, 0)))
        m.sync_columns()
        m.set_output()
        assert m.report_output() == m.report_output()

    def test_dimension_mismatches(self, machine_cls):
        m = machine_cls(3)
        with pytest.raises(DimensionError):
            m.load_matrix(A4)
        with pytest.raises(DimensionError):
            m.load_vector(BitVector.ones(4))


class TestCharges:
    def test_load_matrix_fresh(self, machine_cls):
        m = machine_cls(4)
        m.load_matrix(A4)
        ops = m.oplog.snapshot()
        assert ops.count(OpCategory.CELL_LOAD) == 16
        assert ops.count(OpCategory.COLUMN_DEACTIVATE) == 0
        assert ops.total == 16

    def test_load_matrix_clears_active_columns(self, machine_cls):
        m = machine_cls(4)
        m.load_matrix(A4)
        m.load_vector(BitVector((1, 1, 0, 1)))
        m.sync_columns()
        before = m.oplog.snapshot()
        m.load_matrix(BitMatrix.identity(4))
        delta = m.oplog.snapshot() - before
        assert delta.count(OpCategory.CELL_LOAD) == 16
        assert delta.count(OpCategory.COLUMN_DEACTIVATE) == 3
        assert m.active_columns() == frozenset()

    def test_load_vector_charge(self, machine_cls):
        m = machine_cls(4)
        m.load_matrix(A4)
        before = m.oplog.snapshot()
        m.load_vector(BitVector.zeros(4))
        delta = m.oplog.snapshot() - before
        assert delta.count(OpCategory.VECTOR_COORD_LOAD) == 4
        assert delta.total == 4

    def test_sync_toggles_exactly_the_difference(self, machine_cls):
        m = machine_cls(4)
        m.load_matrix(A4)
        m.load_vector(BitVector((1, 0, 1, 0)))
        m.sync_columns()
        assert m.active_columns() == {0, 2}
        before = m.oplog.snapshot()
        m.load_vector(BitVector((0, 1, 1, 0)))
        m.sync_columns()
        delta = m.oplog.snapshot() - before
        assert delta.count(OpCategory.SCAN_STEP) == 4
        assert delta.count(OpCategory.COLUMN_ACTIVATE) == 1
        assert delta.count(OpCategory.COLUMN_DEACTIVATE) == 1
        assert m.active_columns() == {1, 2}

    def test_resync_unchanged_vector_is_scan_only(self, machine_cls):
        m = machine_cls(4)
        m.load_matrix(A4)
        m.load_vector(BitVector((1, 1, 0, 0)))
        m.sync_columns()
        before = m.oplog.snapshot()
        m.sync_columns()
        delta = m.oplog.snapshot() - before
        assert delta.count(OpCategory.SCAN_STEP) == 4
        assert delta.count(OpCategory.COLUMN_ACTIVATE) == 0
        assert delta.count(OpCategory.COLUMN_DEACTIVATE) == 0
        assert delta.total == 4

    def test_report_charge_and_value(self, machine_cls):
        m = machine_cls(4)
        m.load_matrix(A4)
        m.load_vector(BitVector((1, 0, 1, 0)))
        m.sync_columns()
        m.set_output()
        before = m.oplog.snapshot()
        out = m.report_output()
        delta = m.oplog.snapshot() - before
        assert delta.count(OpCategory.OUTPUT_COORD_REPORT) == 4
        assert delta.total == 4
        assert out == BitVector((1, 1, 0, 1))

    def test_activation_survives_reset(self, machine_cls):
        m = machine_cls(4)
        m.load_matrix(A4)
        v = BitVector((0, 1, 0, 1))
        run_pass(m, v)
        assert m.active_columns() == {1, 3}

    @given(matrix_vector_pairs())
    @settings(max_examples=60)
    def test_pass_budget_and_equivalence(self, machine_cls, pair):
        a, v = pair
        m = machine_cls(a.n)
        m.load_matrix(a)
        before = m.oplog.snapshot()
        out = run_pass(m, v)
        delta = m.oplog.snapshot() - before
        assert out == oracle_matvec(a, v)
        assert delta.total <= 8 * a.n

    @given(bit_vectors(5), st.sets(st.integers(0, 4)))
    @settings(max_examples=60)
    def test_sync_fixes_any_prior_activation(self, machine_cls, v, pre_active):
        m = machine_cls(5)
        m.load_matrix(BitMatrix.ones(5))
        raw = m.activate_column if machine_cls.backend == "axis" else m.shift_wall_down
        for j in sorted(pre_active):
            raw(j)
        m.load_vector(v)
        m.sync_columns()
        assert m.active_columns() == {j for j in range(5) if v[j] == 1}

    @given(st.lists(bit_vectors(5), min_size=1, max_size=8))
    @settings(max_examples=40)
    def test_column_state_tracks_last_synced_vector(self, machine_cls, vectors):
        a = BitMatrix.identity(5)
        m = machine_cls(5)
        m.load_matrix(a)
        for v in vectors:
            out = run_pass(m, v)
            assert out == oracle_matvec(a, v)
            assert m.active_columns() == {j for j in range(5) if v[j] == 1}


class TestReadback:
    def test_loaded_matrix_round_trip(self, machine_cls):
        m = machine_cls(4)
        m.load_matrix(A4)
        assert m.loaded_matrix() == A4

    def test_loaded_vector(self, machine_cls):
        m = machine_cls(4)
        assert m.loaded_vector() is None
        m.load_matrix(A4)
        m.load_vector(BitVector((1, 0, 0, 1)))
        assert m.loaded_vector() == BitVector((1, 0, 0, 1))

    @given(bit_matrices(3))
    def test_readback_any(self, machine_cls, a):
        m = machine_cls(3)
        m.load_matrix(a)
        assert m.loaded_matrix() == a
        m.load_matrix(BitMatrix.zeros(3))
        assert m.loaded_matrix() == BitMatrix.zeros(3)


class TestOpLog:
    def test_total_is_sum_of_categories(self, machine_cls):
        m = machine_cls(3)
        m.load_matrix(BitMatrix.ones(3))
        run_pass(m, BitVector.ones(3))
        snap = m.oplog.snapshot()
        assert snap.total == sum(snap.counts[c] for c in OpCategory)

    def test_counts_only_grow(self, machine_cls):
        m = machine_cls(3)
        m.load_matrix(BitMatrix.ones(3))
        totals = []
        for _ in range(3):
            run_pass(m, BitVector.ones(3))
            totals.append(m.oplog.snapshot().total)
        assert totals == sorted(totals)
        assert totals[0] > 0

    def test_snapshot_subtraction_requires_shared_history(self):
        a, b = OpLog(), OpLog()
        with a.phase():
            a.charge(OpCategory.LADDER_MOVE, 2)
        with b.phase():
            b.charge(OpCategory.SCAN_STEP)
        with pytest.raises(ValueError):  # phase shapes disagree
            b.snapshot() - a.snapshot()
        c = OpLog()
        c.charge(OpCategory.SCAN_STEP, 3)
        with pytest.raises(ValueError):  # counts would go negative
            OpLog().snapshot() - c.snapshot()

    def test_subtraction_drops_shared_phases(self):
        log = OpLog()
        with log.phase():
            log.charge(OpCategory.SCAN_STEP, 2)
        first = log.snapshot()
        with log.phase():
            log.charge(OpCategory.LADDER_MOVE, 5)
        delta = log.snapshot() - first
        assert delta.phase_ops == (5,)
        assert delta.parallel_phases == 1
        assert delta.total == 5

    def test_snapshots_of_one_state_are_equal(self):
        log = OpLog()
        log.charge(OpCategory.CELL_LOAD, 4)
        with log.phase():
            log.charge(OpCategory.SCAN_STEP, 2)
        first = log.snapshot()
        assert log.snapshot() == first
        log.charge(OpCategory.SCAN_STEP)
        assert log.snapshot() != first
        assert first.total == 6 and first.phase_ops == (2,)

    def test_snapshot_is_immutable(self):
        log = OpLog()
        with log.phase():
            log.charge(OpCategory.SCAN_STEP, 2)
        snap = log.snapshot()
        with pytest.raises(AttributeError):
            snap.phase_ops = ()
        with pytest.raises(AttributeError):
            snap.counts = {}
        with log.phase():
            log.charge(OpCategory.SCAN_STEP, 3)
        assert snap.phase_ops == (2,)
        assert snap.parallel_phases == 1
        assert snap.total == 2

    def test_delta_of_deltas(self):
        log = OpLog()
        start = log.snapshot()
        with log.phase():
            log.charge(OpCategory.LADDER_MOVE, 2)
        middle = log.snapshot()
        log.charge(OpCategory.CELL_LOAD)
        with log.phase():
            log.charge(OpCategory.SCAN_STEP, 3)
        end = log.snapshot()
        delta = (end - start) - (middle - start)
        assert delta == end - middle
        assert delta.phase_ops == (3,)
        assert delta.total == 4
        assert delta.count(OpCategory.CELL_LOAD) == 1
        assert (end - start) - (end - start) == OpCounts(dict.fromkeys(OpCategory, 0))

    def test_delta_from_a_built_snapshot(self):
        log = OpLog()
        with log.phase():
            log.charge(OpCategory.SCAN_STEP, 2)
        built = OpCounts({**dict.fromkeys(OpCategory, 0), OpCategory.SCAN_STEP: 2}, (2,))
        assert log.snapshot() == built
        with log.phase():
            log.charge(OpCategory.LADDER_MOVE, 5)
        delta = log.snapshot() - built
        assert delta == OpCounts({**dict.fromkeys(OpCategory, 0), OpCategory.LADDER_MOVE: 5}, (5,))
        assert log.snapshot() - OpCounts(dict.fromkeys(OpCategory, 0)) == log.snapshot()
        assert "phase_ops=(5,)" in repr(delta)

    def test_built_snapshot_copies_and_fills_its_counts(self):
        counts = dict.fromkeys(OpCategory, 0)
        built = OpCounts(counts)
        counts[OpCategory.CELL_LOAD] = 5
        assert built.total == 0
        assert built.count(OpCategory.CELL_LOAD) == 0
        partial = OpCounts({OpCategory.SCAN_STEP: 2})
        assert partial.count(OpCategory.CELL_LOAD) == 0
        assert partial == OpCounts({**dict.fromkeys(OpCategory, 0), OpCategory.SCAN_STEP: 2})
        assert (partial - OpCounts({})).total == 2
        log = OpLog()
        log.charge(OpCategory.SCAN_STEP, 3)
        assert (log.snapshot() - partial).count(OpCategory.SCAN_STEP) == 1
        with pytest.raises(ValueError, match="unknown operation categories"):
            OpCounts({"scan_step": 2})

    def test_snapshots_and_deltas_survive_pickle_and_deepcopy(self):
        m = AxisLadderMachine(4)
        m.load_matrix(A4)
        seq = matvec(m, BitVector((1, 0, 1, 0))).ops
        seq_snap = m.oplog.snapshot()
        par = matvec(m, BitVector((0, 1, 1, 0)), Mode.PAR).ops
        par_snap = m.oplog.snapshot()
        for ops in (seq, seq_snap, par, par_snap, par_snap - seq_snap):
            for twin in (pickle.loads(pickle.dumps(ops)), copy.deepcopy(ops)):
                assert twin == ops
                assert twin.phase_ops == ops.phase_ops
                assert twin.total == ops.total
                for c in OpCategory:
                    assert twin.count(c) == ops.count(c)
                assert all(any(k is c for c in OpCategory) for k in twin.counts)
        assert par.parallel_phases == 6 and par_snap.parallel_phases == 6
        assert pickle.loads(pickle.dumps(par_snap)) - seq_snap == par

    def test_since_is_the_delta_from_a_snapshot(self):
        m = AxisLadderMachine(4)
        m.load_matrix(A4)
        log = m.oplog
        start = log.snapshot()
        matvec(m, BitVector((1, 0, 1, 0)), Mode.PAR)
        middle = log.snapshot()
        matvec(m, BitVector((0, 1, 1, 0)))
        matvec(m, BitVector((0, 1, 1, 1)), Mode.PAR)
        assert log.since(middle) == log.snapshot() - middle
        assert log.since(middle).phase_ops == (log.snapshot() - middle).phase_ops
        assert log.since(start) == log.snapshot() - start
        assert log.since(log.snapshot()) == OpCounts({})

    def test_since_any_other_snapshot_agrees_with_subtraction(self):
        log = OpLog()
        log.charge(OpCategory.CELL_LOAD, 4)
        with log.phase():
            log.charge(OpCategory.SCAN_STEP, 2)
        snap = log.snapshot()
        other = OpLog()
        with other.phase():
            other.charge(OpCategory.SCAN_STEP, 1)
        bigger = OpLog()
        bigger.charge(OpCategory.LADDER_MOVE, 9)
        with log.phase():
            log.charge(OpCategory.LADDER_MOVE, 5)
        befores = (
            snap, snap - OpCounts({}), pickle.loads(pickle.dumps(snap)), copy.deepcopy(snap),
            OpCounts({OpCategory.CELL_LOAD: 4, OpCategory.SCAN_STEP: 2}, (2,)), OpCounts({}),
            other.snapshot(), bigger.snapshot(), OpCounts({OpCategory.CELL_LOAD: 1}, (3,)),
        )
        agreed = refused = 0
        for before in befores:
            try:
                want = log.snapshot() - before
            except ValueError as e:
                with pytest.raises(ValueError, match=f"^{e}$"):
                    log.since(before)
                refused += 1
            else:
                got = log.since(before)
                assert got == want and got.phase_ops == want.phase_ops
                agreed += 1
        assert (agreed, refused) == (6, 3)

    @pytest.mark.parametrize(
        "counts,phases,bad",
        [
            ({OpCategory.CELL_LOAD: -1.5}, (True, 2.5, -3), "-1.5"),
            ({OpCategory.CELL_LOAD: -1}, (), "-1"),
            ({OpCategory.SCAN_STEP: True}, (), "True"),
            ({OpCategory.SCAN_STEP: 2.0}, (), "2.0"),
            ({OpCategory.SCAN_STEP: "2"}, (), "'2'"),
            ({OpCategory.SCAN_STEP: 2}, (1, True), "True"),
            ({OpCategory.SCAN_STEP: 2}, (2.5,), "2.5"),
            ({}, (0, -3), "-3"),
            ({}, (None,), "None"),
        ],
        ids=["float-and-bool", "negative", "bool", "float", "str", "bool-phase", "float-phase",
             "negative-phase", "none-phase"],
    )
    def test_built_snapshot_refuses_malformed_counts(self, counts, phases, bad):
        class Forged:
            def __reduce__(self):
                return OpCounts, (counts, phases)

        # Unpickling builds through the same check.
        for build in (lambda: OpCounts(counts, phases), lambda: pickle.loads(pickle.dumps(Forged()))):
            with pytest.raises(ValueError) as refused:
                build()
            assert str(refused.value) == f"operation counts must be ints >= 0, got {bad}"

    def test_earlier_minus_later_is_refused(self):
        log = OpLog()
        earlier = log.snapshot()
        with log.phase():
            log.charge(OpCategory.SCAN_STEP)
        with pytest.raises(ValueError, match="do not share a machine history"):
            earlier - log.snapshot()

    def test_long_parallel_stream_delta_holds_only_its_phases(self):
        m = AxisLadderMachine(4)
        m.load_matrix(A4)
        v = BitVector((1, 0, 1, 0))
        for _ in range(2000):
            rep = matvec(m, v, Mode.PAR)
        # release 2: the previous pass left columns 0 and 2 active.
        assert rep.ops.phase_ops == (4, 2, 2, 5, 4, 5)
        assert m.oplog.snapshot().parallel_phases == 6 * 2000

    def test_phases_do_not_nest(self):
        log = OpLog()
        with pytest.raises(MachineStateError):
            with log.phase():
                with log.phase():
                    pass

    def test_raising_phase_is_recorded_only_if_it_charged(self):
        log = OpLog()
        with pytest.raises(RuntimeError):
            with log.phase():
                log.charge(OpCategory.LADDER_MOVE, 3)
                raise RuntimeError("stroke jammed")
        with pytest.raises(RuntimeError):
            with log.phase():
                raise RuntimeError("motion refused")
        ops = log.snapshot()
        assert ops.total == 3
        assert ops.phase_ops == (3,)

    @pytest.mark.parametrize("read", ["snapshot", "since"])
    def test_ledger_is_not_read_inside_a_phase(self, read):
        log = OpLog()
        start = log.snapshot()
        with pytest.raises(MachineStateError, match=f"{read} inside an open parallel phase"):
            with log.phase():
                log.charge(OpCategory.SCAN_STEP, 5)
                log.snapshot() if read == "snapshot" else log.since(start)
        log.charge(OpCategory.SCAN_STEP, 3)
        ops = log.since(start)
        assert ops == log.snapshot() - start
        assert ops.total == 8
        assert ops.phase_ops == (5,)  # the refused read's phase charged, so it is recorded
