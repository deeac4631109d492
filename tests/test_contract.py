"""The shared machine protocol: call order, exact charges, state readback."""

from __future__ import annotations

import contextlib
import copy
import pickle
from types import FunctionType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvpsim import (
    AxisLadderMachine,
    BitMatrix,
    BitVector,
    DimensionError,
    MachineStateError,
    Mode,
    MvpMachine,
    OpCategory,
    OpCounts,
    OpLog,
    WallLightMachine,
    make_machine,
    matmul,
    matvec,
    oracle_matvec,
)
from conftest import CONFIG_IDS, CONFIGS, PerRowAxisMachine, PerRowWallMachine, matrix_vector_pairs

A4 = BitMatrix(((1, 0, 1, 0), (1, 1, 0, 1), (0, 0, 0, 0), (1, 0, 1, 1)))

# One step on an OpLog: a charge, a phase of charges (raising an Exception,
# a BaseException that is not one, or nothing), a run of equal phases, a
# snapshot (pickled or not), a delta since a taken snapshot, or the
# subtraction of two taken snapshots, picked by index.
_CHARGE = st.tuples(st.just("charge"), st.sampled_from(OpCategory), st.integers(0, 2**40))
LEDGER_STEPS = st.lists(
    st.one_of(
        _CHARGE,
        st.tuples(st.just("phase"), st.lists(_CHARGE, max_size=3),
                  st.sampled_from((None, RuntimeError, KeyboardInterrupt))),
        st.tuples(st.just("charge_phases"), st.sampled_from(OpCategory), st.integers(0, 2**40),
                  st.integers(0, 3)),
        st.tuples(st.just("snapshot"), st.booleans()),
        st.tuples(st.just("since"), st.integers(0, 63)),
        st.tuples(st.just("sub"), st.integers(0, 63), st.integers(0, 63)),
    ),
    max_size=30,
)


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


# A loaded, synced 3x3 machine: columns 0 and 2 are active, so a load
# that released them before refusing would change the next report.
A3 = BitMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 0)))
V3 = BitVector((1, 0, 1))


def _operand_entry(name, mode):
    """The kind an entry point takes and a call of it with the operand x:
    the parallel loads in Mode.PAR, the sequential ones otherwise."""
    par = mode is Mode.PAR
    return {
        "load_matrix": (BitMatrix, lambda m, x: (m.parallel_load_matrix if par else m.load_matrix)(x)),
        "load_vector": (BitVector, lambda m, x: (m.parallel_load_vector if par else m.load_vector)(x)),
        "matvec": (BitVector, lambda m, x: matvec(m, x, mode)),
        "matmul-a": (BitMatrix, lambda m, x: matmul(m, x, A3, mode)),
        "matmul-b": (BitMatrix, lambda m, x: matmul(m, A3, x, mode)),
    }[name]


# For each kind, the value of the other type, a tuple, and one of dimension 4.
_BAD_OPERANDS = {
    BitMatrix: {"other-type": BitVector.ones(3), "tuple": A3.rows, "dimension": BitMatrix.ones(4)},
    BitVector: {"other-type": BitMatrix.ones(3), "tuple": V3.coords, "dimension": BitVector.ones(4)},
}


class TestOperands:
    @pytest.mark.parametrize("backend,mode", CONFIGS, ids=CONFIG_IDS)
    @pytest.mark.parametrize("entry", ["load_matrix", "load_vector", "matvec", "matmul-a", "matmul-b"])
    @pytest.mark.parametrize("bad", ["other-type", "tuple", "dimension"])
    def test_a_refused_operand_changes_nothing(self, backend, mode, entry, bad):
        kind, call = _operand_entry(entry, mode)
        m = make_machine(backend, 3)
        m.load_matrix(A3)
        m.load_vector(V3)
        m.sync_columns()
        before = m.oplog.snapshot()
        with pytest.raises(DimensionError if bad == "dimension" else TypeError):
            call(m, _BAD_OPERANDS[kind][bad])
        assert m.oplog.snapshot() == before
        assert m.loaded_matrix() == A3
        assert m.active_columns() == {0, 2}
        assert m.loaded_vector() is V3
        m.set_output()
        assert m.report_output() == oracle_matvec(A3, V3)


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


class _PlainWallMachine(WallLightMachine):
    """Overrides nothing."""


class _OwnReportWallMachine(_PlainWallMachine):
    """Overrides one contract operation, below a class that has a copy of it."""

    def report_output(self) -> BitVector:
        return super().report_output()


class _BelowOwnReportWallMachine(_OwnReportWallMachine):
    """Inherits the override above."""


class TestPerBackendCode:
    # Each class and the MvpMachine functions it or a base overrides.
    CLASSES = {
        AxisLadderMachine: {"__init__"},
        WallLightMachine: set(),
        PerRowAxisMachine: {"__init__"},
        PerRowWallMachine: {"__init__"},
        _PlainWallMachine: set(),
        _OwnReportWallMachine: {"report_output"},
        _BelowOwnReportWallMachine: {"report_output"},
    }
    SHARED = {name: f for name, f in vars(MvpMachine).items() if type(f) is FunctionType}

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_each_class_runs_its_own_copy_of_the_shared_code(self, cls):
        assert {"set_output", "load_vector", "_blocked_rows"} <= self.SHARED.keys()
        for name, f in self.SHARED.items():
            mine = getattr(cls, name)
            if name in self.CLASSES[cls]:
                assert mine.__code__ != f.__code__, name
                continue
            assert mine.__code__ == f.__code__ and mine.__code__ is not f.__code__, name
            assert vars(cls)[name] is mine, name  # not a base's copy
            assert (mine.__qualname__, mine.__doc__, mine.__module__) == (
                f.__qualname__, f.__doc__, f.__module__), name
            assert mine.__code__.co_firstlineno == f.__code__.co_firstlineno, name
            assert (mine.__defaults__, mine.__kwdefaults__, mine.__annotations__) == (
                f.__defaults__, f.__kwdefaults__, f.__annotations__), name
            assert mine.__globals__ is f.__globals__, name

    def test_an_override_is_kept_below_and_above(self):
        assert _OwnReportWallMachine.report_output is vars(_OwnReportWallMachine)["report_output"]
        assert _BelowOwnReportWallMachine.report_output is _OwnReportWallMachine.report_output
        # A backend's own __init__ stays above a subclass that defines none.
        assert AxisLadderMachine.__init__ is vars(AxisLadderMachine)["__init__"]
        m = type("PlainAxisMachine", (AxisLadderMachine,), {})(3)
        assert type(m).__init__ is AxisLadderMachine.__init__
        assert m._ladder_shifted == bytearray(3)
        assert type(MvpMachine.__dict__["oplog"]) is property and "oplog" not in vars(AxisLadderMachine)

    @pytest.mark.parametrize("cls, per_row", [
        (AxisLadderMachine, False), (WallLightMachine, False), (_OwnReportWallMachine, False),
        (PerRowAxisMachine, True), (PerRowWallMachine, True),
    ])
    def test_copies_work_as_the_shared_code_and_leave_per_row_dispatch_alone(self, cls, per_row):
        m = cls(4)
        assert m._per_row is per_row
        m.load_matrix(A4)
        v = BitVector((1, 0, 0, 1))
        assert run_pass(m, v) == oracle_matvec(A4, v)


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
        a.phase(a.charge, OpCategory.LADDER_MOVE, 2)
        b.phase(b.charge, OpCategory.SCAN_STEP)
        with pytest.raises(ValueError):  # phase shapes disagree
            b.snapshot() - a.snapshot()
        c = OpLog()
        c.charge(OpCategory.SCAN_STEP, 3)
        with pytest.raises(ValueError):  # counts would go negative
            OpLog().snapshot() - c.snapshot()

    def test_subtracting_what_is_not_a_snapshot_is_a_type_error(self):
        log = OpLog()
        snap = log.snapshot()
        for bad in (5, None, {}):
            with pytest.raises(TypeError):
                snap - bad
            with pytest.raises(TypeError):
                bad - snap
            with pytest.raises(TypeError):
                log.since(bad)

    def test_subtraction_drops_shared_phases(self):
        log = OpLog()
        log.phase(log.charge, OpCategory.SCAN_STEP, 2)
        first = log.snapshot()
        log.phase(log.charge, OpCategory.LADDER_MOVE, 5)
        delta = log.snapshot() - first
        assert delta.phase_ops == (5,)
        assert delta.parallel_phases == 1
        assert delta.total == 5

    def test_snapshots_of_one_state_are_equal(self):
        log = OpLog()
        log.charge(OpCategory.CELL_LOAD, 4)
        log.phase(log.charge, OpCategory.SCAN_STEP, 2)
        first = log.snapshot()
        assert log.snapshot() == first
        log.charge(OpCategory.SCAN_STEP)
        assert log.snapshot() != first
        assert first.total == 6 and first.phase_ops == (2,)

    def test_snapshots_of_one_log_compare_and_hash_without_reading_a_phase(self):
        class Unreadable(list):
            def __getitem__(self, k):
                raise AssertionError("a phase entry was read")

            def __iter__(self):
                raise AssertionError("the phases were iterated")

        log = OpLog()
        log._phase_ops = Unreadable()
        log.phase(log.charge, OpCategory.SCAN_STEP, 2)
        first, again = log.snapshot(), log.snapshot()
        assert first == again and hash(first) == hash(again)
        log.charge_phases(OpCategory.SCAN_STEP, 0, 1)  # same counts, one phase more
        assert log.snapshot() != first and hash(log.snapshot()) != hash(first)
        log.charge(OpCategory.SCAN_STEP)
        assert log.snapshot() != first

    def test_values_over_other_phase_lists_compare_their_entries(self):
        log = OpLog()
        log.phase(log.charge, OpCategory.SCAN_STEP, 2)
        log.phase(log.charge, OpCategory.SCAN_STEP, 3)
        snap = log.snapshot()
        built = OpCounts(snap.counts, (2, 3))
        assert built == snap and snap == pickle.loads(pickle.dumps(snap))
        assert hash(built) == hash(snap)
        assert OpCounts(snap.counts, (3, 2)) != snap

    def test_snapshot_is_immutable(self):
        log = OpLog()
        log.phase(log.charge, OpCategory.SCAN_STEP, 2)
        snap = log.snapshot()
        with pytest.raises(AttributeError):
            snap.phase_ops = ()
        with pytest.raises(AttributeError):
            snap.counts = {}
        log.phase(log.charge, OpCategory.SCAN_STEP, 3)
        assert snap.phase_ops == (2,)
        assert snap.parallel_phases == 1
        assert snap.total == 2

    def test_delta_of_deltas(self):
        log = OpLog()
        start = log.snapshot()
        log.phase(log.charge, OpCategory.LADDER_MOVE, 2)
        middle = log.snapshot()
        log.charge(OpCategory.CELL_LOAD)
        log.phase(log.charge, OpCategory.SCAN_STEP, 3)
        end = log.snapshot()
        delta = (end - start) - (middle - start)
        assert delta == end - middle
        assert delta.phase_ops == (3,)
        assert delta.total == 4
        assert delta.count(OpCategory.CELL_LOAD) == 1
        assert (end - start) - (end - start) == OpCounts(dict.fromkeys(OpCategory, 0))

    def test_delta_from_a_built_snapshot(self):
        log = OpLog()
        log.phase(log.charge, OpCategory.SCAN_STEP, 2)
        built = OpCounts({**dict.fromkeys(OpCategory, 0), OpCategory.SCAN_STEP: 2}, (2,))
        assert log.snapshot() == built
        log.phase(log.charge, OpCategory.LADDER_MOVE, 5)
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
        log.phase(log.charge, OpCategory.SCAN_STEP, 2)
        snap = log.snapshot()
        other = OpLog()
        other.phase(other.charge, OpCategory.SCAN_STEP, 1)
        bigger = OpLog()
        bigger.charge(OpCategory.LADDER_MOVE, 9)
        log.phase(log.charge, OpCategory.LADDER_MOVE, 5)
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

    @pytest.mark.parametrize("big", [1 << 64, 1 << 200])
    def test_built_snapshot_refuses_a_count_past_its_lane(self, big):
        class Forged:
            def __reduce__(self):
                return OpCounts, ({OpCategory.SCAN_STEP: 2, OpCategory.CELL_LOAD: big}, ())

        for build in (lambda: OpCounts({OpCategory.SCAN_STEP: 2, OpCategory.CELL_LOAD: big}),
                      lambda: pickle.loads(pickle.dumps(Forged()))):
            with pytest.raises(ValueError) as refused:
                build()
            assert str(refused.value) == f"operation counts must be below 2**64, got {big}"

    def test_counts_fill_their_lanes(self):
        # The largest count in every lane, beside phase entries past 2**64,
        # which have no lane.
        top = (1 << 64) - 1
        full = OpCounts(dict.fromkeys(OpCategory, top), (top, 1 << 70))
        assert full.counts == dict.fromkeys(OpCategory, top)
        assert [full.count(c) for c in OpCategory] == [top] * len(OpCategory)
        assert full.total == len(OpCategory) * top
        assert full.phase_ops == (top, 1 << 70)
        twin = pickle.loads(pickle.dumps(full))
        assert twin == full and hash(twin) == hash(full)
        assert twin.counts == full.counts and twin.total == full.total
        assert full - full == twin - full == OpCounts({})
        # One full lane between empty ones, and a full lane emptied between
        # full ones: no count spills into or borrows from its neighbours.
        one = OpCounts({OpCategory.LADDER_MOVE: top})
        assert one.counts == {**dict.fromkeys(OpCategory, 0), OpCategory.LADDER_MOVE: top}
        assert one.total == top and one != full
        rest = full - one
        assert rest.counts == {**dict.fromkeys(OpCategory, top), OpCategory.LADDER_MOVE: 0}
        assert rest.total == (len(OpCategory) - 1) * top
        with pytest.raises(ValueError, match="do not share a machine history"):
            one - full

    @settings(max_examples=60)
    @given(LEDGER_STEPS)
    # A phase that raises a BaseException is recorded if and only if it
    # charged, as one raising an Exception is; the next phase and snapshot
    # succeed.
    @example([("phase", [("charge", OpCategory.LADDER_MOVE, 3)], KeyboardInterrupt),
              ("phase", [], KeyboardInterrupt), ("phase", [], None)])
    def test_ledger_agrees_with_a_plain_reference(self, steps):
        # The reference keeps the counts in a dict and the phases in a list;
        # `taken` holds every snapshot with the reference's state at the time.
        log = OpLog()
        counts, phases = dict.fromkeys(OpCategory, 0), []
        taken = [(log.snapshot(), dict(counts), ())]

        def charge(category, amount):
            log.charge(category, amount)
            counts[category] += amount

        def agrees(ops, want_counts, want_phases):
            assert ops.counts == want_counts
            assert [ops.count(c) for c in OpCategory] == list(want_counts.values())
            assert ops.total == sum(want_counts.values())
            assert ops.phase_ops == want_phases and ops.parallel_phases == len(want_phases)

        def reference_delta(later, earlier):
            """(counts, phases) of later minus earlier, or None if refused."""
            diff = {c: later[1][c] - earlier[1][c] for c in OpCategory}
            if min(diff.values()) < 0 or later[2][: len(earlier[2])] != earlier[2]:
                return None
            return diff, later[2][len(earlier[2]) :]

        for step in steps:
            kind = step[0]
            if kind == "charge":
                charge(step[1], step[2])
            elif kind == "phase":
                _, charges, raises = step

                def motion():
                    for _, category, amount in charges:
                        charge(category, amount)
                    if raises:
                        raise raises("motion refused")

                with pytest.raises(raises) if raises else contextlib.nullcontext():
                    log.phase(motion)
                charged = sum(amount for _, _, amount in charges)
                if charged or not raises:
                    phases.append(charged)
            elif kind == "charge_phases":
                _, category, amount, k = step
                log.charge_phases(category, amount, k)
                counts[category] += amount * k
                phases += [amount] * k
            elif kind == "snapshot":
                snap = log.snapshot()
                taken.append((pickle.loads(pickle.dumps(snap)) if step[1] else snap,
                              dict(counts), tuple(phases)))
                agrees(*taken[-1])
            elif kind == "since":
                before = taken[step[1] % len(taken)][0]
                assert log.since(before) == log.snapshot() - before
            else:
                later, earlier = taken[step[1] % len(taken)], taken[step[2] % len(taken)]
                want = reference_delta(later, earlier)
                if want is None:
                    with pytest.raises(ValueError, match="do not share a machine history"):
                        later[0] - earlier[0]
                else:
                    agrees(later[0] - earlier[0], *want)
            now = (log.snapshot(), dict(counts), tuple(phases))
            agrees(*now)
            for before in taken:
                agrees(log.since(before[0]), *reference_delta(now, before))

    def test_earlier_minus_later_is_refused(self):
        log = OpLog()
        earlier = log.snapshot()
        log.phase(log.charge, OpCategory.SCAN_STEP)
        with pytest.raises(ValueError, match="do not share a machine history"):
            earlier - log.snapshot()

    def test_earlier_minus_a_later_snapshot_past_an_empty_phase_is_refused(self):
        # The later snapshot shares the log's phase list and adds no count,
        # only a phase that charged nothing: a slice alone would read empty.
        log = OpLog()
        earlier = log.snapshot()
        log.phase(lambda: None)
        later = log.snapshot()
        assert later.phase_ops == (0,)
        with pytest.raises(ValueError, match="do not share a machine history"):
            earlier - later

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
            log.phase(log.phase, lambda: None)

    def test_charge_phases_records_equal_phases_in_one_call(self):
        # The same ledger as k phase() calls that charge `amount` each.
        bulk, blocks = OpLog(), OpLog()
        for log in (bulk, blocks):
            log.phase(log.charge, OpCategory.COLUMN_DEACTIVATE, 2)
        before = bulk.snapshot()
        bulk.charge_phases(OpCategory.CELL_LOAD, 5, 3)
        for _ in range(3):
            blocks.phase(blocks.charge, OpCategory.CELL_LOAD, 5)
        ops = bulk.snapshot()
        assert ops == blocks.snapshot()
        assert ops.count(OpCategory.CELL_LOAD) == 15 and ops.total == 17
        assert ops.phase_ops == (2, 5, 5, 5)
        assert before.phase_ops == (2,)
        delta = bulk.since(before)
        assert delta == ops - before
        assert delta.counts == {**dict.fromkeys(OpCategory, 0), OpCategory.CELL_LOAD: 15}
        assert delta.phase_ops == (5, 5, 5)
        bulk.charge_phases(OpCategory.CELL_LOAD, 5, 0)
        assert bulk.snapshot() == ops

    def test_charge_phases_is_refused_inside_an_open_phase(self):
        log = OpLog()
        log.phase(log.charge, OpCategory.SCAN_STEP, 4)
        earlier = log.snapshot()
        with pytest.raises(MachineStateError, match="inside an open parallel phase"):
            log.phase(log.charge_phases, OpCategory.CELL_LOAD, 3, 2)
        # The refused call charged nothing, so its phase is not recorded.
        assert log.snapshot() == earlier
        assert earlier.phase_ops == (4,) and earlier.total == 4
        assert log.since(earlier) == OpCounts({})

    @pytest.mark.parametrize(
        "amount,phases",
        [(-1, 2), (3, -1), (True, 2), (3, True), (2.0, 2), (3, 2.0), (3, None)],
        ids=["amount", "phases", "bool-amount", "bool-phases", "float-amount", "float-phases",
             "none-phases"],
    )
    def test_charge_phases_refuses_a_negative_amount_or_count(self, amount, phases):
        # A negative charge would borrow from the next category's lane; a
        # bool would be recorded as a phase entry that no snapshot can be
        # rebuilt from, and a float cannot be shifted to a lane.
        log = OpLog()
        log.charge(OpCategory.VECTOR_COORD_LOAD, 5)
        log.phase(log.charge, OpCategory.SCAN_STEP, 4)
        earlier = log.snapshot()
        with pytest.raises(ValueError, match="amounts >= 0"):
            log.charge_phases(OpCategory.CELL_LOAD, amount, phases)
        assert log.snapshot() == earlier
        assert earlier.phase_ops == (4,) and earlier.total == 9
        assert log.since(earlier) == OpCounts({})

    def test_raising_phase_is_recorded_only_if_it_charged(self):
        log = OpLog()
        def jammed():
            log.charge(OpCategory.LADDER_MOVE, 3)
            raise RuntimeError("stroke jammed")

        def refused():
            raise RuntimeError("motion refused")

        with pytest.raises(RuntimeError):
            log.phase(jammed)
        with pytest.raises(RuntimeError):
            log.phase(refused)
        ops = log.snapshot()
        assert ops.total == 3
        assert ops.phase_ops == (3,)

    @pytest.mark.parametrize("read", ["snapshot", "since"])
    def test_ledger_is_not_read_inside_a_phase(self, read):
        log = OpLog()
        start = log.snapshot()
        def charge_and_read():
            log.charge(OpCategory.SCAN_STEP, 5)
            log.snapshot() if read == "snapshot" else log.since(start)

        with pytest.raises(MachineStateError, match=f"{read} inside an open parallel phase"):
            log.phase(charge_and_read)
        log.charge(OpCategory.SCAN_STEP, 3)
        ops = log.since(start)
        assert ops == log.snapshot() - start
        assert ops.total == 8
        assert ops.phase_ops == (5,)  # the refused read's phase charged, so it is recorded
