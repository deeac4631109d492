"""A model-based test: hypothesis drives the contract operations, the
primitives, the parallel drives and calls that must be refused, in any
order, against a shadow model of the machine kept by the test itself. It
is the one shadow of the machine state in the tests.

Every call's ledger delta is checked against the cost model, and after
every step the loaded matrix and vector, the blocked rows, the output
sections (and from them the axis's ladders), the active columns and the
ledger's own sums must agree with the shadow, and reading them must charge
nothing. The `inspect` rule reads every cell's protrusion or light, the
whole grid, and one cell past the edge. So the model is the one home of
these properties: readback of any matrix, reloads included; sync fixing
any prior activation; the active set tracking the last synced vector; the
protrusion law; a sensed row equal to the shadow's clear row on both
backends; and inspection charging nothing. A failing sequence is reported
as found, not shrunk. Sizes include 1; 31, past the first 30-bit digit of
Python's int; 64, the 64-bit word; and 65, past it.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from mvpsim import (
    AxisLadderMachine,
    BitMatrix,
    BitVector,
    DimensionError,
    MachineStateError,
    Mode,
    OpCategory,
    WallLightMachine,
    matmul,
    matvec,
    oracle_matvec,
)
from conftest import PerRowAxisMachine, PerRowWallMachine, run_phase
from test_ledger import expected_pass_counts

C = OpCategory
CLASSES = (AxisLadderMachine, WallLightMachine, PerRowAxisMachine, PerRowWallMachine)
SIZES = (1, 2, 3, 31, 64, 65)
# Values are drawn from a seed and a density. Sparse ones leave rows that
# a single column blocks, so every column's bits, the 65th included, count.
SEEDS = st.integers(0, 2**16)
DENSITIES = st.sampled_from((0.0, 0.03, 0.1, 0.5, 1.0))
INDICES = st.integers(min_value=0, max_value=65)


class MachineModel(RuleBasedStateMachine):
    @initialize(cls=st.sampled_from(CLASSES), n=st.sampled_from(SIZES))
    def build(self, cls, n):
        self.m = cls(n)
        # Every charge must be an int >= 0: a negative one would borrow
        # from the next category's lane and show as another's count. A bulk
        # `_add` must hold every lane >= 0 (one that borrowed reads as a
        # lane near 2**64), and its total, from which phases are measured,
        # must be the sum of its lanes.
        log = self.m.oplog
        charge, bulk_phases, add = log.charge, log._charge_phases, log._add

        def checked_charge(category, amount=1):
            assert type(amount) is int and amount >= 0, (category, amount)
            charge(category, amount)

        def checked_charge_phases(category, amount, phases):
            assert type(amount) is type(phases) is int and min(amount, phases) >= 0, (amount, phases)
            bulk_phases(category, amount, phases)

        def checked_add(lanes, total):
            assert type(lanes) is type(total) is int and 0 <= lanes < 1 << 64 * len(OpCategory), lanes
            amounts = [lanes >> 64 * k & (1 << 64) - 1 for k in range(len(OpCategory))]
            assert total == sum(amounts), (amounts, total)
            add(lanes, total)

        log.charge, log._charge_phases, log._add = checked_charge, checked_charge_phases, checked_add
        self.n = n
        self.axis = isinstance(self.m, AxisLadderMachine)
        self.a = BitMatrix.zeros(n)
        self.loaded = False
        self.active: set[int] = set()
        self.vector: BitVector | None = None
        self.synced = False
        self.output_set = False
        self.sections = [1] * n
        self.phased = 0  # operations charged inside parallel phases
        self.start = self.m.oplog.snapshot()

    # -- the shadow model -------------------------------------------------------

    def clear(self, i: int) -> bool:
        return not any(self.a.rows[i][j] for j in self.active)

    def vector_of(self, seed: int, density: float, n: int | None = None) -> BitVector:
        return BitVector.random(n or self.n, Random(seed), density)

    def index(self, raw: int) -> int:
        """A row or column index, n (out of range) included."""
        return raw % (self.n + 1)

    def run(self, call, counts=None, phases=(), refused=None, phased=False):
        """Make `call` and check its ledger delta: exactly `counts` in
        `phases`, or nothing at all when it must raise `refused`."""
        log = self.m.oplog
        before = log.snapshot()
        result = None
        if refused is not None:
            with pytest.raises(refused):
                call()
            counts, phases = {}, ()
        else:
            result = call()
        delta = log.snapshot() - before
        assert dict(delta.counts) == {**dict.fromkeys(OpCategory, 0), **counts}
        assert delta.phase_ops == tuple(phases)
        if phased:
            self.phased += delta.total
        return result

    # -- contract operations ----------------------------------------------------

    @rule(seed=SEEDS, density=DENSITIES, par=st.booleans())
    def load_matrix(self, seed, density, par):
        n, k = self.n, len(self.active)
        a = BitMatrix.random(n, Random(seed), density)
        counts = {C.CELL_LOAD: n * n, C.COLUMN_DEACTIVATE: k}
        if par and self.axis:
            self.run(lambda: self.m.parallel_load_matrix(a), counts, (k,) + (n,) * n, phased=True)
        else:
            self.run(lambda: self.m.load_matrix(a), counts)
        self.a, self.loaded, self.active, self.synced = a, True, set(), False

    @rule(seed=SEEDS, density=DENSITIES, par=st.booleans(),
          refused=st.sampled_from((None, DimensionError, TypeError)))
    def load_vector(self, seed, density, par, refused):
        """Load a vector, or refuse one of dimension n + 1 (DimensionError)
        or a matrix in its place (TypeError)."""
        par = par and self.axis
        load = self.m.parallel_load_vector if par else self.m.load_vector
        if refused is not None:
            bad = (self.vector_of(seed, density, self.n + 1) if refused is DimensionError
                   else BitMatrix.random(self.n, Random(seed), density))
            self.run(lambda: load(bad), refused=refused)
            return
        v = self.vector_of(seed, density)
        self.run(lambda: load(v), {C.VECTOR_COORD_LOAD: self.n}, (self.n,) if par else (),
                 phased=par)
        self.vector, self.synced = v, False

    @rule(par=st.booleans())
    def sync(self, par):
        par = par and self.axis
        call = self.m.parallel_sync if par else self.m.sync_columns
        if not self.loaded or self.vector is None or self.output_set:
            self.run(call, refused=MachineStateError)
            return
        want = {j for j in range(self.n) if self.vector[j]}
        if par:
            k = len(self.active)
            counts = {C.COLUMN_DEACTIVATE: k, C.COLUMN_ACTIVATE: len(want)}
            self.run(call, counts, (k, len(want)), phased=True)
        else:
            counts = {C.SCAN_STEP: self.n, C.COLUMN_ACTIVATE: len(want - self.active),
                      C.COLUMN_DEACTIVATE: len(self.active - want)}
            self.run(call, counts)
        self.active, self.synced = want, True

    @rule(par=st.booleans())
    def set_output(self, par):
        par = par and self.axis
        call = self.m.parallel_ladder_step if par else self.m.set_output
        if not self.synced or self.output_set or 0 in self.sections:
            self.run(call, refused=MachineStateError, phased=par)
            return
        clear = [self.clear(i) for i in range(self.n)]
        sense = C.LADDER_MOVE if self.axis else C.LIGHT_OBSERVE
        counts = {sense: self.n, C.OUTPUT_SWITCH: sum(clear)}
        self.run(call, counts, (self.n + sum(clear),) if par else (), phased=par)
        self.sections = [0 if c else 1 for c in clear]
        self.output_set = True

    @rule(par=st.booleans())
    def report_output(self, par):
        par = par and self.axis
        call = self.m.parallel_report_output if par else self.m.report_output
        if not self.output_set:
            self.run(call, refused=MachineStateError, phased=par)
            return
        got = self.run(call, {C.OUTPUT_COORD_REPORT: self.n}, (self.n,) if par else (),
                       phased=par)
        assert got == BitVector(tuple(self.sections))

    @rule(par=st.booleans())
    def reset_output(self, par):
        par = par and self.axis
        call = self.m.parallel_reset_output if par else self.m.reset_output
        steps = self.sections.count(0) + (self.n if self.axis else 0)
        self.run(call, {C.RESET_STEP: steps}, (steps,) if par else (), phased=par)
        self.sections, self.output_set = [1] * self.n, False

    @rule(seed=SEEDS, density=DENSITIES, par=st.booleans())
    def stroke(self, seed, density, par):
        """Load a matrix if none is loaded, reset, load a vector, sync and
        set the output, each step checked by its rule: the standalone rules
        seldom line these up, so without this a bulk stroke at n = 65 with
        blocked rows is rare. The stroke is left for the invariant and the
        rules that follow."""
        if not self.loaded:
            self.load_matrix(seed, density, par)
        self.reset_output(par)
        self.load_vector(seed + 1, density, par, None)
        self.sync(par)
        self.set_output(par)

    # -- primitives -------------------------------------------------------------

    @rule(raw=INDICES, on=st.booleans())
    def switch_column(self, raw, on):
        j = self.index(raw)
        call = self.m.activate_column if on else self.m.deactivate_column
        if j == self.n:
            self.run(lambda: call(j), refused=IndexError)
        elif (j in self.active) == on:
            self.run(lambda: call(j), refused=MachineStateError)
        else:
            self.run(lambda: call(j), {C.COLUMN_ACTIVATE if on else C.COLUMN_DEACTIVATE: 1})
            (self.active.add if on else self.active.discard)(j)

    @rule(raw=INDICES)
    def sense(self, raw):
        i = self.index(raw)
        call = self.m.move_ladder if self.axis else self.m.observe_light
        if i == self.n:
            self.run(lambda: call(i), refused=IndexError)
        elif not self.axis:
            assert self.run(lambda: call(i), {C.LIGHT_OBSERVE: 1}) == self.clear(i)
        elif not self.sections[i]:
            self.run(lambda: call(i), refused=MachineStateError)
        else:
            clear = self.clear(i)
            counts = {C.LADDER_MOVE: 1, C.OUTPUT_SWITCH: int(clear)}
            assert self.run(lambda: call(i), counts) == clear
            if clear:
                self.sections[i] = 0

    @rule(raw=INDICES, past_row=st.booleans())
    def inspect(self, raw, past_row):
        """Read every cell's protrusion (axis) or light (wall) uncharged, then
        one cell past the edge. The whole grid, since one wrong cell among
        n^2 is seldom the one a random probe picks."""
        n, k = self.n, raw % self.n
        probe = self.m.protrusion if self.axis else self.m.passes_light
        cells = self.run(lambda: [[probe(i, j) for j in range(n)] for i in range(n)], {})
        # A cell protrudes exactly where it blocks, and light passes elsewhere.
        assert cells == [[(j in self.active and row[j] == 1) == self.axis for j in range(n)]
                         for row in self.a.rows]
        self.run(lambda: probe(n, k) if past_row else probe(k, n), refused=IndexError)

    # -- drivers and the ledger -------------------------------------------------

    @precondition(lambda self: self.loaded and not self.output_set and 0 not in self.sections)
    @rule(seed=SEEDS, density=DENSITIES, mode=st.sampled_from(Mode))
    def matvec(self, seed, density, mode):
        v = self.vector_of(seed, density)
        if mode is Mode.PAR and not self.axis:
            self.run(lambda: matvec(self.m, v, mode), refused=ValueError)
            return
        counts, phases = expected_pass_counts(
            self.a, frozenset(self.active), v, self.m.backend, mode
        )
        report = self.run(lambda: matvec(self.m, v, mode), counts, phases, phased=mode is Mode.PAR)
        assert report.result == oracle_matvec(self.a, v)
        assert report.ops.counts == counts and report.ops.phase_ops == phases
        self.vector, self.synced = v, True
        self.active = {j for j in range(self.n) if v[j]}

    @rule(seed=SEEDS, density=DENSITIES, mode=st.sampled_from(Mode))
    def refused_phase(self, seed, density, mode):
        """No phase opens inside another, and neither driver runs inside
        one: in any state and mode, each is refused before it charges or
        records anything."""
        log, m = self.m.oplog, self.m
        v, a = self.vector_of(seed, density), BitMatrix.random(self.n, Random(seed), density)
        self.run(lambda: run_phase(log, run_phase, log, lambda: None), refused=MachineStateError, phased=True)
        self.run(lambda: run_phase(log, matvec, m, v, mode), refused=MachineStateError, phased=True)
        self.run(lambda: run_phase(log, matmul, m, a, a, mode), refused=MachineStateError, phased=True)

    @invariant()
    def agrees_with_the_shadow(self):
        m, n = self.m, self.n
        before = m.oplog.snapshot()
        assert [m.row_blocked(i) for i in range(n)] == [not self.clear(i) for i in range(n)]
        assert m.loaded_matrix() == self.a
        assert m.loaded_vector() is self.vector
        assert m.active_columns() == self.active
        assert [m.column_active(j) for j in range(n)] == [j in self.active for j in range(n)]
        assert [m.output_section(i) for i in range(n)] == self.sections
        if self.axis:
            assert [m.ladder_shifted(i) for i in range(n)] == [not s for s in self.sections]
        assert m.oplog.snapshot() == before  # inspection charges nothing
        # Phases are measured from the log's running total, `phased` from
        # the snapshots' counts: the two must agree.
        assert sum(m.oplog.snapshot().phase_ops) == self.phased
        # `since` builds in one step what subtracting two snapshots gives.
        assert m.oplog.since(self.start) == m.oplog.snapshot() - self.start


# No shrink phase: a failure at n = 65 shrinks for minutes before it is
# reported, and a stalled run hides the failure it has already found.
MachineModel.TestCase.settings = settings(
    derandomize=True, max_examples=120, stateful_step_count=50, deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
TestMachineModel = MachineModel.TestCase
