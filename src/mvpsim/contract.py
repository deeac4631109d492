"""The abstract matrix-vector processor contract, its machine state model
and its operation ledger.

A machine owns an n x n Boolean input array whose columns can be switched
on ("active") and off, an n-dimensional input vector, and an n-dimensional
output vector whose sections start at 1. One matrix-vector pass runs

    load_vector -> sync_columns -> set_output -> report_output -> reset_output

and leaves the reported vector equal to the Boolean product of the loaded
array and the vector: coordinate i is 1 exactly when row i holds a 1 in
some active column. Out-of-order calls raise MachineStateError instead of
silently doing nothing, so driver bugs surface early. Column activation
survives reset_output; it only changes when the next vector is synced.
MvpMachine keeps this state and switches the columns for every backend;
a backend adds only its physics, how a row is sensed and how its output
mechanism returns home. A stroke starts only from home, every output
section at 1: after set_output, even one that raised part way, the next
set_output is refused until reset_output.

Cost model. Every mechanical primitive charges exactly one category:

    load_matrix      n*n CellLoad, plus one ColumnDeactivate for each
                     column still active when loading starts
    load_vector      n VectorCoordLoad
    sync_columns     n ScanStep, plus one ColumnActivate/ColumnDeactivate
                     per column whose state differs from the vector
    set_output       axis backend: n LadderMove plus one OutputSwitch per
                     unblocked row; wall backend: n LightObserve plus one
                     OutputSwitch per row where the light is observed
    report_output    n OutputCoordReport
    reset_output     axis backend: n ResetStep (ladder returns) plus one
                     ResetStep per output section switched back to 1;
                     wall backend: one ResetStep per switch-back

Under these constants a full pass costs at most 8n operations and a fresh
machine's matrix product costs at most 9n^2; the test suite asserts those
bounds as exact arithmetic inequalities. Parallel drives (where a backend
offers one) group charges into phases: one phase is one machine-wide
motion, and the ledger records the operations charged inside each phase.
The ledger is read through immutable snapshots. A run's share of it is
one delta, `OpLog.since(before)`, which equals `snapshot() - before` and
is built from the log in one step, without a second snapshot.

How the machine keeps its state and charges it (bit masks, bulk
charging, the per-row output bytes and the blocked-row tables) is told
in the MvpMachine docstring.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import FrozenInstanceError
from enum import Enum
from functools import reduce
from itertools import compress, islice
from operator import or_, sub
from typing import Callable, ClassVar, Mapping, Sequence

from .bits import BitMatrix, BitVector, DimensionError, _dimension, _flags, _index, _mask


class MachineStateError(RuntimeError):
    """An operation was invoked out of order or against its precondition."""


class OpCategory(Enum):
    """Kinds of counted mechanical operations. Each primitive a backend
    executes increments exactly one category."""

    COLUMN_ACTIVATE = "column_activate"
    COLUMN_DEACTIVATE = "column_deactivate"
    SCAN_STEP = "scan_step"
    LADDER_MOVE = "ladder_move"
    OUTPUT_SWITCH = "output_switch"
    LIGHT_OBSERVE = "light_observe"
    CELL_LOAD = "cell_load"
    VECTOR_COORD_LOAD = "vector_coord_load"
    OUTPUT_COORD_REPORT = "output_coord_report"
    RESET_STEP = "reset_step"

    # Members are singletons compared by identity, also after unpickling: the
    # C-level identity hash spares every ledger charge Enum.__hash__.
    __hash__ = object.__hash__


_CATEGORIES = tuple(OpCategory)
_INDEX = {c: k for k, c in enumerate(_CATEGORIES)}
# The members bound once, for the charges (see MvpMachine, Bulk charging).
(_COLUMN_ACTIVATE, _COLUMN_DEACTIVATE, _SCAN_STEP, _LADDER_MOVE, _OUTPUT_SWITCH, _LIGHT_OBSERVE,
 _CELL_LOAD, _VECTOR_COORD_LOAD, _OUTPUT_COORD_REPORT, _RESET_STEP) = _CATEGORIES


class OpCounts:
    """Immutable snapshot of an OpLog.

    `counts` maps every category to its count; the snapshot holds the
    counts as a tuple in OpCategory order and builds the mapping when it is
    read. `phase_ops[k]` is the number of operations charged during the
    k-th completed parallel phase. Subtracting an earlier snapshot of the
    same machine yields the counts for the interval between the two, and
    `OpLog.since` builds the same delta straight from the log.

    A snapshot taken by `OpLog.snapshot()` does not copy the phase history:
    it holds the log's phase list, which only ever grows, and the list's
    length at the time. Subtracting two snapshots of one log slices out
    only the interval, so a snapshot and a delta cost O(categories + phases
    in the interval). Any other pair (snapshots of two logs, or built or
    unpickled ones) is checked by comparing the earlier phase history with
    a prefix of the later one.

    Building one by hand (and unpickling one) refuses with ValueError an
    unknown category and any count or phase entry that is not an int >= 0,
    a bool included. Snapshots and deltas hold only what a log counted and
    are built unchecked by `_ops`.
    """

    __slots__ = ("_counts", "_phases", "_stop")

    def __new__(cls, counts: Mapping[OpCategory, int], phase_ops: Sequence[int] = ()) -> "OpCounts":
        full = dict.fromkeys(OpCategory, 0)
        full.update(counts)
        if len(full) != len(OpCategory):
            raise ValueError(f"unknown operation categories in {counts!r}")
        phases = tuple(phase_ops)
        for k in (*full.values(), *phases):
            if type(k) is not int or k < 0:
                raise ValueError(f"operation counts must be ints >= 0, got {k!r}")
        return _ops(tuple(full.values()), phases)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return OpCounts, (self.counts, self.phase_ops)

    @property
    def counts(self) -> dict[OpCategory, int]:
        """The count of every category, as a new dict."""
        return dict(zip(_CATEGORIES, self._counts))

    @property
    def phase_ops(self) -> tuple[int, ...]:
        return tuple(self._phases[: self._stop])

    @property
    def total(self) -> int:
        return sum(self._counts)

    @property
    def parallel_phases(self) -> int:
        return self._stop

    def count(self, category: OpCategory) -> int:
        return self._counts[_INDEX[category]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpCounts):
            return NotImplemented
        return self._counts == other._counts and self.phase_ops == other.phase_ops

    def __repr__(self) -> str:
        return f"OpCounts(counts={self.counts!r}, phase_ops={self.phase_ops!r})"

    def __sub__(self, earlier: "OpCounts") -> "OpCounts":
        start = earlier._stop
        if earlier._phases is self._phases and start <= self._stop:
            phases = self._phases[start : self._stop]
        else:
            phases = self.phase_ops
            if phases[:start] != earlier.phase_ops:
                raise ValueError("snapshots do not share a machine history")
            phases = phases[start:]
        counts = tuple(map(sub, self._counts, earlier._counts))
        if min(counts) < 0:
            raise ValueError("snapshots do not share a machine history")
        return _ops(counts, phases)


_set_counts = OpCounts._counts.__set__
_set_phases = OpCounts._phases.__set__
_set_stop = OpCounts._stop.__set__


def _ops(counts: tuple[int, ...], phases: Sequence[int]) -> OpCounts:
    """An OpCounts of `counts`, one per category in OpCategory order, and
    the current entries of `phases`, which is not copied. It fills the
    slots through their descriptors, which `__setattr__` does not guard."""
    ops = object.__new__(OpCounts)
    _set_counts(ops, counts)
    _set_phases(ops, phases)
    _set_stop(ops, len(phases))
    return ops


class OpLog:
    """Mutable tally of counted mechanical operations.

    Machines charge into it and group charges into phases; everything else
    reads it only through OpCounts: `snapshot()` for the whole ledger and
    `since(before)` for what was charged after the snapshot `before`. Counts
    and phases only grow: there is no way to wipe a log, so every delta
    between two of its snapshots is a real interval of the machine's work.
    """

    def __init__(self) -> None:
        self._counts: dict[OpCategory, int] = dict.fromkeys(OpCategory, 0)
        self._total = 0  # the sum over categories; phases are measured from it
        self._phase_ops: list[int] = []  # only appended to
        self._phase_start: int | None = None  # the total when the open phase began

    def charge(self, category: OpCategory, amount: int = 1) -> None:
        self._counts[category] += amount
        self._total += amount

    def phase(self) -> OpLog:
        """Account one parallel phase; charges inside are attributed to it.

        A phase that raises is recorded if and only if it charged at least
        one operation, so a refused motion leaves `phase_ops` untouched and
        `sum(phase_ops)` always equals the operations charged in phases.
        """
        return self

    def __enter__(self) -> None:
        if self._phase_start is not None:
            raise MachineStateError("parallel phases cannot nest")
        self._phase_start = self._total

    def __exit__(self, exc_type, exc, tb) -> None:
        charged = self._total - self._phase_start
        self._phase_start = None
        if exc_type is None or charged:
            self._phase_ops.append(charged)

    def snapshot(self) -> OpCounts:
        """The whole ledger. Refused with MachineStateError while a phase
        is open: its charges are in the counts but in no recorded phase
        yet, so a snapshot there would disagree with its own phases."""
        if self._phase_start is not None:
            raise MachineStateError("snapshot inside an open parallel phase")
        return _ops(tuple(self._counts.values()), self._phase_ops)

    def since(self, before: OpCounts) -> OpCounts:
        """The operations charged after the snapshot `before`: equal to
        `self.snapshot() - before`, without building the second snapshot.
        A snapshot of this log needs no check, since its counts and phases
        only grow; any other one is subtracted, with its history check.
        Refused, like snapshot, while a phase is open."""
        if self._phase_start is not None:
            raise MachineStateError("since inside an open parallel phase")
        phases = self._phase_ops
        if before._phases is not phases:
            return self.snapshot() - before
        return _ops(tuple(map(sub, self._counts.values(), before._counts)), phases[before._stop :])


class MvpMachine(ABC):
    """Abstract matrix-vector processor.

    The machine state model lives here, as int bit masks in the format of
    `bits._mask`: `_cols[j]` is column j as a row mask (bit i = row i) and
    `_active` the mask of active columns (bit j = column j). The mask of
    rows holding a 1 in an active column is not stored: `_blocked_rows()`
    computes it on every read, since each pass reads it once, after its
    sync. The output sections are a bytearray, one 0/1 byte per row
    (`_sections[i]` is section i), and report_output packs those bytes,
    not the blocked mask, so a machine that senses differently is reported
    as its sections read. Only this class writes them: the bulk stroke
    installs them whole, reset_output restores them, and a per-row sensing
    step that finds row i clear calls `_clear_section(i)`, which switches
    the section to 0 and charges its OutputSwitch. Column switching, the
    six contract operations, the legal call order and the shared parts of
    the cost model live here too. Subclasses supply only their physics:
    how a row is sensed (the `_sense_row` hook) and how many ResetStep each
    row's output part takes to return home (the `_return_steps` constant).

    Bulk charging. A contract operation charges each of its categories
    once, with the amount counted from the masks. A load writes all n of
    the matrix's column masks in one step, as they are, and charges n^2
    CellLoad in one call (the parallel load keeps one phase, and so one
    charge, per column), a sync flips `_active` by the mask of the columns
    that differ from the vector's mask, set_output ORs the active columns
    (reduce over itertools.compress, or over the tables below) and installs
    the section bytes whole from the blocked mask, report_output packs the
    section bytes into a vector's mask, and reset_output counts the 0 bytes
    and restores them. All three touch the
    section bytes only when a row is clear: a stroke that blocks every row
    leaves the sections at home, all 1, so it installs nothing, the report
    finds no 0 byte and reads the all-ones mask, and the reset finds no
    flipped section to restore. A pass is therefore O(1) ledger calls and
    O(1) Python steps; its O(n) work runs inside C-level calls. The
    primitives (activate_column, move_ladder, observe_light, ...) keep
    their single charges. Every charge here and in the backends names its
    category by a module name bound at import (`_SCAN_STEP`, ...): reading
    `OpCategory.SCAN_STEP` goes through the enum class and costs as much
    as the charge.

    Blocked-row tables (Four Russians: Arlazarov, Dinic, Kronrod and
    Faradzev, 1970). The OR of the active columns takes one OR per active
    column, O(n^3 / word size) over a product. Split into groups of 8
    (the last may hold fewer), the loaded columns give one table per
    group whose entry m is the OR of the group's columns that the bits of
    m select, so a read takes one lookup and one OR per group: n/8, all
    C-level. A read ORs the first 16 masks (columns or table entries) and
    stops there if every row is blocked, as on a dense input it nearly
    always is; only otherwise does it OR the rest. Building the tables
    takes 2^k - 1 ORs for a group of k columns, about 32n. They are built
    inside `_blocked_rows()`, after the read with which the ORs actually
    spent since the last load reach that cost, so the n reads of a product
    that stay sparse (a few active columns a pass) or stop after 16 columns
    never pay for them, while a longer stream on one load does. The
    stream-matvec benchmark workload (n = 64, density 1/2, 4000 passes
    that each stop after 16 columns) builds them on pass 127 and needs
    them: held off, its reads take about 1.6x as long and its passes about
    1.15x (timeit, and interleaved runs in one process, on a shared 2-vCPU
    Xeon). They depend only on `_cols`, so they stay valid across passes,
    and `_begin_matrix_load` voids them and the count once per load,
    sequential or parallel. No operation is charged for them either way.

    Per-row dispatch. Sensing is the one physical step a subclass models
    per row: a machine that senses differently, such as a fault-injection
    machine, overrides the backend's sensing primitive (`_sensor`, i.e.
    `move_ladder` or `observe_light`). When `type(self)` overrides it, at
    any depth below the backend, set_output calls it once per row
    (`_sense_row`), exactly as a stroke of n primitive calls, so the
    override sees every row. The answer depends only on the class, so
    `__init__` decides it once (`_per_row`), not every stroke. Column switches
    need no such rule: no subclass models them differently, and a sync
    toggles a whole mask of columns in one motion.

    Inspection helpers (`loaded_matrix`, `loaded_vector`, `column_active`,
    `active_columns`, `output_section`, `row_blocked`) read machine state
    without charging operations; they model an observer looking at the
    machine, not the machine working. `row_blocked(i)` is the one row
    probe of both backends, free of their polarity: row i holds a 1 in
    some active column, so a protrusion blocks its ladder or a shifted
    wall occludes its light. Computing the blocked rows is bookkeeping
    only and never charges operations.

    Output home. A backend's moving output part (the axis ladder; the wall
    has none) is away from home exactly where its section reads 0, since
    its completed stroke is what flipped the section. So its position is
    read from the sections, not stored: `ladder_shifted(i)` is
    `not output_section(i)`. And set_output reads "the output is home" as
    "no section reads 0" for both backends and refuses a stroke otherwise.
    That holds after a stroke that raised part way too: the rows it
    switched stay switched, and charging them again before reset_output
    would count more OutputSwitch than ResetStep.

    Index check. Every primitive and inspector that takes a row or column
    index passes it through `bits._index` first, which raises IndexError,
    before anything is charged, unless the index is an int in 0..n-1: a
    bool or a float is refused too, never read as a number.
    """

    backend: ClassVar[str]
    supports_parallel: ClassVar[bool] = False
    # The backend's own per-row sensing primitive and the category it
    # charges; set_output senses in bulk unless a subclass overrides it.
    _sensor: ClassVar[Callable[..., bool]]
    _sense_category: ClassVar[OpCategory]
    # The ResetStep each row's moving output part charges to return home,
    # wherever its stroke ended, before the flipped sections switch back.
    _return_steps: ClassVar[int] = 0

    def __init__(self, n: int) -> None:
        self.n = _dimension(n)
        self._log = OpLog()
        self._vector: BitVector | None = None
        self._matrix_loaded = False
        self._synced = False
        self._output_set = False
        self._cols: list[int] = [0] * n
        self._active = 0
        self._sections = bytearray(b"\x01") * n
        # The blocked-row tables, the ORs spent without them since the
        # last load, and the ORs their build takes.
        self._tables: list[list[int]] | None = None
        self._ors = 0
        self._table_ors = 255 * (n // 8) + (1 << n % 8) - 1
        # Whether set_output senses row by row (see Per-row dispatch).
        cls = type(self)
        self._per_row = getattr(cls, cls._sensor.__name__) is not cls._sensor

    @property
    def oplog(self) -> OpLog:
        """The machine's operation ledger (read-only by convention)."""
        return self._log

    # -- inspection, uncounted ------------------------------------------------

    def loaded_matrix(self) -> BitMatrix:
        """Current content of the input array."""
        return BitMatrix._of(tuple(self._cols))

    def loaded_vector(self) -> BitVector | None:
        return self._vector

    def column_active(self, j: int) -> bool:
        """Whether column j (0-based) is currently switched on."""
        _index(j, self.n, "column")
        return bool(self._active >> j & 1)

    def active_columns(self) -> frozenset[int]:
        return frozenset(compress(range(self.n), _flags(self._active, self.n)))

    def output_section(self, i: int) -> int:
        _index(i, self.n, "row")
        return self._sections[i]

    def row_blocked(self, i: int) -> bool:
        """Whether row i holds a 1 in some active column."""
        _index(i, self.n, "row")
        return bool(self._blocked_rows() >> i & 1)

    # -- column switching, counted --------------------------------------------

    def activate_column(self, j: int) -> None:
        """Switch column j on (one ColumnActivate)."""
        self._switch_column(j, True)

    def deactivate_column(self, j: int) -> None:
        """Switch column j off (one ColumnDeactivate)."""
        self._switch_column(j, False)

    def _switch_column(self, j: int, on: bool) -> None:
        _index(j, self.n, "column")
        if (self._active >> j & 1) == on:
            raise MachineStateError(f"column {j} is {'already' if on else 'not'} active")
        self._toggle_columns(1 << j)

    def _toggle_columns(self, diff: int) -> None:
        """Switch every column in the mask `diff` to its other state (one
        ColumnActivate or ColumnDeactivate each)."""
        on = (diff & ~self._active).bit_count()
        self._log.charge(_COLUMN_ACTIVATE, on)
        self._log.charge(_COLUMN_DEACTIVATE, diff.bit_count() - on)
        self._active ^= diff

    def _blocked_rows(self) -> int:
        """The mask of rows holding a 1 in some active column: the OR of
        the active columns, or of one table entry per group once the tables
        are built. The first 16 masks are ORed, and the rest only if a row
        is still clear. Without tables, the ORs spent (at most 16 after a
        read that blocked every row) count toward their build, which
        follows the read that reaches its cost: on pass 127 of the
        stream-matvec workload, which needs them (see Blocked-row tables)."""
        active = self._active
        tables = self._tables
        if tables is None:
            masks = compress(self._cols, _flags(active, self.n))
        else:
            masks = map(list.__getitem__, tables, active.to_bytes(len(tables), "little"))
        blocked = reduce(or_, islice(masks, 16), 0)
        saturated = blocked.bit_count() == self.n
        if not saturated:
            blocked = reduce(or_, masks, blocked)
        if tables is None:
            ors = active.bit_count()
            self._ors += min(ors, 16) if saturated else ors
            if self._ors >= self._table_ors:
                self._tables = self._build_tables()
        return blocked

    def _build_tables(self) -> list[list[int]]:
        """One table per group of 8 columns (the last may hold fewer): at
        index m, the OR of the group's columns that the bits of m select."""
        tables = []
        for g in range(0, self.n, 8):
            table = [0]
            for col in self._cols[g : g + 8]:
                table += [x | col for x in table]
            tables.append(table)
        return tables

    # -- physics hooks supplied by backends -----------------------------------

    @abstractmethod
    def _sense_row(self, i: int) -> None:
        """Sense row i through the sensing primitive, with charges, flipping
        its output section when the row is clear (per-row set_output)."""

    # -- shared steps of the contract operations and the parallel drive -------

    def _begin_matrix_load(self, a: BitMatrix) -> None:
        """Check the dimension of `a`, void any earlier sync, and void the
        blocked-row tables and the ORs spent toward them, once per load; the
        caller then releases the columns and writes the content."""
        if a.n != self.n:
            raise DimensionError(f"machine is {self.n}x{self.n}, matrix is {a.n}x{a.n}")
        self._matrix_loaded = True
        self._synced = False
        self._tables = None
        self._ors = 0

    def _clear_section(self, i: int) -> None:
        """Switch output section i from 1 to 0 (one OutputSwitch): the one
        per-row write of the sections, made when row i is sensed clear."""
        self._sections[i] = 0
        self._log.charge(_OUTPUT_SWITCH)

    def _check_syncable(self) -> None:
        if not self._matrix_loaded:
            raise MachineStateError("column sync before load_matrix")
        if self._vector is None:
            raise MachineStateError("column sync before load_vector")
        if self._output_set:
            raise MachineStateError("column sync before reset_output")

    # -- the six contract operations ------------------------------------------

    def load_matrix(self, a: BitMatrix) -> None:
        """Read a matrix into the input array (at most n^2 + n operations).

        Any still-active column is switched off first, so the machine ends
        with content equal to `a` and every column inactive. All n columns
        are then written in one step and charged as n^2 CellLoad at once.
        """
        self._begin_matrix_load(a)
        self._toggle_columns(self._active)
        self._cols = list(a._cols)
        self._log.charge(_CELL_LOAD, self.n * self.n)

    def load_vector(self, v: BitVector) -> None:
        """Read a vector into the input vector (n operations). Does not
        touch column activation; call sync_columns afterwards."""
        if v.n != self.n:
            raise DimensionError(f"machine is {self.n}x{self.n}, vector has {v.n} coordinates")
        self._vector = v
        self._log.charge(_VECTOR_COORD_LOAD, self.n)
        self._synced = False

    def sync_columns(self) -> None:
        """Scan the loaded vector and toggle columns so that column j is
        active exactly when coordinate j is 1 (at most 2n operations).

        Only columns whose state differs are toggled, so repeating the call
        with an unchanged vector performs zero activations/deactivations.
        """
        self._check_syncable()
        self._log.charge(_SCAN_STEP, self.n)
        self._toggle_columns(self._vector._bits ^ self._active)
        self._synced = True

    def set_output(self) -> None:
        """Compute every output coordinate from the active columns
        (at most 2n operations).

        Refused with MachineStateError, before anything is charged, until
        reset_output has run since the last stroke: while the output is set,
        and while any output section reads 0, as a stroke that raised part
        way or, on the axis, a ladder moved by hand leaves it. A subclass
        that overrides the sensing primitive is driven through it row by
        row.
        """
        if not self._synced:
            raise MachineStateError("set_output called before sync_columns")
        if self._output_set or 0 in self._sections:
            raise MachineStateError("set_output called before reset_output")
        if self._per_row:
            for i in range(self.n):
                self._sense_row(i)
        else:
            blocked = self._blocked_rows()
            self._log.charge(self._sense_category, self.n)
            clear = self.n - blocked.bit_count()
            self._log.charge(_OUTPUT_SWITCH, clear)
            # Sections start at 1 (the home check above proved it) and flip
            # to 0 on the clear rows, so a stroke with none writes nothing.
            if clear:
                self._sections = bytearray(_flags(blocked, self.n))
        self._output_set = True

    def report_output(self) -> BitVector:
        """Read the output vector (n operations, non-destructive)."""
        if not self._output_set:
            raise MachineStateError("report_output called before set_output")
        self._log.charge(_OUTPUT_COORD_REPORT, self.n)
        if 0 in self._sections:
            return BitVector._of(_mask(self._sections), self.n)
        return BitVector._of((1 << self.n) - 1, self.n)

    def reset_output(self) -> None:
        """Restore the output mechanism to its initial state (at most 2n
        operations): the backend's moving parts return home, then each
        flipped output section is switched back to 1 (one ResetStep each).
        Legal in any state; resetting an already-initial output changes
        nothing observable. Column activation is untouched, so a following
        set_output (no resync needed) recomputes the same output."""
        flipped = self._sections.count(0)
        self._log.charge(_RESET_STEP, self.n * self._return_steps + flipped)
        if flipped:
            self._sections = bytearray(b"\x01") * self.n
        self._output_set = False
