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
The ledger is read through immutable snapshots. It keeps its counts as
one int, one 64-bit lane per category, so a snapshot is one read of that
int and a run's share of the ledger, `OpLog.since(before)`, which equals
`snapshot() - before`, is one int subtraction and no second snapshot.
The lanes are decoded only when a count is read. A lane holds counts
below 2**64, which n^2 CellLoad would reach only at n = 2**32, and an
OpCounts built by hand refuses a larger count.

How the machine keeps its state and charges it (bit masks, bulk
charging, the per-row output bytes and the blocked-row tables) is told
in the MvpMachine docstring.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from enum import Enum
from functools import reduce, update_wrapper
from itertools import compress, islice
from operator import or_, sub
from struct import Struct
from types import FunctionType
from typing import Callable, ClassVar, Mapping, Sequence, TypeVar

from .bits import BitMatrix, BitVector, _dimension, _flags, _index, _mask, _operand


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
# The ledger's counts as one int: category k's count is the 64-bit lane at
# bit 64 * k, and _LANES packs or unpacks all of them in OpCategory order.
_SHIFT = {c: 64 * k for k, c in enumerate(_CATEGORIES)}
_LANE = (1 << 64) - 1  # a lane's mask and the largest count it holds
_LANES = Struct(f"<{len(_CATEGORIES)}Q")
# The members bound once, for the charges (see MvpMachine, Bulk charging).
(_COLUMN_ACTIVATE, _COLUMN_DEACTIVATE, _SCAN_STEP, _LADDER_MOVE, _OUTPUT_SWITCH, _LIGHT_OBSERVE,
 _CELL_LOAD, _VECTOR_COORD_LOAD, _OUTPUT_COORD_REPORT, _RESET_STEP) = _CATEGORIES
# The lanes of the amounts a contract operation counts from its masks.
# ColumnActivate and ColumnDeactivate are lanes 0 and 1, so a toggle's
# activations `on` and deactivations `off` are `on | off << 64`.
_OUTPUT_SWITCH_SHIFT, _RESET_STEP_SHIFT = _SHIFT[_OUTPUT_SWITCH], _SHIFT[_RESET_STEP]
# The head of the blocked-row tables (see MvpMachine): its columns, a
# multiple of 8, the mask that selects them and the ORs its tables take.
_HEAD = 32
_HEAD_MASK = (1 << _HEAD) - 1
_HEAD_ORS = 255 * (_HEAD // 8)
_T = TypeVar("_T")


class OpCounts:
    """Immutable snapshot of an OpLog.

    `counts` maps every category to its count. The snapshot holds the
    counts as the log keeps them, one int with one 64-bit lane per
    category in OpCategory order, and decodes the lanes when `counts`,
    `count` or `total` is read. `phase_ops[k]` is the number of
    operations charged during the k-th completed parallel phase.
    Subtracting an earlier snapshot of the same machine yields the counts
    for the interval between the two, and `OpLog.since` builds the same
    delta straight from the log; subtracting anything but an OpCounts, in
    either order, raises TypeError. Equal snapshots hash alike, so a
    RunReport that holds one can be hashed. The hash reads the counts int
    and the phase count, never a phase entry, and equality compares those
    first and the entries only between two different phase lists.

    Every value is built by `_ops`, from an int of lanes and a phase list
    that it does not copy. A snapshot taken by `OpLog.snapshot()` holds the
    log's int and its phase list, which only ever grows, and the list's
    length at the time; a delta holds the difference of the ints and the
    phases past the subtracted value's length. Subtraction has one rule,
    for any pair: no count may go negative and the subtracted phase
    history must be a prefix of the other, or it raises ValueError; when
    it holds, no lane can borrow from the next. Two values that hold one
    phase list, as two snapshots of one log do, share its prefix whenever
    the subtracted one holds no more entries, since the list only grows,
    so that check reads no entry; between other lists it compares the
    subtracted value's entries, and its cost grows with their number.
    `OpLog.since` builds a delta from a snapshot of its own log without
    the check, which such a snapshot always passes.

    Building one by hand (and unpickling one) checks the counts before
    `_ops` builds it: it refuses with ValueError an unknown category, any
    count or phase entry that is not an int >= 0, a bool included, and any
    count that does not fit its lane, 2**64 or more. Snapshots and deltas
    hold only what a log counted and are built unchecked.
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
        for k in full.values():
            if k > _LANE:
                raise ValueError(f"operation counts must be below 2**64, got {k!r}")
        return _ops(int.from_bytes(_LANES.pack(*full.values()), "little"), phases)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return OpCounts, (self.counts, self.phase_ops)

    @property
    def counts(self) -> dict[OpCategory, int]:
        """The count of every category, as a new dict."""
        return dict(zip(_CATEGORIES, _lanes(self._counts)))

    @property
    def phase_ops(self) -> tuple[int, ...]:
        return tuple(self._phases[: self._stop])

    @property
    def total(self) -> int:
        return sum(_lanes(self._counts))

    @property
    def parallel_phases(self) -> int:
        return self._stop

    def count(self, category: OpCategory) -> int:
        return self._counts >> _SHIFT[category] & _LANE

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpCounts):
            return NotImplemented
        # Two values that hold one phase list, which only grows, hold the
        # same entries up to equal stops: no entry is read.
        return self._counts == other._counts and self._stop == other._stop and (
            self._phases is other._phases or self.phase_ops == other.phase_ops)

    def __hash__(self) -> int:
        return hash((self._counts, self._stop))

    def __repr__(self) -> str:
        return f"OpCounts(counts={self.counts!r}, phase_ops={self.phase_ops!r})"

    def __sub__(self, earlier: "OpCounts") -> "OpCounts":
        if not isinstance(earlier, OpCounts):
            return NotImplemented
        start, phases = earlier._stop, earlier._phases
        counts = tuple(map(sub, _lanes(self._counts), _lanes(earlier._counts)))
        # The prefix rule: one only-growing list holds a prefix of itself,
        # and other lists are compared over the subtracted value's entries.
        if min(counts) < 0 or start > self._stop or (
                phases is not self._phases and tuple(self._phases[:start]) != tuple(phases[:start])):
            raise ValueError("snapshots do not share a machine history")
        # No lane is below its counterpart, so no lane borrows from the next.
        return _ops(self._counts - earlier._counts, self._phases[start : self._stop])


_new = object.__new__
_set_counts = OpCounts._counts.__set__
_set_phases = OpCounts._phases.__set__
_set_stop = OpCounts._stop.__set__


def _lanes(counts: int) -> tuple[int, ...]:
    """The count of every category, in OpCategory order, from the lanes of
    `counts`."""
    return _LANES.unpack(counts.to_bytes(_LANES.size, "little"))


def _ops(counts: int, phases: Sequence[int]) -> OpCounts:
    """An OpCounts of `counts`, one 64-bit lane per category in OpCategory
    order, and the current entries of `phases`, which is not copied. It
    fills the slots through their descriptors, which `__setattr__` does
    not guard."""
    ops = _new(OpCounts)
    _set_counts(ops, counts)
    _set_phases(ops, phases)
    _set_stop(ops, len(phases))
    return ops


_NO_OPERAND = object()  # the operand of a motion called without one


def _motion(step: Callable[..., _T], template: Callable[..., _T],
            name: str | None = None) -> Callable[..., _T]:
    """A method that runs `step(self)`, or `step(self, arg)` when it is
    given an operand, as one parallel phase of the ledger `self._log`, and
    returns the step's result. It takes `template`'s name, docstring and
    signature (through `__wrapped__`), and keeps in `_step` the name of
    the operation it steps, `name` or the step's own, so that
    `MvpMachine.__init_subclass__` can build it again over each class's
    own operation. Every parallel phase that runs a step runs here,
    `OpLog.phase`'s too (`OpLog.charge_phases` records phases that run
    none), so the phase rules are stated once:

    - phases do not nest: a motion inside an open phase is refused with
      MachineStateError ("parallel phases cannot nest") before its step
      runs;
    - a step that raises, a BaseException included, has its phase
      recorded if and only if it charged at least one operation, so a
      refused motion leaves `phase_ops` untouched and `sum(phase_ops)`
      always equals the operations charged in phases;
    - while a phase is open, its charges are in the counts but in no
      recorded phase yet, so `OpLog.snapshot`, `since` and `_mark` refuse
      with MachineStateError ("snapshot inside an open parallel phase",
      "since inside an open parallel phase"), and so does
      `charge_phases`.

    A motion is one Python frame around its step, called with a fixed
    number of arguments (see MvpMachine, Parallel motions)."""
    def motion(self, arg=_NO_OPERAND):
        log = self._log
        if log._phase_start is not None:
            raise MachineStateError("parallel phases cannot nest")
        start = log._phase_start = log._total
        try:
            result = step(self) if arg is _NO_OPERAND else step(self, arg)
        except BaseException:
            log._phase_start = None
            if log._total != start:
                log._phase_ops.append(log._total - start)
            raise
        log._phase_start = None
        log._phase_ops.append(log._total - start)
        return result

    update_wrapper(motion, template)
    motion._step = name or step.__name__
    return motion


def _run(log: OpLog, call: tuple[Callable[..., _T], tuple]) -> _T:
    """The step of `OpLog.phase`: `step(*args)` for `call` = (step, args)."""
    step, args = call
    return step(*args)


class OpLog:
    """Mutable tally of counted mechanical operations.

    Machines charge into it with `charge`, one category at a time. A
    parallel phase is one motion (see `_motion`, where the phase rules
    are stated), which records what its step charged: the axis drive's
    motions are methods built over the contract operations, and
    `phase(step, *args)` runs any step as one; `charge_phases` records a
    run of equal phases of one category at once. A contract operation
    charges all its categories in one private `_add(lanes, total)` (see
    MvpMachine, Bulk charging). Everything else reads the log only through OpCounts: `snapshot()` for
    the whole ledger and `since(before)` for what was charged after the
    snapshot `before`. The one exception is `drivers.matvec`, which every
    pass runs: it takes a private `_mark()`, the counts int and the phase
    count, refused inside an open phase as `snapshot()` is, and reads its
    delta with `_since_mark(mark)`, as `since` would read it from a
    snapshot, without building the snapshot. Counts and phases only grow:
    there is no way to wipe a log, so every delta between two of its
    snapshots is a real interval of the machine's work, and no lane of one
    ever borrows from the next when the earlier is subtracted. The counts
    are one int, one 64-bit lane per category (see OpCounts): a charge
    adds its amount shifted to its category's lane, and `_add` adds
    amounts already shifted. Beside them the log keeps their running sum,
    from which phases are measured.
    """

    def __init__(self) -> None:
        self._counts = 0  # one 64-bit lane per category, in OpCategory order
        self._total = 0  # the sum over categories; phases are measured from it
        self._phase_ops: list[int] = []  # only appended to
        self._phase_start: int | None = None  # the total when the open phase began

    def charge(self, category: OpCategory, amount: int = 1) -> None:
        """Add `amount` operations of `category`. Unchecked, since every
        primitive charges through it: a negative amount would borrow from
        the next category's lane, and no machine charges one."""
        self._counts += amount << _SHIFT[category]
        self._total += amount

    def _add(self, lanes: int, total: int) -> None:
        """Add several categories' amounts in one step: `lanes` holds each
        amount shifted to its category's lane, and `total` is their sum.
        Unchecked, like `charge`: a contract operation builds both from
        amounts >= 0 (see MvpMachine, Bulk charging)."""
        self._counts += lanes
        self._total += total

    @property
    def _log(self) -> "OpLog":
        """The log itself, so that `phase` runs as a motion of the log."""
        return self

    def phase(self, step: Callable[..., _T], *args: object) -> _T:
        """Run `step(*args)` as one parallel phase and return its result;
        what the step charges is attributed to the phase.

        It runs through `_phase`, a motion (see `_motion`), under the
        phase rules stated there: refused inside an open phase, before the
        step runs, and a step that raises has its phase recorded if and
        only if it charged at least one operation.
        """
        return self._phase((step, args))

    _phase = _motion(_run, _run)

    def charge_phases(self, category: OpCategory, amount: int, phases: int) -> None:
        """Record `phases` parallel phases that each charge `amount` of
        `category`, as that many `phase` calls of one charge each would,
        in one step. Refused before anything is charged: with ValueError
        unless the amount and the phase count are ints >= 0 (a bool is
        refused too), and with MachineStateError inside an open phase,
        where a `phase` would be too."""
        if type(amount) is not int or type(phases) is not int or amount < 0 or phases < 0:
            raise ValueError(f"phases must charge int amounts >= 0, got {amount!r} in {phases!r} phases")
        if self._phase_start is not None:
            raise MachineStateError("phases recorded inside an open parallel phase")
        self.charge(category, amount * phases)
        self._phase_ops.extend([amount] * phases)

    def snapshot(self) -> OpCounts:
        """The whole ledger, built by `_ops` from the log's int and phase
        list. Refused with MachineStateError while a phase is open: its
        charges are in the counts but in no recorded phase yet, so a
        snapshot there would disagree with its own phases."""
        if self._phase_start is not None:
            raise MachineStateError("snapshot inside an open parallel phase")
        return _ops(self._counts, self._phase_ops)

    def since(self, before: OpCounts) -> OpCounts:
        """The operations charged after the snapshot `before`: equal to
        `self.snapshot() - before`, and built by `_ops` without the second
        snapshot. A snapshot of this log needs no check, since its counts
        and phases only grow; anything else is subtracted, under
        subtraction's one rule, so what is not a snapshot is a TypeError,
        as in subtraction. Refused, like snapshot, while a phase is open."""
        if self._phase_start is not None:
            raise MachineStateError("since inside an open parallel phase")
        phases = self._phase_ops
        if type(before) is not OpCounts or before._phases is not phases:
            return self.snapshot() - before
        return _ops(self._counts - before._counts, phases[before._stop :])

    def _mark(self) -> tuple[int, int]:
        """What a snapshot would hold, the counts int and the phase count,
        without building one: `_since_mark` of it is then `since` of that
        snapshot. `drivers.matvec` takes one a pass. Refused, like
        snapshot, while a phase is open."""
        if self._phase_start is not None:
            raise MachineStateError("snapshot inside an open parallel phase")
        return self._counts, len(self._phase_ops)

    def _since_mark(self, mark: tuple[int, int]) -> OpCounts:
        """The operations charged after `mark` was taken, built by `_ops`
        as `since` builds them. Unchecked: a mark of this log is always
        behind it, and its one caller makes no call inside a phase."""
        counts, start = mark
        return _ops(self._counts - counts, self._phase_ops[start:])


class MvpMachine:
    """Abstract matrix-vector processor.

    The machine state model lives here, as int bit masks in the format of
    `bits._mask`: `_cols[j]` is column j as a row mask (bit i = row i) and
    `_active` the mask of active columns (bit j = column j). `_cols` is
    the loaded matrix's own tuple of column masks: values are immutable,
    so a load keeps it as it is and `loaded_matrix()` wraps it. One step,
    `_load_columns`, makes the whole state change of a load, and a load it
    refuses changes nothing. The mask of
    rows holding a 1 in an active column, `_blocked`, is kept from its
    last read until a column changes: `_toggle_columns`, the one step that
    changes `_active` (a load goes through it before it swaps `_cols`),
    empties it, the next `row_blocked` probe reads it again through
    `_blocked_rows()`, and the bulk stroke reads it afresh and keeps it.
    The output sections are a bytearray, one 0/1 byte per row
    (`_sections[i]` is section i), and report_output packs those bytes,
    not the blocked mask, so a machine that senses differently is reported
    as its sections read. Only this class writes them: the bulk stroke
    installs them whole, reset_output restores them, and a per-row stroke
    that finds row i clear calls `_clear_section(i)`, which switches the
    section to 0 and charges its OutputSwitch. Column switching, the six
    contract operations, the legal call order and the shared parts of the
    cost model live here too. Subclasses supply only their physics: the
    sensing primitive and the category it charges (`_sensor`,
    `_sense_category`) and how many ResetStep each row's output part takes
    to return home (the `_return_steps` constant).

    Bulk charging. A contract operation counts each of its amounts from
    the masks and charges them all in one ledger write, `OpLog._add(lanes,
    total)`: the amounts shifted to their categories' 64-bit lanes and
    summed into one int, and their total. The n-sized amounts
    (VectorCoordLoad, ScanStep, the sensing category, OutputCoordReport
    and the n * `_return_steps` ResetStep of the return home) are constant
    per machine, so `__init__` shifts them once into the tuple `_lanes`;
    only the amounts read from masks are shifted per call. A sync flips
    `_active` by the mask of the columns that differ from the vector's
    mask and hands its ScanStep lanes to `_toggle_columns`, whose one
    `_add` holds them beside the activations and deactivations, adjacent
    lanes 0 and 1. set_output ORs the active columns (reduce over
    itertools.compress, or over the tables below), adds its sensing and
    OutputSwitch lanes at once and installs the section bytes whole from
    the blocked mask, report_output packs the section bytes into a
    vector's mask, and reset_output counts the 0 bytes and restores them.
    All three touch the section bytes only when a row is clear: a stroke
    that blocks every row leaves the sections at home, all 1, so it
    installs nothing and charges no OutputSwitch, the report finds no 0
    byte and returns the all-ones vector that `__init__` built once
    (values are immutable, so every such report shares it), and the reset
    finds no flipped section to restore. A load keeps the matrix's tuple
    of column masks, uncopied, and charges n^2 CellLoad in one `charge`
    beside the `_add` of its release. A pass is therefore O(1) ledger
    calls and O(1) Python steps; its O(n) work runs inside C-level calls.
    The primitives (activate_column, move_ladder, observe_light, ...) and
    `_clear_section` keep their single charges through the public
    `charge`. Each parallel operation is one motion per phase over a
    contract operation or a shared step of one (see Parallel motions):
    the parallel load runs `_load_columns` through `OpLog.phase` as its
    release phase and records its n phases of n CellLoad in one
    `OpLog.charge_phases` call, and the parallel sync runs
    `_toggle_columns` as two motions, since its release and activation
    are other physics than the one toggle of a sequential sync. Every
    charge here and in the backends names its category by a module name
    bound at import (`_SCAN_STEP`, ...): reading `OpCategory.SCAN_STEP`
    goes through the enum class and costs as much as the charge.

    Blocked-row tables (Four Russians: Arlazarov, Dinic, Kronrod and
    Faradzev, 1970). The OR of the active columns takes one OR per active
    column, O(n^3 / word size) over a product. Split into groups of 8
    (the last may hold fewer), the loaded columns give one table per
    group whose entry m is the OR of the group's columns that the bits of
    m select, so a read takes one lookup and one OR per group: n/8, all
    C-level. A group of k columns takes 2^k - 1 ORs to build, about 32n
    for all of them. They are built in column order and in two parts: the
    head, the 4 tables of columns 0-31 (1020 ORs), and the rest. A read of
    more than 16 active columns ORs the head first and stops there if
    every row is blocked, as on a dense input it nearly always is: at
    density 1/2 the head holds some 16 active columns, which leave a row
    clear with probability 2^-16, so every row is blocked on 99.6% of the
    reads at n = 256 and 98.4% at n = 1024. Only otherwise does it OR the
    columns past the head. A read of 16 columns or fewer ORs them in one
    step, as the head would save it little. Once every table is built, a
    read ORs one entry per group: the first 16, and the rest only if a row
    is still clear. It does not stop after the head's 4 entries there: no
    benchmark workload both builds every table and reads densely enough
    for that exit to pay, and a density-0.1 stream at n = 64, which builds
    them, ran 1.03-1.08x slower a pass with it. Each part is built inside
    `_blocked_rows()` after the read with which the column ORs it would
    have saved reach its cost: those that longer reads spent on the head's columns for the
    head, and all of them since the last load for the rest, which then
    builds every table not yet built. So a fresh n = 256 product at
    density 1/2 (the dense-matmul benchmark workload) builds the head on
    pass 63 and reads 4 entries a pass from then on, and the rest never;
    the n = 64 stream of the stream-matvec workload builds the head on
    about pass 64 and never the rest; the density-0.1 products of
    cli-bench build neither part; and a sparse matrix times dense vectors,
    whose reads OR all their columns, builds both by about pass 64. In
    process the head cuts a density-1/2 n = 256 product to 0.80-0.87x of
    the time it takes with reads that OR 16 columns and no tables (timeit,
    shared 2-vCPU Xeon). The tables depend only on `_cols`, so they stay
    valid across passes, and `_load_columns` voids them and both counts
    once per load, sequential or parallel. No operation is charged for
    them either way. A per-row stroke's n probes share one read, so it
    spends ORs as a bulk stroke does and builds each part on the same
    pass.

    Per-row dispatch. Sensing is the one physical step a subclass models
    per row: a machine that senses differently, such as a fault-injection
    machine, overrides the backend's sensing primitive (`_sensor`, i.e.
    `move_ladder` or `observe_light`). When `type(self)` overrides it, at
    any depth below the backend, set_output drives the stroke itself and
    calls it once per row, exactly as a stroke of n primitive calls, so the
    override sees every row. A completed axis stroke flips its own section
    (see Output home); for the wall, which has no moving output part,
    set_output flips the section of each row the primitive senses clear.
    The answer depends only on the class, so `__init__` decides it once
    (`_per_row`), not every stroke. Column switches need no such rule: no
    subclass models them differently, and a sync toggles a whole mask of
    columns in one motion. An override that switches a column part way
    through a stroke is sensed with the new active set from that row on,
    since the switch empties the kept mask.

    Per-backend code. Every function this class defines is one code
    object, and CPython 3.11 and later (PEP 659) specialize each attribute
    load of a code object for one receiver type, as the monomorphic inline
    caches of Deutsch and Schiffman (1984) do. Shared by both backends, the
    caches of every contract operation missed whenever machines of both
    classes ran in one process: on CPython 3.11.7 an n = 64 stream pass
    took 4.4-4.7 us with one backend and 5.4-5.7 us with an axis and a
    wall machine taking turns. So `__init_subclass__` gives each subclass
    its own copy of every function of this class that it inherits
    unchanged (one it or a base overrides keeps the override): the same
    bytecode, built afresh with the same globals, defaults, names and
    docstring, and its own caches. Taking turns then costs 4.8-5.0 us a
    pass, and 3.12 and 3.13 move alike; the rest lies in code that both
    backends still share, such as the call sites in `drivers.matvec`. On
    3.10, which does not specialize, the cost is smaller and the copies
    move it only within noise. The copies cost about 0.1 ms and 40 KiB per
    import. The same hook builds each class's parallel motions (below).

    Parallel motions. A parallel drive is phase grouping over the contract
    operations, not a second copy of them. Each motion is built by
    `_motion` from the operation it steps and a method stub that gives it
    its name, docstring and signature, and it is one Python frame: it
    opens the phase on `self._log`, calls its step as `step(self)` or
    `step(self, v)`, and records the phase. A motion that was a method
    around `OpLog.phase(step, *args)` took three frames and packed and
    unpacked its arguments: on CPython 3.11.7 an n = 64 parallel stream
    pass took 1.41-1.51x a sequential pass that way and 1.28-1.33x as one
    frame (in process, shared 2-vCPU Xeon). Two other forms did not pay: a
    built motion that passes `*args` took 1.43-1.48x, no less than the
    three frames, and one that looks its step up by name on every call
    1.37-1.46x. The step is the operation as the machine's class
    resolves it: `__init_subclass__` builds every motion a class inherits
    again over `getattr(cls, name)`, once per class, so a subclass's
    override of a contract operation runs in parallel passes too, and
    each class's motions have their own inline caches. A subclass that
    overrides a motion keeps its override. An instance attribute (a
    wrapper set on one machine) hides a motion as it hides any method,
    but a motion does not see one set over its step. `OpLog.phase` runs
    through the same code, as a motion of the log, two frames deeper;
    only the parallel load, once per matrix, pays that on the drive.

    Inspection helpers (`loaded_matrix`, `loaded_vector`, `column_active`,
    `active_columns`, `output_section`, `row_blocked`) read machine state
    without charging operations; they model an observer looking at the
    machine, not the machine working. `row_blocked(i)` is the one row
    probe of both backends, free of their polarity: row i holds a 1 in
    some active column, so a protrusion blocks its ladder or a shifted
    wall occludes its light. Reading the blocked rows is bookkeeping
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

    Index and operand checks. Every primitive and inspector that takes a
    row or column index passes it through `bits._index` first, which
    raises IndexError, before anything is charged, unless the index is an
    int in 0..n-1: a bool or a float is refused too, never read as a
    number. Every load, sequential or parallel, passes its matrix or
    vector through `bits._operand` before it toggles or charges anything:
    another type (a tuple, a vector for a matrix) raises TypeError and
    another dimension DimensionError, so a refused load changes nothing.
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

    def __init_subclass__(cls, **kwargs: object) -> None:
        """Give `cls` its own copy of every function of this class that it
        inherits unchanged, from this class or as a base's copy (see
        Per-backend code)."""
        super().__init_subclass__(**kwargs)
        for name, f in vars(MvpMachine).items():
            if type(f) is FunctionType and getattr(getattr(cls, name), "__code__", None) == f.__code__:
                code = f.__code__.replace()  # the same bytecode, not yet specialized
                copy = FunctionType(code, f.__globals__, f.__name__, f.__defaults__, f.__closure__)
                copy.__qualname__, copy.__doc__, copy.__module__ = f.__qualname__, f.__doc__, f.__module__
                copy.__kwdefaults__, copy.__annotations__ = f.__kwdefaults__, f.__annotations__
                copy.__dict__.update(f.__dict__)
                setattr(cls, name, copy)
        # Every motion over its operation as `cls` resolves it, an override
        # included (see Parallel motions); a motion's override is kept.
        for name in dir(cls):
            f = getattr(cls, name, None)
            if getattr(f, "__code__", None) is OpLog._phase.__code__:
                setattr(cls, name, _motion(getattr(cls, f._step), f.__wrapped__, f._step))

    def __init__(self, n: int) -> None:
        self.n = _dimension(n)
        self._log = OpLog()
        self._vector: BitVector | None = None
        self._matrix_loaded = False
        self._synced = False
        self._output_set = False
        self._cols: tuple[int, ...] = (0,) * n
        # No column is active, so no row is blocked: the kept blocked-row
        # mask, None from a column change until it is read (see row_blocked).
        self._active = self._blocked = 0
        self._sections = bytearray(b"\x01") * n
        # The report of a stroke that blocks every row, built once: values
        # are immutable, so every such report can be this one.
        self._ones = BitVector._of((1 << n) - 1, n)
        # The blocked-row tables built since the last load, in column order:
        # none, the head's or all of them (see Blocked-row tables). The
        # column ORs spent since the load, in all and by reads of more than
        # 16 columns on the head's, and the ORs that building all takes.
        self._tables: list[list[int]] = []
        self._ors = self._head_ors = 0
        self._table_ors = 255 * (n // 8) + (1 << n % 8) - 1
        self._groups = -(-n // 8)
        # The n-sized amounts of the bulk operations, each shifted to its
        # lane once (see Bulk charging): VectorCoordLoad, ScanStep, the
        # sensing category, OutputCoordReport and the ResetStep of the
        # moving output parts' return.
        self._lanes = (
            n << _SHIFT[_VECTOR_COORD_LOAD], n << _SHIFT[_SCAN_STEP], n << _SHIFT[self._sense_category],
            n << _SHIFT[_OUTPUT_COORD_REPORT], n * self._return_steps << _SHIFT[_RESET_STEP],
        )
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
        return BitMatrix._of(self._cols)

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
        """Whether row i holds a 1 in some active column. Read from the
        kept blocked-row mask, which the first probe after a column change
        fills, so a per-row stroke's n probes make one read."""
        _index(i, self.n, "row")
        if self._blocked is None:
            self._blocked = self._blocked_rows()
        return bool(self._blocked >> i & 1)

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

    def _toggle_columns(self, diff: int, lanes: int = 0, total: int = 0) -> None:
        """Switch every column in the mask `diff` to its other state (one
        ColumnActivate or ColumnDeactivate each), charged in one `_add`
        together with the caller's `lanes` of sum `total`: the sync's
        ScanStep."""
        flips = diff.bit_count()
        on = (diff & ~self._active).bit_count()
        self._log._add(lanes + (on | flips - on << 64), total + flips)
        self._active ^= diff
        self._blocked = None

    def _blocked_rows(self) -> int:
        """The mask of rows holding a 1 in some active column. Once every
        table is built, a read ORs one entry per group: the first 16, and
        the rest only if a row is still clear; 16 entries or fewer in that
        one step, unsliced, testing no row. Before that, a read of 16 active
        columns or fewer ORs them in one step, and a longer one ORs the
        head first, columns 0-31: its 4 table entries, or its active columns
        before it is built. It stops there if every row is blocked;
        otherwise it ORs the active columns past 31, never the head's
        again. The column ORs spent count toward the tables: the head is
        built after the read with which those that longer reads spent on
        its columns reach its cost, 1020, and every table after the read
        with which all of them reach the cost of every table (see
        Blocked-row tables)."""
        active, tables = self._active, self._tables
        if len(tables) == self._groups:
            masks, count = map(list.__getitem__, tables, active.to_bytes(len(tables), "little")), len(tables)
            blocked = reduce(or_, islice(masks, 16) if count > 16 else masks, 0)
            if count > 16 and blocked.bit_count() != self.n:
                blocked = reduce(or_, masks, blocked)
            return blocked
        count = active.bit_count()
        if count <= 16:
            blocked = reduce(or_, compress(self._cols, _flags(active, self.n)), 0)
        else:
            if tables:
                # The head's tables, so the map stops after _HEAD // 8 entries.
                blocked = reduce(or_, map(list.__getitem__, tables, active.to_bytes(self._groups, "little")))
                count = 0
            else:
                head = active & _HEAD_MASK
                blocked = reduce(or_, compress(self._cols, _flags(head, _HEAD)), 0)
                count = head.bit_count()
                self._head_ors += count
                if self._head_ors >= _HEAD_ORS:
                    self._build_tables(_HEAD)
            if blocked.bit_count() != self.n:
                rest = active >> _HEAD
                cols = islice(self._cols, _HEAD, None)
                blocked = reduce(or_, compress(cols, _flags(rest, self.n - _HEAD)), blocked)
                count += rest.bit_count()
        self._ors += count
        if self._ors >= self._table_ors:
            self._build_tables(self.n)
        return blocked

    def _build_tables(self, stop: int) -> None:
        """Append to `_tables` one table per group of 8 columns (the last
        may hold fewer), from the first group not yet built up to column
        `stop` or n, whichever comes first: at index m, the OR of the
        group's columns that the bits of m select."""
        for g in range(8 * len(self._tables), min(stop, self.n), 8):
            table = [0]
            for col in self._cols[g : g + 8]:
                table += [x | col for x in table]
            self._tables.append(table)

    # -- shared steps of the contract operations and the parallel drive -------

    def _load_columns(self, a: BitMatrix) -> None:
        """The whole state change of a load, charged but for its CellLoad:
        check that `a` is an n x n BitMatrix, switch the active columns off,
        keep the columns of `a` as they are, and void any earlier sync, the
        blocked-row tables and the ORs spent toward them. The check comes
        first, so a load it refuses changes nothing."""
        _operand(a, BitMatrix, self.n, "matrix")
        self._toggle_columns(self._active)
        self._cols = a._cols
        self._matrix_loaded = True
        self._synced = False
        self._tables = []
        self._ors = self._head_ors = 0

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
        with content equal to `a` and every column inactive. The content is
        the matrix's own column masks, taken in one step and charged as n^2
        CellLoad at once.
        """
        self._load_columns(a)
        self._log.charge(_CELL_LOAD, self.n * self.n)

    def load_vector(self, v: BitVector) -> None:
        """Read a vector into the input vector (n operations). Does not
        touch column activation; call sync_columns afterwards."""
        self._vector = _operand(v, BitVector, self.n, "vector")
        self._log._add(self._lanes[0], self.n)
        self._synced = False

    def sync_columns(self) -> None:
        """Scan the loaded vector and toggle columns so that column j is
        active exactly when coordinate j is 1 (at most 2n operations).

        Only columns whose state differs are toggled, so repeating the call
        with an unchanged vector performs zero activations/deactivations.
        """
        self._check_syncable()
        self._toggle_columns(self._vector._bits ^ self._active, self._lanes[1], self.n)
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
            sense = getattr(self, self._sensor.__name__)
            for i in range(self.n):
                # A moving output part's stroke flips its own section; the wall has none.
                if sense(i) and not self._return_steps:
                    self._clear_section(i)
        else:
            blocked = self._blocked = self._blocked_rows()
            clear = self.n - blocked.bit_count()
            self._log._add(self._lanes[2] + (clear << _OUTPUT_SWITCH_SHIFT), self.n + clear)
            # Sections start at 1 (the home check above proved it) and flip
            # to 0 on the clear rows, so a stroke with none writes nothing.
            if clear:
                self._sections = bytearray(_flags(blocked, self.n))
        self._output_set = True

    def report_output(self) -> BitVector:
        """Read the output vector (n operations, non-destructive)."""
        if not self._output_set:
            raise MachineStateError("report_output called before set_output")
        self._log._add(self._lanes[3], self.n)
        if 0 in self._sections:
            return BitVector._of(_mask(self._sections), self.n)
        return self._ones

    def reset_output(self) -> None:
        """Restore the output mechanism to its initial state (at most 2n
        operations): the backend's moving parts return home, then each
        flipped output section is switched back to 1 (one ResetStep each).
        Legal in any state; resetting an already-initial output changes
        nothing observable. Column activation is untouched, so a following
        set_output (no resync needed) recomputes the same output."""
        flipped = self._sections.count(0)
        self._log._add(self._lanes[4] + (flipped << _RESET_STEP_SHIFT),
                       self.n * self._return_steps + flipped)
        if flipped:
            self._sections = bytearray(b"\x01") * self.n
        self._output_set = False
