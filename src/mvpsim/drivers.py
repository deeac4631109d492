"""Product drivers over any matrix-vector processor backend.

`matvec` runs one full pass (vector load, column sync, output stroke,
report, reset) against a machine whose matrix is already loaded, and
`matmul` computes a Boolean matrix product by streaming the right-hand
matrix through such passes column by column. Both return a RunReport
carrying the result together with the operations the run charged, taken
as a delta so pre-existing ledger content never leaks in. `matmul` takes
one snapshot before the run and `OpLog.since` of it after; `matvec`,
which every pass of a stream or a product runs, takes the log's private
mark (its counts int and phase count) before the pass and reads the delta
from it after, so it builds one OpCounts a pass rather than two. Both
refuse inside an open parallel phase, as `OpLog.snapshot()` does, before
anything is charged. The report's slots are filled through their
descriptors, since the frozen dataclass's __init__ pays one
object.__setattr__ a field, on every pass.
Both refuse with ValueError, before anything is charged, a mode that is
not a Mode member and a parallel run on a backend without a parallel
drive.

Sequential passes cost at most 8n operations and a fresh-machine matrix
product at most 9n^2. Parallel passes (axis backend only) consume exactly
PARALLEL_PHASES_PER_MATVEC phases regardless of n, and a parallel matrix
product consumes (n + 1) + 6n phases, within the (6 + 2) * n budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .axis_ladder import AxisLadderMachine
from .bits import BitMatrix, BitVector, _operand
from .contract import MvpMachine, OpCounts
from .wall_light import WallLightMachine


class Mode(Enum):
    SEQ = "seq"
    PAR = "par"


# The members bound once, as contract.py binds the categories: reading
# Mode.SEQ goes through the enum class on every pass.
_SEQ, _PAR = Mode


PARALLEL_PHASES_PER_MATVEC = 6

BACKENDS: dict[str, type[MvpMachine]] = {
    AxisLadderMachine.backend: AxisLadderMachine,
    WallLightMachine.backend: WallLightMachine,
}


def make_machine(backend: str, n: int) -> MvpMachine:
    """Build a fresh machine of the named backend."""
    try:
        cls = BACKENDS[backend]
    except KeyError:
        raise ValueError(f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}")
    return cls(n)


def _require_parallel(machine: MvpMachine, mode: object) -> None:
    """Refuse a run in `mode`, which is not Mode.SEQ, unless it is Mode.PAR
    on a backend with a parallel drive."""
    if mode is not _PAR:
        raise ValueError(f"mode must be a Mode member, got {mode!r}")
    if not machine.supports_parallel:
        raise ValueError(f"backend {machine.backend!r} has no parallel drive")


@dataclass(frozen=True, slots=True)
class RunReport:
    """Result of one driver run plus the operations it charged."""

    result: BitVector | BitMatrix
    ops: OpCounts
    backend: str
    mode: Mode
    n: int


_set_result, _set_ops, _set_backend, _set_mode, _set_n = (
    f.__set__ for f in (RunReport.result, RunReport.ops, RunReport.backend, RunReport.mode, RunReport.n)
)


def _report(machine: MvpMachine, mode: Mode, result: BitVector | BitMatrix, ops: OpCounts) -> RunReport:
    """The RunReport of a run on `machine`, its slots filled through their
    descriptors: the frozen __init__ pays one object.__setattr__ a field."""
    report = object.__new__(RunReport)
    _set_result(report, result)
    _set_ops(report, ops)
    _set_backend(report, machine.backend)
    _set_mode(report, mode)
    _set_n(report, machine.n)
    return report


def matvec(machine: MvpMachine, v: BitVector, mode: Mode = Mode.SEQ) -> RunReport:
    """One matrix-vector pass over the machine's already-loaded matrix.

    The pass ends with the output mechanism reset, so passes chain without
    extra bookkeeping; column activation is left matching `v`. Charges at
    most 8n operations; in parallel mode, exactly six phases.

    Its ops are `OpLog._since_mark` of a mark taken before the pass, which
    equals `OpLog.since` of a snapshot taken there but builds one OpCounts,
    not two. Refused inside an open phase, as `snapshot()` is.
    """
    log = machine._log
    mark = log._mark()
    if mode is _SEQ:
        machine.load_vector(v)
        machine.sync_columns()
        machine.set_output()
        result = machine.report_output()
        machine.reset_output()
    elif mode is _PAR and machine.supports_parallel:
        machine.parallel_load_vector(v)
        machine.parallel_sync()
        machine.parallel_ladder_step()
        result = machine.parallel_report_output()
        machine.parallel_reset_output()
    else:
        _require_parallel(machine, mode)  # raises: this mode cannot run here
    return _report(machine, mode, result, log._since_mark(mark))


def matmul(machine: MvpMachine, a: BitMatrix, b: BitMatrix, mode: Mode = Mode.SEQ) -> RunReport:
    """Boolean matrix product: load `a` once, then run one pass per column
    of `b` and collect the reported outputs as the product's columns.

    On a fresh machine this charges at most 9n^2 operations (n^2 for the
    matrix load plus 8n per pass); a machine with leftover active columns
    pays at most n extra deactivations during the load. An `a` or `b` that
    is not a BitMatrix (TypeError), or a `b` whose dimension is not `a`'s
    (DimensionError), is refused before anything is charged.
    """
    _operand(b, BitMatrix, _operand(a, BitMatrix, None, "left-hand matrix").n, "right-hand matrix")
    log = machine._log
    before = log.snapshot()
    if mode is _SEQ:
        machine.load_matrix(a)
    else:
        _require_parallel(machine, mode)
        machine.parallel_load_matrix(a)
    result = BitMatrix._of(tuple([matvec(machine, col, mode).result._bits for col in b.columns()]))
    return _report(machine, mode, result, log.since(before))
