"""Rotating-axis backend: activated columns block ladders from crossing rows.

The input array is a bank of n column axes. Rotating axis j a quarter turn
("activating") raises a protrusion into every row i where the column holds
a 1, so a row carries at least one protrusion exactly when it has a 1 in
some active column. One spring ladder per row tries to slide across; it
completes the stroke only if the row is clear. A completed stroke flips
that row's output section from its initial 1 to 0, so after all strokes
the section values equal the Boolean product coordinates: blocked row = 1.
So the sections record where every ladder is, and no ladder state is
stored: ladder i is away from home exactly while section i reads 0.
Resetting returns every ladder home, one step each, wherever it stopped.

This backend also offers machine-wide parallel drives: each `parallel_*`
method performs one or two whole-machine motions, each one call of
`OpLog.phase` that runs a contract operation (or a shared step of one) and
records what it charged as a parallel phase in the ledger. A full
matrix-vector pass takes exactly six phases.
"""

from __future__ import annotations

from .bits import BitMatrix, BitVector, _index
from .contract import _CELL_LOAD, _LADDER_MOVE, MachineStateError, MvpMachine


class AxisLadderMachine(MvpMachine):
    """Matrix-vector processor built from rotating axes and spring ladders."""

    backend = "axis"
    supports_parallel = True

    def __init__(self, n: int) -> None:
        super().__init__(n)
        # Nothing reads this: ladder_shifted reads the sections. It stays
        # only because the fault machine of perfbench/harness.py writes it.
        self._ladder_shifted = bytearray(n)

    # -- uncounted inspection --------------------------------------------------

    def protrusion(self, i: int, j: int) -> bool:
        """Whether column j currently raises a protrusion into row i."""
        _index(i, self.n, "row")
        _index(j, self.n, "column")
        return bool(self._active >> j & self._cols[j] >> i & 1)

    def ladder_shifted(self, i: int) -> bool:
        """Whether ladder i is away from home: exactly when its stroke
        completed and flipped the row's output section to 0."""
        return not self.output_section(i)

    # -- counted physical primitives -------------------------------------------

    def move_ladder(self, i: int) -> bool:
        """Release ladder i for one stroke (one operation).

        Returns True when the stroke completes, i.e. the row holds no
        protrusion; a completed stroke flips the row's output section
        from 1 to 0 (one further operation).
        """
        if self.ladder_shifted(i):
            raise MachineStateError(f"ladder {i} is already shifted")
        self._log.charge(_LADDER_MOVE)
        if self.row_blocked(i):
            return False
        self._clear_section(i)
        return True

    # -- physics hooks for the contract operations ------------------------------

    _sensor = move_ladder
    _sense_category = _LADDER_MOVE
    _return_steps = 1  # one return step per ladder

    # -- machine-wide parallel drives -------------------------------------------

    def parallel_load_matrix(self, a: BitMatrix) -> None:
        """Read a matrix in n + 1 phases: one machine-wide release of any
        active columns, then one phase per column writing its n cells (n
        CellLoad each). It is load_matrix grouped into phases: the load's
        whole state change runs as the release phase, so a load refused
        there (inside an open phase, or for its operand) changes nothing,
        and the n column phases are recorded in one ledger call."""
        self._log.phase(self._load_columns, a)
        self._log.charge_phases(_CELL_LOAD, self.n, self.n)

    def parallel_load_vector(self, v: BitVector) -> None:
        """Read all n vector coordinates in one phase."""
        self._log.phase(self.load_vector, v)

    def parallel_sync(self) -> None:
        """Match column activation to the loaded vector in two toggles,
        one phase each: the active columns switch off, then the columns
        the vector selects switch on."""
        self._check_syncable()
        self._log.phase(self._toggle_columns, self._active)
        self._log.phase(self._toggle_columns, self._vector._bits)
        self._synced = True

    def parallel_ladder_step(self) -> None:
        """Release every ladder for its stroke in one phase."""
        self._log.phase(self.set_output)

    def parallel_report_output(self) -> BitVector:
        """Read all n output sections in one phase."""
        return self._log.phase(self.report_output)

    def parallel_reset_output(self) -> None:
        """Drive every ladder home and restore the sections in one phase.
        Like reset_output, legal in any state."""
        self._log.phase(self.reset_output)
