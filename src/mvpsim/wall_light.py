"""Sliding-wall backend: activated columns occlude per-row lights.

The input array is a bank of n vertical walls, one per column, built from
alternating solid and window sections that encode the column bits. A lamp
shines through every row. `activate_column(j)` slides wall j down one
section, which brings a solid section in front of row i exactly where the
column holds a 1, and `deactivate_column(j)` slides it back up; an idle
wall sits with its windows aligned and blocks nothing. Light is therefore
observed at row i exactly when no active column holds a 1 there, i.e. when
`row_blocked(i)` is false. Sensing a row flips its output section from 1 to
0 when light comes through, so the section values equal the Boolean product
coordinates. Resetting only switches flipped sections back; there is no
return stroke. This backend has no machine-wide parallel drive.

Column switching, the row probe and the per-row stroke are the machine's,
shared with the axis backend; this class holds only the wall's physics:
`passes_light` (light polarity, where the axis reads a protrusion) and
`observe_light`, which it names as its sensing primitive.
"""

from __future__ import annotations

from .bits import _index
from .contract import _LIGHT_OBSERVE, MvpMachine


class WallLightMachine(MvpMachine):
    """Matrix-vector processor built from sliding walls and row lights."""

    backend = "wall"

    # -- uncounted inspection --------------------------------------------------

    def passes_light(self, i: int, j: int) -> bool:
        """Whether light at row i gets past wall j in its current position."""
        _index(i, self.n, "row")
        _index(j, self.n, "column")
        return not self._active >> j & self._cols[j] >> i & 1

    # -- counted physical primitives -------------------------------------------

    def observe_light(self, i: int) -> bool:
        """Sense the lamp behind row i (one operation). Returns True when
        the light comes through, i.e. no shifted wall occludes the row."""
        blocked = self.row_blocked(i)
        self._log.charge(_LIGHT_OBSERVE)
        return not blocked

    # -- physics hooks for the contract operations ------------------------------

    _sensor = observe_light
    _sense_category = _LIGHT_OBSERVE
