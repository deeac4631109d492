"""Host-speed reference for the end-to-end host times.

The benchmark runs on a shared virtual machine whose speed drifts by up to
about 1.7x over seconds to minutes, with the load of other tenants. A fixed
piece of Python work, the probe, is therefore timed in short bursts between
the jobs, and each host time is reported at the reference speed:

    scaled = host seconds * REF_PROBE_S / mean probe time within WINDOW_S

The probe is benchmark code and shares nothing with mvpsim, so a change to
the simulator moves scaled times exactly as it moves raw ones, while a
drift of the host moves both the job and the probe next to it. The probe
imitates the simulator's hot loops: per-row counter updates from a column
tuple, a range check per call and a charge into a Counter keyed by an Enum.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from enum import Enum
from random import Random
from time import perf_counter

REF_PROBE_S = 0.001  # the reference speed: one probe per millisecond
PROBE_ROWS, PROBE_COLS, PROBE_ROUNDS = 64, 8, 16
BURST = 12  # probes per burst
GAP_S = 0.1  # least host time between bursts
WINDOW_S = 0.5  # probes this close to a job, before or after, scale it


class _Op(Enum):
    ON = "on"
    OFF = "off"


class _Probe:
    """Toggles fixed columns on and off, so every run does the same work."""

    def __init__(self) -> None:
        rng = Random(0)
        self.cols = [tuple(rng.randrange(2) for _ in range(PROBE_ROWS)) for _ in range(PROBE_COLS)]
        self.counts = [0] * PROBE_ROWS
        self.log: Counter = Counter()

    def _check(self, j: int) -> None:
        if not 0 <= j < PROBE_COLS:
            raise IndexError(j)

    def toggle(self, j: int, sign: int) -> None:
        self._check(j)
        self.log[_Op.ON if sign > 0 else _Op.OFF] += 1
        col, counts = self.cols[j], self.counts
        for i in range(PROBE_ROWS):
            counts[i] += sign * col[i]

    def run(self) -> None:
        for _ in range(PROBE_ROUNDS):
            for j in range(PROBE_COLS):
                self.toggle(j, 1)
            for j in range(PROBE_COLS):
                self.toggle(j, -1)


class Speed:
    """Probe bursts at least GAP_S apart, and the scaling they give."""

    def __init__(self) -> None:
        self._probe = _Probe()
        self.stamps: list[float] = []  # start of each probe
        self._sums = [0.0]  # prefix sums of probe seconds
        self._last = float("-inf")

    def burst(self) -> None:
        for _ in range(BURST):
            start = perf_counter()
            self._probe.run()
            self.stamps.append(start)
            self._sums.append(self._sums[-1] + perf_counter() - start)
        self._last = perf_counter()

    def maybe_burst(self) -> None:
        """A burst, if the last one ended at least GAP_S ago."""
        if perf_counter() - self._last >= GAP_S:
            self.burst()

    def scale(self, start: float, seconds: float) -> float:
        """`seconds` of host time that began at `start`, at the reference
        speed. Needs a burst within WINDOW_S before and after."""
        i = bisect_left(self.stamps, start - WINDOW_S)
        j = bisect_right(self.stamps, start + seconds + WINDOW_S)
        if i == j:
            raise RuntimeError("no speed probe near a timed interval")
        return seconds * REF_PROBE_S * (j - i) / (self._sums[j] - self._sums[i])

    def probe_ms(self) -> float:
        """Mean probe time so far, in ms, for the run log."""
        return (self._sums[-1] / len(self.stamps)) * 1e3 if self.stamps else 0.0
