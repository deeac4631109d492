"""Mutation checks: deliberately broken copies of `src/` that the tests must catch.

Each mutant is one text substitution in one file of `src/mvpsim`, applied to a
temporary copy of `src/`, followed by a run of the test files named for it
with that copy first on the import path. Run from the repository root:

    python3 tools/mutants.py

It exits 1 if a mutant survives (its tests pass), if a substitution no longer
applies exactly once (the code it broke has changed: update the mutant rather
than lose it), or if a mutant's tests cannot run at all. Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

# pytest with hypothesis told not to shrink or save a failure: a mutant only
# has to be caught, and shrinking a failure at n = 65 takes minutes.
PYTEST = """
import sys, pytest
from hypothesis import Phase, settings
settings.register_profile("mutants", database=None,
                          phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("mutants")
sys.exit(pytest.main(sys.argv[1:]))
"""
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/mvpsim
    old: str
    new: str
    tests: tuple[str, ...]  # test files, relative to tests/


MUTANTS = (
    Mutant(
        "reset-step overcharge at n > 16",
        "contract.py",
        "self._log.charge(_RESET_STEP, self.n * self._return_steps + flipped)",
        "self._log.charge(_RESET_STEP, self.n * self._return_steps + flipped + (self.n > 16))",
        ("test_ledger.py",),
    ),
    Mutant(
        "output-switch overcharge at n > 40",
        "contract.py",
        "self._log.charge(_OUTPUT_SWITCH, clear)",
        "self._log.charge(_OUTPUT_SWITCH, clear + (self.n > 40))",
        ("test_ledger.py",),
    ),
    Mutant(
        "activations and deactivations swapped",
        "contract.py",
        "on = (diff & ~self._active).bit_count()",
        "on = (diff & self._active).bit_count()",
        ("test_ledger.py",),
    ),
    Mutant(
        "flags cut to 64 bits",
        "bits.py",
        'return bin(mask)[:1:-1].ljust(n, "0")',
        'return bin(mask & (1 << 64) - 1)[:1:-1].ljust(n, "0")',
        ("test_stateful.py",),
    ),
    Mutant(
        "first column never blocks",
        "contract.py",
        "compress(self._cols, _flags(active, self.n))",
        "compress(self._cols[1:], _flags(active, self.n)[1:])",
        ("test_stateful.py",),
    ),
    Mutant(
        "table path drops the first column",
        "contract.py",
        'active.to_bytes(len(tables), "little")',
        '(active & ~1).to_bytes(len(tables), "little")',
        ("test_engine.py",),
    ),
    Mutant(
        "every row blocked tested as always true",
        "contract.py",
        "saturated = blocked.bit_count() == self.n",
        "saturated = True",
        ("test_engine.py",),
    ),
    Mutant(
        "early exit never taken",
        "contract.py",
        "saturated = blocked.bit_count() == self.n",
        "saturated = False",
        ("test_engine.py",),
    ),
    Mutant(
        "16 ORs counted as all of them after an early exit",
        "contract.py",
        "min(ors, 16) if saturated else ors",
        "ors",
        ("test_engine.py",),
    ),
    Mutant(
        "last partial group dropped",
        "contract.py",
        "for g in range(0, self.n, 8):",
        "for g in range(0, self.n - self.n % 8, 8):",
        ("test_engine.py",),
    ),
    Mutant(
        "tables kept across a load",
        "contract.py",
        "        self._tables = None\n        self._ors = 0\n",
        "        self._ors = 0\n",
        ("test_engine.py",),
    ),
    Mutant(
        "OR count kept across a load",
        "contract.py",
        "        self._tables = None\n        self._ors = 0\n",
        "        self._tables = None\n",
        ("test_engine.py",),
    ),
    Mutant(
        "a sequential load overcharges CellLoad at n > 16",
        "contract.py",
        "self._log.charge(_CELL_LOAD, self.n * self.n)",
        "self._log.charge(_CELL_LOAD, self.n * self.n + (self.n > 16))",
        ("test_ledger.py",),
    ),
    Mutant(
        "a sequential load charges CellLoad once per column",
        "contract.py",
        "        self._log.charge(_CELL_LOAD, self.n * self.n)\n",
        "        for _ in self._cols:\n            self._log.charge(_CELL_LOAD, self.n)\n",
        ("test_ledger.py",),
    ),
    Mutant(
        "sensing always bulk, overrides bypassed",
        "contract.py",
        "self._per_row = getattr(cls, cls._sensor.__name__) is not cls._sensor",
        "self._per_row = False",
        ("test_engine.py", "test_cli.py"),
    ),
    Mutant(
        "a phase never closes",
        "contract.py",
        "        self._phase_start = None\n        if exc_type",
        "        if exc_type",
        ("test_contract.py",),
    ),
    Mutant(
        "a raising phase always recorded",
        "contract.py",
        "if exc_type is None or charged:",
        "if True:",
        ("test_contract.py",),
    ),
    Mutant(
        "nested phases allowed",
        "contract.py",
        'raise MachineStateError("parallel phases cannot nest")',
        "pass",
        ("test_contract.py",),
    ),
    Mutant(
        "delta interval sliced one phase late",
        "contract.py",
        "phases = self._phases[start : self._stop]",
        "phases = self._phases[start + 1 : self._stop]",
        ("test_contract.py",),
    ),
    Mutant(
        "since slices phases from one past the snapshot",
        "contract.py",
        "phases[before._stop :]",
        "phases[before._stop + 1 :]",
        ("test_contract.py",),
    ),
    Mutant(
        "since skips the shared-history fallback",
        "contract.py",
        "if before._phases is not phases:",
        "if False:",
        ("test_contract.py",),
    ),
    Mutant(
        "snapshot read inside an open phase",
        "contract.py",
        'raise MachineStateError("snapshot inside an open parallel phase")',
        "pass",
        ("test_contract.py",),
    ),
    Mutant(
        "since read inside an open phase",
        "contract.py",
        'raise MachineStateError("since inside an open parallel phase")',
        "pass",
        ("test_contract.py",),
    ),
    Mutant(
        "negative deltas accepted",
        "contract.py",
        "if min(counts) < 0:",
        "if False:",
        ("test_contract.py",),
    ),
    Mutant(
        "float bits coerced",
        "bits.py",
        "    if set(map(type, out)) <= {int, bool}:\n        try:\n            flags = bytes(out)\n",
        "    if set(map(type, out)) <= {int, bool, float}:\n        try:\n"
        "            flags = bytes(map(int, out))\n",
        ("test_bits.py",),
    ),
    Mutant(
        "a bool dimension let through",
        "bits.py",
        "if type(n) is not int or n < 1:",
        "if n < 1:",
        ("test_bits.py",),
    ),
    Mutant(
        "a bool index let through",
        "bits.py",
        "if type(i) is not int or not 0 <= i < n:",
        "if not 0 <= i < n:",
        ("test_axis_ladder.py", "test_wall_light.py", "test_bits.py"),
    ),
    Mutant(
        "column masks cut to 64 bits",
        "bits.py",
        "return tuple([int(digits[j::n][::-1], 2) for j in range(n)])",
        "return tuple([int(digits[j::n][::-1], 2) & (1 << 64) - 1 for j in range(n)])",
        ("test_engine.py",),
    ),
    Mutant(
        "rows view holds the columns",
        "bits.py",
        "return tuple(zip(*[_flags(c, self.n) for c in self._cols]))",
        "return tuple(map(tuple, [_flags(c, self.n) for c in self._cols]))",
        ("test_bits.py",),
    ),
    Mutant(
        "report read from the blocked mask, not the sections",
        "contract.py",
        "        if 0 in self._sections:\n            return BitVector._of(_mask(self._sections), self.n)\n"
        "        return BitVector._of((1 << self.n) - 1, self.n)\n",
        "        return BitVector._of(self._blocked_rows(), self.n)\n",
        ("test_cli.py",),
    ),
    Mutant(
        "home check never refuses",
        "contract.py",
        "if self._output_set or 0 in self._sections:",
        "if self._output_set:",
        ("test_axis_ladder.py", "test_ledger.py"),
    ),
    Mutant(
        "reset restores the sections to 0s",
        "contract.py",
        'self._sections = bytearray(b"\\x01") * self.n',
        "self._sections = bytearray(self.n)",
        ("test_engine.py",),
    ),
    Mutant(
        "a stroke with one clear row installs no section",
        "contract.py",
        "if clear:",
        "if clear > 1:",
        ("test_axis_ladder.py",),
    ),
    Mutant(
        "report always all-ones",
        "contract.py",
        "        if 0 in self._sections:\n            return",
        "        if False:\n            return",
        ("test_axis_ladder.py",),
    ),
    Mutant(
        "a reset with one flipped section restores none",
        "contract.py",
        "if flipped:",
        "if flipped > 1:",
        ("test_axis_ladder.py",),
    ),
    Mutant(
        "ladder position read with its polarity flipped",
        "axis_ladder.py",
        "return not self.output_section(i)",
        "return bool(self.output_section(i))",
        ("test_axis_ladder.py", "test_stateful.py"),
    ),
    Mutant(
        "a shifted ladder released again",
        "axis_ladder.py",
        "if self.ladder_shifted(i):",
        "if False:",
        ("test_axis_ladder.py", "test_stateful.py"),
    ),
    Mutant(
        "the ladder bytes the benchmark's fault machine writes dropped",
        "axis_ladder.py",
        "self._ladder_shifted = bytearray(n)",
        "pass",
        ("test_bench_faults.py",),
    ),
    Mutant(
        "row_blocked reads the clear rows",
        "contract.py",
        "return bool(self._blocked_rows() >> i & 1)",
        "return not self._blocked_rows() >> i & 1",
        ("test_wall_light.py", "test_axis_ladder.py"),
    ),
    Mutant(
        "rows split at any line break",
        "bits.py",
        'lines = text.removesuffix("\\n").split("\\n")',
        "lines = text.splitlines()",
        ("test_bits.py",),
    ),
    Mutant(
        "a blank first line read as empty input",
        "bits.py",
        'if lines == [""]:',
        "if not lines[0]:",
        ("test_bits.py", "test_cli.py"),
    ),
    Mutant(
        "CSV counts out of schema order",
        "cli.py",
        "*ops.counts.values(),",
        "*reversed(ops.counts.values()),",
        ("test_cli.py",),
    ),
    Mutant(
        "a mode that is not a Mode member let through",
        "drivers.py",
        "if mode is not Mode.PAR:",
        "if False:",
        ("test_drivers.py",),
    ),
    Mutant(
        "a drawn value equal to the density read as below it",
        "bits.py",
        "(a >> 5) << 26 | b >> 6 < t",
        "(a >> 5) << 26 | b >> 6 <= t",
        ("test_bits.py",),
    ),
    Mutant(
        "a Random subclass's own random() bypassed",
        "bits.py",
        "if type(rng) is not Random:",
        "if not isinstance(rng, Random):",
        ("test_bits.py",),
    ),
    Mutant(
        "a bool density let through",
        "bits.py",
        "if type(density) is bool or not isinstance(",
        "if not isinstance(",
        ("test_bits.py",),
    ),
)


def apply(mutant: Mutant, src: str) -> None:
    """Write `mutant` into the copy of src/ at `src`; refuse unless its text
    occurs exactly once."""
    path = os.path.join(src, "mvpsim", mutant.path)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    found = text.count(mutant.old)
    if found != 1:
        raise LookupError(f"substitution found {found} times in {mutant.path}, expected once")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> str:
    """'killed', 'SURVIVED' or an error, for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        try:
            apply(mutant, src)
        except LookupError as e:
            return f"STALE: {e}"
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        tests = [os.path.join("tests", t) for t in mutant.tests]
        cmd = [sys.executable, "-c", PYTEST, "-q", "-x", "-p", "no:cacheprovider", *tests]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return "SURVIVED"
    if proc.returncode == 1:  # tests ran and failed
        return "killed"
    return f"ERROR: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = run(mutant)
        bad += verdict != "killed"
        print(f"{verdict.splitlines()[0]:>9}  {mutant.name} [{', '.join(mutant.tests)}] "
              f"{time.perf_counter() - start:.1f}s", flush=True)
        if "\n" in verdict:
            print(verdict.split("\n", 1)[1])
    print(f"mutants: {len(MUTANTS) - bad} of {len(MUTANTS)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
