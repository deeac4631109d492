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
        "flipped = self._sections.count(0)",
        "flipped = self._sections.count(0) + (self.n > 16)",
        ("test_ledger.py",),
    ),
    Mutant(
        "output-switch overcharge at n > 40",
        "contract.py",
        "(clear << _OUTPUT_SWITCH_SHIFT), self.n + clear)",
        "(clear + (self.n > 40) << _OUTPUT_SWITCH_SHIFT), self.n + clear + (self.n > 40))",
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
        "if count > 16 and blocked.bit_count() != self.n:",
        "if False:",
        ("test_engine.py",),
    ),
    Mutant(
        "early exit never taken",
        "contract.py",
        "            if blocked.bit_count() != self.n:\n",
        "            if True:\n",
        ("test_engine.py",),
    ),
    Mutant(
        "head saturation test always true",
        "contract.py",
        "            if blocked.bit_count() != self.n:\n",
        "            if False:\n",
        ("test_engine.py",),
    ),
    Mutant(
        "the head's ORs counted as all of them after an early exit",
        "contract.py",
        "                count = head.bit_count()\n                self._head_ors += count\n",
        "                self._head_ors += head.bit_count()\n",
        ("test_engine.py",),
    ),
    Mutant(
        "head read ORs 3 entries",
        "contract.py",
        'map(list.__getitem__, tables, active.to_bytes(self._groups, "little"))',
        'map(list.__getitem__, tables[:-1], active.to_bytes(self._groups, "little"))',
        ("test_engine.py",),
    ),
    Mutant(
        "the read past the head starts at column 24",
        "contract.py",
        "rest = active >> _HEAD\n                cols = islice(self._cols, _HEAD, None)\n"
        "                blocked = reduce(or_, compress(cols, _flags(rest, self.n - _HEAD)), blocked)",
        "rest = active >> _HEAD - 8\n                cols = islice(self._cols, _HEAD - 8, None)\n"
        "                blocked = reduce(or_, compress(cols, _flags(rest, self.n - _HEAD + 8)), blocked)",
        ("test_engine.py",),
    ),
    Mutant(
        "last partial group dropped",
        "contract.py",
        "min(stop, self.n), 8):",
        "min(stop, self.n - self.n % 8), 8):",
        ("test_engine.py",),
    ),
    Mutant(
        "tables kept across a load",
        "contract.py",
        "        self._tables = []\n        self._ors = self._head_ors = 0\n",
        "        self._ors = self._head_ors = 0\n",
        ("test_engine.py",),
    ),
    Mutant(
        "a load keeps the head",
        "contract.py",
        "        self._tables = []\n",
        "        del self._tables[_HEAD // 8 :]\n",
        ("test_engine.py",),
    ),
    Mutant(
        "OR count kept across a load",
        "contract.py",
        "        self._tables = []\n        self._ors = self._head_ors = 0\n",
        "        self._tables = []\n        self._head_ors = 0\n",
        ("test_engine.py",),
    ),
    Mutant(
        "the head's OR count kept across a load",
        "contract.py",
        "        self._tables = []\n        self._ors = self._head_ors = 0\n",
        "        self._tables = []\n        self._ors = 0\n",
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
        "        log._phase_start = None\n        log._phase_ops.append(log._total - start)\n",
        "        log._phase_ops.append(log._total - start)\n",
        ("test_contract.py",),
    ),
    Mutant(
        "a raising phase always recorded",
        "contract.py",
        "if log._total != start:",
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
        "a raising phase step recorded without a charge",
        "contract.py",
        "                log._phase_ops.append(log._total - start)\n",
        "                log._phase_ops.append(0)\n",
        ("test_contract.py",),
    ),
    Mutant(
        "a motion records its step as two phases",
        "contract.py",
        "        log._phase_ops.append(log._total - start)\n        return result\n",
        "        log._phase_ops += [0, log._total - start]\n        return result\n",
        ("test_axis_ladder.py",),
    ),
    Mutant(
        "a motion steps the base MvpMachine's operation, not its class's",
        "contract.py",
        "_motion(getattr(cls, f._step), f.__wrapped__, f._step)",
        "_motion(getattr(MvpMachine, f._step), f.__wrapped__, f._step)",
        ("test_axis_ladder.py",),
    ),
    Mutant(
        "an override of a motion that copies its attributes rebuilt as a motion",
        "contract.py",
        'if getattr(f, "__code__", None) is _MOTION_CODE:',
        'if hasattr(f, "_step"):',
        ("test_axis_ladder.py",),
    ),
    Mutant(
        "sensing lane built for OutputSwitch",
        "contract.py",
        "n << _SHIFT[self._sense_category]",
        "n << _SHIFT[_OUTPUT_SWITCH]",
        ("test_ledger.py",),
    ),
    Mutant(
        "an `_add` total one short of its lanes",
        "contract.py",
        "self._lanes[1], self.n)",
        "self._lanes[1], self.n - 1)",
        ("test_stateful.py",),
    ),
    Mutant(
        "the bulk load records one phase fewer",
        "contract.py",
        "self._phase_ops.extend([amount] * phases)",
        "self._phase_ops.extend([amount] * (phases - 1))",
        ("test_contract.py", "test_axis_ladder.py"),
    ),
    Mutant(
        "a parallel load marks the machine loaded before entering its phase",
        "axis_ladder.py",
        "        self._load_phase(a)\n",
        "        self._matrix_loaded = True\n        self._load_phase(a)\n",
        ("test_axis_ladder.py",),
    ),
    Mutant(
        "a load refused for its dimension voids the sync",
        "contract.py",
        '        _operand(a, BitMatrix, self.n, "matrix")\n',
        '        self._synced = False\n        _operand(a, BitMatrix, self.n, "matrix")\n',
        ("test_axis_ladder.py",),
    ),
    Mutant(
        "the load's operand checked after the release",
        "contract.py",
        '        _operand(a, BitMatrix, self.n, "matrix")\n        self._toggle_columns(self._active)\n',
        '        self._toggle_columns(self._active)\n        _operand(a, BitMatrix, self.n, "matrix")\n',
        ("test_contract.py",),
    ),
    Mutant(
        "an operand of another type let through",
        "bits.py",
        "if not isinstance(value, kind):",
        "if False:",
        ("test_contract.py",),
    ),
    Mutant(
        "delta interval sliced one phase late",
        "contract.py",
        "self._phases[start : self._stop])",
        "self._phases[start + 1 : self._stop])",
        ("test_contract.py",),
    ),
    Mutant(
        "another history subtracted unchecked",
        "contract.py",
        "tuple(self._phases[:start]) != tuple(phases[:start])",
        "False",
        ("test_contract.py",),
    ),
    Mutant(
        "a longer history of the same log subtracted unchecked",
        "contract.py",
        "start > self._stop or ",
        "",
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
        "matvec's delta starts one phase late",
        "contract.py",
        "self._phase_ops[start:]",
        "self._phase_ops[start + 1 :]",
        ("test_drivers.py",),
    ),
    Mutant(
        "matvec reads the ledger inside an open phase",
        "contract.py",
        'raise MachineStateError("snapshot inside an open parallel phase")\n'
        "        return self._counts, len(",
        "pass\n        return self._counts, len(",
        ("test_stateful.py",),
    ),
    Mutant(
        "since skips the shared-history fallback",
        "contract.py",
        "if type(before) is not OpCounts or before._phases is not phases:",
        "if False:",
        ("test_contract.py",),
    ),
    Mutant(
        "the lane mask one bit short",
        "contract.py",
        "_LANE = (1 << 64) - 1",
        "_LANE = (1 << 63) - 1",
        ("test_contract.py",),
    ),
    Mutant(
        "count reads the neighbouring lane",
        "contract.py",
        "return self._counts >> _SHIFT[category] & _LANE",
        "return self._counts >> _SHIFT[category] + 64 & _LANE",
        ("test_contract.py",),
    ),
    Mutant(
        "since subtracts the wrong way round",
        "contract.py",
        "_ops(self._counts - before._counts,",
        "_ops(before._counts - self._counts,",
        ("test_contract.py",),
    ),
    Mutant(
        "values of one phase list equal past their own stops",
        "contract.py",
        "self._stop == other._stop and (",
        "(",
        ("test_contract.py",),
    ),
    Mutant(
        "equal snapshots of one log compare their phase entries",
        "contract.py",
        "self._phases is other._phases or self.phase_ops",
        "self.phase_ops",
        ("test_contract.py",),
    ),
    Mutant(
        "every backend shares MvpMachine's code objects",
        "contract.py",
        "                setattr(cls, name, copy)",
        "                pass",
        ("test_contract.py",),
    ),
    Mutant(
        "a copy put over a base's override",
        "contract.py",
        'getattr(getattr(cls, name), "__code__", None) == f.__code__',
        "name not in vars(cls)",
        ("test_contract.py",),
    ),
    Mutant(
        "a backend's subclass shares the backend's copies",
        "contract.py",
        'getattr(getattr(cls, name), "__code__", None) == f.__code__',
        "getattr(cls, name) is f",
        ("test_contract.py",),
    ),
    Mutant(
        "a phase interrupted by a BaseException left open",
        "contract.py",
        "except BaseException:",
        "except Exception:",
        ("test_contract.py",),
    ),
    Mutant(
        "snapshot read inside an open phase",
        "contract.py",
        'raise MachineStateError("snapshot inside an open parallel phase")\n'
        "        return _ops(",
        "pass\n        return _ops(",
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
        "if min(counts) < 0 or",
        "if False or",
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
        "return tuple([int(digits[last + j :: -n], 2) for j in range(n)])",
        "return tuple([int(digits[last + j :: -n], 2) & (1 << 64) - 1 for j in range(n)])",
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
        "        return self._ones\n",
        "        return BitVector._of(self._blocked_rows(), self.n)\n",
        ("test_cli.py",),
    ),
    Mutant(
        "the prebuilt report vector is one bit short",
        "contract.py",
        "self._ones = BitVector._of((1 << n) - 1, n)",
        "self._ones = BitVector._of((1 << n - 1) - 1, n)",
        ("test_ledger.py",),
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
        "protrusion read without the activation",
        "axis_ladder.py",
        "return bool(self._active >> j & self._cols[j] >> i & 1)",
        "return bool(self._cols[j] >> i & 1)",
        ("test_stateful.py",),
    ),
    Mutant(
        "loaded_matrix charges a ScanStep",
        "contract.py",
        "        return BitMatrix._of(self._cols)\n",
        "        self._log.charge(_SCAN_STEP, 1)\n        return BitMatrix._of(self._cols)\n",
        ("test_stateful.py",),
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
        "return bool(self._blocked >> i & 1)",
        "return not self._blocked >> i & 1",
        ("test_wall_light.py", "test_axis_ladder.py"),
    ),
    Mutant(
        "the kept blocked-row read survives a column change",
        "contract.py",
        "        self._active ^= diff\n        self._blocked = None\n",
        "        self._active ^= diff\n",
        ("test_engine.py", "test_stateful.py"),
    ),
    Mutant(
        "the wall's section left to its primitive",
        "contract.py",
        "not self._return_steps",
        "False",
        ("test_engine.py",),
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
        "a --sizes part read with int()",
        "cli.py",
        '_number(part, "--sizes")',
        "int(part)",
        ("test_cli.py",),
    ),
    Mutant(
        "the product helper ignores the mode",
        "cli.py",
        "matmul(machine, a, b, Mode(args.mode))",
        "matmul(machine, a, b, Mode.SEQ)",
        ("test_cli.py",),
    ),
    Mutant(
        "a mode that is not a Mode member let through",
        "drivers.py",
        "if mode is not _PAR:",
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
    batch = time.perf_counter()
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = run(mutant)
        bad += verdict != "killed"
        print(f"{verdict.splitlines()[0]:>9}  {mutant.name} [{', '.join(mutant.tests)}] "
              f"{time.perf_counter() - start:.1f}s", flush=True)
        if "\n" in verdict:
            print(verdict.split("\n", 1)[1])
    print(f"mutants: {len(MUTANTS) - bad} of {len(MUTANTS)} killed "
          f"in {time.perf_counter() - batch:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
