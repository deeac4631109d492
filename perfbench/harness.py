"""Set-up and job accounting shared by the workloads.

`setup` imports mvpsim afresh from the checkout's `src`, confirms the
checker against the oracle, runs a small checked preflight of every
config through the drivers and the CLI, generates and validates the
workload's inputs and runs one untimed warm-up job per config. `Harness`
runs each job in a closed loop, times it and checks its result and ledger.
"""

from __future__ import annotations

import importlib
import os
import sys
from collections import Counter
from dataclasses import dataclass
from random import Random
from time import perf_counter

from checker import CONFIGS, Expected, check_bench_csv, confirm, ledger_ok, matmul_ledger
from checker import matmul_rows, op_counts, row_masks, transpose

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass
class Modules:
    """One fresh import of the package under test."""

    pkg: object
    bits: object
    contract: object
    drivers: object
    cli: object

    def mode(self, cfg: str):
        return self.drivers.Mode(CONFIGS[cfg][1])


def import_mvpsim() -> Modules:
    """Import mvpsim from the checkout, dropping any earlier import so that
    each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "mvpsim" or m.startswith("mvpsim.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("mvpsim")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"mvpsim imported from {pkg.__file__}, not from {SRC}")
    return Modules(
        pkg,
        importlib.import_module("mvpsim.bits"),
        importlib.import_module("mvpsim.contract"),
        importlib.import_module("mvpsim.drivers"),
        importlib.import_module("mvpsim.cli"),
    )


class Harness:
    """Closed-loop job runner: one job at a time, each timed and checked.

    A check returns (ok, counts by category, phase count, Expected). Only
    timed jobs feed the timing lists; every job feeds the ledger tallies.
    With a `Speed`, a probe burst runs between timed jobs when one is due.
    """

    def __init__(self, mods: Modules, tracer=None, speed=None) -> None:
        self.mods = mods
        self.tracer = tracer
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.times: dict[str, list[float]] = {cfg: [] for cfg in CONFIGS}
        self.starts: dict[str, list[float]] = {cfg: [] for cfg in CONFIGS}
        self.ops: dict[str, list[int]] = {cfg: [] for cfg in CONFIGS}
        self.ledger: dict[str, Counter] = {cfg: Counter() for cfg in CONFIGS}
        self.phases: Counter = Counter()
        self.useful: Counter = Counter()
        self.rows: Counter = Counter()

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def job(self, cfg: str, call, check, timed: bool = True):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.job("job" if timed else "step", cfg)
            call = self.tracer.wrap("bench.job", call)
        if timed and self.speed is not None:
            self.speed.maybe_burst()
        try:
            start = perf_counter()
            out = call()
            elapsed = perf_counter() - start
            ok, counts, phases, want = check(out)
        except Exception as e:  # a raising job is a failed job; keep going
            self.fail(f"{cfg}: {type(e).__name__}: {e}")
            return None
        finally:
            if self.tracer is not None:
                self.tracer.end_job()
        if not ok:
            self.fail(f"{cfg}: result or ledger differs from the reference")
        if timed:
            self.times[cfg].append(elapsed)
            self.starts[cfg].append(start)
            self.ops[cfg].append(sum(counts.values()))
        self.ledger[cfg].update(counts)
        self.phases[cfg] += phases
        self.useful[cfg] += want.useful_toggles
        self.rows[cfg] += want.rows
        return out


def validated(mods: Modules, matrix, n: int) -> list[int]:
    """Row masks of a generated matrix, after checking its size and a text
    round trip through serialize_matrix/parse_matrix."""
    if matrix.n != n:
        raise ValueError(f"generated matrix is {matrix.n}x{matrix.n}, expected {n}")
    rows = row_masks(matrix, n)
    if row_masks(mods.bits.parse_matrix(mods.bits.serialize_matrix(matrix)), n) != rows:
        raise ValueError("matrix text round trip changed the matrix")
    return rows


@dataclass
class MatmulCase:
    """A matmul input pair with its reference product and closed-form ledgers."""

    n: int
    a: object
    b: object
    product: list[int]
    expected: dict[str, Expected]

    @classmethod
    def make(cls, mods: Modules, n: int, rng: Random, density: float) -> "MatmulCase":
        a = mods.bits.BitMatrix.random(n, rng, density)
        b = mods.bits.BitMatrix.random(n, rng, density)
        a_cols = transpose(validated(mods, a, n), n)
        b_cols = transpose(validated(mods, b, n), n)
        expected = {cfg: matmul_ledger(n, a_cols, b_cols, cfg) for cfg in CONFIGS}
        return cls(n, a, b, matmul_rows(n, a_cols, b_cols), expected)

    def run(self, h: Harness, cfg: str, timed: bool = True) -> None:
        """One job: a fresh machine of `cfg` computes A B."""
        d, mode = h.mods.drivers, h.mods.mode(cfg)

        def call():
            return d.matmul(d.make_machine(CONFIGS[cfg][0], self.n), self.a, self.b, mode)

        def check(report):
            counts, phases = op_counts(report.ops)
            want = self.expected[cfg]
            ok = row_masks(report.result, self.n) == self.product and ledger_ok(counts, phases, want)
            return ok, counts, len(phases), want

        h.job(cfg, call, check, timed)


def bench_argv(sizes, cfg: str, seed: int, density: float, csv_path: str) -> list[str]:
    backend, mode = CONFIGS[cfg]
    return [
        "bench", "--sizes", ",".join(map(str, sizes)), "--backend", backend, "--mode", mode,
        "--seed", str(seed), "--trials", "1", "--density", str(density), "--csv", csv_path,
    ]


def bench_expected(mods: Modules, sizes, seed: int, density: float) -> dict[str, list]:
    """Closed-form ledgers of `mvpsim bench --trials 1`, per config one
    (n, Expected) per size. The matrices are regenerated the way `cmd_bench`
    seeds them (one Random per size and trial), so that the CSV is checked
    without a golden file."""
    cases: dict[str, list] = {cfg: [] for cfg in CONFIGS}
    for n in sizes:
        rng = Random(f"{seed}:{n}:0")
        a = mods.bits.BitMatrix.random(n, rng, density)
        b = mods.bits.BitMatrix.random(n, rng, density)
        a_cols = transpose(validated(mods, a, n), n)
        b_cols = transpose(validated(mods, b, n), n)
        for cfg in CONFIGS:
            cases[cfg].append((n, matmul_ledger(n, a_cols, b_cols, cfg)))
    return cases


def run_bench(h: Harness, cfg: str, argv: list[str], want, timed: bool = True) -> None:
    """One job: one in-process `mvpsim bench` invocation, CSV checked by name."""
    cli, path = h.mods.cli, argv[-1]
    total = sum((e for _, e in want), Expected({}, ()))

    def check(rc):
        ok, counts, phases = check_bench_csv(path, cfg, want)
        return rc == 0 and ok, counts, phases, total

    h.job(cfg, lambda: cli.main(argv), check, timed)


def preflight(h: Harness, seed: int, tmpdir: str) -> None:
    """Small checked runs of every config through the drivers and the CLI,
    on seeded inputs up to n = 16, before anything is timed."""
    rng = Random(f"preflight:{seed}")
    for n in (1, 2, 3, 5, 8, 16):
        case = MatmulCase.make(h.mods, n, rng, 0.5)
        for cfg in CONFIGS:
            case.run(h, cfg, timed=False)
    sizes = (1, 2, 3, 4)
    want = bench_expected(h.mods, sizes, seed, 0.5)
    for cfg in CONFIGS:
        argv = bench_argv(sizes, cfg, seed, 0.5, os.path.join(tmpdir, f"preflight-{cfg}.csv"))
        run_bench(h, cfg, argv, want[cfg], timed=False)


def setup(workload, seed: int, tmpdir: str, tracer=None, fault: str | None = None):
    """Import, confirm, preflight, generate and warm up. Returns the
    modules, the set-up's harness and its host seconds."""
    start = perf_counter()
    mods = import_mvpsim()
    if fault is not None:
        inject_fault(mods, fault)
    if tracer is not None:
        tracer.install(mods)
    h = Harness(mods, tracer)
    h.attempted += 1  # the checker's confirmation is one checked step
    for bad in confirm(mods.bits, seed):
        h.fail(f"checker disagrees with the oracle on {bad}")
    preflight(h, seed, tmpdir)
    workload.prepare(mods, seed, tmpdir)
    workload.warmup(h)
    return mods, h, perf_counter() - start


# -- fault injection -----------------------------------------------------------


def fault_classes(mods: Modules) -> dict:
    """Deliberately broken axis machines that the checks must catch."""
    AxisLadderMachine = mods.pkg.AxisLadderMachine
    OpCategory = mods.contract.OpCategory

    class InvertedRowMachine(AxisLadderMachine):
        """The last row's ladder strokes when blocked and stays when clear:
        wrong products and OutputSwitch/ResetStep counts."""

        def move_ladder(self, i: int) -> bool:
            if i != self.n - 1:
                return super().move_ladder(i)
            blocked = self.row_blocked(i)
            self.oplog.charge(OpCategory.LADDER_MOVE)
            if not blocked:
                return False
            self._ladder_shifted[i] = True
            self._sections[i] = 0
            self.oplog.charge(OpCategory.OUTPUT_SWITCH)
            return True

    class OverchargingMachine(AxisLadderMachine):
        """Right products, but the last row's ladder charges LadderMove
        twice: only the exact-ledger check can catch it."""

        def move_ladder(self, i: int) -> bool:
            if i == self.n - 1:
                self.oplog.charge(OpCategory.LADDER_MOVE)
            return super().move_ladder(i)

    return {"inverted-row": InvertedRowMachine, "overcharge": OverchargingMachine}


FAULTS = ("inverted-row", "overcharge")


def inject_fault(mods: Modules, fault: str) -> None:
    """Make the drivers and the CLI build the faulty axis machine."""
    cls = fault_classes(mods)[fault]
    make = mods.drivers.make_machine

    def make_machine(backend: str, n: int):
        return cls(n) if backend == "axis" else make(backend, n)

    mods.drivers.make_machine = make_machine
    mods.cli.make_machine = make_machine
