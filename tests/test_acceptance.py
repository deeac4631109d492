"""Shipping gate: one test per release criterion, each printing a verdict line.

Every check is an exact arithmetic assertion (operation counts, phase
counts, equality with the brute-force oracle); nothing here is asymptotic
hand-waving. Run with -s to see the verdict lines on passing runs.
"""

from __future__ import annotations

import itertools
import time
from random import Random

from mvpsim import (
    AxisLadderMachine,
    BitMatrix,
    BitVector,
    Mode,
    OpCategory,
    WallLightMachine,
    make_machine,
    matmul,
    matvec,
    oracle_matmul,
    oracle_matvec,
)
from mvpsim.cli import main

BOTH = (AxisLadderMachine, WallLightMachine)


def _report(k: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] C{k} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"C{k} {label}: {detail}"


def _all_vectors(n: int):
    for coords in itertools.product((0, 1), repeat=n):
        yield BitVector(coords)


def _all_matrices(n: int):
    for cells in itertools.product((0, 1), repeat=n * n):
        yield BitMatrix(tuple(cells[i * n : (i + 1) * n] for i in range(n)))


def test_c1_exhaustive_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    for cls in BOTH:
        for n in (1, 2, 3):
            for a in _all_matrices(n):
                m = cls(n)
                m.load_matrix(a)
                for v in _all_vectors(n):
                    if matvec(m, v).result != oracle_matvec(a, v):
                        mismatches += 1
        for a in _all_matrices(2):
            for b in _all_matrices(2):
                if matmul(cls(2), a, b).result != oracle_matmul(a, b):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "exhaustive equivalence, n<=3 matvec + n=2 matmul, both backends",
        mismatches == 0 and elapsed < 30.0,
        f"{mismatches} mismatches in {elapsed:.1f}s",
    )


def test_c2_randomized_oracle_equivalence():
    start = time.perf_counter()
    combos = (("axis", Mode.SEQ), ("axis", Mode.PAR), ("wall", Mode.SEQ))
    mismatches = 0
    for n in (8, 16, 64, 128):
        for backend, mode in combos:
            for t in range(100):
                rng = Random(f"acceptance-c2:{backend}:{mode.value}:{n}:{t}")
                a = BitMatrix.random(n, rng)
                v = BitVector.random(n, rng)
                m = make_machine(backend, n)
                m.load_matrix(a)
                if matvec(m, v, mode).result != oracle_matvec(a, v):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        "randomized equivalence, n in {8,16,64,128}, 100 trials per combo",
        mismatches == 0 and elapsed < 120.0,
        f"{mismatches} mismatches in {elapsed:.1f}s",
    )


def test_c3_matvec_pass_budget_and_scaling():
    over_budget = []
    for n in (1, 2, 3, 4, 8, 16, 32, 64, 128, 256):
        for cls in BOTH:
            fixtures = [
                (BitMatrix.zeros(n), BitVector.ones(n)),  # maximal strokes/resets
                (BitMatrix.ones(n), BitVector.ones(n)),  # dense, all blocked
                (
                    BitMatrix.random(n, Random(f"c3a:{n}")),
                    BitVector.random(n, Random(f"c3v:{n}")),
                ),
            ]
            for a, v in fixtures:
                m = cls(n)
                m.load_matrix(a)
                total = matvec(m, v).ops.total
                if total > 8 * n:
                    over_budget.append((cls.backend, n, total))
    ratios = []
    for cls in BOTH:
        for n in (32, 64, 128):
            totals = {}
            for k in (n, 2 * n):
                m = cls(k)
                m.load_matrix(BitMatrix.ones(k))
                totals[k] = matvec(m, BitVector.ones(k)).ops.total
            ratios.append(totals[2 * n] / totals[n])
    ok = not over_budget and all(1.8 <= r <= 2.2 for r in ratios)
    _report(
        3,
        "matvec pass <= 8n up to n=256, doubling ratio in [1.8, 2.2]",
        ok,
        f"over budget: {over_budget}, ratios: {ratios}",
    )


def _alternating_columns(n: int) -> BitMatrix:
    cols = [BitVector.ones(n) if j % 2 == 0 else BitVector.zeros(n) for j in range(n)]
    return BitMatrix.from_columns(cols)


def test_c4_matmul_budget_and_scaling():
    over_budget = []
    for n in (2, 4, 8, 16, 32, 64, 128, 256):
        for cls in BOTH:
            rng = Random(f"c4:{cls.backend}:{n}")
            total = matmul(cls(n), BitMatrix.random(n, rng), BitMatrix.random(n, rng)).ops.total
            if total > 9 * n * n:
                over_budget.append((cls.backend, n, "random", total))
    for n in (2, 4, 8, 16, 32, 64, 128):
        for cls in BOTH:
            total = matmul(cls(n), BitMatrix.ones(n), _alternating_columns(n)).ops.total
            if total > 9 * n * n:
                over_budget.append((cls.backend, n, "alternating", total))
    ratios = []
    for cls in BOTH:
        for n in (32, 64):
            totals = {}
            for k in (n, 2 * n):
                totals[k] = matmul(cls(k), BitMatrix.ones(k), _alternating_columns(k)).ops.total
            ratios.append(totals[2 * n] / totals[n])
    ok = not over_budget and all(3.8 <= r <= 4.2 for r in ratios)
    _report(
        4,
        "matmul <= 9n^2 up to n=256, doubling ratio in [3.8, 4.2]",
        ok,
        f"over budget: {over_budget}, ratios: {ratios}",
    )


def test_c5_parallel_pass_is_constant_phases():
    bad = []
    for n in (4, 16, 64, 256):
        rng = Random(f"c5:{n}")
        fixtures = [
            (BitMatrix.random(n, rng), BitVector.random(n, rng)),
            (BitMatrix.ones(n), BitVector.ones(n)),
            (BitMatrix.zeros(n), BitVector.ones(n)),
        ]
        for a, v in fixtures:
            m = AxisLadderMachine(n)
            m.load_matrix(a)
            rep = matvec(m, v, Mode.PAR)
            if rep.ops.parallel_phases != 6 or any(p > 2 * n for p in rep.ops.phase_ops):
                bad.append((n, rep.ops.parallel_phases, rep.ops.phase_ops))
            if rep.result != oracle_matvec(a, v):
                bad.append((n, "result mismatch"))
    _report(
        5,
        "parallel matvec pass = 6 phases, each <= 2n, n in {4,16,64,256}",
        not bad,
        f"violations: {bad[:3]}",
    )


def test_c6_parallel_matmul_phase_budget():
    bad = []
    for n in (4, 16, 64):
        rng = Random(f"c6:{n}")
        for b in (BitMatrix.random(n, rng), _alternating_columns(n)):
            a = BitMatrix.random(n, rng)
            rep = matmul(AxisLadderMachine(n), a, b, Mode.PAR)
            if rep.ops.parallel_phases > 8 * n or any(p > 2 * n for p in rep.ops.phase_ops):
                bad.append((n, rep.ops.parallel_phases))
            if rep.result != oracle_matmul(a, b):
                bad.append((n, "result mismatch"))
    _report(
        6,
        "parallel matmul <= (6+2)n phases, each <= 2n, n in {4,16,64}",
        not bad,
        f"violations: {bad}",
    )


def test_c7_stroke_observation_duality():
    exceptions = 0
    rng = Random("acceptance-c7")
    for _ in range(1000):
        n = rng.randint(1, 8)
        a = BitMatrix.random(n, rng)
        active = [j for j in range(n) if rng.random() < 0.5]
        axis = AxisLadderMachine(n)
        wall = WallLightMachine(n)
        axis.load_matrix(a)
        wall.load_matrix(a)
        for j in active:
            axis.activate_column(j)
            wall.activate_column(j)
        for i in range(n):
            if axis.move_ladder(i) != wall.observe_light(i):
                exceptions += 1
    _report(
        7,
        "ladder stroke == light observation on 1000 seeded configurations",
        exceptions == 0,
        f"{exceptions} disagreements",
    )


def test_c8_resync_of_unchanged_vector_is_toggle_free():
    bad = []
    for cls in BOTH:
        for n in (1, 4, 16, 64):
            rng = Random(f"c8:{cls.backend}:{n}")
            a = BitMatrix.random(n, rng)
            v = BitVector.random(n, rng)
            m = cls(n)
            m.load_matrix(a)
            m.load_vector(v)
            m.sync_columns()
            first = m.oplog.snapshot()
            ones = sum(v)
            if first.count(OpCategory.COLUMN_ACTIVATE) != ones:
                bad.append((cls.backend, n, "first sync toggles"))
            m.sync_columns()
            delta = m.oplog.snapshot() - first
            if (
                delta.count(OpCategory.COLUMN_ACTIVATE) != 0
                or delta.count(OpCategory.COLUMN_DEACTIVATE) != 0
                or delta.count(OpCategory.SCAN_STEP) != n
            ):
                bad.append((cls.backend, n, dict(delta.counts)))
    _report(
        8,
        "resync with unchanged vector: 0 toggles, exactly n scan steps",
        not bad,
        f"violations: {bad}",
    )


def test_c9_bench_is_deterministic(tmp_path):
    configs = (
        ("axis", "par", "4,8,16"),
        ("wall", "seq", "4,8"),
    )
    identical = True
    for backend, mode, sizes in configs:
        paths = []
        for run in ("one", "two"):
            path = tmp_path / f"{backend}-{mode}-{run}.csv"
            rc = main(
                ["bench", "--sizes", sizes, "--backend", backend, "--mode", mode,
                 "--seed", "123", "--trials", "3", "--csv", str(path)]
            )
            assert rc == 0
            paths.append(path)
        if paths[0].read_bytes() != paths[1].read_bytes():
            identical = False
    _report(
        9,
        "fixed-seed bench runs produce byte-identical CSV",
        identical,
    )
