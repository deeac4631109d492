"""Independent checker for the benchmark: a reference Boolean product over
int bit masks and the closed-form operation ledger.

Nothing here imports mvpsim. Values are read through the public accessors
(`row(i)`, iteration) and turned into masks where bit j stands for column
or coordinate j. The naive oracle in `mvpsim.bits` stays the referee: the
benchmark confirms this checker against it at set-up (see `confirm`).

Closed form, per matrix-vector pass with z = n - |A v| clear rows:

    seq   n VectorCoordLoad, n ScanStep, |v - prev| ColumnActivate,
          |prev - v| ColumnDeactivate, n LadderMove (axis) or n
          LightObserve (wall), z OutputSwitch, n OutputCoordReport,
          ResetStep n + z (axis) or z (wall)
    par   phases [n, |prev|, |v|, n + z, n, n + z]: every active column is
          released and the selected ones rotated, no ScanStep
    load  n^2 CellLoad on a fresh machine; in par n + 1 phases, an empty
          release phase then one phase of n CellLoad per column
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from itertools import product
from random import Random

# (backend, mode) of each machine configuration; wall has no parallel drive.
CONFIGS: dict[str, tuple[str, str]] = {
    "axis-seq": ("axis", "seq"),
    "axis-par": ("axis", "par"),
    "wall-seq": ("wall", "seq"),
}


def to_mask(bits) -> int:
    """Mask of a 0/1 sequence: bit j is set when element j is 1."""
    return int("".join("1" if b else "0" for b in reversed(tuple(bits))) or "0", 2)


def row_masks(matrix, n: int) -> list[int]:
    return [to_mask(matrix.row(i)) for i in range(n)]


def transpose(masks: list[int], n: int) -> list[int]:
    out = [0] * n
    for i, m in enumerate(masks):
        bit = 1 << i
        while m:
            low = m & -m
            out[low.bit_length() - 1] |= bit
            m ^= low
    return out


def matvec_mask(a_cols: list[int], v: int) -> int:
    """Reference A v: the OR of the columns of A that v selects."""
    out = 0
    while v:
        low = v & -v
        out |= a_cols[low.bit_length() - 1]
        v ^= low
    return out


@dataclass(frozen=True)
class Expected:
    """Closed-form ledger of one step: counts by category name and the
    operations charged in each parallel phase."""

    counts: dict[str, int]
    phases: tuple[int, ...]
    useful_toggles: int = 0  # |v xor prev|, summed over passes
    rows: int = 0  # rows driven by set_output, summed over passes

    def __add__(self, other: "Expected") -> "Expected":
        return Expected(
            dict(Counter(self.counts) + Counter(other.counts)),
            self.phases + other.phases,
            self.useful_toggles + other.useful_toggles,
            self.rows + other.rows,
        )


def load_ledger(n: int, cfg: str) -> Expected:
    """Loading a matrix into a fresh machine."""
    par = CONFIGS[cfg][1] == "par"
    return Expected({"cell_load": n * n}, (0,) + (n,) * n if par else ())


def pass_ledger(n: int, prev: int, v: int, blocked: int, cfg: str) -> Expected:
    """One matvec pass with columns `prev` active before it and `blocked`
    the reference product mask."""
    backend, mode = CONFIGS[cfg]
    z = n - blocked.bit_count()
    useful = (v ^ prev).bit_count()
    if mode == "par":
        up, down = v.bit_count(), prev.bit_count()
        counts = {
            "vector_coord_load": n,
            "column_deactivate": down,
            "column_activate": up,
            "ladder_move": n,
            "output_switch": z,
            "output_coord_report": n,
            "reset_step": n + z,
        }
        return Expected(counts, (n, down, up, n + z, n, n + z), useful, n)
    counts = {
        "vector_coord_load": n,
        "scan_step": n,
        "column_activate": (v & ~prev).bit_count(),
        "column_deactivate": (prev & ~v).bit_count(),
        "ladder_move" if backend == "axis" else "light_observe": n,
        "output_switch": z,
        "output_coord_report": n,
        "reset_step": n + z if backend == "axis" else z,
    }
    return Expected(counts, (), useful, n)


def matmul_ledger(n: int, a_cols: list[int], b_cols: list[int], cfg: str) -> Expected:
    """Fresh-machine matmul: the load, then one pass per column of B."""
    load = load_ledger(n, cfg)
    counts, phases = Counter(load.counts), list(load.phases)
    useful = rows = prev = 0
    for v in b_cols:
        step = pass_ledger(n, prev, v, matvec_mask(a_cols, v), cfg)
        counts.update(step.counts)
        phases += step.phases
        useful += step.useful_toggles
        rows += step.rows
        prev = v
    return Expected(dict(counts), tuple(phases), useful, rows)


def matmul_rows(n: int, a_cols: list[int], b_cols: list[int]) -> list[int]:
    """Reference product A B as row masks."""
    return transpose([matvec_mask(a_cols, v) for v in b_cols], n)


def ledger_ok(counts: dict[str, int], phases: tuple[int, ...], want: Expected) -> bool:
    """Exact equality by category name. A category the program does not
    have must be expected to be 0, so a dropped always-0 category is no
    failure, while a dropped or changed charged one is."""
    if tuple(phases) != want.phases:
        return False
    if any(v and k not in counts for k, v in want.counts.items()):
        return False
    return all(v == want.counts.get(k, 0) for k, v in counts.items())


def op_counts(ops) -> tuple[dict[str, int], tuple[int, ...]]:
    """Counts by category name and per-phase ops of an mvpsim OpCounts."""
    return {c.value: k for c, k in ops.counts.items()}, tuple(ops.phase_ops)


# Columns of `mvpsim bench` CSVs that are not operation categories.
CSV_META = ("n", "backend", "mode", "total_ops", "parallel_phases", "usec")


def check_bench_csv(path: str, cfg: str, want: list[tuple[int, Expected]]) -> tuple[bool, Counter, int]:
    """Check a `mvpsim bench` CSV by column name against the closed form,
    one row per (n, expected ledger) in `want`. Returns whether it matched,
    the summed category counts and the summed parallel phases."""
    backend, mode = CONFIGS[cfg]
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
        fields = reader.fieldnames or []
    ok = len(rows) == len(want) and all(f in fields for f in CSV_META)
    counts: Counter = Counter()
    phases = 0
    for row, (n, exp) in zip(rows, want):
        got = {k: int(v) for k, v in row.items() if k not in CSV_META}
        ok = ok and (
            int(row["n"]) == n
            and row["backend"] == backend
            and row["mode"] == mode
            and int(row["usec"]) == 0
            and int(row["total_ops"]) == sum(exp.counts.values())
            and int(row["parallel_phases"]) == len(exp.phases)
            and all(v == exp.counts.get(k, 0) for k, v in got.items())
            and all(k in got for k, v in exp.counts.items() if v)
        )
        counts.update(got)
        phases += int(row["parallel_phases"])
    return ok, counts, phases


def confirm(bits_module, seed: int) -> list[str]:
    """Confirm the reference product against the naive oracle: exhaustively
    for n <= 3 (matvec) and on seeded matrices up to n = 16 (matmul).
    Returns a description of each disagreement."""
    BitMatrix, BitVector = bits_module.BitMatrix, bits_module.BitVector
    bad = []
    for n in (1, 2, 3):
        vectors = [BitVector(c) for c in product((0, 1), repeat=n)]
        for cells in product((0, 1), repeat=n * n):
            a = BitMatrix(tuple(cells[i * n : (i + 1) * n] for i in range(n)))
            a_cols = transpose(row_masks(a, n), n)
            for v in vectors:
                if matvec_mask(a_cols, to_mask(v)) != to_mask(bits_module.oracle_matvec(a, v)):
                    bad.append(f"matvec n={n} cells={cells} v={tuple(v)}")
    rng = Random(f"confirm:{seed}")
    for n in range(1, 17):
        density = rng.choice((0.1, 0.5, 0.9))
        a = BitMatrix.random(n, rng, density)
        b = BitMatrix.random(n, rng, density)
        a_cols = transpose(row_masks(a, n), n)
        b_cols = transpose(row_masks(b, n), n)
        want = row_masks(bits_module.oracle_matmul(a, b), n)
        if matmul_rows(n, a_cols, b_cols) != want:
            bad.append(f"matmul n={n}")
    return bad
