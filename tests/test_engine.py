"""The bulk set_output against the per-row one that a subclass overriding
the sensing primitive gets: the same results, ledgers and machine state,
pass by pass over a long stream. Spy machines, one and two subclasses
below a backend, see every row sensed. Values built by every path
(public tuples, text, generation, columns, a machine's state, a product)
hold exact int bits and are equal. Then the tables of the blocked-row OR:
built mid-stream once a load's ORs repay them, on the same pass for a
per-row stroke, whose row probes share one read, voided by the next load,
and never built for sparse or saturating traffic. An override that
switches a column in mid-stroke is sensed with the new columns from there.

The machine state under random interleavings of every operation is
checked against a shadow model in test_stateful.py.
"""

from __future__ import annotations

import copy
import pickle
from functools import lru_cache
from random import Random

import pytest

from mvpsim import (
    AxisLadderMachine,
    BitMatrix,
    BitVector,
    Mode,
    OpCategory,
    OpCounts,
    WallLightMachine,
    matmul,
    matvec,
    oracle_matmul,
    oracle_matvec,
    parse_matrix,
    parse_vector,
    serialize_matrix,
    serialize_vector,
)
from conftest import PerRowAxisMachine, PerRowWallMachine
from test_ledger import expected_pass_counts

# Past the first 30-bit digit of Python's int, and at and past the 64-bit
# word, so a bit-packed state that drops a high bit or mixes up rows shows.
SIZES = (1, 31, 64, 65)

# (bulk class, per-row class, mode) of each machine configuration.
PATHS = [
    (AxisLadderMachine, PerRowAxisMachine, Mode.SEQ),
    (AxisLadderMachine, PerRowAxisMachine, Mode.PAR),
    (WallLightMachine, PerRowWallMachine, Mode.SEQ),
]
PATH_IDS = ["axis-seq", "axis-par", "wall-seq"]


def _pass_steps(m, v: BitVector, mode: Mode):
    """The five steps of one matvec pass, one callable each."""
    if mode is Mode.PAR:
        return (
            lambda: m.parallel_load_vector(v), m.parallel_sync, m.parallel_ladder_step,
            m.parallel_report_output, m.parallel_reset_output,
        )
    return (lambda: m.load_vector(v), m.sync_columns, m.set_output, m.report_output, m.reset_output)


def _state(m) -> tuple:
    n = m.n
    ladders = [m.ladder_shifted(i) for i in range(n)] if isinstance(m, AxisLadderMachine) else None
    return [m.output_section(i) for i in range(n)], ladders, m.active_columns(), m.oplog.snapshot()


@pytest.mark.parametrize("bulk_cls,row_cls,mode", PATHS, ids=PATH_IDS)
@pytest.mark.parametrize("n", SIZES)
def test_bulk_and_per_row_sensing_agree(bulk_cls, row_cls, mode, n):
    rng = Random(f"paths:{bulk_cls.backend}:{mode.value}:{n}")
    a = BitMatrix.random(n, rng, 0.1)
    b = BitMatrix.random(n, rng, 0.3)
    bulk, rows = matmul(bulk_cls(n), a, b, mode), matmul(row_cls(n), a, b, mode)
    assert bulk.result == rows.result
    assert bulk.ops == rows.ops

    # A long stream, state compared after every step: vectors a few flips
    # apart, repeats (no toggles) and the zero vector (every row clear).
    machines = bulk_cls(n), row_cls(n)
    for m in machines:
        if mode is Mode.PAR:
            m.parallel_load_matrix(a)
        else:
            m.load_matrix(a)
    coords = [int(rng.random() < 0.3) for _ in range(n)]
    for k in range(120):
        if k % 17 == 0:
            coords = [0] * n
        elif k % 5:
            for j in rng.sample(range(n), min(n, rng.randint(1, 3))):
                coords[j] ^= 1
        v = BitVector(tuple(coords))
        for bulk_step, row_step in zip(*(_pass_steps(m, v, mode) for m in machines)):
            assert bulk_step() == row_step()
            assert _state(machines[0]) == _state(machines[1])


class _PlainAxisMachine(AxisLadderMachine):
    """Overrides nothing: the subclass between the backend and the spy."""


class TwoDownAxisMachine(_PlainAxisMachine):
    """PerRowAxisMachine's spy, defined two subclasses below the backend."""

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self.sensed: list[int] = []

    def move_ladder(self, i: int) -> bool:
        self.sensed.append(i)
        return super().move_ladder(i)


class InheritedSpyWallMachine(PerRowWallMachine):
    """Defines no sensing of its own: it inherits its parent's override."""


@pytest.mark.parametrize(
    "row_cls,mode",
    [(c, m) for _, c, m in PATHS]
    + [(TwoDownAxisMachine, Mode.SEQ), (TwoDownAxisMachine, Mode.PAR), (InheritedSpyWallMachine, Mode.SEQ)],
    ids=PATH_IDS + ["axis-seq-two-down", "axis-par-two-down", "wall-seq-inherited"],
)
def test_overridden_sensing_primitive_sees_every_row(row_cls, mode):
    n = 7
    m = row_cls(n)
    m.load_matrix(BitMatrix.random(n, Random("spy"), 0.3))
    for v in (BitVector.ones(n), BitVector.zeros(n), BitVector((1, 0) * 3 + (1,))):
        load, sync, stroke, report, reset = _pass_steps(m, v, mode)
        load()
        sync()
        m.sensed.clear()
        stroke()
        assert m.sensed == list(range(n))
        report()
        reset()
        assert m.sensed == list(range(n))


def _assert_exact_bits(value) -> None:
    """Tuples of the ints 0 and 1 (never bool), n >= 1 rows of n entries:
    what values built without revalidation must hold."""
    rows = value.rows if isinstance(value, BitMatrix) else (value.coords,)
    assert type(rows) is tuple and rows
    for row in rows:
        assert type(row) is tuple and len(row) == len(rows[-1])
        assert {type(x) for x in row} == {int} and set(row) <= {0, 1}


@pytest.mark.parametrize(
    "cls,mode",
    [(cls, mode) for bulk, row, mode in PATHS for cls in (bulk, row)],
    ids=[f"{p}-{kind}" for p in PATH_IDS for kind in ("bulk", "per-row")],
)
@pytest.mark.parametrize("n", (1, 65))
def test_built_values_hold_exact_int_bits(cls, mode, n):
    rng = Random(f"exact:{cls.__name__}:{mode.value}:{n}")
    # Bools in: public construction must turn them into ints.
    a, b = (BitMatrix(tuple(tuple(rng.random() < 0.4 for _ in range(n)) for _ in range(n)))
            for _ in range(2))
    built = (
        *b.columns(), b.column(n - 1), BitMatrix.from_columns(list(b.columns())),
        BitMatrix.random(n, rng, 0.4), BitVector.random(n, rng, 0.4),
        parse_matrix(serialize_matrix(a)), parse_vector(serialize_vector(b.column(0))),
    )
    for value in built:
        _assert_exact_bits(value)
    for random in (BitMatrix.random, BitVector.random):
        with pytest.raises(ValueError):
            random(0, rng)
    m = cls(n)
    report = matmul(m, a, b, mode)
    _assert_exact_bits(report.result)
    _assert_exact_bits(m.loaded_matrix())
    _assert_exact_bits(matvec(m, b.column(0), mode).result)
    m.load_vector(BitVector.ones(n))
    m.sync_columns()
    m.set_output()
    _assert_exact_bits(m.report_output())


def _assert_same_value(values, view) -> None:
    """Every value in `values` equals the first, hashes alike, has the repr
    of the public constructor over `view`, holds exactly `view` as its
    rows/coords, and survives pickle and deepcopy."""
    kind = "rows" if isinstance(values[0], BitMatrix) else "coords"
    for value in values:
        for twin in (value, pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert twin == values[0] and hash(twin) == hash(values[0])
            assert repr(twin) == f"{type(twin).__name__}({kind}={view!r})"
            assert getattr(twin, kind) == view
            _assert_exact_bits(twin)


@pytest.mark.parametrize("n", (1, 63, 64, 65, 256))
def test_construction_paths_agree(n):
    """A value is the same whichever way it was built: public tuples (bools
    too), text, generation, columns, a machine's state or a product."""
    seed = f"paths-agree:{n}"
    rng = Random(seed)
    rows = tuple(tuple(1 if rng.random() < 0.5 else 0 for _ in range(n)) for _ in range(n))
    a = BitMatrix.random(n, Random(seed))  # the same row-major draws
    cols = tuple(zip(*rows))
    m = AxisLadderMachine(n)
    m.load_matrix(a)
    _assert_same_value([
        a, BitMatrix(rows), BitMatrix(tuple(tuple(map(bool, r)) for r in rows)),
        parse_matrix(serialize_matrix(a)), BitMatrix.from_columns(list(a.columns())),
        BitMatrix.from_columns([BitVector(c) for c in cols]), m.loaded_matrix(),
    ], rows)
    for j in {0, n // 2, n - 1}:
        _assert_same_value([
            a.column(j), list(a.columns())[j], BitVector(cols[j]),
            BitVector(tuple(map(bool, cols[j]))), parse_vector(serialize_vector(a.column(j))),
        ], cols[j])
    v = BitVector.random(n, Random(seed))
    _assert_same_value([v, BitVector(rows[0])], rows[0])
    want = oracle_matvec(a, v)
    got = matvec(m, v).result
    m.load_vector(v)
    m.sync_columns()
    m.set_output()
    _assert_same_value([want, got, m.report_output()], want.coords)
    # A permutation matrix: column j of the product is column p[j] of a.
    p = list(range(n))
    rng.shuffle(p)
    b = BitMatrix(tuple(tuple(int(i == p[j]) for j in range(n)) for i in range(n)))
    want = tuple(tuple(r[p[j]] for j in range(n)) for r in rows)
    products = [matmul(AxisLadderMachine(n), a, b, mode).result for mode in Mode]
    _assert_same_value([BitMatrix(want), *products], want)
    if n < 64:
        assert oracle_matmul(a, b) == products[0]
    assert BitVector((0,) * n) != BitVector((0,) * (n + 1))


@lru_cache(maxsize=None)
def _table_inputs(n: int) -> tuple:
    """Two dense products whose matrices differ in every cell, with their
    oracle results (computed once per size: the oracle takes about a
    second at n = 256). Row 0 of the first matrix is clear, so no read of
    it has every row blocked and stops early; the second blocks nearly
    every row within 16 columns."""
    rng = Random(f"tables:{n}")
    a, b = BitMatrix.random(n, rng, 0.5), BitMatrix.random(n, rng, 0.5)
    a = BitMatrix(((0,) * n,) + a.rows[1:])
    a2 = BitMatrix(tuple(tuple(1 - x for x in row) for row in a.rows))
    b2 = BitMatrix.random(n, rng, 0.5)
    return (a, b, oracle_matmul(a, b)), (a2, b2, oracle_matmul(a2, b2))


def _check_matmul(m, a: BitMatrix, b: BitMatrix, want: BitMatrix, mode: Mode) -> None:
    """One product: the oracle's result, and the closed-form ledger of a
    load after the machine's active columns plus one pass per column."""
    n = a.n
    released = len(m.active_columns())
    counts = dict.fromkeys(OpCategory, 0)
    counts[OpCategory.CELL_LOAD] = n * n
    counts[OpCategory.COLUMN_DEACTIVATE] = released
    phases = ((released,) + (n,) * n) if mode is Mode.PAR else ()
    prev: frozenset[int] = frozenset()
    for v in b.columns():
        pass_counts, pass_phases = expected_pass_counts(a, prev, v, m.backend, mode)
        for c, k in pass_counts.items():
            counts[c] += k
        phases += pass_phases
        prev = frozenset(j for j in range(n) if v[j])
    report = matmul(m, a, b, mode)
    assert report.result == want
    assert report.ops.counts == counts
    assert report.ops.phase_ops == phases


def _check_matvec(m, a: BitMatrix, v: BitVector, mode: Mode) -> None:
    counts, phases = expected_pass_counts(a, m.active_columns(), v, m.backend, mode)
    report = matvec(m, v, mode)
    assert report.result == oracle_matvec(a, v)
    assert report.ops.counts == counts and report.ops.phase_ops == phases


@pytest.mark.parametrize(
    "cls,mode",
    [(cls, mode) for bulk, row, mode in PATHS for cls in (bulk, row)],
    ids=[f"{p}-{kind}" for p in PATH_IDS for kind in ("bulk", "per-row")],
)
@pytest.mark.parametrize("n", (1, 7, 8, 9, 63, 65, 256))
def test_blocked_row_tables_across_loads(cls, mode, n):
    (a, b, ab), (a2, b2, ab2) = _table_inputs(n)
    m = cls(n)
    _check_matmul(m, a, b, ab, mode)
    # A product of a bulk machine spends about n^2 / 2 ORs, fewer than the
    # tables cost (about 32n) at n < 63: all-ones passes on the same load
    # build them, n ORs each, since row 0 stays clear.
    for _ in range(n * n):
        if m._tables is not None:
            break
        _check_matvec(m, a, BitVector.ones(n), mode)
    assert m._tables is not None
    # Unit vectors: rows blocked by a single column, the first and the
    # last group's included, read from the tables.
    for j in sorted({0, 7 % n, n // 2, n - 1}):
        _check_matvec(m, a, BitVector(tuple(int(i == j) for i in range(n))), mode)
    (m.parallel_load_matrix if mode is Mode.PAR else m.load_matrix)(a2)
    assert m._tables is None
    # The second matrix is the first one's complement, so tables kept
    # from the first load would give a wrong product.
    _check_matmul(m, a2, b2, ab2, mode)


@pytest.mark.parametrize("bulk_cls,row_cls,mode", PATHS, ids=PATH_IDS)
@pytest.mark.parametrize("n", (7, 8, 9, 65))
def test_a_load_resets_the_or_count(bulk_cls, row_cls, mode, n):
    # Row 0 is clear, so no all-ones pass stops early: each spends n ORs
    # toward the tables. Spend as many as stay below their cost, then
    # reload: one more such pass builds them only if the load kept the count.
    a = _table_inputs(n)[0][0]
    m = bulk_cls(n)
    (m.parallel_load_matrix if mode is Mode.PAR else m.load_matrix)(a)
    for _ in range((m._table_ors - 1) // n):
        _check_matvec(m, a, BitVector.ones(n), mode)
    assert m._tables is None
    (m.parallel_load_matrix if mode is Mode.PAR else m.load_matrix)(a)
    _check_matvec(m, a, BitVector.ones(n), mode)
    assert m._tables is None


@pytest.mark.parametrize("bulk_cls,row_cls,mode", PATHS, ids=PATH_IDS)
def test_sparse_product_never_builds_the_tables(bulk_cls, row_cls, mode):
    # About 4 active columns a pass: 128 passes spend some 500 ORs, far
    # below the 4080 that the tables for n = 128 take.
    n = 128
    rng = Random("tables:sparse")
    a, b = BitMatrix.random(n, rng, 0.03), BitMatrix.random(n, rng, 0.03)
    m = bulk_cls(n)
    assert matmul(m, a, b, mode).result == oracle_matmul(a, b)
    assert m._tables is None


@pytest.mark.parametrize(
    "cls,mode",
    [(cls, mode) for bulk, row, mode in PATHS for cls in (bulk, row)],
    ids=[f"{p}-{kind}" for p in PATH_IDS for kind in ("bulk", "per-row")],
)
@pytest.mark.parametrize("n", (17, 136, 200))
def test_row_blocked_only_after_the_first_16_masks(cls, mode, n):
    # Column 0 blocks every row but the first two. Row 0 holds its one 1 in
    # the last column, which is past the first 16 columns and, at n >= 136,
    # in table group 16 or later; row 1 is clear, so no read stops early.
    rows = [[0] * n for _ in range(n)]
    rows[0][n - 1] = 1
    for i in range(2, n):
        rows[i][0] = 1
    a = BitMatrix(rows)
    vectors = [BitVector.ones(n)] + [BitVector(tuple(int(j != k) for j in range(n))) for k in (0, n - 1)]
    m = cls(n)
    (m.parallel_load_matrix if mode is Mode.PAR else m.load_matrix)(a)
    for v in vectors:
        _check_matvec(m, a, v, mode)
    assert m._tables is None
    while m._tables is None:
        _check_matvec(m, a, BitVector.ones(n), mode)
    for v in vectors:
        _check_matvec(m, a, v, mode)


@pytest.mark.parametrize("bulk_cls,row_cls,mode", PATHS, ids=PATH_IDS)
def test_saturating_product_never_builds_the_tables(bulk_cls, row_cls, mode):
    # Nearly every read has every row blocked after 16 of its some 128
    # active columns: 256 passes spend about 4100 ORs, half the 8160 that
    # the tables for n = 256 take.
    a, b, ab = _table_inputs(256)[1]
    m = bulk_cls(256)
    _check_matmul(m, a, b, ab, mode)
    assert m._tables is None


@pytest.mark.parametrize("bulk_cls,row_cls,mode", PATHS, ids=PATH_IDS)
def test_sparse_rows_times_dense_vectors_build_the_tables(bulk_cls, row_cls, mode):
    # Some 64 active columns a pass leave about three rows in four clear
    # after 16 of them, so each read spends all 64 ORs and the tables for
    # n = 128 (4080 ORs) are built partway through the product: on the
    # same pass for a per-row stroke, which reads once, as for a bulk one.
    n = 128
    rng = Random("tables:sparse-dense")
    a, b = BitMatrix.random(n, rng, 0.02), BitMatrix.random(n, rng, 0.5)
    built = []
    for cls in (bulk_cls, row_cls):
        m = cls(n)
        (m.parallel_load_matrix if mode is Mode.PAR else m.load_matrix)(a)
        first = None
        for k, v in enumerate(b.columns(), 1):
            _check_matvec(m, a, v, mode)
            if first is None and m._tables is not None:
                first = k
        built.append(first)
    assert built[0] == built[1] and 1 < built[0] < n


@pytest.mark.parametrize("bulk_cls,row_cls,mode", PATHS, ids=PATH_IDS)
def test_saturating_stream_builds_the_tables(bulk_cls, row_cls, mode):
    # The shape of the stream-matvec benchmark: every read blocks every row
    # within the first 16 of its some 32 active columns, so it stops there
    # and spends 16 ORs, and the tables for n = 64 (2040 ORs) are built on
    # read 128. Counting every active column would build them on read 64.
    # A per-row stroke reads once too, so it builds them on the same pass.
    n = 64
    for cls in (bulk_cls, row_cls):
        rng = Random("tables:stream")
        a = BitMatrix.random(n, rng, 0.5)
        m = cls(n)
        (m.parallel_load_matrix if mode is Mode.PAR else m.load_matrix)(a)
        reads = -(-m._table_ors // 16)
        for k in range(1, reads + 2):
            v = BitVector.random(n, rng, 0.5)
            first = [j for j in range(n) if v[j]][:16]
            assert all(any(row[j] for j in first) for row in a.rows)
            _check_matvec(m, a, v, mode)
            assert (m._tables is not None) == (k >= reads)


@pytest.mark.parametrize("cls", [AxisLadderMachine, WallLightMachine], ids=["axis", "wall"])
def test_row_probes_read_the_mask_once_per_column_change(cls):
    # 1000 rounds of probes over every row after one sync: 64 000 probes.
    # Each read of this dense n = 64 matrix spends 16 ORs, so reading the
    # mask per probe would build the tables (2040 ORs) within 128 probes.
    n = 64
    a = BitMatrix.random(n, Random("tables:probes"), 0.5)
    m = cls(n)
    m.load_matrix(a)
    m.load_vector(BitVector.ones(n))
    m.sync_columns()
    want = [any(row) for row in a.rows]
    before = m.oplog.snapshot()
    for _ in range(1000):
        assert [m.row_blocked(i) for i in range(n)] == want
    assert m._tables is None
    assert m.oplog.since(before) == OpCounts({})


def _switch_column_0(m) -> None:
    (m.deactivate_column if m.column_active(0) else m.activate_column)(0)


class SwitchingAxisMachine(AxisLadderMachine):
    """Switches column 0 to its other state just before row n // 2's stroke."""

    def move_ladder(self, i: int) -> bool:
        if i == self.n // 2:
            _switch_column_0(self)
        return super().move_ladder(i)


class SwitchingWallMachine(WallLightMachine):
    """The wall counterpart of SwitchingAxisMachine."""

    def observe_light(self, i: int) -> bool:
        if i == self.n // 2:
            _switch_column_0(self)
        return super().observe_light(i)


@pytest.mark.parametrize("cls", [SwitchingAxisMachine, SwitchingWallMachine], ids=["axis", "wall"])
@pytest.mark.parametrize("n", (2, 9, 65))
def test_a_column_switched_mid_stroke_counts_from_that_row(cls, n):
    # Column 0 blocks every row, so switching it changes every row from
    # n // 2 on whenever the other active columns leave one clear: the rows
    # before it are sensed with the synced columns, the rest with the new
    # active set, and a blocked-row read kept across the switch shows.
    rng = Random(f"mid-stroke:{n}")
    h = n // 2
    a = BitMatrix(tuple((1,) + row[1:] for row in BitMatrix.random(n, rng, 0.1).rows))
    m = cls(n)
    m.load_matrix(a)
    sense = OpCategory.LADDER_MOVE if m.backend == "axis" else OpCategory.LIGHT_OBSERVE
    changed = False
    for k in range(8):
        v = BitVector((k % 2,) + tuple(int(rng.random() < 0.2) for _ in range(n - 1)))
        switched = BitVector((1 - v[0],) + v.coords[1:])
        want = oracle_matvec(a, v).coords[:h] + oracle_matvec(a, switched).coords[h:]
        changed |= want != oracle_matvec(a, v).coords
        m.load_vector(v)
        m.sync_columns()
        before = m.oplog.snapshot()
        m.set_output()
        assert tuple(m.output_section(i) for i in range(n)) == want
        toggle = OpCategory.COLUMN_DEACTIVATE if v[0] else OpCategory.COLUMN_ACTIVATE
        assert m.oplog.since(before).counts == {
            **dict.fromkeys(OpCategory, 0), sense: n, OpCategory.OUTPUT_SWITCH: want.count(0), toggle: 1,
        }
        assert m.report_output().coords == want
        m.reset_output()
    assert changed
