"""The bulk set_output against the per-row one that a subclass overriding
the sensing primitive gets: the same results, ledgers and machine state,
pass by pass over a long stream. Spy machines, one and two subclasses
below a backend, see every row sensed. Values built by every path
(public tuples, text, generation, columns, a machine's state, a product)
hold exact int bits and are equal. Then the tables of the blocked-row OR:
the head's (columns 0-31) and the rest, each built mid-stream once a
load's ORs repay it, on the pass that a model of the policy names and on
the same pass for a per-row stroke, whose row probes share one read, and
voided by the next load. Sparse traffic builds neither part, saturating
traffic only the head. An override that switches a column in mid-stroke
is sensed with the new columns from there.

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
# Each path's bulk and per-row machine class, with the path's mode.
EACH_MACHINE = pytest.mark.parametrize(
    "cls,mode",
    [(cls, mode) for bulk, row, mode in PATHS for cls in (bulk, row)],
    ids=[f"{p}-{kind}" for p in PATH_IDS for kind in ("bulk", "per-row")],
)


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


@EACH_MACHINE
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


def _groups(n: int) -> int:
    return -(-n // 8)


def _parts_built(a: BitMatrix, vectors) -> list[int]:
    """How many blocked-row tables a machine holds after each pass over
    `vectors` on a fresh load of `a`: the policy written out over sets. A
    read of 16 active columns or fewer ORs them. A longer one ORs those of
    the head, columns 0-31 (or its 4 tables once built), and the rest only
    if a row is still clear. Column ORs count: those on the head's columns
    by longer reads build the head's 4 tables at 1020, and all of them
    build every table at 255 per group of 8 plus 2^k - 1 for a last group
    of k. No count is kept once every table is built."""
    n = a.n
    cost = 255 * (n // 8) + (1 << n % 8) - 1
    built = ors = head_ors = 0
    parts = []
    for v in vectors:
        active = [j for j in range(n) if v[j]]
        head = [j for j in active if j < 32]
        if built < _groups(n):
            if len(active) <= 16:
                ors += len(active)
            else:
                if not built:
                    ors += len(head)
                    head_ors += len(head)
                    if head_ors >= 1020:
                        built = min(4, _groups(n))
                if not all(any(row[j] for j in head) for row in a.rows):
                    ors += len(active) - len(head)
            if ors >= cost:
                built = _groups(n)
        parts.append(built)
    return parts


def _tables_per_pass(m, a: BitMatrix, vectors, mode: Mode) -> list[int]:
    """Load `a` and run a checked pass per vector: the oracle's result and
    the exact ledger. Returns the tables the machine holds after each."""
    (m.parallel_load_matrix if mode is Mode.PAR else m.load_matrix)(a)
    assert m._tables == []
    parts = []
    for v in vectors:
        _check_matvec(m, a, v, mode)
        parts.append(len(m._tables))
    return parts


def _first_pass(parts: list[int], k: int) -> int | None:
    """The 1-based pass after which at least k tables were built."""
    return next((i for i, p in enumerate(parts, 1) if p >= k), None)


@EACH_MACHINE
@pytest.mark.parametrize("n", (1, 7, 8, 9, 63, 65, 256))
def test_blocked_row_tables_across_loads(cls, mode, n):
    (a, b, ab), (a2, b2, ab2) = _table_inputs(n)
    m = cls(n)
    _check_matmul(m, a, b, ab, mode)
    # A product of a bulk machine spends about n^2 / 2 ORs, fewer than the
    # tables cost (about 32n) at n < 63: all-ones passes on the same load
    # build them, n ORs each, since row 0 stays clear.
    for _ in range(n * n):
        if len(m._tables) == _groups(n):
            break
        _check_matvec(m, a, BitVector.ones(n), mode)
    assert len(m._tables) == _groups(n)
    # Unit vectors: rows blocked by a single column, the first and the
    # last group's included, read from the tables.
    for j in sorted({0, 7 % n, n // 2, n - 1}):
        _check_matvec(m, a, BitVector(tuple(int(i == j) for i in range(n))), mode)
    (m.parallel_load_matrix if mode is Mode.PAR else m.load_matrix)(a2)
    assert m._tables == []
    # The second matrix is the first one's complement, so tables kept
    # from the first load would give a wrong product.
    _check_matmul(m, a2, b2, ab2, mode)


@pytest.mark.parametrize("bulk_cls,row_cls,mode", PATHS, ids=PATH_IDS)
@pytest.mark.parametrize("n", (7, 8, 9, 65))
def test_a_load_resets_the_or_count(bulk_cls, row_cls, mode, n):
    # Row 0 is clear, so no all-ones pass stops early: each spends n ORs
    # toward every table and, at n = 65, 32 toward the head. Spend as many
    # as stay below both costs, then reload: one more such pass builds
    # tables only if the load kept a count.
    a = _table_inputs(n)[0][0]
    m = bulk_cls(n)
    (m.parallel_load_matrix if mode is Mode.PAR else m.load_matrix)(a)
    for _ in range((m._table_ors - 1) // n):
        _check_matvec(m, a, BitVector.ones(n), mode)
    assert m._tables == []
    (m.parallel_load_matrix if mode is Mode.PAR else m.load_matrix)(a)
    _check_matvec(m, a, BitVector.ones(n), mode)
    assert m._tables == []


@pytest.mark.parametrize("bulk_cls,row_cls,mode", PATHS, ids=PATH_IDS)
def test_sparse_product_never_builds_the_tables(bulk_cls, row_cls, mode):
    # About 4 active columns a pass: 128 passes spend some 500 ORs, far
    # below the 4080 that the tables for n = 128 take, and no read has
    # more than 16 columns, so none counts toward the head.
    n = 128
    rng = Random("tables:sparse")
    a, b = BitMatrix.random(n, rng, 0.03), BitMatrix.random(n, rng, 0.03)
    m = bulk_cls(n)
    assert matmul(m, a, b, mode).result == oracle_matmul(a, b)
    assert m._tables == []


@pytest.mark.parametrize("bulk_cls,row_cls,mode", PATHS, ids=PATH_IDS)
def test_cli_bench_products_build_no_table_part(bulk_cls, row_cls, mode):
    # The products of the cli-bench benchmark workload: density 0.1 at
    # n = 32, 64 and 128, drawn as `mvpsim bench --seed 1` draws its jobs'.
    # Few reads pass 16 columns, with about 3 of them on the head's.
    for s in range(8, 16):
        for n in (32, 64, 128):
            rng = Random(f"{s}:{n}:0")
            a, b = BitMatrix.random(n, rng, 0.1), BitMatrix.random(n, rng, 0.1)
            m = bulk_cls(n)
            matmul(m, a, b, mode)
            assert m._tables == [], (s, n)


@EACH_MACHINE
@pytest.mark.parametrize("n", (17, 136, 200))
def test_row_blocked_only_after_the_first_16_masks(cls, mode, n):
    # Column 0 blocks every row but the first two. Row 0 holds its one 1 in
    # the last column, which is past the first 16 columns and, at n >= 136,
    # past the head and in table group 16 or later; row 1 is clear, so no
    # read stops after the head.
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
    assert m._tables == []
    while len(m._tables) < _groups(n):
        _check_matvec(m, a, BitVector.ones(n), mode)
    for v in vectors:
        _check_matvec(m, a, v, mode)


@EACH_MACHINE
def test_saturating_product_builds_only_the_head(cls, mode):
    # Nearly every read has every row blocked by the some 16 of its 128
    # active columns that lie in the head: the head's ORs reach its cost,
    # 1020, on pass 63, and from then on a read is 4 lookups. The 256
    # passes spend about 1100 column ORs, far below the 8160 of every table.
    a, b, ab = _table_inputs(256)[1]
    vectors = list(b.columns())
    parts = _tables_per_pass(cls(256), a, vectors, mode)
    assert parts == _parts_built(a, vectors) == [0] * 62 + [4] * 194


@pytest.mark.parametrize("bulk_cls,row_cls,mode", PATHS, ids=PATH_IDS)
def test_saturating_stream_builds_the_tables(bulk_cls, row_cls, mode):
    # The shape of the stream-matvec benchmark: every read's head columns,
    # some 16 of its 32 active ones, block every row, so it stops there.
    # The head is built on pass 65 and the rest never: 300 passes spend
    # about 1040 column ORs, half the 2040 of every table for n = 64.
    n = 64
    rng = Random("tables:stream")
    a = BitMatrix.random(n, rng, 0.5)
    vectors = [BitVector.random(n, rng, 0.5) for _ in range(300)]
    for v in vectors:
        head = [j for j in range(32) if v[j]]
        assert all(any(row[j] for j in head) for row in a.rows)
    for cls in (bulk_cls, row_cls):
        parts = _tables_per_pass(cls(n), a, vectors, mode)
        assert parts == _parts_built(a, vectors) == [0] * 64 + [4] * 236


@pytest.mark.parametrize("bulk_cls,row_cls,mode", PATHS, ids=PATH_IDS)
def test_sparse_rows_times_dense_vectors_build_the_tables(bulk_cls, row_cls, mode):
    # Some 64 active columns a pass leave about three rows in four clear
    # after the head, so each read spends all 64 ORs, 16 of them on the
    # head: the head for n = 128 is built on pass 63 and the rest (4080
    # ORs for every table) on pass 64. A per-row stroke reads once, as a
    # bulk one does, so it builds them on the same passes.
    n = 128
    rng = Random("tables:sparse-dense")
    a, b = BitMatrix.random(n, rng, 0.02), BitMatrix.random(n, rng, 0.5)
    vectors = list(b.columns())
    want = _parts_built(a, vectors)
    assert (_first_pass(want, 4), _first_pass(want, 16)) == (63, 64)
    for cls in (bulk_cls, row_cls):
        assert _tables_per_pass(cls(n), a, vectors, mode) == want


@EACH_MACHINE
def test_a_failed_head_read_goes_on_past_column_32(cls, mode):
    # At density 0.3 the head's some 16 active columns leave a row clear on
    # about half the reads, which then OR their columns past 31 (never the
    # head's again) and count them. In a stream of 256 passes at n = 128 the
    # head is built on pass 67 and the rest on pass 128: 31 of the 61 reads
    # between read the head's entries, find a row clear and go on.
    n = 128
    rng = Random("tables:failed-head")
    a = BitMatrix.random(n, rng, 0.3)
    vectors = [BitVector.random(n, rng, 0.5) for _ in range(256)]
    want = _parts_built(a, vectors)
    assert (_first_pass(want, 4), _first_pass(want, 16)) == (67, 128)
    failed = [not all(any(row[j] for j in range(32) if v[j]) for row in a.rows) for v in vectors]
    assert sum(failed[67:128]) == 31
    assert _tables_per_pass(cls(n), a, vectors, mode) == want


@pytest.mark.parametrize("bulk_cls,row_cls,mode", PATHS, ids=PATH_IDS)
@pytest.mark.parametrize("n", (31, 32, 33, 40, 41))
def test_tables_at_the_head_boundary(bulk_cls, row_cls, mode, n):
    # Sizes where the head is every table (31, 32), one column (33) or a
    # full group (40) short of them, or a group and one column (41). Reads
    # of up to 16 columns and of more, at densities where the head leaves a
    # row clear or blocks every row, until every table is built, then unit
    # vectors at the group edges. Every table is built when the head is at
    # n <= 32, and at 33 too: the head's 1020 ORs already pass the 1021 of
    # every table. At 40 and 41 the head comes some passes first.
    rng = Random(f"tables:boundary:{n}")
    a = BitMatrix.random(n, rng, 0.25)
    vectors = [BitVector.random(n, rng, (0.2, 0.5, 0.9)[k % 3]) for k in range(150)]
    vectors += [BitVector(tuple(int(i == j) for i in range(n))) for j in sorted({0, 7, 8, 31, 32 % n, n - 1})]
    want = _parts_built(a, vectors)
    passes = {31: (54, 54), 32: (62, 62), 33: (60, 60), 40: (68, 80), 41: (69, 71)}[n]
    assert (_first_pass(want, 1), _first_pass(want, _groups(n))) == passes
    for cls in (bulk_cls, row_cls):
        assert _tables_per_pass(cls(n), a, vectors, mode) == want


@pytest.mark.parametrize("cls", [AxisLadderMachine, WallLightMachine], ids=["axis", "wall"])
def test_row_probes_read_the_mask_once_per_column_change(cls):
    # 1000 rounds of probes over every row after one sync: 64 000 probes.
    # Each read of this dense n = 64 matrix spends 32 ORs on the head's
    # columns, so reading the mask per probe would build the head (1020
    # ORs) within 32 probes.
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
    assert m._tables == []
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
