"""Exact operation ledgers: every category and every phase of every pass
equals the closed form, not only the 8n / 9n^2 bounds."""

from __future__ import annotations

import itertools
from random import Random

import pytest

from mvpsim import (
    AxisLadderMachine,
    BitMatrix,
    BitVector,
    MachineStateError,
    Mode,
    OpCategory,
    WallLightMachine,
    make_machine,
    matvec,
    oracle_matvec,
)
from conftest import CONFIG_IDS, CONFIGS, PerRowAxisMachine, PerRowWallMachine


def expected_pass_counts(
    a: BitMatrix, prev_active: frozenset[int], v: BitVector, backend: str, mode: Mode
) -> tuple[dict[OpCategory, int], tuple[int, ...]]:
    """Closed-form ledger of one matvec pass over `a`, with the columns in
    `prev_active` switched on before it: (counts by category, phase_ops).

    With z = n - |A v| clear rows, a sequential pass charges n
    VectorCoordLoad, n ScanStep, |v - prev| activations, |prev - v|
    deactivations, n LadderMove (axis) or n LightObserve (wall), z
    OutputSwitch, n OutputCoordReport and ResetStep n + z (axis) or z
    (wall). A parallel pass releases every active column and rotates the
    selected ones, with no ScanStep, in phases [n, |prev|, |v|, n+z, n, n+z].
    """
    n = a.n
    selected = frozenset(j for j in range(n) if v[j])
    z = sum(1 for row in a.rows if not any(row[j] for j in selected))
    counts = dict.fromkeys(OpCategory, 0)
    counts[OpCategory.VECTOR_COORD_LOAD] = n
    counts[OpCategory.OUTPUT_SWITCH] = z
    counts[OpCategory.OUTPUT_COORD_REPORT] = n
    if mode is Mode.PAR:
        counts[OpCategory.COLUMN_DEACTIVATE] = len(prev_active)
        counts[OpCategory.COLUMN_ACTIVATE] = len(selected)
        counts[OpCategory.LADDER_MOVE] = n
        counts[OpCategory.RESET_STEP] = n + z
        return counts, (n, len(prev_active), len(selected), n + z, n, n + z)
    counts[OpCategory.SCAN_STEP] = n
    counts[OpCategory.COLUMN_ACTIVATE] = len(selected - prev_active)
    counts[OpCategory.COLUMN_DEACTIVATE] = len(prev_active - selected)
    if backend == "axis":
        counts[OpCategory.LADDER_MOVE] = n
        counts[OpCategory.RESET_STEP] = n + z
    else:
        counts[OpCategory.LIGHT_OBSERVE] = n
        counts[OpCategory.RESET_STEP] = z
    return counts, ()


def check_run(backend: str, mode: Mode, a: BitMatrix, vectors) -> None:
    """Load `a` into a fresh machine, then run one pass per vector, asserting
    the exact ledger of the load and of every pass."""
    n = a.n
    m = make_machine(backend, n)
    if mode is Mode.PAR:
        m.parallel_load_matrix(a)
    else:
        m.load_matrix(a)
    load = m.oplog.snapshot()
    assert load.total == load.count(OpCategory.CELL_LOAD) == n * n
    assert load.phase_ops == (((0,) + (n,) * n) if mode is Mode.PAR else ())
    prev: frozenset[int] = frozenset()
    for v in vectors:
        ops = matvec(m, v, mode).ops
        counts, phases = expected_pass_counts(a, prev, v, backend, mode)
        assert dict(ops.counts) == counts, (a, prev, v)
        assert ops.phase_ops == phases, (a, prev, v)
        prev = frozenset(j for j in range(n) if v[j])


def all_pairs_walk(n: int) -> list[BitVector]:
    """A sequence of n-vectors in which every ordered pair (u, v), u == v
    included, appears as consecutive elements: an Eulerian circuit of the
    complete digraph with loops, found greedily by preferring the largest
    unused successor."""
    k = 2**n
    used: set[tuple[int, int]] = set()
    walk = [0]
    while True:
        nxt = next((y for y in reversed(range(k)) if (walk[-1], y) not in used), None)
        if nxt is None:
            break
        used.add((walk[-1], nxt))
        walk.append(nxt)
    assert len(used) == k * k
    vectors = list(itertools.product((0, 1), repeat=n))
    return [BitVector(vectors[x]) for x in walk]


@pytest.mark.parametrize("backend,mode", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_exhaustive_small(backend, mode, n):
    # Every matrix meets every vector after every possible set of active
    # columns: 65 passes per matrix at n = 3.
    walk = all_pairs_walk(n)
    for cells in itertools.product((0, 1), repeat=n * n):
        a = BitMatrix(tuple(cells[i * n : (i + 1) * n] for i in range(n)))
        check_run(backend, mode, a, walk)


@pytest.mark.parametrize("backend,mode", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("n,density", [(5, 0.5), (17, 0.5), (64, 0.1), (256, 0.05)])
def test_seeded_matmul(backend, mode, n, density):
    # Densities keep a mix of blocked and clear rows at every size, so the
    # OutputSwitch and ResetStep terms are exercised, not only the n terms.
    rng = Random(f"ledger:{n}")
    a = BitMatrix.random(n, rng, density)
    b = BitMatrix.random(n, rng, density)
    check_run(backend, mode, a, list(b.columns()))


@pytest.mark.parametrize("cls", [AxisLadderMachine, WallLightMachine], ids=["axis", "wall"])
@pytest.mark.parametrize("n", [2, 17, 64])
def test_each_sequential_operation_charges_each_category_once(cls, n):
    # Bulk charging: a contract operation counts each category's amount
    # from the masks and makes one ledger write, an `_add` of all its
    # lanes, whatever n is; a load adds its n^2 CellLoad in one `charge`
    # beside the `_add` of its release. The parallel drives (a write per
    # phase) and per-row machines (a charge per sensed row) are left out:
    # they write more often by design.
    rng = Random(f"bulk:{n}")
    a, b = BitMatrix.random(n, rng, 0.1), BitMatrix.random(n, rng, 0.3)
    m = cls(n)
    writes: list[tuple[str, list[OpCategory]]] = []
    log = m.oplog
    charge, add = log.charge, log._add

    def spy_add(lanes, total):
        writes.append(("_add", [c for k, c in enumerate(OpCategory) if lanes >> 64 * k & (1 << 64) - 1]))
        add(lanes, total)

    log.charge = lambda category, amount=1: (writes.append(("charge", [category])), charge(category, amount))
    log._add = spy_add

    def run(step, *args, kinds=("_add",)) -> None:
        writes.clear()
        step(*args)
        assert tuple(kind for kind, _ in writes) == kinds, (step.__name__, writes)
        categories = [c for _, written in writes for c in written]
        assert len(categories) == len(set(categories)), (step.__name__, writes)

    # The second load also releases the columns the last pass left active.
    for matrix in (a, b):
        run(m.load_matrix, matrix, kinds=("_add", "charge"))
        for v in b.columns():
            run(m.load_vector, v)
            for step in (m.sync_columns, m.set_output, m.report_output, m.reset_output):
                run(step)
    assert m.oplog.snapshot().count(OpCategory.CELL_LOAD) == 2 * n * n


def diagonal_and_random(n: int, rng: Random) -> BitMatrix:
    """A matrix with every diagonal cell 1, so the all-ones vector blocks
    every row, and each other cell 1 with probability 0.3."""
    return BitMatrix(tuple(tuple(int(i == j or rng.random() < 0.3) for j in range(n)) for i in range(n)))


def blocked_clear_mixed_blocked(n: int, rng: Random) -> list[BitVector]:
    return [BitVector.ones(n), BitVector.zeros(n), BitVector.random(n, rng, 0.2), BitVector.ones(n)]


@pytest.mark.parametrize("backend,mode", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("n", [1, 8, 65])
def test_a_pass_that_blocks_every_row_reports_all_ones(backend, mode, n):
    # Such a pass charges no OutputSwitch and reports the all-ones vector
    # the machine built once; passes with clear rows after it, and a second
    # such pass, leave the first report as it was.
    rng = Random(f"all-blocked:{n}")
    a = diagonal_and_random(n, rng)
    m = make_machine(backend, n)
    (m.parallel_load_matrix if mode is Mode.PAR else m.load_matrix)(a)
    prev: frozenset[int] = frozenset()
    reps = []
    for v in blocked_clear_mixed_blocked(n, rng):
        rep = matvec(m, v, mode)
        counts, phases = expected_pass_counts(a, prev, v, backend, mode)
        assert rep.ops.counts == counts and rep.ops.phase_ops == phases, v
        assert rep.result == oracle_matvec(a, v), v
        reps.append(rep)
        prev = frozenset(j for j in range(n) if v[j])
    first, last = reps[0], reps[-1]
    assert first.ops.count(OpCategory.OUTPUT_SWITCH) == last.ops.count(OpCategory.OUTPUT_SWITCH) == 0
    assert first.result == last.result == BitVector.ones(n)


@pytest.mark.parametrize("cls", [PerRowAxisMachine, PerRowWallMachine], ids=["axis", "wall"])
@pytest.mark.parametrize("n", [1, 9])
def test_per_row_machines_report_their_sections(cls, n):
    # A per-row stroke switches the sections one sensed row at a time; the
    # report reads them, also when every row is blocked and none switched.
    rng = Random(f"per-row:{n}")
    a = diagonal_and_random(n, rng)
    m = cls(n)
    m.load_matrix(a)
    prev: frozenset[int] = frozenset()
    for v in blocked_clear_mixed_blocked(n, rng):
        before = m.oplog.snapshot()
        m.sensed.clear()
        m.load_vector(v)
        m.sync_columns()
        m.set_output()
        assert m.sensed == list(range(n))
        sections = tuple(m.output_section(i) for i in range(n))
        out = m.report_output()
        m.reset_output()
        assert out.coords == sections and out == oracle_matvec(a, v), v
        counts, _ = expected_pass_counts(a, prev, v, m.backend, Mode.SEQ)
        assert m.oplog.since(before).counts == counts, v
        prev = frozenset(j for j in range(n) if v[j])


class JammedLadderOnce(AxisLadderMachine):
    """The last row's ladder raises once, before it is charged."""

    jammed = False

    def move_ladder(self, i: int) -> bool:
        if i == self.n - 1 and not self.jammed:
            self.jammed = True
            raise RuntimeError("sensor jammed")
        return super().move_ladder(i)


class JammedLightOnce(WallLightMachine):
    """The last row's light sensor raises once, before it is charged."""

    jammed = False

    def observe_light(self, i: int) -> bool:
        if i == self.n - 1 and not self.jammed:
            self.jammed = True
            raise RuntimeError("sensor jammed")
        return super().observe_light(i)


@pytest.mark.parametrize(
    "cls,mode",
    [(JammedLadderOnce, Mode.SEQ), (JammedLadderOnce, Mode.PAR), (JammedLightOnce, Mode.SEQ)],
    ids=CONFIG_IDS,
)
def test_a_stroke_that_raised_is_refused_until_reset(cls, mode):
    # Rows 0 and 1 are clear and switched before row 2 jams. Another
    # stroke then would switch and charge them again, with no ResetStep to
    # match, so it is refused until reset_output returns the output home.
    n = 3
    a, v = BitMatrix.zeros(n), BitVector.ones(n)
    m = cls(n)
    m.load_matrix(a)
    m.load_vector(v)
    m.sync_columns()
    stroke = m.parallel_ladder_step if mode is Mode.PAR else m.set_output
    with pytest.raises(RuntimeError, match="sensor jammed"):
        stroke()
    assert [m.output_section(i) for i in range(n)] == [0, 0, 1]
    before = m.oplog.snapshot()
    with pytest.raises(MachineStateError, match="^set_output called before reset_output$"):
        stroke()
    assert m.oplog.snapshot() == before  # nothing charged, no phase recorded
    m.reset_output()
    ops = m.oplog.snapshot()
    assert ops.count(OpCategory.OUTPUT_SWITCH) == 2
    assert ops.count(OpCategory.RESET_STEP) == (n if m.backend == "axis" else 0) + 2
    counts, phases = expected_pass_counts(a, frozenset(range(n)), v, m.backend, mode)
    delta = matvec(m, v, mode).ops
    assert delta.counts == counts and delta.phase_ops == phases
