"""Product drivers: oracle equivalence, exact cost arithmetic, phase counts.

Two properties run in each of the three configs: a pass from a fresh load
equals the oracle and charges exactly the closed-form ledger of
`test_ledger.expected_pass_counts`, within 8n; a product equals the
oracle within 9n^2. The sequential per-machine checks of the same
result and bounds stay under their own names beside them. Exhaustive
equivalence at small n and the doubling ratios are acceptance gates C1,
C3 and C4.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings

from mvpsim import (
    AxisLadderMachine,
    BitMatrix,
    BitVector,
    DimensionError,
    MachineStateError,
    Mode,
    PARALLEL_PHASES_PER_MATVEC,
    RunReport,
    WallLightMachine,
    make_machine,
    matmul,
    matvec,
    oracle_matmul,
    oracle_matvec,
)
from conftest import CONFIG_IDS, CONFIGS, matrix_pairs, matrix_vector_pairs
from test_ledger import expected_pass_counts


def alternating_columns(n: int) -> BitMatrix:
    """Worst-case right factor: columns alternate all-ones, all-zeros."""
    cols = [BitVector.ones(n) if j % 2 == 0 else BitVector.zeros(n) for j in range(n)]
    return BitMatrix.from_columns(cols)


class TestFactory:
    def test_make_machine(self):
        assert isinstance(make_machine("axis", 3), AxisLadderMachine)
        assert isinstance(make_machine("wall", 3), WallLightMachine)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_machine("gears", 3)


class TestEquivalence:
    @pytest.mark.parametrize("backend,mode", CONFIGS, ids=CONFIG_IDS)
    @given(matrix_vector_pairs(max_n=8))
    @settings(max_examples=80)
    def test_pass_matches_oracle_with_its_exact_ledger(self, backend, mode, pair):
        a, v = pair
        m = make_machine(backend, a.n)
        m.load_matrix(a)
        rep = matvec(m, v, mode)
        counts, phases = expected_pass_counts(a, frozenset(), v, backend, mode)
        assert rep.result == oracle_matvec(a, v)
        assert rep.ops.counts == counts and rep.ops.phase_ops == phases
        assert rep.ops.total <= 8 * a.n

    @pytest.mark.parametrize("backend,mode", CONFIGS, ids=CONFIG_IDS)
    @given(matrix_pairs(max_n=6))
    @settings(max_examples=50, deadline=None)
    def test_product_matches_oracle_within_budget(self, backend, mode, pair):
        a, b = pair
        rep = matmul(make_machine(backend, a.n), a, b, mode)
        assert rep.result == oracle_matmul(a, b)
        assert rep.ops.total <= 9 * a.n * a.n

    @given(matrix_vector_pairs())
    @settings(max_examples=80)
    def test_matvec_matches_oracle(self, machine_cls, pair):
        a, v = pair
        m = machine_cls(a.n)
        m.load_matrix(a)
        assert matvec(m, v).result == oracle_matvec(a, v)

    @given(matrix_pairs())
    @settings(max_examples=50, deadline=None)
    def test_matmul_matches_oracle(self, machine_cls, pair):
        a, b = pair
        rep = matmul(machine_cls(a.n), a, b)
        assert rep.result == oracle_matmul(a, b)

    def test_identity_laws(self, machine_cls):
        a = BitMatrix(((1, 0, 1, 0), (1, 1, 0, 1), (0, 0, 0, 0), (1, 0, 1, 1)))
        eye = BitMatrix.identity(4)
        assert matmul(machine_cls(4), a, eye).result == a
        assert matmul(machine_cls(4), eye, a).result == a


class TestSequentialCosts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64])
    def test_pass_worst_case_is_eight_n(self, n):
        # Empty matrix, full vector: maximal toggles, strokes and resets.
        m = AxisLadderMachine(n)
        m.load_matrix(BitMatrix.zeros(n))
        assert matvec(m, BitVector.ones(n)).ops.total == 8 * n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64])
    def test_pass_dense_case_is_six_n(self, n):
        m = AxisLadderMachine(n)
        m.load_matrix(BitMatrix.ones(n))
        assert matvec(m, BitVector.ones(n)).ops.total == 6 * n

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64])
    def test_wall_pass_costs(self, n):
        m = WallLightMachine(n)
        m.load_matrix(BitMatrix.zeros(n))
        assert matvec(m, BitVector.ones(n)).ops.total == 7 * n
        m = WallLightMachine(n)
        m.load_matrix(BitMatrix.ones(n))
        assert matvec(m, BitVector.ones(n)).ops.total == 5 * n

    @given(matrix_vector_pairs(max_n=8))
    @settings(max_examples=60)
    def test_pass_budget_holds_everywhere(self, machine_cls, pair):
        a, v = pair
        m = machine_cls(a.n)
        m.load_matrix(a)
        assert matvec(m, v).ops.total <= 8 * a.n

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 17, 32, 64])
    def test_matmul_worst_case_exact(self, n):
        b = alternating_columns(n)
        # An odd n ends on an all-ones column, whose pass costs n less.
        odd = n % 2 * n
        assert matmul(AxisLadderMachine(n), BitMatrix.ones(n), b).ops.total == 8 * n * n - odd
        assert matmul(WallLightMachine(n), BitMatrix.ones(n), b).ops.total == 7 * n * n - odd
        # A zero `a` leaves every row clear and the alternating columns
        # toggle every column each pass, so every sequential axis pass costs
        # 8n and the product attains the 9n^2 bound; a parallel pass skips
        # the ScanStep and a wall pass the return steps.
        zeros = BitMatrix.zeros(n)
        assert matmul(AxisLadderMachine(n), zeros, b).ops.total == 9 * n * n
        assert matmul(AxisLadderMachine(n), zeros, b, Mode.PAR).ops.total == 8 * n * n
        assert matmul(WallLightMachine(n), zeros, b).ops.total == 8 * n * n

    @given(matrix_pairs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_matmul_budget_from_fresh(self, machine_cls, pair):
        a, b = pair
        rep = matmul(machine_cls(a.n), a, b)
        assert rep.ops.total <= 9 * a.n * a.n

    def test_matmul_budget_survives_reuse(self, machine_cls):
        # Odd dimension: the last pass leaves every column active, so the
        # second product starts from a dirty machine.
        m = machine_cls(5)
        b = alternating_columns(5)
        first = matmul(m, BitMatrix.ones(5), b)
        assert m.active_columns() == frozenset(range(5))
        second = matmul(m, BitMatrix.ones(5), b)
        assert second.result == first.result
        # A dirty machine pays at most n extra deactivations at load time.
        assert second.ops.total <= 9 * 25 + 5


class TestParallelPhases:
    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_pass_is_always_six_phases(self, n):
        m = AxisLadderMachine(n)
        m.load_matrix(BitMatrix.ones(n))
        rep = matvec(m, BitVector.ones(n), Mode.PAR)
        assert rep.ops.parallel_phases == PARALLEL_PHASES_PER_MATVEC == 6
        assert all(ops <= 2 * n for ops in rep.ops.phase_ops)

    def test_known_phase_ops(self):
        n = 4
        m = AxisLadderMachine(n)
        m.load_matrix(BitMatrix.ones(n))
        rep = matvec(m, BitVector.ones(n), Mode.PAR)
        # load n, release 0, rotate n, strokes n (all blocked), report n,
        # reset n (returns only).
        assert rep.ops.phase_ops == (4, 0, 4, 4, 4, 4)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_matmul_phase_budget(self, n):
        rep = matmul(AxisLadderMachine(n), BitMatrix.ones(n), alternating_columns(n), Mode.PAR)
        assert rep.ops.parallel_phases == 7 * n + 1
        assert rep.ops.parallel_phases <= (PARALLEL_PHASES_PER_MATVEC + 2) * n
        assert all(ops <= 2 * n for ops in rep.ops.phase_ops)

    def test_sequential_runs_consume_no_phases(self, machine_cls):
        m = machine_cls(4)
        m.load_matrix(BitMatrix.identity(4))
        rep = matvec(m, BitVector.ones(4))
        assert rep.ops.parallel_phases == 0
        assert rep.ops.phase_ops == ()


class TestRunReport:
    def test_fields(self):
        m = AxisLadderMachine(3)
        m.load_matrix(BitMatrix.identity(3))
        rep = matvec(m, BitVector.ones(3), Mode.PAR)
        assert rep.backend == "axis"
        assert rep.mode is Mode.PAR
        assert rep.n == 3
        assert rep.result.n == 3

    def test_frozen_and_survives_pickle_and_deepcopy(self):
        m = AxisLadderMachine(3)
        m.load_matrix(BitMatrix.identity(3))
        reports = (
            matvec(m, BitVector.ones(3)), matvec(m, BitVector((0, 1, 1)), Mode.PAR),
            matmul(m, BitMatrix.ones(3), BitMatrix.identity(3), Mode.PAR),
        )
        for rep in reports:
            for field in ("result", "ops", "backend", "mode", "n"):
                with pytest.raises(FrozenInstanceError):
                    setattr(rep, field, None)
            for twin in (pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep)):
                assert type(twin) is RunReport and twin == rep
                assert twin.ops.phase_ops == rep.ops.phase_ops
                assert (twin.backend, twin.mode, twin.n) == ("axis", rep.mode, 3)
        assert reports[1].ops.phase_ops == (3, 3, 2, 4, 3, 4)

    def test_equal_snapshots_and_reports_hash_alike(self):
        runs = []
        for _ in range(2):
            m = AxisLadderMachine(3)
            m.load_matrix(BitMatrix.identity(3))
            runs.append((m.oplog.snapshot(), matvec(m, BitVector((0, 1, 1)), Mode.PAR)))
        (snap, rep), (twin_snap, twin) = runs
        assert snap == twin_snap and hash(snap) == hash(twin_snap)
        assert rep == twin and hash(rep) == hash(twin)
        assert len({rep, twin, pickle.loads(pickle.dumps(rep))}) == 1

    def test_delta_excludes_earlier_work(self):
        m = AxisLadderMachine(3)
        m.load_matrix(BitMatrix.ones(3))
        matvec(m, BitVector.ones(3))
        rep = matvec(m, BitVector.ones(3))
        # Second pass resyncs the same vector: no toggles this time.
        assert rep.ops.total == 5 * 3

    def test_wall_parallel_rejected(self):
        m = WallLightMachine(3)
        m.load_matrix(BitMatrix.identity(3))
        with pytest.raises(ValueError, match="no parallel drive"):
            matvec(m, BitVector.ones(3), Mode.PAR)
        with pytest.raises(ValueError, match="no parallel drive"):
            matmul(WallLightMachine(3), BitMatrix.identity(3), BitMatrix.identity(3), Mode.PAR)

    @pytest.mark.parametrize("mode", ["par", "seq", None])
    def test_matvec_refuses_a_mode_that_is_not_a_member(self, machine_cls, mode):
        m = machine_cls(3)
        m.load_matrix(BitMatrix.identity(3))
        before = m.oplog.snapshot()
        with pytest.raises(ValueError, match="mode must be a Mode member"):
            matvec(m, BitVector.ones(3), mode)
        assert m.oplog.snapshot() == before
        assert m.oplog.snapshot().parallel_phases == 0
        assert m.loaded_vector() is None

    @pytest.mark.parametrize("mode", ["par", "seq", None])
    def test_matmul_refuses_a_mode_that_is_not_a_member(self, machine_cls, mode):
        m = machine_cls(3)
        m.load_matrix(BitMatrix.ones(3))
        before = m.oplog.snapshot()
        with pytest.raises(ValueError, match="mode must be a Mode member"):
            matmul(m, BitMatrix.identity(3), BitMatrix.identity(3), mode)
        assert m.oplog.snapshot() == before
        assert m.oplog.snapshot().parallel_phases == 0
        assert m.loaded_matrix() == BitMatrix.ones(3)

    def test_matvec_requires_loaded_matrix(self, machine_cls):
        with pytest.raises(MachineStateError):
            matvec(machine_cls(3), BitVector.ones(3))

    def test_matmul_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(AxisLadderMachine(2), BitMatrix.identity(2), BitMatrix.identity(3))
        with pytest.raises(DimensionError):
            matmul(AxisLadderMachine(3), BitMatrix.identity(2), BitMatrix.identity(2))