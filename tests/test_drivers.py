"""Product drivers: oracle equivalence, exact cost arithmetic, phase counts."""

from __future__ import annotations

import itertools

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
    WallLightMachine,
    make_machine,
    matmul,
    matvec,
    oracle_matmul,
    oracle_matvec,
)
from conftest import matrix_pairs, matrix_vector_pairs


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
    @pytest.mark.parametrize("n", [1, 2])
    def test_exhaustive_matvec(self, machine_cls, n):
        for cells in itertools.product((0, 1), repeat=n * n):
            a = BitMatrix(tuple(cells[i * n : (i + 1) * n] for i in range(n)))
            m = machine_cls(n)
            m.load_matrix(a)
            for coords in itertools.product((0, 1), repeat=n):
                v = BitVector(coords)
                assert matvec(m, v).result == oracle_matvec(a, v)

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

    @given(matrix_pairs(max_n=4))
    @settings(max_examples=40, deadline=None)
    def test_parallel_matmul_matches_oracle(self, pair):
        a, b = pair
        rep = matmul(AxisLadderMachine(a.n), a, b, Mode.PAR)
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

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_matmul_worst_case_exact(self, n):
        b = alternating_columns(n)
        assert matmul(AxisLadderMachine(n), BitMatrix.ones(n), b).ops.total == 8 * n * n
        assert matmul(WallLightMachine(n), BitMatrix.ones(n), b).ops.total == 7 * n * n

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

    def test_doubling_ratios(self):
        for n in (32, 64):
            small = AxisLadderMachine(n)
            small.load_matrix(BitMatrix.ones(n))
            big = AxisLadderMachine(2 * n)
            big.load_matrix(BitMatrix.ones(2 * n))
            ratio = (
                matvec(big, BitVector.ones(2 * n)).ops.total
                / matvec(small, BitVector.ones(n)).ops.total
            )
            assert 1.8 <= ratio <= 2.2
            mm = (
                matmul(AxisLadderMachine(2 * n), BitMatrix.ones(2 * n), alternating_columns(2 * n)).ops.total
                / matmul(AxisLadderMachine(n), BitMatrix.ones(n), alternating_columns(n)).ops.total
            )
            assert 3.8 <= mm <= 4.2


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
        assert m.oplog.parallel_phases == 0
        assert m.loaded_vector() is None

    @pytest.mark.parametrize("mode", ["par", "seq", None])
    def test_matmul_refuses_a_mode_that_is_not_a_member(self, machine_cls, mode):
        m = machine_cls(3)
        m.load_matrix(BitMatrix.ones(3))
        before = m.oplog.snapshot()
        with pytest.raises(ValueError, match="mode must be a Mode member"):
            matmul(m, BitMatrix.identity(3), BitMatrix.identity(3), mode)
        assert m.oplog.snapshot() == before
        assert m.oplog.parallel_phases == 0
        assert m.loaded_matrix() == BitMatrix.ones(3)

    def test_matvec_requires_loaded_matrix(self, machine_cls):
        with pytest.raises(MachineStateError):
            matvec(machine_cls(3), BitVector.ones(3))

    def test_matmul_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(AxisLadderMachine(2), BitMatrix.identity(2), BitMatrix.identity(3))
        with pytest.raises(DimensionError):
            matmul(AxisLadderMachine(3), BitMatrix.identity(2), BitMatrix.identity(2))