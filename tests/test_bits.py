"""Bit containers, the brute-force oracle, and the text formats."""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpsim import (
    AxisLadderMachine,
    BitMatrix,
    BitVector,
    DimensionError,
    ParseError,
    WallLightMachine,
    make_machine,
    oracle_matmul,
    oracle_matvec,
    parse_matrix,
    parse_vector,
    serialize_matrix,
    serialize_vector,
)
from conftest import bit_matrices, matrix_pairs, matrix_vector_pairs


class TestContainers:
    def test_vector_basics(self):
        v = BitVector((1, 0, 1))
        assert v.n == 3
        assert len(v) == 3
        assert list(v) == [1, 0, 1]
        assert v[0] == 1 and v[1] == 0

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError, match="dimension must be an int >= 1, got 0"):
            BitVector(())

    def test_non_bit_entries_rejected(self):
        with pytest.raises(ValueError):
            BitVector((0, 2))
        with pytest.raises(ValueError):
            BitMatrix(((0, 1), (1, -1)))

    @pytest.mark.parametrize("bad", [1.0, 0.9, "1", None, 2, -1])
    def test_only_int_bits_accepted(self, bad):
        # No silent coercion: int() would turn 0.9 into 0 and "1" into 1.
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            BitVector((1, bad))
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            BitMatrix(((0, 1), (bad, 0)))

    def test_string_is_not_a_vector(self):
        with pytest.raises(ValueError, match="'1'"):
            BitVector("101")

    def test_bools_become_ints(self):
        v = BitVector((True, False))
        assert v.coords == (1, 0)
        assert all(type(c) is int for c in v.coords)
        assert BitMatrix(((True, 0), (False, 1))).rows == ((1, 0), (0, 1))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="dimension must be an int >= 1, got 0"):
            BitMatrix(())
        with pytest.raises(ValueError, match="dimension must be an int >= 1, got 0"):
            BitMatrix.from_columns([])

    @pytest.mark.parametrize("build", [
        AxisLadderMachine,
        WallLightMachine,
        lambda n: make_machine("axis", n),
        lambda n: make_machine("wall", n),
        lambda n: BitVector.random(n, Random(1)),
        BitVector.zeros,
        BitVector.ones,
        lambda n: BitMatrix.random(n, Random(1)),
        BitMatrix.zeros,
        BitMatrix.ones,
        BitMatrix.identity,
    ], ids=["axis", "wall", "make-axis", "make-wall", "vector-random", "vector-zeros",
            "vector-ones", "matrix-random", "matrix-zeros", "matrix-ones", "matrix-identity"])
    def test_bad_dimension_rejected(self, build):
        # A dimension is an int >= 1: True is not read as 1, nor 2.0 as 2.
        for n in (True, 2.0, 0, -1):
            with pytest.raises(ValueError, match=re.escape(f"dimension must be an int >= 1, got {n!r}")):
                build(n)

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError, match="row 2"):
            BitMatrix(((0, 1), (1,)))

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError):
            BitMatrix(((0, 1),))

    def test_constructors(self):
        assert BitMatrix.identity(3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert BitMatrix.zeros(2).rows == ((0, 0), (0, 0))
        assert BitMatrix.ones(2).rows == ((1, 1), (1, 1))
        assert BitVector.zeros(3).coords == (0, 0, 0)
        assert BitVector.ones(3).coords == (1, 1, 1)

    def test_random_is_seed_deterministic(self):
        a = BitMatrix.random(6, Random("seed"), 0.5)
        b = BitMatrix.random(6, Random("seed"), 0.5)
        assert a == b
        v = BitVector.random(6, Random("seed"))
        w = BitVector.random(6, Random("seed"))
        assert v == w

    def test_random_density_extremes(self):
        assert BitMatrix.random(4, Random(1), 0.0) == BitMatrix.zeros(4)
        assert BitMatrix.random(4, Random(1), 1.0) == BitMatrix.ones(4)

    @pytest.mark.parametrize("density", [-0.1, 1.5, 2.0, float("nan"), float("inf")])
    def test_random_density_out_of_range_rejected(self, density):
        with pytest.raises(ValueError, match="density"):
            BitMatrix.random(4, Random(1), density)
        with pytest.raises(ValueError, match="density"):
            BitVector.random(4, Random(1), density)

    @pytest.mark.parametrize("density", [True, False, "0.5", None, Decimal("0.1"), 0.5j], ids=repr)
    def test_random_density_of_another_type_rejected(self, density):
        # No silent coercion: True is not read as 1. A Decimal has no exact
        # threshold. Refused before any draw, so the generator is untouched.
        rng = Random(1)
        state = rng.getstate()
        for make in (BitMatrix.random, BitVector.random):
            with pytest.raises(ValueError, match="density must be an int, float or Fraction, got "):
                make(4, rng, density)
        assert rng.getstate() == state

    def test_row_column_access(self):
        a = BitMatrix(((1, 0), (1, 1)))
        assert a.row(0) == (1, 0)
        assert a.column(0) == BitVector((1, 1))
        assert a.column(1) == BitVector((0, 1))

    @pytest.mark.parametrize("bad", [True, False, -1, -2, 2, 1.0, None, slice(0, 1)])
    def test_accessors_refuse_what_is_not_an_index(self, bad):
        # No silent coercion: True is not read as 1, nor -1 as the last index.
        a = BitMatrix(((1, 0), (0, 1)))
        v = BitVector((1, 0))
        for what, get in (("row", a.row), ("column", a.column), ("coordinate", v.__getitem__)):
            with pytest.raises(IndexError, match=re.escape(f"{what} index must be an int in 0..1, got {bad!r}")):
                get(bad)

    @given(bit_matrices(4))
    def test_from_columns_round_trip(self, a):
        assert BitMatrix.from_columns(list(a.columns())) == a

    def test_from_columns_mixed_lengths_rejected(self):
        with pytest.raises(DimensionError):
            BitMatrix.from_columns([BitVector((1, 0)), BitVector((1, 0, 1))])


def drawn_one_at_a_time(n: int, rng: Random, density) -> tuple[BitMatrix, BitVector]:
    """The definition of BitMatrix.random then BitVector.random: cell by cell
    in row-major order, 1 when the next rng.random() is below `density`."""
    rows = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
    return BitMatrix(rows), BitVector([int(rng.random() < density) for _ in range(n)])


DENSITIES = [0, 1, 0.0, 1.0, 0.5, 0.1, 1 / 3, 2**-8, 1 - 2**-8, 1e-9, 1 - 1e-9,
             127 / 256, 0.5 + 2**-9, Fraction(2**60 + 1, 2**61), Fraction(1, 3),
             Decimal("0.1")]


class TestRandomDraw:
    """BitMatrix.random and BitVector.random read a plain Random's draws in
    bulk; the values and the generator's state afterwards must be those of
    the one-draw-at-a-time definition."""

    @staticmethod
    def check(n: int, seed: int, density) -> tuple[BitMatrix, BitVector]:
        # A Decimal is refused (TestContainers), but its exact value as a
        # Fraction must draw what the definition draws with the Decimal,
        # which float < Decimal compares exactly.
        given = Fraction(density) if isinstance(density, Decimal) else density
        rng, ref = Random(seed), Random(seed)
        got = BitMatrix.random(n, rng, given), BitVector.random(n, rng, given)
        assert got == drawn_one_at_a_time(n, ref, density)
        assert rng.getstate() == ref.getstate()
        return got

    @pytest.mark.parametrize("n", [1, 8, 64, 200])
    @pytest.mark.parametrize("density", DENSITIES, ids=repr)
    def test_equals_the_per_draw_definition(self, n, density):
        for seed in (1, 2, 3):
            self.check(n, seed, density)

    @settings(max_examples=60)
    @given(st.integers(0, 2**64), st.integers(1, 40), st.floats(0, 1))
    def test_any_seed_and_density(self, seed, n, density):
        self.check(n, seed, density)

    @given(st.integers(0, 2**64), st.integers(0, 63))
    def test_density_equal_to_a_drawn_value(self, seed, c):
        # The density is exactly draw c, k / 2**53, so cell c sits on the
        # threshold and is 0. A Fraction 2**-61 above it makes it 1, since
        # the exact threshold decides and not the nearest float's; one
        # 2**-61 below keeps it 0.
        rng = Random(seed)
        x = [rng.random() for _ in range(c + 1)][c]
        for density, cell in ((x, 0), (Fraction(x) + Fraction(1, 2**61), 1),
                              (Fraction(x) - Fraction(1, 2**61), 0)):
            a, _ = self.check(8, seed, density)
            assert a.row(c // 8)[c % 8] == cell

    def test_large_matrix(self):
        self.check(1024, 7, 0.1)

    def test_a_subclass_random_is_honoured(self):
        class Quarter(Random):
            def random(self):
                return 0.25

        assert BitMatrix.random(4, Quarter(1), 0.5) == BitMatrix.ones(4)
        assert BitMatrix.random(4, Quarter(1), 0.25) == BitMatrix.zeros(4)
        assert BitVector.random(4, Quarter(1), 0.3) == BitVector.ones(4)


class TestOracle:
    def test_hand_checked_product(self):
        a = BitMatrix(((1, 0, 1, 0), (1, 1, 0, 1), (0, 0, 0, 0), (1, 0, 1, 1)))
        assert oracle_matvec(a, BitVector((1, 0, 1, 0))) == BitVector((1, 1, 0, 1))
        assert oracle_matvec(a, BitVector((0, 1, 0, 0))) == BitVector((0, 1, 0, 0))

    def test_zero_and_one_vectors(self):
        a = BitMatrix(((1, 1), (0, 0)))
        assert oracle_matvec(a, BitVector.zeros(2)) == BitVector.zeros(2)
        assert oracle_matvec(a, BitVector.ones(2)) == BitVector((1, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            oracle_matvec(BitMatrix.identity(2), BitVector((1, 0, 1)))
        with pytest.raises(DimensionError):
            oracle_matmul(BitMatrix.identity(2), BitMatrix.identity(3))

    @given(matrix_vector_pairs())
    def test_identity_is_neutral(self, pair):
        a, v = pair
        eye = BitMatrix.identity(a.n)
        assert oracle_matvec(eye, v) == v
        assert oracle_matmul(eye, a) == a
        assert oracle_matmul(a, eye) == a

    @given(matrix_pairs())
    def test_matmul_columns_are_matvecs(self, pair):
        a, b = pair
        prod = oracle_matmul(a, b)
        for j in range(b.n):
            assert prod.column(j) == oracle_matvec(a, b.column(j))

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[bit_matrices(n)] * 3)))
    def test_matmul_is_associative(self, triple):
        a, b, c = triple
        assert oracle_matmul(oracle_matmul(a, b), c) == oracle_matmul(a, oracle_matmul(b, c))

    @given(matrix_vector_pairs(max_n=4))
    def test_monotone_in_the_vector(self, pair):
        # Flipping any vector coordinate to 1 can only raise output bits.
        a, v = pair
        out = oracle_matvec(a, v)
        for j in range(v.n):
            flipped = BitVector(tuple(1 if k == j else v[k] for k in range(v.n)))
            up = oracle_matvec(a, flipped)
            assert all(o <= u for o, u in zip(out, up))


class TestTextFormats:
    def test_matrix_round_trip(self):
        a = BitMatrix(((1, 0), (1, 1)))
        assert serialize_matrix(a) == "10\n11\n"
        assert parse_matrix(serialize_matrix(a)) == a

    @given(matrix_vector_pairs())
    def test_round_trip_any(self, pair):
        a, v = pair
        assert parse_matrix(serialize_matrix(a)) == a
        assert parse_vector(serialize_vector(v)) == v

    def test_vector_round_trip(self):
        v = BitVector((1, 0, 1, 1))
        assert serialize_vector(v) == "1011\n"
        assert parse_vector("1011\n") == v
        assert parse_vector("1011") == v

    def test_empty_input(self):
        for bad in ("", "\n"):
            with pytest.raises(ParseError, match="line 1"):
                parse_matrix(bad)
            with pytest.raises(ParseError, match="line 1"):
                parse_vector(bad)

    def test_blank_first_line_takes_the_width_from_the_line_count(self):
        # Only "" and "\n" are empty input; a blank first line with rows
        # after it is a short row of a matrix as wide as it is tall.
        with pytest.raises(ParseError, match=r"^line 1: expected 3 characters, found 0$"):
            parse_matrix("\n01\n10\n")
        with pytest.raises(ParseError, match=r"^line 2: expected a single line, found 2$"):
            parse_vector("\n01\n")

    @settings(max_examples=200)
    @given(st.text(st.sampled_from("01\n"), max_size=24)
           | st.text(st.sampled_from("01\n29\r\t\f\xa0\ufeff\u0661\uff11"), max_size=24))
    def test_parsers_refuse_or_round_trip(self, text):
        # Digits, line breaks, blanks, a BOM and non-ASCII digits (which
        # int() would read as 1): each parser either refuses the text or
        # gives a value that serializes back to it, newline-terminated.
        for parse, serialize in ((parse_matrix, serialize_matrix), (parse_vector, serialize_vector)):
            try:
                value = parse(text)
            except ParseError:
                continue
            assert serialize(value) == text.removesuffix("\n") + "\n"

    def test_bad_character_names_line_and_column(self):
        with pytest.raises(ParseError, match=r"line 2, column 2"):
            parse_matrix("101\n1x1\n010\n")
        err = None
        try:
            parse_matrix("10x\n101\n010\n")
        except ParseError as e:
            err = e
        assert err is not None and err.line == 1 and err.column == 3

    @pytest.mark.parametrize("sep", ["\r", "\f", "\v", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_rows_split_at_newline_only(self, sep):
        # str.splitlines() would break a row at each of these; the format
        # ends a line at "\n" alone, so each is an invalid character.
        for parse, text, line, column in (
            (parse_matrix, f"01{sep}10\n", 1, 3),
            (parse_matrix, f"10\n0{sep}\n", 2, 2),
            (parse_vector, f"1{sep}0\n", 1, 2),
        ):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert (info.value.line, info.value.column) == (line, column)
            assert repr(sep) in str(info.value)

    def test_wrong_row_length(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix("10\n1\n")

    def test_wrong_row_count(self):
        with pytest.raises(ParseError, match="expected 3 rows, found 2"):
            parse_matrix("101\n010\n")
        with pytest.raises(ParseError, match="expected 2 rows, found 3"):
            parse_matrix("10\n01\n11\n")

    def test_vector_rejects_extra_lines(self):
        with pytest.raises(ParseError, match="single line"):
            parse_vector("10\n01\n")
