"""Boolean matrix and vector values, the brute-force product oracle, and
bit-exact text serialization.

Values are column-packed int bit masks, the layout the machines keep their
state in, so a machine keeps a loaded matrix's tuple of column masks as it
is and a product streams and collects columns without converting them.
Generation and parsing build the row-major digit string '0'/'1' of the
whole matrix and take column j as its stride slice digits[j::n]. Values
built from validated ones are not validated again.

A random value is drawn cell by cell in row-major order, cell c being 1 when
the c-th `rng.random()` is below the density. For a plain `random.Random`
the draws are read in blocks from `getrandbits` instead, which returns the
same Mersenne Twister outputs and leaves the generator in the same state, so
a seed gives the same values either way; see `_random_digits`.

The oracle is the definitional triple loop over Boolean AND and OR. It is
deliberately naive, with no bit packing and no early exits, so that it is
obviously correct; every machine backend is checked against it.

Text formats: a matrix is n newline-terminated lines of n characters from
{'0','1'}, line i holding row i. A vector is a single such line. Lines and
columns in diagnostics are numbered from 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import ceil
from random import Random
from struct import unpack_from
from typing import Iterable, Iterator, Sequence

_VALID_CHARS = frozenset("01")
# Byte tables between the bits 0/1 and the text digits '0'/'1'.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _mask(bits: bytes | bytearray) -> int:
    """The int whose bit k is byte k of `bits` (0/1): the inverse of _flags."""
    return int(bits.translate(_DIGITS)[::-1], 2)


def _flags(mask: int, n: int) -> bytes:
    """Byte k is bit k of `mask` (0/1), for k < n: the inverse of _mask."""
    return bin(mask)[:1:-1].ljust(n, "0").encode().translate(_BITS)


def _columns(digits: str | bytes, n: int) -> tuple[int, ...]:
    """The column masks of an n x n matrix given as its n*n digits '0'/'1'
    in row-major order: column j, last row first, is the one reversed
    stride slice digits[n*n - n + j::-n]."""
    last = n * n - n
    return tuple([int(digits[last + j :: -n], 2) for j in range(n)])


class DimensionError(ValueError):
    """Operand dimensions do not match."""


class ParseError(ValueError):
    """Malformed matrix or vector text. `line` and `column` are 1-based."""

    def __init__(self, message: str, line: int, column: int | None = None):
        self.line = line
        self.column = column
        where = f"line {line}"
        if column is not None:
            where += f", column {column}"
        super().__init__(f"{where}: {message}")


def _dimension(n: int) -> int:
    """`n`, the dimension of a value or a machine, if it is an int >= 1;
    anything else (0, True, 2.0) raises ValueError."""
    if type(n) is not int or n < 1:
        raise ValueError(f"dimension must be an int >= 1, got {n!r}")
    return n


def _index(i: int, n: int, what: str) -> int:
    """`i`, a `what` ("row", "column", ...) index into a value or machine of
    dimension n, if it is an int in 0..n-1; anything else (True, -1, 1.0, n)
    raises IndexError."""
    if type(i) is not int or not 0 <= i < n:
        raise IndexError(f"{what} index must be an int in 0..{n - 1}, got {i!r}")
    return i


def _operand(value, kind: type, n: int | None, what: str):
    """`value`, a `what` ("vector", "right-hand matrix", ...) operand, if it
    is a `kind` (BitVector or BitMatrix) of dimension n, or of any dimension
    when n is None; a value of another type (a tuple, the other kind)
    raises TypeError, and one of another dimension DimensionError."""
    if not isinstance(value, kind):
        raise TypeError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")
    if n is not None and value.n != n:
        raise DimensionError(f"{what} has dimension {value.n}, expected {n}")
    return value


def _as_flags(values: Iterable[int], what: str) -> bytes:
    """The entries as bytes, one 0/1 byte each. Bools count as 0/1; any
    other entry that is not the int 0 or 1 (1.0, "1", None, 2) raises
    ValueError naming the first one."""
    out = tuple(values)
    if set(map(type, out)) <= {int, bool}:
        try:
            flags = bytes(out)
        except ValueError:  # an int outside 0..255
            pass
        else:
            if not flags.translate(None, b"\0\1"):
                return flags
    bad = next(v for v in out if type(v) not in (int, bool) or v not in (0, 1))
    raise ValueError(f"{what} must be 0 or 1, got {bad!r}")


def _random_digits(count: int, rng: Random, density: float) -> bytes:
    """`count` digits '0'/'1' drawn in order, each '1' with probability
    `density`: row-major, one draw per cell, for a matrix.

    Digit c is '1' exactly when the c-th `rng.random() < density`. CPython's
    random() is k / 2**53 with k = (a >> 5) << 26 | b >> 6 over its next two
    32-bit Mersenne Twister outputs a and b, and `getrandbits(64 * m)`
    returns the next 2 * m outputs low word first, leaving the generator
    where m random() calls would. So for a plain Random and an exact
    threshold t = ceil(density * 2**53) (exact for an int, float or
    Fraction), digit c is '1' exactly when k < t. The cells are drawn in
    blocks of m = 2**14, so the 16 bytes a cell takes while it is read are
    held for one block only. The top byte of a is the top byte of k: one
    byte table decides every cell whose top byte is not t's, and the ties
    (1 cell in 256) are settled from the full a and b. A t with no bits
    below its top byte (densities 0, 1/2, 1 and every k/256) has no ties
    to settle: a cell that shares its top byte has k >= t, a '0'.

    The density must be an int, float or Fraction, the types with an exact
    threshold here, and not a bool; anything else (True, "0.5", None, a
    Decimal) raises ValueError before any draw. A subclass of Random may
    override random(), so it is drawn one random() call at a time.
    """
    if type(density) is bool or not isinstance(density, (int, float, Fraction)):
        raise ValueError(f"density must be an int, float or Fraction, got {density!r}")
    if not 0 <= density <= 1:  # also rejects NaN
        raise ValueError(f"density must be in [0, 1], got {density}")
    if type(rng) is not Random:
        r = rng.random
        return bytes([r() < density for _ in range(count)]).translate(_DIGITS)
    t = ceil(density * 2**53)
    tie = b"?" if t & (1 << 45) - 1 else b"0"
    table = (b"1" * (t >> 45) + tie + b"0" * 255)[:256]  # '?': a tie
    digits = bytearray()
    for start in range(0, count, 1 << 14):
        m = min(1 << 14, count - start)
        raw = rng.getrandbits(64 * m).to_bytes(8 * m, "little")
        digits += raw[3::8].translate(table)
        c = digits.find(b"?", start)
        while c != -1:
            a, b = unpack_from("<2I", raw, 8 * (c - start))
            digits[c] = ord("1" if (a >> 5) << 26 | b >> 6 < t else "0")
            c = digits.find(b"?", c + 1)
    return bytes(digits)


# Values are frozen dataclasses over their masks, which alone decide
# equality and hashing. Their builders write the fields with _set, past the
# frozen __setattr__; unlike a __dict__.update, that keeps the attribute
# values inline, at less than half the size per value. A derived view is a
# functools.cached_property, computed on first read unless a builder seeded it.
_set = object.__setattr__


@dataclass(frozen=True, init=False)
class BitVector:
    """An n-dimensional Boolean column vector, n >= 1. Immutable.

    Stored as one int mask (bit j is coordinate j) and n. `coords`, the
    tuple of 0/1 ints, is a view derived from the mask when first read,
    unless the public constructor seeded it from the validated entries.
    """

    n: int
    _bits: int

    def __init__(self, coords: Iterable[int]) -> None:
        flags = _as_flags(coords, "vector coordinate")
        _set(self, "n", _dimension(len(flags)))
        _set(self, "_bits", _mask(flags))
        _set(self, "coords", tuple(flags))

    @classmethod
    def _of(cls, bits: int, n: int) -> "BitVector":
        """The vector of the mask `bits`, which has no bit at n or above, n >= 1."""
        v = object.__new__(cls)
        _set(v, "n", n)
        _set(v, "_bits", bits)
        return v

    @cached_property
    def coords(self) -> tuple[int, ...]:
        return tuple(_flags(self._bits, self.n))

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls._of(0, _dimension(n))

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls._of((1 << _dimension(n)) - 1, n)

    @classmethod
    def random(cls, n: int, rng: Random, density: float = 0.5) -> "BitVector":
        """Each coordinate is 1 independently with probability `density`,
        an int, float or Fraction in [0, 1] (not a bool)."""
        return cls._of(int(_random_digits(_dimension(n), rng, density)[::-1], 2), n)

    def __repr__(self) -> str:
        return f"BitVector(coords={self.coords!r})"

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return iter(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[_index(i, self.n, "coordinate")]


@dataclass(frozen=True, init=False)
class BitMatrix:
    """A square n x n Boolean matrix, n >= 1. Immutable.

    Stored as its column masks: bit i of `_cols[j]` is entry (i, j), the
    layout in which a machine loads and a product streams its columns.
    `rows`, the row-major tuple of tuples of 0/1 ints, is a view derived
    from the masks when first read, unless the public constructor seeded
    it from the validated entries.
    """

    n: int
    _cols: tuple[int, ...]

    def __init__(self, rows: Iterable[Iterable[int]]) -> None:
        flags = [_as_flags(r, "matrix entry") for r in rows]
        n = _dimension(len(flags))
        for i, row in enumerate(flags):
            if len(row) != n:
                raise ValueError(
                    f"row {i + 1} has {len(row)} entries, expected {n} "
                    "(matrix must be square)"
                )
        _set(self, "n", n)
        _set(self, "_cols", _columns(b"".join(flags).translate(_DIGITS), n))
        _set(self, "rows", tuple(map(tuple, flags)))

    @classmethod
    def _of(cls, cols: tuple[int, ...]) -> "BitMatrix":
        """The matrix whose column j is the mask cols[j]: n >= 1 masks with
        no bit at n or above."""
        a = object.__new__(cls)
        _set(a, "n", len(cols))
        _set(a, "_cols", cols)
        return a

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*[_flags(c, self.n) for c in self._cols]))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls._of(tuple([1 << j for j in range(_dimension(n))]))

    @classmethod
    def zeros(cls, n: int) -> "BitMatrix":
        return cls._of((0,) * _dimension(n))

    @classmethod
    def ones(cls, n: int) -> "BitMatrix":
        return cls._of(((1 << _dimension(n)) - 1,) * n)

    @classmethod
    def random(cls, n: int, rng: Random, density: float = 0.5) -> "BitMatrix":
        """Each cell is 1 independently with probability `density`, an int,
        float or Fraction in [0, 1] (not a bool). Cells are drawn in
        row-major order."""
        return cls._of(_columns(_random_digits(_dimension(n) * n, rng, density), n))

    @classmethod
    def from_columns(cls, columns: Sequence[BitVector]) -> "BitMatrix":
        """Assemble a matrix whose j-th column is `columns[j]`."""
        n = _dimension(len(columns))
        cols = [_operand(col, BitVector, n, f"column {j + 1}")._bits for j, col in enumerate(columns)]
        return cls._of(tuple(cols))

    def __repr__(self) -> str:
        return f"BitMatrix(rows={self.rows!r})"

    def row(self, i: int) -> tuple[int, ...]:
        return self.rows[_index(i, self.n, "row")]

    def column(self, j: int) -> BitVector:
        return BitVector._of(self._cols[_index(j, self.n, "column")], self.n)

    def columns(self) -> Iterator[BitVector]:
        return map(BitVector._of, self._cols, repeat(self.n))


def oracle_matvec(a: BitMatrix, v: BitVector) -> BitVector:
    """Definitional Boolean matrix-vector product: out[i] = OR_j (a[i][j] AND v[j]).

    Pure reference implementation; scans every j with no early exit.
    """
    _operand(v, BitVector, _operand(a, BitMatrix, None, "matrix").n, "vector")
    out = []
    for row in a.rows:
        acc = 0
        for aij, vj in zip(row, v.coords):
            acc |= aij & vj
        out.append(acc)
    return BitVector(tuple(out))


def oracle_matmul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Definitional Boolean matrix product: column j of the result is
    oracle_matvec(a, column j of b)."""
    _operand(b, BitMatrix, _operand(a, BitMatrix, None, "left-hand matrix").n, "right-hand matrix")
    return BitMatrix.from_columns([oracle_matvec(a, col) for col in b.columns()])


def _check_line(line: str, lineno: int, expected_len: int) -> None:
    if len(line) != expected_len:
        raise ParseError(
            f"expected {expected_len} characters, found {len(line)}", lineno
        )
    if line.strip("01"):  # some character is not a digit: find the first
        for k, ch in enumerate(line):
            if ch not in _VALID_CHARS:
                raise ParseError(f"invalid character {ch!r}", lineno, k + 1)


def _lines(text: str) -> list[str]:
    """The lines of `text`, which end at a newline only: any other line
    break, a carriage return included, is an invalid character. Only an
    empty text or a lone newline is empty input."""
    lines = text.removesuffix("\n").split("\n")
    if lines == [""]:
        raise ParseError("empty input", 1)
    return lines


def parse_matrix(text: str) -> BitMatrix:
    """Parse the n-line matrix text format. The first line fixes n, or the
    number of lines if the first is blank; every line must then have
    exactly n characters from {'0','1'} and there must be exactly n lines."""
    lines = _lines(text)
    n = len(lines[0]) or len(lines)
    for i, line in enumerate(lines[:n]):
        _check_line(line, i + 1, n)
    if len(lines) != n:
        raise ParseError(f"expected {n} rows, found {len(lines)}", min(len(lines), n) + 1)
    return BitMatrix._of(_columns("".join(lines), n))


def serialize_matrix(a: BitMatrix) -> str:
    """Render a matrix in the text format, one newline-terminated line per row."""
    n = a.n
    flat = "".join([format(c, f"0{n}b") for c in a._cols])  # column-major, row n-1 first
    return "".join([flat[n - 1 - i :: n] + "\n" for i in range(n)])


def parse_vector(text: str) -> BitVector:
    """Parse the one-line vector text format."""
    lines = _lines(text)
    if len(lines) > 1:
        raise ParseError(f"expected a single line, found {len(lines)}", 2)
    line = lines[0]
    _check_line(line, 1, len(line))
    return BitVector._of(int(line[::-1], 2), len(line))


def serialize_vector(v: BitVector) -> str:
    return format(v._bits, f"0{v.n}b")[::-1] + "\n"

