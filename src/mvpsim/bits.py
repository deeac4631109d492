"""Boolean matrix and vector values, the brute-force product oracle, and
bit-exact text serialization.

The oracle is the definitional triple loop over Boolean AND and OR. It is
deliberately naive, with no bit packing and no early exits, so that it is
obviously correct; every machine backend is checked against it.

Text formats: a matrix is n newline-terminated lines of n characters from
{'0','1'}, line i holding row i. A vector is a single such line. Lines and
columns in diagnostics are numbered from 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterable, Iterator, Sequence

_VALID_CHARS = frozenset("01")
_BIT_VALUES = frozenset((0, 1))
_INT_TYPE = frozenset((int,))
# Byte tables between the bits 0/1 and the text digits '0'/'1'.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _mask(bits: Sequence[int]) -> int:
    """The int whose bit k is bits[k] (0/1 ints)."""
    return int(bytes(bits).translate(_DIGITS)[::-1], 2)


def _flags(mask: int, n: int) -> bytes:
    """Byte k is bit k of `mask` (0/1), for k < n: the inverse of _mask."""
    return bin(mask)[:1:-1].ljust(n, "0").encode().translate(_BITS)


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


def _as_bits(values: Iterable[int], what: str) -> tuple[int, ...]:
    """Entries as a tuple of 0/1 ints. Bools become 0/1; anything else
    that is not the int 0 or 1 (1.0, "1", None, 2) raises ValueError."""
    out = tuple(values)
    if set(map(type, out)) <= _INT_TYPE and set(out) <= _BIT_VALUES:
        return out
    return tuple(_as_bit(v, what) for v in out)


def _as_bit(v: object, what: str) -> int:
    if type(v) is bool or (type(v) is int and v in _BIT_VALUES):
        return int(v)
    raise ValueError(f"{what} must be 0 or 1, got {v!r}")


def _random_rows(rows: int, n: int, rng: Random, density: float) -> tuple[tuple[int, ...], ...]:
    """`rows` tuples of n exact 0/1 ints, drawn row-major, each 1 with probability `density`."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 0 <= density <= 1:  # also rejects NaN
        raise ValueError(f"density must be in [0, 1], got {density}")
    return tuple(tuple(1 if rng.random() < density else 0 for _ in range(n)) for _ in range(rows))


@dataclass(frozen=True)
class BitVector:
    """An n-dimensional Boolean column vector, n >= 1. Immutable."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = _as_bits(self.coords, "vector coordinate")
        if not coords:
            raise ValueError("empty vectors are not supported (n >= 1)")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def _of(cls, coords: tuple[int, ...]) -> "BitVector":
        """A vector over `coords`, n >= 1 int 0/1 built from validated values."""
        v = object.__new__(cls)
        object.__setattr__(v, "coords", coords)
        return v

    @property
    def n(self) -> int:
        return len(self.coords)

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls((0,) * n)

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls((1,) * n)

    @classmethod
    def random(cls, n: int, rng: Random, density: float = 0.5) -> "BitVector":
        """Each coordinate is 1 independently with probability `density`,
        which must lie in [0, 1]."""
        return cls._of(_random_rows(1, n, rng, density)[0])

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]


@dataclass(frozen=True)
class BitMatrix:
    """A square n x n Boolean matrix, n >= 1, stored row-major. Immutable."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(_as_bits(r, "matrix entry") for r in self.rows)
        if not rows:
            raise ValueError("empty matrices are not supported (n >= 1)")
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(
                    f"row {i + 1} has {len(row)} entries, expected {n} "
                    "(matrix must be square)"
                )
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _of(cls, rows: tuple[tuple[int, ...], ...]) -> "BitMatrix":
        """A matrix over `rows`, n >= 1 tuples of n int 0/1 built from validated values."""
        a = object.__new__(cls)
        object.__setattr__(a, "rows", rows)
        return a

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, n: int) -> "BitMatrix":
        return cls(((0,) * n,) * n)

    @classmethod
    def ones(cls, n: int) -> "BitMatrix":
        return cls(((1,) * n,) * n)

    @classmethod
    def random(cls, n: int, rng: Random, density: float = 0.5) -> "BitMatrix":
        """Each cell is 1 independently with probability `density`, which
        must lie in [0, 1]."""
        return cls._of(_random_rows(n, n, rng, density))

    @classmethod
    def from_columns(cls, columns: Sequence[BitVector]) -> "BitMatrix":
        """Assemble a matrix whose j-th column is `columns[j]`."""
        n = len(columns)
        if not n:
            raise ValueError("empty matrices are not supported (n >= 1)")
        for j, col in enumerate(columns):
            if col.n != n:
                raise DimensionError(
                    f"column {j + 1} has {col.n} coordinates, expected {n}"
                )
        return cls._of(tuple(zip(*(col.coords for col in columns))))

    def row(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def column(self, j: int) -> BitVector:
        return BitVector._of(tuple(row[j] for row in self.rows))

    def columns(self) -> Iterator[BitVector]:
        return map(BitVector._of, zip(*self.rows))


def oracle_matvec(a: BitMatrix, v: BitVector) -> BitVector:
    """Definitional Boolean matrix-vector product: out[i] = OR_j (a[i][j] AND v[j]).

    Pure reference implementation; scans every j with no early exit.
    """
    if a.n != v.n:
        raise DimensionError(
            f"matrix is {a.n}x{a.n} but vector has {v.n} coordinates"
        )
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
    if a.n != b.n:
        raise DimensionError(f"matrix dimensions differ: {a.n} vs {b.n}")
    return BitMatrix.from_columns([oracle_matvec(a, col) for col in b.columns()])


def _parse_line(line: str, lineno: int, expected_len: int) -> tuple[int, ...]:
    if len(line) != expected_len:
        raise ParseError(
            f"expected {expected_len} characters, found {len(line)}", lineno
        )
    if line.strip("01"):  # some character is not a digit: find the first
        for k, ch in enumerate(line):
            if ch not in _VALID_CHARS:
                raise ParseError(f"invalid character {ch!r}", lineno, k + 1)
    return tuple(line.encode("ascii").translate(_BITS))


def parse_matrix(text: str) -> BitMatrix:
    """Parse the n-line matrix text format. The first line fixes n; every
    line must then have exactly n characters from {'0','1'} and there must
    be exactly n lines."""
    lines = text.splitlines()
    if not lines or lines[0] == "":
        raise ParseError("empty input", 1)
    n = len(lines[0])
    rows = []
    for i, line in enumerate(lines[:n]):
        rows.append(_parse_line(line, i + 1, n))
    if len(lines) != n:
        raise ParseError(f"expected {n} rows, found {len(lines)}", min(len(lines), n) + 1)
    return BitMatrix._of(tuple(rows))


def serialize_matrix(a: BitMatrix) -> str:
    """Render a matrix in the text format, one newline-terminated line per row."""
    return "".join(_render(row) + "\n" for row in a.rows)


def parse_vector(text: str) -> BitVector:
    """Parse the one-line vector text format."""
    lines = text.splitlines()
    if not lines or lines[0] == "":
        raise ParseError("empty input", 1)
    if len(lines) > 1:
        raise ParseError(f"expected a single line, found {len(lines)}", 2)
    return BitVector._of(_parse_line(lines[0], 1, len(lines[0])))


def serialize_vector(v: BitVector) -> str:
    return _render(v.coords) + "\n"


def _render(bits: tuple[int, ...]) -> str:
    """The digits of validated 0/1 bits, as one line without its newline."""
    return bytes(bits).translate(_DIGITS).decode("ascii")
