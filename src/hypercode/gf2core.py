"""Packed-bit linear algebra over GF(2).

Vectors and matrix rows are Python integers used as bit sets: bit ``j``
holds coordinate ``j``, XOR is vector addition, and ``int.bit_count`` is
the Hamming weight.  Arbitrary-precision ints make the packing width a
non-issue while keeping the inner loops single machine operations per row.

Everything here is a pure function on immutable values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

def set_bits(bits: int) -> tuple[int, ...]:
    """Indices of the set bits of a non-negative int, in ascending order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


@dataclass(frozen=True)
class BitVector:
    """Fixed-length vector over GF(2), packed into one integer.

    Coordinate ``j`` lives in bit ``j`` of ``bits``, so a vector prints the
    same way it is written row-wise: ``BitVector.from_string("1000101")``
    has support ``(0, 4, 6)``.
    """

    length: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be non-negative")
        if not 0 <= self.bits < (1 << self.length):
            raise ValueError(f"bits 0x{self.bits:x} out of range for length {self.length}")

    @classmethod
    def from_bits(cls, values: Iterable[int]) -> "BitVector":
        bits = 0
        length = 0
        for v in values:
            if v not in (0, 1):
                raise ValueError(f"binary digit expected, got {v!r}")
            bits |= v << length
            length += 1
        return cls(length, bits)

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        """Parse a contiguous '0'/'1' string; string index = coordinate."""
        if not set(text) <= {"0", "1"}:
            raise ValueError(f"expected a string of '0'/'1', got {text!r}")
        return cls(len(text), int(text[::-1], 2) if text else 0)

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "BitVector":
        bits = 0
        for i in support:
            if not 0 <= i < length:
                raise IndexError(f"coordinate {i} out of range for length {length}")
            bits |= 1 << i
        return cls(length, bits)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(f"coordinate {index} out of range for length {self.length}")
        return (self.bits >> index) & 1

    def __iter__(self) -> Iterator[int]:
        return (((self.bits >> i) & 1) for i in range(self.length))

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch in vector addition")
        return BitVector(self.length, self.bits ^ other.bits)

    def __and__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch in coordinatewise product")
        return BitVector(self.length, self.bits & other.bits)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        return set_bits(self.bits)

    def dot(self, other: "BitVector") -> int:
        """Inner product over GF(2)."""
        if self.length != other.length:
            raise ValueError("length mismatch in inner product")
        return (self.bits & other.bits).bit_count() & 1

    def rotated(self, offset: int) -> "BitVector":
        """Cyclic shift: new coordinate ``j`` is old coordinate ``(j - offset) mod length``."""
        n = self.length
        if n == 0:
            return self
        s = offset % n
        if s == 0:
            return self
        mask = (1 << n) - 1
        return BitVector(n, ((self.bits << s) | (self.bits >> (n - s))) & mask)

    def to01(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.length))

    def __str__(self) -> str:
        return self.to01()


@dataclass(frozen=True)
class BitMatrix:
    """Dense binary matrix; each row packed as an integer (bit ``j`` = column ``j``).

    Empty matrices (zero rows or zero columns) are legal; degenerate inputs
    must not crash the callers that generate families of them.
    """

    num_rows: int
    num_cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.num_rows < 0 or self.num_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.rows) != self.num_rows:
            raise ValueError(f"expected {self.num_rows} rows, got {len(self.rows)}")
        limit = 1 << self.num_cols
        for i, r in enumerate(self.rows):
            if not 0 <= r < limit:
                raise ValueError(f"row {i} out of range for {self.num_cols} columns")

    @classmethod
    def from_rows(cls, vectors: Sequence[BitVector], num_cols: int | None = None) -> "BitMatrix":
        if vectors:
            width = vectors[0].length
            if num_cols is not None and num_cols != width:
                raise ValueError("num_cols disagrees with row length")
            if any(v.length != width for v in vectors):
                raise ValueError("rows must all have the same length")
            return cls(len(vectors), width, tuple(v.bits for v in vectors))
        return cls(0, 0 if num_cols is None else num_cols, ())

    @classmethod
    def from_lists(cls, rows: Sequence[Sequence[int]], num_cols: int | None = None) -> "BitMatrix":
        vectors = [BitVector.from_bits(r) for r in rows]
        return cls.from_rows(vectors, num_cols)

    @classmethod
    def from_strings(cls, lines: Sequence[str], num_cols: int | None = None) -> "BitMatrix":
        return cls.from_rows([BitVector.from_string(s) for s in lines], num_cols)

    @classmethod
    def zeros(cls, num_rows: int, num_cols: int) -> "BitMatrix":
        return cls(num_rows, num_cols, (0,) * num_rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    def row(self, index: int) -> BitVector:
        if not 0 <= index < self.num_rows:
            raise IndexError(f"row {index} out of range")
        return BitVector(self.num_cols, self.rows[index])

    def entry(self, i: int, j: int) -> int:
        if not 0 <= i < self.num_rows:
            raise IndexError(f"row {i} out of range")
        if not 0 <= j < self.num_cols:
            raise IndexError(f"column {j} out of range")
        return (self.rows[i] >> j) & 1

    def iter_rows(self) -> Iterator[BitVector]:
        return (BitVector(self.num_cols, r) for r in self.rows)

    def transpose(self) -> "BitMatrix":
        cols = []
        for j in range(self.num_cols):
            bits = 0
            for i, r in enumerate(self.rows):
                bits |= ((r >> j) & 1) << i
            cols.append(bits)
        return BitMatrix(self.num_cols, self.num_rows, tuple(cols))

    @property
    def is_zero(self) -> bool:
        return not any(self.rows)

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.num_cols)] for r in self.rows]

    def to_strings(self) -> list[str]:
        return [BitVector(self.num_cols, r).to01() for r in self.rows]


def rref(matrix: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row-echelon form over GF(2).

    Pivot selection is deterministic (lowest row index holding a 1 in the
    leftmost unresolved column), so the output is reproducible across runs.

    Returns:
        (R, pivots): R is the unique RREF with the same row space as the
        input; pivots are the strictly increasing pivot column indices, and
        the first ``len(pivots)`` rows of R are its nonzero rows.
    """
    rows = list(matrix.rows)
    pivots: list[int] = []
    pivot_row = 0
    for col in range(matrix.num_cols):
        if pivot_row == len(rows):
            break
        bit = 1 << col
        src = next((i for i in range(pivot_row, len(rows)) if rows[i] & bit), None)
        if src is None:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        piv = rows[pivot_row]
        for i in range(len(rows)):
            if i != pivot_row and rows[i] & bit:
                rows[i] ^= piv
        pivots.append(col)
        pivot_row += 1
    return BitMatrix(matrix.num_rows, matrix.num_cols, tuple(rows)), tuple(pivots)


def rank(matrix: BitMatrix) -> int:
    """Rank over GF(2), equal to the dimension of the row space."""
    return len(rref(matrix)[1])


def nullspace_basis(matrix: BitMatrix) -> BitMatrix:
    """Basis of the right null space {v : M v = 0 over GF(2)}.

    Returns one basis row per free column of the RREF, ordered by free
    column index, so the row count is ``num_cols - rank(matrix)``.
    """
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for free in range(matrix.num_cols):
        if free in pivot_set:
            continue
        v = 1 << free
        for i, p in enumerate(pivots):
            if (reduced.rows[i] >> free) & 1:
                v |= 1 << p
        basis.append(v)
    return BitMatrix(len(basis), matrix.num_cols, tuple(basis))


def gram(matrix: BitMatrix) -> BitMatrix:
    """The product M Mᵀ over GF(2).

    Entry (u, v) is the parity of the overlap between rows u and v, so the
    result is zero exactly when all rows have even weight and pairwise even
    intersections.
    """
    n = matrix.num_rows
    out = [0] * n
    for u in range(n):
        ru = matrix.rows[u]
        for v in range(u, n):
            if (ru & matrix.rows[v]).bit_count() & 1:
                out[u] |= 1 << v
                out[v] |= 1 << u
    return BitMatrix(n, n, tuple(out))


def row_space_equal(a: BitMatrix, b: BitMatrix) -> bool:
    """Whether two matrices span the same row space."""
    if a.num_cols != b.num_cols:
        raise ValueError(
            f"cannot compare row spaces of width {a.num_cols} and {b.num_cols}"
        )
    ra, pa = rref(a)
    rb, pb = rref(b)
    return ra.rows[: len(pa)] == rb.rows[: len(pb)]


def row_combination(matrix: BitMatrix, indices: Iterable[int]) -> BitVector:
    """GF(2) sum of the selected rows; an empty selection gives the zero vector.

    The selection is a set: repeated indices are counted once.
    """
    acc = 0
    for i in set(indices):
        if not 0 <= i < matrix.num_rows:
            raise IndexError(f"row {i} out of range")
        acc ^= matrix.rows[i]
    return BitVector(matrix.num_cols, acc)


def matvec(matrix: BitMatrix, vector: BitVector) -> BitVector:
    """Matrix-vector product M v over GF(2)."""
    if vector.length != matrix.num_cols:
        raise ValueError("vector length must equal the column count")
    bits = 0
    for i, r in enumerate(matrix.rows):
        bits |= ((r & vector.bits).bit_count() & 1) << i
    return BitVector(matrix.num_rows, bits)


_DECIMAL = re.compile(r"0|[1-9][0-9]*")


def format_matrix(matrix: BitMatrix) -> str:
    """Serialize to the matrix text format.

    First line ``<num_rows> <num_cols>``, then one line per row of
    contiguous '0'/'1' characters.  Round-trips bit-exactly through
    :func:`parse_matrix`.
    """
    lines = [f"{matrix.num_rows} {matrix.num_cols}"]
    lines.extend(matrix.to_strings())
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> BitMatrix:
    """Parse the matrix text format produced by :func:`format_matrix`.

    The text must be ASCII and both header tokens plain decimal integers,
    ``0|[1-9][0-9]*``, the rule :func:`hypercode.hypergraph.parse_hypergraph`
    applies to its tokens.  ``int`` alone would also take ``+2``, ``0_2``
    and non-ASCII digits, and ``str.strip`` non-ASCII spaces.
    """
    if not text.isascii():
        raise ValueError("matrix text must be ASCII")
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"matrix header must be '<rows> <cols>', got {lines[0]!r}")
    if not all(_DECIMAL.fullmatch(token) for token in header):
        raise ValueError(
            f"matrix header must be two plain decimal integers, 0|[1-9][0-9]*, got {lines[0]!r}"
        )
    num_rows, num_cols = int(header[0]), int(header[1])
    data = lines[1 : 1 + num_rows]
    if len(data) < num_rows:
        raise ValueError(f"expected {num_rows} row lines, found {len(data)}")
    for extra in lines[1 + num_rows :]:
        if extra.strip():
            raise ValueError(f"unexpected trailing content: {extra!r}")
    rows = []
    for i, line in enumerate(data):
        line = line.strip()
        if len(line) != num_cols or not set(line) <= {"0", "1"}:
            raise ValueError(f"row {i} must be {num_cols} characters of '0'/'1', got {line!r}")
        rows.append(int(line[::-1], 2) if line else 0)
    return BitMatrix(num_rows, num_cols, tuple(rows))
