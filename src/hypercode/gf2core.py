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
from typing import Iterable, Sequence

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
    def from_string(cls, text: str) -> "BitVector":
        """Parse a contiguous '0'/'1' string; string index = coordinate."""
        if not set(text) <= {"0", "1"}:
            raise ValueError(f"expected a string of '0'/'1', got {text!r}")
        return cls(len(text), int(text[::-1], 2) if text else 0)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        return set_bits(self.bits)

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
        # By bit length: 1 << num_cols would cost memory in proportion to a
        # declared width that no row needs to use.
        for i, r in enumerate(self.rows):
            if r < 0 or r.bit_length() > self.num_cols:
                raise ValueError(f"row {i} out of range for {self.num_cols} columns")

    @classmethod
    def from_strings(cls, lines: Sequence[str]) -> "BitMatrix":
        """One row per '0'/'1' string, read as :meth:`BitVector.from_string` reads it."""
        vectors = [BitVector.from_string(s) for s in lines]
        width = vectors[0].length if vectors else 0
        if any(v.length != width for v in vectors):
            raise ValueError("rows must all have the same length")
        return cls(len(vectors), width, tuple(v.bits for v in vectors))

    def transpose(self) -> "BitMatrix":
        cols = [0] * self.num_cols
        for i, r in enumerate(self.rows):
            for j in set_bits(r):
                cols[j] |= 1 << i
        return BitMatrix(self.num_cols, self.num_rows, tuple(cols))

    @property
    def is_zero(self) -> bool:
        return not any(self.rows)

    def to_strings(self) -> list[str]:
        return [BitVector(self.num_cols, r).to01() for r in self.rows]


def rref(matrix: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row-echelon form over GF(2).

    Returns:
        (R, pivots): R is the unique RREF with the same row space as the
        input; pivots are the strictly increasing pivot column indices, and
        the first ``len(pivots)`` rows of R are its nonzero rows.
    """
    basis: dict[int, int] = {}  # pivot bit (lowest set bit) -> reduced row
    for row in matrix.rows:
        for bit, reduced in basis.items():
            if row & bit:
                row ^= reduced
        if row:
            low = row & -row
            for bit, reduced in basis.items():
                if reduced & low:
                    basis[bit] = reduced ^ row
            basis[low] = row
    bits = sorted(basis)
    rows = tuple(basis[bit] for bit in bits) + (0,) * (matrix.num_rows - len(bits))
    pivots = tuple(bit.bit_length() - 1 for bit in bits)
    return BitMatrix(matrix.num_rows, matrix.num_cols, rows), pivots


def rank(matrix: BitMatrix) -> int:
    """Rank over GF(2), equal to the dimension of the row space."""
    return len(rref(matrix)[1])


def nullspace_basis(matrix: BitMatrix) -> BitMatrix:
    """Basis of the right null space {v : M v = 0 over GF(2)}.

    Returns one basis row per free column of the RREF, ordered by free
    column index, so the row count is ``num_cols - rank(matrix)``.  The row
    of free column f has bit f, no other free-column bit, and the pivot bit
    of every RREF row holding a 1 in column f.
    """
    reduced, pivots = rref(matrix)
    pivot_mask = sum(1 << p for p in pivots)
    free = set_bits(((1 << matrix.num_cols) - 1) & ~pivot_mask)
    basis = {f: 1 << f for f in free}
    for row, p in zip(reduced.rows, pivots):
        for f in set_bits(row & ~pivot_mask):
            basis[f] |= 1 << p
    return BitMatrix(len(basis), matrix.num_cols, tuple(basis.values()))


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


_DECIMAL = re.compile(r"0|[1-9][0-9]*")
_NOT_TEXT = re.compile(r"[^\t\n -~]")


def split_lines(text: str, rule: str) -> list[str]:
    r"""The lines of an input text; both text formats are read through it.

    The text may hold printable ASCII, tabs and line breaks only.  Lines
    split on ``\n`` alone; a ``\r`` directly before it is dropped, so CRLF
    files read like LF files, and a final ``\n`` starts no empty line.
    Tokens are then separated by spaces and tabs only, where
    ``str.splitlines`` and ``str.split`` would also break at ``\x0b``,
    ``\x0c``, ``\x1c``-``\x1f`` and non-ASCII separators.  Any other
    character raises ``ValueError`` led by ``rule``, which states the
    format's rule in its own terms.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    bad = _NOT_TEXT.search(text)
    if bad:
        line = text.count("\n", 0, bad.start()) + 1
        raise ValueError(f"{rule}; found {bad.group()!r} on line {line}")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


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
    r"""Parse the matrix text format produced by :func:`format_matrix`.

    Lines are read by :func:`split_lines`: ASCII only, split on ``\n`` (CRLF
    accepted), no control character but tab.  Both header tokens must be
    plain decimal integers, ``0|[1-9][0-9]*``, the rule
    :func:`hypercode.hypergraph.parse_hypergraph` applies to its tokens.
    ``int`` alone would also take ``+2``, ``0_2`` and non-ASCII digits.
    """
    lines = split_lines(text, "matrix text must be ASCII with tab as its only control character")
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
