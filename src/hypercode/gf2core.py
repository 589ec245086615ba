"""Packed-bit linear algebra over GF(2).

Vectors and matrix rows are Python integers used as bit sets: bit ``j``
holds coordinate ``j``, XOR is vector addition, and ``int.bit_count`` is
the Hamming weight.  A row's text is its '0'/'1' string, string index =
coordinate; :func:`parse_row` reads it and :func:`format_row` writes it;
the matrix text format built on it is in :mod:`hypercode.textformat`.
Arbitrary-precision ints make the packing width a non-issue while keeping
the inner loops single machine operations per row.

Everything here is a pure function on immutable values, with one
exception: a matrix keeps its own reduction.  :func:`rref` computes a
matrix's reduced row-echelon form at most once and stores it on the
matrix; every elimination route (:func:`rank`, :func:`nullspace_basis`,
:func:`row_space_equal`, a code's basis and its dual) reads that one
result.  The stored pair is not a field, so equality, hashing and
``repr`` ignore it.
"""

from __future__ import annotations

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


def parse_row(text: str) -> int:
    """The packed row of a '0'/'1' string: ``parse_row("1000101")`` has bits 0, 4 and 6."""
    if not set(text) <= {"0", "1"}:
        raise ValueError(f"expected a string of '0'/'1', got {text!r}")
    return int(text[::-1], 2) if text else 0


def format_row(bits: int, length: int) -> str:
    """The '0'/'1' string of a packed row of ``length`` bits; inverse of :func:`parse_row`."""
    if bits < 0 or bits.bit_length() > length:
        raise ValueError(f"bits 0x{bits:x} out of range for length {length}")
    return format(bits, f"0{length}b")[::-1] if length else ""


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
        """One row per '0'/'1' string, each read by :func:`parse_row`."""
        rows = tuple(parse_row(s) for s in lines)
        if len({len(s) for s in lines}) > 1:
            raise ValueError("rows must all have the same length")
        return cls(len(rows), len(lines[0]) if lines else 0, rows)

    def transpose(self) -> "BitMatrix":
        """The matrix with rows and columns exchanged, in time linear in its cells.

        Column j is read as the string of bit j of every row, last row
        first, so ``int(..., 2)`` puts row i at bit i; walking each row's
        set bits would cost one big-int step, as wide as the row, per bit.
        """
        if not (self.num_rows and self.num_cols):
            return BitMatrix(self.num_cols, self.num_rows, (0,) * self.num_cols)
        lines = [format(r, f"0{self.num_cols}b") for r in reversed(self.rows)]
        cols = [int("".join(col), 2) for col in zip(*lines)]
        return BitMatrix(self.num_cols, self.num_rows, tuple(reversed(cols)))

    @property
    def is_zero(self) -> bool:
        return not any(self.rows)

    def to_strings(self) -> list[str]:
        return [format_row(r, self.num_cols) for r in self.rows]


# The key under which a matrix keeps its reduction, outside its fields.
_REDUCTION = "_rref"


def rref(matrix: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row-echelon form over GF(2), computed once per matrix.

    Returns:
        (R, pivots): R is the unique RREF with the same row space as the
        input; pivots are the strictly increasing pivot column indices, and
        the first ``len(pivots)`` rows of R are its nonzero rows.

    The first call on a matrix stores the pair on it; later calls on the same
    matrix return that same pair.
    """
    known = matrix.__dict__.get(_REDUCTION)
    if known is not None:
        return known
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
    known = (BitMatrix(matrix.num_rows, matrix.num_cols, rows), pivots)
    matrix.__dict__[_REDUCTION] = known
    return known


def rank(matrix: BitMatrix) -> int:
    """Rank over GF(2), equal to the dimension of the row space."""
    return len(rref(matrix)[1])


def nullspace_basis(matrix: BitMatrix) -> BitMatrix:
    """Basis of the right null space {v : M v = 0 over GF(2)}.

    Returns one basis row per free column of the RREF, ordered by free
    column index, so the row count is ``num_cols - rank(matrix)``.  The row
    of free column f has bit f, no other free-column bit, and the pivot bit
    of every RREF row holding a 1 in column f.  It reads the matrix's one
    stored reduction (see :func:`rref`).
    """
    reduced, pivots = rref(matrix)
    pivot_mask = sum(1 << p for p in pivots)
    # One step per column from the pivot set.  Each row's free bits are
    # taken from the top down, so the row shrinks as it is read: set_bits
    # takes them from the bottom, each step an operation as wide as the row.
    pivot_set = set(pivots)
    basis = {f: 1 << f for f in range(matrix.num_cols) if f not in pivot_set}
    free_mask = ~pivot_mask
    for row, p in zip(reduced.rows, pivots):
        bit = 1 << p
        row &= free_mask
        while row:
            f = row.bit_length() - 1
            basis[f] |= bit
            row ^= 1 << f
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
    """Whether two matrices span the same row space.

    Each matrix is reduced at most once (see :func:`rref`), and ``b`` not at
    all when it has fewer rows than ``a`` has rank, since it cannot span
    ``a``'s row space then.
    """
    if a.num_cols != b.num_cols:
        raise ValueError(
            f"cannot compare row spaces of width {a.num_cols} and {b.num_cols}"
        )
    ra, pa = rref(a)
    if b.num_rows < len(pa):
        return False
    rb, pb = rref(b)
    return ra.rows[: len(pa)] == rb.rows[: len(pb)]


def row_combination(matrix: BitMatrix, indices: Iterable[int]) -> int:
    """GF(2) sum of the selected rows, packed; an empty selection gives 0.

    The selection is a set: repeated indices are counted once.
    """
    acc = 0
    for i in set(indices):
        if not 0 <= i < matrix.num_rows:
            raise IndexError(f"row {i} out of range")
        acc ^= matrix.rows[i]
    return acc
