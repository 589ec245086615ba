"""Binary linear codes from generator matrices, and the two distance engines.

A code is the row space of its generator matrix.  Two independent
minimum-distance engines are provided on purpose, each one function that
returns a :class:`DistanceResult`: :func:`codeword_distance_search`
enumerates the 2^k combinations of basis rows, and
:func:`eonv_distance_search` the 2^n vertex subsets of a hypergraph, rows of
its incidence matrix.  Their agreement on incidence codes is the core
correctness property of the package, so the two loops sit side by side and
share no code.  Both check their evaluation count against the one cap in
:mod:`hypercode.limits` before they start.

The exact codeword distance is the least nonzero weight of the weight
distribution: both read one list of counts by weight, scanned once per code.
When 2^(n-k) + n^2 < 2^k it comes from the 2^(n-k) words of C⊥ by the exact
MacWilliams identity (MacWilliams & Sloane, *The Theory of Error-Correcting
Codes*, ch. 5); the n^2 term stands for the second elimination and the
transform.  The cap counts the nonzero words of the side that is scanned.
Only a search with an early-exit threshold runs the Gray-code minimum loop.

Each self-duality fact has one implementation.  A code builds its Gram
matrix at most once, beside its basis, and :func:`is_self_dual` adds
only the dimension test 2k = n.  On the hypergraph side the counting criterion for
connected graphs is :func:`structural_self_orthogonality` plus the edge
count m = 2n - 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .gf2core import BitMatrix, gram, nullspace_basis, rref, set_bits
from .hypergraph import Hypergraph, edges_at, is_connected
from .limits import check_enum_cap


@dataclass(frozen=True)
class LinearCode:
    """A binary linear code presented by a generator matrix.

    The basis, the Gram test and the weight counts are each computed once,
    on first use; ``basis`` holds the nonzero RREF rows, which span the same
    row space with independent rows.
    """

    generator: BitMatrix

    # ``rref`` and ``gram`` are looked up in this module at call time, so the
    # benchmark's trace spans on ``codes.rref`` and ``codes.gram`` record them.
    @cached_property
    def basis(self) -> BitMatrix:
        reduced, pivots = rref(self.generator)
        return BitMatrix(len(pivots), self.generator.num_cols, reduced.rows[: len(pivots)])

    @cached_property
    def _gram_is_zero(self) -> bool:
        return gram(self.basis).is_zero

    @cached_property
    def _weights(self) -> list[int]:
        # Counts of the 2^k codewords, indexed by weight, from the cheaper side.
        if not _dual_is_cheaper(self):
            return _weight_counts(self)
        other = dual(self)
        return _macwilliams(_weight_counts(other), self.length, other.dimension)

    @property
    def length(self) -> int:
        return self.generator.num_cols

    @property
    def dimension(self) -> int:
        return self.basis.num_rows


def from_generator(matrix: BitMatrix) -> LinearCode:
    """Code generated by the rows of ``matrix``; the length must be positive."""
    if matrix.num_cols == 0:
        raise ValueError("a code needs at least one coordinate")
    return LinearCode(matrix)


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a minimum-distance search.

    ``exact`` is False when an early-exit threshold stopped the scan, in
    which case ``value`` is only an upper bound on the true distance.
    ``witness`` is the minimizing vertex subset when the subset engine ran.
    """

    value: int
    exact: bool
    witness: tuple[int, ...] | None = None


def codeword_distance_search(
    code: LinearCode, *, early_exit: int | None = None
) -> DistanceResult:
    """Minimum nonzero codeword weight by exhaustive message-space enumeration.

    Without ``early_exit`` the value is the least nonzero weight of the
    code's weight counts, the list :func:`weight_distribution` reads, scanned
    once per code.  With it, all 2^k - 1 nonzero messages are walked in
    Gray-code order, XORing one basis row per step, and the scan stops at
    the first weight <= early_exit with the result flagged as an upper
    bound.  Neither route shares code with the subset engine, so the two
    distance routes stay independently checkable.
    """
    k = code.dimension
    if k == 0:
        raise ValueError("the zero code has no nonzero codeword")
    if early_exit is None:
        counts = _capped_weights(code, "codeword search")
        return DistanceResult(next(w for w in range(1, len(counts)) if counts[w]), True)
    total = 1 << k
    check_enum_cap("codeword search", total - 1)
    rows = code.basis.rows
    best = code.length + 1  # above every weight; basis combinations are nonzero
    acc = 0
    for i in range(1, total):
        acc ^= rows[(i & -i).bit_length() - 1]
        w = acc.bit_count()
        if w < best:
            best = w
            if w <= early_exit:
                return DistanceResult(best, False)
    return DistanceResult(best, True)


def eonv_distance_search(
    hypergraph: Hypergraph, *, early_exit: int | None = None
) -> DistanceResult:
    """Minimum distance of the incidence code by vertex-subset enumeration.

    Minimizes |eonv(S)| over nonempty subsets S with eonv(S) nonempty.
    Walks the subset indices 1 .. 2^n - 1 in Gray-code order: index i
    denotes the subset gray(i) = i ^ (i >> 1), and consecutive indices
    differ in vertex (i & -i).bit_length() - 1, so each step is one row XOR
    and one popcount.  The witness is the lexicographically smallest
    minimizer.  With ``early_exit`` the scan stops at the first weight
    <= early_exit and the result is an upper bound (``exact`` is False).
    """
    rows = hypergraph.vertex_rows
    if not any(rows):
        raise ValueError("the incidence matrix is zero; there is no nonzero codeword")
    total = 1 << hypergraph.num_vertices
    check_enum_cap("subset search", total - 1)
    # A nonzero row exists, so its singleton subset sets a real minimum.
    best_w = hypergraph.num_edges + 1
    best_wit: tuple[int, ...] = ()
    acc = 0
    for i in range(1, total):
        acc ^= rows[(i & -i).bit_length() - 1]
        w = acc.bit_count()
        if w == 0:
            continue
        if w < best_w:
            best_w = w
            best_wit = set_bits(i ^ (i >> 1))
            if early_exit is not None and w <= early_exit:
                return DistanceResult(best_w, False, best_wit)
        elif w == best_w:
            mask = i ^ (i >> 1)
            if (mask & -mask).bit_length() - 1 <= best_wit[0]:
                candidate = set_bits(mask)
                if candidate < best_wit:
                    best_wit = candidate
    return DistanceResult(best_w, True, best_wit)


def _dual_is_cheaper(code: LinearCode) -> bool:
    # The dual's words plus the transform and its elimination, against C's
    # words; n - k >= k fails it before any power of two is built.
    n, k = code.length, code.dimension
    return n - k < k and (1 << (n - k)) + n * n < (1 << k)


def _capped_weights(code: LinearCode, search: str) -> list[int]:
    # Both callers charge the one scan the same figure, the nonzero words of
    # the scanned side, each under its own name.
    n, k = code.length, code.dimension
    check_enum_cap(search, (1 << (n - k if _dual_is_cheaper(code) else k)) - 1)
    return code._weights


def _weight_counts(code: LinearCode) -> list[int]:
    """Counts of the 2^k codewords by weight 0..n, by a Gray-code scan."""
    rows = code.basis.rows
    # The zero code gets [1]: a list as long as the code would cost memory
    # in proportion to a width that no row uses.
    counts = [0] * (code.length + 1 if rows else 1)
    counts[0] = 1
    acc = 0
    for i in range(1, 1 << code.dimension):
        acc ^= rows[(i & -i).bit_length() - 1]
        counts[acc.bit_count()] += 1
    return counts


def _macwilliams(dual_counts: list[int], n: int, k_dual: int) -> list[int]:
    """Weight counts of C from those of its dual, of dimension ``k_dual``.

    A_j = 2^-k_dual * sum_i B_i K_j(i), with the Krawtchouk values K_j(i)
    from the recurrence (j+1) K_{j+1} = (n-2i) K_j - (n-j+1) K_{j-1},
    K_0 = 1, in integers.  Raises ValueError when a sum is negative or not
    divisible by 2^k_dual, which no weight distribution of a dual code gives.
    """
    sums = [0] * (n + 1)
    for i, b in enumerate(dual_counts):
        if b:
            previous, current = 0, 1
            for j in range(n + 1):
                sums[j] += b * current
                following = ((n - 2 * i) * current - (n - j + 1) * previous) // (j + 1)
                previous, current = current, following
    size = 1 << k_dual
    for j, total in enumerate(sums):
        if total < 0 or total % size:
            raise ValueError(f"MacWilliams sum {total} for weight {j} is not a count times {size}")
    return [total >> k_dual for total in sums]


def weight_distribution(code: LinearCode) -> dict[int, int]:
    """Weight counts over all 2^k codewords (the zero word included).

    They come from the code's one list of counts, shared with
    :func:`codeword_distance_search`; the cap counts the scanned side's nonzero words.
    """
    counts = _capped_weights(code, "weight distribution")
    return {w: c for w, c in enumerate(counts) if c}


def dual(code: LinearCode) -> LinearCode:
    """The dual code: all vectors orthogonal to every codeword."""
    return from_generator(nullspace_basis(code.basis))


def is_self_orthogonal(code: LinearCode) -> bool:
    """Whether the code is contained in its dual (all pairwise products vanish).

    The Gram matrix of the basis is built on the first call for a code and
    its verdict reused after that.
    """
    return code._gram_is_zero


def is_self_dual(code: LinearCode) -> bool:
    """Whether the code equals its dual (self-orthogonal with dimension = length/2)."""
    return 2 * code.dimension == code.length and is_self_orthogonal(code)


def structural_self_orthogonality(hypergraph: Hypergraph) -> bool:
    """Self-orthogonality of the incidence code read off the hypergraph.

    True exactly when every vertex degree is even and every two distinct
    vertices lie in an even number of common edges.  Must agree with
    ``is_self_orthogonal(from_generator(incidence_matrix(hypergraph)))``;
    this route works with edge sets on purpose, independently of the
    matrix product.
    """
    n = hypergraph.num_vertices
    incident = [edges_at(hypergraph, u) for u in range(n)]
    if any(len(s) % 2 for s in incident):
        return False
    for u in range(n):
        for v in range(u + 1, n):
            if len(incident[u] & incident[v]) % 2:
                return False
    return True


def graph_self_duality_criterion(hypergraph: Hypergraph) -> bool:
    """Self-duality test for a connected graph, by counting alone.

    For a connected 2-uniform hypergraph with n vertices and m edges the
    incidence code is self-dual exactly when m = 2n - 2 and every pair of
    vertices (including each vertex with itself, i.e. even degrees) lies in
    an even number of common edges, which is
    :func:`structural_self_orthogonality`.  Must agree with
    ``is_self_dual`` of the incidence code.
    """
    if hypergraph.num_edges == 0:
        raise ValueError("the criterion needs at least one edge")
    if hypergraph.uniformity() != 2:
        raise ValueError("the criterion applies to 2-uniform hypergraphs only")
    if not is_connected(hypergraph):
        raise ValueError("the criterion applies to connected graphs only")
    n = hypergraph.num_vertices
    return hypergraph.num_edges == 2 * n - 2 and structural_self_orthogonality(hypergraph)
