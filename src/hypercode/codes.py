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

    The basis and the Gram test are each computed once, on first use;
    ``basis`` holds the nonzero RREF rows, which span the same row space
    with independent rows.
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

    Walks all 2^k - 1 nonzero messages in Gray-code order, XORing one basis
    row per step.  With ``early_exit`` the scan stops at the first weight
    <= early_exit and the result is flagged as an upper bound.  The loop is
    kept separate from the subset engine so the two distance routes stay
    independently checkable.
    """
    k = code.dimension
    if k == 0:
        raise ValueError("the zero code has no nonzero codeword")
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
            if early_exit is not None and w <= early_exit:
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


def weight_distribution(code: LinearCode) -> dict[int, int]:
    """Weight counts over all 2^k codewords (the zero word included)."""
    k = code.dimension
    total = 1 << k
    check_enum_cap("weight distribution", total)
    rows = code.basis.rows
    counts = {0: 1}
    acc = 0
    for i in range(1, total):
        acc ^= rows[(i & -i).bit_length() - 1]
        w = acc.bit_count()
        counts[w] = counts.get(w, 0) + 1
    return dict(sorted(counts.items()))


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
