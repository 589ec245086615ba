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
Only a search with an early-exit threshold runs the Gray-code minimum loop,
one word per step.

The weight counts and the subset search are bit-sliced block kernels.  A
block is 2^t words that share their high rows (or vertices); each
coordinate (or edge) holds one 2^t-bit column, bit q for the block's word
q, so that one big-int operation acts on every word of the block.  A
carry-save vertical counter sums the columns into bit planes of the
weights, from which a few more operations read the block's answer: the
weight histogram, or the least nonzero weight with the words that reach it.
A Gray walk over the high rows moves from block to block by complementing
the columns that one row touches.  The columns take at most 2^23 bits
(1 MB) in all, built on each call; the truth tables they start from are
built on first use.  A scan of at most 8 words per column walks one word
per Gray step instead, one XOR and one popcount per word, which costs less
than building the columns; the tests hold each kernel to its walk.

Each self-duality fact has one implementation.  A code builds its Gram
matrix at most once, beside its basis, and :func:`is_self_dual` adds
only the dimension test 2k = n.  On the hypergraph side the counting criterion for
connected graphs is :func:`structural_self_orthogonality` plus the edge
count m = 2n - 2, and that route counts the vertex pairs of each edge
instead of forming a matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations_with_replacement

from .gf2core import BitMatrix, gram, nullspace_basis, rref, set_bits
from .hypergraph import Hypergraph, is_connected
from .limits import check_enum_cap

# The columns of a block kernel, 2^t bits per coordinate (or edge), take at
# most 2^_TABLE_BITS bits in all, with t <= _BLOCK_BITS.  At 8 words per
# column or fewer, building the columns costs more than walking the words.
_TABLE_BITS = 23
_BLOCK_BITS = 14
_WALK_WORDS_PER_COLUMN = 8


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
    # The generator keeps its reduction (see ``gf2core.rref``), which
    # ``dual`` reads again instead of reducing the basis.
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
    check_enum_cap("codeword search", k)
    rows = code.basis.rows
    best = code.length + 1  # above every weight; basis combinations are nonzero
    acc = 0
    for i in range(1, 1 << k):
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

    Minimizes |eonv(S)| over the nonempty subsets S with eonv(S) nonempty,
    in the order of a Gray walk over the subsets: step i reaches the subset
    gray(i) = i ^ (i >> 1), one vertex away from the last.  The witness is
    the lexicographically smallest minimizer.  With ``early_exit`` the scan
    stops at the first subset of the walk with weight <= early_exit, and the
    result is an upper bound (``exact`` is False).

    A scan of more than 8 subsets per edge runs in bit-sliced blocks
    (:func:`_subset_blocks`); a smaller one walks one subset per step,
    which costs less there.  Both give the same result.
    """
    rows = hypergraph.vertex_rows
    if not any(rows):
        raise ValueError("the incidence matrix is zero; there is no nonzero codeword")
    check_enum_cap("subset search", hypergraph.num_vertices)
    if 1 << hypergraph.num_vertices <= _WALK_WORDS_PER_COLUMN * hypergraph.num_edges:
        return _subset_walk(hypergraph, early_exit)
    return _subset_blocks(hypergraph, early_exit)


def _subset_walk(hypergraph: Hypergraph, early_exit: int | None) -> DistanceResult:
    # One subset per step: one row XOR and one popcount.
    rows = hypergraph.vertex_rows
    # A nonzero row exists, so its singleton subset sets a real minimum.
    best_w = hypergraph.num_edges + 1
    best_wit: tuple[int, ...] = ()
    acc = 0
    for i in range(1, 1 << hypergraph.num_vertices):
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


def _subset_blocks(hypergraph: Hypergraph, early_exit: int | None) -> DistanceResult:
    """The subset search in blocks of 2^t subsets that share their high
    vertices (those >= t), with the result of :func:`_subset_walk`.

    Each edge gets a 2^t-bit column whose bit q is the parity of its
    intersection with the low subset gray(q).  A Gray walk over the high
    vertices complements, at each step, the columns of the edges at the
    vertex it toggles; a carry-save vertical counter sums the columns into
    bit planes, plane j holding bit j of every subset's weight, and the
    planes give the block's least nonzero weight with the positions that
    reach it.

    Within a block a greedy pass over the low vertices finds the
    lexicographically smallest minimizer: it keeps the candidates that
    contain each vertex whenever any do, and in the block without high
    vertices it first stops when the subset of the vertices chosen so far
    is still a candidate.  The walk over all vertices visits the positions
    of a block upwards after an even number of high steps and downwards
    after an odd one, so an early exit takes the lowest or the highest
    position with 0 < weight <= early_exit.
    """
    rows = hypergraph.vertex_rows
    n, m = hypergraph.num_vertices, hypergraph.num_edges
    t = max(0, min(n, _BLOCK_BITS, _TABLE_BITS - (m - 1).bit_length()))
    member = _gray_tables(t)
    full = (1 << (1 << t)) - 1
    columns = []
    for edge in hypergraph.edges:
        column = 0
        for v in edge:
            if v >= t:
                break
            column ^= member[v]
        columns.append(column)
    flips = [set_bits(row) for row in rows[t:]]
    levels = m.bit_length()
    # A nonzero row exists, so its singleton subset sets a real minimum.
    best_w = m + 1
    best_wit: tuple[int, ...] = ()
    for h in range(1 << (n - t)):
        if h:
            for p in flips[(h & -h).bit_length() - 1]:
                columns[p] ^= full
        # Carry-save vertical counter: level j holds an accumulated plane
        # and at most one plane waiting for a partner; a full adder of the
        # two and a new plane keeps the sum and carries the majority up.
        planes = [0] * levels
        waiting = [0] * levels
        for x in columns:
            j = 0
            while x:
                b = waiting[j]
                if not b:
                    waiting[j] = x
                    break
                waiting[j] = 0
                a = planes[j]
                u = a ^ b
                planes[j] = u ^ x
                x = (a & b) | (u & x)
                j += 1
        carry = nonzero = 0
        for j in range(levels):
            a, b = planes[j], waiting[j]
            u = a ^ b
            planes[j] = plane = u ^ carry
            carry = (a & b) | (u & carry)
            nonzero |= plane
        if not nonzero:
            continue
        # Least nonzero weight, read from the top plane down.
        cand = nonzero
        w = 0
        for j in reversed(range(levels)):
            one = cand & planes[j]
            if one == cand:
                w |= 1 << j
            else:
                cand ^= one
        if w > best_w:
            continue
        high = (h ^ (h >> 1)) << t
        if early_exit is not None and w <= early_exit:
            # Positions with weight <= bound, compared plane by plane from
            # the top; no weight exceeds m < 2^levels.
            bound = min(early_exit, m)
            above, equal = 0, full
            for j in reversed(range(levels)):
                if bound >> j & 1:
                    equal &= planes[j]
                else:
                    above |= equal & planes[j]
                    equal &= ~planes[j]
            hits = nonzero & ~above
            q = hits.bit_length() - 1 if h & 1 else (hits & -hits).bit_length() - 1
            w = sum((plane >> q & 1) << j for j, plane in enumerate(planes))
            return DistanceResult(w, False, set_bits(q ^ (q >> 1) | high))
        at = v = 0  # at: position of the subset of the low vertices chosen so far
        while cand & (cand - 1):
            if not high and cand >> at & 1:
                cand = 1 << at
                break
            has = cand & member[v]
            if has:
                cand = has
                at ^= (2 << v) - 1
            v += 1
        q = cand.bit_length() - 1
        witness = set_bits(q ^ (q >> 1) | high)
        if w < best_w or witness < best_wit:
            best_w, best_wit = w, witness
    return DistanceResult(best_w, True, best_wit)


@cache
def _gray_tables(t: int) -> tuple[int, ...]:
    # Entry v has bit q set when vertex v is in the subset gray(q).
    full = (1 << (1 << t)) - 1
    bit = [full // ((1 << (2 << v)) - 1) * (((1 << (1 << v)) - 1) << (1 << v)) for v in range(t)]
    bit.append(0)
    return tuple(bit[v] ^ bit[v + 1] for v in range(t))


def _dual_is_cheaper(code: LinearCode) -> bool:
    # The dual's words plus the transform and its elimination, against C's
    # words; n - k >= k fails it before any power of two is built.
    n, k = code.length, code.dimension
    return n - k < k and (1 << (n - k)) + n * n < (1 << k)


def _capped_weights(code: LinearCode, search: str) -> list[int]:
    # Both callers charge the one scan the same figure, the nonzero words of
    # the scanned side, each under its own name.
    n, k = code.length, code.dimension
    check_enum_cap(search, n - k if _dual_is_cheaper(code) else k)
    return code._weights


def _weight_counts(code: LinearCode) -> list[int]:
    """Counts of the 2^k codewords by weight 0..n.

    A code of more than 8 codewords per coordinate is counted in
    bit-sliced blocks (:func:`_count_blocks`); a smaller one is walked one
    codeword per step, which costs less there.
    """
    rows = code.basis.rows
    if not rows:
        # Not a list as long as the code, whose width no row uses.
        return [1]
    n = code.length
    if 1 << len(rows) <= _WALK_WORDS_PER_COLUMN * n:
        return _count_walk(rows, n)
    return _count_blocks(rows, n)


def _count_walk(rows: tuple[int, ...], n: int) -> list[int]:
    # One codeword per Gray step: one row XOR and one popcount.
    counts = [0] * (n + 1)
    counts[0] = 1
    acc = 0
    for i in range(1, 1 << len(rows)):
        acc ^= rows[(i & -i).bit_length() - 1]
        counts[acc.bit_count()] += 1
    return counts


def _count_blocks(rows: tuple[int, ...], n: int) -> list[int]:
    """The counts of :func:`_count_walk`, in blocks of 2^t codewords.

    The low t rows give each coordinate a 2^t-bit column whose bit q is
    that coordinate of the combination q of those rows.  A block adds one
    combination of the high rows, reached by a Gray walk that at each step
    complements the columns where the toggled row is set; a carry-save
    vertical counter sums the columns into bit planes, plane j holding bit
    j of every word's weight, and splitting the positions plane by plane
    reads off the block's histogram.
    """
    k = len(rows)
    t = max(0, min(k, _BLOCK_BITS, _TABLE_BITS - (n - 1).bit_length()))
    full = (1 << (1 << t)) - 1
    columns = [0] * n
    for row, table in zip(rows, _message_tables(t)):
        while row:
            p = row.bit_length() - 1
            columns[p] ^= table
            row ^= 1 << p
    flips = [set_bits(row) for row in rows[t:]]
    levels = n.bit_length()
    counts = [0] * (n + 1)
    for h in range(1 << (k - t)):
        if h:
            for p in flips[(h & -h).bit_length() - 1]:
                columns[p] ^= full
        # Level j keeps a sum plane and at most one plane waiting for a
        # partner; a full adder of both and a new plane carries the majority.
        planes = [0] * levels
        waiting = [0] * levels
        for x in columns:
            j = 0
            while x:
                b = waiting[j]
                if not b:
                    waiting[j] = x
                    break
                waiting[j] = 0
                a = planes[j]
                u = a ^ b
                planes[j] = u ^ x
                x = (a & b) | (u & x)
                j += 1
        carry = 0
        for j in range(levels):
            a, b = planes[j], waiting[j]
            u = a ^ b
            planes[j] = u ^ carry
            carry = (a & b) | (u & carry)
        groups = [(0, full)]  # (weight bits read so far, positions with them)
        for j in reversed(range(levels)):
            plane = planes[j]
            if plane:
                split = []
                for w, s in groups:
                    one = s & plane
                    if one:
                        split.append((w | 1 << j, one))
                    if one != s:
                        split.append((w, s ^ one))
                groups = split
        for w, s in groups:
            counts[w] += s.bit_count()
    return counts


@cache
def _message_tables(t: int) -> tuple[int, ...]:
    # Entry i has bit q set when message q uses basis row i.
    full = (1 << (1 << t)) - 1
    return tuple(full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i)) for i in range(t))


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
    """The dual code: all vectors orthogonal to every codeword.

    It is the null space of the generator, whose RREF has the same nonzero
    rows and pivots as the basis, so the generator's stored reduction serves
    it and the basis is never reduced.
    """
    return from_generator(nullspace_basis(code.generator))


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
    this route counts edges on purpose, independently of the matrix
    product: each edge toggles every pair u <= v of its vertices in one
    set, which ends up empty exactly when every count is even.
    """
    odd: set[tuple[int, int]] = set()
    for edge in hypergraph.edges:
        odd.symmetric_difference_update(combinations_with_replacement(edge, 2))
    return not odd


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
