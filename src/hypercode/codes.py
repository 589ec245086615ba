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
Its side is decided once per code, as ``LinearCode._side``, the bits of the
words it scans: k, or n - k when 2^(n-k) + n^2 < 2^k.  The list then comes
from the 2^(n-k) words of C⊥ by the exact MacWilliams identity (MacWilliams
& Sloane, *The Theory of Error-Correcting Codes*, ch. 5),
2^(n-k) A_j = sum_i B_i K_j(i), and the n^2 term stands for the transform.
C⊥ is counted over the null-space rows that the generator's one reduction
gives, with no second elimination.  The Krawtchouk sums come from one of
two transforms, picked by n and the number D of nonzero weights of C⊥,
both known before either runs.  When n^2 < 2048 (D - 4), the sums
are the coefficients of sum_i B_i (1 - X)^i (1 + X)^(n-i), packed into one
integer at X = 2^b (Kronecker substitution) and summed by Horner's rule,
each factor one shift and one addition, and read back lane by lane.
Otherwise the three-term recurrence of K_j(i) runs in integers, n + 1 steps
per dual weight, which costs less for few weights or long codes, where the
packed integers grow to n^2 bits.

A third exact side walks the twin classes of the generator's r rows.  Rows
are twins when exchanging them maps the multiset of the columns to itself
(for an incidence matrix, vertices whose exchange maps the edge multiset to
itself); every permutation within a class then does, so a word's weight
depends only on its count vector a, the a_i rows it takes from class c_i,
and A_w = 2^-(r-k) sum prod_i C(|c_i|, a_i) over the vectors of weight w,
one row XOR and one popcount per vector.  One rule picks it: when the
side of ``_side`` spans several count-kernel blocks (over 2^15 words), the
classes are detected, and the walk runs when its prod_i (|c_i| + 1)
vectors, at 64 kernel words each, cost less than that side's words.
``complete_3partite(n)``, three classes of n, takes (n + 1)^3 vectors
instead of 2^(3n-2) words.  The cap counts the nonzero words of the side
of ``_side``, whichever route then runs.

The weight counts and the subset search are bit-sliced block kernels.  A
block is 2^t words that share their high rows (or vertices), with t <= 15
in the weight counts and t <= 16 in the subset search; each coordinate
(or edge) holds one 2^t-bit column, bit q for the block's word q, so that
one big-int operation acts on every word of the block.  A
carry-save vertical counter sums the columns into bit planes of the
weights, from which a few more operations read the block's answer: the
count of each weight, split plane by plane from the top and read at the
lowest nonzero plane by popcounts, or the least nonzero weight with the
words that reach it.
The subset search moves from block to block by a Gray walk over the high
vertices, complementing the columns of the edges at the vertex it toggles.
Over several blocks it sums the copies of an edge once, adding one column
at the level of each set bit of their number.
A subset search that spans several blocks (n > t) first finds the vertex
dependencies, the subsets D with eonv(D) empty, by an elimination of its
own.  They form a space of dimension n - k, and the kernel scans one
subset per coset, the 2^k subsets that avoid one pivot vertex per
dependency (all 2^n if there is none), on the hypergraph's edges cut to
those vertices.  A greedy over the dependencies turns each minimum word's
scanned subset into the smallest member of its coset, the witness of the
full scan.  A search of one block scans all 2^n subsets.  The cap counts
2^n - 1 subsets on every route.
The weight counts read a weight as a sum over the generator's columns
(MacWilliams & Sloane, ch. 5): the coordinates fall into classes by their
pattern over the high rows, and a block complements a whole class or none
of it.  So each class is summed once, into the bit planes of S and of
|class| - S, and the blocks' sums over the classes are a Walsh-Hadamard
transform (ch. 14), taken by halving over the K high rows: about K * 2^K
class additions for the 2^K blocks.  A coordinate's column over the low
rows is the XOR of three lookups in Four Russians tables (Arlazarov et
al., 1970), one per third of the low rows, instead of one XOR per row it
has.  A code that holds the all-ones word, as every hypergraph whose
edges all have odd size gives, has A_w = A_{n-w}, and its blocks count
only the half spanned by all basis rows but the last.  The columns, or
the sums that the kernel holds at once, take at most 2^23 bits (1 MB),
built on each call; the truth tables they start from, and for each t the
count kernel's 2^c-entry table for each third of its low rows (c <= 5;
384 KB at t = 15), are built on first use and kept.  A scan of at most 8
words per column walks one word per Gray step instead, one XOR and one
popcount per word, which costs less than building the columns; the tests
hold each kernel to its walk.

Both engines stop early by one rule.  With a threshold T, a search stops
after the first block, in its scan order, whose least nonzero weight is
<= T, and reports that weight flagged inexact; the subset engine's witness
is then the smallest subset whose eonv is one of that block's minimum
words.  A route that scans one block or none (a per-word walk, a subset
scan of one block, the dual side, the twin walk) is read whole, and
reports the distance d, exact exactly when d > T.  So on every route the
result is exact exactly when d > T, and an inexact value v has d <= v <= T.

Each self-duality fact has one implementation.  A code builds its Gram
matrix at most once, beside its basis, and none above rate 1/2: a code
inside its dual has k <= n - k (MacWilliams & Sloane, ch. 19), so when
2k > n the rate alone answers.  :func:`is_self_dual` adds only the
dimension test 2k = n.  On the hypergraph side the counting criterion for
connected graphs is :func:`structural_self_orthogonality` plus the edge
count m = 2n - 2, and that route counts the vertex pairs of each edge
instead of forming a matrix product.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import combinations_with_replacement, compress
from math import prod
from operator import or_, xor
from typing import Iterator, Sequence

from .gf2core import BitMatrix, _columns, gram, nullspace_basis, rref, set_bits
from .hypergraph import Edge, Hypergraph, is_connected
from .limits import check_enum_cap

# The columns of a block kernel, 2^t bits per coordinate (or edge), or the
# sums that the count kernel holds at once, take at most 2^_TABLE_BITS bits
# in all, with t <= _BLOCK_BITS in the count kernel and
# t <= _SUBSET_BLOCK_BITS in the subset kernel.  At 8 words per column or
# fewer, building the columns costs more than walking the words.  Timed on
# one core over t = 13..16 (random codes of 17-19 rows), the count kernel
# at t = 15 is fastest or within 5% of it up to length 512; at 1024, t = 14
# is 2-8% faster, and at 2048 the budget takes t = 14 either way.
_TABLE_BITS = 23
_BLOCK_BITS = 15
_SUBSET_BLOCK_BITS = 16
_WALK_WORDS_PER_COLUMN = 8
# The twin walk's time per count vector, in count-kernel words: timed on
# one core, 32-177 on codes of length 64-512 (complete_3partite(6)-(8),
# random [64,16] and [64,18]), 5-12 on random codes of length 512-2048,
# where each kernel word costs more.
_TWIN_VECTOR_COST = 64
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # '0'/'1' text to false/true bytes


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
    # ``dual`` and the weight counts' null-space rows read again instead of
    # reducing the basis.
    @cached_property
    def basis(self) -> BitMatrix:
        reduced, pivots = rref(self.generator)
        return BitMatrix(len(pivots), self.generator.num_cols, reduced.rows[: len(pivots)])

    @cached_property
    def _gram_is_zero(self) -> bool:
        # A code inside its dual has k <= n - k, so above rate 1/2 the
        # answer needs no Gram matrix.
        return 2 * self.dimension <= self.length and gram(self.basis).is_zero

    @cached_property
    def _side(self) -> int:
        """The bits of the side whose words give the weight counts, which the
        cap, the twin rule, the counts and the early exit all read: n - k
        when 2^(n-k) + n^2 (the transform) < 2^k, else k.
        """
        n, k = self.length, self.dimension
        # n - k >= k fails the dual before any power of two is built.
        return n - k if n - k < k and (1 << (n - k)) + n * n < (1 << k) else k

    @cached_property
    def _twins(self) -> list[list[int]] | None:
        """The twin classes of the generator's rows when the twin walk
        (:func:`_twin_walk`) gives the weight counts, else None.

        When the side of ``_side`` has more than 2^_BLOCK_BITS words,
        :func:`_twin_classes` says whether the walk costs less.  Detection
        runs only then, after the callers' cap check.
        """
        side = self._side
        return _twin_classes(self.generator.rows, self.length, 1 << side) if side > _BLOCK_BITS else None

    @cached_property
    def _weights(self) -> list[int]:
        """Counts of the 2^k codewords, indexed by weight, from one of three
        exact sides: the twin walk when ``_twins`` holds classes, else the
        side of ``_side``, the code's words or its dual's.  The dual's side
        counts the null-space rows as they are: they are independent, so no
        second elimination is needed.
        """
        n, k = self.length, self.dimension
        if self._twins is not None:
            return _twin_walk(self.generator.rows, self._twins, n, k)
        if self._side == k:
            return _weight_counts(self.basis.rows, n)
        rows = nullspace_basis(self.generator).rows
        return _macwilliams(_weight_counts(rows, n), n, len(rows))

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

    With an early-exit threshold T, a search stops after the first block,
    in its scan order, whose least nonzero weight is <= T; ``value`` is
    then that weight, an upper bound, and ``exact`` is False.  A route
    that scans one block or none is read whole.  On every route ``exact``
    is False exactly when the distance d is <= T, and a value v that is
    not exact has d <= v <= T.  ``witness`` is the minimizing vertex subset
    when the subset engine ran: with an early exit, the smallest subset
    whose eonv is one of the stopping block's minimum words.
    """

    value: int
    exact: bool
    witness: tuple[int, ...] | None = None


def codeword_distance_search(
    code: LinearCode, *, early_exit: int | None = None
) -> DistanceResult:
    """Minimum nonzero codeword weight by exhaustive message-space enumeration.

    The value is the least nonzero weight of the code's weight counts, the
    list :func:`weight_distribution` reads, made once per code by
    ``LinearCode._weights``: from the code's words or its dual's, the side
    of ``LinearCode._side``, or by the twin walk.  An early exit reads
    those counts whole, exact when no weight is <= early_exit, unless they
    come from the code's own words (``_side`` is k) over several
    count-kernel blocks (k > _BLOCK_BITS) and no twin walk.  It then reads
    the blocks' bit planes from :func:`_weight_planes` in Gray order and stops
    after the first block whose least nonzero weight is <= early_exit,
    flagged as an upper bound.  Neither route shares code with the subset
    engine, so the two distance routes stay independently checkable.
    """
    if code.dimension == 0:
        raise ValueError("the zero code has no nonzero codeword")
    _check_cap(code, "codeword search")
    side = code._side
    if early_exit is None or side <= _BLOCK_BITS or side < code.dimension or code._twins is not None:
        counts = code._weights
        d = next(w for w in range(1, len(counts)) if counts[w])
        return DistanceResult(d, early_exit is None or d > early_exit)
    best = code.length + 1  # above every weight
    for planes in _weight_planes(code.basis.rows, code.length)[1]:
        # The block's least nonzero weight, read from the top plane down;
        # only the zero word has weight 0.
        cand, w = reduce(or_, planes, 0), 0
        for j in reversed(range(len(planes))):
            one = cand & planes[j]
            if one == cand:
                w |= 1 << j
            else:
                cand ^= one
        if cand:
            if w <= early_exit:
                return DistanceResult(w, False)
            best = min(best, w)
    return DistanceResult(best, True)


def eonv_distance_search(
    hypergraph: Hypergraph, *, early_exit: int | None = None
) -> DistanceResult:
    """Minimum distance of the incidence code by vertex-subset enumeration.

    Minimizes |eonv(S)| over the nonempty subsets S with eonv(S) nonempty;
    the witness is the lexicographically smallest minimizer.  eonv is
    linear, so the subsets D with eonv(D) empty, the dependencies, form a
    space L of dimension n - k.  A search that spans several kernel blocks
    (n > t, with t from :func:`_subset_bits`) scans one subset per coset of
    L (:func:`_subset_quotient`), 2^k in all, all 2^n when there is no
    dependency; its early exit stops after the first block whose least
    weight is <= early_exit, with the smallest subset whose eonv is one of
    that block's minimum words as the witness.  A search of one block
    scans all 2^n subsets, bit-sliced (:func:`_subset_blocks`) when it has
    more than 8 subsets per edge and otherwise one per step of a Gray walk
    (:func:`_subset_walk`), and is read whole: its result is exact exactly
    when no weight is <= early_exit.  Without an early exit every route
    gives the same value and witness.  The cap counts the 2^n - 1 subsets
    of the full scan, whichever route runs.
    """
    rows = hypergraph.vertex_rows
    if not any(rows):
        raise ValueError("the incidence matrix is zero; there is no nonzero codeword")
    n, m = hypergraph.num_vertices, hypergraph.num_edges
    _check_subset_cap(hypergraph)
    if n > _subset_bits(n, m):
        return _subset_quotient(hypergraph, _vertex_dependencies(rows), early_exit)
    scan = _subset_walk if 1 << n <= _WALK_WORDS_PER_COLUMN * m else _subset_blocks
    result = scan(hypergraph)
    if early_exit is not None and result.value <= early_exit:
        return DistanceResult(result.value, False, result.witness)
    return result


def _subset_walk(hypergraph: Hypergraph) -> DistanceResult:
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
        elif w == best_w:
            mask = i ^ (i >> 1)
            if (mask & -mask).bit_length() - 1 <= best_wit[0]:
                candidate = set_bits(mask)
                if candidate < best_wit:
                    best_wit = candidate
    return DistanceResult(best_w, True, best_wit)


def _subset_bits(n: int, m: int) -> int:
    # The subset kernel's blocks hold 2^t subsets: t <= _SUBSET_BLOCK_BITS,
    # and the m columns of 2^t bits take at most 2^_TABLE_BITS bits.
    return max(0, min(n, _SUBSET_BLOCK_BITS, _TABLE_BITS - (m - 1).bit_length()))


def _subset_blocks(hypergraph: Hypergraph) -> DistanceResult:
    """The subset search of one kernel block (n <= t) by
    :func:`_subset_minima`, with the result of :func:`_subset_walk`.

    A greedy pass over the vertices finds the lexicographically smallest
    minimizer: it stops when the subset of the vertices chosen so far is a
    candidate, and otherwise keeps the candidates that contain the next
    vertex whenever any do.
    """
    n = hypergraph.num_vertices
    member = _gray_tables(n)
    # A nonzero row exists, so the block has a nonzero weight.
    _, w, cand = next(_subset_minima(n, hypergraph.edges, n))
    at = v = 0  # at: position of the subset of the vertices chosen so far
    while cand & (cand - 1):
        if cand >> at & 1:
            cand = 1 << at
            continue
        has = cand & member[v]
        if has:
            cand = has
            at ^= (2 << v) - 1
        v += 1
    q = cand.bit_length() - 1
    return DistanceResult(w, True, set_bits(q ^ (q >> 1)))


def _subset_minima(n: int, edges: Sequence[Edge], t: int) -> Iterator[tuple[int, int, int]]:
    """The subset kernel over the n vertices of ``edges``, in blocks of 2^t
    subsets that share their high vertices (those >= t): block h holds the
    subsets whose high vertices are gray(h), bit q for the low subset
    gray(q).  For each block with a nonzero weight it yields h, the block's
    least nonzero weight, and the positions that reach it.

    Each edge gets a 2^t-bit column whose bit q is the parity of its
    intersection with the low subset gray(q), and a carry-save vertical
    counter sums the columns into bit planes, plane j holding bit j of
    every subset's weight.  When the scan has several blocks, the copies of
    an edge are summed once: the edge gets a column for each set bit j of
    its multiplicity, added at level j.  A Gray walk over the high vertices
    complements, at each step, the columns of the edges at the vertex it
    toggles.  The columns take at most 2^_TABLE_BITS bits.
    """
    m = len(edges)
    member = _gray_tables(t)
    full = (1 << (1 << t)) - 1
    if n > t:
        # Several blocks: the copies of an edge are summed once, as one
        # column added at the level of each set bit of their number.
        counts = Counter(edges)
        edges, starts = zip(*[(edge, j) for edge, c in counts.items() for j in range(c.bit_length()) if c >> j & 1])
    else:
        # One block adds each copy's column once: on small scans, counting
        # the copies costs more than the additions that it saves.
        starts = [0] * m
    columns = []
    flips: list[list[int]] = [[] for _ in range(n - t)]
    for i, edge in enumerate(edges):
        column = 0
        for v in edge:
            if v < t:
                column ^= member[v]
            else:
                flips[v - t].append(i)
        columns.append(column)
    levels = m.bit_length()
    for h in range(1 << (n - t)):
        if h:
            for i in flips[(h & -h).bit_length() - 1]:
                columns[i] ^= full
        # Carry-save vertical counter: level j holds an accumulated plane
        # and at most one plane waiting for a partner; a full adder of the
        # two and a new plane keeps the sum and carries the majority up.
        planes = [0] * levels
        waiting = [0] * levels
        for x, j in zip(columns, starts):
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
        yield h, w, cand


def _vertex_dependencies(rows: tuple[int, ...]) -> list[int]:
    """A basis of the dependencies, the vertex subsets D with eonv(D)
    empty, as packed vertex sets; ``rows`` are the vertex rows.

    The subset engine's own elimination, apart from :mod:`hypercode.gf2core`.
    The rows are reduced from the last vertex down at the leading edges of
    the rows kept so far, each carrying the set of vertices it sums.  A
    row that reduces to zero leaves a dependency of its own vertex and
    vertices of kept rows, all higher.  So its lowest vertex, its pivot, is
    its own, and no other dependency holds it.  They are returned by
    ascending pivot.
    """
    kept: dict[int, tuple[int, int]] = {}  # leading edge -> (row, vertices it sums)
    found: list[int] = []
    for v in reversed(range(len(rows))):
        row, subset = rows[v], 1 << v
        while row:
            lead = row.bit_length()
            pivot = kept.get(lead)
            if pivot is None:
                kept[lead] = row, subset
                break
            row ^= pivot[0]
            subset ^= pivot[1]
        else:
            found.append(subset)
    return found[::-1]


def _subset_quotient(
    hypergraph: Hypergraph, dependencies: list[int], early_exit: int | None = None
) -> DistanceResult:
    """The search over one subset per coset of the dependency space.

    ``dependencies`` is the basis of :func:`_vertex_dependencies`, empty for
    independent rows.  Each coset S + L has exactly one member that avoids
    the pivots, so the kernel (:func:`_subset_minima`) runs over the subsets
    of the other k vertices, on the hypergraph's edges with the pivots
    deleted and the kept vertices renumbered in order; as a pivot's row is a
    sum of kept rows, no edge is left empty.  With no dependency it runs on
    the hypergraph's own edges, nothing cut.  It keeps every position at the
    least weight: each is one minimum word.

    The witness is the lexicographically smallest minimizer over all 2^n
    subsets, the smallest member of a minimum word's coset, which need not
    be the one that avoids the pivots.  A greedy reaches it from that
    member, walking the pivots upwards.  At pivot p, when the member has no
    vertex >= p, it is a prefix of every other member that agrees with it
    below p, so it is the smallest, and the greedy stops.  Otherwise every
    such member has a vertex >= p, and adding p's dependency puts in p, the
    least one possible, and leaves the other pivots out.  With the k
    vertices of the member to place, that is at most n steps per word.

    With ``early_exit`` the scan stops after the first block whose least
    weight is <= early_exit.  The result is that weight, flagged inexact,
    and the greedy's witness over that block's minimum words.  When no
    block meets the threshold, the result is the exact one.
    """
    keep: Sequence[int] = range(hypergraph.num_vertices)
    quotient: Sequence[Edge] = hypergraph.edges  # no dependency: every vertex is kept
    if dependencies:
        pivots = reduce(or_, (d & -d for d in dependencies), 0)
        keep = [v for v in keep if not pivots >> v & 1]
        index = {v: i for i, v in enumerate(keep)}
        quotient = [tuple(index[v] for v in edge if v in index) for edge in quotient]
    k, m = len(keep), len(quotient)
    t = _subset_bits(k, m)
    best_w, minima, exact = m + 1, [], True
    for h, w, positions in _subset_minima(k, quotient, t):
        if w < best_w:
            best_w, minima = w, []
        if w == best_w:
            minima.append(((h ^ (h >> 1)) << t, positions))
        if early_exit is not None and w <= early_exit:
            # Every earlier block was above the threshold, so this block's
            # minimum words are the only ones kept.
            exact = False
            break
    best_wit = None
    for high, positions in minima:
        for q in set_bits(positions):
            member = 0
            for i in set_bits(q ^ (q >> 1) | high):
                member |= 1 << keep[i]
            for d in dependencies:
                if member < (d & -d):
                    break
                member ^= d
            witness = set_bits(member)
            if best_wit is None or witness < best_wit:
                best_wit = witness
    return DistanceResult(best_w, exact, best_wit)


@cache
def _gray_tables(t: int) -> tuple[int, ...]:
    # Entry v has bit q set when vertex v is in the subset gray(q).
    full = (1 << (1 << t)) - 1
    bit = [full // ((1 << (2 << v)) - 1) * (((1 << (1 << v)) - 1) << (1 << v)) for v in range(t)]
    bit.append(0)
    return tuple(bit[v] ^ bit[v + 1] for v in range(t))


def _check_cap(code: LinearCode, search: str) -> None:
    # Both callers charge the one scan the same figure, the nonzero words of
    # the scanned side, each under its own name.
    check_enum_cap(search, code._side)


def _check_subset_cap(hypergraph: Hypergraph) -> None:
    # The subset engine charges the 2^n - 1 subsets of the full scan,
    # whichever route runs.
    check_enum_cap("subset search", hypergraph.num_vertices)


def _twin_classes(rows: tuple[int, ...], n: int, words: int) -> list[list[int]] | None:
    """Classes of twin rows, as lists of row indices, every row in one.

    Rows u and v are twins when exchanging them maps the multiset of the
    columns' patterns over the rows to itself; every permutation within a
    class then does, so a word's weight depends only on how many rows it
    takes from each class.  Twins share a key, their weight and then the
    sorted overlaps with every row, so the rows are grouped by it.  A
    candidate must overlap every row as its class's first row does, the
    two exchanged, and is then verified exactly: the exchange must map the
    patterns of the columns where the two rows differ to themselves (the
    others keep theirs).  Equal rows pass both: they differ in no column.
    Twinness is transitive, a transposition conjugated by another being
    one, so testing against the first row finds every class; a twin missed
    would cost speed only.

    ``words``, the words of the side the count kernel would scan, makes
    this the rule: None unless the walk's vectors, prod(|c| + 1), times
    ``_TWIN_VECTOR_COST`` are below ``words``.  Each stage stops as soon as
    a lower bound on the vectors, from groups that the classes can only
    split, breaks it: by weight alone, before any overlap is taken; and by
    key before any column is built.  The overlaps are not taken when the r
    rows have r^2 > ``words``.
    """
    by_weight: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_weight.setdefault(row.bit_count(), []).append(i)

    def too_many(groups) -> bool:
        # Whether the walk over ``groups``, or over any split of them, loses.
        return prod(len(c) + 1 for c in groups) * _TWIN_VECTOR_COST >= words

    if too_many(by_weight.values()) or len(rows) ** 2 > words:
        return None
    overlaps: dict[int, list[int]] = {}  # row index -> overlaps with every row
    keys: dict[tuple[int, ...], list[int]] = {}
    for weight, members in by_weight.items():
        for i in members:
            key = (weight,)
            if len(members) > 1:
                overlaps[i] = [(rows[i] & row).bit_count() for row in rows]
                key += tuple(sorted(overlaps[i]))
            keys.setdefault(key, []).append(i)
    if too_many(keys.values()):
        return None
    columns = _columns(rows, n) if overlaps else ()

    def twins(u: int, v: int) -> bool:
        # Exchanged, u's overlaps must be v's: twins overlap every other
        # row alike.  Then the exact test, on the columns where they differ.
        mine = overlaps[u][:]
        mine[u], mine[v] = mine[v], mine[u]
        if mine != overlaps[v]:
            return False
        flags = format(rows[u] ^ rows[v], f"0{n}b")[::-1].encode().translate(_BIT_BYTES)
        moved = list(compress(columns, flags))
        swap = 1 << u | 1 << v
        return sorted(moved) == sorted([p ^ swap for p in moved])

    classes: list[list[int]] = []
    for members in keys.values():
        while members:
            first, rest = members[0], []
            found = [first]
            for u in members[1:]:
                (found if twins(first, u) else rest).append(u)
            classes.append(found)
            members = rest
    return None if too_many(classes) else classes


def _twin_walk(rows: tuple[int, ...], classes: list[list[int]], n: int, k: int) -> list[int]:
    """Counts by weight 0..n of the code of rank ``k`` spanned by ``rows``,
    from the twin ``classes`` of :func:`_twin_classes`.

    A word's weight depends only on its count vector a, a_i rows taken from
    class c_i, so the walk visits one word per vector, the XOR of the first
    a_i rows of each class, with the multiplicity prod C(|c_i|, a_i).  The
    vectors come in reflected mixed-radix Gray order (Knuth's loopless
    Algorithm H, *TAOCP* 7.2.1.1): one a_i moves by one per step, one row
    XOR and one popcount, and the multiplicity is updated by an exact
    integer ratio.  The r rows give every word 2^(r - k) times, so the sums
    are divided by that; raises ValueError when a sum is not divisible,
    which no true twin classes give.
    """
    members = [[rows[i] for i in c] for c in classes]
    sizes = [len(c) for c in classes]
    m = len(classes)
    digits, up = [0] * m, [True] * m
    focus = list(range(m + 1))
    sums = [0] * (n + 1)
    sums[0] = 1  # the zero vector
    word, mult = 0, 1
    while True:
        j = focus[0]
        focus[0] = 0
        if j == m:
            break
        a, s = digits[j], sizes[j]
        if up[j]:
            word ^= members[j][a]
            mult = mult * (s - a) // (a + 1)
            a += 1
        else:
            a -= 1
            word ^= members[j][a]
            mult = mult * (a + 1) // (s - a)
        digits[j] = a
        sums[word.bit_count()] += mult
        if a == 0 or a == s:
            up[j] = not up[j]
            focus[j] = focus[j + 1]
            focus[j + 1] = j + 1
    extra = len(rows) - k
    size = 1 << extra
    for w, total in enumerate(sums):
        if total % size:
            raise ValueError(f"twin-walk sum {total} for weight {w} is not a count times {size}")
    return [total >> extra for total in sums]


def _weight_counts(rows: tuple[int, ...], n: int) -> list[int]:
    """Counts by weight 0..n of the 2^k words spanned by ``rows``, a basis
    of a code of length n in which each row owns a coordinate: a bit that
    no other row has.  The RREF basis owns its pivots, and the null-space
    rows of :func:`~hypercode.gf2core.nullspace_basis` their free columns.

    A code of at most 8 codewords per coordinate is walked one codeword per
    step, which costs less than building columns; a larger one is counted
    in bit-sliced blocks (:func:`_count_blocks`).  A word holds a row
    exactly when it has that row's own coordinate, so the all-ones word,
    which has them all, is in the code exactly when it is the XOR of all
    the rows, as it is for every hypergraph whose edges all have odd size.
    The code is then C' + {0, all-ones}, C' spanned by all rows but the
    last, and the blocks count only C': A_w = A'_w + A'_{n-w}.
    """
    if not rows:
        # Not a list as long as the code, whose width no row uses.
        return [1]
    if 1 << len(rows) <= _WALK_WORDS_PER_COLUMN * n:
        return _count_walk(rows, n)
    if reduce(xor, rows) != (1 << n) - 1:
        return _count_blocks(rows, n)
    counts = _count_blocks(rows[:-1], n)
    return [a + b for a, b in zip(counts, reversed(counts))]


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
    """The counts of :func:`_count_walk`, read from :func:`_weight_planes`.

    Each block's positions are split by weight only over the planes above
    its lowest nonzero plane; a plane that leaves a group whole passes it
    on as it is.  The lowest plane is read by popcounts, so no group of the
    last level is kept, and a group that it does not split costs one
    popcount.
    """
    t, blocks = _weight_planes(rows, n)
    full = (1 << (1 << t)) - 1
    counts = [0] * (n + 1)
    for planes in blocks:
        low = 0
        while low < len(planes) and not planes[low]:
            low += 1
        if low == len(planes):  # every word of the block has weight 0
            counts[0] += 1 << t
            continue
        groups = [(0, full)]  # (weight bits read so far, positions with them)
        for j in range(len(planes) - 1, low, -1):
            plane = planes[j]
            if plane:
                split = []
                for w, s in groups:
                    one = s & plane
                    if not one:
                        split.append((w, s))
                    elif one == s:
                        split.append((w | 1 << j, s))
                    else:
                        split.append((w | 1 << j, one))
                        split.append((w, s ^ one))
                groups = split
        bit, plane = 1 << low, planes[low]
        for w, s in groups:
            one = s & plane
            if not one:
                counts[w] += s.bit_count()
            elif one == s:
                counts[w | bit] += s.bit_count()
            else:
                c = one.bit_count()
                counts[w | bit] += c
                counts[w] += s.bit_count() - c
    return counts


def _weight_planes(rows: tuple[int, ...], n: int) -> tuple[int, Iterator[list[int]]]:
    """The block size t, and the bit planes of the 2^k codewords' weights
    block by block in Gray order: plane j holds bit j of every word's weight.

    Block h holds the 2^t words whose high rows (those >= t) combine to
    gray(h) = h ^ (h >> 1), bit q for the word whose low rows combine to
    gray(q): the steps h * 2^t to (h + 1) * 2^t - 1 of the Gray walk over
    all messages.  Each coordinate's k-bit pattern over the rows is read
    once.  The coordinates fall into classes by their pattern gamma over
    the high rows, complemented together by the parity of gray(h) & gamma,
    so a class adds to each word the sum S of its columns over the low rows
    or |gamma| - S, both built once as bit planes by a carry-save vertical
    counter.  A column is the XOR of three entries of :func:`_chunk_tables`,
    looked up by the coordinate's pattern over each third of the low rows.

    The block sums are a Walsh-Hadamard transform over the classes, taken
    by halving (:func:`_halve`): high row b merges the classes gamma and
    gamma ^ 2^b into one, once for each value of its message bit, so the K
    high rows cost about K * 2^K class additions, not one per class and
    block (up to 4^K).
    The halves are visited depth first from the top row, the bit-1 half in
    reverse, as the reflected Gray code orders them.  The class of
    gamma = 0 is never complemented, and is the only one if k <= t.  t is
    the largest up to _BLOCK_BITS whose planes fit the column budget, from
    the class sizes alone (:func:`_held_planes`); the classes are built once.
    """
    k = len(rows)
    t = min(k, _BLOCK_BITS)
    # Bit i of coordinate p's pattern is row i's bit p.
    patterns = _columns(rows, n)
    # A Counter keeps the order the classes are built in, which _held_planes
    # reads.  With no high row, the one class holds all n coordinates.
    while t and _held_planes({0: n} if t == k else Counter(p >> t for p in patterns), k - t) << t > 1 << _TABLE_BITS:
        t -= 1
    low = (1 << t) - 1
    classes: dict[int, list[int]] = {}  # high pattern -> low patterns of its coordinates
    for pattern in patterns:
        classes.setdefault(pattern >> t, []).append(pattern & low)
    full = (1 << (1 << t)) - 1
    first, second, third = _chunk_tables(t)
    chunk = len(first).bit_length() - 1
    mask = (1 << chunk) - 1
    sums = {}  # gamma -> (planes of S, planes of |gamma| - S or None if gamma = 0)
    for gamma, lows in classes.items():
        columns = [first[p & mask] ^ second[p >> chunk & mask] ^ third[p >> 2 * chunk] for p in lows if p]
        size = len(lows)
        top = size.bit_length()
        # Level j keeps a sum plane and at most one plane waiting for a
        # partner; a full adder of both and a new plane carries the majority.
        planes = [0] * top
        waiting = [0] * top
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
        del columns
        # S <= size < 2^top, so no carry leaves the top level.
        planes = _add_planes(planes, waiting)
        sums[gamma] = (planes, _complement_sum(planes, size, full) if gamma else None)
    return t, _halvings(sums, k - t)


def _halvings(sums: dict, high: int) -> Iterator[list[int]]:
    # The blocks' planes from the class sums over ``high`` high rows.
    stack = [(sums, high, 0)]  # (classes, high rows left to merge, reversed)
    while stack:
        state, level, reverse = stack.pop()
        if level:
            halves = _halve(state, 1 << (level - 1))
            stack.append((halves[1 - reverse], level - 1, 1))
            stack.append((halves[reverse], level - 1, 0))
            continue
        yield state[0][0]


def _halve(state: dict, bit: int) -> tuple[dict, dict]:
    # Merges the classes gamma and gamma ^ bit of ``state``, which it empties
    # as it goes, into the classes of the rows below ``bit``: in the half
    # where that row's message bit is 0 the pair adds S to S and complement
    # to complement, in the other S to complement.  A class without a
    # partner passes into both halves, swapped in the second if it has the
    # bit.  No complement is kept for the class of gamma = 0.
    zero, one = {}, {}
    while state:
        gamma, (s, c) = state.popitem()
        low = gamma & ~bit
        pair = state.pop(gamma ^ bit, None)
        if pair is None:
            zero[low] = (s, c if low else None)
            one[low] = (c, s if low else None) if gamma & bit else zero[low]
            continue
        if gamma & bit:
            (s, c), pair = pair, (s, c)
        s1, c1 = pair
        zero[low] = (_add_planes(s, s1), _add_planes(c, c1) if low else None)
        one[low] = (_add_planes(s, c1), _add_planes(c, s1) if low else None)
    return zero, one


def _add_planes(a: list[int], b: list[int]) -> list[int]:
    # Bit planes of the sum of two bit-sliced counts, rippled level by level.
    if len(a) < len(b):
        a, b = b, a
    x, y = a[0], b[0]
    out = [x ^ y]
    carry = x & y
    for j in range(1, len(b)):
        x, y = a[j], b[j]
        u = x ^ y
        out.append(u ^ carry)
        carry = (x & y) | (u & carry)
    for j in range(len(b), len(a)):
        if not carry:
            return out + a[j:]
        x = a[j]
        out.append(x ^ carry)
        carry &= x
    if carry:
        out.append(carry)
    return out


def _held_planes(sizes: dict[int, int], high: int) -> int:
    """The most planes of 2^t bits that :func:`_weight_planes` holds at once.

    ``sizes`` maps each high pattern gamma, over ``high`` high rows, to
    |gamma|, the number of its coordinates, in the order the classes are
    built.  A class's sums take |gamma|.bit_length() planes each, two sums
    unless gamma = 0.  While the class sums are built, the columns of one
    class are held with the sums made so far.  In the halving, every state
    of one level has the same classes, so the deepest point of the first
    descent holds the most: the two halves just built; the waiting second
    half of every level above, with the sums it made; and the sums that a
    popped state made and passed on unchanged.  The one pair being added
    is left out.
    """
    peak = kept = 0
    state = {}  # gamma -> (size, whether this level made its sums)
    for gamma, size in sizes.items():
        peak = max(peak, kept + size)
        kept += size.bit_length() << (gamma > 0)
        state[gamma] = (size, True)
    peak = max(peak, kept)
    passed = waiting = 0
    for level in reversed(range(high)):
        bit = 1 << level
        merged = {}
        for gamma, (size, made) in state.items():
            other = state.get(gamma ^ bit)
            if other is None:
                merged[gamma & ~bit] = (size, False)
                if made:
                    passed += size.bit_length() << (gamma > 0)
            else:
                merged[gamma & ~bit] = (size + other[0], True)
        state = merged
        made_here = sum(size.bit_length() << (gamma > 0) for gamma, (size, made) in state.items() if made)
        peak = max(peak, passed + waiting + 2 * made_here)
        waiting += made_here
    return peak


def _complement_sum(planes: list[int], size: int, full: int) -> list[int]:
    # Bit planes of size - S from those of S <= size: ~S + (size + 1), with
    # the carry out of the top level dropped.
    ones = [full if (size + 1) >> j & 1 else 0 for j in range((size + 1).bit_length())]
    return _add_planes([plane ^ full for plane in planes], ones)[: len(planes)]


@cache
def _message_tables(t: int) -> tuple[int, ...]:
    # Entry i has bit q set when row i is in the message gray(q), that is
    # when bits i and i + 1 of q differ; bit t of every q < 2^t is 0.
    full = (1 << (1 << t)) - 1
    bit = [full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i)) for i in range(t + 1)]
    return tuple(bit[i] ^ bit[i + 1] for i in range(t))


@cache
def _chunk_tables(t: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    # Four Russians tables (Arlazarov et al., 1970) of _message_tables(t):
    # the low rows fall into three chunks of c = ceil(t / 3) rows, at most
    # 5 for t <= 15, the last one with what is left, and entry v of a
    # chunk's table is the XOR of its rows' entries for the set bits of v.
    # A column then takes three lookups.  At t = 15 the 96 entries take
    # 384 KB.
    rows = _message_tables(t)
    c = -(-t // 3)
    tables = []
    for start in (0, c, 2 * c):
        table = [0]
        for row in rows[start : start + c]:
            table += [entry ^ row for entry in table]
        tables.append(tuple(table))
    return tuple(tables)


def _macwilliams(dual_counts: list[int], n: int, k_dual: int) -> list[int]:
    """Weight counts of C from those of its dual, of dimension ``k_dual``.

    A_j = 2^-k_dual * sum_i B_i K_j(i), with the Krawtchouk values K_j(i),
    the coefficients of X^j in (1 - X)^i (1 + X)^(n - i).  The sums come
    from :func:`_packed_sums` when :func:`_packed_is_cheaper` says so, and
    otherwise from :func:`_krawtchouk_sums`.  Raises ValueError when a sum
    is negative or not divisible by 2^k_dual, which no weight distribution
    of a dual code gives.
    """
    weights = len(dual_counts) - dual_counts.count(0)
    if _packed_is_cheaper(n, weights):
        sums = _packed_sums(dual_counts, n)
    else:
        sums = _krawtchouk_sums(dual_counts, n)
    size = 1 << k_dual
    for j, total in enumerate(sums):
        if total < 0 or total % size:
            raise ValueError(f"MacWilliams sum {total} for weight {j} is not a count times {size}")
    return [total >> k_dual for total in sums]


def _packed_is_cheaper(n: int, weights: int) -> bool:
    # The recurrence takes n + 1 steps per nonzero dual weight; the packed
    # sums take about 3 big-integer steps per weight up to the largest,
    # on integers that grow to n^2 bits, and a read of n + 1 lanes.  Timed
    # against each other (scripts/bench_macwilliams.py), the packed sums
    # cost less from about 5 weights at n <= 64, 20 at n = 256 and 45 at
    # n = 512, and more on every dual tried at n >= 1023.  The rule stays
    # inside that region: 5 weights up to n = 45, 37 at n = 256, 133 at
    # n = 512.
    return n * n < 2048 * (weights - 4)


def _krawtchouk_sums(dual_counts: list[int], n: int) -> list[int]:
    # sum_i B_i K_j(i), with K_j(i) from the recurrence
    # (j+1) K_{j+1} = (n-2i) K_j - (n-j+1) K_{j-1}, K_0 = 1, in integers.
    sums = [0] * (n + 1)
    for i, b in enumerate(dual_counts):
        if b:
            previous, current = 0, 1
            for j in range(n + 1):
                sums[j] += b * current
                following = ((n - 2 * i) * current - (n - j + 1) * previous) // (j + 1)
                previous, current = current, following
    return sums


def _packed_sums(dual_counts: list[int], n: int) -> list[int]:
    """The sums of :func:`_krawtchouk_sums`, the coefficients of
    P(X) = sum_i B_i (1 - X)^i (1 + X)^(n - i), by Kronecker substitution.

    P is evaluated as one integer at X = 2^b, b a whole number of bytes
    wide enough that every coefficient, |c_j| <= (sum_i B_i) C(n, j), fits
    in a signed lane of b bits.  With hi the largest weight of the dual,
    P = (1 + X)^(n - hi) Q, and Horner's rule sums the homogeneous Q from
    weight hi down: each step adds B_i times the power of 1 + X, then
    multiplies the sum by 1 - X, a shift and a subtraction, and the power
    by 1 + X, a shift and an addition.  Adding 2^(b-1) to every lane makes
    its digit non-negative, and one ``to_bytes`` reads them all.
    """
    lane = (sum(dual_counts).bit_length() + n + 8) // 8
    b = 8 * lane
    hi = len(dual_counts) - 1
    while hi and not dual_counts[hi]:
        hi -= 1
    value, power = 0, 1  # power: (1 + X)^(hi - i) at weight i
    for count in dual_counts[hi:0:-1]:
        if count:
            value += count * power
        value -= value << b
        power += power << b
    value = (value + dual_counts[0] * power) * (1 + (1 << b)) ** (n - hi)
    size, half = lane * (n + 1), 1 << (b - 1)
    halves = int.from_bytes((bytes(lane - 1) + b"\x80") * (n + 1), "little")  # half in every lane
    data = (value + halves).to_bytes(size, "little")
    return [int.from_bytes(data[s : s + lane], "little") - half for s in range(0, size, lane)]


def weight_distribution(code: LinearCode) -> dict[int, int]:
    """Weight counts over all 2^k codewords (the zero word included).

    They come from the code's one list of counts, shared with
    :func:`codeword_distance_search`: the code's words, its dual's, or the
    twin walk, as ``LinearCode._weights`` picks.  The cap counts the
    nonzero words of ``LinearCode._side``, the code's or the dual's,
    whichever route then runs.
    """
    _check_cap(code, "weight distribution")
    return {w: c for w, c in enumerate(code._weights) if c}


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
    its verdict reused after that; above rate 1/2 (2k > n) none is built,
    since such a code cannot lie inside its dual.
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
