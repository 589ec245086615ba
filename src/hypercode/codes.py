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

The weight counts and the subset search are bit-sliced block kernels.  A
block is 2^t words that share their high rows (or vertices), with t <= 14
in the weight counts and t <= 16 in the subset search; each coordinate
(or edge) holds one 2^t-bit column, bit q for the block's word q, so that
one big-int operation acts on every word of the block.  A
carry-save vertical counter sums the columns into bit planes of the
weights, from which a few more operations read the block's answer: the
weight histogram, or the least nonzero weight with the words that reach it.
The subset search moves from block to block by a Gray walk over the high
vertices, complementing the columns of the edges at the vertex it toggles.
Over several blocks it sums the copies of an edge once, adding one column
at the level of each set bit of their number.  In a block that only
ties the best weight, its pass for the lexicographically smallest witness
stops once the block's witness is known to be the larger.
Without an early exit, a subset search that spans several blocks (n > t)
first finds the vertex dependencies, the subsets D with eonv(D) empty, by
an elimination of its own.  They form a space of dimension n - k, and when
there are any the kernel scans one subset per coset, the 2^k subsets that
avoid one pivot vertex per dependency, keeping every position at the least
weight.  A greedy over the dependencies turns each minimum word's scanned
subset into the smallest member of its coset, the witness of the full
scan.  The cap still counts 2^n - 1 subsets.
The weight counts read a weight as a sum over the generator's columns
(MacWilliams & Sloane, ch. 5): the coordinates fall into classes by their
pattern over the high rows, and a block complements a whole class or none
of it.  So each class is summed once, into the bit planes of S and of
|class| - S, and the blocks' sums over the classes are a Walsh-Hadamard
transform (ch. 14), taken by halving over the K high rows: about K * 2^K
class additions for the 2^K blocks.  A code that holds the all-ones word,
as every hypergraph whose edges all have odd size gives, has
A_w = A_{n-w}, and its blocks count only the half spanned by all basis
rows but the last.  The columns, or the sums that the kernel holds at
once, take at most 2^23 bits (1 MB), built on each call; the truth tables
they start from are built on first use.  A scan of at most 8 words per
column walks one word per Gray step instead, one XOR and one popcount per
word, which costs less than building the columns; the tests hold each
kernel to its walk.  The count kernel lists each block's words, and its
blocks, in the order of the Gray walk over the code's own words, which
meets an odd block's positions downwards, so that an early-exit search
reads it too and stops at the walk's first weight within the threshold.

Each self-duality fact has one implementation.  A code builds its Gram
matrix at most once, beside its basis, and :func:`is_self_dual` adds
only the dimension test 2k = n.  On the hypergraph side the counting criterion for
connected graphs is :func:`structural_self_orthogonality` plus the edge
count m = 2n - 2, and that route counts the vertex pairs of each edge
instead of forming a matrix product.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import chain, combinations_with_replacement
from operator import or_, xor
from typing import Iterator, Sequence

from .gf2core import BitMatrix, gram, nullspace_basis, rref, set_bits
from .hypergraph import Edge, Hypergraph, is_connected
from .limits import check_enum_cap

# The columns of a block kernel, 2^t bits per coordinate (or edge), or the
# sums that the count kernel holds at once, take at most 2^_TABLE_BITS bits
# in all, with t <= _BLOCK_BITS in the count kernel and
# t <= _SUBSET_BLOCK_BITS in the subset kernel.  At 8 words per column or
# fewer, building the columns costs more than walking the words.
_TABLE_BITS = 23
_BLOCK_BITS = 14
_SUBSET_BLOCK_BITS = 16
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
    once per code.  With it, the blocks of :func:`_weight_groups` are read
    in the order of the Gray walk over all 2^k messages, and the search
    stops at the walk's first weight <= early_exit, flagged as an upper
    bound.  Neither route shares code with the subset engine, so the two
    distance routes stay independently checkable.
    """
    if code.dimension == 0:
        raise ValueError("the zero code has no nonzero codeword")
    if early_exit is None:
        counts = _capped_weights(code, "codeword search")
        return DistanceResult(next(w for w in range(1, len(counts)) if counts[w]), True)
    check_enum_cap("codeword search", code.dimension)
    best = code.length + 1  # above every weight
    for h, groups in enumerate(_weight_groups(code.basis.rows, code.length)):
        # The walk meets the positions of block h upwards when h is even and
        # downwards when it is odd, so the first stop is the lowest or the
        # highest candidate; only the zero word has weight 0.
        stops = [(s.bit_length() if h & 1 else -(s & -s), w) for w, s in groups if 0 < w <= early_exit]
        if stops:
            return DistanceResult(max(stops)[1], False)
        best = min([best] + [w for w, _ in groups if w])
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

    eonv is linear, so the subsets D with eonv(D) empty, the dependencies,
    form a space L of dimension n - k, and the full scan meets each word
    2^(n-k) times.  Without ``early_exit``, a scan that spans several
    kernel blocks (n > t, with t from :func:`_subset_bits`) first looks for
    dependencies (:func:`_vertex_dependencies`).  If there are any, it
    scans one subset per coset of L, 2^k in all (:func:`_subset_quotient`):
    the subsets that avoid one pivot vertex per dependency.  The witness
    is each minimum word's smallest coset member, reached by a greedy over
    the dependencies in at most n steps per word.  Every other scan, and an
    early exit always, runs over all 2^n subsets: in bit-sliced blocks
    (:func:`_subset_blocks`) when it has more than 8 subsets per edge, and
    otherwise one subset per step, which costs less there.  Every route
    gives the same value and witness.  The cap counts the 2^n - 1 subsets
    of the full scan, whichever route runs.
    """
    rows = hypergraph.vertex_rows
    if not any(rows):
        raise ValueError("the incidence matrix is zero; there is no nonzero codeword")
    n, m = hypergraph.num_vertices, hypergraph.num_edges
    check_enum_cap("subset search", n)
    if early_exit is None and n > _subset_bits(n, m):
        dependencies = _vertex_dependencies(rows)
        if dependencies:
            return _subset_quotient(hypergraph, dependencies)
    if 1 << n <= _WALK_WORDS_PER_COLUMN * m:
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


def _subset_bits(n: int, m: int) -> int:
    # The subset kernel's blocks hold 2^t subsets: t <= _SUBSET_BLOCK_BITS,
    # and the m columns of 2^t bits take at most 2^_TABLE_BITS bits.
    return max(0, min(n, _SUBSET_BLOCK_BITS, _TABLE_BITS - (m - 1).bit_length()))


def _subset_blocks(hypergraph: Hypergraph, early_exit: int | None) -> DistanceResult:
    """The subset search over the blocks of :func:`_subset_minima`, with the
    result of :func:`_subset_walk`.

    Within a block a greedy pass over the low vertices finds the
    lexicographically smallest minimizer: it keeps the candidates that
    contain each vertex whenever any do, and in the block without high
    vertices it first stops when the subset of the vertices chosen so far
    is still a candidate.  In a block that only ties the best weight, each
    vertex kept is compared with the best witness's element at its index,
    and the pass stops once the block's witness is the larger: a kept
    vertex above that element, or one more vertex after all of the best
    witness's elements.  The walk over all vertices visits the positions
    of a block upwards after an even number of high steps and downwards
    after an odd one, so an early exit takes the lowest or the highest
    position with 0 < weight <= early_exit.
    """
    n, m = hypergraph.num_vertices, hypergraph.num_edges
    t = _subset_bits(n, m)
    member = _gray_tables(t)
    full = (1 << (1 << t)) - 1
    # A nonzero row exists, so its singleton subset sets a real minimum.
    best_w = m + 1
    best_wit: tuple[int, ...] = ()
    for h, w, cand, planes in _subset_minima(n, hypergraph.edges, t):
        if w > best_w:
            continue
        high = (h ^ (h >> 1)) << t
        if early_exit is not None and w <= early_exit:
            # Positions with weight <= bound, compared plane by plane from
            # the top; no weight exceeds m < 2^len(planes).
            bound = min(early_exit, m)
            above, equal = 0, full
            for j in reversed(range(len(planes))):
                if bound >> j & 1:
                    equal &= planes[j]
                else:
                    above |= equal & planes[j]
                    equal &= ~planes[j]
            hits = reduce(or_, planes) & ~above
            q = hits.bit_length() - 1 if h & 1 else (hits & -hits).bit_length() - 1
            w = sum((plane >> q & 1) << j for j, plane in enumerate(planes))
            return DistanceResult(w, False, set_bits(q ^ (q >> 1) | high))
        at = v = 0  # at: position of the subset of the low vertices chosen so far
        # Elements of best_wit that the vertices kept so far match, while
        # the block ties: -1 once it has no tie or has a smaller vertex.
        matched = 0 if w == best_w else -1
        while cand & (cand - 1):
            if not high and cand >> at & 1:
                cand = 1 << at
                continue
            has = cand & member[v]
            if has:
                if matched >= 0:
                    if matched == len(best_wit) or v > best_wit[matched]:
                        break  # the block's witness is the larger
                    matched = matched + 1 if v == best_wit[matched] else -1
                cand = has
                at ^= (2 << v) - 1
            v += 1
        else:  # the pass was not stopped
            q = cand.bit_length() - 1
            witness = set_bits(q ^ (q >> 1) | high)
            if w < best_w or witness < best_wit:
                best_w, best_wit = w, witness
    return DistanceResult(best_w, True, best_wit)


def _subset_minima(n: int, edges: Sequence[Edge], t: int) -> Iterator[tuple[int, int, int, list[int]]]:
    """The subset kernel over the n vertices of ``edges``, in blocks of 2^t
    subsets that share their high vertices (those >= t): block h holds the
    subsets whose high vertices are gray(h), bit q for the low subset
    gray(q).  For each block with a nonzero weight it yields h, the block's
    least nonzero weight, the positions that reach it, and the block's bit
    planes of the weights.

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
        yield h, w, cand, planes


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


def _subset_quotient(hypergraph: Hypergraph, dependencies: list[int]) -> DistanceResult:
    """The exact search over one subset per coset of the dependency space.

    ``dependencies`` is the basis of :func:`_vertex_dependencies`.  Each
    coset S + L has exactly one member that avoids the pivots, so the
    kernel (:func:`_subset_minima`) runs over the subsets of the other k
    vertices, on the hypergraph with the pivots deleted and the edges left
    empty dropped, and keeps every position at the least weight: each is
    one minimum word.

    The witness is the lexicographically smallest minimizer over all 2^n
    subsets, the smallest member of a minimum word's coset, which need not
    be the one that avoids the pivots.  A greedy reaches it from that
    member, walking the pivots upwards.  At pivot p, when the member has no
    vertex >= p, it is a prefix of every other member that agrees with it
    below p, so it is the smallest, and the greedy stops.  Otherwise every
    such member has a vertex >= p, and adding p's dependency puts in p, the
    least one possible, and leaves the other pivots out.  With the k
    vertices of the member to place, that is at most n steps per word.
    """
    n, rows = hypergraph.num_vertices, hypergraph.vertex_rows
    pivots = reduce(or_, (d & -d for d in dependencies))
    keep = [v for v in range(n) if not pivots >> v & 1]
    # The quotient's edges, read from the kept vertices' rows.
    edges: list[list[int]] = [[] for _ in range(hypergraph.num_edges)]
    for i, v in enumerate(keep):
        for j in set_bits(rows[v]):
            edges[j].append(i)
    quotient = [tuple(edge) for edge in edges if edge]
    k = len(keep)
    t = _subset_bits(k, len(quotient))
    best_w, minima = len(quotient) + 1, []
    for h, w, positions, _ in _subset_minima(k, quotient, t):
        if w < best_w:
            best_w, minima = w, []
        if w == best_w:
            minima.append(((h ^ (h >> 1)) << t, positions))
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

    A code of at most 8 codewords per coordinate is walked one codeword per
    step, which costs less than building columns; a larger one is counted
    in bit-sliced blocks (:func:`_count_blocks`).  Each pivot bit of the
    RREF basis sits in one row, so a code holds the all-ones word exactly
    when the XOR of its rows is that word, as it does for every hypergraph
    whose edges all have odd size.  The code is then C' + {0, all-ones}, C'
    spanned by all rows but the last, and the blocks count only C':
    A_w = A'_w + A'_{n-w}.
    """
    rows = code.basis.rows
    if not rows:
        # Not a list as long as the code, whose width no row uses.
        return [1]
    n = code.length
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
    """The counts of :func:`_count_walk`, summed over :func:`_weight_groups`."""
    counts = [0] * (n + 1)
    for w, s in chain.from_iterable(_weight_groups(rows, n)):
        counts[w] += s.bit_count()
    return counts


def _weight_groups(rows: tuple[int, ...], n: int) -> Iterator[list[tuple[int, int]]]:
    """The 2^k codewords grouped by weight, block by block in walk order.

    Block h holds the 2^t words whose high rows (those >= t) combine to
    gray(h) = h ^ (h >> 1), bit q for the word whose low rows combine to
    gray(q); step h * 2^t + q of the Gray walk over all messages reaches
    position q when h is even and 2^t - 1 - q when h is odd.  The
    coordinates fall into classes by their pattern gamma over the high rows,
    complemented together by the parity of gray(h) & gamma, so a class adds
    to each word the sum S of its columns over the low rows or |gamma| - S,
    both built once as bit planes by a carry-save vertical counter.

    The block sums are a Walsh-Hadamard transform over the classes, taken
    by halving (:func:`_halve`): high row b merges the classes gamma and
    gamma ^ 2^b into one, once for each value of its message bit, so the K
    high rows cost about K * 2^K class additions, not one per class and
    block (up to 4^K).
    The halves are visited depth first from the top row, the bit-1 half in
    reverse, as the reflected Gray code orders them, and each block's
    weights split plane by plane into its (weight, positions) groups.  The
    class of gamma = 0 is never complemented, and is the only one if k <= t.
    """
    k = len(rows)
    t = min(k, _BLOCK_BITS)
    while True:
        classes = {0: (1 << n) - 1}  # high pattern -> mask of its coordinates
        if k > t:
            high = [0] * n
            for i, row in enumerate(rows[t:]):
                bit = 1 << i
                while row:
                    p = row.bit_length() - 1
                    high[p] |= bit
                    row ^= 1 << p
            classes = {}
            for p, gamma in enumerate(high):
                classes[gamma] = classes.get(gamma, 0) | 1 << p
        if not t or _held_planes(classes, k - t) << t <= 1 << _TABLE_BITS:
            break
        t -= 1
    full = (1 << (1 << t)) - 1
    sums = {}  # gamma -> (planes of S, planes of |gamma| - S or None if gamma = 0)
    for gamma, mask in classes.items():
        columns = [0] * n
        for row, table in zip(rows, _message_tables(t)):
            row &= mask
            while row:
                p = row.bit_length() - 1
                columns[p] ^= table
                row ^= 1 << p
        size = mask.bit_count()
        top = size.bit_length()
        # Level j keeps a sum plane and at most one plane waiting for a
        # partner; a full adder of both and a new plane carries the majority.
        planes = [0] * top
        waiting = [0] * top
        for x in filter(None, columns):
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
    stack = [(sums, k - t, 0)]  # (classes, high rows left to merge, reversed)
    while stack:
        state, level, reverse = stack.pop()
        if level:
            halves = _halve(state, 1 << (level - 1))
            stack.append((halves[1 - reverse], level - 1, 1))
            stack.append((halves[reverse], level - 1, 0))
            continue
        planes = state[0][0]
        groups = [(0, full)]  # (weight bits read so far, positions with them)
        for j in reversed(range(len(planes))):
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
        yield groups


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


def _held_planes(classes: dict[int, int], high: int) -> int:
    """The most planes of 2^t bits that :func:`_weight_groups` holds at once.

    ``classes`` maps each high pattern gamma to the mask of its coordinates,
    over ``high`` high rows.  A class's sums take |gamma|.bit_length()
    planes each, two sums unless gamma = 0.  While the class sums are built,
    the columns of one class are held with the sums made so far.  In the
    halving, every state of one level has the same classes, so the deepest
    point of the first descent holds the most: the two halves just built;
    the waiting second half of every level above, with the sums it made;
    and the sums that a popped state made and passed on unchanged.  The one
    pair being added is left out.
    """
    peak = kept = 0
    state = {}  # gamma -> (size, whether this level made its sums)
    for gamma, mask in classes.items():
        size = mask.bit_count()
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
