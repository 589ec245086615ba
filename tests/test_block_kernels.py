"""The bit-sliced block kernels against the one-word-per-step Gray walks.

Both exhaustive engines walk a small scan one word per step and count a
larger one in blocks of 2^t words, t at most ``codes._BLOCK_BITS`` for the
weight counts and ``codes._SUBSET_BLOCK_BITS`` for the subset search.  Here
each kernel is called directly and must return exactly what the walk
returns, witness included.  Every early exit follows one rule: stop after
the first block, in scan order, whose least nonzero weight is within the
threshold, and report that weight as an upper bound; a scan of one block
or none is read whole.  The subset kernel scans one block (n <= t)
directly, held to the walk, and its early exit reads it whole at every
threshold; a search over several blocks (n > t) takes the quotient by the
vertex dependencies, one subset per coset, early exits included.  Its
exact result is held to the walk over all subsets, witness included, and
its early exit to a brute-force oracle of the rule: the first block, in
Gray order of the kept high vertices, whose least weight is within the
threshold, and the smallest subset whose row sum is one of that block's
minimum words.  The inputs span several blocks with the subset bound
lowered to 14, or to 1, 2 and 3, with ties across blocks, odd blocks,
repeated edges and repeated vertex rows, and one spy holds an early exit
to the subsets the exact search scans.  The codeword early exit reads the
count kernel's blocks when the exact counts come from more than one block
of the code's own words, so it is held to the per-word Gray loop cut into
blocks of 2^t steps, with the bound lowered to 1, 2 and 3 to spread small
codes over many blocks, and to a plain walk over all the words cut the
same way at every threshold, with the bound at 2, 3 and 4.  In the same
way the halving over the high rows is held, block by block and position by
position, to the per-block class loop it replaced and to the words
themselves, the Four Russians tables the columns are read from to the
message tables, and the counts of a code that holds the all-ones word,
taken by halves, to the walk over its whole basis.  The quotient is also
held to the walk on its own inputs: repeated edges, identical vertex rows,
a witness that is not the member of its coset that the route scans, and
codes whose every nonzero word is a minimum word.  Its edges, cut from the
hypergraph's, are held to the columns of the kept vertex rows.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import chain, combinations
from operator import or_, xor

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypercode.codes as codes
from conftest import bit_matrices, hypergraphs
from hypercode import (
    BitMatrix,
    Hypergraph,
    block_row,
    circulant_hypergraph,
    codeword_distance_search,
    complete_3partite,
    eonv_distance_search,
    from_generator,
    from_incidence_matrix,
    incidence_matrix,
    projective_geometry,
    random_hypergraph,
    random_uniform_hypergraph,
)
from hypercode.codes import (
    _count_blocks,
    _count_walk,
    _subset_blocks,
    _subset_quotient,
    _subset_walk,
    _vertex_dependencies,
)
from hypercode.gf2core import rank, set_bits

BLOCK = codes._BLOCK_BITS
DEFAULT_SUBSET_BLOCK = codes._SUBSET_BLOCK_BITS
SUBSET_BLOCK = 14  # the subset bound that TestSubsetBlocks sizes its inputs against


def read_whole(exact, early_exit: int | None):
    """The early exit of a route that scans one block or none: the exact
    result, flagged inexact when its value is <= early_exit."""
    if early_exit is None or exact.value > early_exit:
        return exact
    return codes.DistanceResult(exact.value, False, exact.witness)


def assert_same_search(hg: Hypergraph, early_exit: int | None = None):
    """One block (n <= t): the kernel, the walk and the engine agree, and
    an early exit reads the block whole."""
    assert hg.num_vertices <= codes._subset_bits(hg.num_vertices, hg.num_edges)
    kernel = _subset_blocks(hg)
    assert kernel == _subset_walk(hg)
    assert eonv_distance_search(hg, early_exit=early_exit) == read_whole(kernel, early_exit)
    assert_same_quotient(hg, kernel)
    return kernel


def assert_same_quotient(hg: Hypergraph, expected):
    """The quotient route against ``expected``, the full scan's result,
    whether the vertex rows are dependent or not.

    The dependencies must number n - rank, and the route must give the
    full scan's value and witness.
    """
    dependencies = _vertex_dependencies(hg.vertex_rows)
    assert len(dependencies) == hg.num_vertices - rank(incidence_matrix(hg))
    assert _subset_quotient(hg, dependencies) == expected


def quotient_early_exit(hg: Hypergraph, early_exit: int):
    """The early exit over several blocks by brute force: the first block,
    h, whose least weight is <= early_exit, and the result, or None and
    the walk's exact result when no block meets it.

    A vertex is kept when its row is not a sum of higher rows, and the
    blocks are the subsets of the kept vertices in Gray order of the kept
    high vertices (those from index t on), each block's words the row sums
    of its 2^t subsets.  The witness is the smallest of all 2^n subsets
    whose row sum is one of the meeting block's minimum words.
    """
    rows, n, m = hg.vertex_rows, hg.num_vertices, hg.num_edges
    ranks = [rank(BitMatrix(n - v, m, rows[v:])) for v in range(n)] + [0]
    kept = [v for v in range(n) if ranks[v] > ranks[v + 1]]
    t = codes._subset_bits(len(kept), m)
    low, high = kept[:t], kept[t:]
    low_sums = [reduce(xor, (rows[low[i]] for i in set_bits(mask)), 0) for mask in range(1 << t)]
    for h in range(1 << len(high)):
        base = reduce(xor, (rows[high[i]] for i in set_bits(h ^ (h >> 1))), 0)
        words = {base ^ s for s in low_sums} - {0}
        least = min((word.bit_count() for word in words), default=m + 1)
        if least <= early_exit:
            minimum = {word for word in words if word.bit_count() == least}
            sums = [0]
            for mask in range(1, 1 << n):
                sums.append(sums[mask & (mask - 1)] ^ rows[(mask & -mask).bit_length() - 1])
            witness = min(set_bits(mask) for mask, word in enumerate(sums) if word in minimum)
            return h, codes.DistanceResult(least, False, witness)
    return None, _subset_walk(hg)


def assert_same_blocks_search(hg: Hypergraph, early_exit: int | None = None):
    """Several blocks (n > t): the engine takes the quotient, and gives the
    walk's result without an early exit and the oracle's with one."""
    assert hg.num_vertices > codes._subset_bits(hg.num_vertices, hg.num_edges)
    result = eonv_distance_search(hg, early_exit=early_exit)
    if early_exit is None:
        assert result == _subset_walk(hg)
        assert_same_quotient(hg, result)
    else:
        assert result == quotient_early_exit(hg, early_exit)[1], early_exit
    return result


def assert_same_row_counts(rows, n):
    assert _count_blocks(rows, n) == _count_walk(rows, n)


def assert_same_counts(code):
    assert_same_row_counts(code.basis.rows, code.length)


def test_small_scans_walk_and_larger_ones_use_blocks(monkeypatch):
    calls = []
    monkeypatch.setattr(codes, "_subset_blocks", lambda hg: calls.append("subset") or codes.DistanceResult(1, True))
    monkeypatch.setattr(codes, "_count_blocks", lambda rows, n: calls.append("count") or [1])
    # 2^3 subsets for 1 edge, 2 codewords for 1 coordinate: walked.
    eonv_distance_search(Hypergraph(3, ((0, 1, 2),)))
    codes._weight_counts(from_generator(BitMatrix(3, 1, (1, 1, 1))).basis.rows, 1)
    assert calls == []
    # 2^6 subsets for 7 edges, 2^6 codewords for 7 coordinates: blocks.
    eonv_distance_search(Hypergraph(6, tuple((v,) for v in range(6)) + ((0,),)))
    codes._weight_counts(from_generator(BitMatrix(6, 7, tuple(1 << v for v in range(6)))).basis.rows, 7)
    assert calls == ["subset", "count"]


class TestSingleBlock:
    @given(hypergraphs(max_vertices=8, max_edges=12), st.none() | st.integers(0, 12))
    def test_subset_search_matches(self, hg, early_exit):
        assert_same_search(hg, early_exit)

    @given(bit_matrices(min_rows=1, max_rows=9, min_cols=1, max_cols=14))
    def test_weight_counts_match(self, matrix):
        code = from_generator(matrix)
        if code.dimension:
            assert_same_counts(code)

    def test_one_vertex_and_one_row(self):
        assert_same_search(Hypergraph(1, ((0,), (0,), (0,))))
        assert _count_blocks((0b10110,), 5) == [1, 0, 0, 1, 0, 0]

    def test_zero_code_counts_only_the_zero_word(self):
        assert codes._weight_counts(from_generator(BitMatrix(2, 6, (0, 0))).basis.rows, 6) == [1]


class TestSubsetBlocks:
    """Inputs over several blocks at the subset bound 14: the engine takes
    the quotient, held to the walk when exact and to
    :func:`quotient_early_exit` at each early exit."""

    @pytest.fixture(autouse=True)
    def subset_bound(self, monkeypatch):
        monkeypatch.setattr(codes, "_SUBSET_BLOCK_BITS", SUBSET_BLOCK)

    def test_random_hypergraphs_over_two_to_eight_blocks(self):
        rng = random.Random(12)
        for n in (15, 16, 17):
            hg = random_hypergraph(rng, n, rng.randint(10, 24))
            assert n > SUBSET_BLOCK
            assert_same_blocks_search(hg)

    def test_early_exit_first_met_in_an_odd_block(self):
        rng = random.Random(5)
        odd_exits = 0
        for n in (15, 16):
            for _ in range(3):
                hg = random_hypergraph(rng, n, rng.randint(14, 22), max_edge_size=n // 2)
                exact = assert_same_blocks_search(hg)
                for threshold in range(exact.value, hg.num_edges + 1):
                    block, expected = quotient_early_exit(hg, threshold)
                    assert eonv_distance_search(hg, early_exit=threshold) == expected
                    odd_exits += block & 1
        assert odd_exits > 0

    def test_early_exit_in_an_odd_block_takes_its_smallest_minimizer(self):
        # Vertex 0 has 6 private edges, vertices 1..13 four each, and vertex
        # 14 lies in 3 of vertex 0's edges.  No subset of 0..13 has weight
        # <= 3; in the second block {14} and {0, 14} both have weight 3,
        # and the stop takes the smaller, {0, 14}.
        edges = [(0, 14)] * 3 + [(0,)] * 3
        edges += [(v,) for v in range(1, 14) for _ in range(4)]
        hg = Hypergraph(15, tuple(edges))
        assert quotient_early_exit(hg, 3)[0] == 1
        assert assert_same_blocks_search(hg, 3) == codes.DistanceResult(3, False, (0, 14))

    def test_minimum_ties_across_blocks(self):
        # 131072 subsets of block_circulant(9,1)'s 18 vertices reach d = 9.
        hg = circulant_hypergraph(block_row(9, 1))
        assert assert_same_blocks_search(hg).value == 9
        assert_same_blocks_search(hg, 9)

    def test_zero_weight_subsets_in_block_zero_and_later(self):
        # Vertices 0..13 lie in no edge: the whole first block has weight zero.
        assert_same_blocks_search(Hypergraph(15, ((14,), (14,))))
        # Vertex 1 repeats vertex 0's edges and vertex 15 repeats vertex
        # 14's: {0, 1} has weight zero in the first block, {14, 15} in a later one.
        rng = random.Random(6)
        edges = []
        for _ in range(12):
            edge = set(rng.sample([0, *range(2, 15)], 4))
            edge |= {1} if 0 in edge else set()
            edge |= {15} if 14 in edge else set()
            edges.append(tuple(sorted(edge)))
        hg = Hypergraph(16, tuple(edges))
        rows = hg.vertex_rows
        assert rows[0] == rows[1] != 0 and rows[14] == rows[15] != 0
        exact = assert_same_blocks_search(hg)
        for early_exit in range(exact.value + 3):
            assert_same_blocks_search(hg, early_exit)

    def test_edges_without_low_vertices(self):
        # Edges on high vertices only give all-zero columns in every block.
        rng = random.Random(3)
        edges = [tuple(sorted(rng.sample(range(15, 17), rng.randint(1, 2)))) for _ in range(6)]
        edges += [tuple(sorted(rng.sample(range(17), 4))) for _ in range(8)]
        hg = Hypergraph(17, tuple(edges))
        assert_same_blocks_search(hg)
        for early_exit in range(0, 5):
            assert_same_blocks_search(hg, early_exit)


def hypergraph_from_rows(rows) -> Hypergraph:
    """The hypergraph whose vertex v has incidence row ``rows[v]``."""
    m = max(rows).bit_length()
    edges = [tuple(v for v, row in enumerate(rows) if row >> j & 1) for j in range(m)]
    return Hypergraph(len(rows), tuple(edge for edge in edges if edge))


def tie_rows(rng, n, ties):
    """Random rows of 40 edges for n vertices; then, for each (subset, v) of
    ``ties`` in turn, row v is set so that the subset's rows add up to one
    new private edge.  Those subsets have weight 1, and random rows of 40
    bits leave no other subset that light."""
    rows = [rng.getrandbits(40) for _ in range(n)]
    for i, (subset, v) in enumerate(ties):
        rows[v] = reduce(xor, (rows[u] for u in subset if u != v), 1 << (40 + i))
    return rows


def minimizers(hg):
    """The subsets of least nonzero weight, in lexicographic order."""
    rows = hg.vertex_rows
    weights = {}
    for mask in range(1, 1 << hg.num_vertices):
        w = reduce(xor, (rows[v] for v in set_bits(mask))).bit_count()
        if w:
            weights[set_bits(mask)] = w
    least = min(weights.values())
    return sorted(subset for subset, w in weights.items() if w == least)


def spy_quotient(monkeypatch) -> list:
    """Records each call of the quotient route as (hypergraph,
    dependencies, early_exit, result)."""
    calls = []

    def spy(hg, dependencies, early_exit=None):
        calls.append((hg, dependencies, early_exit, real(hg, dependencies, early_exit)))
        return calls[-1][3]

    real = codes._subset_quotient
    monkeypatch.setattr(codes, "_subset_quotient", spy)
    return calls


class TestSubsetKernelAtEveryThreshold:
    """Every threshold from 0 to m + 1, and none.  At the default subset
    bound each input fits in one block: ``_subset_blocks`` is held to
    ``_subset_walk``'s value and witness, and each early exit reads the
    block whole (:func:`read_whole`).  The bound lowered to 1, 2 and 3
    spreads each input over many blocks, so the engine takes the quotient,
    held to the walk when exact and to :func:`quotient_early_exit` at each
    early exit."""

    def assert_every_threshold(self, monkeypatch, hg):
        thresholds = [None, *range(hg.num_edges + 2)]
        exact = _subset_walk(hg)
        monkeypatch.setattr(codes, "_SUBSET_BLOCK_BITS", DEFAULT_SUBSET_BLOCK)
        assert _subset_blocks(hg) == exact
        for early_exit in thresholds:
            assert eonv_distance_search(hg, early_exit=early_exit) == read_whole(exact, early_exit), early_exit
        quotients = spy_quotient(monkeypatch)
        for bits in (1, 2, 3):
            monkeypatch.setattr(codes, "_SUBSET_BLOCK_BITS", bits)
            for early_exit in thresholds:
                assert_same_blocks_search(hg, early_exit)
        assert len(quotients) == 3 * len(thresholds)
        return exact

    @pytest.mark.parametrize("k, m", [(2, 2), (4, 1), (6, 1), (3, 2), (2, 3)])
    def test_tie_heavy_block_circulants(self, monkeypatch, k, m):
        hg = circulant_hypergraph(block_row(k, m))
        assert len(set(hg.edges)) == 2 * m
        self.assert_every_threshold(monkeypatch, hg)

    def test_edges_repeated_two_to_five_times(self, monkeypatch):
        rng = random.Random(31)
        for n in (6, 9, 11):
            base = random_hypergraph(rng, n, 8).edges
            edges = [edge for edge in base for _ in range(rng.randint(2, 5))]
            rng.shuffle(edges)
            self.assert_every_threshold(monkeypatch, Hypergraph(n, tuple(edges)))

    def test_an_edge_repeated_a_count_of_several_set_bits(self, monkeypatch):
        # 13 = 0b1101 copies of one edge: over several blocks, one column
        # added at levels 0, 2 and 3.
        rng = random.Random(32)
        for n in (7, 10):
            edges = list(random_hypergraph(rng, n, 6).edges) + [(1, n - 2)] * 13
            rng.shuffle(edges)
            self.assert_every_threshold(monkeypatch, Hypergraph(n, tuple(edges)))

    def test_vertex_pairs_with_identical_rows(self, monkeypatch):
        # {0, 1} and {7, 8} have weight zero in low and high blocks alike.
        rng = random.Random(33)
        for _ in range(3):
            rows = [rng.getrandbits(12) for _ in range(9)]
            rows[1], rows[8] = rows[0], rows[7]
            self.assert_every_threshold(monkeypatch, hypergraph_from_rows(rows))

    def test_smallest_minimizer_in_a_block_after_the_first_tie(self, monkeypatch):
        # {0, 5} is in block 0 at the bound 3.  {0, 1, 6} and {0, 1, 2, 6}
        # tie it in one later block, and the smallest of the three is the
        # witness of the exact search and of the one-block early exit at 1.
        ties = [((0, 5), 5), ((0, 1, 6), 6), ((0, 1, 2, 6), 2)]
        hg = hypergraph_from_rows(tie_rows(random.Random(34), 8, ties))
        assert minimizers(hg) == [(0, 1, 2, 6), (0, 1, 6), (0, 5)]
        assert eonv_distance_search(hg, early_exit=1) == codes.DistanceResult(1, False, (0, 1, 2, 6))
        assert self.assert_every_threshold(monkeypatch, hg).witness == (0, 1, 2, 6)

    def test_shorter_prefix_in_block_zero_wins(self, monkeypatch):
        # {0} has weight 1 in the first block.  At the bound 3, {0, 1, 5}
        # and {0, 2, 5} tie it in one later block; {0} is a prefix of both,
        # so the first block's witness stands.
        ties = [((0,), 0), ((0, 1, 5), 5), ((0, 2, 5), 2)]
        hg = hypergraph_from_rows(tie_rows(random.Random(35), 7, ties))
        assert minimizers(hg) == [(0,), (0, 1, 5), (0, 2, 5)]
        assert self.assert_every_threshold(monkeypatch, hg) == codes.DistanceResult(1, True, (0,))

    def test_smallest_minimizer_in_the_second_block_at_the_default_bound(self):
        # {0, 5} in the first block; {0, 1, 16} and {0, 2, 16} tie it in
        # the second, the block of vertex 16.  The early exit at 1 stops
        # after the first block, with {0, 5} as its witness.
        ties = [((0, 5), 5), ((0, 1, 16), 16), ((0, 2, 16), 2)]
        hg = hypergraph_from_rows(tie_rows(random.Random(36), 17, ties))
        assert DEFAULT_SUBSET_BLOCK == 16
        assert quotient_early_exit(hg, 1)[0] == 0
        assert assert_same_blocks_search(hg) == codes.DistanceResult(1, True, (0, 1, 16))
        assert assert_same_blocks_search(hg, 1) == codes.DistanceResult(1, False, (0, 5))


def simplex_rows(k):
    """Vertex rows of the simplex code: edge j holds the vertices at the
    set bits of j + 1, so every nonzero word has weight 2^(k-1)."""
    return [sum(1 << j for j in range((1 << k) - 1) if (j + 1) >> v & 1) for v in range(k)]


class TestSubsetQuotient:
    """The search over one subset per coset of the dependency space
    (``codes._subset_quotient``) against the walk over all 2^n subsets:
    the value, and the witness, which is the smallest minimizer over all
    subsets and need not be the member of its coset that the route scans.
    The subset bound is lowered so that the inputs span several blocks
    (n > t), which opens the route."""

    @pytest.fixture(autouse=True)
    def quotients(self, monkeypatch):
        return spy_quotient(monkeypatch)

    @staticmethod
    def search(monkeypatch, hg, bits=3):
        monkeypatch.setattr(codes, "_SUBSET_BLOCK_BITS", bits)
        result = eonv_distance_search(hg)
        assert result == _subset_walk(hg), bits
        return result

    @given(hypergraphs(max_vertices=10, max_edges=8))
    def test_dependencies_are_a_reduced_basis(self, hg):
        # Each one meets every edge evenly, has its own lowest vertex (its
        # pivot) that no other one holds, and they number n - rank.
        rows = hg.vertex_rows
        dependencies = _vertex_dependencies(rows)
        assert len(dependencies) == hg.num_vertices - rank(incidence_matrix(hg))
        pivots = [d & -d for d in dependencies]
        assert pivots == sorted(set(pivots))
        for d in dependencies:
            assert reduce(xor, (rows[v] for v in set_bits(d))) == 0
            assert sum(d & p != 0 for p in pivots) == 1

    def test_edges_repeated_two_to_five_times(self, monkeypatch, quotients):
        rng = random.Random(41)
        for n in (7, 9, 11):
            base = random_hypergraph(rng, n, n - 3).edges
            edges = [edge for edge in base for _ in range(rng.randint(2, 5))]
            rng.shuffle(edges)
            for bits in (1, 2, 3):
                self.search(monkeypatch, Hypergraph(n, tuple(edges)), bits)
        assert len(quotients) == 9

    def test_identical_vertex_rows_give_a_dependency_of_two(self, monkeypatch, quotients):
        rng = random.Random(42)
        for _ in range(5):
            rows = [rng.getrandbits(14) for _ in range(8)]
            rows[6] = rows[2]
            hg = hypergraph_from_rows(rows)
            assert _vertex_dependencies(hg.vertex_rows) == [1 << 2 | 1 << 6]
            for bits in (1, 2, 3):
                self.search(monkeypatch, hg, bits)
        assert len(quotients) == 15

    def test_smallest_minimizer_is_not_the_scanned_member(self, monkeypatch, quotients):
        # Row 5 is rows 0 + 1, so {0, 1, 5} is the one dependency and
        # vertex 0 its pivot.  The one word of weight 1 is row 1's: the
        # route scans its coset's member (1,), and (0, 5) < (1,) is the
        # witness.
        rng = random.Random(43)
        rows = [rng.getrandbits(40) for _ in range(7)]
        rows[1] = 1 << 40
        rows[5] = rows[0] ^ rows[1]
        hg = hypergraph_from_rows(rows)
        assert _vertex_dependencies(hg.vertex_rows) == [0b100011]
        assert minimizers(hg) == [(0, 5), (1,)]
        assert self.search(monkeypatch, hg) == codes.DistanceResult(1, True, (0, 5))
        assert len(quotients) == 1

    def test_random_inputs_like_the_engine_agreement_corpus(self, monkeypatch, quotients):
        rng = random.Random(44)
        for i in range(300):
            if i % 3:
                n = rng.randint(1, 12)
                hg = random_hypergraph(rng, n, rng.randint(1, 18))
            else:
                n = rng.randint(5, 6)
                candidates = [s for size in range(1, n + 1) for s in combinations(range(n), size)]
                hg = Hypergraph(n, tuple(rng.sample(candidates, rng.randint(1, 20))))
            self.search(monkeypatch, hg, rng.randint(1, 3))
        assert len(quotients) > 80

    def test_full_rank_and_early_exits_take_the_quotient(self, monkeypatch, quotients):
        # Over several blocks every search takes the quotient, early exits
        # included: a full-rank one with no dependency, which keeps every
        # vertex, and a dependent one with its dependency.
        rng = random.Random(45)
        monkeypatch.setattr(codes, "_SUBSET_BLOCK_BITS", 1)
        full_rank = [hypergraph_from_rows([1 << v | rng.getrandbits(12) << n for v in range(n)]) for n in (4, 7, 10)]
        dependent = hypergraph_from_rows([0b011, 0b110, 0b101, 0b1000])
        routes = []
        for hg, dependencies in [*((hg, []) for hg in full_rank), (dependent, [0b111])]:
            for early_exit in (None, *range(4)):
                assert_same_blocks_search(hg, early_exit)
                routes.append((hg, dependencies, early_exit))
        assert [call[:3] for call in quotients] == routes

    @given(hypergraphs(max_vertices=9, max_edges=12), st.data())
    def test_quotient_edges_are_the_kept_rows_columns(self, hg, data):
        # The oracle is from_incidence_matrix of the kept rows: the edges of
        # their nonzero columns.  Appended copies of edges, and copies of
        # vertex rows, which give dependencies, put repeated edges in the
        # input and in the quotient.
        copies = data.draw(st.lists(st.sampled_from(hg.edges), max_size=4))
        twins = data.draw(st.lists(st.integers(0, hg.num_vertices - 1), max_size=3))
        rows = [*Hypergraph(hg.num_vertices, hg.edges + tuple(copies)).vertex_rows]
        hg = hypergraph_from_rows(rows + [rows[v] for v in twins])
        dependencies = _vertex_dependencies(hg.vertex_rows)
        pivots = reduce(or_, (d & -d for d in dependencies), 0)
        kept = tuple(row for v, row in enumerate(hg.vertex_rows) if not pivots >> v & 1)
        oracle = from_incidence_matrix(BitMatrix(len(kept), hg.num_edges, kept)).edges
        seen = []
        real = codes._subset_minima

        def spy(k, edges, t):
            seen.append((k, list(edges)))
            return real(k, edges, t)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codes, "_subset_minima", spy)
            result = _subset_quotient(hg, dependencies)
        assert seen == [(len(kept), list(oracle))]
        # No edge is left empty: a pivot's row is a sum of kept rows.
        assert len(oracle) == hg.num_edges
        assert result == _subset_walk(hg)

    @pytest.mark.parametrize("k, copies", [(12, 1), (5, 3), (5, 4)])
    def test_every_word_of_minimum_weight(self, monkeypatch, quotients, k, copies):
        # Simplex rows, whose 2^k - 1 nonzero words all weigh 2^(k-1), and
        # vertex 0's row `copies` more times: every word is a minimum word,
        # and each takes the greedy to its smallest coset member.  k = 12
        # over 4095 edges spans two blocks at the default bound (t = 11);
        # k = 5 is searched with the bound lowered to 3.
        rows = simplex_rows(k)
        hg = hypergraph_from_rows(rows + rows[:1] * copies)
        assert len(_vertex_dependencies(hg.vertex_rows)) == copies
        result = self.search(monkeypatch, hg, DEFAULT_SUBSET_BLOCK if k == 12 else 3)
        assert result == codes.DistanceResult(1 << (k - 1), True, (0,))
        assert [(route, found) for route, _, _, found in quotients] == [(hg, result)]


def test_early_exit_reads_no_more_subsets_than_the_exact_search(monkeypatch):
    # block_circulant(2,6) has 24 vertices and rank 7.  Its early exit
    # at 3, below d = 4, scans the 2^7 cosets as the exact search does,
    # not the 2^24 subsets, and gives the exact result.
    hg = circulant_hypergraph(block_row(2, 6))
    scanned = []
    real = codes._subset_minima

    def spy(k, edges, t):
        scanned.append(k)
        return real(k, edges, t)

    monkeypatch.setattr(codes, "_subset_minima", spy)
    exact = eonv_distance_search(hg)
    assert eonv_distance_search(hg, early_exit=3) == exact == codes.DistanceResult(4, True, (0, 1))
    assert (hg.num_vertices, scanned) == (24, [7, 7])


def spread(columns):
    """Rows of the matrix with these columns, each a k-bit int (bit i is row i)."""
    k = max(column.bit_length() for column in columns)
    return tuple(
        sum(1 << p for p, column in enumerate(columns) if column >> i & 1) for i in range(k)
    )


def complement_sizes(monkeypatch):
    """The class sizes that ``_count_blocks`` builds complement sums for."""
    sizes = []
    complement_sum = codes._complement_sum

    def counted(planes, size, full):
        sizes.append(size)
        return complement_sum(planes, size, full)

    monkeypatch.setattr(codes, "_complement_sum", counted)
    return sizes


class TestCountBlocks:
    """Block h adds the high rows' combination h, and the coordinates fall
    into classes by their pattern over the high rows: the rows >= BLOCK
    here, since t = BLOCK in every test but the one of the budget."""

    def test_every_coordinate_repeated(self):
        # Twenty distinct columns, each repeated 8 to 16 times: large classes.
        rng = random.Random(21)
        k = BLOCK + 2
        distinct = [rng.getrandbits(k) | 1 << (k - 1) for _ in range(20)]
        columns = [c for c in distinct for _ in range(rng.randint(8, 16))]
        rng.shuffle(columns)
        assert_same_row_counts(spread(columns), len(columns))

    def test_all_coordinates_in_one_class(self):
        # The high rows are all ones: every coordinate has the same pattern,
        # and every block complements every column or none.
        rng = random.Random(22)
        n = 40
        rows = tuple(rng.getrandbits(n) for _ in range(BLOCK)) + ((1 << n) - 1,) * 3
        assert_same_row_counts(rows, n)

    def test_every_coordinate_its_own_class(self):
        # n = 2^(k - t): coordinate p has high pattern p, one class each.
        rng = random.Random(23)
        high_rows = 4
        n = 1 << high_rows
        rows = tuple(rng.getrandbits(n) for _ in range(BLOCK))
        rows += tuple(sum(1 << p for p in range(n) if p >> i & 1) for i in range(high_rows))
        assert_same_row_counts(rows, n)

    def test_one_high_row(self):
        rng = random.Random(24)
        for n in (1, 2, 17, 100):
            assert_same_row_counts(tuple(rng.getrandbits(n) for _ in range(BLOCK + 1)), n)

    def test_zero_coordinates_and_zero_high_patterns(self):
        # Coordinates 0..9 are zero in every row and 10..29 in every high
        # row, so the class of pattern zero mixes zero and nonzero columns.
        rng = random.Random(25)
        n = 60
        rows = tuple(rng.getrandbits(50) << 10 for _ in range(BLOCK))
        rows += tuple(rng.getrandbits(30) << 30 for _ in range(2))
        assert_same_row_counts(rows, n)

    def test_random_narrow_codes_over_two_to_eight_blocks(self):
        rng = random.Random(26)
        for k in range(BLOCK + 1, BLOCK + 4):
            for _ in range(2):
                n = rng.randint(16, 64)
                assert_same_row_counts(tuple(rng.getrandbits(n) for _ in range(k)), n)

    def test_one_block_builds_no_complement_sums(self, monkeypatch):
        sizes = complement_sizes(monkeypatch)
        rng = random.Random(27)
        n = 64
        rows = tuple(rng.getrandbits(n) for _ in range(BLOCK))
        assert_same_row_counts(rows, n)
        assert sizes == []
        # One high row: the coordinates it touches form the one class that
        # blocks complement.
        rows += (rng.getrandbits(n),)
        assert_same_row_counts(rows, n)
        assert sizes == [rows[-1].bit_count()]

    def test_columns_beyond_the_budget_lower_t(self, monkeypatch):
        # 600 columns of 2^BLOCK bits exceed 2^23 bits: t drops by one, and
        # the last row becomes a high row whose class blocks complement.
        sizes = complement_sizes(monkeypatch)
        rng = random.Random(28)
        n = 600
        assert n << BLOCK > 1 << codes._TABLE_BITS
        rows = tuple(rng.getrandbits(n) for _ in range(BLOCK))
        assert_same_row_counts(rows, n)
        assert sizes == [rows[-1].bit_count()]

    def test_wide_codes_over_several_blocks(self):
        rng = random.Random(8)
        for k, n in ((15, 512), (16, 600)):
            code = from_generator(BitMatrix(k, n, tuple(rng.getrandbits(n) for _ in range(k))))
            assert code.dimension == k > BLOCK
            assert_same_counts(code)

    def test_zero_coordinates_and_zero_low_columns(self):
        # Coordinates 0..99 are zero in every row.  The RREF orders its rows
        # by pivot, and a pivot column is zero in every other row, so the
        # high rows' pivot columns are zero in all the low rows.
        rng = random.Random(4)
        rows = tuple(rng.getrandbits(200) << 100 for _ in range(16))
        code = from_generator(BitMatrix(16, 300, rows))
        assert code.dimension == 16 > BLOCK
        assert_same_counts(code)


def takes_blocks(code):
    """Whether the codeword early exit reads the count kernel's blocks: the
    exact counts come from the code's own words, more than 2^_BLOCK_BITS
    of them, and not from the dual or the twin walk."""
    return code.dimension > codes._BLOCK_BITS and not codes._dual_is_cheaper(code) and code._twins is None


def gray_loop_search(code, early_exit, t):
    """The codeword early exit as the per-word Gray loop cut into blocks of
    2^t steps, with the block it stopped after.

    Step i XORs one basis row and reaches the message gray(i), and block h
    holds the steps h 2^t to (h + 1) 2^t - 1.  The loop stops after the
    first block whose least nonzero weight is <= early_exit, with that
    weight as an upper bound.  Without a stop the block is None and the
    least weight met is exact.
    """
    rows = code.basis.rows
    best = least = code.length + 1
    acc = 0
    for i in range(1, 1 << len(rows)):
        acc ^= rows[(i & -i).bit_length() - 1]
        if acc:
            least = min(least, acc.bit_count())
        if not (i + 1) % (1 << t):  # the last step of block i >> t
            if least <= early_exit:
                return codes.DistanceResult(least, False), i >> t
            best, least = min(best, least), code.length + 1
    return codes.DistanceResult(best, True), None


def assert_same_early_exits(code, t=None):
    """Every threshold from 0 to n + 1: against the loop over blocks of 2^t
    steps (t = min(k, _BLOCK_BITS) unless given) when the search reads the
    count kernel's blocks, and otherwise against the exact result read
    whole.  Returns the blocks that the loop stopped after."""
    exact = codeword_distance_search(code)
    blocks = takes_blocks(code)
    if t is None:
        t = min(code.dimension, codes._BLOCK_BITS)
    stops = []
    for early_exit in range(code.length + 2):
        if blocks:
            expected, stop = gray_loop_search(code, early_exit, t)
            stops.append(stop)
        else:
            expected = read_whole(exact, early_exit)
        assert codeword_distance_search(code, early_exit=early_exit) == expected, early_exit
    return stops


class TestCountEarlyExit:
    """Over several count-kernel blocks (k > _BLOCK_BITS) the codeword
    early exit reads the blocks' planes in Gray order and stops after the
    first block whose least nonzero weight is <= early_exit: it is held to
    the Gray loop cut into blocks of 2^t steps."""

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_every_threshold_over_many_blocks(self, monkeypatch, bits):
        monkeypatch.setattr(codes, "_BLOCK_BITS", bits)
        rng = random.Random(40 + bits)
        later_stops = 0
        for _ in range(60):
            k, n = rng.randint(bits + 1, 10), rng.randint(4, 16)
            code = from_generator(BitMatrix(k, n, tuple(rng.getrandbits(n) for _ in range(k))))
            if not code.dimension:
                continue
            later_stops += sum(stop is not None and stop > 0 for stop in assert_same_early_exits(code))
        assert later_stops > 0

    @pytest.mark.parametrize("all_ones", [False, True])
    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_planes_against_a_plain_walk(self, monkeypatch, bits, all_ones):
        # The weights of all 2^k words in walk order, step i reaching the
        # message gray(i), cut into blocks of 2^bits steps; at every
        # threshold the search must stop after the first block whose least
        # nonzero weight is <= threshold, with that weight, or be exact.
        # The codes are built reduced, row i with pivot i and its other bits
        # above k: dense low rows, and high rows that mostly lie near a low
        # row, so that many thresholds stop past block 0, some in blocks
        # whose least weight the walk meets after a heavier one within the
        # threshold.
        monkeypatch.setattr(codes, "_BLOCK_BITS", bits)
        rng = random.Random(140 + 10 * all_ones + bits)
        lighter_stops = 0
        for _ in range(30):
            k, rest = rng.randint(bits + 1, 9), rng.randint(8, 14)
            n = k + rest
            rows = [1 << i | (rng.getrandbits(rest) | rng.getrandbits(rest)) << k for i in range(bits)]
            for i in range(bits, k):
                near = rows[rng.randrange(bits)] >> k if rng.random() < 0.7 else 0
                rows.append(1 << i | (near ^ 1 << rng.randrange(rest) ^ 1 << rng.randrange(rest)) << k)
            if all_ones:
                rows[-1] = (1 << n) - 1 ^ reduce(xor, rows[:-1])
            elif reduce(xor, rows) == (1 << n) - 1:
                rows[0] ^= 1 << k
            rows = tuple(rows)
            code = from_generator(BitMatrix(k, n, rows))
            assert code.basis.rows == rows
            assert (reduce(xor, rows) == (1 << n) - 1) == all_ones
            assert takes_blocks(code)
            weights = [0]
            for i in range(1, 1 << k):
                weights.append(weights[-1] ^ rows[(i & -i).bit_length() - 1])
            weights = [word.bit_count() for word in weights]
            blocks = [[w for w in weights[h : h + (1 << bits)] if w] for h in range(0, 1 << k, 1 << bits)]
            for threshold in range(n + 1):
                stop = next((block for block in blocks if block and min(block) <= threshold), None)
                if stop is None:
                    expected = codes.DistanceResult(min(weights[1:]), True)
                else:
                    expected = codes.DistanceResult(min(stop), False)
                    lighter_stops += min(stop) < next(w for w in stop if w <= threshold)
                assert codeword_distance_search(code, early_exit=threshold) == expected, threshold
        assert lighter_stops > 0

    def test_early_exit_in_an_odd_block_takes_its_least_weight(self, monkeypatch):
        # Basis rows r0, r1 in the low block bits and r2 high, so block 1
        # holds r2 plus the low words.  Block 0 has no weight <= 4; block 1
        # has r0 ^ r2 (weight 4) and r1 ^ r2 (weight 3), and the stop
        # after it reports its least weight, 3.
        monkeypatch.setattr(codes, "_BLOCK_BITS", 2)
        rows = (0b101110001, 0b011111010, 0b001111100)
        code = from_generator(BitMatrix(3, 9, rows))
        assert code.basis.rows == rows
        assert [(rows[2] ^ r).bit_count() for r in rows[:2]] == [4, 3]
        assert codeword_distance_search(code, early_exit=4) == codes.DistanceResult(3, False)
        assert gray_loop_search(code, 4, 2) == (codes.DistanceResult(3, False), 1)

    def test_zero_word_is_never_a_stop(self, monkeypatch):
        # The zero word sits at position 0 of block 0: threshold 0 finds no
        # stop, and threshold n stops after block 0 with the least weight
        # of the words spanned by its rows, the first two.
        monkeypatch.setattr(codes, "_BLOCK_BITS", 2)
        rng = random.Random(41)
        for k in (1, 2, 5):
            code = from_generator(BitMatrix(k, 12, tuple(rng.getrandbits(12) for _ in range(k))))
            exact = codeword_distance_search(code)
            assert codeword_distance_search(code, early_exit=0) == exact
            low = code.basis.rows[:2]
            first = min(word.bit_count() for word in (*low, reduce(xor, low)))
            assert codeword_distance_search(code, early_exit=12) == codes.DistanceResult(first, False)
            assert_same_early_exits(code)

    def test_blocks_of_one_word(self, monkeypatch):
        # A budget of 2 bits takes t to 0: each block holds one word, and
        # block 0 holds only the zero word, whose planes are all zero.
        monkeypatch.setattr(codes, "_BLOCK_BITS", 2)
        monkeypatch.setattr(codes, "_TABLE_BITS", 1)
        rng = random.Random(43)
        for k, n in ((3, 10), (5, 12), (6, 16)):
            code = from_generator(BitMatrix(k, n, tuple(rng.getrandbits(n) for _ in range(k))))
            assert codes._weight_planes(code.basis.rows, n)[0] == 0
            assert takes_blocks(code)
            assert_same_early_exits(code, 0)

    def test_budget_lowered_t_gives_the_same_result(self, monkeypatch):
        # 40 columns of 2^7 bits exceed 2^12 bits, so t drops below the
        # block bound 7 < k = 8.  Rows 0..6 are heavy and row 7 has weight
        # 2, so some thresholds first stop past block 0.
        monkeypatch.setattr(codes, "_TABLE_BITS", 12)
        monkeypatch.setattr(codes, "_BLOCK_BITS", 7)
        rng = random.Random(42)
        rows = tuple(1 << i | rng.getrandbits(32) << 8 for i in range(7)) + (1 << 7 | 1 << 8,)
        code = from_generator(BitMatrix(8, 40, rows))
        assert code.basis.rows == rows
        t, blocks = codes._weight_planes(code.basis.rows, code.length)
        blocks = sum(1 for _ in blocks)
        assert blocks == 1 << (8 - t) > 1
        stops = assert_same_early_exits(code, t)
        assert any(stop is not None and stop > 0 for stop in stops)


def per_block_weights(rows, n, t):
    """The count kernel's blocks as each block once summed them on its own,
    as the weight at each of the block's 2^t positions.

    The coordinates fall into classes by their pattern gamma over the rows
    >= t; each class's sum S of its columns over the low rows, and
    |gamma| - S, are built as bit planes, and block h adds, for every class,
    S or |gamma| - S by the parity of gray(h) & gamma into a carry-save
    counter, whose planes are read position by position.  The halving must
    give the same weights in the same order, block by block.
    """
    k = len(rows)
    full = (1 << (1 << t)) - 1
    levels = n.bit_length()
    classes = {}
    for p in range(n):
        gamma = sum((row >> p & 1) << i for i, row in enumerate(rows[t:]))
        classes[gamma] = classes.get(gamma, 0) | 1 << p
    sums = []  # (gamma, level, plane of S, plane of |gamma| - S)
    for gamma, mask in classes.items():
        columns = [0] * n
        for row, table in zip(rows, codes._message_tables(t)):
            for p in range(n):
                if (mask & row) >> p & 1:
                    columns[p] ^= table
        complements = [column ^ full for p, column in enumerate(columns) if mask >> p & 1]
        columns = [column for p, column in enumerate(columns) if mask >> p & 1]
        for j, (x, x_bar) in enumerate(zip(resolve(columns, levels), resolve(complements, levels))):
            sums.append((gamma, j, x, x_bar))
    for h in range(1 << (k - t)):
        g = h ^ (h >> 1)
        planes = [0] * levels
        waiting = [0] * levels
        for gamma, j, x, x_bar in sums:
            if (g & gamma).bit_count() & 1:
                x = x_bar
            carry_save(planes, waiting, x, j)
        yield position_weights(resolve_planes(planes, waiting), t)


def position_weights(planes, t):
    """The weight at each of a block's 2^t positions, read from its planes."""
    return [sum((plane >> q & 1) << j for j, plane in enumerate(planes)) for q in range(1 << t)]


def message_weights(rows, t):
    """Each block's weights word by word: position q of block h holds the
    word whose high rows combine to gray(h) and low rows to gray(q)."""
    for h in range(1 << (len(rows) - t)):
        weights = []
        for q in range(1 << t):
            message = (h ^ (h >> 1)) << t | q ^ (q >> 1)
            weights.append(reduce(xor, (row for i, row in enumerate(rows) if message >> i & 1), 0).bit_count())
        yield weights


def carry_save(planes, waiting, x, j):
    # Level j keeps a sum plane and at most one plane waiting for a partner.
    while x:
        b = waiting[j]
        if not b:
            waiting[j] = x
            return
        waiting[j] = 0
        a = planes[j]
        u = a ^ b
        planes[j] = u ^ x
        x = (a & b) | (u & x)
        j += 1


def resolve_planes(planes, waiting):
    # The bit planes of planes + waiting, rippled level by level.
    out = []
    carry = 0
    for a, b in zip(planes, waiting):
        u = a ^ b
        out.append(u ^ carry)
        carry = (a & b) | (u & carry)
    return out


def resolve(columns, levels):
    """Bit planes of the sum of the columns."""
    planes = [0] * levels
    waiting = [0] * levels
    for x in columns:
        carry_save(planes, waiting, x, 0)
    return resolve_planes(planes, waiting)


def assert_same_blocks(rows, n):
    """The kernel's blocks against :func:`per_block_weights` at the kernel's
    t, and against the words themselves; returns t."""
    t, blocks = codes._weight_planes(rows, n)
    blocks = [position_weights(planes, t) for planes in blocks]
    assert len(blocks) == 1 << (len(rows) - t)
    assert blocks == list(per_block_weights(rows, n, t))
    assert blocks == list(message_weights(rows, t))
    counts = [0] * (n + 1)
    for w in chain.from_iterable(blocks):
        counts[w] += 1
    assert counts == _count_blocks(rows, n) == _count_walk(rows, n)
    return t


class TestHalving:
    """Block h of the count kernel comes from the halving over the high
    rows; it must hold the weights, position by position, that adding every
    class's sum to the block gives.  ``_BLOCK_BITS`` is lowered so that
    small codes have several high rows."""

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_random_codes(self, monkeypatch, bits):
        monkeypatch.setattr(codes, "_BLOCK_BITS", bits)
        rng = random.Random(50 + bits)
        for _ in range(25):
            k, n = rng.randint(bits + 1, 9), rng.randint(1, 20)
            assert bits == assert_same_blocks(tuple(rng.getrandbits(n) for _ in range(k)), n)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_classes_without_partners(self, monkeypatch, bits):
        # Five coordinates over five high rows: at most 5 of the 32 high
        # patterns occur, so most merges find one class of a pair absent,
        # and the class of pattern zero is absent too.
        monkeypatch.setattr(codes, "_BLOCK_BITS", bits)
        rng = random.Random(60 + bits)
        for _ in range(10):
            n = 5
            columns = rng.sample(range(1 << (bits + 5)), n)
            rows = spread(columns)
            rows += (0,) * (bits + 5 - len(rows))
            assert bits == assert_same_blocks(rows, n)
        # Every coordinate has pattern 2^b: the one class passes every merge
        # alone, and at row b it becomes the class of pattern zero, swapped
        # in the half where that row's bit is 1.
        for b in range(4):
            rows = tuple(rng.getrandbits(5) for _ in range(bits))
            rows += tuple(0b11111 if i == b else 0 for i in range(4))
            assert bits == assert_same_blocks(rows, 5)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_one_high_row(self, monkeypatch, bits):
        monkeypatch.setattr(codes, "_BLOCK_BITS", bits)
        rng = random.Random(70 + bits)
        for n in (1, 2, 7, 30):
            assert bits == assert_same_blocks(tuple(rng.getrandbits(n) for _ in range(bits + 1)), n)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_zero_coordinates(self, monkeypatch, bits):
        # Coordinates 0..3 are zero in every row, 4..7 in every high row.
        monkeypatch.setattr(codes, "_BLOCK_BITS", bits)
        rng = random.Random(80 + bits)
        for high in (1, 3, 5):
            rows = tuple(rng.getrandbits(12) << 4 for _ in range(bits))
            rows += tuple(rng.getrandbits(8) << 8 for _ in range(high))
            assert bits == assert_same_blocks(rows, 16)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_budget_lowered_t(self, monkeypatch, bits):
        # 2^bits-bit planes in a budget of 2^(bits + 6) bits: the columns or
        # the sums outgrow it for most of these codes, and t drops below the
        # block bound, for some of them to 0.
        monkeypatch.setattr(codes, "_BLOCK_BITS", bits)
        monkeypatch.setattr(codes, "_TABLE_BITS", bits + 6)
        rng = random.Random(90 + bits)
        lowered = 0
        for _ in range(10):
            k, n = rng.randint(bits + 1, 8), rng.randint(6, 40)
            lowered += assert_same_blocks(tuple(rng.getrandbits(n) for _ in range(k)), n) < bits
        assert lowered

    def test_wide_random_codes_keep_the_block_bound(self):
        # Random [512, 19] and [64, 19] codes: the halving's sums fit the
        # column budget at t = 14, five high rows.
        rng = random.Random(91)
        for n in (512, 64):
            rows = tuple(rng.getrandbits(n) for _ in range(19))
            t, blocks = codes._weight_planes(rows, n)
            assert t == BLOCK
            assert sum(1 for _ in blocks) == 1 << (19 - BLOCK)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_every_coordinate_doubled(self, monkeypatch, bits):
        # Every weight is even, so plane 0 is zero in every block and the
        # counts are read at the plane above it.
        monkeypatch.setattr(codes, "_BLOCK_BITS", bits)
        rng = random.Random(110 + bits)
        for _ in range(5):
            k = rng.randint(bits + 1, 8)
            columns = [rng.getrandbits(k) for _ in range(rng.randint(1, 8))]
            rows = spread([c for c in columns for _ in range(2)] + [1 << (k - 1)] * 2)
            assert bits == assert_same_blocks(rows, 2 * len(columns) + 2)
            t, blocks = codes._weight_planes(rows, 2 * len(columns) + 2)
            assert all(planes[0] == 0 for planes in blocks)

    def test_one_class(self, monkeypatch):
        # k <= t: one block, whose only class is the one of gamma = 0.
        monkeypatch.setattr(codes, "_BLOCK_BITS", 6)
        rng = random.Random(120)
        for k in range(1, 7):
            n = rng.randint(1, 20)
            assert assert_same_blocks(tuple(rng.getrandbits(n) for _ in range(k)), n) == k

    def test_odd_t_from_the_budget(self, monkeypatch):
        # Six rows and the block bound at 6: budgets of 2^7 to 2^9 bits
        # lower t to 5 or 3 for some of these widths, where the three chunks
        # of the low rows hold 2, 2 and 1 rows, or 1 each.
        monkeypatch.setattr(codes, "_BLOCK_BITS", 6)
        rng = random.Random(121)
        seen = set()
        for n in range(4, 20):
            rows = tuple(rng.getrandbits(n) for _ in range(6))
            for table_bits in (9, 8, 7):
                monkeypatch.setattr(codes, "_TABLE_BITS", table_bits)
                seen.add(assert_same_blocks(rows, n))
        assert {5, 3} <= seen

    def test_odd_t_at_the_default_bounds(self):
        # 600 columns of 2^14 bits exceed 2^23 bits, so the budget rule
        # takes t = 13: chunks of 5, 5 and 3 rows, and two blocks.
        rng = random.Random(28)
        assert assert_same_blocks(tuple(rng.getrandbits(600) for _ in range(BLOCK)), 600) == 13


def test_chunk_tables_are_xors_of_the_message_tables():
    """Entry v of a chunk's table is the XOR of the message tables of the
    chunk's rows at the set bits of v; the three chunks take ceil(t / 3)
    rows each, at most 5, the last one what is left, so that three lookups
    give any low pattern's column."""
    rng = random.Random(130)
    for t in range(15):
        rows = codes._message_tables(t)
        tables = codes._chunk_tables(t)
        c = -(-t // 3)
        assert c <= 5 and len(tables) == 3
        starts = (0, c, 2 * c)
        for start, table in zip(starts, tables):
            size = len(rows[start : start + c])
            assert len(table) == 1 << size
            for v, entry in enumerate(table):
                assert entry == reduce(xor, (rows[start + i] for i in range(size) if v >> i & 1), 0)
        for _ in range(20):
            p = rng.getrandbits(t)
            column = reduce(xor, (row for i, row in enumerate(rows) if p >> i & 1), 0)
            mask = (1 << c) - 1
            assert tables[0][p & mask] ^ tables[1][p >> c & mask] ^ tables[2][p >> 2 * c] == column
    # 32 + 32 + 16 entries of 2^14 bits: 160 KB at the block bound.
    assert sum(map(len, codes._chunk_tables(BLOCK))) << BLOCK == 160 * 8 * 1024


def counted_dimensions(monkeypatch):
    """The row counts that ``_weight_counts`` hands to the walk or the blocks."""
    seen = []
    for name in ("_count_walk", "_count_blocks"):
        kernel = getattr(codes, name)
        monkeypatch.setattr(codes, name, lambda rows, n, kernel=kernel: seen.append(len(rows)) or kernel(rows, n))
    return seen


def assert_counts(monkeypatch, code):
    """The code's counts equal the walk over its whole basis.  The blocks
    count k - 1 rows exactly when the code holds the all-ones word; a code
    small enough to walk is walked whole.  Returns whether it was halved."""
    expected = _count_walk(code.basis.rows, code.length)
    seen = counted_dimensions(monkeypatch)
    assert codes._weight_counts(code.basis.rows, code.length) == expected
    halved = expected[-1] == 1 and 1 << code.dimension > codes._WALK_WORDS_PER_COLUMN * code.length
    assert seen == [code.dimension - halved]
    return halved


class TestAllOnesHalving:
    """A code holds the all-ones word exactly when the XOR of its RREF rows
    is that word; it is then C' + {0, all-ones}, with C' spanned by the other
    rows, and A_w = A'_w + A'_{n-w} from the blocks of C' alone."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_complete_3partite(self, monkeypatch, n):
        # Every edge has three vertices, so the vertex rows add up to the
        # all-ones word, though no basis row is that word when k > 1.
        # n <= 3 is walked; the [64,10], [125,13] and [216,16] codes halve.
        code = from_generator(incidence_matrix(complete_3partite(n)))
        assert assert_counts(monkeypatch, code) == (n >= 4)

    @pytest.mark.parametrize("m", [3, 4])
    def test_projective_geometries(self, monkeypatch, m):
        # PG(2, 2), walked, and PG(3, 2), halved: lines of three points.
        code = from_generator(incidence_matrix(projective_geometry(m)))
        assert assert_counts(monkeypatch, code) == (m == 4)

    def test_random_3_uniform_hypergraphs(self, monkeypatch):
        rng = random.Random(100)
        for n, m in ((10, 20), (12, 30), (15, 40), (16, 70)):
            code = from_generator(incidence_matrix(random_uniform_hypergraph(rng, n, m, 3)))
            assert assert_counts(monkeypatch, code)

    def test_one_all_ones_row(self, monkeypatch):
        code = from_generator(BitMatrix(1, 9, ((1 << 9) - 1,)))
        assert not assert_counts(monkeypatch, code)
        assert codes._weight_counts(code.basis.rows, 9) == [1] + [0] * 8 + [1]

    def test_all_ones_row_among_others(self, monkeypatch):
        rng = random.Random(101)
        for k, n in ((8, 20), (12, 40)):
            rows = tuple(rng.getrandbits(n) for _ in range(k - 1)) + ((1 << n) - 1,)
            code = from_generator(BitMatrix(k, n, rows))
            assert code.dimension == k
            assert assert_counts(monkeypatch, code)

    def test_codes_without_the_all_ones_word_are_counted_whole(self, monkeypatch):
        # complete_3partite(4) with a zero coordinate added: the XOR of the
        # rows misses that one coordinate.
        columns = incidence_matrix(complete_3partite(4)).transpose().rows + (0,)
        padded = BitMatrix(len(columns), 12, columns).transpose()
        assert not assert_counts(monkeypatch, from_generator(padded))
        rng = random.Random(102)
        code = from_generator(BitMatrix(13, 30, tuple(rng.getrandbits(30) for _ in range(13))))
        assert not assert_counts(monkeypatch, code)

    def test_even_code_through_its_dual(self, monkeypatch):
        # Every word of an even code is orthogonal to the all-ones word, so
        # its dual holds it; the MacWilliams route counts that dual by halves.
        rng = random.Random(103)
        n, k = 24, 16
        rows = []
        while len(rows) < k:
            row = rng.getrandbits(n)
            rows.append(row ^ (row.bit_count() & 1))
        code = from_generator(BitMatrix(k, n, tuple(rows)))
        assert code.dimension == k and codes._dual_is_cheaper(code)
        expected = _count_walk(code.basis.rows, n)
        seen = counted_dimensions(monkeypatch)
        assert code._weights == expected
        assert seen == [n - k - 1]
