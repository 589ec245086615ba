"""The bit-sliced block kernels against the one-word-per-step Gray walks.

Both exhaustive engines walk a small scan one word per step and count a
larger one in blocks of 2^t words, t at most ``codes._BLOCK_BITS`` for the
weight counts and ``codes._SUBSET_BLOCK_BITS`` for the subset search.  Here
each kernel is called directly and must return exactly what the walk
returns, witness and early-exit stop included.  The inputs are sized so
that one block, or several with odd ones among them, covers the scan: the
subset tests sized for a bound of 14 lower the subset bound to 14, and the
subset kernel is also held to the walk at every threshold, with its bound
lowered to 1, 2 and 3 and at its default, on inputs with ties across
blocks, repeated edges and repeated vertex rows.  The codeword early exit
reads the count kernel's blocks whatever the code's size, so it is held to
the per-word Gray loop it replaced, with the bound lowered to 1, 2 and 3
to spread small codes over many blocks.  In the same way the halving over
the high rows is held, block by block, to the per-block class loop it
replaced, and the counts of a code that holds the all-ones word, taken by
halves, to the walk over its whole basis.  The subset search over the
quotient by the vertex dependencies, one subset per coset, is held to the
walk over all subsets, witness included, wherever the subset kernel is,
and on its own inputs: repeated edges, identical vertex rows, a witness
that is not the member of its coset that the route scans, and codes whose
every nonzero word is a minimum word.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import chain, combinations
from operator import xor

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


def gray_index(subset: tuple[int, ...]) -> int:
    """Position of ``subset`` in the Gray walk over all vertices."""
    mask = sum(1 << v for v in subset)
    index = 0
    while mask:
        index ^= mask
        mask >>= 1
    return index


def assert_same_search(hg: Hypergraph, early_exit: int | None = None):
    kernel = _subset_blocks(hg, early_exit)
    assert kernel == _subset_walk(hg, early_exit)
    assert eonv_distance_search(hg, early_exit=early_exit) == kernel
    if early_exit is None:
        assert_same_quotient(hg, kernel)
    return kernel


def assert_same_quotient(hg: Hypergraph, expected) -> bool:
    """The quotient route against ``expected``, the full scan's result,
    when the vertex rows are dependent; returns whether they are.

    The dependencies must number n - rank, and the route must give the
    full scan's value and witness.
    """
    dependencies = _vertex_dependencies(hg.vertex_rows)
    assert len(dependencies) == hg.num_vertices - rank(incidence_matrix(hg))
    if not dependencies:
        return False
    assert _subset_quotient(hg, dependencies) == expected
    return True


def assert_same_row_counts(rows, n):
    assert _count_blocks(rows, n) == _count_walk(rows, n)


def assert_same_counts(code):
    assert_same_row_counts(code.basis.rows, code.length)


def test_small_scans_walk_and_larger_ones_use_blocks(monkeypatch):
    calls = []
    monkeypatch.setattr(codes, "_subset_blocks", lambda hg, e: calls.append("subset"))
    monkeypatch.setattr(codes, "_count_blocks", lambda rows, n: calls.append("count") or [1])
    # 2^3 subsets for 1 edge, 2 codewords for 1 coordinate: walked.
    eonv_distance_search(Hypergraph(3, ((0, 1, 2),)))
    codes._weight_counts(from_generator(BitMatrix(3, 1, (1, 1, 1))))
    assert calls == []
    # 2^6 subsets for 7 edges, 2^6 codewords for 7 coordinates: blocks.
    eonv_distance_search(Hypergraph(6, tuple((v,) for v in range(6)) + ((0,),)))
    codes._weight_counts(from_generator(BitMatrix(6, 7, tuple(1 << v for v in range(6)))))
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
        assert codes._weight_counts(from_generator(BitMatrix(2, 6, (0, 0)))) == [1]


class TestSubsetBlocks:
    @pytest.fixture(autouse=True)
    def subset_bound(self, monkeypatch):
        monkeypatch.setattr(codes, "_SUBSET_BLOCK_BITS", SUBSET_BLOCK)

    def test_random_hypergraphs_over_two_to_eight_blocks(self):
        rng = random.Random(12)
        for n in (15, 16, 17):
            hg = random_hypergraph(rng, n, rng.randint(10, 24))
            assert n > SUBSET_BLOCK
            assert_same_search(hg)

    def test_early_exit_first_met_in_an_odd_block(self):
        rng = random.Random(5)
        odd_exits = 0
        for n in (15, 16):
            for _ in range(3):
                hg = random_hypergraph(rng, n, rng.randint(14, 22), max_edge_size=n // 2)
                exact = assert_same_search(hg)
                for threshold in range(exact.value, hg.num_edges + 1):
                    result = assert_same_search(hg, threshold)
                    odd_exits += (gray_index(result.witness) >> SUBSET_BLOCK) & 1
        assert odd_exits > 0

    def test_early_exit_in_an_odd_block_takes_its_highest_position(self):
        # Vertex 0 has 6 private edges, vertices 1..13 four each, and vertex
        # 14 lies in 3 of vertex 0's edges.  No subset of 0..13 has weight
        # <= 3; in the second block, which the walk visits downwards, {14}
        # and {0, 14} both have weight 3, and {0, 14} comes first.
        edges = [(0, 14)] * 3 + [(0,)] * 3
        edges += [(v,) for v in range(1, 14) for _ in range(4)]
        hg = Hypergraph(15, tuple(edges))
        assert assert_same_search(hg, 3) == codes.DistanceResult(3, False, (0, 14))

    def test_minimum_ties_across_blocks(self):
        # 131072 subsets of block_circulant(9,1)'s 18 vertices reach d = 9.
        hg = circulant_hypergraph(block_row(9, 1))
        assert assert_same_search(hg).value == 9
        assert_same_search(hg, 9)

    def test_zero_weight_subsets_in_block_zero_and_later(self):
        # Vertices 0..13 lie in no edge: the whole first block has weight zero.
        assert_same_search(Hypergraph(15, ((14,), (14,))))
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
        exact = assert_same_search(hg)
        for early_exit in range(exact.value + 3):
            assert_same_search(hg, early_exit)

    def test_edges_without_low_vertices(self):
        # Edges on high vertices only give all-zero columns in every block.
        rng = random.Random(3)
        edges = [tuple(sorted(rng.sample(range(15, 17), rng.randint(1, 2)))) for _ in range(6)]
        edges += [tuple(sorted(rng.sample(range(17), 4))) for _ in range(8)]
        hg = Hypergraph(17, tuple(edges))
        assert_same_search(hg)
        for early_exit in range(0, 5):
            assert_same_search(hg, early_exit)


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
    """Records each call of the quotient route as (hypergraph, result)."""
    calls = []

    def spy(hg, dependencies):
        calls.append((hg, real(hg, dependencies)))
        return calls[-1][1]

    real = codes._subset_quotient
    monkeypatch.setattr(codes, "_subset_quotient", spy)
    return calls


class TestSubsetKernelAtEveryThreshold:
    """``_subset_blocks`` against ``_subset_walk``: the exact value and
    witness, and the early-exit stop at every threshold from 0 to m + 1.
    The subset bound is lowered to 1, 2 and 3, which spreads each input
    over many blocks, and kept at its default, which fits it in one."""

    def assert_every_threshold(self, monkeypatch, hg):
        expected = {e: _subset_walk(hg, e) for e in [None, *range(hg.num_edges + 2)]}
        quotients = spy_quotient(monkeypatch)
        for bits in (1, 2, 3, DEFAULT_SUBSET_BLOCK):
            monkeypatch.setattr(codes, "_SUBSET_BLOCK_BITS", bits)
            for early_exit, result in expected.items():
                assert _subset_blocks(hg, early_exit) == result, (bits, early_exit)
            # At the bounds 1 to 3 the search spans several blocks (n > t),
            # so it takes the quotient route when the rows are dependent.
            assert eonv_distance_search(hg) == expected[None], bits
        dependent = assert_same_quotient(hg, expected[None])
        assert len(quotients) == 3 * dependent
        return expected[None]

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
        # The walk meets {0, 5} first.  At the bound 3, {0, 1, 6} and
        # {0, 1, 2, 6} tie it in one later block, whose witness pass matches
        # 0, is ahead at 1 < 5, and then keeps 2 as a third vertex.
        ties = [((0, 5), 5), ((0, 1, 6), 6), ((0, 1, 2, 6), 2)]
        hg = hypergraph_from_rows(tie_rows(random.Random(34), 8, ties))
        assert minimizers(hg) == [(0, 1, 2, 6), (0, 1, 6), (0, 5)]
        assert _subset_walk(hg, 1).witness == (0, 5)
        assert self.assert_every_threshold(monkeypatch, hg).witness == (0, 1, 2, 6)

    def test_shorter_prefix_in_block_zero_wins(self, monkeypatch):
        # {0} has weight 1 in the first block.  At the bound 3, {0, 1, 5}
        # and {0, 2, 5} tie it in one later block, whose witness pass
        # matches 0 and then keeps one more vertex, so the block loses.
        ties = [((0,), 0), ((0, 1, 5), 5), ((0, 2, 5), 2)]
        hg = hypergraph_from_rows(tie_rows(random.Random(35), 7, ties))
        assert minimizers(hg) == [(0,), (0, 1, 5), (0, 2, 5)]
        assert self.assert_every_threshold(monkeypatch, hg) == codes.DistanceResult(1, True, (0,))

    def test_smallest_minimizer_in_the_second_block_at_the_default_bound(self):
        # {0, 5} in the first block; {0, 1, 16} and {0, 2, 16} tie it in
        # the second, the block of vertex 16.
        ties = [((0, 5), 5), ((0, 1, 16), 16), ((0, 2, 16), 2)]
        hg = hypergraph_from_rows(tie_rows(random.Random(36), 17, ties))
        assert DEFAULT_SUBSET_BLOCK == 16
        assert _subset_walk(hg, 1).witness == (0, 5)
        assert assert_same_search(hg) == codes.DistanceResult(1, True, (0, 1, 16))


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
        assert result == _subset_walk(hg, None), bits
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

    def test_full_rank_and_early_exit_scans_keep_the_full_walk(self, monkeypatch, quotients):
        rng = random.Random(45)
        monkeypatch.setattr(codes, "_SUBSET_BLOCK_BITS", 1)
        for n in (4, 7, 10):
            rows = [1 << v | rng.getrandbits(12) << n for v in range(n)]
            eonv_distance_search(hypergraph_from_rows(rows))
        assert quotients == []
        hg = hypergraph_from_rows([0b011, 0b110, 0b101, 0b1000])
        for early_exit in range(4):
            eonv_distance_search(hg, early_exit=early_exit)
        assert quotients == []
        eonv_distance_search(hg)
        assert [route for route, _ in quotients] == [hg]

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
        assert quotients == [(hg, result)]


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


def gray_loop_search(code, early_exit):
    """The codeword early exit as a per-word Gray loop, with the step it stopped at.

    Step i XORs one basis row and reaches the message gray(i); the first
    weight <= early_exit stops it with an upper bound.  Without a stop the
    step is None and the least weight met is exact.
    """
    rows = code.basis.rows
    best = code.length + 1
    acc = 0
    for i in range(1, 1 << len(rows)):
        acc ^= rows[(i & -i).bit_length() - 1]
        w = acc.bit_count()
        if w < best:
            best = w
            if w <= early_exit:
                return codes.DistanceResult(best, False), i
    return codes.DistanceResult(best, True), None


def assert_same_early_exits(code):
    """Every threshold from 0 to n + 1 against the loop; the steps that stopped."""
    steps = []
    for early_exit in range(code.length + 2):
        expected, step = gray_loop_search(code, early_exit)
        assert codeword_distance_search(code, early_exit=early_exit) == expected, early_exit
        steps.append(step)
    return steps


class TestCountEarlyExit:
    """Block h of the count kernel is walked upwards when h is even and
    downwards when it is odd, so a stop takes the block's lowest or highest
    position with 0 < weight <= early_exit."""

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_every_threshold_over_many_blocks(self, monkeypatch, bits):
        monkeypatch.setattr(codes, "_BLOCK_BITS", bits)
        rng = random.Random(40 + bits)
        odd_stops = 0
        for _ in range(60):
            k, n = rng.randint(bits + 1, 10), rng.randint(4, 16)
            code = from_generator(BitMatrix(k, n, tuple(rng.getrandbits(n) for _ in range(k))))
            if not code.dimension:
                continue
            for step in assert_same_early_exits(code):
                if step is not None and code.dimension > bits:
                    odd_stops += step >> bits & 1
        assert odd_stops > 0

    def test_early_exit_in_an_odd_block_takes_its_highest_position(self, monkeypatch):
        # Basis rows r0, r1 in the low block bits and r2 high, so block 1
        # holds r2 plus the low words.  Block 0 has no weight <= 4; block 1
        # is walked downwards and meets r1 ^ r2 (weight 3) at its highest
        # position before r0 ^ r2 (weight 4) at a lower one.
        monkeypatch.setattr(codes, "_BLOCK_BITS", 2)
        rows = (0b101110001, 0b011111010, 0b001111100)
        code = from_generator(BitMatrix(3, 9, rows))
        assert code.basis.rows == rows
        assert [(rows[2] ^ r).bit_count() for r in rows[:2]] == [4, 3]
        assert codeword_distance_search(code, early_exit=4) == codes.DistanceResult(3, False)
        assert gray_loop_search(code, 4) == (codes.DistanceResult(3, False), 4)

    def test_zero_word_is_never_a_stop(self, monkeypatch):
        # The zero word sits at position 0 of block 0: threshold 0 finds no
        # stop, and threshold n stops at the walk's first word, row 0.
        monkeypatch.setattr(codes, "_BLOCK_BITS", 2)
        rng = random.Random(41)
        for k in (1, 2, 5):
            code = from_generator(BitMatrix(k, 12, tuple(rng.getrandbits(12) for _ in range(k))))
            exact = codeword_distance_search(code)
            assert codeword_distance_search(code, early_exit=0) == exact
            first = code.basis.rows[0].bit_count()
            assert codeword_distance_search(code, early_exit=12) == codes.DistanceResult(first, False)
            assert_same_early_exits(code)

    def test_budget_lowered_t_gives_the_same_result(self, monkeypatch):
        # 40 columns of 2^8 bits exceed 2^12 bits, so t drops below k = 8.
        # Rows 0..6 are heavy and row 7 has weight 2, so some thresholds
        # first stop past block 0.
        monkeypatch.setattr(codes, "_TABLE_BITS", 12)
        rng = random.Random(42)
        rows = tuple(1 << i | rng.getrandbits(32) << 8 for i in range(7)) + (1 << 7 | 1 << 8,)
        code = from_generator(BitMatrix(8, 40, rows))
        assert code.basis.rows == rows
        blocks = sum(1 for _ in codes._weight_groups(code.basis.rows, code.length))
        assert blocks > 1
        steps = assert_same_early_exits(code)
        assert any(step is not None and step >= (1 << 8) // blocks for step in steps)


def per_block_groups(rows, n, t):
    """The count kernel's blocks as each block once summed them on its own.

    The coordinates fall into classes by their pattern gamma over the rows
    >= t; each class's sum S of its columns over the low rows, and
    |gamma| - S, are built as bit planes, and block h adds, for every class,
    S or |gamma| - S by the parity of gray(h) & gamma into a carry-save
    counter before splitting the positions plane by plane.  The halving must
    give the same groups in the same order, block by block.
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
        planes = resolve_planes(planes, waiting)
        groups = [(0, full)]
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
        yield groups


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
    """The kernel's blocks against :func:`per_block_groups` at the kernel's t."""
    blocks = list(codes._weight_groups(rows, n))
    t = len(rows) - (len(blocks).bit_length() - 1)
    assert len(blocks) == 1 << (len(rows) - t)
    assert blocks == list(per_block_groups(rows, n, t))
    counts = [0] * (n + 1)
    for w, s in chain.from_iterable(blocks):
        counts[w] += s.bit_count()
    assert counts == _count_walk(rows, n)
    return t


class TestHalving:
    """Block h of the count kernel comes from the halving over the high
    rows; it must hold the groups, in order, that adding every class's sum
    to the block gives.  ``_BLOCK_BITS`` is lowered so that small codes have
    several high rows."""

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
            assert sum(1 for _ in codes._weight_groups(rows, n)) == 1 << (19 - BLOCK)


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
    assert codes._weight_counts(code) == expected
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
        assert codes._weight_counts(code) == [1] + [0] * 8 + [1]

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
