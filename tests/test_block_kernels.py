"""The bit-sliced block kernels against the one-word-per-step Gray walks.

Both exhaustive engines walk a small scan one word per step and count a
larger one in blocks of 2^t words, t at most ``codes._BLOCK_BITS``.  Here
each kernel is called directly and must return exactly what the walk
returns, witness and early-exit stop included.  The inputs are sized so
that one block, or several with odd ones among them, covers the scan under
that fixed bound.  The codeword early exit reads the count kernel's blocks
whatever the code's size, so it is held to the per-word Gray loop it
replaced, with the bound lowered to 1, 2 and 3 to spread small codes over
many blocks.
"""

from __future__ import annotations

import random

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
    eonv_distance_search,
    from_generator,
    random_hypergraph,
)
from hypercode.codes import _count_blocks, _count_walk, _subset_blocks, _subset_walk

BLOCK = codes._BLOCK_BITS


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
    return kernel


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
    def test_random_hypergraphs_over_two_to_eight_blocks(self):
        rng = random.Random(12)
        for n in (15, 16, 17):
            hg = random_hypergraph(rng, n, rng.randint(10, 24))
            assert n > BLOCK
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
                    odd_exits += (gray_index(result.witness) >> BLOCK) & 1
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
