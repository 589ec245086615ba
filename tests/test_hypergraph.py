"""Hypergraph structure, the odd-edge subset machinery, and the families."""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from itertools import chain, combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypercode.textformat as textformat
from conftest import bit_matrices, hypergraphs, hypergraphs_with_subset, random_connected_graph
from hypercode import (
    BitMatrix,
    DistanceResult,
    EnumerationCapError,
    Hypergraph,
    block_row,
    circulant_hypergraph,
    complete_3partite,
    connected_uniform_samples,
    eonv,
    eonv_distance_search,
    f_count,
    fano_circulant,
    format_hypergraph,
    from_incidence_matrix,
    incidence_matrix,
    is_connected,
    parse_hypergraph,
    projective_geometry,
    random_hypergraph,
    random_uniform_hypergraph,
    row_combination,
)
from hypercode.gf2core import format_row, set_bits
from hypercode.limits import MAX_CELLS, MAX_INCIDENCES, MAX_VERTICES, check_size

# Displayed incidence matrix of the complete 3-partite 3-uniform hypergraph
# with parts of size 2 (row order x1 x2 y1 y2 z1 z2).
K3PARTITE_2_ROWS = [
    "11110000",
    "00001111",
    "10011001",
    "01100110",
    "11001100",
    "00110011",
]

# Same family with parts of size 3, as displayed (rows are a within-part
# relabeling of ours, which leaves the column multiset unchanged).
K3PARTITE_3_ROWS = [
    "0" * 18 + "1" * 9,
    "0" * 9 + "1" * 9 + "0" * 9,
    "1" * 9 + "0" * 18,
    "000000111" * 3,
    "000111000" * 3,
    "111000000" * 3,
    "001" * 9,
    "010" * 9,
    "100" * 9,
]

# The two displayed 12x12 block-circulant matrices.
BLOCK_K3_M2_ROWS = ["110011001100", "011001100110", "001100110011", "100110011001"] * 3
BLOCK_K2_M3_ROWS = [
    "111000111000",
    "011100011100",
    "001110001110",
    "000111000111",
    "100011100011",
    "110001110001",
] * 2


def sorted_columns(matrix: BitMatrix) -> list[str]:
    return sorted(matrix.transpose().to_strings())


class TestHypergraphType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hypergraph(0, ())
        with pytest.raises(ValueError):
            Hypergraph(3, ((),))
        with pytest.raises(ValueError):
            Hypergraph(3, ((0, 3),))
        with pytest.raises(ValueError):
            Hypergraph(3, ((0, 0),))

    def test_edges_normalize_to_sorted_tuples(self):
        hg = Hypergraph(4, ((2, 0), (3, 1)))
        assert hg.edges == ((0, 2), (1, 3))

    def test_multiset_edges_are_kept(self):
        hg = Hypergraph(2, ((0, 1), (0, 1)))
        assert hg.num_edges == 2
        assert hg.edges == ((0, 1), (0, 1))

    def test_uniformity(self):
        assert Hypergraph(3, ((0, 1), (1, 2))).uniformity() == 2
        assert Hypergraph(3, ((0,), (1, 2))).uniformity() is None

    def test_degree(self):
        hg = Hypergraph(3, ((0, 1), (0, 2)))
        assert hg.degree(0) == 2 and hg.degree(1) == 1
        with pytest.raises(IndexError):
            hg.degree(3)

    @pytest.mark.parametrize("m", [0, 4095, 4096, 4097, 8193])
    def test_vertex_rows_across_edge_chunks(self, m):
        # Six vertices, so each recurs in every chunk of edges the rows
        # are built in; the reference sets one bit per incidence.
        rng = random.Random(m)
        hg = random_hypergraph(rng, 6, m)
        reference = [0] * 6
        for j, edge in enumerate(hg.edges):
            for v in edge:
                reference[v] += 1 << j
        assert hg.vertex_rows == tuple(reference)


class TestConstructorErrors:
    def test_f_count_part_size(self):
        with pytest.raises(ValueError, match="^part size must be positive$"):
            f_count(0, 0, 0, 0)

    def test_empty_circulant_row(self):
        with pytest.raises(ValueError, match="^the first row must be nonempty$"):
            circulant_hypergraph("")

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 3), "need at least one vertex and a non-negative edge count"),
            ((3, -1), "need at least one vertex and a non-negative edge count"),
            ((3, 2, 0), "max_edge_size must allow nonempty edges"),
        ],
    )
    def test_random_hypergraph(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            random_hypergraph(random.Random(0), *args)


class TestIncidenceMatrix:
    def test_single_edge_is_all_ones_column(self):
        m = incidence_matrix(Hypergraph(3, ((0, 1, 2),)))
        assert m.to_strings() == ["1", "1", "1"]

    def test_matches_displayed_parts_of_two(self):
        ours = incidence_matrix(complete_3partite(2))
        displayed = BitMatrix.from_strings(K3PARTITE_2_ROWS)
        assert sorted_columns(ours) == sorted_columns(displayed)

    def test_matches_displayed_parts_of_three(self):
        ours = incidence_matrix(complete_3partite(3))
        displayed = BitMatrix.from_strings(K3PARTITE_3_ROWS)
        assert sorted_columns(ours) == sorted_columns(displayed)

    def test_displayed_matrices_have_the_advertised_parameters(self):
        from hypercode import codeword_distance_search, from_generator, rank

        small = BitMatrix.from_strings(K3PARTITE_2_ROWS)
        assert (rank(small), codeword_distance_search(from_generator(small)).value) == (4, 4)
        large = BitMatrix.from_strings(K3PARTITE_3_ROWS)
        assert (rank(large), codeword_distance_search(from_generator(large)).value) == (7, 9)

    @given(hypergraphs())
    def test_column_weights_are_edge_sizes(self, hg):
        m = incidence_matrix(hg)
        for j, edge in enumerate(hg.edges):
            assert m.transpose().rows[j].bit_count() == len(edge)

    @given(hypergraphs())
    def test_round_trip_through_matrix(self, hg):
        assert from_incidence_matrix(incidence_matrix(hg)) == hg

    def test_zero_columns_are_left_out(self):
        matrix = BitMatrix.from_strings(["0100", "0101"])
        assert from_incidence_matrix(matrix) == Hypergraph(2, ((0, 1), (1,)))

    @given(bit_matrices(min_rows=1, min_cols=1), st.data())
    def test_edges_are_the_nonzero_columns(self, matrix, data):
        zeroed = data.draw(st.integers(1, (1 << matrix.num_cols) - 1))
        matrix = BitMatrix(matrix.num_rows, matrix.num_cols, tuple(r & ~zeroed for r in matrix.rows))
        hg = from_incidence_matrix(matrix)
        assert hg.edges == tuple(set_bits(c) for c in matrix.transpose().rows if c)
        lines = matrix.to_strings()
        nonzero = [j for j in range(matrix.num_cols) if any(line[j] == "1" for line in lines)]
        expected = BitMatrix.from_strings(["".join(line[j] for j in nonzero) for line in lines])
        assert incidence_matrix(hg) == expected


class TestEonv:
    # 3-partite structure with parts {x}, {y1,y2}, {z1,z2}:
    # x=0, y1=1, y2=2, z1=3, z2=4
    STAR = Hypergraph(5, ((0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4)))

    def test_single_y_vertex(self):
        assert eonv(self.STAR, {1}) == [0, 1]

    def test_center_hits_everything(self):
        assert eonv(self.STAR, {0}) == [0, 1, 2, 3]

    def test_mixed_pair(self):
        assert eonv(self.STAR, {1, 3}) == [1, 2]

    def test_center_with_whole_part_is_empty(self):
        assert eonv(self.STAR, {0, 1, 2}) == []
        assert eonv(self.STAR, {0, 3, 4}) == []

    def test_center_with_single_part_vertex(self):
        # the two edges through y2 avoid y1, so they meet {x, y1} only in x
        assert eonv(self.STAR, {0, 1}) == [2, 3]

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            eonv(self.STAR, set())

    def test_out_of_range_vertex(self):
        with pytest.raises(IndexError):
            eonv(self.STAR, {5})

    @given(hypergraphs_with_subset(max_vertices=12, max_edges=20))
    def test_row_sum_support_equals_odd_edge_set(self, pair):
        hg, subset = pair
        combo = row_combination(incidence_matrix(hg), subset)
        assert set(set_bits(combo)) == set(eonv(hg, subset))


class TestEonvMin:
    @staticmethod
    def exact_subset_search(hg):
        result = eonv_distance_search(hg)
        assert result.exact
        return result.value, result.witness

    def test_fano(self):
        d, witness = self.exact_subset_search(fano_circulant())
        assert d == 3
        assert witness == (0,)

    def test_parts_of_two(self):
        assert self.exact_subset_search(complete_3partite(2))[0] == 4

    def test_single_edge_witness(self):
        d, witness = self.exact_subset_search(Hypergraph(2, ((0, 1),)))
        assert (d, witness) == (1, (0,))

    def test_witness_is_lexicographically_smallest(self):
        # {0} and {1} both give one odd edge; (0,) precedes (1,)
        hg = Hypergraph(2, ((0,), (1,)))
        assert self.exact_subset_search(hg) == (1, (0,))

    def test_matches_brute_force_with_lex_witness(self):
        rng = random.Random(99)
        for _ in range(60):
            hg = random_hypergraph(rng, rng.randint(1, 6), rng.randint(1, 8))
            subsets = chain.from_iterable(
                combinations(range(hg.num_vertices), r)
                for r in range(1, hg.num_vertices + 1)
            )
            candidates = [
                (len(eonv(hg, s)), s) for s in subsets if eonv(hg, s)
            ]
            assert candidates, "edges are nonempty, a singleton always hits one"
            assert self.exact_subset_search(hg) == min(candidates)

    def test_early_exit_flags_upper_bound(self):
        result = eonv_distance_search(fano_circulant(), early_exit=7)
        assert not result.exact
        assert result.value >= 3

    def test_early_exit_stops_at_the_first_weight_within_the_threshold(self):
        # The 2^7 subsets are one block, read whole: d = 3 <= 3, flagged as
        # an upper bound, with the exact witness {0}.
        result = eonv_distance_search(fano_circulant(), early_exit=3)
        assert result == DistanceResult(3, False, (0,))

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "126")
        with pytest.raises(
            EnumerationCapError, match="^subset search needs 127 evaluations, above the cap of 126$"
        ):
            eonv_distance_search(fano_circulant())
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "127")
        assert eonv_distance_search(fano_circulant()).value == 3


class TestComplete3Partite:
    def test_smallest(self):
        hg = complete_3partite(1)
        assert hg.num_vertices == 3
        assert hg.edges == ((0, 1, 2),)

    def test_structure(self):
        hg = complete_3partite(2)
        assert hg.num_vertices == 6 and hg.num_edges == 8
        assert hg.uniformity() == 3 and len(set(hg.edges)) == hg.num_edges
        # lexicographic (i, j, k) edge order
        assert hg.edges[0] == (0, 2, 4)
        assert hg.edges[1] == (0, 2, 5)
        assert hg.edges[-1] == (1, 3, 5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_vertex_has_degree_n_squared(self, n):
        hg = complete_3partite(n)
        assert all(hg.degree(u) == n * n for u in range(hg.num_vertices))

    def test_precondition(self):
        with pytest.raises(ValueError):
            complete_3partite(0)


class TestFCount:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50])
    def test_single_vertex_values(self, n):
        assert f_count(n, 1, 0, 0) == n * n
        assert f_count(n, 0, 1, 0) == n * n
        assert f_count(n, 0, 0, 1) == n * n

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_two_full_parts_vanish(self, n):
        assert f_count(n, n, n, 0) == 0
        assert f_count(n, n, 0, n) == 0
        assert f_count(n, 0, n, n) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            f_count(3, 4, 0, 0)
        with pytest.raises(ValueError):
            f_count(3, -1, 0, 0)

    def test_against_direct_eonv(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 4)
            hg = complete_3partite(n)
            subset = set(rng.sample(range(3 * n), rng.randint(1, 3 * n)))
            k1 = len([v for v in subset if v < n])
            k2 = len([v for v in subset if n <= v < 2 * n])
            k3 = len([v for v in subset if v >= 2 * n])
            assert f_count(n, k1, k2, k3) == len(eonv(hg, subset))


class TestProjectiveGeometry:
    def test_dimension_three_is_a_plane_of_seven(self):
        hg = projective_geometry(3)
        assert hg.num_vertices == 7 and hg.num_edges == 7
        assert hg.uniformity() == 3 and len(set(hg.edges)) == hg.num_edges

    def test_line_counts(self):
        for n in (3, 4, 5):
            hg = projective_geometry(n)
            points = (1 << n) - 1
            assert hg.num_vertices == points
            assert hg.num_edges == points * (2 ** (n - 1) - 1) // 3

    def test_lines_close_under_xor(self):
        for n in (3, 4):
            for edge in projective_geometry(n).edges:
                a, b, c = (v + 1 for v in edge)
                assert a ^ b ^ c == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_pair_on_exactly_one_line(self, n):
        hg = projective_geometry(n)
        for u, v in combinations(range(hg.num_vertices), 2):
            both = 1 << u | 1 << v
            count = sum(1 for mask in hg.edge_masks if mask & both == both)
            assert count == 1

    def test_precondition(self):
        with pytest.raises(ValueError):
            projective_geometry(2)


class TestFanoCirculant:
    def test_edge_list(self):
        hg = fano_circulant()
        assert hg.edges == (
            (0, 1, 3),
            (1, 2, 4),
            (2, 3, 5),
            (3, 4, 6),
            (0, 4, 5),
            (1, 5, 6),
            (0, 2, 6),
        )

    def test_first_row(self):
        assert incidence_matrix(fano_circulant()).to_strings()[0] == "1000101"

    def test_every_point_lies_on_three_lines(self):
        hg = fano_circulant()
        assert all(hg.degree(u) == 3 for u in range(7))

    def test_rows_are_cyclic_shifts(self):
        m = incidence_matrix(fano_circulant())
        first = m.rows[0]

        def rotate(mask: int, s: int) -> int:
            return ((mask << s) | (mask >> (7 - s))) & 0b1111111

        for i in range(7):
            assert m.rows[i] == rotate(first, i)


class TestCirculant:
    def test_block_k3_m2_matches_displayed_matrix(self):
        hg = circulant_hypergraph(block_row(3, 2))
        assert incidence_matrix(hg).to_strings() == BLOCK_K3_M2_ROWS

    def test_block_k2_m3_matches_displayed_matrix(self):
        hg = circulant_hypergraph(block_row(2, 3))
        assert incidence_matrix(hg).to_strings() == BLOCK_K2_M3_ROWS

    def test_all_ones_row(self):
        hg = circulant_hypergraph("111")
        assert hg.edges == ((0, 1, 2),) * 3

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            circulant_hypergraph("000")

    @given(st.integers(1, 10), st.data())
    def test_vertex_and_edge_regular(self, n, data):
        bits = data.draw(st.integers(1, (1 << n) - 1))
        hg = circulant_hypergraph(format_row(bits, n))
        w = bits.bit_count()
        assert all(hg.degree(u) == w for u in range(n))
        assert all(len(e) == w for e in hg.edges)

    def test_block_columns_repeat_k_times(self):
        for k in range(1, 5):
            for m in range(1, 5):
                hg = circulant_hypergraph(block_row(k, m))
                counts = Counter(hg.edges)
                assert all(c == k for c in counts.values())
                assert len(counts) == 2 * m
                # the whole edge list is k copies of the first 2m columns
                assert hg.edges == hg.edges[: 2 * m] * k


class TestBlockRow:
    @pytest.mark.parametrize(
        "k,m,expected",
        [(3, 2, "110011001100"), (2, 3, "111000111000"), (1, 1, "10")],
    )
    def test_patterns(self, k, m, expected):
        assert block_row(k, m) == expected

    def test_weight(self):
        for k in range(1, 5):
            for m in range(1, 5):
                assert block_row(k, m).count("1") == k * m

    def test_preconditions(self):
        with pytest.raises(ValueError):
            block_row(0, 2)


class TestComplementEdge:
    def test_block_shift_by_m_is_complement(self):
        for k in range(1, 5):
            for m in range(1, 5):
                hg = circulant_hypergraph(block_row(k, m))
                n = hg.num_vertices
                for j in range(n):
                    complement = frozenset(range(n)) - set(hg.edges[j])
                    assert complement == frozenset(hg.edges[(j + m) % n])


class TestConnectivity:
    def test_spanning_edge(self):
        assert is_connected(Hypergraph(4, ((0, 1, 2, 3),)))

    def test_disjoint_edges(self):
        assert not is_connected(Hypergraph(4, ((0, 1), (2, 3))))

    def test_isolated_vertex(self):
        assert not is_connected(Hypergraph(3, ((0, 1),)))

    def test_single_vertex(self):
        assert is_connected(Hypergraph(1, ()))
        assert is_connected(Hypergraph(1, ((0,),)))
        assert is_connected(Hypergraph(1, ((0,), (0,))))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_complete_3partite_connected(self, n):
        assert is_connected(complete_3partite(n))


class TestEdgeCutProperty:
    def test_nonempty_odd_edge_sets_are_cuts(self):
        # for a graph, the edges meeting S oddly are exactly those crossing
        # the (S, V-S) boundary; removing them disconnects the two sides
        rng = random.Random(1312)
        for _ in range(200):
            n = rng.randint(2, 10)
            hg = random_connected_graph(rng, n, rng.randint(0, 6))
            size = rng.randint(1, n - 1)
            subset = set(rng.sample(range(n), size))
            cut = set(eonv(hg, subset))
            crossing = {
                j
                for j, (u, v) in enumerate(hg.edges)
                if (u in subset) != (v in subset)
            }
            assert cut == crossing
            remaining = [e for j, e in enumerate(hg.edges) if j not in cut]
            reachable = set()
            frontier = [next(iter(subset))]
            while frontier:
                x = frontier.pop()
                if x in reachable:
                    continue
                reachable.add(x)
                for u, v in remaining:
                    if u == x and v not in reachable:
                        frontier.append(v)
                    elif v == x and u not in reachable:
                        frontier.append(u)
            assert reachable <= subset


class TestRandomGenerators:
    def test_deterministic_for_fixed_seed(self):
        a = random_hypergraph(random.Random(5), 6, 9)
        b = random_hypergraph(random.Random(5), 6, 9)
        assert a == b

    def test_uniform_generator(self):
        hg = random_uniform_hypergraph(random.Random(5), 7, 11, 3)
        assert hg.uniformity() == 3 and hg.num_edges == 11
        with pytest.raises(ValueError):
            random_uniform_hypergraph(random.Random(5), 3, 2, 4)

    def test_connected_samples_replay_the_uniform_generator(self):
        rng = random.Random(13)
        expected = []
        for _ in range(200):
            n = rng.randint(3, 7)
            hg = random_uniform_hypergraph(rng, n, rng.randint(1, 2 * n), 3)
            if is_connected(hg):
                expected.append(hg)
        samples = list(connected_uniform_samples(13, n_max=7, budget=200, uniform=3))
        assert samples == expected
        assert samples and all(hg.uniformity() == 3 for hg in samples)

    def test_connected_samples_draw_at_least_two_vertices(self):
        # a 1-uniform hypergraph is connected only on one vertex
        assert list(connected_uniform_samples(2, n_max=4, budget=100, uniform=1)) == []

    @pytest.mark.parametrize(
        "n_max, budget, uniform",
        [(1, 10, 1), (4, 10, 0), (4, 10, 5), (4, -1, 2)],
    )
    def test_connected_samples_reject_bad_parameters_at_the_call(self, n_max, budget, uniform):
        with pytest.raises(ValueError):
            connected_uniform_samples(1, n_max=n_max, budget=budget, uniform=uniform)

    def test_connected_samples_keep_within_the_cell_limit(self):
        # A sample has at most n_max vertices and 2 * n_max edges of
        # ``uniform`` vertices each.
        largest = 5792
        assert 2 * largest**2 <= MAX_CELLS < 2 * (largest + 1) ** 2
        assert list(connected_uniform_samples(1, n_max=largest, budget=0, uniform=2)) == []
        cells = f"{largest + 1} vertices x {2 * largest + 2} edges exceed the limit of {MAX_CELLS}"
        with pytest.raises(ValueError, match=f"^{cells} incidence matrix cells$"):
            connected_uniform_samples(1, n_max=largest + 1, budget=1)
        with pytest.raises(ValueError, match=f"^{10**8} vertices exceed the limit of {MAX_VERTICES}$"):
            connected_uniform_samples(1, n_max=10**8, budget=1)
        # 1100 * 4096 incidences pass the cell bound, not the incidence bound.
        with pytest.raises(ValueError, match=f"^{1100 * 4096} incidences exceed the limit of "):
            connected_uniform_samples(1, n_max=2048, budget=0, uniform=1100)


class TestHypergraphTextFormat:
    def test_known_file(self):
        hg = fano_circulant()
        text = format_hypergraph(hg)
        assert text.startswith("7 7\n0 1 3\n")
        assert parse_hypergraph(text) == hg

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n3 2\n0 1\n\n# another\n1 2\n"
        assert parse_hypergraph(text) == Hypergraph(3, ((0, 1), (1, 2)))

    @given(hypergraphs(max_vertices=10, max_edges=12, min_edges=0))
    def test_round_trip_preserves_order_and_repeats(self, hg):
        assert parse_hypergraph(format_hypergraph(hg)) == hg

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# only comments\n",
            "3\n0 1\n",
            "3 2\n0 1\n",
            "3 1\n1 0\n",
            "3 1\n0 0\n",
            "3 1\n0 3\n",
            "3 1\na b\n",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            parse_hypergraph(text)

    @pytest.mark.parametrize(
        "text",
        [
            "2 2\n01\n01\n",  # a matrix file, not vertex 1 twice
            "3 1\n+1\n",
            "11 1\n1_0\n",
            "03 1\n0\n",
            "3 1\n00 1\n",
            "3 1\n0 \u0661\n",  # ARABIC-INDIC DIGIT ONE
            "3 1\n0\u00a001\n",  # a leading zero behind a non-ASCII space
            "3 1\n-0 1\n",
            "3 1\x0c0 1\n",  # form feed as a line break
            "3 1\u20280 1\n",  # LINE SEPARATOR as a line break
            "3\x1f1\n0 1\n",  # unit separator between header tokens
            "3 1\n0 1\r",  # a carriage return not followed by a line feed
            "# a comment\x0b\n3 1\n0 1\n",
            # Tokens JSON would take, refused before the edge lines are decoded.
            "3 1\n0 1,2\n",
            "3 1\n1.5\n",
            "3 1\n1e3\n",
            "3 1\n-1\n",
            "3 1\ntrue\n",
            "3 1\n[0]\n",
        ],
    )
    def test_tokens_must_be_plain_decimal_integers(self, text):
        with pytest.raises(ValueError, match="plain decimal integers"):
            parse_hypergraph(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 1\n1 0\n", "edge vertices must be ascending: '1 0'"),
            ("3 1\n0 0\n", "edge (0, 0) repeats a vertex"),
            ("3 1\n0 3\n", "edge (0, 3) is out of range for 3 vertices"),
            # An edge out of order is reported before any other edge's error.
            ("3 2\n0 3\n2 1\n", "edge vertices must be ascending: '2 1'"),
            ("3 2\n1 1 2\n2 1 1\n", "edge vertices must be ascending: '2 1 1'"),
            ("3 2\n1 1\n0 5\n", "edge (1, 1) repeats a vertex"),
            # A token over int's digit limit (4300 by default) is found when
            # the edge lines are decoded, before any edge is checked; its line
            # is counted in the file, comments and blank lines included.
            pytest.param(
                "3 1\n0 " + "1" * 5000 + "\n",
                "a vertex on line 2 is out of range for 3 vertices",
                id="vertex-over-digit-limit",
            ),
            pytest.param(
                "# c\n\n3 3\n1 0\n0 1 2\n\n# 7\n" + "9" * 5000 + "\n",
                "a vertex on line 8 is out of range for 3 vertices",
                id="vertex-over-digit-limit-after-comments",
            ),
        ],
    )
    def test_edge_errors(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_hypergraph(text)
        assert str(info.value) == message

    def test_multi_digit_and_zero_tokens_parse(self):
        text = "12 2\n0 10 11\n\t9  10\n"
        assert parse_hypergraph(text) == Hypergraph(12, ((0, 10, 11), (9, 10)))

    @given(hypergraphs(max_vertices=12, max_edges=8, min_edges=0), st.data())
    def test_any_blanks_line_ends_and_comments_parse_like_the_written_text(self, hg, data):
        blanks = st.text(" \t", min_size=1, max_size=3)
        lines = []
        for tokens in [(hg.num_vertices, hg.num_edges), *hg.edges]:
            if data.draw(st.booleans()):
                lines.append(data.draw(st.sampled_from(["", "# 1 2", "\t# x,1.5"])))
            text = str(tokens[0]) + "".join(data.draw(blanks) + str(t) for t in tokens[1:])
            if data.draw(st.booleans()):
                text = data.draw(blanks) + text + data.draw(blanks)
            lines.append(text)
        end = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = end.join(lines) + end
        assert parse_hypergraph(text) == parse_hypergraph(format_hypergraph(hg)) == hg

    def test_crlf_is_accepted(self):
        text = "# comment\r\n3 2\r\n0 1\r\n\r\n1 2\r\n"
        assert parse_hypergraph(text) == Hypergraph(3, ((0, 1), (1, 2)))

    def test_vertex_count_limit(self):
        at_limit = parse_hypergraph(f"{MAX_VERTICES} 1\n0 {MAX_VERTICES - 1}\n")
        assert at_limit.num_vertices == MAX_VERTICES
        message = f"^{MAX_VERTICES + 1} vertices exceed the limit of {MAX_VERTICES}$"
        with pytest.raises(ValueError, match=message):
            parse_hypergraph(f"{MAX_VERTICES + 1} 1\n0\n")

    def test_cell_count_limit(self):
        # MAX_VERTICES x 64 = MAX_CELLS: the largest n x m incidence matrix.
        edges = MAX_CELLS // MAX_VERTICES
        at_limit = parse_hypergraph(f"{MAX_VERTICES} {edges}\n" + "0\n" * edges)
        assert at_limit.num_edges * at_limit.num_vertices == MAX_CELLS
        message = (
            f"^{MAX_VERTICES} vertices x {edges + 1} edges exceed the limit of "
            f"{MAX_CELLS} incidence matrix cells$"
        )
        with pytest.raises(ValueError, match=message):
            parse_hypergraph(f"{MAX_VERTICES} {edges + 1}\n" + "0\n" * (edges + 1))

    def test_small_sparse_text_is_refused_before_its_dense_rows_are_built(self):
        # 1.3 MB of text whose incidence rows would take 200000^2 / 8 bytes.
        text = "200000 200000\n" + "".join(f"{v}\n" for v in range(200000))
        with pytest.raises(ValueError, match=f"exceed the limit of {MAX_CELLS} incidence"):
            parse_hypergraph(text)

    def test_incidence_count_limit(self):
        # 65536 lines of 64 vertices are MAX_INCIDENCES tokens; a header of
        # one more edge lets them pass to the edge-line count, unbuilt.
        line = " ".join(map(str, range(64))) + "\n"
        lines = MAX_INCIDENCES // 64
        with pytest.raises(ValueError, match=f"^expected {lines + 1} edge lines, found {lines}$"):
            parse_hypergraph(f"64 {lines + 1}\n" + line * lines)
        message = f"^{MAX_INCIDENCES + 1} incidences exceed the limit of {MAX_INCIDENCES}$"
        with pytest.raises(ValueError, match=message):
            parse_hypergraph(f"64 {lines + 1}\n" + line * lines + "0\n")

    def test_incidences_are_the_vertex_tokens_of_the_edge_lines(self, monkeypatch):
        checked = []
        monkeypatch.setattr(textformat, "check_size", lambda *counts: checked.append(counts))
        text = "# 1 2 3\r\n9 4\n0 1 2\n\t3\t  4 \n\n  # 5 6\n5\n0 6 7 8\n"
        hg = parse_hypergraph(text)
        assert checked == [(9, 4, 10)] == [(9, hg.num_edges, sum(map(len, hg.edges)))]


class TestCheckSize:
    @pytest.mark.parametrize(
        "counts,message",
        [
            ((MAX_VERTICES, 0, 0), None),
            (
                (MAX_VERTICES + 1, 0, 0),
                f"{MAX_VERTICES + 1} vertices exceed the limit of {MAX_VERTICES}",
            ),
            ((MAX_VERTICES, MAX_CELLS // MAX_VERTICES, MAX_INCIDENCES), None),
            ((1, MAX_CELLS, MAX_INCIDENCES), None),
            (
                (MAX_VERTICES, MAX_CELLS // MAX_VERTICES + 1, 1),
                f"{MAX_VERTICES} vertices x {MAX_CELLS // MAX_VERTICES + 1} edges exceed the "
                f"limit of {MAX_CELLS} incidence matrix cells",
            ),
            (
                (1, 1, MAX_INCIDENCES + 1),
                f"{MAX_INCIDENCES + 1} incidences exceed the limit of {MAX_INCIDENCES}",
            ),
            # The first bound broken is the one named.
            ((MAX_VERTICES + 1, MAX_CELLS, MAX_INCIDENCES + 1), f"{MAX_VERTICES + 1} vertices exceed "),
            ((2, MAX_CELLS, MAX_INCIDENCES + 1), f"2 vertices x {MAX_CELLS} edges exceed "),
        ],
    )
    def test_each_bound_and_one_above(self, counts, message):
        if message is None:
            check_size(*counts)
        else:
            with pytest.raises(ValueError, match=f"^{message}"):
                check_size(*counts)



class TestFamilySizes:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: complete_3partite(3),
            lambda: projective_geometry(4),
            lambda: circulant_hypergraph("1101000"),
            lambda: circulant_hypergraph(block_row(2, 3)),
        ],
        ids=["k3partite-3", "pg-4", "circulant", "block-circulant-2x3"],
    )
    def test_closed_form_counts_are_those_of_the_built_family(self, monkeypatch, build):
        # Every check that builds the family, block_row's and then
        # circulant_hypergraph's for a block circulant, sees its counts.
        checked = []
        monkeypatch.setitem(complete_3partite.__globals__, "check_size", lambda *counts: checked.append(counts))
        hg = build()
        assert checked and set(checked) == {(hg.num_vertices, hg.num_edges, sum(map(len, hg.edges)))}

    @pytest.mark.parametrize(
        "build,message",
        [
            # One step past the largest of each family.
            pytest.param(
                lambda: complete_3partite(69),
                f"207 vertices x 328509 edges exceed the limit of {MAX_CELLS} incidence matrix cells",
                id="k3partite-69",
            ),
            pytest.param(
                lambda: projective_geometry(10),
                f"1023 vertices x 174251 edges exceed the limit of {MAX_CELLS} incidence matrix cells",
                id="pg-10",
            ),
            pytest.param(
                lambda: block_row(1, 1449),
                f"{2898 * 1449} incidences exceed the limit of {MAX_INCIDENCES}",
                id="bc-1x1449",
            ),
            pytest.param(
                lambda: circulant_hypergraph("1" + "0" * 8192),
                f"8193 vertices x 8193 edges exceed the limit of {MAX_CELLS} incidence matrix cells",
                id="circulant-8193",
            ),
            pytest.param(
                lambda: circulant_hypergraph("1" * 513 + "0" * 7679),
                f"{8192 * 513} incidences exceed the limit of {MAX_INCIDENCES}",
                id="circulant-8192x513",
            ),
            # Far past it: each would take gigabytes or hours to build.
            pytest.param(
                lambda: complete_3partite(1000),
                f"3000 vertices x 1000000000 edges exceed the limit of {MAX_CELLS} incidence matrix cells",
                id="k3partite-1000",
            ),
            pytest.param(
                lambda: complete_3partite(349526),
                f"1048578 vertices exceed the limit of {MAX_VERTICES}",
                id="k3partite-349526",
            ),
            pytest.param(
                lambda: projective_geometry(40),
                f"1099511627775 vertices exceed the limit of {MAX_VERTICES}",
                id="pg-40",
            ),
            # Both sides of 64, above which the count is written 2^n - 1.
            pytest.param(
                lambda: projective_geometry(64),
                f"18446744073709551615 vertices exceed the limit of {MAX_VERTICES}",
                id="pg-64",
            ),
            pytest.param(
                lambda: projective_geometry(65),
                f"2^65 - 1 vertices exceed the limit of {MAX_VERTICES}",
                id="pg-65",
            ),
            pytest.param(
                lambda: projective_geometry(10**12),
                f"2^1000000000000 - 1 vertices exceed the limit of {MAX_VERTICES}",
                id="pg-10^12",
            ),
            pytest.param(
                lambda: block_row(10**6, 10**6),
                f"2000000000000 vertices exceed the limit of {MAX_VERTICES}",
                id="bc-10^6x10^6",
            ),
            pytest.param(
                lambda: circulant_hypergraph("1" * 60000),
                f"60000 vertices x 60000 edges exceed the limit of {MAX_CELLS} incidence matrix cells",
                id="circulant-60000-ones",
            ),
        ],
    )
    def test_builders_refuse_before_building(self, build, message):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == message
        assert peak < 1 << 20
