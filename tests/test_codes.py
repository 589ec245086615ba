"""Linear codes: parameters, the two distance engines, duality criteria."""

from __future__ import annotations

import random
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypercode.codes as codes
import hypercode.verify as verify
from conftest import bit_matrices, brute_min_distance, hypergraphs, random_connected_graph, span_words
from hypercode import (
    BitMatrix,
    DistanceResult,
    EnumerationCapError,
    Hypergraph,
    circulant_hypergraph,
    codeword_distance_search,
    complete_3partite,
    dual,
    eonv_distance_search,
    fano_circulant,
    from_generator,
    gram,
    graph_self_duality_criterion,
    incidence_matrix,
    is_self_dual,
    is_self_orthogonal,
    nullspace_basis,
    rank,
    row_space_equal,
    structural_self_orthogonality,
    weight_distribution,
)
from hypercode.codes import _dual_is_cheaper, _krawtchouk_sums, _macwilliams, _packed_sums, _weight_counts

FANO_CODE = from_generator(incidence_matrix(fano_circulant()))

# A [24,21,2] code: the identity beside three parity columns.
HIGH_RATE_GENERATOR = BitMatrix(21, 24, tuple(1 << i | (i % 7 + 1) << 21 for i in range(21)))
HIGH_RATE_CODE = from_generator(HIGH_RATE_GENERATOR)


def nonzero_counts(counts):
    # Count lists compared by their nonzero entries: the zero code's is [1].
    return {w: c for w, c in enumerate(counts) if c}


class TestFromGenerator:
    def test_identity(self):
        code = from_generator(BitMatrix.from_strings(["100", "010", "001"]))
        assert (code.length, code.dimension) == (3, 3)

    def test_fano(self):
        assert (FANO_CODE.length, FANO_CODE.dimension) == (7, 4)

    def test_zero_matrix_gives_zero_dimension(self):
        code = from_generator(BitMatrix(2, 5, (0, 0)))
        assert (code.length, code.dimension) == (5, 0)
        assert code.basis.num_rows == 0

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            from_generator(BitMatrix(2, 0, (0, 0)))

    @given(bit_matrices(max_rows=8, max_cols=10, min_cols=1))
    def test_basis_spans_the_generator(self, m):
        code = from_generator(m)
        assert code.dimension == rank(m)
        assert row_space_equal(code.basis, m)


class TestMinDistance:
    def test_identity(self):
        identity = BitMatrix.from_strings(["1000", "0100", "0010", "0001"])
        assert codeword_distance_search(from_generator(identity)).value == 1

    def test_fano(self):
        assert codeword_distance_search(FANO_CODE).value == 3

    def test_parts_of_four(self):
        code = from_generator(incidence_matrix(complete_3partite(4)))
        assert codeword_distance_search(code).value == 16

    def test_zero_code_rejected(self):
        with pytest.raises(ValueError):
            codeword_distance_search(from_generator(BitMatrix(2, 5, (0, 0))))

    @given(bit_matrices(max_rows=7, max_cols=12, min_cols=1))
    def test_matches_span_closure_oracle(self, m):
        expected = brute_min_distance(m.rows)
        code = from_generator(m)
        if expected is None:
            with pytest.raises(ValueError):
                codeword_distance_search(code)
        else:
            assert codeword_distance_search(code).value == expected

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "10")
        with pytest.raises(
            EnumerationCapError, match="^codeword search needs 15 evaluations, above the cap of 10$"
        ):
            codeword_distance_search(FANO_CODE)

    def test_cap_from_environment(self, monkeypatch):
        # Fano has k = 4: 15 evaluations, so 15 is the smallest cap that passes.
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "14")
        with pytest.raises(EnumerationCapError):
            codeword_distance_search(FANO_CODE)
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "15")
        assert codeword_distance_search(FANO_CODE).value == 3

    @pytest.mark.parametrize("raw", ["many", "-1"])
    def test_cap_must_be_a_non_negative_integer(self, monkeypatch, raw):
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", raw)
        with pytest.raises(ValueError, match="HYPERCODE_ENUM_CAP"):
            codeword_distance_search(FANO_CODE)


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "hg,expected",
        [
            (fano_circulant(), 3),
            (complete_3partite(3), 9),
        ],
    )
    def test_known_values(self, hg, expected):
        assert eonv_distance_search(hg).value == expected
        assert codeword_distance_search(from_generator(incidence_matrix(hg))).value == expected

    @given(hypergraphs(max_vertices=7, max_edges=10))
    def test_engines_agree(self, hg):
        d_subsets = eonv_distance_search(hg).value
        d_codewords = codeword_distance_search(from_generator(incidence_matrix(hg))).value
        assert d_subsets == d_codewords
        # third route: full span closure
        assert d_subsets == brute_min_distance(incidence_matrix(hg).rows)


class TestSearchControls:
    def test_early_exit_reports_upper_bound(self):
        # The 16 codewords are one scan, read whole: d = 3 <= 7, so the
        # value is d, flagged as an upper bound.
        result = codeword_distance_search(FANO_CODE, early_exit=7)
        assert result == DistanceResult(3, False)

    def test_early_exit_with_tight_threshold(self):
        result = codeword_distance_search(FANO_CODE, early_exit=3)
        assert not result.exact
        assert result.value == 3

    def test_eonv_search_result_fields(self):
        assert eonv_distance_search(fano_circulant()) == DistanceResult(3, True, (0,))


class TestWeightDistribution:
    def test_repetition_code(self):
        code = from_generator(BitMatrix.from_strings(["11"]))
        assert weight_distribution(code) == {0: 1, 2: 1}

    def test_fano_matches_span_closure(self):
        counts: dict[int, int] = {}
        for word in span_words(incidence_matrix(fano_circulant()).rows):
            w = word.bit_count()
            counts[w] = counts.get(w, 0) + 1
        assert counts == {0: 1, 3: 7, 4: 7, 7: 1}
        assert weight_distribution(FANO_CODE) == counts

    def test_zero_code(self):
        assert weight_distribution(from_generator(BitMatrix(1, 4, (0,)))) == {0: 1}

    @given(bit_matrices(max_rows=7, max_cols=10, min_cols=1))
    def test_counts_sum_to_code_size(self, m):
        code = from_generator(m)
        dist = weight_distribution(code)
        assert sum(dist.values()) == 1 << code.dimension
        assert dist[0] == 1
        positive = [w for w in dist if w > 0]
        if positive:
            d = min(positive)
            assert d == brute_min_distance(m.rows)
            # early_exit=0 never stops: no nonzero weight is 0, so the
            # early exit gives the exact value.
            assert codeword_distance_search(code, early_exit=0) == DistanceResult(d, True)
            assert codeword_distance_search(code) == DistanceResult(d, True)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "8")
        with pytest.raises(
            EnumerationCapError, match="^weight distribution needs 15 evaluations, above the cap of 8$"
        ):
            weight_distribution(FANO_CODE)


class TestMacWilliams:
    """The direct scan and the transformed scan of the dual must agree on
    every code, whichever of the two the side rule picks and through either
    transform of the dual's counts."""

    @staticmethod
    def assert_routes_agree(code):
        n = code.length
        direct = _weight_counts(code.basis.rows, n)
        assert direct[0] == 1
        assert sum(direct) == 1 << code.dimension
        rows = nullspace_basis(code.generator).rows
        dual_counts = _weight_counts(rows, n)
        scaled = {w: c << len(rows) for w, c in nonzero_counts(direct).items()}
        for transform in (_packed_sums, _krawtchouk_sums):
            assert nonzero_counts(transform(dual_counts, n)) == scaled
        transformed = _macwilliams(dual_counts, n, len(rows))
        assert nonzero_counts(transformed) == nonzero_counts(direct)
        assert code._weights == direct

    @given(bit_matrices(max_rows=10, max_cols=14, min_cols=1))
    def test_routes_agree(self, m):
        self.assert_routes_agree(from_generator(m))

    def test_routes_agree_on_high_rate_engine_corpus_codes(self):
        checked = 0
        for hg in verify._engine_corpus():
            code = from_generator(incidence_matrix(hg))
            if 2 * code.dimension > code.length:
                self.assert_routes_agree(code)
                checked += 1
        assert checked > 1000

    @given(st.lists(st.integers(0, 1 << 40), min_size=1, max_size=40), st.integers(0, 30))
    def test_transforms_agree_on_any_counts(self, counts, extra):
        # Counts of no code at all: both give sum_i B_i K_j(i) exactly.
        n = len(counts) - 1 + extra
        assert _packed_sums(counts, n) == _krawtchouk_sums(counts, n)

    def test_count_off_by_one_raises(self, monkeypatch):
        # Either transform raises the same error, at the same first weight.
        counts = _weight_counts(dual(FANO_CODE).basis.rows, 7)

        def transform(dual_counts, packed):
            monkeypatch.setattr(codes, "_packed_is_cheaper", lambda n, weights: packed)
            return _macwilliams(dual_counts, 7, 3)

        for packed in (True, False):
            assert transform(counts, packed) == _weight_counts(FANO_CODE.basis.rows, 7)
        for weight in range(8):
            for delta in (1, -1):
                if counts[weight] + delta >= 0:
                    wrong = list(counts)
                    wrong[weight] += delta
                    messages = []
                    for packed in (True, False):
                        with pytest.raises(ValueError, match="MacWilliams") as raised:
                            transform(wrong, packed)
                        messages.append(str(raised.value))
                    assert messages[0] == messages[1]

    @pytest.mark.parametrize(
        "n, units, packed",
        [(20, 3, False), (20, 4, True), (64, 5, False), (64, 6, True)],
    )
    def test_transform_rule_boundary(self, monkeypatch, n, units, packed):
        # The code of the words that vanish on the first ``units``
        # coordinates has A_w = C(n - units, w), and its dual, spanned by
        # those unit vectors, has the units + 1 weights 0..units: one pair
        # of inputs on either side of the rule at each length.
        assert codes._packed_is_cheaper(n, units + 1) == packed
        ran = []
        for name in ("_packed_sums", "_krawtchouk_sums"):
            transform = getattr(codes, name)
            monkeypatch.setattr(codes, name, lambda c, n, name=name, f=transform: ran.append(name) or f(c, n))
        code = from_generator(BitMatrix(n - units, n, tuple(1 << v for v in range(units, n))))
        assert _dual_is_cheaper(code)
        assert weight_distribution(code) == {w: comb(n - units, w) for w in range(n - units + 1)}
        assert ran == ["_packed_sums" if packed else "_krawtchouk_sums"]

    @pytest.mark.parametrize("n", [64, 1024])
    def test_even_weight_code_from_its_dual(self, n):
        # The [n, n-1] even-weight code, whose dual is {0, all-ones}: two
        # weights, past the rule at every length, and A_w = C(n, w) for
        # every even w.  The packed sums, not picked here, must agree.
        code = from_generator(BitMatrix(n - 1, n, tuple(3 << v for v in range(n - 1))))
        assert _dual_is_cheaper(code) and not codes._packed_is_cheaper(n, 2)
        assert weight_distribution(code) == {w: comb(n, w) for w in range(0, n + 1, 2)}
        two = [1] + [0] * (n - 1) + [1]
        assert _packed_sums(two, n) == [2 * comb(n, w) if w % 2 == 0 else 0 for w in range(n + 1)]

    def test_hamming_15_11_from_its_dual(self):
        # The simplex dual [15,4] has the two weights 0 and 8.
        code = from_generator(incidence_matrix(circulant_hypergraph("110010000000000")))
        assert (code.length, code.dimension) == (15, 11)
        assert _dual_is_cheaper(code) and not codes._packed_is_cheaper(15, 2)
        assert weight_distribution(code) == {
            0: 1, 3: 35, 4: 105, 5: 168, 6: 280, 7: 435, 8: 435, 9: 280, 10: 168, 11: 105, 12: 35, 15: 1,
        }

    def test_side_rule(self):
        # 2^(n-k) + n^2 against 2^k.
        assert not _dual_is_cheaper(FANO_CODE)  # 8 + 49 >= 16
        assert _dual_is_cheaper(HIGH_RATE_CODE)  # 8 + 576 < 2^21
        assert not _dual_is_cheaper(dual(HIGH_RATE_CODE))

    def test_high_rate_distance_and_weights(self):
        assert codeword_distance_search(HIGH_RATE_CODE) == DistanceResult(2, True)
        dist = weight_distribution(HIGH_RATE_CODE)
        assert sum(dist.values()) == 1 << 21
        assert min(w for w in dist if w) == 2
        # Weight 2: the 9 rows with one parity bit, and the 21 sums of two
        # rows with equal parity bits.
        assert dist[2] == 9 + 21

    def test_cap_counts_the_dual_words(self, monkeypatch):
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "7")
        assert codeword_distance_search(HIGH_RATE_CODE).value == 2
        assert sum(weight_distribution(HIGH_RATE_CODE).values()) == 1 << 21
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "6")
        with pytest.raises(
            EnumerationCapError, match="^weight distribution needs 7 evaluations, above the cap of 6$"
        ):
            weight_distribution(HIGH_RATE_CODE)
        with pytest.raises(
            EnumerationCapError, match="^codeword search needs 7 evaluations, above the cap of 6$"
        ):
            codeword_distance_search(HIGH_RATE_CODE)


class TestOneScanPerCode:
    """The exact distance and the weight distribution read one count list,
    scanned once per code, on either side of the side rule."""

    @pytest.mark.parametrize(
        "generator",
        [
            incidence_matrix(fano_circulant()),
            incidence_matrix(complete_3partite(3)),
            HIGH_RATE_GENERATOR,
        ],
        ids=["fano", "k3partite-3", "high-rate-dual"],
    )
    @pytest.mark.parametrize("distance_first", [True, False], ids=["distance-first", "weights-first"])
    def test_one_scan_serves_both(self, monkeypatch, generator, distance_first):
        scan = codes._weight_counts
        scanned = []

        def scan_once(rows, n):
            if scanned:
                raise AssertionError("a second weight-count scan of the same code")
            scanned.append(rows)
            return scan(rows, n)

        monkeypatch.setattr(codes, "_weight_counts", scan_once)
        code = from_generator(generator)
        calls = [codeword_distance_search, weight_distribution]
        for call in calls if distance_first else calls[::-1]:
            call(code)
            assert len(scanned) == 1
        assert codeword_distance_search(code).value == min(w for w in weight_distribution(code) if w)


class TestDual:
    def test_identity_dual_is_trivial(self):
        code = dual(from_generator(BitMatrix.from_strings(["100", "010", "001"])))
        assert (code.length, code.dimension) == (3, 0)

    def test_fano_dual(self):
        d = dual(FANO_CODE)
        assert (d.length, d.dimension) == (7, 3)
        for row in d.basis.rows:
            for generator_row in FANO_CODE.basis.rows:
                assert (row & generator_row).bit_count() % 2 == 0

    @given(bit_matrices(max_rows=7, max_cols=9, min_cols=1))
    def test_double_dual_restores_the_code(self, m):
        code = from_generator(m)
        assert row_space_equal(dual(dual(code)).basis, code.basis)


class TestSelfOrthogonality:
    def test_even_weight_single_row(self):
        assert is_self_orthogonal(from_generator(BitMatrix.from_strings(["1111"])))

    def test_fano_is_not(self):
        assert not is_self_orthogonal(FANO_CODE)

    def test_repetition_code(self):
        assert is_self_orthogonal(from_generator(BitMatrix.from_strings(["11"])))

    def test_zero_code_is_self_orthogonal(self):
        assert is_self_orthogonal(from_generator(BitMatrix(1, 3, (0,))))

    @given(bit_matrices(max_rows=7, max_cols=10, min_cols=1))
    def test_self_orthogonal_codes_have_even_weights(self, m):
        code = from_generator(m)
        if is_self_orthogonal(code):
            assert all(row.bit_count() % 2 == 0 for row in code.basis.rows)


class TestSelfDuality:
    def test_repetition_code_is_self_dual(self):
        assert is_self_dual(from_generator(BitMatrix.from_strings(["11"])))

    def test_fano_is_not(self):
        assert not is_self_dual(FANO_CODE)

    def test_direct_sum_of_repetition_codes(self):
        assert is_self_dual(from_generator(BitMatrix.from_strings(["1100", "0011"])))

    @given(bit_matrices(max_rows=6, max_cols=8, min_cols=1))
    def test_agrees_with_row_space_comparison(self, m):
        code = from_generator(m)
        assert is_self_dual(code) == row_space_equal(m, nullspace_basis(m))


class TestStructuralSelfOrthogonality:
    def test_odd_degree_fails(self):
        assert not structural_self_orthogonality(Hypergraph(2, ((0, 1),)))

    def test_doubled_cycle_passes(self):
        cycle = ((0, 1), (1, 2), (2, 3), (0, 3))
        hg = Hypergraph(4, cycle + cycle)
        assert structural_self_orthogonality(hg)
        assert gram(incidence_matrix(hg)).is_zero

    @given(hypergraphs(max_vertices=10, max_edges=16))
    def test_agrees_with_gram_and_code(self, hg):
        matrix = incidence_matrix(hg)
        expected = gram(matrix).is_zero
        assert structural_self_orthogonality(hg) == expected
        assert is_self_orthogonal(from_generator(matrix)) == expected


    @given(hypergraphs(max_vertices=8, max_edges=8), st.data())
    def test_edge_counting_with_repeated_edges(self, hg, data):
        # Repeats cancel in pairs: an edge taken twice adds an even count
        # to every pair it holds.
        repeats = data.draw(st.lists(st.sampled_from(hg.edges), max_size=8))
        edges = list(hg.edges) + repeats
        data.draw(st.randoms()).shuffle(edges)
        repeated = Hypergraph(hg.num_vertices, tuple(edges))
        expected = gram(incidence_matrix(repeated)).is_zero
        assert structural_self_orthogonality(repeated) == expected


class TestGraphSelfDualityCriterion:
    def test_path_fails_on_edge_count(self):
        hg = Hypergraph(3, ((0, 1), (1, 2)))
        assert not graph_self_duality_criterion(hg)
        assert not is_self_dual(from_generator(incidence_matrix(hg)))

    def test_doubled_triangle_fails(self):
        triangle = ((0, 1), (1, 2), (0, 2))
        hg = Hypergraph(3, triangle + triangle)
        assert not graph_self_duality_criterion(hg)
        assert not is_self_dual(from_generator(incidence_matrix(hg)))

    def test_doubled_edge_is_self_dual(self):
        hg = Hypergraph(2, ((0, 1), (0, 1)))
        assert graph_self_duality_criterion(hg)
        assert is_self_dual(from_generator(incidence_matrix(hg)))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            graph_self_duality_criterion(Hypergraph(3, ((0, 1, 2),)))
        with pytest.raises(ValueError):
            graph_self_duality_criterion(Hypergraph(4, ((0, 1), (2, 3))))
        with pytest.raises(ValueError):
            graph_self_duality_criterion(Hypergraph(2, ()))

    def test_matches_direct_self_duality_on_random_multigraphs(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(2, 6)
            hg = random_connected_graph(rng, n, rng.randint(0, 2 * n))
            matrix = incidence_matrix(hg)
            direct = row_space_equal(matrix, nullspace_basis(matrix))
            assert graph_self_duality_criterion(hg) == direct


class TestConnectedGraphRankFacts:
    def test_rank_is_vertices_minus_one(self):
        # the all-rows sum of a 2-uniform incidence matrix vanishes, and
        # connectivity forces the rank all the way up to n - 1
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(2, 8)
            hg = random_connected_graph(rng, n, rng.randint(0, 8))
            assert rank(incidence_matrix(hg)) == n - 1

    def test_dimension_obstruction(self):
        # no self-dual incidence code when m is odd or m < 2n - 2
        rng = random.Random(43)
        for _ in range(300):
            n = rng.randint(2, 7)
            hg = random_connected_graph(rng, n, rng.randint(0, 6))
            m = hg.num_edges
            if m % 2 == 1 or m < 2 * n - 2:
                assert not is_self_dual(from_generator(incidence_matrix(hg)))
