"""Packed GF(2) linear algebra: reduction, rank, null space, serialization."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bit_matrices
from hypercode import (
    BitMatrix,
    BitVector,
    fano_circulant,
    format_matrix,
    gram,
    incidence_matrix,
    nullspace_basis,
    parse_matrix,
    rank,
    row_combination,
    row_space_equal,
    rref,
)
from hypercode.gf2core import split_lines

FANO = incidence_matrix(fano_circulant())
# Rows wider than 64 bits: pivots far past the 12 columns of the narrow draws.
WIDE = bit_matrices(max_rows=16, min_cols=60, max_cols=200)


class TestBitVector:
    def test_string_round_trip(self):
        v = BitVector.from_string("1000101")
        assert v.bits == 0b1010001
        assert v.to01() == "1000101"
        assert v.support == (0, 4, 6)
        assert v.weight == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            BitVector(2, 4)
        with pytest.raises(ValueError):
            BitVector(-1, 0)
        with pytest.raises(ValueError):
            BitVector.from_string("10x")

    def test_empty_vector(self):
        v = BitVector(0)
        assert v.weight == 0
        assert v.to01() == ""


class TestRref:
    def test_zero_matrix(self):
        reduced, pivots = rref(BitMatrix(2, 2, (0, 0)))
        assert reduced.is_zero
        assert pivots == ()

    def test_duplicate_rows_cancel(self):
        reduced, pivots = rref(BitMatrix.from_strings(["11", "11"]))
        assert reduced.to_strings() == ["11", "00"]
        assert pivots == (0,)

    def test_fano_has_four_pivots(self):
        _, pivots = rref(FANO)
        assert len(pivots) == 4

    @given(bit_matrices(max_rows=10, max_cols=12))
    def test_rref_properties(self, m):
        self.check_rref_properties(m)

    @given(WIDE)
    def test_rref_properties_wide(self, m):
        self.check_rref_properties(m)

    @staticmethod
    def check_rref_properties(m):
        reduced, pivots = rref(m)
        assert list(pivots) == sorted(pivots)
        assert row_space_equal(m, reduced)
        # idempotence
        again, again_pivots = rref(reduced)
        assert again == reduced and again_pivots == pivots
        # each pivot column holds a single 1, on its own row
        for i, col in enumerate(pivots):
            column = [(r >> col) & 1 for r in reduced.rows]
            assert sum(column) == 1 and column[i] == 1
        # rows below the pivot count are zero
        assert all(r == 0 for r in reduced.rows[len(pivots) :])


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix.from_strings(["10000", "01000", "00100", "00010", "00001"])) == 5

    def test_fano(self):
        assert rank(FANO) == 4

    def test_empty_matrices(self):
        assert rank(BitMatrix(0, 5, ())) == 0
        assert rank(BitMatrix(3, 0, (0, 0, 0))) == 0

    @given(bit_matrices(max_rows=16, max_cols=16))
    def test_rank_transpose_invariant(self, m):
        assert rank(m) == rank(m.transpose())


class TestNullspace:
    def test_identity_has_trivial_nullspace(self):
        basis = nullspace_basis(BitMatrix.from_strings(["100", "010", "001"]))
        assert basis.num_rows == 0 and basis.num_cols == 3

    def test_parity_vector(self):
        basis = nullspace_basis(BitMatrix.from_strings(["11"]))
        assert basis.to_strings() == ["11"]

    def test_fano_nullity(self):
        basis = nullspace_basis(FANO)
        assert basis.num_rows == 3 and basis.num_cols == 7

    @given(bit_matrices(max_rows=10, max_cols=12))
    def test_rank_nullity_and_membership(self, m):
        self.check_rank_nullity_and_membership(m)

    @given(WIDE)
    def test_rank_nullity_and_membership_wide(self, m):
        self.check_rank_nullity_and_membership(m)

    @staticmethod
    def check_rank_nullity_and_membership(m):
        basis = nullspace_basis(m)
        assert rank(m) + basis.num_rows == m.num_cols
        for v in basis.rows:
            assert all((r & v).bit_count() % 2 == 0 for r in m.rows)
        assert rank(basis) == basis.num_rows

    @given(st.one_of(bit_matrices(max_rows=10, max_cols=12), WIDE))
    def test_canonical_form(self, m):
        # Row r holds exactly one free-column bit, at the r-th free column.
        _, pivots = rref(m)
        free = [f for f in range(m.num_cols) if f not in pivots]
        free_mask = sum(1 << f for f in free)
        columns = []
        for v in nullspace_basis(m).rows:
            free_bits = v & free_mask
            assert free_bits.bit_count() == 1
            columns.append(free_bits.bit_length() - 1)
        assert columns == free

    @given(bit_matrices(max_rows=8, max_cols=10), st.data())
    def test_span_orthogonal_to_nullspace(self, m, data):
        basis = nullspace_basis(m)
        row_pick = data.draw(st.sets(st.integers(0, max(m.num_rows - 1, 0))))
        null_pick = data.draw(st.sets(st.integers(0, max(basis.num_rows - 1, 0))))
        v = row_combination(m, {i for i in row_pick if i < m.num_rows})
        w = row_combination(basis, {i for i in null_pick if i < basis.num_rows})
        assert (v.bits & w.bits).bit_count() % 2 == 0


class TestGram:
    def test_identity(self):
        identity = BitMatrix.from_strings(["1000", "0100", "0010", "0001"])
        assert gram(identity) == identity

    def test_fano_is_all_ones(self):
        # oracle: count pairwise line intersections straight from the edge list
        edges = fano_circulant().edges
        points = range(7)
        for u in points:
            assert sum(1 for e in edges if u in e) % 2 == 1
            for v in points:
                if u != v:
                    common = sum(1 for e in edges if u in e and v in e)
                    assert common == 1
        expected = BitMatrix(7, 7, tuple((1 << 7) - 1 for _ in points))
        assert gram(FANO) == expected

    def test_even_rows_even_overlaps_give_zero(self):
        m = BitMatrix.from_strings(["1100", "0011", "1111"])
        assert gram(m).is_zero

    @given(bit_matrices(max_rows=12, max_cols=20))
    def test_entries_are_overlap_parities(self, m):
        g = gram(m)
        lists = [[(r >> j) & 1 for j in range(m.num_cols)] for r in m.rows]
        for u in range(m.num_rows):
            for v in range(m.num_rows):
                overlap = sum(a & b for a, b in zip(lists[u], lists[v]))
                assert (g.rows[u] >> v) & 1 == overlap % 2


class TestRowSpaceEqual:
    @given(bit_matrices(max_rows=8, max_cols=10))
    def test_rref_preserves_row_space(self, m):
        assert row_space_equal(m, rref(m)[0])

    def test_different_dimensions_differ(self):
        identity = BitMatrix.from_strings(["10", "01"])
        assert not row_space_equal(identity, BitMatrix.from_strings(["11"]))

    def test_fano_is_not_self_dual(self):
        assert not row_space_equal(FANO, nullspace_basis(FANO))

    def test_column_mismatch_raises(self):
        with pytest.raises(ValueError):
            row_space_equal(
                BitMatrix.from_strings(["10", "01"]), BitMatrix.from_strings(["100", "010", "001"])
            )


class TestRowCombination:
    def test_empty_selection_is_zero(self):
        assert row_combination(FANO, set()).weight == 0

    def test_single_fano_row(self):
        assert row_combination(FANO, {0}).to01() == "1000101"

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            row_combination(FANO, {7})

    @given(bit_matrices(min_rows=1, max_rows=8, max_cols=10), st.data())
    def test_matches_shuffled_incremental_xor(self, m, data):
        indices = data.draw(st.sets(st.integers(0, m.num_rows - 1)))
        order = list(indices)
        random.Random(data.draw(st.integers(0, 999))).shuffle(order)
        acc = [0] * m.num_cols
        for i in order:
            for j in range(m.num_cols):
                acc[j] ^= (m.rows[i] >> j) & 1
        assert [int(c) for c in row_combination(m, indices).to01()] == acc


class TestMatrixTextFormat:
    def test_known_round_trip(self):
        text = format_matrix(FANO)
        assert text.splitlines()[0] == "7 7"
        assert parse_matrix(text) == FANO

    @given(bit_matrices(max_rows=6, max_cols=8))
    def test_round_trip_bit_exact(self, m):
        assert parse_matrix(format_matrix(m)) == m

    def test_degenerate_shapes(self):
        for m in (BitMatrix(0, 4, ()), BitMatrix(3, 0, (0, 0, 0)), BitMatrix(0, 0, ())):
            assert parse_matrix(format_matrix(m)) == m

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n10\n01\n",
            "2 2\n10\n",
            "2 2\n10\n012\n",
            "2 2\n10\n0x\n",
            "2 2\n10\n01\nextra\n",
            "-1 2\n",
            "+2 2\n10\n01\n",
            "0_2 2\n10\n01\n",
            "02 2\n10\n01\n",
            "\u0662 2\n10\n01\n",
            "2 2\n10\u3000\n01\n",
            "2 2\x0c10\x1e01\n",  # form feed and record separator as line breaks
            "2\x1f2\n10\n01\n",  # unit separator between header tokens
            "2 2\n10\r01\n",  # a carriage return not followed by a line feed
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            parse_matrix(text)

    def test_crlf_and_tabs_are_accepted(self):
        expected = parse_matrix("2 2\n10\n01\n")
        assert parse_matrix("2 2\r\n10\r\n01\r\n") == expected
        assert parse_matrix("2\t2\n\t10\n01 \n") == expected


class TestSplitLines:
    def test_splits_on_line_feed_only(self):
        assert split_lines("a\tb\n\nc d", "rule") == ["a\tb", "", "c d"]
        assert split_lines("a\n", "rule") == ["a"]
        assert split_lines("a\n\n", "rule") == ["a", ""]
        assert split_lines("", "rule") == []

    def test_drops_a_carriage_return_before_a_line_feed(self):
        assert split_lines("a\r\nb\r\n", "rule") == ["a", "b"]

    @pytest.mark.parametrize(
        "text,found,line",
        [
            ("a\rb\n", "\\r", 1),
            ("a\r\r\nb\n", "\\r", 1),
            ("a\nb\x0cc\n", "\\x0c", 2),
            ("a\nb\nc\x7f", "\\x7f", 3),
            ("a\n\u2028b", "\\u2028", 2),
            ("a\n\u00e9", "\u00e9", 2),
        ],
    )
    def test_rejects_every_other_control_and_non_ascii_character(self, text, found, line):
        with pytest.raises(ValueError) as raised:
            split_lines(text, "the rule")
        assert str(raised.value) == f"the rule; found '{found}' on line {line}"
