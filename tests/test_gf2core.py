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
    matvec,
    nullspace_basis,
    parse_matrix,
    rank,
    row_combination,
    row_space_equal,
    rref,
)

FANO = incidence_matrix(fano_circulant())


class TestBitVector:
    def test_string_round_trip(self):
        v = BitVector.from_string("1000101")
        assert v.bits == 0b1010001
        assert v.to01() == "1000101"
        assert v.support == (0, 4, 6)
        assert v.weight == 3

    def test_from_bits_and_indexing(self):
        v = BitVector.from_bits([1, 0, 1, 1])
        assert list(v) == [1, 0, 1, 1]
        assert v[0] == 1 and v[1] == 0
        with pytest.raises(IndexError):
            v[4]

    def test_validation(self):
        with pytest.raises(ValueError):
            BitVector(2, 4)
        with pytest.raises(ValueError):
            BitVector(-1, 0)
        with pytest.raises(ValueError):
            BitVector.from_string("10x")

    def test_xor_and_dot(self):
        a = BitVector.from_string("1100")
        b = BitVector.from_string("0110")
        assert (a ^ b).to01() == "1010"
        assert a.dot(b) == 1
        assert a.dot(a) == 0
        with pytest.raises(ValueError):
            a.dot(BitVector.from_string("11"))

    def test_rotation(self):
        v = BitVector.from_string("1000101")
        assert v.rotated(1).to01() == "1100010"
        assert v.rotated(7) == v
        assert v.rotated(-1) == v.rotated(6)

    def test_empty_vector(self):
        v = BitVector(0)
        assert v.weight == 0
        assert v.to01() == ""


class TestRref:
    def test_zero_matrix(self):
        reduced, pivots = rref(BitMatrix.zeros(2, 2))
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
        assert rank(BitMatrix.identity(5)) == 5

    def test_fano(self):
        assert rank(FANO) == 4

    def test_empty_matrices(self):
        assert rank(BitMatrix.zeros(0, 5)) == 0
        assert rank(BitMatrix.zeros(3, 0)) == 0

    @given(bit_matrices(max_rows=16, max_cols=16))
    def test_rank_transpose_invariant(self, m):
        assert rank(m) == rank(m.transpose())


class TestNullspace:
    def test_identity_has_trivial_nullspace(self):
        basis = nullspace_basis(BitMatrix.identity(3))
        assert basis.num_rows == 0 and basis.num_cols == 3

    def test_parity_vector(self):
        basis = nullspace_basis(BitMatrix.from_strings(["11"]))
        assert basis.to_strings() == ["11"]

    def test_fano_nullity(self):
        basis = nullspace_basis(FANO)
        assert basis.num_rows == 3 and basis.num_cols == 7

    @given(bit_matrices(max_rows=10, max_cols=12))
    def test_rank_nullity_and_membership(self, m):
        basis = nullspace_basis(m)
        assert rank(m) + basis.num_rows == m.num_cols
        for v in basis.iter_rows():
            assert matvec(m, v).weight == 0
        assert rank(basis) == basis.num_rows

    @given(bit_matrices(max_rows=8, max_cols=10), st.data())
    def test_span_orthogonal_to_nullspace(self, m, data):
        basis = nullspace_basis(m)
        row_pick = data.draw(st.sets(st.integers(0, max(m.num_rows - 1, 0))))
        null_pick = data.draw(st.sets(st.integers(0, max(basis.num_rows - 1, 0))))
        v = row_combination(m, {i for i in row_pick if i < m.num_rows})
        w = row_combination(basis, {i for i in null_pick if i < basis.num_rows})
        assert v.dot(w) == 0


class TestGram:
    def test_identity(self):
        assert gram(BitMatrix.identity(4)) == BitMatrix.identity(4)

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
        lists = m.to_lists()
        for u in range(m.num_rows):
            for v in range(m.num_rows):
                overlap = sum(a & b for a, b in zip(lists[u], lists[v]))
                assert g.entry(u, v) == overlap % 2


class TestRowSpaceEqual:
    @given(bit_matrices(max_rows=8, max_cols=10))
    def test_rref_preserves_row_space(self, m):
        assert row_space_equal(m, rref(m)[0])

    def test_different_dimensions_differ(self):
        assert not row_space_equal(BitMatrix.identity(2), BitMatrix.from_strings(["11"]))

    def test_fano_is_not_self_dual(self):
        assert not row_space_equal(FANO, nullspace_basis(FANO))

    def test_column_mismatch_raises(self):
        with pytest.raises(ValueError):
            row_space_equal(BitMatrix.identity(2), BitMatrix.identity(3))


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
            for j, bit in enumerate(m.to_lists()[i]):
                acc[j] ^= bit
        assert list(row_combination(m, indices)) == acc


class TestMatrixTextFormat:
    def test_known_round_trip(self):
        text = format_matrix(FANO)
        assert text.splitlines()[0] == "7 7"
        assert parse_matrix(text) == FANO

    @given(bit_matrices(max_rows=6, max_cols=8))
    def test_round_trip_bit_exact(self, m):
        assert parse_matrix(format_matrix(m)) == m

    def test_degenerate_shapes(self):
        for m in (BitMatrix.zeros(0, 4), BitMatrix.zeros(3, 0), BitMatrix.zeros(0, 0)):
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
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            parse_matrix(text)
