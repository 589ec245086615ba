"""Packed GF(2) linear algebra: reduction, rank, null space, serialization."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bit_matrices, span_words
from hypercode import (
    BitMatrix,
    complete_3partite,
    dual,
    fano_circulant,
    from_generator,
    format_matrix,
    gram,
    incidence_matrix,
    nullspace_basis,
    parse_matrix,
    parse_row,
    projective_geometry,
    rank,
    row_combination,
    row_space_equal,
    rref,
)
import hypercode.gf2core as gf2core
from hypercode.gf2core import format_row, set_bits
from hypercode.textformat import split_lines

FANO = incidence_matrix(fano_circulant())
# Rows wider than 64 bits: pivots far past the 12 columns of the narrow draws.
WIDE = bit_matrices(max_rows=16, min_cols=60, max_cols=200)


class TestRowText:
    def test_string_round_trip(self):
        bits = parse_row("1000101")
        assert bits == 0b1010001
        assert format_row(bits, 7) == "1000101"
        assert set_bits(bits) == (0, 4, 6)
        assert bits.bit_count() == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            format_row(4, 2)
        with pytest.raises(ValueError):
            format_row(-1, 3)
        with pytest.raises(ValueError):
            format_row(0, -1)
        with pytest.raises(ValueError, match=r"expected a string of '0'/'1', got '10x'"):
            parse_row("10x")

    def test_empty_row(self):
        assert parse_row("") == 0
        assert format_row(0, 0) == ""


def assert_transpose(m):
    """``m.transpose()`` against its definition, one bit at a time."""
    t = m.transpose()
    assert (t.num_rows, t.num_cols) == (m.num_cols, m.num_rows)
    for j, column in enumerate(t.rows):
        assert column == sum((row >> j & 1) << i for i, row in enumerate(m.rows))
    assert t.transpose() == m


class TestBitMatrixErrors:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((-1, 2, ()), "matrix dimensions must be non-negative"),
            ((2, -1, ()), "matrix dimensions must be non-negative"),
            ((2, 3, (0b101,)), "expected 2 rows, got 1"),
            ((2, 3, (0b101, 0b1000)), "row 1 out of range for 3 columns"),
        ],
    )
    def test_constructor(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BitMatrix(*args)

    def test_rows_of_unequal_length(self):
        with pytest.raises(ValueError, match="^rows must all have the same length$"):
            BitMatrix.from_strings(["101", "10"])


class TestTranspose:
    @given(WIDE)
    def test_matches_the_definition(self, m):
        assert_transpose(m)

    def test_wide_dense_rows(self):
        rng = random.Random(30)
        for rows, cols in ((1, 4096), (3, 3000), (5, 2049)):
            dense = tuple(
                ((1 << cols) - 1) ^ sum(1 << rng.randrange(cols) for _ in range(cols // 50))
                for _ in range(rows)
            )
            assert_transpose(BitMatrix(rows, cols, dense))
        assert_transpose(BitMatrix(1, 4096, ((1 << 4096) - 1,)))

    def test_empty_shapes(self):
        for rows, cols in ((0, 0), (0, 5), (3, 0)):
            assert_transpose(BitMatrix(rows, cols, (0,) * rows))


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


def per_pivot_rref(m: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """The former forward step: each row tested against every held pivot."""
    basis: dict[int, int] = {}
    for row in m.rows:
        for bit, reduced in basis.items():
            if row & bit:
                row ^= reduced
        if row:
            low = row & -row
            for bit, reduced in basis.items():
                if reduced & low:
                    basis[bit] = reduced ^ row
            basis[low] = row
    bits = sorted(basis)
    rows = tuple(basis[bit] for bit in bits) + (0,) * (m.num_rows - len(bits))
    return BitMatrix(m.num_rows, m.num_cols, rows), tuple(bit.bit_length() - 1 for bit in bits)


def circulant(n: int, support) -> BitMatrix:
    return BitMatrix(n, n, tuple(sum(1 << (i + s) % n for s in support) for i in range(n)))


class TestRrefAgainstPerPivotLoop:
    """The forward step walks the pivot bits a row holds; the former loop,
    which tests every pivot, is the oracle for the pair it returns."""

    @pytest.mark.parametrize(
        "n,support",
        [(64, (0, 1, 2)), (252, (0, 1, 3)), (200, (0, 5, 17)), (255, (0, 7, 100))],
    )
    def test_banded_circulants(self, n, support):
        m = circulant(n, support)
        assert rref(m) == per_pivot_rref(m)

    @pytest.mark.parametrize("n,ones,seed", [(256, 64, 1), (512, 64, 2), (1024, 64, 3)])
    def test_dense_wide_circulants(self, n, ones, seed):
        m = circulant(n, random.Random(seed).sample(range(n), ones))
        assert rref(m) == per_pivot_rref(m)

    @given(st.one_of(bit_matrices(max_rows=10, max_cols=12), WIDE))
    def test_random_matrices(self, m):
        assert rref(m) == per_pivot_rref(m)


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
        assert (v & w).bit_count() % 2 == 0


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

    def test_enough_rows_inside_but_lower_rank_differ(self):
        # Every row of b lies in a's row space, and b has rank(a) rows or
        # more, but spans less of it.
        a = BitMatrix.from_strings(["100", "010", "001"])
        for lines in (["110", "110", "000"], ["101", "011", "110"], ["100", "100", "100", "000"]):
            b = BitMatrix.from_strings(lines)
            assert rank(b) < 3 and not row_space_equal(a, b)
        assert not row_space_equal(FANO, BitMatrix(7, 7, (FANO.rows[0],) * 7))

    def test_repeated_and_zero_rows_that_span(self):
        rows = list(FANO.rows) * 2 + [0, 0, FANO.rows[1] ^ FANO.rows[2]]
        random.Random(5).shuffle(rows)
        assert row_space_equal(FANO, BitMatrix(len(rows), 7, tuple(rows)))
        # Four independent Fano rows span the whole [7,4] code.
        assert row_space_equal(FANO, BitMatrix(6, 7, (0,) + FANO.rows[:4] + (0,)))

    def test_zero_matrices(self):
        zero = BitMatrix(3, 5, (0, 0, 0))
        assert row_space_equal(zero, BitMatrix(2, 5, (0, 0)))
        assert row_space_equal(zero, BitMatrix(0, 5, ()))
        assert not row_space_equal(zero, BitMatrix(1, 5, (0b100,)))
        assert not row_space_equal(BitMatrix(1, 5, (0b100,)), zero)

    def test_b_is_read_once_and_never_reduced(self):
        # A b that spans a takes the full route: every row reduced by a's
        # stored RREF, then the rank of their coordinates.
        rows = FANO.rows[3:] + FANO.rows + (0,)
        b = counted(BitMatrix(len(rows), 7, rows))
        a = counted(FANO)
        assert row_space_equal(a, b)
        assert b.rows.walks == 2 and a.rows.walks == 2
        assert "_rref" not in b.__dict__
        assert row_space_equal(a, b) and a.rows.walks == 2 and b.rows.walks == 3


class CountedRows(tuple):
    """A row tuple that counts how often it is walked: once when its matrix
    is built (the range check), and once more per reduction of the matrix."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def counted(m: BitMatrix) -> BitMatrix:
    rows = CountedRows(m.rows)
    counted_matrix = BitMatrix(m.num_rows, m.num_cols, rows)
    assert rows.walks == 1
    return counted_matrix


def set_bits_nullspace(m: BitMatrix) -> BitMatrix:
    """The former route: free columns by set_bits on the complement mask."""
    reduced, pivots = rref(m)
    pivot_mask = sum(1 << p for p in pivots)
    free = set_bits(((1 << m.num_cols) - 1) & ~pivot_mask)
    basis = {f: 1 << f for f in free}
    for row, p in zip(reduced.rows, pivots):
        for f in set_bits(row & ~pivot_mask):
            basis[f] |= 1 << p
    return BitMatrix(len(basis), m.num_cols, tuple(basis.values()))


@st.composite
def row_space_pairs(draw):
    # b mixes combinations of a's rows with random rows, and is often
    # shorter than a's rank, where row_space_equal answers without reading it.
    a = draw(bit_matrices(max_rows=6, max_cols=8, min_cols=1))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if a.num_rows and draw(st.booleans()):
            picks = draw(st.sets(st.integers(0, a.num_rows - 1)))
            rows.append(row_combination(a, picks))
        else:
            rows.append(draw(st.integers(0, (1 << a.num_cols) - 1)))
    return a, BitMatrix(len(rows), a.num_cols, tuple(rows))


class TestOneReduction:
    """Each matrix is reduced at most once, and every route reads that result."""

    def test_every_route_reads_the_one_reduction(self):
        m = counted(incidence_matrix(complete_3partite(3)))
        code = from_generator(m)
        assert code.dimension == 7
        null = nullspace_basis(m)
        assert rank(m) == 7 and not row_space_equal(m, null)
        assert m.rows.walks == 2
        assert rref(m) is rref(m)

    def test_dual_reads_the_generator_reduction(self, monkeypatch):
        m = incidence_matrix(complete_3partite(3))
        code = from_generator(m)
        assert code.dimension == 7
        asked = []
        monkeypatch.setattr(gf2core, "rref", lambda matrix: asked.append(matrix) or rref(matrix))
        other = dual(code)
        # One lookup, of the generator's stored pair: the basis is never reduced.
        assert len(asked) == 1 and asked[0] is m
        monkeypatch.undo()
        assert other.generator == nullspace_basis(code.basis)

    @given(bit_matrices(max_rows=10, max_cols=12, min_cols=1))
    def test_dual_equals_the_null_space_of_the_basis(self, m):
        code = from_generator(m)
        assert dual(code).generator == nullspace_basis(code.basis)

    def test_the_stored_reduction_is_not_a_field(self):
        m = BitMatrix.from_strings(["110", "011"])
        plain = BitMatrix.from_strings(["110", "011"])
        before = repr(m)
        rref(m)
        assert m == plain and hash(m) == hash(plain) and repr(m) == before

    @given(row_space_pairs())
    def test_early_exit_agrees_with_a_full_comparison(self, pair):
        a, b = pair
        expected = span_words(a.rows) == span_words(b.rows)
        b = counted(b)
        assert row_space_equal(a, b) == expected
        # b is read once, and only when it has enough rows to span a's row
        # space; it is never reduced.
        assert b.rows.walks == (1 if b.num_rows < rank(a) else 2)
        assert "_rref" not in b.__dict__

    def test_wide_incidence_nullspace_is_unchanged(self):
        m = incidence_matrix(complete_3partite(6))
        assert (m.num_rows, m.num_cols) == (18, 216)
        assert nullspace_basis(m).rows == set_bits_nullspace(m).rows

    @pytest.mark.parametrize(
        "hypergraph,shape",
        [(complete_3partite(16), (48, 4096)), (projective_geometry(7), (127, 2667))],
        ids=["complete_3partite(16)", "projective_geometry(7)"],
    )
    def test_largest_selfdual_inputs_keep_their_nullspace(self, hypergraph, shape):
        # The widest incidence matrices of the benchmark's selfdual workload.
        m = incidence_matrix(hypergraph)
        assert (m.num_rows, m.num_cols) == shape
        assert nullspace_basis(m).rows == set_bits_nullspace(m).rows

    @given(st.one_of(bit_matrices(max_rows=10, max_cols=12), WIDE))
    def test_nullspace_rows_match_the_set_bits_route(self, m):
        assert nullspace_basis(m) == set_bits_nullspace(m)


class TestRowCombination:
    def test_empty_selection_is_zero(self):
        assert row_combination(FANO, set()) == 0

    def test_single_fano_row(self):
        assert format_row(row_combination(FANO, {0}), 7) == "1000101"

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
        assert [(row_combination(m, indices) >> j) & 1 for j in range(m.num_cols)] == acc


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
