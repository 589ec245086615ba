"""GF(2) polynomial arithmetic, the gcd dimension formula, and block bounds."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypercode import (
    BitMatrix,
    BitVector,
    GF2Poly,
    NEG_INFINITY,
    block_circulant_bound,
    block_row,
    circulant_hypergraph,
    cyclic_code_dimension,
    poly_add,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_rem,
    rank,
    x_power_plus_one,
)

polys = st.builds(GF2Poly, st.integers(0, (1 << 33) - 1))


def convolve_mod2(a: GF2Poly, b: GF2Poly) -> GF2Poly:
    """Schoolbook convolution oracle, independent of the shift-XOR product."""
    if a.is_zero or b.is_zero:
        return GF2Poly(0)
    da, db = a.bits.bit_length() - 1, b.bits.bit_length() - 1
    coeffs = [0] * (da + db + 1)
    for i in range(da + 1):
        for j in range(db + 1):
            coeffs[i + j] ^= ((a.bits >> i) & 1) & ((b.bits >> j) & 1)
    return GF2Poly.from_coefficients(coeffs)


class TestBasics:
    def test_zero_degree_sentinel(self):
        assert GF2Poly(0).degree == NEG_INFINITY
        assert GF2Poly(0).degree < 0
        assert GF2Poly(1).degree == 0

    def test_string_round_trip(self):
        p = GF2Poly.from_string("1000101")
        assert p.support == (0, 4, 6)
        assert p.to_string() == "1000101"
        assert GF2Poly(0).to_string() == "0"
        assert GF2Poly.from_string("0").is_zero
        with pytest.raises(ValueError):
            GF2Poly.from_string("")

    def test_canonical_form_drops_trailing_zeros(self):
        assert GF2Poly.from_coefficients([1, 1, 0, 0]) == GF2Poly.from_string("11")

    def test_bitvector_row_compatibility(self):
        v = BitVector.from_string("1000101")
        assert GF2Poly(v.bits).to_string() == v.to01()

    def test_x_power_plus_one(self):
        assert x_power_plus_one(7).support == (0, 7)
        with pytest.raises(ValueError):
            x_power_plus_one(0)


class TestAdd:
    def test_self_cancels(self):
        p = GF2Poly.from_string("1101")
        assert poly_add(p, p).is_zero

    def test_example(self):
        assert poly_add(GF2Poly.from_string("11"), GF2Poly.from_string("011")) == (
            GF2Poly.from_string("101")
        )

    @given(polys, polys)
    def test_support_is_symmetric_difference(self, a, b):
        expected = set(a.support) ^ set(b.support)
        assert set(poly_add(a, b).support) == expected


class TestMul:
    def test_frobenius_square(self):
        one_plus_x = GF2Poly.from_string("11")
        assert poly_mul(one_plus_x, one_plus_x) == GF2Poly.from_string("101")

    def test_multiplicative_identity(self):
        p = GF2Poly.from_string("1011")
        assert poly_mul(p, GF2Poly(1)) == p

    @given(polys, polys)
    def test_against_schoolbook_convolution(self, a, b):
        assert poly_mul(a, b) == convolve_mod2(a, b)

    @given(polys.filter(lambda p: not p.is_zero), polys.filter(lambda p: not p.is_zero))
    def test_degree_adds(self, a, b):
        assert poly_mul(a, b).degree == a.degree + b.degree


class TestDivision:
    def test_square_factor(self):
        assert poly_rem(GF2Poly.from_string("101"), GF2Poly.from_string("11")).is_zero

    def test_modulo_one(self):
        assert poly_rem(GF2Poly.from_string("10101"), GF2Poly(1)).is_zero

    def test_known_cyclotomic_factor(self):
        # 1 + x^2 + x^3 divides x^7 + 1; confirm by multiplying back
        a = x_power_plus_one(7)
        b = GF2Poly.from_string("1011")
        q, r = poly_divmod(a, b)
        assert r.is_zero
        assert poly_mul(q, b) == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_rem(GF2Poly(1), GF2Poly(0))

    @given(polys, polys.filter(lambda p: not p.is_zero))
    def test_divmod_identity(self, a, b):
        q, r = poly_divmod(a, b)
        assert poly_add(poly_mul(q, b), r) == a
        assert r.degree < b.degree


class TestGcd:
    def test_gcd_with_zero(self):
        p = GF2Poly.from_string("1011")
        assert poly_gcd(p, GF2Poly(0)) == p
        assert poly_gcd(GF2Poly(0), p) == p

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(GF2Poly(0), GF2Poly(0))

    def test_shared_root_at_one(self):
        g = poly_gcd(GF2Poly.from_string("11"), x_power_plus_one(7))
        assert g == GF2Poly.from_string("11")
        assert poly_rem(x_power_plus_one(7), g).is_zero

    def test_fano_row_gcd_degree(self):
        g = poly_gcd(GF2Poly.from_string("1000101"), x_power_plus_one(7))
        assert g.degree == 3

    @given(polys, polys)
    def test_divides_both_inputs(self, a, b):
        if a.is_zero and b.is_zero:
            return
        g = poly_gcd(a, b)
        assert poly_rem(a, g).is_zero
        assert poly_rem(b, g).is_zero

    @given(polys.filter(lambda p: not p.is_zero), polys, polys)
    def test_common_factor_divides_gcd(self, f, a, b):
        ga, gb = poly_mul(f, a), poly_mul(f, b)
        if ga.is_zero and gb.is_zero:
            return
        assert poly_rem(poly_gcd(ga, gb), f).is_zero


class TestCyclicDimension:
    def test_unit_polynomial_gives_full_dimension(self):
        for n in (1, 5, 12):
            assert cyclic_code_dimension(GF2Poly(1), n) == n

    def test_fano_row(self):
        assert cyclic_code_dimension(GF2Poly.from_string("1000101"), 7) == 4

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cyclic_code_dimension(GF2Poly(0), 5)
        with pytest.raises(ValueError):
            cyclic_code_dimension(GF2Poly.from_string("100001"), 5)
        with pytest.raises(ValueError):
            cyclic_code_dimension(GF2Poly(1), 0)

    @given(st.integers(1, 24), st.data())
    def test_matches_circulant_rank(self, n, data):
        bits = data.draw(st.integers(1, (1 << n) - 1))
        first_row = BitVector(n, bits)
        matrix = BitMatrix(n, n, tuple(first_row.rotated(i).bits for i in range(n)))
        assert cyclic_code_dimension(GF2Poly(bits), n) == rank(matrix)


class TestBlockCirculantBound:
    @pytest.mark.parametrize("k,m,expected", [(3, 2, 6), (5, 1, 5), (1, 3, 2), (1, 1, 1)])
    def test_values(self, k, m, expected):
        assert block_circulant_bound(k, m) == expected

    def test_preconditions(self):
        with pytest.raises(ValueError):
            block_circulant_bound(0, 1)
        with pytest.raises(ValueError):
            block_circulant_bound(1, 0)

    def test_small_instances_meet_the_bound(self):
        from hypercode import eonv_distance_search

        for k in range(1, 4):
            for m in range(1, 4):
                hg = circulant_hypergraph(block_row(k, m))
                d = eonv_distance_search(hg).value
                assert d >= block_circulant_bound(k, m)
                if m == 1:
                    assert d == k


class TestParityDichotomyOnBlockCirculants:
    def test_complement_edge_pairing(self):
        # In the block family the edge m steps ahead is the set complement;
        # a subset of even size meets both or neither oddly, a subset of odd
        # size meets exactly one oddly.
        for k in range(1, 5):
            for m in range(1, 5):
                n = 2 * k * m
                if n > 16:
                    continue
                hg = circulant_hypergraph(block_row(k, m))
                rows = hg.vertex_rows
                full = (1 << n) - 1

                def rotate(mask: int) -> int:
                    return ((mask << m) | (mask >> (n - m))) & full

                acc = 0
                for i in range(1, 1 << n):
                    acc ^= rows[(i & -i).bit_length() - 1]
                    subset = i ^ (i >> 1)
                    if subset.bit_count() % 2 == 0:
                        assert acc == rotate(acc)
                    else:
                        assert acc ^ rotate(acc) == full
