"""GF(2) polynomials, their gcd, the gcd dimension formula, and block bounds."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypercode import (
    BitMatrix,
    block_circulant_bound,
    block_row,
    circulant_hypergraph,
    cyclic_code_dimension,
    parse_row,
    poly_gcd,
    rank,
)

polys = st.integers(0, 2**33 - 1)


def coefficients(p: int) -> list[int]:
    return [(p >> i) & 1 for i in range(p.bit_length())]


def from_coefficients(coeffs: list[int]) -> int:
    return sum(c << i for i, c in enumerate(coeffs))


def convolve_mod2(a: int, b: int) -> int:
    """Product oracle: schoolbook convolution of the coefficient lists."""
    ca, cb = coefficients(a), coefficients(b)
    product = [0] * (len(ca) + len(cb))
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            product[i + j] ^= x & y
    return from_coefficients(product)


def remainder_mod2(a: int, b: int) -> int:
    """Remainder oracle: schoolbook long division of the coefficient lists."""
    r, d = coefficients(a), coefficients(b)
    for top in range(len(r) - 1, len(d) - 2, -1):
        if r[top]:
            for j, c in enumerate(d):
                r[top - len(d) + 1 + j] ^= c
    return from_coefficients(r)


def poly(text: str) -> int:
    return parse_row(text)


class TestGcd:
    def test_product_and_remainder_oracles(self):
        one_plus_x = poly("11")
        assert convolve_mod2(one_plus_x, one_plus_x) == poly("101")
        assert remainder_mod2(poly("1101"), one_plus_x) == 1
        # 1 + x^2 + x^3 divides x^7 + 1
        assert remainder_mod2(poly("10000001"), poly("1011")) == 0
        assert remainder_mod2(one_plus_x, poly("111")) == one_plus_x

    def test_gcd_with_zero(self):
        p = poly("1011")
        assert poly_gcd(p, 0) == p
        assert poly_gcd(0, p) == p

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(0, 0)

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(-3, 5)
        with pytest.raises(ValueError, match="non-negative"):
            cyclic_code_dimension(-3, 5)
        with pytest.raises(ValueError, match="non-negative"):
            cyclic_code_dimension(-100, 5)

    def test_shared_root_at_one(self):
        g = poly_gcd(poly("11"), poly("10000001"))
        assert g == poly("11")
        assert remainder_mod2(poly("10000001"), g) == 0

    def test_fano_row_gcd_degree(self):
        g = poly_gcd(poly("1000101"), poly("10000001"))
        assert g.bit_length() - 1 == 3

    @given(polys, polys)
    def test_divides_both_inputs(self, a, b):
        if a == 0 and b == 0:
            return
        g = poly_gcd(a, b)
        assert remainder_mod2(a, g) == 0
        assert remainder_mod2(b, g) == 0

    @given(polys.filter(lambda p: p != 0), polys, polys)
    def test_common_factor_divides_gcd(self, f, a, b):
        ga, gb = convolve_mod2(f, a), convolve_mod2(f, b)
        if ga == 0 and gb == 0:
            return
        assert remainder_mod2(poly_gcd(ga, gb), f) == 0


class TestCyclicDimension:
    def test_unit_polynomial_gives_full_dimension(self):
        for n in (1, 5, 12):
            assert cyclic_code_dimension(1, n) == n

    def test_fano_row(self):
        assert cyclic_code_dimension(poly("1000101"), 7) == 4

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cyclic_code_dimension(0, 5)
        with pytest.raises(ValueError):
            cyclic_code_dimension(poly("100001"), 5)
        with pytest.raises(ValueError):
            cyclic_code_dimension(1, 0)

    @given(st.integers(1, 24), st.data())
    def test_matches_circulant_rank(self, n, data):
        bits = data.draw(st.integers(1, (1 << n) - 1))
        full = (1 << n) - 1

        def rotate(mask: int, s: int) -> int:
            return ((mask << s) | (mask >> (n - s))) & full

        matrix = BitMatrix(n, n, tuple(rotate(bits, i) for i in range(n)))
        assert cyclic_code_dimension(bits, n) == rank(matrix)


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
