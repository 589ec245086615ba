"""GF(2) polynomials, their gcd and the cyclic-code dimension formula.

A polynomial is a non-negative integer whose bit ``j`` is the coefficient
of ``x**j``; the zero polynomial is the integer 0.  This is the packing of
matrix rows in :mod:`hypercode.gf2core`, so a circulant's first row *is*
its generating polynomial: ``parse_row("1000101")`` is 1 + x^4 + x^6, and
:func:`hypercode.hypergraph.circulant_hypergraph` takes the same row.  The
degree of a nonzero ``p`` is ``p.bit_length() - 1``.

Exponents are 0-based, matching 0-based matrix columns.
"""

from __future__ import annotations


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor by the Euclidean algorithm.

    Over GF(2) every nonzero polynomial is monic, so the result is the
    unique monic GCD.
    """
    if a < 0 or b < 0:
        # A negative int has no finite bit pattern; the loop would not end.
        raise ValueError("coefficient bits must be non-negative")
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        width = b.bit_length()
        while a.bit_length() >= width:
            a ^= b << (a.bit_length() - width)
        a, b = b, a
    return a


def cyclic_code_dimension(p: int, n: int) -> int:
    """Dimension of the length-n binary cyclic code generated by p.

    Equals n minus the degree of gcd(p, x^n + 1), and must agree with the
    GF(2) rank of the n-by-n circulant matrix whose first row holds the
    coefficients of p.
    """
    if n < 1:
        raise ValueError("code length must be positive")
    if p < 0:
        raise ValueError("coefficient bits must be non-negative")
    if p == 0:
        raise ValueError("generating polynomial must be nonzero")
    if p.bit_length() > n:
        raise ValueError(f"deg(p) = {p.bit_length() - 1} must be below the code length {n}")
    return n - (poly_gcd(p, (1 << n) | 1).bit_length() - 1)


def block_circulant_bound(k: int, m: int) -> int:
    """Lower bound on the distance of the cyclic code seeded by ``block_row(k, m)``.

    k when m = 1 (and that case is sharp), 2k when m >= 2.
    """
    if k < 1 or m < 1:
        raise ValueError("block counts must be positive")
    return k if m == 1 else 2 * k
