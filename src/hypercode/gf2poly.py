"""Polynomial arithmetic over GF(2) and the cyclic-code dimension formula.

A polynomial is stored as a nonnegative integer whose bit ``j`` is the
coefficient of ``x**j``; the zero polynomial is the integer 0.  This is the
same packing as matrix rows in :mod:`hypercode.gf2core`, so a circulant
first row and its generating polynomial share one representation, and the
CLI's ascending coefficient string ("1000101" is 1 + x^4 + x^6) is bit-exact
with the matrix row format.

Exponents are 0-based, matching 0-based matrix columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .gf2core import BitVector, set_bits

NEG_INFINITY = float("-inf")
"""Degree of the zero polynomial (a sentinel, never -1-as-an-integer)."""


@dataclass(frozen=True)
class GF2Poly:
    """Polynomial over GF(2) in canonical form (no coefficients above the degree)."""

    bits: int = 0

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise ValueError("coefficient bits must be non-negative")

    @classmethod
    def from_coefficients(cls, coefficients: Iterable[int]) -> "GF2Poly":
        """Build from ascending coefficients; trailing zeros are dropped."""
        return cls(BitVector.from_bits(coefficients).bits)

    @classmethod
    def from_string(cls, text: str) -> "GF2Poly":
        """Parse an ascending coefficient string, e.g. "1000101" = 1 + x^4 + x^6."""
        if not text:
            raise ValueError("empty polynomial string")
        return cls(BitVector.from_string(text).bits)

    @property
    def degree(self) -> int | float:
        """Degree, or NEG_INFINITY for the zero polynomial."""
        return self.bits.bit_length() - 1 if self.bits else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    @property
    def support(self) -> tuple[int, ...]:
        return set_bits(self.bits)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def to_string(self) -> str:
        """Ascending coefficient string; the zero polynomial prints as "0"."""
        if self.bits == 0:
            return "0"
        n = self.bits.bit_length()
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(n))

    def __str__(self) -> str:
        return self.to_string()


def x_power_plus_one(n: int) -> GF2Poly:
    """The polynomial x^n + 1 (the same as x^n - 1 in characteristic two)."""
    if n < 1:
        raise ValueError("exponent must be positive")
    return GF2Poly((1 << n) | 1)


def poly_add(a: GF2Poly, b: GF2Poly) -> GF2Poly:
    """Coefficientwise XOR; the support of the sum is the symmetric difference."""
    return GF2Poly(a.bits ^ b.bits)


def poly_mul(a: GF2Poly, b: GF2Poly) -> GF2Poly:
    """Carry-less product over GF(2)."""
    x, y = a.bits, b.bits
    acc = 0
    while y:
        low = y & -y
        acc ^= x << (low.bit_length() - 1)
        y ^= low
    return GF2Poly(acc)


def poly_divmod(a: GF2Poly, b: GF2Poly) -> tuple[GF2Poly, GF2Poly]:
    """Quotient and remainder with deg(r) < deg(b)."""
    if b.bits == 0:
        raise ZeroDivisionError("polynomial division by zero")
    r = a.bits
    d = b.bits
    width = d.bit_length()
    q = 0
    while r.bit_length() >= width:
        shift = r.bit_length() - width
        r ^= d << shift
        q |= 1 << shift
    return GF2Poly(q), GF2Poly(r)


def poly_rem(a: GF2Poly, b: GF2Poly) -> GF2Poly:
    """Remainder of a modulo b."""
    return poly_divmod(a, b)[1]


def poly_gcd(a: GF2Poly, b: GF2Poly) -> GF2Poly:
    """Greatest common divisor by the Euclidean algorithm.

    Over GF(2) every nonzero polynomial is monic, so the result is the
    unique monic GCD.
    """
    x, y = a.bits, b.bits
    if x == 0 and y == 0:
        raise ValueError("gcd(0, 0) is undefined")
    while y:
        width = y.bit_length()
        while x.bit_length() >= width:
            x ^= y << (x.bit_length() - width)
        x, y = y, x
    return GF2Poly(x)


def cyclic_code_dimension(p: GF2Poly, n: int) -> int:
    """Dimension of the length-n binary cyclic code generated by p.

    Equals n minus the degree of gcd(p, x^n + 1), and must agree with the
    GF(2) rank of the n-by-n circulant matrix whose first row holds the
    coefficients of p.
    """
    if n < 1:
        raise ValueError("code length must be positive")
    if p.bits == 0:
        raise ValueError("generating polynomial must be nonzero")
    if p.bits.bit_length() > n:
        raise ValueError(f"deg(p) = {p.degree} must be below the code length {n}")
    g = poly_gcd(p, x_power_plus_one(n))
    return n - (g.bits.bit_length() - 1)


def block_circulant_bound(k: int, m: int) -> int:
    """Lower bound on the distance of the cyclic code seeded by ``block_row(k, m)``.

    k when m = 1 (and that case is sharp), 2k when m >= 2.
    """
    if k < 1 or m < 1:
        raise ValueError("block counts must be positive")
    return k if m == 1 else 2 * k
