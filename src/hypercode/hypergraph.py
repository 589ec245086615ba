"""Hypergraphs, incidence matrices and families.

A hypergraph is a vertex count plus an ordered multiset of edges; repeated
edges are kept (deduplicating would silently change the code length) and
each edge is a nonempty set of vertices stored as a sorted tuple.  Vertices
are 0-based everywhere in the library; 1-based labels appear only in
human-facing CLI output.  The hypergraph text format is in
:mod:`hypercode.textformat`.

For a vertex subset S, ``eonv(H, S)`` is the set of edges containing an odd
number of vertices of S; :func:`eonv` computes it from the definition, as
the reference the faster routes are checked against.  Minimizing its
nonzero size over all subsets is one of the two minimum-distance engines,
:func:`hypercode.codes.eonv_distance_search`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .gf2core import BitMatrix, parse_row, set_bits
from .limits import check_size

Edge = tuple[int, ...]

_ROW_CHUNK = 4096


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count plus an ordered multiset of nonempty edges."""

    num_vertices: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise ValueError("a hypergraph needs at least one vertex")
        normalized = []
        for edge in self.edges:
            t = tuple(sorted(edge))
            if not t:
                raise ValueError("edges must be nonempty")
            if len(set(t)) != len(t):
                raise ValueError(f"edge {t} repeats a vertex")
            if t[0] < 0 or t[-1] >= self.num_vertices:
                raise ValueError(f"edge {t} is out of range for {self.num_vertices} vertices")
            normalized.append(t)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def uniformity(self) -> int | None:
        """Common edge cardinality, or None if edges have mixed sizes."""
        sizes = {len(e) for e in self.edges}
        return sizes.pop() if len(sizes) == 1 else None

    def degree(self, vertex: int) -> int:
        if not 0 <= vertex < self.num_vertices:
            raise IndexError(f"vertex {vertex} out of range")
        return self.vertex_rows[vertex].bit_count()

    @cached_property
    def vertex_rows(self) -> tuple[int, ...]:
        """Incidence matrix rows as packed ints (bit j = membership in edge j).

        Setting bit j copies a row as wide as j bits, so the bits are set in
        chunks of _ROW_CHUNK edges and each chunk is shifted into the rows
        once: a row is copied once per chunk, not once per incidence.
        """
        rows = [0] * self.num_vertices
        for base in range(0, self.num_edges, _ROW_CHUNK):
            part = [0] * self.num_vertices if base else rows
            for j, edge in enumerate(self.edges[base : base + _ROW_CHUNK]):
                bit = 1 << j
                for v in edge:
                    part[v] |= bit
            if base:
                rows = [r | bits << base for r, bits in zip(rows, part)]
        return tuple(rows)

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        """Edges as packed vertex sets (bit v = vertex v belongs to the edge)."""
        return tuple(sum(1 << v for v in e) for e in self.edges)


def incidence_matrix(hypergraph: Hypergraph) -> BitMatrix:
    """The n-by-m vertex-edge incidence matrix; column order follows the edge order."""
    return BitMatrix(hypergraph.num_vertices, hypergraph.num_edges, hypergraph.vertex_rows)


def from_incidence_matrix(matrix: BitMatrix) -> Hypergraph:
    """The hypergraph of the nonzero columns of ``matrix``, in column order.

    Row i is vertex i and each nonzero column an edge.  A zero column would
    be an empty edge; leaving it out changes no weight of the code the
    matrix generates, and ``from_incidence_matrix(incidence_matrix(hg)) == hg``.
    """
    columns = matrix.transpose().rows
    return Hypergraph(matrix.num_rows, tuple(set_bits(c) for c in columns if c))


def _subset_mask(hypergraph: Hypergraph, subset: Iterable[int]) -> int:
    """Validate a nonempty vertex subset and pack it into a bit mask."""
    vertices = set(subset)
    if not vertices:
        raise ValueError("the vertex subset must be nonempty")
    mask = 0
    for v in vertices:
        if not 0 <= v < hypergraph.num_vertices:
            raise IndexError(f"vertex {v} out of range")
        mask |= 1 << v
    return mask


def eonv(hypergraph: Hypergraph, subset: Iterable[int]) -> list[int]:
    """Indices of the edges containing an odd number of vertices of ``subset``.

    Computed edge by edge from the definition; the row-XOR shortcut is a
    separate code path so the two can cross-check each other.
    """
    mask = _subset_mask(hypergraph, subset)
    return [
        j
        for j, edge_mask in enumerate(hypergraph.edge_masks)
        if (edge_mask & mask).bit_count() & 1
    ]


# ---------------------------------------------------------------------------
# Families


def complete_3partite(n: int) -> Hypergraph:
    """Complete 3-partite 3-uniform hypergraph with parts of size n.

    Vertices: X = 0..n-1, Y = n..2n-1, Z = 2n..3n-1.  Edges are all n^3
    triples {i, n+j, 2n+k} in lexicographic (i, j, k) order.
    """
    if n < 1:
        raise ValueError("part size must be positive")
    edges = tuple(
        (i, n + j, 2 * n + k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )
    return Hypergraph(3 * n, edges)


def f_count(n: int, k1: int, k2: int, k3: int) -> int:
    """Edges of ``complete_3partite(n)`` meeting a subset oddly, by part counts.

    For any subset S with |S ∩ X| = k1, |S ∩ Y| = k2, |S ∩ Z| = k3, the
    number of edges meeting S in exactly one or exactly three vertices is
    k1(n-k2)(n-k3) + (n-k1)k2(n-k3) + (n-k1)(n-k2)k3 + k1·k2·k3.
    """
    if n < 1:
        raise ValueError("part size must be positive")
    if not (0 <= k1 <= n and 0 <= k2 <= n and 0 <= k3 <= n):
        raise ValueError(f"part counts must lie in [0, {n}]")
    return (
        k1 * (n - k2) * (n - k3)
        + (n - k1) * k2 * (n - k3)
        + (n - k1) * (n - k2) * k3
        + k1 * k2 * k3
    )


def projective_geometry(n: int) -> Hypergraph:
    """Points and lines of the binary projective geometry PG(n-1, 2).

    Vertices are the nonzero vectors of F_2^n identified with the integers
    1..2^n - 1 (vertex index = integer value - 1).  Lines are the triples
    {a, b, a xor b}; each appears once, listed with a < b < a xor b in
    lexicographic order.  There are (2^n - 1)(2^(n-1) - 1)/3 of them.
    """
    if n < 3:
        raise ValueError("the geometry needs dimension at least 3")
    top = 1 << n
    edges = []
    for a in range(1, top):
        for b in range(a + 1, top):
            c = a ^ b
            if c > b:
                edges.append((a - 1, b - 1, c - 1))
    return Hypergraph(top - 1, tuple(edges))


def fano_circulant() -> Hypergraph:
    """The Fano plane with the vertex labeling that makes its incidence circulant.

    It is the circulant hypergraph of the first row 1000101, the polynomial
    1 + x^4 + x^6: line j is {j, j+1, j+3} mod 7, and every row of the
    incidence matrix is the previous one cyclically shifted.
    """
    return circulant_hypergraph("1000101")


def circulant_hypergraph(first_row: str) -> Hypergraph:
    """Hypergraph whose incidence matrix is circulant with the given first row.

    Row i holds entry ``first_row[(j - i) mod n]`` in column j.  The result
    is vertex- and edge-regular with common degree equal to the row weight.
    """
    n = len(first_row)
    support = set_bits(parse_row(first_row))
    if n < 1:
        raise ValueError("the first row must be nonempty")
    if not support:
        raise ValueError("a zero first row would make every edge empty")
    edges = tuple(tuple(sorted((j - s) % n for s in support)) for j in range(n))
    return Hypergraph(n, edges)


def block_row(k: int, m: int) -> str:
    """First row for the block-circulant family: k blocks of m ones then m zeros."""
    if k < 1 or m < 1:
        raise ValueError("block counts must be positive")
    return ("1" * m + "0" * m) * k


# ---------------------------------------------------------------------------
# Local structure


def is_connected(hypergraph: Hypergraph) -> bool:
    """Whether the bipartite vertex-edge incidence structure is connected."""
    n = hypergraph.num_vertices
    if n == 1:
        return True
    rows = hypergraph.vertex_rows
    seen_vertices = 1
    seen_edges = 0
    frontier = [0]
    count = 1
    while frontier:
        v = frontier.pop()
        new_edges = rows[v] & ~seen_edges
        seen_edges |= new_edges
        while new_edges:
            low = new_edges & -new_edges
            new_edges ^= low
            for u in hypergraph.edges[low.bit_length() - 1]:
                bit = 1 << u
                if not seen_vertices & bit:
                    seen_vertices |= bit
                    count += 1
                    frontier.append(u)
    return count == n


# ---------------------------------------------------------------------------
# Random instances (seeded; used by the scan command and the test corpora)


def random_hypergraph(
    rng: random.Random,
    num_vertices: int,
    num_edges: int,
    max_edge_size: int | None = None,
) -> Hypergraph:
    """Random hypergraph with the given order and size (edges may repeat)."""
    if num_vertices < 1 or num_edges < 0:
        raise ValueError("need at least one vertex and a non-negative edge count")
    top = num_vertices if max_edge_size is None else min(max_edge_size, num_vertices)
    if top < 1:
        raise ValueError("max_edge_size must allow nonempty edges")
    edges = tuple(
        tuple(sorted(rng.sample(range(num_vertices), rng.randint(1, top))))
        for _ in range(num_edges)
    )
    return Hypergraph(num_vertices, edges)


def random_uniform_hypergraph(
    rng: random.Random, num_vertices: int, num_edges: int, edge_size: int
) -> Hypergraph:
    """Random r-uniform hypergraph (edges may repeat)."""
    if not 1 <= edge_size <= num_vertices:
        raise ValueError("edge size must be between 1 and the vertex count")
    edges = tuple(
        tuple(sorted(rng.sample(range(num_vertices), edge_size)))
        for _ in range(num_edges)
    )
    return Hypergraph(num_vertices, edges)


def connected_uniform_samples(
    seed: int, *, n_max: int, budget: int, uniform: int = 2
) -> Iterator[Hypergraph]:
    """The connected hypergraphs among ``budget`` seeded random draws.

    Each draw picks a vertex count n in [max(2, uniform), n_max] and an edge
    count in [1, 2n], then builds a ``uniform``-uniform hypergraph with
    :func:`random_uniform_hypergraph`.  The parameters are checked at the
    call, before the first draw; the largest sample they allow, n_max
    vertices and 2 n_max edges of ``uniform`` vertices, must pass
    :func:`hypercode.limits.check_size`.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    if not 1 <= uniform <= n_max:
        raise ValueError(f"uniform must lie between 1 and n_max, got {uniform}")
    check_size(n_max, 2 * n_max, uniform * 2 * n_max)
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    rng = random.Random(seed)
    low = max(2, uniform)
    draws = (
        random_uniform_hypergraph(rng, n, rng.randint(1, 2 * n), uniform)
        for n in (rng.randint(low, n_max) for _ in range(budget))
    )
    return filter(is_connected, draws)
