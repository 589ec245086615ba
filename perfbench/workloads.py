"""Seeded inputs for the three benchmark workloads.

Every input is produced here as the text a user would hand to
``hypercode analyze``, together with what the oracle needs to check the
answer: the generator rows as packed ints, the code length, and the values
known without running the library (rank by this module's own elimination,
closed forms for the named families).  Nothing here imports ``hypercode``,
so the inputs and the expectations do not change when the library does.

Named families are fixed.  Random inputs come from ``random.Random`` seeded
with the workload name and the seed.  Their shapes (vertex count, edge
count, matrix size) are fixed too, so that every seed asks for the same
amount of work and only the contents vary.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

WORKLOADS = ("exhaustive", "many-small", "selfdual")


@dataclass(frozen=True)
class Item:
    """One input: its text, what to run on it, and what the answer must be."""

    label: str
    fmt: str  # "hypergraph" or "matrix", the text format of ``text``
    text: str
    task: str  # "analyze", "selfdual" (small input) or "selfdual-large"
    method: str  # distance method for "analyze" items, "" otherwise
    rows: tuple[int, ...]  # generator rows; for a hypergraph, its vertex rows
    length: int
    uniformity: int  # common edge size, 0 for mixed edge sizes or a matrix
    expect: dict


# ---------------------------------------------------------------------------
# GF(2) helpers of the benchmark's own, independent of the library


def gf2_rank(rows) -> int:
    """Rank of packed rows: each new basis row is reduced by all earlier ones."""
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
    return len(basis)


def rows_self_orthogonal(rows) -> bool:
    """Whether every row has even weight and every two rows overlap evenly."""
    for i, a in enumerate(rows):
        for b in rows[i:]:
            if (a & b).bit_count() & 1:
                return False
    return True


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor of two GF(2) polynomials packed as ints."""
    while b:
        while a and a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


# ---------------------------------------------------------------------------
# Text forms


def vertex_rows(num_vertices: int, edges) -> tuple[int, ...]:
    rows = [0] * num_vertices
    for j, edge in enumerate(edges):
        for v in edge:
            rows[v] |= 1 << j
    return tuple(rows)


def hypergraph_item(label, num_vertices, edges, task, method="", expect=None) -> Item:
    edges = [tuple(sorted(e)) for e in edges]
    lines = [f"{num_vertices} {len(edges)}"]
    lines.extend(" ".join(map(str, e)) for e in edges)
    rows = vertex_rows(num_vertices, edges)
    sizes = {len(e) for e in edges}
    k = gf2_rank(rows)
    so = rows_self_orthogonal(rows)
    known = {"dimension": k, "self_orthogonal": so, "self_dual": so and 2 * k == len(edges)}
    for key, value in (expect or {}).items():
        # A closed form must agree with this module's own computation.
        if known.setdefault(key, value) != value:
            raise AssertionError(f"{label}: closed form {key}={value} but computed {known[key]}")
    return Item(
        label=label,
        fmt="hypergraph",
        text="\n".join(lines) + "\n",
        task=task,
        method=method,
        rows=rows,
        length=len(edges),
        uniformity=sizes.pop() if len(sizes) == 1 else 0,
        expect=known,
    )


def matrix_item(label, rows, num_cols, method) -> Item:
    lines = [f"{len(rows)} {num_cols}"]
    lines.extend("".join("1" if (r >> j) & 1 else "0" for j in range(num_cols)) for r in rows)
    so = rows_self_orthogonal(rows)
    k = gf2_rank(rows)
    return Item(
        label=label,
        fmt="matrix",
        text="\n".join(lines) + "\n",
        task="analyze",
        method=method,
        rows=tuple(rows),
        length=num_cols,
        uniformity=0,
        expect={"dimension": k, "self_orthogonal": so, "self_dual": so and 2 * k == num_cols},
    )


# ---------------------------------------------------------------------------
# Named families (same vertex and edge order as the library's constructors)


def k3partite_edges(n: int):
    return [(i, n + j, 2 * n + k) for i in range(n) for j in range(n) for k in range(n)]


def pg_edges(n: int):
    top = 1 << n
    return [
        (a - 1, b - 1, (a ^ b) - 1)
        for a in range(1, top)
        for b in range(a + 1, top)
        if a ^ b > b
    ]


def circulant_edges(length: int, support):
    return [[(j - s) % length for s in support] for j in range(length)]


def block_support(k: int, m: int):
    return [2 * j * m + t for j in range(k) for t in range(m)]


def k3partite(n: int, task: str, method: str = "") -> Item:
    # [n^3, 3n - 2, n^2]; even degrees and even pair overlaps exactly when n is even.
    expect = {"dimension": 3 * n - 2, "self_orthogonal": n % 2 == 0}
    if task == "analyze":
        expect["min_distance"] = n * n
    return hypergraph_item(f"k3partite({n})", 3 * n, k3partite_edges(n), task, method, expect)


def projective_geometry(n: int, task: str, method: str = "") -> Item:
    # Points and lines of PG(n-1, 2); the incidence code has dimension
    # 2^n - 1 - n (the dual of the Hamming code is its kernel).
    expect = {"dimension": (1 << n) - 1 - n, "self_orthogonal": False}
    if task == "analyze" and n == 3:
        expect["min_distance"] = 3
    return hypergraph_item(f"pg({n})", (1 << n) - 1, pg_edges(n), task, method, expect)


FANO_WEIGHTS = {0: 1, 3: 7, 4: 7, 7: 1}


def fano(method: str) -> Item:
    edges = [[j, (j + 1) % 7, (j + 3) % 7] for j in range(7)]
    expect = {"dimension": 4, "min_distance": 3, "weights": FANO_WEIGHTS}
    return hypergraph_item("fano", 7, edges, "analyze", method, expect)


def circulant(label: str, length: int, support, task: str, method: str = "", expect=None) -> Item:
    poly = sum(1 << s for s in support)
    gcd = poly_gcd(poly, (1 << length) | 1)
    known = {"dimension": length - (gcd.bit_length() - 1)}
    known.update(expect or {})
    return hypergraph_item(label, length, circulant_edges(length, support), task, method, known)


def block_circulant(k: int, m: int, method: str) -> Item:
    # Distance bound of the block-circulant family: k when m = 1 (sharp),
    # 2k when m >= 2.
    expect = {"min_distance": k} if m == 1 else {"d_lower": 2 * k}
    return circulant(f"block_circulant({k},{m})", 2 * k * m, block_support(k, m), "analyze", method, expect)


# ---------------------------------------------------------------------------
# Random inputs


def random_edges(rng: random.Random, n: int, m: int, size: int | None = None):
    return [rng.sample(range(n), size or rng.randint(1, n)) for _ in range(m)]


def full_rank_hypergraph(rng: random.Random, n: int, m: int, method: str) -> Item:
    # Resampled until the rank is n, so every seed scans 2^n messages.
    while True:
        edges = random_edges(rng, n, m)
        if gf2_rank(vertex_rows(n, edges)) == n:
            return hypergraph_item(f"random_hypergraph(n={n},m={m})", n, edges, "analyze", method)


def full_rank_matrix(rng: random.Random, k: int, length: int, method: str) -> Item:
    while True:
        rows = [rng.getrandbits(length) for _ in range(k)]
        if gf2_rank(rows) == k:
            return matrix_item(f"random_matrix(k={k},n={length})", rows, length, method)


def connected_multigraph(rng: random.Random, n: int, variant: int) -> Item:
    """A random spanning tree plus extra edges, relabeled at random.

    variant 0 doubles every tree edge, which gives a self-dual code; variant
    1 adds n - 1 random edges, so m = 2n - 2 as the graph criterion needs;
    variant 2 adds up to n random edges.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    tree = [(perm[v], perm[rng.randrange(v)]) for v in range(1, n)]
    if variant == 0:
        edges = tree + tree
    else:
        extra = n - 1 if variant == 1 else rng.randint(0, n)
        edges = tree + [rng.sample(range(n), 2) for _ in range(extra)]
    rng.shuffle(edges)
    expect = {"self_dual": True} if variant == 0 else None
    return hypergraph_item(f"multigraph(n={n},v={variant})", n, edges, "selfdual", expect=expect)


def uniform_hypergraph(rng: random.Random, n: int, r: int, doubled: bool) -> Item:
    """Random r-uniform hypergraph; a doubled one repeats each edge once more,
    which makes its code self-orthogonal."""
    if doubled:
        half = random_edges(rng, n, rng.randint(1, n), r)
        edges = half + half
        rng.shuffle(edges)
    else:
        edges = random_edges(rng, n, rng.randint(1, 2 * n), r)
    expect = {"self_orthogonal": True} if doubled else None
    return hypergraph_item(f"uniform(n={n},r={r},d={int(doubled)})", n, edges, "selfdual", expect=expect)


# ---------------------------------------------------------------------------
# Workloads


def exhaustive(rng: random.Random) -> list[Item]:
    """Large exact searches, weights included.

    Subset-bound block circulants (2^n far above 2^k; block_circulant(9,1)
    has many subsets tied at the minimum weight), full-rank random
    hypergraphs, and codeword-bound inputs: the complete 3-partite code
    [343,19,49] and random full-rank matrices of narrow and wide words.
    Each input takes well under a second, so that the reference loop timed
    between inputs follows the machine's speed; the 3-second [512,22,64]
    search of complete_3partite(8) is left out for that reason.
    """
    return [
        block_circulant(9, 1, "both"),
        block_circulant(3, 3, "both"),
        block_circulant(2, 5, "both"),
        full_rank_hypergraph(rng, 18, 30, "both"),
        full_rank_hypergraph(rng, 19, 30, "both"),
        k3partite(7, "analyze", "codeword"),
        full_rank_matrix(rng, 18, 512, "codeword"),
        full_rank_matrix(rng, 19, 512, "codeword"),
        full_rank_matrix(rng, 19, 64, "codeword"),
    ]


# Tiny random hypergraphs per vertex count; most are small so that per-call
# costs weigh heavily, and the n = 11-12 ones make the latency tail.
MANY_SMALL_COUNTS = {3: 300, 4: 300, 5: 300, 6: 300, 7: 300, 8: 300, 9: 100, 10: 100, 11: 60, 12: 60}
MANY_SMALL_MAX_EDGES = 18


def many_small(rng: random.Random) -> list[Item]:
    items = [fano("both")]
    items += [k3partite(n, "analyze", "both") for n in range(1, 6)]
    items += [projective_geometry(3, "analyze", "both"), projective_geometry(4, "analyze", "both")]
    for n, count in MANY_SMALL_COUNTS.items():
        for i in range(count):
            m = 1 + i % MANY_SMALL_MAX_EDGES
            items.append(hypergraph_item(f"tiny(n={n},m={m})", n, random_edges(rng, n, m), "analyze", "both"))
    rng.shuffle(items)
    return items


SELFDUAL_GRAPHS_PER_N = 150  # n = 3..8
SELFDUAL_UNIFORM_PER_N = 80  # r = 3: n = 4..10; r = 4: n = 5..10


def selfdual(rng: random.Random) -> list[Item]:
    small = [connected_multigraph(rng, n, i % 3) for n in range(3, 9) for i in range(SELFDUAL_GRAPHS_PER_N)]
    for r in (3, 4):
        for n in range(r + 1, 11):
            small += [uniform_hypergraph(rng, n, r, i % 2 == 0) for i in range(SELFDUAL_UNIFORM_PER_N)]
    rng.shuffle(small)
    large = [projective_geometry(6, "selfdual-large"), projective_geometry(7, "selfdual-large")]
    large += [k3partite(n, "selfdual-large") for n in range(12, 17)]
    large += [
        circulant("block_circulant(8,16)", 256, block_support(8, 16), "selfdual-large"),
        circulant("block_circulant(2,64)", 256, block_support(2, 64), "selfdual-large"),
        circulant("circulant(252,{0,1,3})", 252, (0, 1, 3), "selfdual-large"),
    ]
    return small + large


GENERATORS = {"exhaustive": exhaustive, "many-small": many_small, "selfdual": selfdual}


def generate(workload: str, seed: int) -> list[Item]:
    """The workload's inputs for ``seed``; the same seed gives the same inputs."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def fingerprint(items) -> str:
    """Hash of everything the library is given and asked to do."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(f"{item.label}|{item.fmt}|{item.task}|{item.method}\n".encode())
        digest.update(item.text.encode())
    return digest.hexdigest()[:16]


def work_counts(items) -> dict:
    """Work a pass asks for: items, sum of 2^k and 2^n over the searched
    items, matrix cells, bytes parsed."""
    searched = [item for item in items if item.task == "analyze"]
    return {
        "items": len(items),
        "sum_2k": sum(1 << item.expect["dimension"] for item in searched),
        "sum_2n": sum(1 << len(item.rows) for item in searched),
        "cells": sum(len(item.rows) * item.length for item in items),
        "parse_bytes": sum(len(item.text) for item in items),
    }
