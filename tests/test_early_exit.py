"""Every early exit against one rule, on every route of both engines.

A search with threshold T stops after the first block, in its scan order,
whose least nonzero weight is <= T, and reports that weight flagged
inexact; a route that scans one block or none is read whole.  So whatever
the route, the result is exact exactly when d > T, an exact value is d,
and an inexact value v has d <= v <= T; the subset engine's witness meets
exactly v edges oddly.  Each input is checked at every T from 0 to n + 1,
and spies check that it reaches the route it names: for the codeword
engine the per-word walk, one count-kernel block, the kernel's blocks with
``_BLOCK_BITS`` lowered to 1, 2 and 3, the dual side and the twin walk;
for the subset engine the walk, one block and the quotient.  Known-answer
tests hold both engines' early exits at T = d - 1 and T = d on three
cyclic codes whose weight distributions are published (MacWilliams &
Sloane, *The Theory of Error-Correcting Codes*), built as circulant
hypergraphs.
"""

from __future__ import annotations

import random

import pytest

import hypercode.codes as codes
from hypercode import (
    circulant_hypergraph,
    codeword_distance_search,
    complete_3partite,
    eonv,
    eonv_distance_search,
    fano_circulant,
    from_generator,
    incidence_matrix,
    random_hypergraph,
    weight_distribution,
)

# The function each route calls, and the route it stands for.
ROUTE_OF = {
    "_count_walk": "walk",
    "_count_blocks": "one block",
    "_weight_planes": "blocks",
    "_macwilliams": "dual",
    "_twin_walk": "twins",
    "_subset_walk": "walk",
    "_subset_blocks": "one block",
    "_subset_quotient": "quotient",
}


@pytest.fixture
def routes(monkeypatch):
    """The names of the spied functions called, in order."""
    calls = []

    def spy(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    for name in ROUTE_OF:
        monkeypatch.setattr(codes, name, spy(name, getattr(codes, name)))
    return calls


def route(calls, engine):
    """The route that ``calls`` show: the count kernel's blocks read for an
    early exit call ``_weight_planes`` without ``_count_blocks``."""
    names = {
        "codeword": ("_count_walk", "_count_blocks", "_macwilliams", "_twin_walk", "_weight_planes"),
        "subset": ("_subset_walk", "_subset_blocks", "_subset_quotient"),
    }[engine]
    found = {ROUTE_OF[name] for name in names if name in calls}
    if {"one block", "blocks"} <= found:
        found.discard("blocks")
    if "dual" in found:  # the dual's own words are counted on the way
        found = {"dual"}
    assert len(found) == 1, calls
    return found.pop()


def brute_distance(rows):
    # The least nonzero weight of the span of ``rows``, by a Gray walk.
    best, acc = None, 0
    for i in range(1, 1 << len(rows)):
        acc ^= rows[(i & -i).bit_length() - 1]
        if acc and (best is None or acc.bit_count() < best):
            best = acc.bit_count()
    return best


def assert_the_rule(result, d, threshold, hg=None) -> bool:
    """Checks the rule; whether the value is an upper bound above d."""
    assert result.exact == (d > threshold), threshold
    if result.exact:
        assert result.value == d, threshold
    else:
        assert d <= result.value <= threshold, threshold
    if hg is not None:
        assert len(eonv(hg, result.witness)) == result.value, threshold
    return result.value > d


def row(exponents, n):
    """The first row of a circulant: the coefficients of a polynomial."""
    return "".join("1" if i in exponents else "0" for i in range(n))


def random_10x24():
    # [24,10]: 2^10 words and subsets, over 8 per coordinate and per edge.
    return random_hypergraph(random.Random(7), 10, 24)


# name: (hypergraph, both kernels' block bits, codeword route, subset route)
CASES = {
    "fano": (fano_circulant, None, "walk", "one block"),
    "k3partite-2": (lambda: complete_3partite(2), None, "walk", "walk"),
    "random-10x24": (random_10x24, None, "one block", "one block"),
    **{f"random-10x24-bits-{bits}": (random_10x24, bits, "blocks", "quotient") for bits in (1, 2, 3)},
    "hamming-15": (lambda: circulant_hypergraph(row((0, 1, 4), 15)), None, "dual", "one block"),
    "k3partite-6": (lambda: complete_3partite(6), None, "twins", "quotient"),
}


@pytest.mark.parametrize("name", CASES)
def test_every_threshold_on_every_route(monkeypatch, routes, name):
    build, bits, codeword_route, subset_route = CASES[name]
    hg = build()
    n = hg.num_edges
    d = brute_distance(hg.vertex_rows)
    if bits is not None:
        # Over several blocks some stops give a value above d.
        monkeypatch.setattr(codes, "_BLOCK_BITS", bits)
        monkeypatch.setattr(codes, "_SUBSET_BLOCK_BITS", bits)
    code = from_generator(incidence_matrix(hg))
    above = [assert_the_rule(codeword_distance_search(code, early_exit=t), d, t) for t in range(n + 2)]
    assert route(routes, "codeword") == codeword_route
    assert any(above) == (bits is not None)
    routes.clear()
    above = [assert_the_rule(eonv_distance_search(hg, early_exit=t), d, t, hg) for t in range(n + 2)]
    assert route(routes, "subset") == subset_route
    assert any(above) == (bits is not None)


# name: (first row's exponents, length, [k, d], published counts, codeword route)
KNOWN = {
    "golay-23": ((0, 2, 4, 5, 6, 10, 11), 23, (12, 7), {7: 253, 8: 506, 11: 1288, 12: 1288}, "dual"),
    "bch-15-7": ((0, 4, 6, 7, 8), 15, (7, 5), {5: 18, 6: 30, 7: 15}, "one block"),
    "hamming-15": ((0, 1, 4), 15, (11, 3), {3: 35}, "dual"),
}


@pytest.mark.parametrize("name", KNOWN)
def test_published_weight_distributions(routes, name):
    exponents, n, (k, d), published, codeword_route = KNOWN[name]
    hg = circulant_hypergraph(row(exponents, n))
    code = from_generator(incidence_matrix(hg))
    assert code.dimension == k
    counts = weight_distribution(code)
    assert {w: counts.get(w, 0) for w in published} == published
    assert min(w for w in counts if w) == d
    assert route(routes, "codeword") == codeword_route
    for below, at in (
        (codeword_distance_search(code, early_exit=d - 1), codeword_distance_search(code, early_exit=d)),
        (eonv_distance_search(hg, early_exit=d - 1), eonv_distance_search(hg, early_exit=d)),
    ):
        assert (below.value, below.exact, at.value, at.exact) == (d, True, d, False)
        for result in (below, at):
            if result.witness is not None:
                assert len(eonv(hg, result.witness)) == d
