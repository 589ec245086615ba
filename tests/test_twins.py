"""The twin route of the weight counts against the count kernel.

Rows of a generator are twins when exchanging them maps the multiset of
column patterns to itself; a word's weight then depends only on how many
rows it takes from each class, and ``codes._twin_walk`` counts one word per
count vector.  Here the detection and the walk are called directly, the
rule bypassed, and held to ``codes._weight_counts`` on the engine-agreement
corpus, the paper's families and hand-made matrices; the classes are held
to a brute force over every transposition.  The rule in
``LinearCode._weights`` is tested on both sides of its constant, and spies
show which route a code takes and what the pre-test builds.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypercode.codes as codes
import hypercode.verify as verify
from hypercode import (
    BitMatrix,
    EnumerationCapError,
    analyze_hypergraph,
    analyze_matrix,
    block_row,
    circulant_hypergraph,
    complete_3partite,
    fano_circulant,
    from_generator,
    incidence_matrix,
    projective_geometry,
    weight_distribution,
)
from hypercode.codes import _twin_classes, _twin_walk, _weight_counts

# The words of a side that no twin walk of these inputs costs as much as,
# so that the detection's rule refuses none of them.
WORDS = 1 << 64


def assert_same_counts(rows, n):
    """The twin route with the rule bypassed, detection then the walk,
    against the count kernel's route."""
    rows = tuple(rows)
    code = from_generator(BitMatrix(len(rows), n, rows))
    expected = _weight_counts(code.basis.rows, n)
    # The zero code's counts are [1], not a list as long as the code.
    expected += [0] * (n + 1 - len(expected))
    assert _twin_walk(rows, _twin_classes(rows, n, WORDS), n, code.dimension) == expected


def preserves_columns(rows, n, u, v):
    """Whether exchanging rows u and v maps the column multiset to itself."""
    swap = 1 << u | 1 << v
    columns = [sum((row >> j & 1) << i for i, row in enumerate(rows)) for j in range(n)]
    moved = [p ^ swap if (p >> u ^ p >> v) & 1 else p for p in columns]
    return Counter(columns) == Counter(moved)


def brute_classes(rows, n):
    """The twin classes by every transposition, as a set of frozensets."""
    classes: list[list[int]] = []
    for u in range(len(rows)):
        for members in classes:
            if preserves_columns(rows, n, members[0], u):
                members.append(u)
                break
        else:
            classes.append([u])
    return {frozenset(c) for c in classes}


def corpus_sample():
    # The 200 inputs of 17-20 vertices are mostly twin-free, so their walks
    # take 2^17-2^20 vectors at about 0.3 us each, 27 s in all: every
    # twentieth of them is walked here, and every other input of the corpus.
    big = 0
    for hg in verify._engine_corpus():
        if hg.num_vertices >= 17:
            big += 1
            if big % 20:
                continue
        yield hg


def test_engine_agreement_corpus():
    for hg in corpus_sample():
        assert_same_counts(hg.vertex_rows, hg.num_edges)


FAMILIES = [complete_3partite(n) for n in range(1, 9)] + [
    circulant_hypergraph(block_row(k, m)) for k, m in ((9, 1), (3, 3), (2, 5), (12, 1))
] + [fano_circulant(), projective_geometry(4)]


@pytest.mark.parametrize("hg", FAMILIES, ids=lambda hg: f"{hg.num_vertices}x{hg.num_edges}")
def test_families(hg):
    assert_same_counts(hg.vertex_rows, hg.num_edges)


def test_family_classes():
    classes = lambda hg: sorted(map(len, _twin_classes(hg.vertex_rows, hg.num_edges, WORDS)))
    assert classes(complete_3partite(7)) == [7, 7, 7]
    assert classes(complete_3partite(1)) == [3]  # three equal rows
    # Block circulants share edges between twins: 2m classes of k.
    assert classes(circulant_hypergraph(block_row(3, 3))) == [3] * 6
    assert classes(circulant_hypergraph(block_row(12, 1))) == [12, 12]
    # No twins in the Fano plane or PG(3,2).
    assert classes(fano_circulant()) == [1] * 7
    assert classes(projective_geometry(4)) == [1] * 15


@pytest.mark.parametrize(
    "rows, n",
    [
        ((0b1011, 0b1011, 0b0110, 0b1011), 4),  # equal rows
        ((0b1100, 0b1100, 0b0011, 0b0011, 0b1111), 4),  # two pairs of equal rows
        ((0, 0b101, 0, 0b011), 3),  # zero rows
        ((0, 0, 0), 5),  # the zero code
        ((0b11, 0b11, 0b01), 2),  # a row with a copy has no other twin
    ],
)
def test_equal_and_zero_rows(rows, n):
    assert_same_counts(rows, n)
    assert {frozenset(c) for c in _twin_classes(rows, n, WORDS)} == brute_classes(rows, n)


def test_high_rate_code_of_the_cap_test():
    # The [24,21] code of the CLI's cap test: unit rows followed by the
    # 3-bit pattern i % 7 + 1, so rows i, i + 7 and i + 14 are twins.
    rows = [1 << i | (i % 7 + 1) << 21 for i in range(21)]
    assert sorted(map(len, _twin_classes(tuple(rows), 24, WORDS))) == [3] * 7
    assert_same_counts(rows, 24)


def orbit(pattern, members):
    """Every image of a column pattern under the permutations of the rows
    ``members``: the patterns that agree with it outside them and have as
    many set bits among them."""
    inside = sum(pattern >> u & 1 for u in members)
    rest = pattern & ~sum(1 << u for u in members)
    images = []
    for chosen in range(1 << len(members)):
        if chosen.bit_count() == inside:
            images.append(rest | sum(1 << u for i, u in enumerate(members) if chosen >> i & 1))
    return images


@st.composite
def planted(draw):
    """Rows with planted twin classes and decoys.

    Twins: a class's columns are closed under its permutations, each base
    column's whole orbit.  Decoys u, v: equal weights and equal overlaps
    with every row, but the one column {u, w1, w2} against the two columns
    {v, w1} and {v, w2}, so that exchanging them moves the first.
    """
    r = draw(st.integers(4, 9))
    order = draw(st.permutations(range(r)))
    decoy = draw(st.booleans())
    u, v, w1, w2 = order[:4] if decoy else (None,) * 4
    free = order[4:] if decoy else order
    sizes = draw(st.lists(st.integers(2, 3), max_size=3))
    classes, at = [], 0
    for size in sizes:
        if at + size <= len(free):
            classes.append(free[at : at + size])
            at += size
    columns = []
    for _ in range(draw(st.integers(1, 8))):
        base = draw(st.integers(0, (1 << r) - 1))
        if decoy:
            base &= ~(1 << u | 1 << v | 1 << w1 | 1 << w2)
        images = [base]
        for members in classes:
            images = [image for pattern in images for image in orbit(pattern, members)]
        columns += images
    if decoy:
        columns += [1 << u | 1 << w1 | 1 << w2, 1 << v | 1 << w1, 1 << v | 1 << w2, 1 << u]
    columns = draw(st.permutations(columns))
    n = len(columns)
    rows = tuple(sum((p >> i & 1) << j for j, p in enumerate(columns)) for i in range(r))
    return rows, n, classes, (u, v) if decoy else None


@given(planted())
def test_planted_twins_and_decoys(case):
    rows, n, planted_classes, decoy = case
    classes = _twin_classes(rows, n, WORDS)
    assert sorted(i for c in classes for i in c) == list(range(len(rows)))
    # Every reported class is closed under each of its transpositions.
    for members in classes:
        for a in members:
            for b in members:
                if a < b:
                    assert preserves_columns(rows, n, a, b), (members, a, b)
    # Detection misses no twin on these inputs: the classes are the brute
    # force's, so the planted ones lie within them, and a decoy pair apart.
    found = {frozenset(c) for c in classes}
    assert found == brute_classes(rows, n)
    where = {i: c for c in found for i in c}
    for members in planted_classes:
        assert set(members) <= where[members[0]]
    if decoy is not None:
        u, v = decoy
        assert v not in where[u]
        weights = rows[u].bit_count(), rows[v].bit_count()
        assert weights[0] == weights[1]
        assert sorted((rows[u] & row).bit_count() for row in rows) == sorted(
            (rows[v] & row).bit_count() for row in rows
        )
    assert_same_counts(rows, n)


def test_walk_raises_on_a_sum_that_is_not_a_multiple():
    # Rows 0 and 1 are not twins; called as one class, the walk's sums are
    # not 2^(r - k) times a count.
    rows = (0b001, 0b011, 0b011)
    with pytest.raises(ValueError, match="not a count times 2"):
        _twin_walk(rows, [[0, 1, 2]], 3, 2)


class TestRule:
    def weights_route(self, monkeypatch, code):
        calls = []
        real_classes, real_walk = codes._twin_classes, codes._twin_walk

        def classes(rows, n, words):
            calls.append("detect")
            return real_classes(rows, n, words)

        def walk(rows, found, n, k):
            calls.append("walk")
            return real_walk(rows, found, n, k)

        monkeypatch.setattr(codes, "_twin_classes", classes)
        monkeypatch.setattr(codes, "_twin_walk", walk)
        counts = code._weights
        return calls, counts

    def test_both_sides_of_the_constant(self, monkeypatch):
        # complete_3partite(6), [216,16]: 7^3 = 343 vectors against 2^16
        # words, so the walk is taken exactly while the cost is below
        # 65536 / 343 = 191.06.
        matrix = incidence_matrix(complete_3partite(6))
        expected = _weight_counts(from_generator(matrix).basis.rows, 216)
        for cost, route in ((191, ["detect", "walk"]), (192, ["detect"])):
            monkeypatch.setattr(codes, "_TWIN_VECTOR_COST", cost)
            calls, counts = self.weights_route(monkeypatch, from_generator(matrix))
            assert (calls, counts) == (route, expected)

    def test_one_block_runs_no_detection(self, monkeypatch):
        # complete_3partite(5), [125,13]: the side spans one block.
        code = from_generator(incidence_matrix(complete_3partite(5)))
        calls, counts = self.weights_route(monkeypatch, code)
        assert calls == []
        assert counts == _weight_counts(code.basis.rows, 125)

    def test_the_dual_side_counts_its_words(self, monkeypatch):
        # [24,21], scanned from its 2^3 dual words: one block, no detection.
        rows = tuple(1 << i | (i % 7 + 1) << 21 for i in range(21))
        calls, _ = self.weights_route(monkeypatch, from_generator(BitMatrix(21, 24, rows)))
        assert calls == []

    @pytest.mark.parametrize("patterns, route", [(2, ["detect", "walk"]), (20, ["detect"])])
    def test_the_rule_on_the_dual_side(self, monkeypatch, patterns, route):
        # [36,20]: unit rows e_i followed by one of a few 16-bit patterns,
        # so rows with the same pattern are twins.  The side scanned is the
        # dual's, 2^16 words, two count-kernel blocks: two classes of 10
        # give 121 vectors and take the walk; 20 distinct patterns are
        # twin-free, 2^20 vectors.
        rng = random.Random(patterns)
        tails = rng.sample(range(1, 1 << 16), patterns)
        rows = tuple(1 << i | tails[i % patterns] << 20 for i in range(20))
        code = from_generator(BitMatrix(20, 36, rows))
        assert code._side == 36 - 20 > codes._BLOCK_BITS
        calls, counts = self.weights_route(monkeypatch, code)
        assert calls == route
        assert counts == _weight_counts(code.basis.rows, 36)


def test_many_distinct_rows_take_no_overlaps(monkeypatch):
    # The 560 3-subsets of 16 coordinates, padded with 16 zero columns:
    # [32,16], scanned from the code's 2^16 words, two count-kernel blocks.
    # One weight, so the weights' bound, 561 * 64 vectors' cost, is below
    # 2^16; but the overlaps would take 560^2 row ANDs, more than the
    # scan's words.
    rows = tuple(sum(1 << j for j in s) for s in combinations(range(16), 3))
    assert _twin_classes(rows, 32, 1 << 16) is None
    # Only a side of more than 64 * 2^560 words lets the 560 classes of one
    # row through.
    assert sorted(map(len, _twin_classes(rows, 32, 1 << 567))) == [1] * 560
    calls = []
    monkeypatch.setattr(codes, "_twin_classes", lambda *args: calls.append("detect") or _twin_classes(*args))
    monkeypatch.setattr(codes, "_twin_walk", lambda *args: calls.append("walk"))
    code = from_generator(BitMatrix(560, 32, rows))
    assert code.dimension == 16 > codes._BLOCK_BITS
    assert code._weights == _weight_counts(code.basis.rows, 32)
    assert calls == ["detect"]


def test_complete_3partite_7_never_reaches_the_count_kernel(monkeypatch):
    def refuse(rows, n):
        raise AssertionError("the count kernel ran")

    monkeypatch.setattr(codes, "_weight_planes", refuse)
    report = analyze_hypergraph(complete_3partite(7), method="codeword", weights=True)
    assert (report.dimension, report.min_distance, report.weight_dist[49]) == (19, 49, 21)


def test_random_512_by_19_takes_the_kernel_and_builds_no_transposition(monkeypatch):
    events = []
    real_planes, real_columns = codes._weight_planes, codes._columns

    def planes(rows, n):
        events.append("planes")
        return real_planes(rows, n)

    def columns(rows, n):
        events.append("columns")
        return real_columns(rows, n)

    monkeypatch.setattr(codes, "_weight_planes", planes)
    monkeypatch.setattr(codes, "_columns", columns)
    rng = random.Random(512)
    rows = tuple(rng.getrandbits(512) for _ in range(19))
    report = analyze_matrix(BitMatrix(19, 512, rows), method="codeword", weights=True)
    assert report.dimension == 19
    assert sum(report.weight_dist.values()) == 1 << 19
    # The kernel's own transposition, and none before it.
    assert events == ["planes", "columns"]


def test_detection_runs_after_the_cap_check(monkeypatch):
    def refuse(rows, n, words):
        raise AssertionError("detection ran")

    monkeypatch.setattr(codes, "_twin_classes", refuse)
    monkeypatch.setenv("HYPERCODE_ENUM_CAP", "1000")
    with pytest.raises(EnumerationCapError):
        weight_distribution(from_generator(incidence_matrix(complete_3partite(7))))


def test_f_count_criterion_reads_the_walk(monkeypatch):
    real = codes._twin_walk

    def drops_one_vector(rows, classes, n, k):
        # The vector taking one row from each of the first two classes:
        # |c_0| |c_1| subsets of that weight, 2^(r - k) of them per word.
        counts = real(rows, classes, n, k)
        weight = (rows[classes[0][0]] ^ rows[classes[1][0]]).bit_count()
        counts[weight] -= len(classes[0]) * len(classes[1]) >> (len(rows) - k)
        return counts

    monkeypatch.setattr(codes, "_twin_walk", drops_one_vector)
    passed, detail = verify._check_f_count()
    assert not passed
    assert "n=6: 4 x weight distribution" in detail
