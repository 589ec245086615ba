"""Built-in verification suite.

Each criterion re-derives a published-style fact about the code families in
this package (exact parameters, the distance square law of the complete
3-partite family, block-circulant bounds, the agreement of the two distance
engines, and the self-duality criteria) and reports observed against
expected values.  ``hypercode verify`` runs them all; the pytest acceptance
module asserts them one by one.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from math import comb
from typing import Callable, Iterator

from .analysis import analyze_hypergraph
from .codes import (
    codeword_distance_search,
    eonv_distance_search,
    from_generator,
    graph_self_duality_criterion,
    is_self_orthogonal,
    structural_self_orthogonality,
    weight_distribution,
)
from .gf2core import (
    format_row,
    gram,
    nullspace_basis,
    parse_row,
    rank,
    row_combination,
    row_space_equal,
    set_bits,
)
from .gf2poly import block_circulant_bound, cyclic_code_dimension
from .hypergraph import (
    Edge,
    Hypergraph,
    block_row,
    circulant_hypergraph,
    complete_3partite,
    eonv,
    f_count,
    fano_circulant,
    incidence_matrix,
    is_connected,
    projective_geometry,
    random_hypergraph,
)

CORPUS_SEED = 20260810

# Incidence matrix of the circulant Fano labeling, row by row; criterion 1
# checks the generator reproduces it bit for bit.
FANO_EXPECTED_ROWS = (
    "1000101",
    "1100010",
    "0110001",
    "1011000",
    "0101100",
    "0010110",
    "0001011",
)

FANO_EXPECTED_WEIGHTS = {0: 1, 3: 7, 4: 7, 7: 1}


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float
    budget: float


@dataclass(frozen=True)
class Criterion:
    name: str
    tags: tuple[str, ...]
    budget: float
    func: Callable[[], tuple[bool, str]]


class _Checker:
    """Collects observed-vs-expected mismatches plus positive notes."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.notes: list[str] = []

    def equal(self, observed, expected, label: str) -> bool:
        if observed != expected:
            self.failures.append(f"{label}: expected {expected}, observed {observed}")
            return False
        return True

    def ensure(self, condition: bool, message: str) -> bool:
        if not condition:
            self.failures.append(message)
        return condition

    def note(self, message: str) -> None:
        self.notes.append(message)

    def result(self) -> tuple[bool, str]:
        if self.failures:
            return False, "; ".join(self.failures)
        return True, "; ".join(self.notes) if self.notes else "ok"


def _check_fano() -> tuple[bool, str]:
    check = _Checker()
    hg = fano_circulant()
    observed_rows = incidence_matrix(hg).to_strings()
    check.equal(tuple(observed_rows), FANO_EXPECTED_ROWS, "circulant Fano incidence matrix")
    report = analyze_hypergraph(hg, method="both", weights=True)
    check.equal(
        (report.length, report.dimension, report.min_distance), (7, 4, 3), "Fano code parameters"
    )
    check.equal(report.weight_dist, FANO_EXPECTED_WEIGHTS, "Fano weight distribution")
    check.note("[7,4,3] with weights {0:1,3:7,4:7,7:1}")
    return check.result()


def _check_k3partite() -> tuple[bool, str]:
    check = _Checker()
    expected_dims = {1: (1, 1), 2: (8, 4), 3: (27, 7), 4: (64, 10), 5: (125, 13)}
    for n in range(1, 6):
        report = analyze_hypergraph(complete_3partite(n), method="both")
        check.equal(
            (report.length, report.dimension),
            expected_dims[n],
            f"3-partite n={n} length/dimension",
        )
        check.equal(report.min_distance, n * n, f"3-partite n={n} distance (both engines)")
    check.note("parameters [8,4,4], [27,7,9], [64,10,16]; d = n^2 for n = 1..5")
    return check.result()


def _check_f_count() -> tuple[bool, str]:
    check = _Checker()
    for n in range(1, 51):
        zero_points = {(0, 0, 0), (n, n, 0), (n, 0, n), (0, n, n)}
        best = None
        for k1 in range(n + 1):
            for k2 in range(n + 1):
                for k3 in range(n + 1):
                    value = f_count(n, k1, k2, k3)
                    if (k1, k2, k3) in zero_points:
                        if value != 0:
                            check.failures.append(
                                f"n={n}: f{(k1, k2, k3)} should vanish, observed {value}"
                            )
                        continue
                    if value == 0:
                        check.failures.append(f"n={n}: unexpected zero at {(k1, k2, k3)}")
                    if best is None or value < best:
                        best = value
        if not check.failures:
            check.equal(best, n * n, f"n={n}: minimum of the odd-edge count")
        if check.failures:
            break
    # The whole weight distribution by part counts: the 3n vertex rows have
    # rank 3n - 2, so each word is the odd-edge set of 4 subsets, and
    # 4 A_w sums C(n,k1) C(n,k2) C(n,k3) over f(n,k1,k2,k3) = w.
    for n in range(6, 10):
        if check.failures:
            break
        sums: dict[int, int] = {}
        for k1, k2, k3 in product(range(n + 1), repeat=3):
            w = f_count(n, k1, k2, k3)
            sums[w] = sums.get(w, 0) + comb(n, k1) * comb(n, k2) * comb(n, k3)
        counts = weight_distribution(from_generator(incidence_matrix(complete_3partite(n))))
        check.equal({w: 4 * c for w, c in counts.items()}, sums, f"n={n}: 4 x weight distribution")
    check.note(
        "lattice minimum equals n^2 for n = 1..50; "
        "weight distributions equal the f_count sums for n = 6..9"
    )
    return check.result()


def _check_pg() -> tuple[bool, str]:
    check = _Checker()
    plane = analyze_hypergraph(projective_geometry(3), method="both")
    check.equal(
        (plane.length, plane.dimension, plane.min_distance), (7, 4, 3), "PG(2,2) parameters"
    )
    check.equal(plane.min_distance, 2**2 - 1, "PG(2,2) distance vs 2^(n-1)-1")

    space = projective_geometry(4)
    report = analyze_hypergraph(space, method="both")
    check.equal(report.length, 35, "PG(3,2) line count")
    bound = min(2**3 - 1, 2**4 - 4)
    check.ensure(
        report.min_distance >= bound,
        f"PG(3,2) distance {report.min_distance} below the bound {bound}",
    )
    min_degree = min(space.degree(u) for u in range(space.num_vertices))
    check.ensure(
        report.min_distance <= min_degree,
        f"PG(3,2) distance {report.min_distance} above the single-point weight {min_degree}",
    )
    # PG(4,2): 31 points, so the full subset scan has 2^31 subsets; the
    # subset engine scans the 2^26 cosets of its vertex dependencies.
    large = analyze_hypergraph(projective_geometry(5), method="both")
    check.equal(
        (large.length, large.dimension, large.min_distance, large.distance_exact),
        (155, 26, 2**4 - 1, True),
        "PG(4,2) parameters from both engines",
    )
    check.note(
        f"PG(2,2) is [7,4,3]; PG(3,2) is [35,{report.dimension},{report.min_distance}] "
        f"with d >= min{{7,12}} = {bound}; PG(4,2) is [155,26,15] from both engines"
    )
    return check.result()


def _all_edges(n: int) -> list[Edge]:
    """Every nonempty subset of n vertices, by size and then lexicographically."""
    return [s for size in range(1, n + 1) for s in combinations(range(n), size)]


def _simple_hypergraphs_exhaustive(max_vertices: int) -> Iterator[Hypergraph]:
    for n in range(1, max_vertices + 1):
        candidates = _all_edges(n)
        for mask in range(1, 1 << len(candidates)):
            edges = tuple(candidates[i] for i in range(len(candidates)) if (mask >> i) & 1)
            yield Hypergraph(n, edges)


def _engine_corpus() -> Iterator[Hypergraph]:
    yield from _simple_hypergraphs_exhaustive(4)
    rng = random.Random(CORPUS_SEED)
    for n in (5, 6):
        candidates = _all_edges(n)
        for _ in range(1500):
            m = rng.randint(1, min(len(candidates), 20))
            yield Hypergraph(n, tuple(rng.sample(candidates, m)))
    for _ in range(500):
        n = rng.randint(1, 12)
        m = rng.randint(1, 18)
        yield random_hypergraph(rng, n, m)
    # 17-20 vertices span several subset-kernel blocks, so the subset engine
    # scans the quotient: with no dependency, or with the zero rows of 1-3
    # isolated vertices (every fifth input) and other dependencies.
    for i in range(200):
        n, isolated = rng.randint(17, 20), 0 if i % 5 else rng.randint(1, 3)
        edges = random_hypergraph(rng, n - isolated, rng.randint(n, 2 * n), max_edge_size=4).edges
        repeats = () if i % 4 else tuple(rng.choices(edges, k=rng.randint(1, 4)))
        yield Hypergraph(n, edges + repeats)


def _check_engine_agreement() -> tuple[bool, str]:
    check = _Checker()
    count = 0
    disagreements = 0
    for hg in _engine_corpus():
        count += 1
        d_subsets = eonv_distance_search(hg).value
        d_codewords = codeword_distance_search(from_generator(incidence_matrix(hg))).value
        if d_subsets != d_codewords:
            disagreements += 1
            if disagreements <= 3:
                check.failures.append(
                    f"engines disagree ({d_subsets} vs {d_codewords}) on "
                    f"n={hg.num_vertices} edges={hg.edges}"
                )
    check.equal(disagreements, 0, "engine disagreements")
    check.note(f"0 disagreements across {count} hypergraphs")
    return check.result()


def _check_block_circulant() -> tuple[bool, str]:
    check = _Checker()
    pairs = [
        (k, m)
        for k in range(1, 10)
        for m in range(1, 10)
        if 2 * k * m <= 18
    ]
    for k, m in pairs:
        hg = circulant_hypergraph(block_row(k, m))
        d = eonv_distance_search(hg).value
        check.equal(
            codeword_distance_search(from_generator(incidence_matrix(hg))).value,
            d,
            f"(k={k}, m={m}): codeword engine d vs the subset engine's",
        )
        bound = block_circulant_bound(k, m)
        check.ensure(d >= bound, f"(k={k}, m={m}): exact d={d} below the bound {bound}")
        if m == 1:
            check.equal(d, k, f"(k={k}, m=1) exact distance")
    # The odd-edge counts |eonv(S)| over all S are the codeword weights.
    for k in range(1, 9):
        code = from_generator(incidence_matrix(circulant_hypergraph(block_row(k, 1))))
        allowed = {0, k, 2 * k}
        outside = set(weight_distribution(code)) - allowed
        check.ensure(
            not outside,
            f"(k={k}, m=1): odd-edge counts {sorted(outside)} outside {sorted(allowed)}",
        )
    check.note(
        f"exact d >= (k if m=1 else 2k), the same from both engines, on {len(pairs)} (k,m) pairs; "
        "m=1 odd-edge counts all lie in {0, k, 2k} for k <= 8"
    )
    return check.result()


def _check_cyclic_dimension() -> tuple[bool, str]:
    check = _Checker()
    fano_dim = cyclic_code_dimension(parse_row("1000101"), 7)
    check.equal(fano_dim, 4, "dimension of the length-7 cyclic code from 1000101")
    rng = random.Random(CORPUS_SEED + 7)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(1, 64)
        bits = rng.randrange(1, 1 << n)
        first_row = format_row(bits, n)
        via_gcd = cyclic_code_dimension(bits, n)
        via_rank = rank(incidence_matrix(circulant_hypergraph(first_row)))
        if via_gcd != via_rank:
            mismatches += 1
            if mismatches <= 3:
                check.failures.append(
                    f"n={n}, row={first_row}: gcd formula {via_gcd} vs rank {via_rank}"
                )
    check.equal(mismatches, 0, "gcd-formula/rank disagreements")
    check.note("200 random circulant instances agree; Fano row gives dimension 4")
    return check.result()


def _check_self_duality() -> tuple[bool, str]:
    check = _Checker()
    rng = random.Random(CORPUS_SEED + 8)
    structural_mismatch = 0
    for _ in range(1000):
        hg = random_hypergraph(rng, rng.randint(1, 10), rng.randint(1, 16))
        matrix = incidence_matrix(hg)
        via_structure = structural_self_orthogonality(hg)
        via_gram = gram(matrix).is_zero
        via_code = is_self_orthogonal(from_generator(matrix))
        if not (via_structure == via_gram == via_code):
            structural_mismatch += 1
            if structural_mismatch <= 3:
                check.failures.append(
                    f"self-orthogonality routes disagree on edges={hg.edges}: "
                    f"structural={via_structure}, gram={via_gram}, code={via_code}"
                )
    check.equal(structural_mismatch, 0, "self-orthogonality route disagreements")

    criterion_mismatch = 0
    graphs_checked = 0
    for n in range(2, 6):
        pairs = tuple(combinations(range(n), 2))
        for m in range(1, 11):
            multigraphs = (
                Hypergraph(n, multiset) for multiset in combinations_with_replacement(pairs, m)
            )
            for hg in filter(is_connected, multigraphs):
                graphs_checked += 1
                by_criterion = graph_self_duality_criterion(hg)
                matrix = incidence_matrix(hg)
                directly = row_space_equal(matrix, nullspace_basis(matrix))
                if by_criterion != directly:
                    criterion_mismatch += 1
                    if criterion_mismatch <= 3:
                        check.failures.append(
                            f"criterion={by_criterion} but row space vs null space "
                            f"says {directly} on n={n}, edges={hg.edges}"
                        )
    check.equal(criterion_mismatch, 0, "graph-criterion disagreements")
    check.note(
        f"1000 random hypergraphs agree on self-orthogonality; criterion matches "
        f"direct self-duality on all {graphs_checked} connected multigraphs "
        "(n <= 5, m <= 10)"
    )
    return check.result()


def _check_eonv_support() -> tuple[bool, str]:
    check = _Checker()
    rng = random.Random(CORPUS_SEED + 9)
    for _ in range(200):
        hg = random_hypergraph(rng, rng.randint(1, 12), rng.randint(1, 20))
        subset = rng.sample(range(hg.num_vertices), rng.randint(1, hg.num_vertices))
        combo = row_combination(incidence_matrix(hg), subset)
        if set(set_bits(combo)) != set(eonv(hg, subset)):
            check.failures.append(
                f"row sum support differs from the odd-edge set on edges={hg.edges}, "
                f"subset={sorted(subset)}"
            )
            break

    # Complementing every edge keeps eonv(H, S) for even |S| and flips it
    # for odd |S|, since |S∩e| + |S∩ē| = |S|.
    instances: list[Hypergraph] = [
        fano_circulant(),
        complete_3partite(2),
        circulant_hypergraph(block_row(2, 2)),
        circulant_hypergraph(block_row(4, 1)),
    ]
    for _ in range(5):
        n = rng.randint(2, 8)
        instances.append(random_hypergraph(rng, n, rng.randint(1, 12), max_edge_size=n - 1))
    for hg in instances:
        n = hg.num_vertices
        full = (1 << n) - 1
        complemented = Hypergraph(n, tuple(set_bits(full ^ e) for e in hg.edge_masks))
        every_edge = set(range(hg.num_edges))
        for mask in range(1, 1 << n):
            subset = set_bits(mask)
            odd = set(eonv(hg, subset))
            expected = odd if len(subset) % 2 == 0 else every_edge - odd
            if set(eonv(complemented, subset)) != expected:
                check.failures.append(
                    f"eonv of the complemented edges is not eonv or its complement "
                    f"on n={n}, edges={hg.edges}, subset={list(subset)}"
                )
                return check.result()
    check.note(
        "row-sum support equals the odd-edge set on 200 random pairs; "
        "complementing the edges keeps the odd-edge set for even |S| and flips it "
        f"for odd |S|, exhaustively on {len(instances)} instances with n <= 8"
    )
    return check.result()


CRITERIA: tuple[Criterion, ...] = (
    Criterion("fano", ("fano",), 1.0, _check_fano),
    Criterion("k3partite", ("k3partite",), 5.0, _check_k3partite),
    Criterion("f-count", ("f-count", "k3partite"), 5.0, _check_f_count),
    Criterion("pg", ("pg",), 30.0, _check_pg),
    Criterion("engine-agreement", ("engines", "engine-agreement"), 60.0, _check_engine_agreement),
    Criterion("block-circulant", ("block-circulant", "circulant"), 60.0, _check_block_circulant),
    Criterion("cyclic-dimension", ("cyclic-dimension", "circulant"), 10.0, _check_cyclic_dimension),
    Criterion("self-duality", ("self-duality",), 60.0, _check_self_duality),
    Criterion("eonv-support", ("eonv-support", "parity"), 10.0, _check_eonv_support),
)


def select_criteria(only: str | None = None) -> tuple[Criterion, ...]:
    if only is None:
        return CRITERIA
    selected = tuple(c for c in CRITERIA if only == c.name or only in c.tags)
    if not selected:
        known = sorted({tag for c in CRITERIA for tag in (c.name, *c.tags)})
        raise ValueError(f"unknown criterion tag {only!r}; known tags: {', '.join(known)}")
    return selected


def run_criterion(criterion: Criterion) -> CriterionResult:
    start = time.perf_counter()
    passed, detail = criterion.func()
    elapsed = time.perf_counter() - start
    return CriterionResult(criterion.name, passed, detail, elapsed, criterion.budget)


def run_criteria(only: str | None = None) -> list[CriterionResult]:
    return [run_criterion(c) for c in select_criteria(only)]
