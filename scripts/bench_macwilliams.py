#!/usr/bin/env python3
"""Measure the MacWilliams side of the weight counts and record it as JSON.

Usage:

    python scripts/bench_macwilliams.py --parent DIR [--pairs 10] [--seconds 30]
        [--seed 71] [--workloads many-small exhaustive selfdual]
        [--out BENCH_macwilliams.json]

DIR holds the parent commit's files (``git archive PARENT | tar -x -C DIR``).
The script imports ``hypercode`` from ``src/`` beside it and records:

- ``transforms``: ``codes._krawtchouk_sums`` (the recurrence) and
  ``codes._packed_sums`` (Kronecker substitution) on random 10-dimensional
  duals and on 2-weight duals (the simplex code at n = 2^m - 1, else
  {0, all-ones}), each the median of alternated runs, with the transform
  that ``codes._packed_is_cheaper`` picks;
- ``agreement``: ``codes._macwilliams`` against the recurrence and against
  the direct count on 3000 random codes that take the dual route;
- ``many_small_routes``: on the ``many-small`` items that take the dual
  route, grouped by length, the parent's dual route (a second reduction and
  the recurrence), this dual route and the direct count of the code itself;
- ``quotient``: on ``exhaustive``'s full-rank ``random_hypergraph(n=19,m=30)``
  at both commits, the result, ``eonv_distance_search`` and the
  ``_subset_quotient`` call alone (in-process timeit), and the parent's
  renumbering cut timed alone;
- ``cycle_2048``: ``hypercode analyze --method codeword --weights`` of the
  cycle C_2048 at both commits, whole command;
- ``pairs``: alternated ``perfbench/run.py --trace 0`` runs of both commits,
  seed ``--seed + i`` for pair i, the parent first in even-numbered pairs;
- ``lines``: non-blank, non-comment lines of ``src/hypercode`` (docstrings
  counted) at both commits, and the net.

``--pairs 0`` leaves the benchmark runs out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import timeit
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from hypercode import BitMatrix, from_generator, nullspace_basis, parse_hypergraph  # noqa: E402
from hypercode import codes  # noqa: E402
from workloads import generate  # noqa: E402

GRID = (7, 18, 30, 64, 256, 512, 1023, 1024, 2048)
METRICS = ("pass_ref", "item_p50_ref", "item_p99_ref", "peak_rss_mb", "setup_s")


def per_call(fn, budget: float = 0.05) -> float:
    """Seconds per call of ``fn``, from enough calls to fill ``budget``."""
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    number = max(1, int(budget / max(once, 1e-7)))
    return timeit.timeit(fn, number=number) / number


def alternated(first, second, runs: int) -> tuple[float, float]:
    """Medians of ``runs`` timings of each, the order swapped every run."""
    a, b = [], []
    for i in range(runs):
        if i % 2:
            b.append(per_call(second))
            a.append(per_call(first))
        else:
            a.append(per_call(first))
            b.append(per_call(second))
    return statistics.median(a), statistics.median(b)


def random_dual(rng: random.Random, n: int, k: int) -> list[int]:
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(k))
        code = from_generator(BitMatrix(k, n, rows))
        if code.dimension == k:
            return codes._weight_counts(code.basis.rows, n)


def two_weight_dual(n: int) -> tuple[list[int], int, str]:
    counts = [0] * (n + 1)
    counts[0] = 1
    if n & (n + 1) == 0:  # the simplex code: 2^m - 1 words of weight 2^(m-1)
        counts[(n + 1) // 2] = n
        return counts, n.bit_length(), "simplex"
    counts[n] = 1
    return counts, 1, "all-ones"


def transforms(runs: int) -> list[dict]:
    rng = random.Random(2027)
    out = []
    for n in GRID:
        k = min(10, n - 1)
        two, k_two, name = two_weight_dual(n)
        for kind, counts, k_dual in ((f"random {k}-dim", random_dual(rng, n, k), k), (name, two, k_two)):
            weights = len(counts) - counts.count(0)
            assert codes._packed_sums(counts, n) == codes._krawtchouk_sums(counts, n)
            recurrence, packed = alternated(
                lambda: codes._krawtchouk_sums(counts, n), lambda: codes._packed_sums(counts, n), runs
            )
            picked = "packed" if codes._packed_is_cheaper(n, weights) else "recurrence"
            ruled = packed if picked == "packed" else recurrence
            row = {
                "n": n, "dual": kind, "k_dual": k_dual, "weights": weights,
                "recurrence_us": round(recurrence * 1e6, 1), "packed_us": round(packed * 1e6, 1),
                "rule": picked, "ruled_over_recurrence": round(ruled / recurrence, 3),
            }
            print("transforms", row, flush=True)
            out.append(row)
    return out


def agreement(count: int) -> dict:
    rng = random.Random(2028)
    checked = packed = 0
    while checked < count:
        n = rng.randint(6, 22)
        k = rng.randint(n // 2 + 1, min(n, 16))
        code = from_generator(BitMatrix(k, n, tuple(rng.getrandbits(n) for _ in range(k))))
        if code._side == code.dimension:  # the code's own words are counted
            continue
        rows = nullspace_basis(code.generator).rows
        dual_counts = codes._weight_counts(rows, n)
        transformed = codes._macwilliams(dual_counts, n, len(rows))
        sums = codes._krawtchouk_sums(dual_counts, n)
        assert transformed == [s >> len(rows) for s in sums]
        assert transformed == codes._weight_counts(code.basis.rows, n)
        packed += codes._packed_is_cheaper(n, len(dual_counts) - dual_counts.count(0))
        checked += 1
    return {"codes": checked, "packed": packed, "recurrence": checked - packed, "equal": True}


def many_small_routes(seed: int) -> list[dict]:
    groups = defaultdict(lambda: defaultdict(list))
    for item in generate("many-small", seed):
        generator = BitMatrix(len(item.rows), item.length, item.rows)
        code = from_generator(generator)
        if code._side == code.dimension:  # the code's own words are counted
            continue
        n = code.length

        def parent_route():
            # The parent's dual route: a second code, reduced again, and the recurrence.
            other = from_generator(nullspace_basis(generator))
            sums = codes._krawtchouk_sums(codes._weight_counts(other.basis.rows, n), n)
            size = 1 << other.dimension
            for total in sums:
                if total < 0 or total % size:
                    raise ValueError(total)
            return [total >> other.dimension for total in sums]

        def dual_route():
            null = nullspace_basis(generator).rows
            return codes._macwilliams(codes._weight_counts(null, n), n, len(null))

        def primal():
            return codes._weight_counts(code.basis.rows, n)

        assert parent_route() == dual_route() == primal()
        group = groups[n]
        group["parent_dual"].append(per_call(parent_route, 0.005))
        group["dual"].append(per_call(dual_route, 0.005))
        group["primal"].append(per_call(primal, 0.005))
    out = []
    for n in sorted(groups):
        group = groups[n]
        row = {"n": n, "items": len(group["dual"])}
        for key in ("parent_dual", "dual", "primal"):
            row[f"{key}_us_median"] = round(statistics.median(group[key]) * 1e6, 1)
        print("many-small", row, flush=True)
        out.append(row)
    return out


def run_in(tree: Path, code: str) -> list[str]:
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tree / "src")}, check=True,
    )
    return result.stdout.splitlines()


QUOTIENT = """
import statistics, sys, timeit
sys.path.insert(0, 'perfbench')
from hypercode import parse_hypergraph
from hypercode.codes import _subset_quotient, _vertex_dependencies, eonv_distance_search
from workloads import generate
item = next(i for i in generate('exhaustive', 1) if i.label.startswith('random_hypergraph(n=19'))
hg = parse_hypergraph(item.text)
assert not _vertex_dependencies(hg.vertex_rows)
print(eonv_distance_search(hg))
for call in (lambda: eonv_distance_search(hg), lambda: _subset_quotient(hg, [])):
    print(statistics.median(min(timeit.repeat(call, number=20, repeat=3)) / 20 for _ in range(5)))
"""


def parent_cut(hypergraph, dependencies):
    # The parent's renumbering cut, which ran even with no dependency.
    pivots = 0
    for d in dependencies:
        pivots |= d & -d
    keep = [v for v in range(hypergraph.num_vertices) if not pivots >> v & 1]
    index = {v: i for i, v in enumerate(keep)}
    return [tuple(index[v] for v in edge if v in index) for edge in hypergraph.edges]


def quotient(parent: Path, runs: int) -> dict:
    """The full-rank n = 19 search: value and witness at both commits, the
    whole search and the ``_subset_quotient`` call alone (medians of 5 x 20
    calls per run), and the parent's cut timed alone."""
    out = {"result": {}, "search_ms": {"parent": [], "change": []}, "quotient_ms": {"parent": [], "change": []}}
    for i in range(runs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, search, call = run_in(parent if side == "parent" else ROOT, QUOTIENT)
            out["result"][side] = result
            out["search_ms"][side].append(round(float(search) * 1e3, 4))
            out["quotient_ms"][side].append(round(float(call) * 1e3, 4))
    for key in ("search_ms", "quotient_ms"):
        out[key]["medians"] = {side: statistics.median(out[key][side]) for side in ("parent", "change")}
    item = next(i for i in generate("exhaustive", 1) if i.label.startswith("random_hypergraph(n=19"))
    hypergraph = parse_hypergraph(item.text)
    out["parent_cut_us"] = round(
        statistics.median(per_call(lambda: parent_cut(hypergraph, []), 0.02) for _ in range(15)) * 1e6, 2
    )
    return out


def cycle_2048(parent: Path, runs: int) -> dict:
    text = subprocess.run(
        [sys.executable, "-m", "hypercode", "family", "circulant", "--row", "11" + "0" * 2046],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True,
    ).stdout
    sides = {"parent": [], "change": [], "reports_equal": True}
    outputs = {}
    for i in range(runs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = parent if side == "parent" else ROOT
            start = time.perf_counter()
            result = subprocess.run(
                [sys.executable, "-m", "hypercode", "analyze", "-", "--method", "codeword", "--weights"],
                input=text, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(tree / "src")}, check=True,
            )
            sides[side].append(round(time.perf_counter() - start, 3))
            outputs[side] = result.stdout
    sides["reports_equal"] = outputs["parent"] == outputs["change"]
    return sides


def bench_run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    last = json.loads(result.stdout.splitlines()[-1])
    row = {"correct": last["correct"], "attempted": last["attempted"], "failed": last["failed"]}
    row.update({name: last["metrics"][name]["value"] for name in METRICS})
    return row


def pairs(parent: Path, workloads: list[str], count: int, seconds: int, seed: int) -> dict:
    out = {}
    for workload in workloads:
        runs = []
        for i in range(count):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                row = {"side": side, "seed": seed + i}
                row.update(bench_run(parent if side == "parent" else ROOT, workload, seed + i, seconds))
                print(workload, row, flush=True)
                runs.append(row)
        summary = {}
        for name in METRICS:
            by_side = {s: [r[name] for r in runs if r["side"] == s] for s in ("parent", "change")}
            parent_q = statistics.quantiles(by_side["parent"], n=4)
            wins = sum(
                c < p for p, c in zip(by_side["parent"], by_side["change"])
            )
            summary[name] = {
                "parent_median": statistics.median(by_side["parent"]),
                "change_median": statistics.median(by_side["change"]),
                "parent_iqr": parent_q[2] - parent_q[0],
                "change_lower_in_pairs": f"{wins} of {count}",
            }
        out[workload] = {"runs": runs, "summary": summary}
    return out


def line_count(tree: Path) -> int:
    """Non-blank, non-comment lines of ``src/hypercode`` in ``tree``,
    docstrings counted."""
    return sum(
        1
        for path in (tree / "src" / "hypercode").glob("*.py")
        for line in path.read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=71)
    parser.add_argument("--workloads", nargs="+", default=["many-small", "exhaustive", "selfdual"])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_macwilliams.json")
    args = parser.parse_args()
    record = {
        "what": "the MacWilliams side: packed Krawtchouk sums where they are cheaper, "
        "the dual counted from its null-space rows",
        "machine": f"{os.cpu_count()}-core VM, Python {platform.python_version()}",
        "transforms": transforms(runs=5),
        "agreement": agreement(3000),
        "many_small_routes": many_small_routes(seed=1),
        "quotient": quotient(args.parent, runs=10),
        "cycle_2048": cycle_2048(args.parent, runs=6),
        "lines": {"parent": line_count(args.parent), "change": line_count(ROOT)},
    }
    record["lines"]["net"] = record["lines"]["change"] - record["lines"]["parent"]
    if args.pairs:
        record["pairs"] = {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} --trace 0",
            "order": "parent first in even-numbered pairs, change first in odd ones; pair i uses seed "
            f"{args.seed} + i",
            **pairs(args.parent, args.workloads, args.pairs, args.seconds, args.seed),
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
