#!/usr/bin/env python3
"""Measure the count kernel's block size and record it as JSON.

Usage:

    python scripts/bench_block_geometry.py --parent DIR [--pairs 10] [--seconds 30]
        [--seed 301] [--workloads exhaustive many-small selfdual]
        [--out BENCH_block_geometry.json]

DIR holds the parent commit's files (``git archive PARENT | tar -x -C DIR``).
The script imports ``hypercode`` from ``src/`` beside it and records:

- ``t_sweep``: ``codes._count_blocks`` on random full-rank codes of lengths
  64 to 2048 with ``codes._BLOCK_BITS`` set to 13, 14, 15 and 16 (medians
  of runs that rotate the order), with the t that the column budget lets
  each one take;
- ``one_block_at_the_bound``: ``codes._count_blocks`` on 15 rows at t = 14
  (two blocks) and t = 15 (one block);
- ``twin_vector_cost``: at both commits, the twin walk's time per count
  vector over the count kernel's time per word of the side it would scan,
  on ``complete_3partite(6..8)`` and random codes of lengths 64 to 2048
  (their rows all singleton classes), the figure ``codes._TWIN_VECTOR_COST``
  stands for;
- ``chunk_tables_kb``: the Four Russians tables' size at t = 14 and 15;
- ``items_ms``: parse, analyze and ``to_json`` of each ``exhaustive`` item
  at both commits, medians of in-process runs;
- ``reports``: sha256 over every item's output of each workload at seeds 1
  and 7, at both commits;
- ``early_exits``: ``analyze_matrix`` of random full-rank k x n matrices,
  k = 14, 15, 16, at every threshold from 0 to d + 1 under the codeword and
  both methods, at both commits, with every report that differs;
- ``trace``: ``perfbench/run.py --trace 1`` on ``exhaustive``, one run per
  commit, the codeword scan's calls and busy seconds;
- ``verify``: the last line of ``hypercode verify`` at this commit;
- ``pairs``: alternated ``perfbench/run.py --trace 0`` runs of both commits,
  as in ``scripts/bench_macwilliams.py``;
- ``lines``: the net line count of ``src/hypercode`` against the parent.

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
from pathlib import Path

from bench_macwilliams import ROOT, line_count, pairs, per_call, run_in

from hypercode import BitMatrix, codes, complete_3partite, from_generator, incidence_matrix

SWEEP = ((64, 19), (512, 18), (512, 19), (1024, 18), (2048, 17))
SWEEP_BITS = (13, 14, 15, 16)


def full_rank(rng: random.Random, k: int, n: int) -> tuple[int, ...]:
    while True:
        code = from_generator(BitMatrix(k, n, tuple(rng.getrandbits(n) for _ in range(k))))
        if code.dimension == k:
            return code.basis.rows


def one_block_at_the_bound(runs: int) -> list[dict]:
    """15 rows, one block at t = 15 against two at t = 14: the rows of
    ``complete_3partite(6)`` that its counts read (all but the last, the
    code holding the all-ones word) and random rows of lengths 64-512."""
    rng = random.Random(2035)
    cases = [("k3partite(6)", from_generator(incidence_matrix(complete_3partite(6))).basis.rows[:-1], 216)]
    cases += [(f"random [{n},15]", full_rank(rng, 15, n), n) for n in (64, 216, 512)]
    default = codes._BLOCK_BITS
    out = []
    for label, rows, n in cases:
        times = {14: [], 15: []}
        try:
            for run in range(runs):
                for bits in (14, 15) if run % 2 == 0 else (15, 14):
                    codes._BLOCK_BITS = bits
                    times[bits].append(per_call(lambda: codes._count_blocks(rows, n), 0.2))
        finally:
            codes._BLOCK_BITS = default
        row = {"rows": label, "n": n}
        row.update({f"t{bits}_ms": round(statistics.median(v) * 1e3, 3) for bits, v in times.items()})
        print("one_block_at_the_bound", row, flush=True)
        out.append(row)
    return out


def t_sweep(runs: int) -> list[dict]:
    rng = random.Random(2032)
    default = codes._BLOCK_BITS
    out = []
    for n, k in SWEEP:
        rows = full_rank(rng, k, n)
        times = {bits: [] for bits in SWEEP_BITS}
        taken = {}
        try:
            for run in range(runs):
                for i in range(len(SWEEP_BITS)):
                    bits = SWEEP_BITS[(i + run) % len(SWEEP_BITS)]
                    codes._BLOCK_BITS = bits
                    taken[bits] = codes._weight_planes(rows, n)[0]
                    times[bits].append(per_call(lambda: codes._count_blocks(rows, n), 0.2))
        finally:
            codes._BLOCK_BITS = default
        ms = {bits: round(statistics.median(times[bits]) * 1e3, 2) for bits in SWEEP_BITS}
        best = min(ms, key=ms.get)
        row = {
            "n": n, "k": k, "t_taken": taken, "ms": ms, "fastest": best,
            "vs_fastest_pct": {bits: round(100 * (ms[bits] / ms[best] - 1), 1) for bits in SWEEP_BITS},
        }
        print("t_sweep", row, flush=True)
        out.append(row)
    return out


TWIN_COST = """
import json, random, statistics, sys
from math import prod
sys.path.insert(0, 'scripts')
from bench_macwilliams import per_call
from hypercode import BitMatrix, complete_3partite, from_generator, incidence_matrix
from hypercode.codes import _twin_classes, _twin_walk, _weight_counts
rng = random.Random(2033)
cases = [(f'k3partite({m})', incidence_matrix(complete_3partite(m))) for m in (6, 7, 8)]
for k, n in ((16, 64), (18, 64), (16, 512), (16, 1024), (16, 2048)):
    cases.append((f'random [{n},{k}]', BitMatrix(k, n, tuple(rng.getrandbits(n) for _ in range(k)))))
for label, matrix in cases:
    code = from_generator(matrix)
    n, k = code.length, code.dimension
    rows = code.generator.rows
    classes = _twin_classes(rows, n, 1 << 64)  # a side no walk here breaks
    vectors = prod(len(c) + 1 for c in classes)
    runs = 3 if k > 20 else 5
    walk = statistics.median(per_call(lambda: _twin_walk(rows, classes, n, k), 0.2) for _ in range(runs))
    count = statistics.median(per_call(lambda: _weight_counts(code.basis.rows, n), 0.2) for _ in range(runs))
    print(json.dumps({'code': label, 'n': n, 'k': k, 'vectors': vectors,
        'vector_us': round(walk / vectors * 1e6, 3), 'word_ns': round(count / (1 << k) * 1e9, 2),
        'cost_in_words': round(walk / vectors / (count / (1 << k)), 1)}))
"""


def twin_vector_cost(parent: Path) -> dict:
    out = {}
    for side, tree in (("parent", parent), ("change", ROOT)):
        out[side] = [json.loads(line) for line in run_in(tree, TWIN_COST)]
        for row in out[side]:
            print("twin_vector_cost", side, row, flush=True)
    return out


ITEMS = """
import json, statistics, sys, timeit
sys.path.insert(0, 'perfbench')
import hypercode
from workloads import generate
for item in generate('exhaustive', 3):
    parse = hypercode.parse_matrix if item.fmt == 'matrix' else hypercode.parse_hypergraph
    analyze = hypercode.analyze_matrix if item.fmt == 'matrix' else hypercode.analyze_hypergraph
    call = lambda: analyze(parse(item.text), method=item.method, weights=True).to_json()
    call()
    print(json.dumps([item.label, statistics.median(timeit.repeat(call, number=1, repeat=15)) * 1e3]))
"""


def items_ms(parent: Path, runs: int) -> dict:
    out: dict = {}
    for i in range(runs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            for line in run_in(parent if side == "parent" else ROOT, ITEMS):
                label, ms = json.loads(line)
                out.setdefault(label, {"parent": [], "change": []})[side].append(round(ms, 2))
    return out


REPORTS = """
import hashlib, json, sys
sys.path.insert(0, 'perfbench')
import hypercode, run
from workloads import WORKLOADS, generate
api = run.plain_api(hypercode)
for workload in WORKLOADS:
    for seed in (1, 7):
        digest = hashlib.sha256()
        for item in generate(workload, seed):
            digest.update(json.dumps(run.run_item(api, item), sort_keys=True).encode())
        print(json.dumps([workload, seed, digest.hexdigest()[:16]]))
"""


def reports(parent: Path) -> dict:
    out = {side: run_in(tree, REPORTS) for side, tree in (("parent", parent), ("change", ROOT))}
    out["identical"] = out["parent"] == out["change"]
    return out


EARLY_EXITS = """
import json, random
from hypercode import BitMatrix, analyze_matrix, from_generator
rng = random.Random(2034)
for k in (14, 15, 16):
    for n in (24, 40, 64):
        for _ in range(3):
            matrix = BitMatrix(k, n, tuple(rng.getrandbits(n) for _ in range(k)))
            rank = from_generator(matrix).dimension
            d = analyze_matrix(matrix, method='codeword').min_distance
            for method in ('codeword', 'both'):
                for threshold in range(d + 2):
                    report = analyze_matrix(matrix, method=method, early_exit=threshold).to_json()
                    print(json.dumps([k, n, rank, method, threshold, report]))
"""


def early_exits(parent: Path) -> dict:
    sides = {side: run_in(tree, EARLY_EXITS) for side, tree in (("parent", parent), ("change", ROOT))}
    changed = [
        {"k": k, "n": n, "rank": rank, "method": method, "early_exit": t, "parent": a, "change": json.loads(b)[5]}
        for (k, n, rank, method, t, a), b in (
            (json.loads(a), b) for a, b in zip(sides["parent"], sides["change"]) if a != b
        )
    ]
    return {
        "runs": len(sides["change"]),
        "changed": len(changed),
        "changed_ranks": sorted({row["rank"] for row in changed}),
        "changes": changed,
    }


def trace(parent: Path, seed: int, seconds: int) -> dict:
    out = {}
    for side, tree in (("parent", parent), ("change", ROOT)):
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exhaustive", "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1"],
            cwd=tree, capture_output=True, text=True, check=True,
        )
        metrics = json.loads(result.stdout.splitlines()[-1])["metrics"]
        out[side] = {
            name: metrics[name]["value"] for name in ("codes.codeword_scan.calls", "codes.codeword_scan.busy_s")
        }
    return out


def verify() -> str:
    result = subprocess.run(
        [sys.executable, "-m", "hypercode", "verify"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return result.stdout.strip().splitlines()[-1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=301)
    parser.add_argument("--workloads", nargs="+", default=["exhaustive", "many-small", "selfdual"])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_block_geometry.json")
    args = parser.parse_args()
    record = {
        "what": "the count kernel in blocks of 2^15 words, whose read-out passes on "
        "the groups a plane leaves whole",
        "machine": f"{os.cpu_count()}-core VM, Python {platform.python_version()}",
        "t_sweep": t_sweep(runs=5),
        "one_block_at_the_bound": one_block_at_the_bound(runs=6),
        "twin_vector_cost": twin_vector_cost(args.parent),
        "chunk_tables_kb": {t: sum(map(len, codes._chunk_tables(t))) << t >> 13 for t in (14, 15)},
        "items_ms": items_ms(args.parent, runs=4),
        "reports": reports(args.parent),
        "early_exits": early_exits(args.parent),
        "trace": trace(args.parent, args.seed, 10),
        "verify": verify(),
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
