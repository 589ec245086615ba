#!/usr/bin/env python3
"""Measure the subset kernel against the parent commit, and record it as
JSON: first for its halving over the edge classes
(``BENCH_subset_halving.json``), then for its columns read from Four
Russians tables, each quotient edge read once (``BENCH_subset_columns.json``).

Usage:

    python scripts/bench_subset_halving.py --parent DIR [--rounds 2]
        [--pairs 10] [--seconds 30] [--seed 351]
        [--workloads exhaustive many-small selfdual]
        [--out BENCH_subset_halving.json]

DIR holds the parent commit's files (``git archive PARENT | tar -x -C DIR``).
The script records:

- ``searches``: ``eonv_distance_search`` at both commits, each in a process
  of its own, on ``exhaustive``'s random hypergraphs at seeds 1 and 7, its
  block circulants (whose quotients fit one block) at seed 1,
  ``complete_3partite(7..10)``, PG(4,2), a connected random multigraph of
  30 vertices and 59 edges, and random hypergraphs of (n = 24, m = 200) and
  (n = 26, m = 400): the median time of runs that fill at least a second
  (at least 3, or one run past 10 s), the ``tracemalloc`` peak of one more
  run, the result, and the block size t that the kernel was given.  The
  commits take turns, ``--rounds`` times, and each figure is the median
  over the rounds;
- ``reports``: sha256 over every item's output of each workload at seeds 1
  and 7, at both commits, as in ``scripts/bench_block_geometry.py``;
- ``verify``: the last line of ``hypercode verify`` at this commit;
- ``lines``: as in ``scripts/bench_macwilliams.py``;
- ``pairs``: alternated ``perfbench/run.py --trace 0`` runs of both commits,
  as in ``scripts/bench_macwilliams.py``.

``--pairs 0`` leaves the benchmark runs out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
from pathlib import Path

from bench_block_geometry import reports, verify
from bench_macwilliams import ROOT, line_count, pairs, run_in

SEARCHES = """
import json, random, statistics, sys, time, tracemalloc
sys.path.insert(0, 'perfbench')
import hypercode.codes as codes
from hypercode import (Hypergraph, complete_3partite, eonv_distance_search, parse_hypergraph,
                       projective_geometry, random_hypergraph)
from workloads import generate


def multigraph(rng, n, m):
    # A random spanning tree, so the graph is connected, and m - n + 1
    # further random edges, repeats allowed.
    edges = [tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)]
    edges += [tuple(sorted(rng.sample(range(n), 2))) for _ in range(m - n + 1)]
    return Hypergraph(n, tuple(edges))


cases = [
    (f'{item.label} seed {seed}', parse_hypergraph(item.text))
    for seed in (1, 7)
    for item in generate('exhaustive', seed)
    if item.label.startswith('random_hypergraph') or seed == 1 and item.label.startswith('block_circulant')
]
cases += [(f'complete_3partite({n})', complete_3partite(n)) for n in range(7, 11)]
cases += [('PG(4,2)', projective_geometry(5)), ('multigraph(n=30,m=59)', multigraph(random.Random(2035), 30, 59))]
cases += [(f'random_hypergraph(n={n},m={m})', random_hypergraph(random.Random(n), n, m)) for n, m in ((24, 200), (26, 400))]

blocks = []
kernel = codes._subset_minima
codes._subset_minima = lambda *args: blocks.append(args[2]) or kernel(*args)  # (n, edges or patterns, t)
for label, hypergraph in cases:
    hypergraph.vertex_rows
    times = []
    while len(times) < 200 and (len(times) < 3 or sum(times) < 1) and sum(times) < 10:
        start = time.perf_counter()
        result = eonv_distance_search(hypergraph)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    eonv_distance_search(hypergraph)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps([label, {
        'seconds': statistics.median(times), 'runs': len(times), 'peak_mib': peak / 2**20,
        'result': [result.value, result.exact, result.witness], 't': blocks[-1] if blocks else None,
    }]), flush=True)
"""


def searches(parent: Path, rounds: int) -> dict:
    seen: dict = {}
    for i in range(rounds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            for line in run_in(parent if side == "parent" else ROOT, SEARCHES):
                label, row = json.loads(line)
                print(side, label, row, flush=True)
                seen.setdefault(label, {"parent": [], "change": []})[side].append(row)
    out = {}
    for label, sides in seen.items():
        row = {}
        for side, runs in sides.items():
            row[side] = {
                "seconds": round(statistics.median(r["seconds"] for r in runs), 5),
                "peak_mib": round(statistics.median(r["peak_mib"] for r in runs), 3),
                "t": runs[0]["t"],
                "result": runs[0]["result"],
            }
        row["change_over_parent"] = round(row["change"]["seconds"] / row["parent"]["seconds"], 3)
        row["same_result"] = all(r["result"] == row["parent"]["result"] for runs in sides.values() for r in runs)
        out[label] = row
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=351)
    parser.add_argument("--workloads", nargs="+", default=["exhaustive", "many-small", "selfdual"])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_subset_halving.json")
    args = parser.parse_args()
    record = {
        "what": f"subset kernel searches, reports and benchmark pairs, change against parent, into {args.out.name}",
        "machine": f"{os.cpu_count()}-core VM, Python {platform.python_version()}",
        "searches": searches(args.parent, args.rounds),
        "reports": reports(args.parent),
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
