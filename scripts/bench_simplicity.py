#!/usr/bin/env python3
"""Check that a change which only deletes code keeps every report and every
speed, and record it as JSON.

Usage:

    python scripts/bench_simplicity.py --parent DIR [--pairs 10] [--seconds 30]
        [--seed 331] [--workloads many-small exhaustive selfdual]
        [--out BENCH_simplicity.json]

DIR holds the parent commit's files (``git archive PARENT | tar -x -C DIR``).
The script records:

- ``reports``: sha256 over every item's output of each workload at seeds 1
  and 7, at both commits, as in ``scripts/bench_block_geometry.py``;
- ``count_blocks_ms``: ``codes._count_blocks`` on random full-rank codes
  [512,19], [512,18], [64,19] and [2048,17], and on [20,10] and [16,9],
  the sizes of many-small's counts, at both commits in one process (the
  parent's package loaded as ``parent_hypercode``): medians of 20 runs,
  the commit that runs first alternating;
- ``twin_classes_us``: ``codes._twin_classes`` on the generator rows of
  PG(4,2), ``complete_3partite(7)`` and ``(10)`` and random full-rank
  [512,19] and [64,19], with the words of each code's scanned side, timed
  as ``count_blocks_ms``, and whether both commits find the same classes;
- ``verify``: the last line of ``hypercode verify`` at this commit;
- ``lines``: as in ``scripts/bench_macwilliams.py``;
- ``pairs``: alternated ``perfbench/run.py --trace 0`` runs of both commits,
  as in ``scripts/bench_macwilliams.py``.

``--pairs 0`` leaves the benchmark runs out.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import statistics
import sys
from pathlib import Path

from bench_block_geometry import full_rank, reports, verify
from bench_macwilliams import ROOT, line_count, pairs, per_call

from hypercode import (
    BitMatrix,
    codes,
    complete_3partite,
    from_generator,
    incidence_matrix,
    projective_geometry,
)


def parent_codes(parent: Path):
    """The parent's ``hypercode.codes``, loaded as the package
    ``parent_hypercode`` beside this commit's, whose modules import each
    other only relatively."""
    package = parent / "src" / "hypercode"
    spec = importlib.util.spec_from_file_location(
        "parent_hypercode", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["parent_hypercode"] = module
    spec.loader.exec_module(module)
    return importlib.import_module("parent_hypercode.codes")


def in_turn(sides: dict, call, runs: int, scale: float) -> dict:
    # Both commits in one process, the side that runs first alternating,
    # so that a process that runs slow as a whole slows both alike.
    times = {side: [] for side in sides}
    for i in range(runs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            times[side].append(per_call(lambda: call(sides[side]), 0.1) * scale)
    row = {side: round(statistics.median(values), 4) for side, values in times.items()}
    row["change_over_parent"] = round(row["change"] / row["parent"], 3)
    row["change_lower_in_runs"] = f"{sum(c < p for p, c in zip(times['parent'], times['change']))} of {runs}"
    return row


def count_blocks_ms(sides: dict, runs: int) -> dict:
    rng = random.Random(2036)
    out = {}
    for n, k in ((512, 19), (512, 18), (64, 19), (2048, 17), (20, 10), (16, 9)):
        rows = full_rank(rng, k, n)
        row = in_turn(sides, lambda side: side._count_blocks(rows, n), runs, 1e3)
        print("count_blocks_ms", f"[{n},{k}]", row, flush=True)
        out[f"[{n},{k}]"] = row
    return out


def twin_classes_us(sides: dict, runs: int) -> dict:
    # The generator's rows and the words of the side that the rule weighs,
    # as ``LinearCode._twins`` passes them.
    cases = {
        name: from_generator(incidence_matrix(hg))
        for name, hg in (
            ("PG(4,2)", projective_geometry(5)),
            ("k3partite(7)", complete_3partite(7)),
            ("k3partite(10)", complete_3partite(10)),
        )
    }
    rng = random.Random(2037)
    for n, k in ((512, 19), (64, 19)):
        cases[f"random [{n},{k}]"] = from_generator(BitMatrix(k, n, full_rank(rng, k, n)))
    out = {}
    for name, code in cases.items():
        rows, n, words = code.generator.rows, code.length, 1 << code._side
        found = {side: sides[side]._twin_classes(rows, n, words) for side in sides}
        as_sets = {side: classes and sorted(map(sorted, classes)) for side, classes in found.items()}
        row = in_turn(sides, lambda side: side._twin_classes(rows, n, words), runs, 1e6)
        row["class_sizes"] = found["change"] and sorted(map(len, found["change"]))
        row["same_classes"] = as_sets["parent"] == as_sets["change"]
        print("twin_classes_us", name, row, flush=True)
        out[name] = row
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=331)
    parser.add_argument("--workloads", nargs="+", default=["many-small", "exhaustive", "selfdual"])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_simplicity.json")
    args = parser.parse_args()
    sides = {"parent": parent_codes(args.parent), "change": codes}
    record = {
        "what": "one copy of each decision: equal twin rows, the eonv --weights cap checks, "
        "the family sizes; the same reports and speeds with less code",
        "machine": f"{os.cpu_count()}-core VM, Python {platform.python_version()}",
        "reports": reports(args.parent),
        "count_blocks_ms": count_blocks_ms(sides, runs=20),
        "twin_classes_us": twin_classes_us(sides, runs=20),
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
