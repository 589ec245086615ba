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
- ``verify``: the last line of ``hypercode verify`` at this commit;
- ``lines``: non-blank, non-comment lines of ``src/hypercode`` (docstrings
  counted) at both commits;
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

from bench_block_geometry import reports, verify
from bench_macwilliams import ROOT, pairs, per_call

from hypercode import BitMatrix, codes, from_generator


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


def count_blocks_ms(parent: Path, runs: int) -> dict:
    # Both commits in one process, the side that runs first alternating,
    # so that a process that runs slow as a whole slows both alike.
    sides = {"parent": parent_codes(parent), "change": codes}
    rng = random.Random(2036)
    out = {}
    for n, k in ((512, 19), (512, 18), (64, 19), (2048, 17), (20, 10), (16, 9)):
        while True:
            code = from_generator(BitMatrix(k, n, tuple(rng.getrandbits(n) for _ in range(k))))
            if code.dimension == k:
                break
        rows = code.basis.rows
        times = {side: [] for side in sides}
        for i in range(runs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                count = sides[side]._count_blocks
                times[side].append(per_call(lambda: count(rows, n), 0.1) * 1e3)
        row = {side: round(statistics.median(values), 4) for side, values in times.items()}
        row["change_over_parent"] = round(row["change"] / row["parent"], 3)
        row["change_lower_in_runs"] = f"{sum(c < p for p, c in zip(times['parent'], times['change']))} of {runs}"
        print("count_blocks_ms", f"[{n},{k}]", row, flush=True)
        out[f"[{n},{k}]"] = row
    return out


def code_lines(tree: Path) -> int:
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
    parser.add_argument("--seed", type=int, default=331)
    parser.add_argument("--workloads", nargs="+", default=["many-small", "exhaustive", "selfdual"])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_simplicity.json")
    args = parser.parse_args()
    record = {
        "what": "one side decision per code, one class build per count, one cap reader, "
        "no test-only twin mode: the same reports and speeds with less code",
        "machine": f"{os.cpu_count()}-core VM, Python {platform.python_version()}",
        "reports": reports(args.parent),
        "count_blocks_ms": count_blocks_ms(args.parent, runs=20),
        "verify": verify(),
        "lines": {"parent": code_lines(args.parent), "change": code_lines(ROOT)},
    }
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
