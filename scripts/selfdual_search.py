#!/usr/bin/env python3
"""Aggregate statistics from a seeded self-duality scan.

Samples connected r-uniform hypergraphs and tabulates how often the
incidence code is self-orthogonal or self-dual, grouped by (vertices,
edges).  For 2-uniform samples the counting criterion (edge count 2n-2 plus
even pairwise edge intersections) is compared against the direct check on
every sample, not just the hits.  Usage:

    python scripts/selfdual_search.py --seed 7 [--n-max 6] [--budget 3000] [--uniform 2]
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from hypercode import (
    connected_uniform_samples,
    from_generator,
    graph_self_duality_criterion,
    incidence_matrix,
    is_self_dual,
    is_self_orthogonal,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--budget", type=int, default=3000)
    parser.add_argument("--uniform", type=int, default=2)
    args = parser.parse_args()

    try:
        samples = connected_uniform_samples(
            args.seed, n_max=args.n_max, budget=args.budget, uniform=args.uniform
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    connected = 0
    self_orthogonal = Counter()
    self_dual = Counter()
    criterion_checked = 0
    criterion_mismatches = 0

    for hypergraph in samples:
        connected += 1
        key = (hypergraph.num_vertices, hypergraph.num_edges)
        code = from_generator(incidence_matrix(hypergraph))
        if is_self_orthogonal(code):
            self_orthogonal[key] += 1
        dual_now = is_self_dual(code)
        if dual_now:
            self_dual[key] += 1
        if args.uniform == 2:
            criterion_checked += 1
            if graph_self_duality_criterion(hypergraph) != dual_now:
                criterion_mismatches += 1

    print(f"connected samples: {connected} / {args.budget}")
    print(f"self-orthogonal hits by (n, m): {dict(sorted(self_orthogonal.items()))}")
    print(f"self-dual hits by (n, m):       {dict(sorted(self_dual.items()))}")
    if args.uniform == 2:
        print(
            f"counting criterion vs direct check: {criterion_mismatches} mismatches "
            f"on {criterion_checked} connected graphs"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
