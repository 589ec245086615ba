"""A fixed piece of pure-Python work that measures how fast the machine is.

On a shared host the same code can run up to twice as slow for seconds or
minutes at a time.  The benchmark times this loop next to the library's
work and reports the library's times as multiples of it, so that a slow
spell slows both and leaves the ratio in place.  The loop never changes
with the library: it uses only this file.

Its kind of work was chosen by how closely its time followed the
workloads' times through slow spells: small tuples, sorting, dicts and JSON
text.  Gray-code XOR walks, elimination on packed rows and splitting text
into ints were tried too; each slowed down more than the workloads did,
even the scans, which are XOR walks themselves.
"""

from __future__ import annotations

import json
import random
from time import perf_counter

_rng = random.Random("perfbench reference")
_RECORDS = [
    {"name": f"r{i}", "edges": [[_rng.randrange(9) for _ in range(3)] for _ in range(6)]}
    for i in range(50)
]


def _records(records) -> list:
    out = []
    for record in records:
        edges = sorted(tuple(sorted(edge)) for edge in record["edges"])
        index = {edge: i for i, edge in enumerate(edges)}
        out.append(json.dumps({"k": len(index), "edges": [list(e) for e in edges], "name": record["name"]}))
    return out


def work() -> list:
    return _records(_RECORDS)


def sample(seconds: float = 0.0, runs: int = 3) -> float:
    """Seconds one run of the loop takes now: the mean over back-to-back runs
    lasting at least ``seconds`` in all, and at least ``runs`` of them."""
    count = 0
    start = perf_counter()
    while True:
        work()
        count += 1
        elapsed = perf_counter() - start
        if count >= runs and elapsed >= seconds:
            return elapsed / count
