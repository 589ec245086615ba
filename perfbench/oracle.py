"""Per-item correctness checks.

``check(item, output)`` returns the list of problems with one result; an
empty list means the result is right.  The checks use only the item's own
expectations (see ``workloads``) and the result itself, never the library:

* closed forms: ``k3partite(n)`` is ``[n^3, 3n-2, n^2]``, the Fano weights
  are ``{0:1, 3:7, 4:7, 7:1}``, PG(2,2) is ``[7,4,3]``, block circulants
  meet ``block_circulant_bound``;
* the smallest nonzero weight in the distribution is the distance, and the
  counts sum to 2^k; the subset engine's witness has that weight;
* the structural, Gram and code routes to self-orthogonality agree, and so
  do the graph criterion and row space against null space;
* the null space has length - k rows.
"""

from __future__ import annotations

import json


def check(item, output) -> list[str]:
    if item.task == "analyze":
        return check_report(item, output)
    return check_selfdual(item, output)


def check_report(item, text: str) -> list[str]:
    """Check the JSON report that ``hypercode analyze --weights`` would print."""
    try:
        report = json.loads(text)
        length = report["length"]
        k = report["dimension"]
        d = report["min_distance"]
        weights = {int(w): c for w, c in report["weight_distribution"].items()}
        so = report["self_orthogonal"]
        sd = report["self_dual"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]
    expect = item.expect
    problems = []
    if length != item.length:
        problems.append(f"length {length}, expected {item.length}")
    if k != expect["dimension"]:
        problems.append(f"dimension {k}, expected {expect['dimension']}")
    if report.get("min_distance_method") != item.method or report.get("distance_exact") is not True:
        problems.append("not an exact search by the requested method")
    if "min_distance" in expect and d != expect["min_distance"]:
        problems.append(f"distance {d}, expected {expect['min_distance']}")
    if "d_lower" in expect and not (isinstance(d, int) and d >= expect["d_lower"]):
        problems.append(f"distance {d} below the bound {expect['d_lower']}")
    if "weights" in expect and weights != expect["weights"]:
        problems.append(f"weights {weights}, expected {expect['weights']}")
    if sum(weights.values()) != 1 << k or weights.get(0) != 1:
        problems.append("weight counts do not describe 2^k codewords")
    if min((w for w in weights if w), default=None) != d:
        problems.append(f"distance {d} is not the least nonzero weight")
    if item.method in ("eonv", "both") and item.fmt == "hypergraph":
        witness = report.get("witness_subset") or []
        word = 0
        for label in witness:
            word ^= item.rows[label - 1] if 0 < label <= len(item.rows) else 0
        if not witness or word.bit_count() != d:
            problems.append(f"witness {witness} does not have weight {d}")
    if so != expect["self_orthogonal"]:
        problems.append(f"self_orthogonal {so}, expected {expect['self_orthogonal']}")
    if sd != (so and 2 * k == length) or sd != expect["self_dual"]:
        problems.append(f"self_dual {sd}, expected {expect['self_dual']}")
    return problems


def check_selfdual(item, out: dict) -> list[str]:
    """Check the answers of the self-duality routes on one input."""
    expect = item.expect
    k = out.get("dimension")
    so = out.get("self_orthogonal")
    sd = out.get("self_dual")
    problems = []
    if k != expect["dimension"]:
        problems.append(f"dimension {k}, expected {expect['dimension']}")
    if so != expect["self_orthogonal"]:
        problems.append(f"self_orthogonal {so}, Gram route says {expect['self_orthogonal']}")
    if sd != expect["self_dual"] or sd != (so and k is not None and 2 * k == item.length):
        problems.append(f"self_dual {sd}, expected {expect['self_dual']}")
    if k is None or out.get("nullspace_rows") != item.length - k:
        problems.append(f"null space has {out.get('nullspace_rows')} rows, expected length - k")
    if item.task == "selfdual":
        if out.get("structural") != so:
            problems.append("structural self-orthogonality disagrees with the code")
        if out.get("row_space_is_null_space") != sd:
            problems.append("row space against null space disagrees with self_dual")
        if item.uniformity == 2 and out.get("graph_criterion") != sd:
            problems.append("graph criterion disagrees with self_dual")
    return problems
