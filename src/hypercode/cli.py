"""Command-line interface.

Subcommands:

* ``family``        generate a built-in hypergraph family as a text file
* ``analyze``       code parameters and self-duality flags for an input file
* ``verify``        run the built-in verification suite
* ``selfdual-scan`` seeded random search for self-orthogonal/self-dual codes
* ``poly``          polynomial helpers (gcd, cyclic code dimension)

``analyze`` reads either text format of :mod:`hypercode.textformat`, named
by ``--format`` or detected.  Files use 0-based vertex indices;
human-facing output (reports, findings) uses 1-based labels.

``selfdual-scan`` is the package's one loop over
:func:`hypercode.hypergraph.connected_uniform_samples`.  It prints one JSON
finding per self-orthogonal sample on stdout.  On stderr it prints the
sample and finding counts, the self-orthogonal and self-dual hits by
(vertices, edges) and, for graphs (``--uniform 2``), the number of samples
on which :func:`hypercode.codes.graph_self_duality_criterion` disagrees
with the direct check; the criterion is checked on every sample.

Every subcommand exits with one of these codes, and on codes 2-4 prints
one ``error:`` line on stderr:

* 0 success
* 1 a failed ``verify`` criterion, or stdout closed by its reader
* 2 bad input, bad parameters or an unwritable output file
* 3 the two distance engines disagree
* 4 a search would exceed the enumeration cap

Options that argparse itself rejects also exit 2, after its usage line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Sequence

from .analysis import METHODS, EngineDisagreement, analyze_hypergraph, analyze_matrix
from .codes import (
    from_generator,
    graph_self_duality_criterion,
    is_self_dual,
    is_self_orthogonal,
    structural_self_orthogonality,
)
from .gf2core import format_row, parse_row
from .gf2poly import cyclic_code_dimension, poly_gcd
from .hypergraph import (
    Hypergraph,
    block_row,
    circulant_hypergraph,
    complete_3partite,
    connected_uniform_samples,
    fano_circulant,
    incidence_matrix,
    projective_geometry,
)
from .limits import MAX_VERTICES, EnumerationCapError, check_size
from .textformat import FORMATS, format_hypergraph, parse_text
from .verify import run_criteria

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_DISAGREEMENT = 3
EXIT_CAP = 4

# The errors a subcommand raises, in the order ``main`` tests them.
_EXIT_CODES = {
    EngineDisagreement: EXIT_DISAGREEMENT,
    EnumerationCapError: EXIT_CAP,
    ValueError: EXIT_PARSE,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercode",
        description="Binary linear codes from hypergraph incidence matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    family = sub.add_parser("family", help="generate a built-in hypergraph family")
    family.add_argument(
        "kind",
        choices=["k3partite", "pg", "fano", "circulant", "block-circulant"],
        help="which family to generate",
    )
    family.add_argument("--n", type=int, help="part size (k3partite) or dimension (pg)")
    family.add_argument("--row", help="first row of a circulant incidence matrix, e.g. 1000101")
    family.add_argument("--k", type=int, help="block count for block-circulant")
    family.add_argument("--m", type=int, help="block width for block-circulant")
    family.add_argument("-o", "--output", help="output file (default: stdout)")

    analyze = sub.add_parser("analyze", help="analyze a hypergraph or matrix file")
    analyze.add_argument("input", help="input path, or '-' for stdin")
    analyze.add_argument(
        "--format",
        choices=FORMATS,
        default="auto",
        help="input format; auto asks for --format when both formats parse",
    )
    analyze.add_argument(
        "--method",
        choices=METHODS,
        default="both",
        help="distance engine; 'both' cross-checks the two",
    )
    analyze.add_argument("--weights", action="store_true", help="include the weight distribution")
    analyze.add_argument(
        "--early-exit",
        type=int,
        metavar="T",
        help="stop once a weight <= T is found; the result is then an upper bound",
    )
    analyze.add_argument("--csv", action="store_true", help="emit one flat CSV row instead of JSON")

    verify = sub.add_parser("verify", help="run the built-in verification suite")
    verify.add_argument("--only", help="run only the criteria matching this name or tag")

    scan = sub.add_parser(
        "selfdual-scan",
        help="seeded random search for self-orthogonal/self-dual incidence codes",
    )
    scan.add_argument("--n-max", type=int, required=True, help="largest vertex count to sample")
    scan.add_argument("--seed", type=int, required=True, help="RNG seed (reproducibility is required)")
    scan.add_argument("--budget", type=int, default=1000, help="number of samples to draw")
    scan.add_argument("--uniform", type=int, default=2, help="edge size of the sampled hypergraphs")

    poly = sub.add_parser("poly", help="polynomial helpers")
    poly_sub = poly.add_subparsers(dest="poly_command", required=True)
    gcd = poly_sub.add_parser("gcd", help="gcd of two polynomials over GF(2)")
    gcd.add_argument("first", help="ascending coefficient string, e.g. 1000101")
    gcd.add_argument("second", help="ascending coefficient string")
    cyc = poly_sub.add_parser(
        "cyclic-dim", help="dimension of the cyclic code generated by a first row"
    )
    cyc.add_argument(
        "row", help="first row of the circulant, e.g. 1000101; its length is the code length"
    )

    return parser


def _make_family(args: argparse.Namespace) -> Hypergraph:
    # Each family's counts are checked in closed form, before anything is
    # built, by the rule that parse_hypergraph applies to its text.
    kind = args.kind
    if kind == "k3partite":
        if args.n is None or args.n < 1:
            raise ValueError("k3partite needs --n >= 1")
        check_size(3 * args.n, args.n**3, 3 * args.n**3)
        return complete_3partite(args.n)
    if kind == "pg":
        if args.n is None or args.n < 3:
            raise ValueError("pg needs --n >= 3")
        if args.n > 64:
            # Far past the size rule; refused here so that 1 << n stays small.
            vertices = f"2^{args.n} - 1 vertices"
            raise ValueError(f"pg --n {args.n} has {vertices}, over the limit of {MAX_VERTICES}")
        points = (1 << args.n) - 1
        lines = points * ((1 << (args.n - 1)) - 1) // 3
        check_size(points, lines, 3 * lines)
        return projective_geometry(args.n)
    if kind == "fano":
        return fano_circulant()
    if kind == "circulant":
        if not args.row:
            raise ValueError("circulant needs --row")
        # One vertex and one edge per entry of the row, each edge as wide as
        # the row has ones.
        length = len(args.row)
        check_size(length, length, length * args.row.count("1"))
        return circulant_hypergraph(args.row)
    if args.k is None or args.m is None or args.k < 1 or args.m < 1:
        raise ValueError("block-circulant needs --k >= 1 and --m >= 1")
    length = 2 * args.k * args.m
    check_size(length, length, length * args.k * args.m)
    return circulant_hypergraph(block_row(args.k, args.m))


def _cmd_family(args: argparse.Namespace) -> int:
    text = format_hypergraph(_make_family(args))
    if args.output:
        try:
            with open(args.output, "w", encoding="ascii") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _read_input(path: str) -> str:
    """The input text with its line breaks untranslated, for the parsers to split.

    Raises ValueError naming the path when it cannot be read or is not ASCII.
    """
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
        return data.decode("ascii")
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _cmd_analyze(args: argparse.Namespace) -> int:
    text = _read_input(args.input)
    try:
        parsed = parse_text(text, args.format)
    except ValueError as exc:
        raise ValueError(f"cannot parse {args.input}: {exc}") from exc
    analyze = analyze_hypergraph if isinstance(parsed, Hypergraph) else analyze_matrix
    report = analyze(parsed, method=args.method, weights=args.weights, early_exit=args.early_exit)
    sys.stdout.write(report.to_csv() if args.csv else report.to_json() + "\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_criteria(args.only)
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail} ({result.elapsed:.2f}s)")
        if not result.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return EXIT_OK if failed == 0 else EXIT_FAILURE


def _cmd_selfdual_scan(args: argparse.Namespace) -> int:
    samples = connected_uniform_samples(
        args.seed, n_max=args.n_max, budget=args.budget, uniform=args.uniform
    )
    graphs = args.uniform == 2
    scanned = 0
    mismatches = 0
    orthogonal_hits: Counter[tuple[int, int]] = Counter()
    dual_hits: Counter[tuple[int, int]] = Counter()
    for hypergraph in samples:
        scanned += 1
        code = from_generator(incidence_matrix(hypergraph))
        self_orth = is_self_orthogonal(code)
        self_dual = is_self_dual(code)
        if graphs:
            criterion = graph_self_duality_criterion(hypergraph)
            mismatches += criterion != self_dual
        if not self_orth:  # a self-dual code is self-orthogonal too
            continue
        key = (hypergraph.num_vertices, hypergraph.num_edges)
        orthogonal_hits[key] += 1
        if self_dual:
            dual_hits[key] += 1
        finding = {
            "vertices": hypergraph.num_vertices,
            "edge_count": hypergraph.num_edges,
            "edges_1based": [[v + 1 for v in edge] for edge in hypergraph.edges],
            "rank": code.dimension,
            "self_orthogonal": self_orth,
            "self_dual": self_dual,
            "structural_self_orthogonal": structural_self_orthogonality(hypergraph),
        }
        if graphs:
            finding["criterion_self_dual"] = criterion
            finding["criterion_agrees"] = criterion == self_dual
        print(json.dumps(finding))
    summary = [
        f"scanned {scanned} connected samples, {orthogonal_hits.total()} findings",
        f"self-orthogonal hits by (n, m): {dict(sorted(orthogonal_hits.items()))}",
        f"self-dual hits by (n, m): {dict(sorted(dual_hits.items()))}",
    ]
    if graphs:
        summary.append(
            f"counting criterion vs direct check: {mismatches} mismatches "
            f"on {scanned} connected graphs"
        )
    print("\n".join(summary), file=sys.stderr)
    return EXIT_OK


def _parse_poly(text: str) -> int:
    if not text:
        raise ValueError("empty polynomial string")
    return parse_row(text)


def _cmd_poly(args: argparse.Namespace) -> int:
    if args.poly_command == "gcd":
        g = poly_gcd(_parse_poly(args.first), _parse_poly(args.second))
        print(format_row(g, g.bit_length()))
    else:
        print(cyclic_code_dimension(_parse_poly(args.row), len(args.row)))
    return EXIT_OK


_COMMANDS = {
    "family": _cmd_family,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "selfdual-scan": _cmd_selfdual_scan,
    "poly": _cmd_poly,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at the null device so
        # that the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILURE
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(exit_code for kind, exit_code in _EXIT_CODES.items() if isinstance(exc, kind))
    return code


if __name__ == "__main__":
    sys.exit(main())
