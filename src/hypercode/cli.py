"""Command-line interface.

Subcommands:

* ``family``        generate a built-in hypergraph family as a text file
* ``analyze``       code parameters and self-duality flags for an input file
* ``verify``        run the built-in verification suite
* ``selfdual-scan`` seeded random search for self-orthogonal/self-dual codes
* ``poly``          polynomial helpers (gcd, cyclic code dimension)

``analyze`` reads either text format of :mod:`hypercode.textformat`, named
by ``--format`` or detected.  Files use 0-based vertex indices;
human-facing output (reports, findings) uses 1-based labels.  Exit codes
for ``analyze``: 2 on parse failure, 3 on engine disagreement, 4 on an
exceeded enumeration cap; ``verify`` exits 1 when a criterion fails, 2 on
an unknown ``--only`` tag and 4 when a criterion's search exceeds the cap;
``family`` exits 2 when it cannot write its ``-o`` file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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
from .limits import EnumerationCapError
from .textformat import FORMATS, format_hypergraph, parse_text
from .verify import run_criteria

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_DISAGREEMENT = 3
EXIT_CAP = 4


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
        help="stop at the first weight <= T; the result is then an upper bound",
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
    kind = args.kind
    if kind == "k3partite":
        if args.n is None or args.n < 1:
            raise ValueError("k3partite needs --n >= 1")
        return complete_3partite(args.n)
    if kind == "pg":
        if args.n is None or args.n < 3:
            raise ValueError("pg needs --n >= 3")
        return projective_geometry(args.n)
    if kind == "fano":
        return fano_circulant()
    if kind == "circulant":
        if not args.row:
            raise ValueError("circulant needs --row")
        return circulant_hypergraph(args.row)
    if args.k is None or args.m is None or args.k < 1 or args.m < 1:
        raise ValueError("block-circulant needs --k >= 1 and --m >= 1")
    return circulant_hypergraph(block_row(args.k, args.m))


def _cmd_family(args: argparse.Namespace) -> int:
    try:
        hypergraph = _make_family(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    text = format_hypergraph(hypergraph)
    if args.output:
        try:
            with open(args.output, "w", encoding="ascii") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _read_input(path: str) -> str:
    """The input text with its line breaks untranslated, for the parsers to split.

    Raises OSError, or ValueError for non-ASCII input.
    """
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    return data.decode("ascii")


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        text = _read_input(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        parsed = parse_text(text, args.format)
    except ValueError as exc:
        print(f"error: cannot parse {args.input}: {exc}", file=sys.stderr)
        return EXIT_PARSE

    analyze = analyze_hypergraph if isinstance(parsed, Hypergraph) else analyze_matrix
    try:
        report = analyze(
            parsed, method=args.method, weights=args.weights, early_exit=args.early_exit
        )
    except EngineDisagreement as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    sys.stdout.write(report.to_csv() if args.csv else report.to_json() + "\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        results = run_criteria(args.only)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail} ({result.elapsed:.2f}s)")
        if not result.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return EXIT_OK if failed == 0 else EXIT_FAILURE


def _cmd_selfdual_scan(args: argparse.Namespace) -> int:
    try:
        samples = connected_uniform_samples(
            args.seed, n_max=args.n_max, budget=args.budget, uniform=args.uniform
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    scanned = 0
    findings = 0
    for hypergraph in samples:
        scanned += 1
        code = from_generator(incidence_matrix(hypergraph))
        self_orth = is_self_orthogonal(code)
        self_dual = is_self_dual(code)
        if not (self_orth or self_dual):
            continue
        findings += 1
        finding = {
            "vertices": hypergraph.num_vertices,
            "edge_count": hypergraph.num_edges,
            "edges_1based": [[v + 1 for v in edge] for edge in hypergraph.edges],
            "rank": code.dimension,
            "self_orthogonal": self_orth,
            "self_dual": self_dual,
            "structural_self_orthogonal": structural_self_orthogonality(hypergraph),
        }
        if args.uniform == 2:
            criterion = graph_self_duality_criterion(hypergraph)
            finding["criterion_self_dual"] = criterion
            finding["criterion_agrees"] = criterion == self_dual
        print(json.dumps(finding))
    print(
        f"scanned {scanned} connected samples, {findings} findings",
        file=sys.stderr,
    )
    return EXIT_OK


def _parse_poly(text: str) -> int:
    if not text:
        raise ValueError("empty polynomial string")
    return parse_row(text)


def _cmd_poly(args: argparse.Namespace) -> int:
    try:
        if args.poly_command == "gcd":
            g = poly_gcd(_parse_poly(args.first), _parse_poly(args.second))
            print(format_row(g, g.bit_length()))
        else:
            print(cyclic_code_dimension(_parse_poly(args.row), len(args.row)))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
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
    return code


if __name__ == "__main__":
    sys.exit(main())
