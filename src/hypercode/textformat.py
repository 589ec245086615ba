"""The two input text formats, and telling them apart.

Every 0/1 matrix with nonzero columns is the incidence matrix of a
hypergraph, so one object has two texts: edges as vertex indices, or rows
as '0'/'1' strings (read by :func:`hypercode.gf2core.parse_row`).  This is
the only module that knows them.  Both share one line rule
(:func:`split_lines`), one decimal-token rule ``0|[1-9][0-9]*`` and one
``<a> <b>`` header reader; :func:`parse_text` reads a named or detected format.
"""

from __future__ import annotations

import json
import re

from .gf2core import BitMatrix, parse_row
from .hypergraph import Hypergraph
from .limits import check_size

FORMATS = ("auto", "hypergraph", "matrix")

_NOT_TEXT = re.compile(r"[^\t\n -~]")
# Each byte as 1 for a digit, 0 for a blank and 2 for anything else.
_TOKEN_CLASSES = bytes(1 if c in b"0123456789" else 0 if c in b" \t\n" else 2 for c in range(256))
_ZERO_LED_TOKEN = re.compile(rb"[ \t\n]0[0-9]")
_TOKEN_RULE = "hypergraph tokens must be plain decimal integers, 0|[1-9][0-9]*"
_BLANKS = re.compile(r"[ \t]+")


def split_lines(text: str, rule: str) -> list[str]:
    r"""The lines of an input text; both text formats are read through it.

    The text may hold printable ASCII, tabs and line breaks only.  Lines
    split on ``\n`` alone; a ``\r`` directly before it is dropped, so CRLF
    files read like LF files, and a final ``\n`` starts no empty line.
    Tokens are then separated by spaces and tabs only, where
    ``str.splitlines`` and ``str.split`` would also break at ``\x0b``,
    ``\x0c``, ``\x1c``-``\x1f`` and non-ASCII separators.  Any other
    character raises ``ValueError`` led by ``rule``, which states the
    format's rule in its own terms.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    bad = _NOT_TEXT.search(text)
    if bad:
        line = text.count("\n", 0, bad.start()) + 1
        raise ValueError(f"{rule}; found {bad.group()!r} on line {line}")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _read_header(lines: list[str], token_lines: int, header: str, fields: str, rule: str) -> tuple[int, int, int]:
    # The two counts of the '<a> <b>' header, lines[0], and the number of
    # tokens on lines 1 to ``token_lines`` - 1.  Every token of the first
    # ``token_lines`` lines, the header's at least, must pass the one
    # decimal-token rule, 0|[1-9][0-9]*: int alone would also take 01, +1,
    # 1_0 and non-ASCII digits.  C-level passes stand in for a
    # token-by-token match: nothing but digits and blanks, and no zero that
    # starts a longer token; a token starts wherever a digit follows a
    # blank.  ``header`` names the header in the errors, ``fields`` are its
    # two counts, and ``rule`` is the error for a token that breaks the rule.
    tokens = lines[0].split()
    if len(tokens) != 2:
        raise ValueError(f"{header} must be {fields}, got {lines[0]!r}")
    data = ("\n" + "\n".join(lines[:token_lines])).encode("ascii")
    classes = data.translate(_TOKEN_CLASSES)
    if 2 in classes or _ZERO_LED_TOKEN.search(data):
        raise ValueError(rule)
    try:
        return int(tokens[0]), int(tokens[1]), classes.count(b"\0\1") - 2
    except ValueError:
        # Past the token rule, only a count over int's digit limit fails.
        token = max(tokens, key=len)
        raise ValueError(f"{header} count {token[:32]}... of {len(token)} digits is too large") from None


def format_matrix(matrix: BitMatrix) -> str:
    """Serialize to the matrix text format.

    First line ``<num_rows> <num_cols>``, then one line per row of
    contiguous '0'/'1' characters.  Round-trips bit-exactly through
    :func:`parse_matrix`.
    """
    return "\n".join([f"{matrix.num_rows} {matrix.num_cols}", *matrix.to_strings()]) + "\n"


def parse_matrix(text: str) -> BitMatrix:
    r"""Parse the matrix text format produced by :func:`format_matrix`.

    Lines are read by :func:`split_lines`: ASCII only, split on ``\n`` (CRLF
    accepted), no control character but tab.  Both header tokens must be
    plain decimal integers, ``0|[1-9][0-9]*``, the rule
    :func:`parse_hypergraph` applies to its tokens.  ``int`` alone would
    also take ``+2``, ``0_2`` and non-ASCII digits.
    """
    lines = split_lines(text, "matrix text must be ASCII with tab as its only control character")
    if not lines:
        raise ValueError("empty matrix file")
    rule = f"matrix header must be two plain decimal integers, 0|[1-9][0-9]*, got {lines[0]!r}"
    num_rows, num_cols, _ = _read_header(lines, 1, "matrix header", "'<rows> <cols>'", rule)
    data = lines[1 : 1 + num_rows]
    if len(data) < num_rows:
        raise ValueError(f"expected {num_rows} row lines, found {len(data)}")
    for extra in lines[1 + num_rows :]:
        if extra.strip():
            raise ValueError(f"unexpected trailing content: {extra!r}")
    rows = [line.strip() for line in data]
    for i, row in enumerate(rows):
        if len(row) != num_cols or not set(row) <= {"0", "1"}:
            raise ValueError(f"row {i} must be {num_cols} characters of '0'/'1', got {row!r}")
    return BitMatrix(num_rows, num_cols, tuple(map(parse_row, rows)))


def format_hypergraph(hypergraph: Hypergraph) -> str:
    """Serialize to the hypergraph text format.

    First line ``<num_vertices> <num_edges>``, then one line per edge of
    space-separated ascending 0-based vertex indices.  Round-trips
    bit-exactly (including repeated edges and edge order).
    """
    header = f"{hypergraph.num_vertices} {hypergraph.num_edges}"
    return "\n".join([header, *(" ".join(map(str, edge)) for edge in hypergraph.edges)]) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    r"""Parse the hypergraph text format; blank lines and '#' comments are ignored.

    Lines are read by :func:`split_lines`: the text must be ASCII, lines
    split on ``\n`` (CRLF accepted) and tab is the only control character
    allowed.  Tokens are separated by any run of spaces or tabs, and every
    token must be a plain decimal integer, ``0|[1-9][0-9]*``; ``int`` alone
    would also take ``01``, ``+1``, ``1_0`` and non-ASCII digits, and so let
    a matrix file such as ``2 2 / 01 / 01`` pass for a hypergraph.  The
    header's counts and the number of vertex tokens on the edge lines, the
    incidences, must pass :func:`hypercode.limits.check_size`; they are
    checked before anything is built.
    """
    raw = split_lines(text, _TOKEN_RULE)
    lines = [line for line in map(str.strip, raw) if line and line[0] != "#"]
    if not lines:
        raise ValueError("empty hypergraph file")
    num_vertices, num_edges, incidences = _read_header(
        lines, len(lines), "hypergraph header", "'<vertices> <edges>'", _TOKEN_RULE
    )
    check_size(num_vertices, num_edges, incidences)
    body = lines[1:]
    if len(body) != num_edges:
        raise ValueError(f"expected {num_edges} edge lines, found {len(body)}")
    # One json.loads decodes every edge line.  It must run after the token
    # rule of _read_header: 0|[1-9][0-9]* is exactly JSON's integer grammar,
    # so -1, 1.5, 1e3, true and a comma inside a line, which JSON would
    # take, never reach it.  The lines are stripped, so blanks only
    # separate tokens, and each run of them becomes one comma.
    joined = "],[".join(body)
    if "\t" in joined or "  " in joined:
        joined = _BLANKS.sub(",", joined)
    else:
        joined = joined.replace(" ", ",")
    try:
        edges = tuple(map(tuple, json.loads(f"[[{joined}]]"))) if body else ()
    except ValueError:
        # Like int, the decoder refuses a token over the interpreter's digit
        # limit; such a token has more digits than the vertex count.
        width = len(str(num_vertices))
        numbers = [i for i, line in enumerate(raw, 1) if line.strip()[:1] not in ("", "#")]
        number = next(n for n, line in zip(numbers[1:], body) if max(map(len, line.split())) > width)
        raise ValueError(
            f"a vertex on line {number} is out of range for {num_vertices} vertices"
        ) from None
    # Hypergraph sorts every edge, so an edge out of order is one it changed;
    # only then, or when it raises, is each edge checked, so that the first
    # edge out of order is still the error reported.
    try:
        hypergraph = Hypergraph(num_vertices, edges)
    except ValueError as exc:
        error = exc
    else:
        if hypergraph.edges == edges:
            return hypergraph
    for line, vertices in zip(body, edges):
        if list(vertices) != sorted(vertices):
            raise ValueError(f"edge vertices must be ascending: {line!r}")
    raise error


def parse_text(text: str, fmt: str = "auto") -> Hypergraph | BitMatrix:
    """Parse ``text`` in the format ``fmt``, one of :data:`FORMATS`.

    ``"auto"`` takes the one format that accepts the text.  A text valid in
    both formats, such as ``1 1 / 0``, raises ``ValueError`` asking for a
    format; a text valid in neither raises one that gives both parsers'
    reasons, the hypergraph's first.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    if fmt != "auto":
        return parse_hypergraph(text) if fmt == "hypergraph" else parse_matrix(text)
    parsed, errors = [], []
    for parse in (parse_hypergraph, parse_matrix):
        try:
            parsed.append(parse(text))
        except ValueError as exc:
            errors.append(exc)
    if not parsed:
        raise ValueError(f"not a hypergraph ({errors[0]}) and not a matrix ({errors[1]})")
    if errors:
        return parsed[0]
    raise ValueError(
        "the text is both a valid hypergraph and a valid matrix; choose one with --format"
    )
