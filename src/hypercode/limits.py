"""Limits: the evaluation budget of the search engines and the input size.

Minimum-distance computation is exponential, so every search checks its
number of weight evaluations against one cap before it starts.  The cap is
the ``HYPERCODE_ENUM_CAP`` environment variable, read at call time, or
``DEFAULT_ENUM_CAP`` when it is unset; there is no other way to set it.
Exceeding the cap raises instead of silently truncating: an exhaustive
answer is either exact or an error, never a quiet bound.

:func:`check_size` is the one rule on a hypergraph's size.  The family
builders (from their closed-form counts), the hypergraph parser and the
random sampler all apply it before building anything, so every ``family``
output parses.  It bounds no edge
count: every edge is nonempty, so edges <= incidences, and every family
passes 2^20 edges only where it breaks the cell bound already
(``k3partite --n 102``, ``pg --n 12``, a circulant of 2^20 + 1 entries).
"""

from __future__ import annotations

import os

DEFAULT_ENUM_CAP = 1 << 32
ENUM_CAP_ENV_VAR = "HYPERCODE_ENUM_CAP"

# A hypergraph holds one incidence row per vertex, and the row list is
# allocated from the vertex count alone, so a header of 10**15 vertices and
# no edges would exhaust memory before any later check could reject the
# file.  2**20 vertices cost 8 MB of row slots; that is far above every test
# and benchmark input (the largest has 127 vertices).
MAX_VERTICES = 1 << 20

# The incidence rows are dense, n * m / 8 bytes, however few incidences the
# text lists: a 1.3 MB file of 200000 vertices and 200000 one-vertex edges
# asks for 5 GB of rows.  2**26 cells are 8 MB of rows; that is far above
# every test, verify and benchmark input (the largest, PG(6,2), has
# 127 x 2667 = 338709) and above 2**20 vertices on one edge.
MAX_CELLS = 1 << 26

# Each incidence is one vertex index stored in one edge, so a few wide
# edges pass both bounds above and still take memory: a circulant row of
# 8192 ones has 8192 x 8192 cells but 2**26 stored ints.  2**22 is far above
# every family that tests, verify and the benchmark use (the largest,
# block_circulant(8,16), has 32768).
MAX_INCIDENCES = 1 << 22


def check_size(vertices: int, edges: int, incidences: int) -> None:
    """Raise ``ValueError`` naming the first bound these counts break, if any.

    ``incidences`` is the sum of the edge sizes.  The bounds, in order:
    ``vertices`` <= MAX_VERTICES, ``vertices * edges`` <= MAX_CELLS and
    ``incidences`` <= MAX_INCIDENCES.
    """
    if vertices > MAX_VERTICES:
        raise ValueError(f"{vertices} vertices exceed the limit of {MAX_VERTICES}")
    if vertices * edges > MAX_CELLS:
        cells = f"{MAX_CELLS} incidence matrix cells"
        raise ValueError(f"{vertices} vertices x {edges} edges exceed the limit of {cells}")
    if incidences > MAX_INCIDENCES:
        raise ValueError(f"{incidences} incidences exceed the limit of {MAX_INCIDENCES}")


class EnumerationCapError(RuntimeError):
    """A search would exceed the configured evaluation budget."""


def check_enum_cap(search: str, bits: int) -> None:
    """Raise :class:`EnumerationCapError` if a scan of 2^bits - 1 words exceeds the cap.

    Every search walks the nonzero words of a ``bits``-bit space.
    ``search`` names it in the message, for example ``codeword search needs
    15 evaluations, above the cap of 4``.  Above 64 bits the count is
    written ``2^bits - 1``: in decimal it would run to thousands of digits,
    and ``str`` refuses more than 4300.  Only ASCII digits, after an
    optional ``-``, are a cap, as in the file formats; they are read exactly
    whatever their length, so a negative cap is always refused as negative.
    A message shows at most 32 characters of a value from the environment.
    """
    raw = os.environ.get(ENUM_CAP_ENV_VAR)
    if raw is None:
        limit = DEFAULT_ENUM_CAP
    else:
        # The cap's magnitude in decimal.
        digits = raw.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            more = f" and {len(raw) - 32} more characters" if len(raw) > 32 else ""
            raise ValueError(f"{ENUM_CAP_ENV_VAR} must be an integer, got {raw[:32]!r}{more}")
        # int() refuses more than 4300 digits at once.
        digits = digits.lstrip("0") or "0"
        limit = 0
        for start in range(0, len(digits), 4300):
            piece = digits[start : start + 4300]
            limit = limit * 10 ** len(piece) + int(piece)
        if raw[0] == "-":
            limit = -limit
    evaluations = (1 << bits) - 1
    if evaluations <= limit:
        return
    if raw is None:
        digits = str(limit)
    value = "-" * (limit < 0) + digits
    if len(value) > 32:
        value = f"{value[:32]}... ({len(digits)} digits)"
    if limit < 0:
        raise ValueError(f"{ENUM_CAP_ENV_VAR} must be non-negative, got {value}")
    count = evaluations if bits <= 64 else f"2^{bits} - 1"
    raise EnumerationCapError(f"{search} needs {count} evaluations, above the cap of {value}")
