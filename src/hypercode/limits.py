"""Limits: the evaluation budget of the search engines and the input size.

Minimum-distance computation is exponential, so every search checks its
number of weight evaluations against one cap before it starts.  The cap is
the ``HYPERCODE_ENUM_CAP`` environment variable, read at call time, or
``DEFAULT_ENUM_CAP`` when it is unset; there is no other way to set it.
Exceeding the cap raises instead of silently truncating: an exhaustive
answer is either exact or an error, never a quiet bound.

``MAX_VERTICES`` bounds the vertex count of a parsed or generated
hypergraph, ``MAX_EDGES`` the edge count of a generated one,
``MAX_INCIDENCES`` its vertex-edge incidences, the sum of its edge sizes,
and ``MAX_CELLS`` the n x m incidence matrix of a parsed or sampled one;
all four are fixed.
"""

from __future__ import annotations

import os

DEFAULT_ENUM_CAP = 1 << 32
ENUM_CAP_ENV_VAR = "HYPERCODE_ENUM_CAP"

# A hypergraph holds one incidence row per vertex, and the row list is
# allocated from the header count alone, so a header of 10**15 vertices
# would exhaust memory before any later check could reject the file.  2**20
# vertices cost 8 MB of row slots; that is far above every test and
# benchmark input (the largest has 127 vertices) and every family small
# enough to generate.
MAX_VERTICES = 1 << 20

# A family is built edge by edge from its parameters alone, so
# ``hypercode family k3partite --n 2000`` would exhaust memory on its 8e9
# edges.  2**20 edges keep every family that tests, verify and the
# benchmark use (the largest is complete_3partite(16), with 4096 edges).
MAX_EDGES = 1 << 20

# Each incidence is one vertex index stored in one edge, so a family of few
# but wide edges passes both bounds above and still exhausts memory:
# ``block-circulant --k 1 --m 300000`` asks for 600000 edges of 300000
# vertices each.  2**22 is above 3 * MAX_EDGES, so it never binds before
# MAX_EDGES on the 3-uniform families, and far above every family that tests,
# verify and the benchmark use (the largest, block_circulant(8,16), has 32768).
MAX_INCIDENCES = 1 << 22

# The incidence rows are dense, n * m / 8 bytes, however few incidences the
# text lists: a 1.3 MB file of 200000 vertices and 200000 one-vertex edges
# asks for 5 GB of rows.  2**26 cells are 8 MB of rows; that is far above
# every test, verify and benchmark input (the largest, PG(6,2), has
# 127 x 2667 = 338709) and above 2**20 vertices on one edge.
MAX_CELLS = 1 << 26


class EnumerationCapError(RuntimeError):
    """A search would exceed the configured evaluation budget."""


def check_enum_cap(search: str, bits: int) -> None:
    """Raise :class:`EnumerationCapError` if a scan of 2^bits - 1 words exceeds the cap.

    Every search walks the nonzero words of a ``bits``-bit space.
    ``search`` names it in the message, for example ``codeword search needs
    15 evaluations, above the cap of 4``.  Above 64 bits the count is
    written ``2^bits - 1``: in decimal it would run to thousands of digits,
    and ``str`` refuses more than 4300.  A cap of ASCII digits is read
    exactly whatever its length; a message shows at most 32 characters of
    a value from the environment.
    """
    raw = os.environ.get(ENUM_CAP_ENV_VAR)
    digits = None  # the cap as set, when it is a string of ASCII digits
    if raw is None:
        limit = DEFAULT_ENUM_CAP
    elif raw.isascii() and raw.isdigit():
        # int() refuses more than 4300 digits at once.
        digits = raw.lstrip("0") or "0"
        limit = 0
        for start in range(0, len(digits), 4300):
            piece = digits[start : start + 4300]
            limit = limit * 10 ** len(piece) + int(piece)
    else:
        try:
            limit = int(raw)
        except ValueError:
            more = f" and {len(raw) - 32} more characters" if len(raw) > 32 else ""
            raise ValueError(
                f"{ENUM_CAP_ENV_VAR} must be an integer, got {raw[:32]!r}{more}"
            ) from None
        if limit < 0:
            raise ValueError(f"{ENUM_CAP_ENV_VAR} must be non-negative, got {limit}")
    evaluations = (1 << bits) - 1
    if evaluations > limit:
        count = evaluations if bits <= 64 else f"2^{bits} - 1"
        cap = str(limit) if digits is None else digits
        if len(cap) > 32:
            cap = f"{cap[:32]}... ({len(cap)} digits)"
        raise EnumerationCapError(
            f"{search} needs {count} evaluations, above the cap of {cap}"
        )
