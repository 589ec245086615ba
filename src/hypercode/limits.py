"""Limits: the evaluation budget of the search engines and the input size.

Minimum-distance computation is exponential, so every search checks its
number of weight evaluations against one cap before it starts.  The cap is
the ``HYPERCODE_ENUM_CAP`` environment variable, read at call time, or
``DEFAULT_ENUM_CAP`` when it is unset; there is no other way to set it.
Exceeding the cap raises instead of silently truncating: an exhaustive
answer is either exact or an error, never a quiet bound.

``MAX_VERTICES`` bounds the vertex count of a parsed or generated
hypergraph, ``MAX_EDGES`` the edge count of a generated one and
``MAX_INCIDENCES`` its vertex-edge incidences, the sum of its edge sizes;
all three are fixed.
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


class EnumerationCapError(RuntimeError):
    """A search would exceed the configured evaluation budget."""


def check_enum_cap(search: str, evaluations: int) -> None:
    """Raise :class:`EnumerationCapError` if ``evaluations`` exceed the cap.

    ``search`` names the search in the message, for example
    ``codeword search needs 15 evaluations, above the cap of 4``.
    """
    raw = os.environ.get(ENUM_CAP_ENV_VAR)
    if raw is None:
        limit = DEFAULT_ENUM_CAP
    else:
        try:
            limit = int(raw)
        except ValueError:
            raise ValueError(
                f"{ENUM_CAP_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
        if limit < 0:
            raise ValueError(f"{ENUM_CAP_ENV_VAR} must be non-negative, got {limit}")
    if evaluations > limit:
        raise EnumerationCapError(
            f"{search} needs {evaluations} evaluations, above the cap of {limit}"
        )
