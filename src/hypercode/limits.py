"""Evaluation budget shared by the exhaustive search engines.

Minimum-distance computation is exponential, so every search checks its
number of weight evaluations against one cap before it starts.  The cap is
the ``HYPERCODE_ENUM_CAP`` environment variable, read at call time, or
``DEFAULT_ENUM_CAP`` when it is unset; there is no other way to set it.
Exceeding the cap raises instead of silently truncating: an exhaustive
answer is either exact or an error, never a quiet bound.
"""

from __future__ import annotations

import os

DEFAULT_ENUM_CAP = 1 << 32
ENUM_CAP_ENV_VAR = "HYPERCODE_ENUM_CAP"


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
