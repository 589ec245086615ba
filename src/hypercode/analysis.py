"""Analysis reports: code parameters plus self-duality flags for one input.

This is the layer the CLI prints and the verification suite consumes.  The
report is a plain object with stable field names; vertex labels in the
serialized forms are 1-based (files stay 0-based).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .codes import (
    LinearCode,
    _check_cap,
    _check_subset_cap,
    codeword_distance_search,
    eonv_distance_search,
    from_generator,
    is_self_dual,
    is_self_orthogonal,
    weight_distribution,
)
from .gf2core import BitMatrix
from .hypergraph import Hypergraph, from_incidence_matrix, incidence_matrix
from .limits import EnumerationCapError

METHODS = ("codeword", "eonv", "both")

CSV_COLUMNS = (
    "length",
    "dimension",
    "min_distance",
    "min_distance_method",
    "witness_subset",
    "self_orthogonal",
    "self_dual",
    "weight_distribution",
    "distance_exact",
)


class EngineDisagreement(RuntimeError):
    """The two distance engines returned different exact values.

    This is a correctness alarm, never an expected outcome.
    """


@dataclass(frozen=True)
class AnalysisReport:
    length: int
    dimension: int
    min_distance: int | None
    method: str
    witness: tuple[int, ...] | None
    self_orthogonal: bool
    self_dual: bool
    weight_dist: dict[int, int] | None
    distance_exact: bool | None

    def to_json_dict(self) -> dict:
        out: dict = {"length": self.length, "dimension": self.dimension}
        if self.min_distance is not None:
            out["min_distance"] = self.min_distance
        out["min_distance_method"] = self.method
        if self.witness is not None:
            out["witness_subset"] = [v + 1 for v in self.witness]
        out["self_orthogonal"] = self.self_orthogonal
        out["self_dual"] = self.self_dual
        if self.weight_dist is not None:
            out["weight_distribution"] = {str(w): c for w, c in sorted(self.weight_dist.items())}
        if self.distance_exact is not None:
            out["distance_exact"] = self.distance_exact
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_csv(self) -> str:
        """Header plus one row: the fields of :meth:`to_json_dict`, flattened.

        An omitted field is an empty cell, a flag is ``true``/``false``, the
        witness is space-separated and the weight distribution reads
        ``w:count;...``.
        """

        def cell(value):
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, list):
                return " ".join(map(str, value))
            if isinstance(value, dict):
                return ";".join(f"{w}:{c}" for w, c in value.items())
            return value

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerow({key: cell(value) for key, value in self.to_json_dict().items()})
        return buf.getvalue()


def _analyze(
    code: LinearCode,
    eonv_input: Hypergraph | None,
    *,
    method: str,
    weights: bool,
    early_exit: int | None,
) -> AnalysisReport:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if early_exit is not None and early_exit < 0:
        # No weight is negative, so the scan could never stop early.
        raise ValueError(f"early_exit must be non-negative, got {early_exit}")

    # So that a cap error costs no scan, every cap is checked before any
    # scan runs, and an error names the first scan whose cap fails.  Each
    # engine checks its own cap as it starts, so only the subset search's,
    # under ``both``, is checked here.  The weights charge the codeword
    # search's figure, 2^side - 1 words, and side <= rank <= the subset
    # search's vertices, so their cap never fails first.
    if code.dimension > 0 and method == "both":
        try:
            _check_subset_cap(eonv_input)
        except EnumerationCapError:
            _check_cap(code, "codeword search")
            raise

    value: int | None = None
    witness: tuple[int, ...] | None = None
    exact: bool | None = None
    if code.dimension > 0:
        results = []
        if method != "eonv":
            results.append(codeword_distance_search(code, early_exit=early_exit))
        if method != "codeword":
            results.append(eonv_distance_search(eonv_input, early_exit=early_exit))
            witness = results[-1].witness
        # Inexact values are upper bounds, so only two exact ones must agree.
        values = [result.value for result in results]
        exact = all(result.exact for result in results)
        value = min(values)
        if exact and value != max(values):
            raise EngineDisagreement(
                f"codeword engine found d={values[0]} but the subset engine found d={values[1]}"
            )

    dist = weight_distribution(code) if weights else None
    return AnalysisReport(
        length=code.length,
        dimension=code.dimension,
        min_distance=value,
        method=method,
        witness=witness,
        self_orthogonal=is_self_orthogonal(code),
        self_dual=is_self_dual(code),
        weight_dist=dist,
        distance_exact=exact,
    )


def analyze_hypergraph(
    hypergraph: Hypergraph,
    *,
    method: str = "both",
    weights: bool = False,
    early_exit: int | None = None,
) -> AnalysisReport:
    """Analyze the binary code generated by a hypergraph's incidence matrix.

    With ``method="both"`` the two distance engines are cross-checked and a
    mismatch of exact values raises :class:`EngineDisagreement`.
    """
    code = from_generator(incidence_matrix(hypergraph))
    return _analyze(
        code,
        hypergraph,
        method=method,
        weights=weights,
        early_exit=early_exit,
    )


def analyze_matrix(
    matrix: BitMatrix,
    *,
    method: str = "both",
    weights: bool = False,
    early_exit: int | None = None,
) -> AnalysisReport:
    """Analyze the binary code generated by an arbitrary matrix.

    The subset engine runs on :func:`hypercode.hypergraph.from_incidence_matrix`:
    the rows are its vertices and the nonzero columns its edges.  Zero
    columns are left out for that engine only, which leaves every codeword
    weight unchanged.
    """
    code = from_generator(matrix)
    eonv_input = None
    if method != "codeword" and code.dimension > 0:
        eonv_input = from_incidence_matrix(matrix)
    return _analyze(
        code,
        eonv_input,
        method=method,
        weights=weights,
        early_exit=early_exit,
    )
