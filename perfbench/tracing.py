"""Spans around the calls into hypercode's modules, recorded from outside.

The traced run replaces, for its duration only, the names through which
``hypercode.analysis`` and ``hypercode.codes`` reach the layers below them,
and wraps the benchmark's own calls into the public API.  Nothing under
``src/`` changes.  Each span keeps its layer, the item it served, start and
end, the span that caused it, and a work count; spans stay in memory and are
summarised after the pass.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

# Layer of each span, with the work it counts.
LAYERS = (
    "parse",  # bytes of input text
    "hypergraph.build",
    "gf2core.elimination",  # rows x cols of every reduced matrix
    "codes.codeword_scan",  # 2^k - 1 words
    "hypergraph.subset_scan",  # 2^n - 1 words
    "codes.weight_distribution",  # 2^k words
    "gf2core.gram",
    "codes.criteria",
    "analysis",
    "analysis.to_json",
)

# Layers that must record calls on each workload; zero calls means a span
# was lost, not that the layer became free.
EXPECTED_BUSY = {
    "exhaustive": (
        "parse",
        "hypergraph.build",
        "gf2core.elimination",
        "codes.codeword_scan",
        "hypergraph.subset_scan",
        "codes.weight_distribution",
        "gf2core.gram",
        "analysis",
        "analysis.to_json",
    ),
    "selfdual": ("parse", "hypergraph.build", "gf2core.elimination", "gf2core.gram", "codes.criteria"),
}
EXPECTED_BUSY["many-small"] = EXPECTED_BUSY["exhaustive"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, item, start, end, parent, work, k]
        self.item = -1
        self._open: list[int] = []

    def wrap(self, layer: str, fn, work=None):
        """``fn`` recorded as a span of ``layer``; ``work(result, *args)``
        gives the span's work count, or (count, code dimension)."""
        spans = self.spans
        open_ = self._open

        def traced(*args, **kwargs):
            record = [layer, self.item, 0.0, 0.0, open_[-1] if open_ else -1, 0, None]
            open_.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                open_.pop()
            if work is not None:
                count = work(result, *args)
                if isinstance(count, tuple):
                    record[5], record[6] = count
                else:
                    record[5] = count
            return result

        return traced

    def summary(self, items: int) -> dict:
        """Per-layer calls, busy seconds and work for the spans recorded so far."""
        layers = {name: {"calls": 0, "busy_s": 0.0, "work": 0} for name in LAYERS}
        child_s = [0.0] * len(self.spans)
        item_k: dict[int, int] = {}
        distinct = 0
        for layer, item, start, end, parent, work, k in self.spans:
            elapsed = end - start
            entry = layers[layer]
            entry["calls"] += 1
            entry["work"] += work
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != layer:
                ancestor = self.spans[ancestor][4]
            if ancestor < 0:
                entry["busy_s"] += elapsed
            if parent >= 0:
                child_s[parent] += elapsed
            if k is not None:
                item_k.setdefault(item, k)
            if layer == "hypergraph.subset_scan":
                distinct += 1 << item_k.get(item, 0)
        analysis_self = sum(
            end - start - child_s[i]
            for i, (layer, _, start, end, *_rest) in enumerate(self.spans)
            if layer == "analysis"
        )
        layers["analysis"]["self_s"] = analysis_self
        layers["hypergraph.subset_scan"]["distinct"] = distinct
        layers["items"] = items
        return layers


def _cells(result, *matrices):
    return sum(m.num_rows * m.num_cols for m in matrices)


def _replace(module, name: str, value, saved: list) -> None:
    if not hasattr(module, name):
        raise RuntimeError(f"layer boundary {module.__name__}.{name} no longer exists")
    saved.append((module, name, getattr(module, name)))
    setattr(module, name, value)


@contextmanager
def instrumented(hc, tracer: Tracer, plain: SimpleNamespace):
    """Install the spans and yield the traced version of ``plain``."""
    analysis, codes = hc.analysis, hc.codes
    wrap = tracer.wrap
    saved: list = []
    try:
        from_generator = analysis.from_generator

        def forced_code(matrix):
            # Reduce at once, under the elimination span, so that later
            # callers do not absorb the cached rref.
            code = from_generator(matrix)
            code.dimension
            return code

        _replace(codes, "rref", wrap("gf2core.elimination", codes.rref,
                                     lambda res, m: (m.num_rows * m.num_cols, len(res[1]))), saved)
        _replace(codes, "gram", wrap("gf2core.gram", codes.gram), saved)
        _replace(analysis, "from_generator", forced_code, saved)
        _replace(analysis, "incidence_matrix", wrap("hypergraph.build", analysis.incidence_matrix), saved)
        _replace(analysis, "from_incidence_matrix",
                 wrap("hypergraph.build", analysis.from_incidence_matrix), saved)
        _replace(analysis, "codeword_distance_search",
                 wrap("codes.codeword_scan", analysis.codeword_distance_search,
                      lambda res, code: (1 << code.dimension) - 1), saved)
        _replace(analysis, "eonv_distance_search",
                 wrap("hypergraph.subset_scan", analysis.eonv_distance_search,
                      lambda res, hg: (1 << hg.num_vertices) - 1), saved)
        _replace(analysis, "weight_distribution",
                 wrap("codes.weight_distribution", analysis.weight_distribution,
                      lambda res, code: 1 << code.dimension), saved)
        yield SimpleNamespace(
            parse_hypergraph=wrap("parse", plain.parse_hypergraph, lambda res, text: len(text)),
            parse_matrix=wrap("parse", plain.parse_matrix, lambda res, text: len(text)),
            analyze_hypergraph=wrap("analysis", plain.analyze_hypergraph),
            analyze_matrix=wrap("analysis", plain.analyze_matrix),
            to_json=wrap("analysis.to_json", plain.to_json),
            incidence_matrix=wrap("hypergraph.build", plain.incidence_matrix),
            linear_code=plain.linear_code,
            is_self_orthogonal=plain.is_self_orthogonal,
            is_self_dual=plain.is_self_dual,
            nullspace_basis=wrap("gf2core.elimination", plain.nullspace_basis, _cells),
            row_space_equal=wrap("gf2core.elimination", plain.row_space_equal, _cells),
            structural_self_orthogonality=wrap("codes.criteria", plain.structural_self_orthogonality),
            graph_self_duality_criterion=wrap("codes.criteria", plain.graph_self_duality_criterion),
        )
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics: busy time is the median over the traced passes;
    calls and work repeat exactly from pass to pass."""
    last = summaries[-1]

    def busy(layer):
        return statistics.median(s[layer]["busy_s"] for s in summaries)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = last[layer]["calls"]
        out[f"{layer}.busy_s"] = busy(layer)
    for layer in ("codes.codeword_scan", "hypergraph.subset_scan", "codes.weight_distribution"):
        out[f"{layer}.words"] = last[layer]["work"]
        out[f"{layer}.words_per_s"] = rate(last[layer]["work"], busy(layer))
    scan = last["hypergraph.subset_scan"]
    out["hypergraph.subset_scan.distinct_ratio"] = rate(scan["distinct"], scan["work"] + scan["calls"])
    elimination = last["gf2core.elimination"]["work"]
    out["gf2core.elimination.cells"] = elimination
    out["gf2core.elimination.cells_per_s"] = rate(elimination, busy("gf2core.elimination"))
    out["gf2core.gram.calls_per_item"] = last["gf2core.gram"]["calls"] / last["items"]
    out["parse.bytes"] = last["parse"]["work"]
    out["parse.mb_per_s"] = rate(last["parse"]["work"] / 1e6, busy("parse"))
    out["analysis.self_s"] = statistics.median(s["analysis"]["self_s"] for s in summaries)
    return out
