"""Report building: field contracts, engine cross-check, serialization."""

from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hypercode.codes as codes
from conftest import bit_matrices, hypergraphs
from hypercode import (
    BitMatrix,
    EngineDisagreement,
    EnumerationCapError,
    analyze_hypergraph,
    analyze_matrix,
    complete_3partite,
    fano_circulant,
    from_generator,
    from_incidence_matrix,
    incidence_matrix,
    is_self_dual,
    is_self_orthogonal,
    parse_matrix,
)
from hypercode.analysis import CSV_COLUMNS


def both_predicates(code):
    is_self_orthogonal(code)
    is_self_dual(code)
    return code


class TestAnalyzeHypergraph:
    def test_fano_report(self):
        report = analyze_hypergraph(fano_circulant(), method="both", weights=True)
        assert (report.length, report.dimension, report.min_distance) == (7, 4, 3)
        assert report.method == "both"
        assert report.witness == (0,)
        assert report.distance_exact is True
        assert not report.self_orthogonal and not report.self_dual
        assert report.weight_dist == {0: 1, 3: 7, 4: 7, 7: 1}

    def test_methods_agree_on_value(self):
        hg = complete_3partite(2)
        by_codewords = analyze_hypergraph(hg, method="codeword")
        by_subsets = analyze_hypergraph(hg, method="eonv")
        assert by_codewords.min_distance == by_subsets.min_distance == 4
        assert by_codewords.witness is None
        assert by_subsets.witness == (0,)

    def test_early_exit_flags_inexact(self):
        report = analyze_hypergraph(fano_circulant(), method="both", early_exit=7)
        assert report.distance_exact is False
        assert report.min_distance >= 3

    def test_both_takes_the_lower_of_two_inexact_bounds(self, monkeypatch):
        # With the count kernel's blocks lowered to 2 words and T = 13, the
        # codeword engine stops after its first block, {0, r0}, at the
        # weight-13 basis row r0.  The subset engine reads its one block
        # whole and finds d = 9, the edge set of vertex 1: two different
        # upper bounds, which is no disagreement.
        monkeypatch.setattr(codes, "_BLOCK_BITS", 1)
        hg = complete_3partite(3)
        by_codewords = analyze_hypergraph(hg, method="codeword", early_exit=13)
        by_subsets = analyze_hypergraph(hg, method="eonv", early_exit=13)
        assert (by_codewords.min_distance, by_codewords.distance_exact) == (13, False)
        assert (by_subsets.min_distance, by_subsets.distance_exact) == (9, False)
        report = analyze_hypergraph(hg, method="both", early_exit=13)
        assert (report.min_distance, report.distance_exact) == (9, False)
        assert report.witness == by_subsets.witness == (0,)

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            analyze_hypergraph(fano_circulant(), method="magic")

    def test_negative_early_exit_rejected(self):
        with pytest.raises(ValueError, match="^early_exit must be non-negative, got -1$"):
            analyze_hypergraph(fano_circulant(), early_exit=-1)

    def test_cap_propagates(self, monkeypatch):
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "3")
        with pytest.raises(EnumerationCapError):
            analyze_hypergraph(fano_circulant())

    @pytest.mark.parametrize(
        "method, weights, cap, message",
        [
            ("both", False, 200, "subset search needs 511"),
            ("both", True, 100, "codeword search needs 127"),
            ("eonv", True, 200, "subset search needs 511"),
            ("codeword", True, 100, "codeword search needs 127"),
            ("both", True, 511, None),
        ],
    )
    def test_every_cap_is_checked_before_any_scan(self, monkeypatch, method, weights, cap, message):
        # complete_3partite(3), [27,7] on 9 vertices: the codeword search
        # and the weights charge 2^7 - 1 = 127 words, the subset search
        # 2^9 - 1 = 511 subsets.  A cap error names the first scan whose
        # cap fails, in the order the scans run, and no scan has run.
        scans = []
        for name in ("_weight_counts", "_subset_blocks"):
            real = getattr(codes, name)
            monkeypatch.setattr(codes, name, lambda *args, real=real, name=name: scans.append(name) or real(*args))
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", str(cap))
        hg = complete_3partite(3)
        if message is None:
            analyze_hypergraph(hg, method=method, weights=weights)
            assert scans == ["_weight_counts", "_subset_blocks"]
            return
        with pytest.raises(EnumerationCapError, match=f"^{message} evaluations, above the cap of {cap}$"):
            analyze_hypergraph(hg, method=method, weights=weights)
        assert scans == []

    @pytest.mark.parametrize(
        "run",
        [
            lambda: analyze_hypergraph(fano_circulant()),
            lambda: analyze_matrix(BitMatrix.from_strings(["1100", "0011"])),
            lambda: both_predicates(from_generator(BitMatrix.from_strings(["1100", "0011"]))),
        ],
        ids=["fano", "self-dual-matrix", "both-predicates"],
    )
    def test_gram_is_built_once_per_code(self, monkeypatch, run):
        # The globals of the codes module that this file's imports call: a
        # later fresh import of ``hypercode.codes`` would be another module.
        codes_globals = from_generator.__globals__
        real = codes_globals["gram"]
        built = []
        monkeypatch.setitem(codes_globals, "gram", lambda m: built.append(m) or real(m))
        shape = run()
        # At most once, and none when 2k > n: such a code cannot lie inside
        # its dual, so the rate alone answers (Fano is [7,4]).
        assert len(built) == (0 if 2 * shape.dimension > shape.length else 1)


class TestAnalyzeMatrix:
    def test_zero_code_has_no_distance(self):
        report = analyze_matrix(BitMatrix(2, 5, (0, 0)), method="both")
        assert (report.length, report.dimension) == (5, 0)
        assert report.min_distance is None
        assert report.witness is None
        assert report.distance_exact is None
        assert report.self_orthogonal and not report.self_dual

    def test_wide_zero_matrix_costs_no_memory_by_width(self):
        # An 11-byte input declaring 10^7 columns and no rows: nothing may be
        # allocated in proportion to the declared width.
        tracemalloc.start()
        try:
            report = analyze_matrix(parse_matrix("0 10000000\n"), weights=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.to_json_dict()["weight_distribution"] == {"0": 1}
        assert peak < 1 << 20

    def test_matrix_with_zero_columns(self):
        # dropping always-zero coordinates must not change the distance
        matrix = parse_matrix("2 4\n1010\n0010\n")
        report = analyze_matrix(matrix, method="both")
        assert report.length == 4
        assert report.min_distance == 1

    @pytest.mark.parametrize("text", ["2 4\n1010\n0010\n", "3 5\n11010\n01101\n10111\n", "1 6\n011011\n"])
    def test_subset_engine_rows_are_the_nonzero_columns(self, text):
        # The subset engine's vertex rows are the matrix rows without the
        # zero columns.
        lines = text.splitlines()[1:]
        nonzero = [j for j in range(len(lines[0])) if any(line[j] == "1" for line in lines)]
        rows = BitMatrix.from_strings(["".join(line[j] for j in nonzero) for line in lines]).rows
        assert from_incidence_matrix(parse_matrix(text)).vertex_rows == rows

    def test_generic_matrix_engines_agree(self):
        matrix = parse_matrix("3 5\n11010\n01101\n10111\n")
        report = analyze_matrix(matrix, method="both")
        assert report.distance_exact is True
        assert report.min_distance is not None

    def test_engine_disagreement_is_raised(self, monkeypatch):
        # The analysis module that this file's imports call.
        analysis_globals = analyze_hypergraph.__globals__
        real = analysis_globals["codeword_distance_search"]

        def lying_search(code, **kwargs):
            result = real(code, **kwargs)
            return type(result)(result.value + 1, result.exact)

        monkeypatch.setitem(analysis_globals, "codeword_distance_search", lying_search)
        with pytest.raises(EngineDisagreement):
            analyze_hypergraph(fano_circulant(), method="both")


# The weights charge 2^side - 1 words and the subset search 2^vertices - 1,
# so a weights cap cannot fail after the subset search's has passed.
@given(hypergraphs(max_vertices=12, max_edges=14))
def test_side_rank_and_subset_vertices_of_a_hypergraph(hg):
    code = from_generator(incidence_matrix(hg))
    assert code._side <= code.dimension <= hg.num_vertices


@given(bit_matrices(max_rows=12, max_cols=14, min_rows=1), st.integers(1, 4))
def test_side_rank_and_subset_vertices_of_a_matrix_with_zero_columns(matrix, zeros):
    matrix = BitMatrix(matrix.num_rows, matrix.num_cols + zeros, matrix.rows)
    code = from_generator(matrix)
    assert code._side <= code.dimension <= from_incidence_matrix(matrix).num_vertices


class TestSerialization:
    def test_json_fields_and_order(self):
        report = analyze_hypergraph(fano_circulant(), method="both", weights=True)
        data = json.loads(report.to_json())
        assert list(data) == [
            "length",
            "dimension",
            "min_distance",
            "min_distance_method",
            "witness_subset",
            "self_orthogonal",
            "self_dual",
            "weight_distribution",
            "distance_exact",
        ]
        assert data["witness_subset"] == [1]
        assert data["weight_distribution"] == {"0": 1, "3": 7, "4": 7, "7": 1}

    def test_json_omits_absent_fields(self):
        report = analyze_matrix(BitMatrix(2, 5, (0, 0)))
        data = json.loads(report.to_json())
        assert "min_distance" not in data
        assert "witness_subset" not in data
        assert "weight_distribution" not in data
        assert "distance_exact" not in data

    def test_csv_round_trip_fields(self):
        report = analyze_hypergraph(fano_circulant(), method="both", weights=True)
        header, row = report.to_csv().splitlines()
        assert header == ",".join(CSV_COLUMNS)
        values = dict(zip(header.split(","), row.split(",")))
        assert values["length"] == "7"
        assert values["min_distance"] == "3"
        assert values["witness_subset"] == "1"
        assert values["self_orthogonal"] == "false"
        assert values["weight_distribution"] == "0:1;3:7;4:7;7:1"

    def test_csv_leaves_absent_fields_empty(self):
        report = analyze_matrix(BitMatrix(2, 5, (0, 0)))
        assert report.to_csv() == ",".join(CSV_COLUMNS) + "\n5,0,,both,,true,false,,\n"
