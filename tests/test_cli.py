"""Command-line surface: formats, exit codes, determinism, fault injection."""

from __future__ import annotations

import ast
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import hypercode.cli as cli
import hypercode.verify as verify
from hypercode import (
    DEFAULT_ENUM_CAP,
    block_row,
    circulant_hypergraph,
    complete_3partite,
    connected_uniform_samples,
    format_hypergraph,
    parse_hypergraph,
)
from hypercode.cli import main
from hypercode.limits import MAX_CELLS, MAX_VERTICES
from hypercode.textformat import parse_text


# A full-rank hypergraph with 16 vertices and 22 edges: a [22,16,2] code.
HIGH_RATE_HYPERGRAPH = """16 22
0 4 6 10
3 5
0 1 3 8 14 15
1 3 8 13 14
1 3 9 13 15
0 1 3 6 9 14
4 15
1 4 8 9 15
1 3 5 9 10 13
1 3 8 11
1 3 7 8 9 10
5 7 9 10 14
2 7 11 12
2 4 9
4 5 7 11 14 15
1 2 5 6 8 15
0 6 15
5 10
7 9 12 15
2 4
0 2 4 11 13
4 5 6 10 11 14
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_with_peak(capsys, *argv):
    # run_cli's results and the peak of the memory the run allocated.
    tracemalloc.start()
    try:
        return (*run_cli(capsys, *argv), tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


class TestFamily:
    def test_fano_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "family", "fano")
        assert code == 0
        assert out.splitlines()[0] == "7 7"
        assert parse_hypergraph(out).num_edges == 7

    def test_k3partite_file(self, tmp_path, capsys):
        target = tmp_path / "k3.hg"
        code, _, _ = run_cli(capsys, "family", "k3partite", "--n", "2", "-o", str(target))
        assert code == 0
        hg = parse_hypergraph(target.read_text())
        assert (hg.num_vertices, hg.num_edges) == (6, 8)

    def test_block_circulant(self, capsys):
        code, out, _ = run_cli(capsys, "family", "block-circulant", "--k", "3", "--m", "2")
        assert code == 0
        assert parse_hypergraph(out) == circulant_hypergraph(block_row(3, 2))

    def test_round_trip_is_byte_identical(self, capsys):
        code, out, _ = run_cli(capsys, "family", "pg", "--n", "3")
        assert code == 0
        assert format_hypergraph(parse_hypergraph(out)) == out

    @pytest.mark.parametrize(
        "argv",
        [
            ("family", "k3partite"),
            ("family", "k3partite", "--n", "0"),
            ("family", "pg", "--n", "2"),
            ("family", "circulant"),
            ("family", "circulant", "--row", "000"),
            ("family", "block-circulant", "--k", "1"),
        ],
    )
    def test_invalid_params_exit_nonzero(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code != 0
        assert err

    @pytest.mark.parametrize(
        "argv,what",
        [
            # One step past the largest k3partite and pg.
            (("k3partite", "--n", "69"), "cells"),
            (("k3partite", "--n", "349526"), "vertices"),
            (("pg", "--n", "10"), "cells"),
            (("pg", "--n", "1000000000000"), "vertices"),
            (("block-circulant", "--k", "1", "--m", "524289"), "vertices"),
            (("block-circulant", "--k", "1000000000", "--m", "1000000000"), "vertices"),
            # One entry past the longest circulant row.
            (("circulant", "--row", "1" + "0" * 8192), "cells"),
            # The first pg past the vertex bound, and both sides of --n 64.
            (("pg", "--n", "21"), "vertices"),
            (("pg", "--n", "64"), "vertices"),
            (("pg", "--n", "65"), "vertices"),
        ],
    )
    def test_too_large_family_exits_2_before_building(self, capsys, argv, what):
        # Each count is the family's own: for pg, 2^n - 1 points and
        # (2^n - 1)(2^(n-1) - 1)/3 lines; for a circulant, one vertex and one
        # edge per entry of its row.
        counts = {
            "69": "207 vertices x 328509 edges",
            "349526": "1048578 vertices",
            "10": "1023 vertices x 174251 edges",
            "1000000000000": "2^1000000000000 - 1 vertices",
            "524289": "1048578 vertices",
            "1000000000": "2000000000000000000 vertices",
            "1" + "0" * 8192: "8193 vertices x 8193 edges",
            "21": "2097151 vertices",
            "64": "18446744073709551615 vertices",
            "65": "2^65 - 1 vertices",
        }[argv[-1]]
        bound = {"vertices": MAX_VERTICES, "cells": f"{MAX_CELLS} incidence matrix cells"}[what]
        code, out, err, peak = run_cli_with_peak(capsys, "family", *argv)
        assert (code, out, err) == (2, "", f"error: {counts} exceed the limit of {bound}\n")
        assert peak < 1 << 20

    def test_family_and_parser_refuse_with_the_same_message(self, capsys):
        # 207 vertices x 328509 edges, the counts of complete_3partite(69).
        code, _, err = run_cli(capsys, "family", "k3partite", "--n", "69")
        assert code == 2
        with pytest.raises(ValueError) as info:
            parse_hypergraph("207 328509\n")
        assert err == f"error: {info.value}\n"
        assert err == (
            f"error: 207 vertices x 328509 edges exceed the limit of {MAX_CELLS} "
            "incidence matrix cells\n"
        )

    @pytest.mark.parametrize(
        "argv,builder",
        [
            (("k3partite", "--n", "68"), "complete_3partite"),
            (("pg", "--n", "9"), "projective_geometry"),
            # 2896 * 1448 incidences; m = 1449 has 4199202, above 2^22.
            (("block-circulant", "--k", "1", "--m", "1448"), "circulant_hypergraph"),
            # 8192 x 8192 cells and 8192 * 512 incidences: both at their bound.
            (("circulant", "--row", "1" * 512 + "0" * 7680), "circulant_hypergraph"),
        ],
    )
    def test_largest_families_pass_the_size_check(self, monkeypatch, argv, builder):
        # The size rule runs in the family's builder, passes the family and
        # lets it be built.
        rules = complete_3partite.__globals__
        real, callers = rules["check_size"], []
        monkeypatch.setitem(
            rules, "check_size", lambda *counts: callers.append(sys._getframe(1).f_code.co_name) or real(*counts)
        )
        cli._make_family(cli.build_parser().parse_args(["family", *argv]))
        assert builder in callers

    @pytest.mark.parametrize(
        "argv",
        [
            ("pg", "--n", "9"),
            ("circulant", "--row", "1" + "0" * 8191),
            ("block-circulant", "--k", "1", "--m", "1448"),
        ],
        ids=["pg-9", "circulant-8192", "bc-1x1448"],
    )
    def test_largest_families_parse_back(self, capsys, argv):
        # k3partite --n 68 takes seconds; CI runs it through the installed script.
        code, out, _ = run_cli(capsys, "family", *argv)
        assert code == 0
        hg = parse_text(out)
        assert out.startswith(f"{hg.num_vertices} {hg.num_edges}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ("block-circulant", "--k", "1", "--m", "300000"),
                f"600000 vertices x 600000 edges exceed the limit of {MAX_CELLS} "
                "incidence matrix cells",
            ),
            (
                ("block-circulant", "--k", "1", "--m", "1449"),
                f"{2898 * 1449} incidences exceed the limit of {1 << 22}",
            ),
            (
                ("block-circulant", "--k", "64", "--m", "32"),
                f"{4096 * 2048} incidences exceed the limit of {1 << 22}",
            ),
            (
                ("circulant", "--row", "1" * 60000),
                f"60000 vertices x 60000 edges exceed the limit of {MAX_CELLS} "
                "incidence matrix cells",
            ),
            (
                ("circulant", "--row", "1" * 513 + "0" * 7679),
                f"{8192 * 513} incidences exceed the limit of {1 << 22}",
            ),
        ],
        ids=["bc-1x300000", "bc-1x1449", "bc-64x32", "circulant-60000-ones", "circulant-8192x513"],
    )
    def test_wide_family_exits_2_before_building(self, capsys, argv, message):
        # Edges so wide that the incidences alone would take too much memory;
        # the cell bound or, on few enough vertices and edges, the incidence
        # bound refuses them before anything is built.
        code, out, err, peak = run_cli_with_peak(capsys, "family", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert peak < 1 << 20

    @pytest.mark.parametrize("target", ["missing/fano.hg", "."])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, target):
        path = tmp_path / target
        code, out, err = run_cli(capsys, "family", "fano", "-o", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert len(err.splitlines()) == 1


class TestAnalyze:
    @pytest.fixture
    def fano_file(self, tmp_path, capsys):
        path = tmp_path / "fano.hg"
        assert main(["family", "fano", "-o", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_fano_both_engines(self, capsys, fano_file):
        code, out, _ = run_cli(
            capsys, "analyze", str(fano_file), "--method", "both", "--weights"
        )
        assert code == 0
        data = json.loads(out)
        assert (data["length"], data["dimension"], data["min_distance"]) == (7, 4, 3)
        assert data["witness_subset"] == [1]
        assert data["weight_distribution"] == {"0": 1, "3": 7, "4": 7, "7": 1}

    def test_matrix_input_auto_detected(self, tmp_path, capsys):
        path = tmp_path / "zero.mat"
        path.write_text("2 5\n00000\n00000\n")
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        data = json.loads(out)
        assert (data["length"], data["dimension"]) == (5, 0)
        assert "min_distance" not in data

    def test_matrix_format_forced(self, tmp_path, capsys):
        path = tmp_path / "m.mat"
        path.write_text("2 2\n10\n01\n")
        code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "matrix")
        assert code == 0
        assert json.loads(out)["min_distance"] == 1

    def test_leading_zero_matrix_is_not_read_as_a_hypergraph(self, tmp_path, capsys):
        path = tmp_path / "m.mat"
        path.write_text("2 2\n01\n01\n")
        code, auto, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        _, forced, _ = run_cli(capsys, "analyze", str(path), "--format", "matrix")
        assert auto == forced
        data = json.loads(auto)
        assert (data["min_distance"], data["self_dual"]) == (1, False)

    def test_text_valid_in_both_formats_asks_for_format(self, tmp_path, capsys):
        path = tmp_path / "both.txt"
        path.write_text("1 1\n0\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert "--format" in err and err.count("\n") == 1
        for fmt in ("hypergraph", "matrix"):
            code, _, _ = run_cli(capsys, "analyze", str(path), "--format", fmt)
            assert code == 0

    @pytest.mark.parametrize("edge", ["01", "+1", "1_0"])
    def test_non_canonical_integer_tokens_exit_2(self, tmp_path, capsys, edge):
        path = tmp_path / "bad.hg"
        path.write_text(f"11 1\n{edge}\n")
        code, _, err = run_cli(capsys, "analyze", str(path), "--format", "hypergraph")
        assert code == 2
        assert "plain decimal integers" in err

    def test_non_canonical_matrix_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("+2 2\n10\n01\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot parse")

    def test_non_ascii_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "accent.hg"
        path.write_bytes("2 1\n0 1 # caf\u00e9\n".encode("utf-8"))
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    @pytest.mark.parametrize("data", ["2 1\n0 \u0661\n".encode("utf-8"), b"2 1\n0 \xff\n"])
    def test_non_ascii_stdin_exits_2(self, capsys, monkeypatch, data):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        code, out, err = run_cli(capsys, "analyze", "-")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read -") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "data", [b"3 1\x0c0 1\n", b"2 2\x0c10\x1e01\n", b"2 2\r10\r01\r"]
    )
    def test_control_characters_exit_2(self, tmp_path, capsys, data):
        path = tmp_path / "control.txt"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot parse") and err.count("\n") == 1

    def test_crlf_file_reads_like_lf(self, tmp_path, capsys, fano_file):
        crlf = tmp_path / "fano-crlf.hg"
        crlf.write_bytes(fano_file.read_bytes().replace(b"\n", b"\r\n"))
        assert run_cli(capsys, "analyze", str(crlf)) == run_cli(capsys, "analyze", str(fano_file))

    @pytest.mark.parametrize("fmt", ["auto", "hypergraph"])
    def test_huge_vertex_count_exits_2(self, tmp_path, capsys, fmt):
        path = tmp_path / "huge.hg"
        path.write_text("1000000000000000 1\n0\n")
        code, out, err = run_cli(capsys, "analyze", str(path), "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot parse") and err.count("\n") == 1

    def test_auto_detection_names_both_parse_errors(self, tmp_path, capsys):
        path = tmp_path / "huge.hg"
        path.write_text("1000000000000000 1\n0\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert "exceed the limit" in err
        assert err.index("exceed the limit") < err.index("expected 1000000000000000 row lines")

    def test_csv_output(self, capsys, fano_file):
        code, out, _ = run_cli(capsys, "analyze", str(fano_file), "--csv")
        assert code == 0
        header, row = out.splitlines()
        assert header.startswith("length,dimension,min_distance")
        assert row.startswith("7,4,3,both,1,false,false")

    def test_early_exit_flags_bound(self, capsys, fano_file):
        code, out, _ = run_cli(capsys, "analyze", str(fano_file), "--early-exit", "7")
        assert code == 0
        assert json.loads(out)["distance_exact"] is False

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        path = tmp_path / "garbage.txt"
        path.write_text("not a valid file\n")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == 2
        assert "cannot parse" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "/nonexistent/path")
        assert code == 2

    def test_engine_disagreement_exits_3(self, capsys, fano_file, monkeypatch):
        # The analysis module that ``main`` calls, imported with this file.
        analysis_globals = cli.analyze_hypergraph.__globals__
        real = analysis_globals["codeword_distance_search"]

        def lying_search(code, **kwargs):
            result = real(code, **kwargs)
            return type(result)(result.value + 1, result.exact)

        monkeypatch.setitem(analysis_globals, "codeword_distance_search", lying_search)
        code, _, err = run_cli(capsys, "analyze", str(fano_file), "--method", "both")
        assert code == 3
        assert "engine" in err

    def test_cap_exceeded_exits_4(self, capsys, fano_file, monkeypatch):
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "4")
        code, _, err = run_cli(capsys, "analyze", str(fano_file))
        assert code == 4
        assert err == "error: codeword search needs 15 evaluations, above the cap of 4\n"

    def test_one_scan_of_15_words_is_charged_to_the_cap_once(self, capsys, fano_file, monkeypatch):
        # The distance and the weights read one scan of the 15 nonzero
        # codewords, and the cap charges it once, by those 15 words.
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "15")
        code, _, _ = run_cli(capsys, "analyze", str(fano_file), "--method", "codeword", "--weights")
        assert code == 0
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "14")
        code, _, err = run_cli(capsys, "analyze", str(fano_file), "--method", "codeword", "--weights")
        assert code == 4
        assert err == "error: codeword search needs 15 evaluations, above the cap of 14\n"

    def test_cap_counts_the_scanned_side(self, tmp_path, capsys, monkeypatch):
        # A [24,21] code: its dual has 8 words, the code 2^21.
        path = tmp_path / "high-rate.mat"
        rows = ["".join("1" if j == i else "0" for j in range(21)) + format(i % 7 + 1, "03b") for i in range(21)]
        path.write_text("21 24\n" + "\n".join(rows) + "\n")
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "100")
        code, out, _ = run_cli(capsys, "analyze", str(path), "--method", "codeword", "--weights")
        assert code == 0
        data = json.loads(out)
        assert (data["dimension"], data["min_distance"], data["distance_exact"]) == (21, 2, True)
        assert sum(data["weight_distribution"].values()) == 1 << 21
        # An early exit reads the same counts, from the dual's 8 words,
        # under the same cap; d = 2 > 1, so the result is exact.
        code, out, _ = run_cli(
            capsys, "analyze", str(path), "--method", "codeword", "--weights", "--early-exit", "1"
        )
        assert code == 0
        data = json.loads(out)
        assert (data["min_distance"], data["distance_exact"]) == (2, True)

    @pytest.mark.parametrize("vertices", [14400, 1 << 20])
    def test_cap_error_on_a_huge_subset_scan_is_one_short_line(self, capsys, monkeypatch, vertices):
        # In decimal, 2^14400 - 1 has more digits than str() converts.
        monkeypatch.delenv("HYPERCODE_ENUM_CAP", raising=False)
        data = f"{vertices} 1\n0\n".encode()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, err = run_cli(capsys, "analyze", "-")
        assert (code, out) == (4, "")
        assert err == (
            f"error: subset search needs 2^{vertices} - 1 evaluations, "
            f"above the cap of {DEFAULT_ENUM_CAP}\n"
        )

    def test_a_cap_of_5000_digits_is_read_as_a_cap(self, capsys, fano_file, monkeypatch):
        # int() refuses more than 4300 digits; the cap is read all the same.
        monkeypatch.delenv("HYPERCODE_ENUM_CAP", raising=False)
        unset = run_cli(capsys, "analyze", str(fano_file), "--weights")
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "9" * 5000)
        assert run_cli(capsys, "analyze", str(fano_file), "--weights") == unset
        assert unset[0] == 0
        # A cap it binds is shown cut, on one short line.
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"20000 1\n0\n")))
        code, out, err = run_cli(capsys, "analyze", "-")
        assert (code, out) == (4, "")
        assert err == (
            "error: subset search needs 2^20000 - 1 evaluations, above the cap of "
            + "9" * 32
            + "... (5000 digits)\n"
        )

    def test_a_long_non_integer_cap_is_quoted_cut(self, capsys, fano_file, monkeypatch):
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "9" * 5000 + "x")
        code, out, err = run_cli(capsys, "analyze", str(fano_file))
        assert (code, out) == (2, "")
        assert err == (
            f"error: HYPERCODE_ENUM_CAP must be an integer, got '{'9' * 32}' and 4969 more characters\n"
        )

    @pytest.mark.parametrize("nines", [200, 5000])
    def test_a_long_negative_cap_is_refused_as_negative(self, capsys, fano_file, monkeypatch, nines):
        # int() refuses the 5000 digits; the sign is read all the same.
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "-" + "9" * nines)
        code, out, err = run_cli(capsys, "analyze", str(fano_file))
        assert (code, out) == (2, "")
        assert err == (
            f"error: HYPERCODE_ENUM_CAP must be non-negative, got -{'9' * 31}... ({nines} digits)\n"
        )

    def test_header_beyond_the_cell_limit_exits_2(self, tmp_path, capsys):
        # 200000 one-vertex edges are 1.3 MB of text and 5 GB of dense rows;
        # the header alone is refused.
        path = tmp_path / "sparse.hg"
        path.write_text("200000 200000\n")
        code, out, err = run_cli(
            capsys, "analyze", str(path), "--format", "hypergraph", "--method", "codeword"
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: cannot parse {path}: 200000 vertices x 200000 edges exceed the limit "
            f"of {MAX_CELLS} incidence matrix cells\n"
        )

    @pytest.mark.parametrize("fmt", ["auto", "hypergraph", "matrix"])
    @pytest.mark.parametrize("header", ["9" * 5000 + " 1", "1 " + "9" * 5000])
    def test_header_count_over_the_digit_limit_exits_2(self, tmp_path, capsys, fmt, header):
        # int() refuses more than 4300 digits; the count is named, cut, on
        # one error line.
        path = tmp_path / "huge.txt"
        path.write_text(header + "\n0\n")
        code, out, err = run_cli(capsys, "analyze", str(path), "--format", fmt)
        assert (code, out) == (2, "")
        count = "9" * 32 + "... of 5000 digits is too large"
        expected = f"{fmt} header count {count}"
        if fmt == "auto":
            expected = (
                f"not a hypergraph (hypergraph header count {count}) "
                f"and not a matrix (matrix header count {count})"
            )
        assert err == f"error: cannot parse {path}: {expected}\n"

    def test_negative_early_exit_exits_2(self, capsys, fano_file):
        code, out, err = run_cli(capsys, "analyze", str(fano_file), "--early-exit", "-1")
        assert (code, out) == (2, "")
        assert err == "error: early_exit must be non-negative, got -1\n"


class TestVerifyCommand:
    def test_only_filter_runs_a_subset(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "fano")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("PASS fano:")
        assert lines[-1] == "1/1 criteria passed"

    def test_k3partite_tag_covers_both_criteria(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "k3partite")
        assert code == 0
        names = [line.split()[1].rstrip(":") for line in out.splitlines()[:-1]]
        assert names == ["k3partite", "f-count"]

    def test_unknown_tag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--only", "nonsense")
        assert code == 2
        assert "unknown criterion" in err

    def test_cap_exceeded_exits_4(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "5")
        code, out, err = run_cli(capsys, "verify", "--only", "fano")
        assert (code, out) == (4, "")
        assert err == "error: codeword search needs 15 evaluations, above the cap of 5\n"

    def test_corrupted_fixture_fails_and_names_the_criterion(self, capsys, monkeypatch):
        rows = list(verify.FANO_EXPECTED_ROWS)
        rows[0] = "0000101"  # one bit flipped
        monkeypatch.setattr(verify, "FANO_EXPECTED_ROWS", tuple(rows))
        code, out, _ = run_cli(capsys, "verify", "--only", "fano")
        assert code == 1
        assert out.startswith("FAIL fano:")
        assert "expected" in out and "observed" in out


class TestSelfdualScan:
    def test_zero_budget_is_empty_success(self, capsys):
        code, out, _ = run_cli(
            capsys, "selfdual-scan", "--n-max", "4", "--seed", "1", "--budget", "0"
        )
        assert code == 0
        assert out == ""

    def test_same_seed_gives_identical_output(self, capsys):
        args = ("selfdual-scan", "--n-max", "5", "--seed", "11", "--budget", "400")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_two_uniform_findings_respect_the_criterion(self, capsys):
        code, out, _ = run_cli(
            capsys, "selfdual-scan", "--n-max", "5", "--seed", "3", "--budget", "800"
        )
        assert code == 0
        findings = [json.loads(line) for line in out.splitlines()]
        assert findings, "a budget of 800 small samples should surface findings"
        for finding in findings:
            assert finding["self_orthogonal"] or finding["self_dual"]
            assert finding["criterion_agrees"] is True
            if finding["self_dual"]:
                assert finding["edge_count"] == 2 * finding["vertices"] - 2

    def test_three_uniform_scan(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "selfdual-scan",
            "--n-max", "6",
            "--seed", "5",
            "--budget", "500",
            "--uniform", "3",
        )
        assert code == 0
        for line in out.splitlines():
            finding = json.loads(line)
            assert "criterion_self_dual" not in finding

    @staticmethod
    def summary(err):
        # The sample count, the two hit tallies and the criterion line, if any.
        lines = err.splitlines()
        scanned = int(re.fullmatch(r"scanned (\d+) connected samples, \d+ findings", lines[0])[1])
        tallies = []
        for line, label in zip(lines[1:3], ("self-orthogonal", "self-dual")):
            prefix = f"{label} hits by (n, m): "
            assert line.startswith(prefix)
            tallies.append(ast.literal_eval(line[len(prefix) :]))
        return scanned, *tallies, lines[3:]

    @pytest.mark.parametrize(
        "seed, n_max, budget, uniform",
        [("7", "6", "300", "2"), ("5", "7", "200", "3")],
    )
    def test_summary_tallies_every_sample_and_finding(self, capsys, seed, n_max, budget, uniform):
        code, out, err = run_cli(
            capsys, "selfdual-scan", "--seed", seed, "--n-max", n_max,
            "--budget", budget, "--uniform", uniform,
        )
        assert code == 0
        scanned, orthogonal, dual, rest = self.summary(err)
        samples = connected_uniform_samples(
            int(seed), n_max=int(n_max), budget=int(budget), uniform=int(uniform)
        )
        assert scanned == len(list(samples))
        findings = [json.loads(line) for line in out.splitlines()]
        assert err.startswith(f"scanned {scanned} connected samples, {len(findings)} findings\n")
        assert orthogonal == Counter((f["vertices"], f["edge_count"]) for f in findings)
        assert dual == Counter((f["vertices"], f["edge_count"]) for f in findings if f["self_dual"])
        if uniform == "2":
            assert rest == [
                f"counting criterion vs direct check: 0 mismatches on {scanned} connected graphs"
            ]
        else:
            assert rest == []

    def test_criterion_is_checked_on_every_sample(self, capsys, monkeypatch):
        # A criterion that calls every graph self-dual is wrong exactly on
        # the samples that are not.
        monkeypatch.setattr(cli, "graph_self_duality_criterion", lambda hypergraph: True)
        code, _, err = run_cli(
            capsys, "selfdual-scan", "--n-max", "6", "--seed", "7", "--budget", "300"
        )
        assert code == 0
        scanned, _, dual, rest = self.summary(err)
        wrong = scanned - sum(dual.values())
        assert 0 < wrong < scanned
        assert rest == [
            f"counting criterion vs direct check: {wrong} mismatches on {scanned} connected graphs"
        ]

    def test_n_max_beyond_the_cell_limit_exits_2(self, capsys):
        # A budget of 0 draws nothing: n_max is checked at the call.
        code, out, err = run_cli(
            capsys, "selfdual-scan", "--n-max", "5793", "--seed", "1", "--budget", "0"
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: 5793 vertices x 11586 edges exceed the limit of {MAX_CELLS} "
            "incidence matrix cells\n"
        )

    def test_bad_parameters_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "selfdual-scan", "--n-max", "1", "--seed", "1")
        assert code == 2
        code, _, _ = run_cli(
            capsys, "selfdual-scan", "--n-max", "3", "--seed", "1", "--uniform", "9"
        )
        assert code == 2
        code, _, err = run_cli(
            capsys, "selfdual-scan", "--n-max", "3", "--seed", "1", "--budget", "-1"
        )
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1


class TestReportHashes:
    """The first 16 hex digits of the SHA-256 of whole stdout streams.

    Reports are meant to stay byte-identical across refactors; any change to
    one byte of these outputs fails here.
    """

    FLAGS = ((), ("--weights",), ("--early-exit", "7"), ("--csv", "--weights"))

    @staticmethod
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def analyze_all(self, capsys, paths):
        out = []
        for path in paths:
            for method in ("codeword", "eonv", "both"):
                for flags in self.FLAGS:
                    code, stdout, _ = run_cli(
                        capsys, "analyze", str(path), "--method", method, *flags
                    )
                    assert code == 0
                    out.append(stdout)
        return "".join(out)

    def test_family_reports(self, tmp_path, capsys):
        paths = []
        for family in (("fano",), ("k3partite", "--n", "3"), ("pg", "--n", "4")):
            path = tmp_path / f"{family[0]}.hg"
            assert run_cli(capsys, "family", *family, "-o", str(path))[0] == 0
            paths.append(path)
        assert self.digest(self.analyze_all(capsys, paths)) == "1eaa0404e56ad01c"

    def test_matrix_reports(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("4 8\n10001010\n11000100\n01100010\n10110000\n")
        assert self.digest(self.analyze_all(capsys, [path])) == "df77ea891c7159d3"

    def test_high_rate_reports(self, tmp_path, capsys):
        # A [22,16] code: 2^6 + 22^2 < 2^16, so its weights and its exact
        # distance come from the dual route.  The hash was taken before the
        # dual route existed, from the direct scans, and retaken when the
        # early exits took one rule: at --early-exit 7 the codeword engine
        # reads the dual's counts and the subset engine its one block whole,
        # so both report d = 2, inexact, where they reported 3 and 5.  The
        # other reports kept their bytes.
        path = tmp_path / "high-rate.hg"
        path.write_text(HIGH_RATE_HYPERGRAPH)
        assert self.digest(self.analyze_all(capsys, [path])) == "d19a4f817cc6ffef"

    def test_selfdual_scan(self, capsys):
        code, out, _ = run_cli(
            capsys, "selfdual-scan", "--n-max", "6", "--seed", "7", "--budget", "3000"
        )
        assert code == 0
        assert self.digest(out) == "04d4b15b8713ea56"


# Malformed and borderline inputs of both text formats: the parse-error
# cases of test_gf2core.py, test_hypergraph.py and TestAnalyze, texts valid
# in both formats or in neither, and CRLF, tab and comment variants.
PARSE_ERROR_TEXTS = [
    "",
    "2\n10\n01\n",
    "2 2\n10\n",
    "2 2\n10\n012\n",
    "2 2\n10\n0x\n",
    "2 2\n10\n01\nextra\n",
    "-1 2\n",
    "+2 2\n10\n01\n",
    "0_2 2\n10\n01\n",
    "02 2\n10\n01\n",
    "\u0662 2\n10\n01\n",
    "2 2\n10\u3000\n01\n",
    "2 2\x0c10\x1e01\n",
    "2\x1f2\n10\n01\n",
    "2 2\n10\r01\n",
    "2 2\r10\r01\r",
    "# only comments\n",
    "3\n0 1\n",
    "3 2\n0 1\n",
    "3 1\n1 0\n",
    "3 1\n0 0\n",
    "3 1\n0 3\n",
    "3 1\na b\n",
    "2 2\n01\n01\n",
    "3 1\n+1\n",
    "11 1\n01\n",
    "11 1\n+1\n",
    "11 1\n1_0\n",
    "03 1\n0\n",
    "3 1\n00 1\n",
    "3 1\n0 \u0661\n",
    "3 1\n0\u00a001\n",
    "3 1\n-0 1\n",
    "3 1\x0c0 1\n",
    "3 1\u20280 1\n",
    "3\x1f1\n0 1\n",
    "3 1\n0 1\r",
    "# a comment\x0b\n3 1\n0 1\n",
    "2 1\n0 1 # caf\u00e9\n",
    b"2 1\n0 \xff\n",
    "1 1\n0\n",
    "0 0\n",
    "1 0\n",
    "1000000000000000 1\n0\n",
    "1048577 1\n0\n",
    "not a valid file\n",
    "2 5\n00000\n00000\n",
    "2 2\n10\n01\n\n \t\n",
    "# c\r\n3\t1\r\n\t0 1 \r\n",
    "7 7\r\n0 1 3\r\n1 2 4\r\n2 3 5\r\n3 4 6\r\n0 4 5\r\n1 5 6\r\n0 2 6\r\n",
]


class TestParseErrorHashes:
    """Exit codes and stderr of ``analyze`` on malformed or borderline texts.

    Hashed like :class:`TestReportHashes`: any change to one message byte or
    one exit code under a ``--format`` value fails here.
    """

    @pytest.mark.parametrize(
        "fmt,expected",
        [
            ("auto", "9aba312589df79e3"),
            ("hypergraph", "7251e5682b9933d1"),
            ("matrix", "985de478db26f9f7"),
        ],
    )
    def test_exit_codes_and_messages(self, capsys, monkeypatch, fmt, expected):
        out = []
        for text in PARSE_ERROR_TEXTS:
            data = text if isinstance(text, bytes) else text.encode("utf-8")
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            code, _, err = run_cli(capsys, "analyze", "-", "--format", fmt)
            out.append(f"{code}\n{err}")
        assert TestReportHashes.digest("".join(out)) == expected


# Every failure path of every subcommand: (environment, stdin bytes, argv).
# Paths are relative to a fresh working directory holding fano.hg, so the
# messages that name them are the same on every run.
FAILURE_CASES = [
    ({}, None, ("family", "k3partite")),
    ({}, None, ("family", "k3partite", "--n", "0")),
    ({}, None, ("family", "pg", "--n", "2")),
    ({}, None, ("family", "circulant")),
    ({}, None, ("family", "circulant", "--row", "000")),
    ({}, None, ("family", "block-circulant", "--k", "1")),
    ({}, None, ("family", "fano", "-o", "missing/fano.hg")),
    ({}, None, ("family", "block-circulant", "--k", "1", "--m", "300000")),
    ({}, None, ("family", "circulant", "--row", "1" * 60000)),
    ({}, None, ("analyze", "missing.hg")),
    ({}, b"7 1\n0 1 \xff\n", ("analyze", "-")),
    ({"HYPERCODE_ENUM_CAP": "4"}, None, ("analyze", "fano.hg")),
    ({"HYPERCODE_ENUM_CAP": "x"}, None, ("analyze", "fano.hg")),
    ({"HYPERCODE_ENUM_CAP": "-" + "9" * 200}, None, ("analyze", "fano.hg")),
    ({}, None, ("analyze", "fano.hg", "--early-exit", "-1")),
    ({}, None, ("verify", "--only", "nosuch")),
    ({"HYPERCODE_ENUM_CAP": "5"}, None, ("verify", "--only", "fano")),
    ({}, None, ("selfdual-scan", "--n-max", "1", "--seed", "1")),
    ({}, None, ("selfdual-scan", "--n-max", "3", "--seed", "1", "--uniform", "0")),
    ({}, None, ("selfdual-scan", "--n-max", "3", "--seed", "1", "--uniform", "9")),
    ({}, None, ("selfdual-scan", "--n-max", "3", "--seed", "1", "--budget", "-1")),
    ({}, None, ("poly", "gcd", "", "1")),
    ({}, None, ("poly", "gcd", "0", "0")),
    ({}, None, ("poly", "gcd", "1x", "1")),
    ({}, None, ("poly", "cyclic-dim", "")),
    ({}, None, ("poly", "cyclic-dim", "000")),
]


class TestFailurePathHashes:
    """Exit code, stdout and stderr of every subcommand's failure paths.

    Hashed like :class:`TestReportHashes`: any change to one message byte or
    one exit code fails here.
    """

    def test_exit_codes_and_messages(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "family", "fano", "-o", "fano.hg")[0] == 0
        out = []
        for env, data, argv in FAILURE_CASES:
            with monkeypatch.context() as patch:
                for name, value in env.items():
                    patch.setenv(name, value)
                if data is not None:
                    patch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
                code, stdout, err = run_cli(capsys, *argv)
            assert code != 0 and stdout == "" and err.count("\n") == 1, argv
            out.append(f"{' '.join(argv)}\n{code}\n{err}")
        assert TestReportHashes.digest("".join(out)) == "21080819077c475e"


class TestPoly:
    def test_gcd(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "gcd", "1000101", "10000001")
        assert code == 0
        assert out.strip() == "1011"

    def test_cyclic_dim_defaults_to_row_length(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "cyclic-dim", "1000101")
        assert code == 0
        assert out.strip() == "4"

    def test_cyclic_dim_explicit_length(self, capsys):
        # Trailing zeros pad the row, and the padded length is the code length.
        code, out, _ = run_cli(capsys, "poly", "cyclic-dim", "11000000")
        assert code == 0
        assert out.strip() == "7"

    def test_zero_row_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "poly", "cyclic-dim", "000")
        assert code == 2

    @pytest.mark.parametrize(
        "argv,exit_code,out,err",
        [
            (["gcd", "", "1"], 2, "", "error: empty polynomial string\n"),
            (["gcd", "0", "0"], 2, "", "error: gcd(0, 0) is undefined\n"),
            (["gcd", "1x", "1"], 2, "", "error: expected a string of '0'/'1', got '1x'\n"),
            (["gcd", "0100", "0010"], 0, "01\n", ""),
            (["cyclic-dim", ""], 2, "", "error: empty polynomial string\n"),
            (["cyclic-dim", "01"], 0, "2\n", ""),
        ],
        ids=[
            "gcd-empty",
            "gcd-zero-zero",
            "gcd-bad-char",
            "gcd-leading-zeros",
            "cyclic-dim-empty",
            "cyclic-dim-leading-zero",
        ],
    )
    def test_pinned_output(self, capsys, argv, exit_code, out, err):
        assert run_cli(capsys, "poly", *argv) == (exit_code, out, err)


class TestPackage:
    def test_every_exported_name_resolves_once(self):
        import hypercode

        assert len(hypercode.__all__) == len(set(hypercode.__all__))
        for name in hypercode.__all__:
            assert hasattr(hypercode, name), name

    def test_readme_library_block_runs(self):
        # A public name that leaves the API but stays in the README fails here.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})


class TestEntryPoint:
    def test_module_invocation(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "hypercode", "poly", "gcd", "11", "101"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "11"

    def test_closed_stdout_exits_1_without_a_traceback(self, tmp_path):
        stderr_path = tmp_path / "stderr.txt"
        with open(stderr_path, "wb") as stderr:
            # Far more output than a pipe holds, so writes go on after the close.
            proc = subprocess.Popen(
                [sys.executable, "-m", "hypercode", "selfdual-scan",
                 "--n-max", "8", "--seed", "7", "--budget", "30000"],
                stdout=subprocess.PIPE,
                stderr=stderr,
                env={**os.environ, "PYTHONUNBUFFERED": "1"},
            )
            assert proc.stdout.readline().startswith(b"{")
            proc.stdout.close()
            assert proc.wait(timeout=120) == 1
        assert "Traceback" not in stderr_path.read_text()
