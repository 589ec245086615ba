"""Command-line surface: formats, exit codes, determinism, fault injection."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import hypercode.verify as verify
from hypercode import (
    block_row,
    circulant_hypergraph,
    format_hypergraph,
    parse_hypergraph,
)
from hypercode.cli import main


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
        import hypercode.analysis as analysis_module

        real = analysis_module.codeword_distance_search

        def lying_search(code, **kwargs):
            result = real(code, **kwargs)
            return type(result)(result.value + 1, result.exact)

        monkeypatch.setattr(analysis_module, "codeword_distance_search", lying_search)
        code, _, err = run_cli(capsys, "analyze", str(fano_file), "--method", "both")
        assert code == 3
        assert "engine" in err

    def test_cap_exceeded_exits_4(self, capsys, fano_file, monkeypatch):
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "4")
        code, _, err = run_cli(capsys, "analyze", str(fano_file))
        assert code == 4
        assert err == "error: codeword search needs 15 evaluations, above the cap of 4\n"

    def test_weight_cap_message_names_the_weight_distribution(self, capsys, fano_file, monkeypatch):
        monkeypatch.setenv("HYPERCODE_ENUM_CAP", "15")
        code, _, err = run_cli(capsys, "analyze", str(fano_file), "--method", "codeword", "--weights")
        assert code == 4
        assert err == "error: weight distribution needs 16 evaluations, above the cap of 15\n"

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
        # An early-exit search always walks the code's own 2^21 - 1 messages.
        code, _, err = run_cli(
            capsys, "analyze", str(path), "--method", "codeword", "--weights", "--early-exit", "1"
        )
        assert code == 4
        assert err == "error: codeword search needs 2097151 evaluations, above the cap of 100\n"

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
        # dual route existed, from the direct scans.
        path = tmp_path / "high-rate.hg"
        path.write_text(HIGH_RATE_HYPERGRAPH)
        assert self.digest(self.analyze_all(capsys, [path])) == "d10723f76864d32a"

    def test_selfdual_scan(self, capsys):
        code, out, _ = run_cli(
            capsys, "selfdual-scan", "--n-max", "6", "--seed", "7", "--budget", "3000"
        )
        assert code == 0
        assert self.digest(out) == "04d4b15b8713ea56"


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
        code, out, _ = run_cli(capsys, "poly", "cyclic-dim", "11", "--n", "8")
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
            (
                ["cyclic-dim", "11", "--n", "1"],
                2,
                "",
                "error: deg(p) = 1 must be below the code length 1\n",
            ),
            (["cyclic-dim", "0100", "--n", "2"], 0, "2\n", ""),
        ],
        ids=[
            "gcd-empty",
            "gcd-zero-zero",
            "gcd-bad-char",
            "gcd-leading-zeros",
            "cyclic-dim-empty",
            "cyclic-dim-degree-too-high",
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
