"""Acceptance suite: every verification criterion at its stated budget.

Each test prints one PASS/FAIL line (run pytest with ``-s`` or ``-rA`` to
see them) and fails if the criterion's checks fail or its runtime budget is
exceeded.  ``hypercode verify`` runs the same criteria from the CLI.
"""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

from hypercode.cli import main
import hypercode.codes as codes
import hypercode.verify as verify
from hypercode.verify import CRITERIA, run_criterion

BY_NAME = {criterion.name: criterion for criterion in CRITERIA}


@pytest.mark.parametrize("name", list(BY_NAME), ids=list(BY_NAME))
def test_criterion(name):
    result = run_criterion(BY_NAME[name])
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.detail} ({result.elapsed:.2f}s)")
    assert result.passed, f"{result.name}: {result.detail}"
    assert result.elapsed <= result.budget, (
        f"{result.name} took {result.elapsed:.2f}s, budget {result.budget:.0f}s"
    )


def test_block_circulant_reads_the_weight_distribution(monkeypatch):
    real = verify.weight_distribution
    monkeypatch.setattr(verify, "weight_distribution", lambda code: {**real(code), 1: 1})
    passed, detail = verify._check_block_circulant()
    assert not passed
    assert "odd-edge counts [1] outside" in detail


def test_eonv_support_reads_eonv(monkeypatch):
    real = verify.eonv

    def drops_an_edge_for_odd_subsets(hypergraph, subset):
        edges = real(hypergraph, subset)
        return edges[1:] if len(subset) % 2 else edges

    monkeypatch.setattr(verify, "eonv", drops_an_edge_for_odd_subsets)
    passed, detail = verify._check_eonv_support()
    assert not passed
    assert "eonv of the complemented edges" in detail


def test_engine_agreement_reaches_the_quotient(monkeypatch):
    real = codes._subset_quotient

    def one_too_high(hypergraph, dependencies, early_exit=None):
        result = real(hypergraph, dependencies, early_exit)
        return dataclasses.replace(result, value=result.value + 1)

    monkeypatch.setattr(codes, "_subset_quotient", one_too_high)
    passed, detail = verify._check_engine_agreement()
    assert not passed
    assert "engines disagree" in detail


def test_cyclic_dimension_reads_the_circulant_generator(monkeypatch):
    real = verify.circulant_hypergraph
    monkeypatch.setattr(verify, "circulant_hypergraph", lambda row: real("1" * len(row)))
    passed, detail = verify._check_cyclic_dimension()
    assert not passed
    assert "gcd formula" in detail and "vs rank" in detail


def test_fano_through_the_cli(tmp_path, capsys):
    # the full pipeline for the first criterion: generate the family file,
    # then analyze it with both engines cross-checked
    start = time.perf_counter()
    path = tmp_path / "fano.hg"
    assert main(["family", "fano", "-o", str(path)]) == 0
    assert main(["analyze", str(path), "--method", "both", "--weights"]) == 0
    elapsed = time.perf_counter() - start
    data = json.loads(capsys.readouterr().out)
    assert (data["length"], data["dimension"], data["min_distance"]) == (7, 4, 3)
    assert data["min_distance_method"] == "both"
    assert data["weight_distribution"] == {"0": 1, "3": 7, "4": 7, "7": 1}
    assert elapsed < 1.0
    print(f"PASS fano-cli: [7,4,3] via family+analyze ({elapsed:.2f}s)")
