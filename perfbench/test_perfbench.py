"""Self-tests of the benchmark: seeded inputs, the oracle, the output contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

import oracle
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))
hc = run.import_hypercode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    first = workloads.fingerprint(workloads.generate(workload, 7))
    assert workloads.fingerprint(workloads.generate(workload, 7)) == first
    assert workloads.fingerprint(workloads.generate(workload, 8)) != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_keeps_the_work(workload):
    counts = workloads.work_counts(workloads.generate(workload, 7))
    other = workloads.work_counts(workloads.generate(workload, 8))
    assert counts["items"] == other["items"]
    if workload == "exhaustive":
        assert counts["sum_2k"] == other["sum_2k"] and counts["sum_2n"] == other["sum_2n"]


@pytest.mark.parametrize(
    "item, family",
    [
        (workloads.fano("both"), lambda: hc.fano_circulant()),
        (workloads.k3partite(3, "analyze", "both"), lambda: hc.complete_3partite(3)),
        (workloads.projective_geometry(3, "analyze", "both"), lambda: hc.projective_geometry(3)),
        (workloads.block_circulant(2, 2, "both"), lambda: hc.circulant_hypergraph(hc.block_row(2, 2))),
        (workloads.block_circulant(4, 1, "both"), lambda: hc.circulant_hypergraph(hc.block_row(4, 1))),
    ],
)
def test_named_families_match_the_library(item, family):
    assert item.text == hc.format_hypergraph(family())
    report = hc.analyze_hypergraph(hc.parse_hypergraph(item.text), weights=True)
    assert oracle.check(item, report.to_json()) == []


def planted(item, **changes) -> str:
    report = json.loads(hc.analyze_hypergraph(hc.parse_hypergraph(item.text), weights=True).to_json())
    report.update(changes)
    return json.dumps(report)


def test_planted_wrong_reports_count_as_failures():
    fano = workloads.fano("both")
    k3 = workloads.k3partite(2, "analyze", "both")  # [8, 4, 4], self-dual
    right = planted(fano)
    off_by_one = planted(fano, min_distance=4)
    flipped = planted(k3, self_dual=False)
    assert oracle.check(fano, right) == []
    assert oracle.check(fano, off_by_one)
    assert oracle.check(k3, flipped)

    tally = run.Tally(hc)
    tally.record([fano, fano, k3], [right, off_by_one, flipped])
    assert (tally.attempted, tally.failed, tally.check_failures) == (3, 2, 2)


def test_planted_wrong_selfdual_answer_counts_as_failure():
    item = workloads.connected_multigraph(random.Random(1), 5, 0)
    out = run.run_item(run.plain_api(hc), item)
    assert out["self_dual"] and oracle.check(item, out) == []
    tally = run.Tally(hc)
    tally.record([item, item], [out, dict(out, self_dual=False)])
    assert tally.failed == 1


def test_raised_errors_count_as_failures():
    item = workloads.fano("both")
    tally = run.Tally(hc)
    with contextlib.redirect_stderr(io.StringIO()):
        tally.record([item], [hc.EngineDisagreement("planted")])
    assert (tally.failed, tally.disagreements) == (1, 1)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_names_every_declared_metric(trace, capsys):
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    code = run.main(["--workload", "selfdual", "--seed", "3", "--seconds", "0.1", "--trace", trace])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }


def test_traced_run_fails_when_an_expected_layer_is_idle(monkeypatch, capsys):
    busy = tracing.EXPECTED_BUSY["selfdual"] + ("codes.codeword_scan",)
    monkeypatch.setitem(tracing.EXPECTED_BUSY, "selfdual", busy)
    code = run.main(["--workload", "selfdual", "--seed", "3", "--seconds", "0.1", "--trace", "1"])
    captured = capsys.readouterr()
    assert code == 3 and "codes.codeword_scan" in captured.err
    assert '"correct"' not in captured.out


def test_chunks_cover_every_item_once():
    chunks = run.plan_chunks([0.03, 0.03, 0.2, 0.01, 0.01], target=0.05)
    assert [(start, stop) for start, stop, _ in chunks] == [(0, 2), (2, 3), (3, 5)]
    assert [seconds for _, _, seconds in chunks] == pytest.approx([0.06, 0.2, 0.02])
    assert run.plan_chunks([], target=0.05) == []


def test_pass_times_are_in_reference_units():
    items = workloads.generate("selfdual", 3)[:40]
    result = run.run_pass(run.plain_api(hc), items, [(0, 25, 0.01), (25, 40, 0.01)])
    assert all(oracle.check(item, out) == [] for item, out in zip(items, result.outputs))
    # Every input of a chunk is divided by the same reference time.
    factors = [result.scaled_latency[i] / result.latency[i] for i in range(25)]
    assert max(factors) == pytest.approx(min(factors))
    assert 0 < sum(result.latency) < result.elapsed
