"""Smoke tests for the experiment scripts, run as subprocesses."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hypercode.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_family_parameters_table():
    result = run_script("family_parameters.py", "--max-part", "2", "--max-pg", "3")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("family")
    assert re.search(r"fano \(circulant labeling\)\s+\[7, 4, 3\]\s+\{1\}$", lines[1])
    assert any("[8, 4, 4]" in line for line in lines)


def test_selfdual_search_reports_every_section():
    result = run_script("selfdual_search.py", "--seed", "3", "--budget", "200")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert re.fullmatch(r"connected samples: \d+ / 200", lines[0])
    assert lines[1].startswith("self-orthogonal hits by (n, m): ")
    assert lines[2].startswith("self-dual hits by (n, m): ")
    assert re.fullmatch(r"counting criterion vs direct check: 0 mismatches on \d+ connected graphs", lines[3])


@pytest.mark.parametrize(
    "seed, n_max, budget, uniform",
    [("7", "6", "300", "2"), ("5", "7", "200", "3")],
)
def test_script_and_cli_scan_the_same_samples(capsys, seed, n_max, budget, uniform):
    args = ("--seed", seed, "--n-max", n_max, "--budget", budget, "--uniform", uniform)
    result = run_script("selfdual_search.py", *args)
    assert result.returncode == 0, result.stderr
    script_count = re.match(r"connected samples: (\d+) / " + budget, result.stdout).group(1)
    assert main(["selfdual-scan", *args]) == 0
    cli_count = re.search(r"scanned (\d+) connected samples", capsys.readouterr().err).group(1)
    assert script_count == cli_count


@pytest.mark.parametrize(
    "argv",
    [("--n-max", "1"), ("--uniform", "0"), ("--uniform", "9"), ("--budget", "-1")],
)
def test_selfdual_search_bad_parameters_exit_2(argv):
    result = run_script("selfdual_search.py", "--seed", "1", *argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
