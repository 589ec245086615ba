"""Smoke tests for the experiment scripts, run as subprocesses."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

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
