"""Smoke tests for the experiment scripts, run as subprocesses."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import hypercode.codes as codes

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


def program_trees(source: str):
    """The syntax tree of a script, and of each string in it that is a
    program of its own, such as the text a script runs in a subprocess."""
    tree = ast.parse(source)
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "import" in node.value:
            try:
                yield ast.parse(node.value)
            except SyntaxError:
                continue


def test_scripts_read_only_names_that_codes_has():
    # No test runs the benchmark scripts whole, so a name they read from
    # hypercode.codes that is renamed or deleted would only show when one
    # is run.  Both kinds of read must be found, or the scan reads nothing.
    attributes, imported, missing = set(), set(), []
    for path in sorted(SCRIPTS.glob("*.py")):
        for tree in program_trees(path.read_text()):
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "hypercode.codes":
                    names = [alias.name for alias in node.names]
                    imported.update(names)
                elif isinstance(node, ast.Attribute) and ast.unparse(node.value) in ("codes", "hypercode.codes"):
                    names = [node.attr]
                    attributes.update(names)
                else:
                    continue
                missing += [f"{path.name}:{node.lineno}: {name}" for name in names if not hasattr(codes, name)]
    assert attributes and imported
    assert missing == []
