"""The demos run, and import only names that puxp has.

Demos 01-04 take under a second each, so they run as subprocesses and must
exit 0. Demos 05 and 06 train models for far longer than the rest of the
suite takes; they are parsed only, which still catches a renamed or deleted
name at import.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RUN = [p for p in DEMOS if p.name[:2] in ("01", "02", "03", "04")]


def test_demos_are_found():
    assert DEMOS
    assert len(RUN) == 4


@pytest.mark.parametrize("path", RUN, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(path)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "puxp":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "puxp":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")  # a submodule
