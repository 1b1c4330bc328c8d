"""The package has no runtime dependency, and the CLI imports only what it uses."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_cli_import_loads_neither_numpy_nor_the_selfcheck_suite():
    probe = "import sys, desing.cli; print(sorted({'numpy', 'desing.selfcheck'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env={"PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"


def test_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert any(req.startswith("numpy") for req in project["optional-dependencies"]["test"])
    for path in sorted((SRC / "desing").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n == "numpy" or n.startswith("numpy.") for n in names), path.name
