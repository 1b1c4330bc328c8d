"""The package has no runtime dependency, the CLI imports only what it uses,
the general substitution and division serve only as references, and only
`poly.py` reads the rational coefficient view."""

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


def test_general_substitution_and_division_are_reference_only():
    # every production substitution is an exponent rewrite (`shift`, `bind`
    # and the blow-ups' own) and every division a `shift`; `substitute` and
    # `div_exact` are the independent references of the self-checks and tests
    callers = {"substitute": set(), "div_exact": set()}
    for path in sorted((SRC / "desing").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in callers:
                callers[node.func.attr].add(path.name)
    assert callers["substitute"] <= {"selfcheck.py"}
    assert callers["div_exact"] == set()


def test_only_poly_reads_the_rational_view():
    # `Poly.terms` builds a Fraction per coefficient; the package works on
    # the integer numerators `nums` over `den`, and leaves the view to tests
    readers = set()
    for path in sorted((SRC / "desing").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "terms":
                readers.add(path.name)
    assert readers <= {"poly.py"}
