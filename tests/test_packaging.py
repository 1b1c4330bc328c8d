"""The package has no runtime dependency, the CLI imports only what it uses,
the general substitution and division serve only as references, only
`poly.py` reads the rational coefficient view, the functions that build a
divisor report make no display float, one RK4 loop serves every orbit, and
`cli._emit` alone writes command output."""

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


def test_report_builders_make_no_display_float():
    # a divisor point stores exact data, and every float of a display (its
    # coordinates, angle and cosh-scaled diagonal) is derived when a renderer
    # reads it: the functions that build a report round nothing
    builders = {
        "global_divisor_report", "divisor_equilibria", "_interval_equilibrium", "_member",
        "_reflected_equilibria", "_owned_points", "_circle_picture", "_wing_picture",
    }
    path = SRC / "desing" / "equilibria.py"
    module = ast.parse(path.read_text(), str(path))
    banned = {"float", "divisor_angle", "_sqrt_float"}
    for node in module.body:
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            banned |= {alias.asname or alias.name for alias in node.names}
    calls = {}
    for node in module.body:
        if isinstance(node, ast.FunctionDef) and node.name in builders:
            calls[node.name] = sorted(
                ast.unparse(call.func)
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and (
                    isinstance(call.func, ast.Name) and call.func.id in banned
                    or isinstance(call.func, ast.Attribute) and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "math"
                )
            )
    assert calls == {name: [] for name in builders}


def test_one_rk4_loop():
    # `integrate` and `conjugacy_check` share one RK4 step: only the lazy
    # stepper evaluates a frame's function (`func(...)` or `<frame>.func(...)`),
    # and `integrate` only drains it
    path = SRC / "desing" / "dynamo.py"
    module = ast.parse(path.read_text(), str(path))
    scopes = [(node.name, node) for node in module.body if isinstance(node, ast.FunctionDef)]
    scopes += [
        (f"{cls.name}.{node.name}", node)
        for cls in module.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)
    ]
    evaluators = {
        name
        for name, node in scopes
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and (
            isinstance(call.func, ast.Name) and call.func.id == "func"
            or isinstance(call.func, ast.Attribute) and call.func.attr == "func"
        )
    }
    assert evaluators == {"_Stepper.__iter__"}
    integrate = dict(scopes)["integrate"]
    loops = (ast.For, ast.AsyncFor, ast.While, ast.comprehension)
    assert not [type(node).__name__ for node in ast.walk(integrate) if isinstance(node, loops)]


def _opens_for_writing(call: ast.Call) -> bool:
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))


def test_cli_writes_command_output_only_through_emit():
    # stdout is named, written or a file opened for writing only in `_emit`,
    # and every print goes to stderr
    path = SRC / "desing" / "cli.py"
    module = ast.parse(path.read_text(), str(path))
    writers = set()
    for top in module.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout":
                writers.add(name)
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("write", "writelines", "write_text", "write_bytes"):
                writers.add(name)
            elif isinstance(func, ast.Name) and func.id == "open" and _opens_for_writing(node):
                writers.add(name)
            elif isinstance(func, ast.Name) and func.id == "print":
                target = next((k.value for k in node.keywords if k.arg == "file"), None)
                assert target is not None and ast.unparse(target) == "sys.stderr", (name, ast.unparse(node))
    assert writers == {"_emit"}
