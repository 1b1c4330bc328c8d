"""The benchmark tracer (`bench/tracing.py`) looks up the functions and
methods it wraps by name.  Installing and uninstalling it here makes a
rename of a traced name fail the test suite, not the next traced run.
The same names, with the public API, are the only ones the package may
define without using them itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import desing
from desing.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(modname, attr):
    owner = importlib.import_module(modname)
    if "." in attr:
        cls_name, attr = attr.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, attr)


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    before = {(m, a): _lookup(m, a) for _, m, a in tracing.TARGETS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert {name for name, _, _ in tracing.TARGETS} <= tracer.names
        assert all(_lookup(m, a) is not fn for (m, a), fn in before.items())
    finally:
        tracer.uninstall()
    assert all(_lookup(m, a) is fn for (m, a), fn in before.items())


@pytest.mark.parametrize(
    "frame, name", [("K1", "charts.as_callable"), ("original", "vectorfield.as_callable")]
)
def test_portrait_frame_compile_is_traced(tmp_path, frame, name):
    # a frame is compiled by the traced `as_callable` of its field, once
    # for both directions
    tracer = _load_tracing().Tracer()
    argv = ["portrait", str(ROOT / "inputs" / "quadratic.vf"), "--param", "a=1", "--frame", frame,
            "--grid", "0.1:0.2:2,0.1:0.2:1", "--t-end", "0.02", "-o", str(tmp_path / "out.csv")]
    try:
        tracer.install()
        assert tracer.run_op(main, argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.calls[name] == 1


def test_package_uses_every_name_it_defines():
    # a function, class, method or module constant that no code in
    # src/desing reads is reachable from the tests only
    defined, used = {}, set()
    for path in sorted((ROOT / "src" / "desing").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined.setdefault(target.id, f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    exempt = set(desing.__all__) | {attr.split(".")[-1] for _, _, attr in _load_tracing().TARGETS}
    unused = [
        f"{name} ({where})"
        for name, where in defined.items()
        if name not in used and name not in exempt and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unused, "used nowhere in src/desing: " + ", ".join(unused)
