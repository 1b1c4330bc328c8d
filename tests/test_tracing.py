"""The benchmark tracer (`bench/tracing.py`) looks up the functions and
methods it wraps by name.  Installing and uninstalling it here makes a
rename of a traced name fail the test suite, not the next traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
