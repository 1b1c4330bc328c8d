"""The benchmark's oracles (`bench/oracles.py`) check every op of a workload
with sympy and never call desing.  Replaying one op cycle of each workload
(`bench/workloads.py`) through them here puts the exactness promise under
the test suite at seeds that no benchmark set uses: set A is 1-10 and
set B is 101-110."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from desing.cli import main

pytest.importorskip("numpy")
pytest.importorskip("sympy")

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    # registered before it runs: `dataclass` looks its module up by name
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
oracles = _load("oracles")


@pytest.mark.parametrize("seed", [11, 111])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracles_pass_every_op(tmp_path, workload, seed):
    corpus = workloads.Corpus(tmp_path, BENCH.parent)
    ops = workloads.generate(workload, seed, corpus)
    assert ops
    for op in ops:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(op.argv)
            except SystemExit as stop:
                rc = stop.code
        assert rc == op.expect_rc, (op.key, err.getvalue())
        reason, _ = oracles.check(op, rc, err.getvalue())
        assert reason is None, (op.key, reason)
