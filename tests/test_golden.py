"""Golden corpus: CLI output must match the committed bytes exactly.

Each case runs `desing.cli.main` on an input under `inputs/` or
`tests/golden/inputs/` and compares stdout with `tests/golden/expected/`.
The eps_merge field has two divisor points 1e-10 rad apart, and the
unit_interval field has an exact rational point on a chart-overlap boundary
(|w| = 1) of a divisor polynomial with the leading coefficient 10^13; both
pin the chart-ownership key.  The near_one field has an x-wing point whose
root w = 1 - 10^-17 rounds to 1.0, which pins the wing linearization through
the chart far out on the hyperboloid.  K3 and K4 reflect K1 and K2 when the
pure radial exponent is odd; the antipodal_cubic field (weights (1, 1, 2))
pins the reflection w -> -w with an even time factor, and the weighted_12
field (weights (1, 2, 1)) one that keeps w and reverses time, next to a K4
that cannot be reflected.  The dense fields of degree 8, 12 and 16
have irrational divisor roots, so their JSON reports pin the isolating
interval endpoints: a change to the bisection path fails here even when the
classification is unchanged.  The huge_e60 and huge_e100 fields have
coefficients 10^60 and 10^100, whose root layer leaves the float filter and
the float guesses for exact signs: no float overflow may escape there.
The portrait CSVs pin the term order of the chart and polar fields: the
float evaluators sum in term order, so a reordered field changes the last
digits of the trajectories.  The k0_mixed field has a nonzero linear part, so
every polar model divides by radius^0 and its portraits sum the radial
component in the order the pushforward builds it, which is not grlex order.
A division by a positive radial power sorts the terms, so only these
portraits pin that order: sorting it changes both hyperbolic CSVs.

The verify cases pin the runtime suite's report on the demo field and on
weighted_cubic.vf: each check's name, case count and detail, whose floats
depend on the seeded draws and on the float expressions of the check.

A change that alters an output on purpose regenerates the files it means to
change with `PYTHONPATH=src python tests/test_golden.py NAME ...` (every case
when no name is given), which prints each file whose bytes changed, and says
which file changed and why.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from desing.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
QUADRATIC = ROOT / "inputs" / "quadratic.vf"
CUBIC = ROOT / "inputs" / "weighted_cubic.vf"


def _cases():
    cases = {}
    for a in ("1", "2"):
        for model in ("sphere", "directional", "hyperbolic-x", "hyperbolic-y"):
            for fmt, ext in (("text", "txt"), ("json", "json")):
                cases[f"analyze-quadratic-a{a}-{model}.{ext}"] = (
                    ["analyze", QUADRATIC, "--param", f"a={a}", "--model", model, "--format", fmt]
                )
    for name, path in (("quadratic", QUADRATIC), ("cubic", CUBIC)):
        for fmt, ext in (("text", "txt"), ("json", "json")):
            cases[f"weights-{name}.{ext}"] = ["weights", path, "--format", fmt]
            for model in ("directional", "sphere", "hyperbolic-x", "hyperbolic-y"):
                cases[f"blowup-{name}-{model}.{ext}"] = ["blowup", path, "--model", model, "--format", fmt]
    for fmt, ext in (("text", "txt"), ("json", "json")):
        cases[f"analyze-cubic.{ext}"] = ["analyze", CUBIC, "--format", fmt]
    for name in ("eps_merge", "unit_interval", "antipodal_cubic", "weighted_12"):
        for fmt, ext in (("text", "txt"), ("json", "json")):
            cases[f"analyze-{name}.{ext}"] = ["analyze", GOLDEN / "inputs" / f"{name}.vf", "--format", fmt]
    for fmt, ext in (("text", "txt"), ("json", "json")):
        cases[f"analyze-near_one-hyperbolic-x.{ext}"] = [
            "analyze", GOLDEN / "inputs" / "near_one.vf", "--model", "hyperbolic-x", "--format", fmt,
        ]
    for n in (8, 12, 16):
        cases[f"analyze-dense-d{n}.json"] = ["analyze", GOLDEN / "inputs" / f"dense_d{n}.vf", "--format", "json"]
    for e in (60, 100):
        cases[f"analyze-huge_e{e}.json"] = ["analyze", GOLDEN / "inputs" / f"huge_e{e}.vf", "--format", "json"]
    a1 = ["--param", "a=1"]
    portraits = (
        ("quadratic-original", QUADRATIC, a1, "original", "0.1:0.5:2,0.1:0.5:2"),
        ("quadratic-K1", QUADRATIC, a1, "K1", "0.1:0.5:2,0.1:0.5:2"),
        ("quadratic-K2", QUADRATIC, a1, "K2", "0.1:0.5:2,0.1:0.5:2"),
        ("quadratic-K3", QUADRATIC, a1, "K3", "0.1:0.5:2,-0.5:-0.1:2"),
        ("quadratic-K4", QUADRATIC, a1, "K4", "0.1:0.5:2,-0.5:-0.1:2"),
        ("quadratic-sphere", QUADRATIC, a1, "sphere", "0.2:2.8:2,0.1:0.4:2"),
        # a non-dyadic parameter value exercises the exact parameter binding
        ("quadratic-a7_10-sphere", QUADRATIC, ["--param", "a=7/10"], "sphere", "0.2:2.8:2,0.1:0.4:2"),
        ("quadratic-hyperbolic-x", QUADRATIC, a1, "hyperbolic-x", "0.15:0.65:2,0.1:0.4:2"),
        ("quadratic-hyperbolic-y", QUADRATIC, a1, "hyperbolic-y", "0.15:0.65:2,0.1:0.4:2"),
        ("cubic-K1", CUBIC, [], "K1", "0.1:0.5:2,0.1:0.5:2"),
    )
    for name, path, params, frame, grid in portraits:
        cases[f"portrait-{name}.csv"] = [
            "portrait", path, *params, "--frame", frame, f"--grid={grid}", "--t-end", "0.2",
        ]
    # a nonzero linear part gives k = 0 on every polar model, so these pin the
    # raw radial term order that the division by radius^k otherwise hides
    for frame in ("sphere", "hyperbolic-x", "hyperbolic-y"):
        cases[f"portrait-k0_mixed-{frame}.csv"] = [
            "portrait", GOLDEN / "inputs" / "k0_mixed.vf", "--param", "a=7/10", "--frame", frame,
            "--grid=0.3:2.5:3,0.2:0.6:2", "--t-end", "0.3",
        ]
    # both orbits escape the x-wing (backward after 6 points, forward after
    # 50), which pins the left-domain ending of the cosh frame in both directions
    cases["portrait-quadratic-hyperbolic-x-escape.csv"] = [
        "portrait", QUADRATIC, *a1, "--frame", "hyperbolic-x", "--grid=-1:1:2,1:1:1",
        "--t-end", "0.3", "--step", "0.005",
    ]
    # the verify ops of the benchmark: every check's name, case count and
    # detail text, so a rewritten check must keep its draws and its output
    for name, argv in (("demo-s0", ["--seed", "0"]), ("demo-s1", ["--seed", "1"]),
                       ("weighted_cubic-s0", [CUBIC, "--seed", "0"])):
        cases[f"verify-{name}.txt"] = ["verify", *argv]
    return {name: [str(a) for a in argv] for name, argv in cases.items()}


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, capsys):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    expected = (GOLDEN / "expected" / name).read_text(encoding="utf-8")
    assert out == expected


def _entry(value):
    """A JSON Jacobian entry: an exact rational string or a float."""
    return Fraction(value) if isinstance(value, str) else value


@pytest.mark.parametrize("name", sorted(p.name for p in (GOLDEN / "expected").glob("analyze-*.json")))
def test_golden_jacobians_are_diagonal(name):
    # every divisor Jacobian is diagonal, and its eigenvalues are its sorted
    # diagonal: real, and exact where the member is
    report = json.loads((GOLDEN / "expected" / name).read_text(encoding="utf-8"))
    for member in (e for m in report["equilibria"] for e in m["members"]):
        (a, b), (c, d) = ([_entry(x) for x in row] for row in member["jacobian"])
        assert b == 0 and c == 0
        diagonal = sorted((a, d))
        assert [im for _, im in member["eigenvalues"]] == [0.0, 0.0]
        assert [re for re, _ in member["eigenvalues"]] == [float(x) for x in diagonal]
        if member["exact"]:
            assert [Fraction(v) for v in member["eigenvalues_exact"]] == diagonal


if __name__ == "__main__":
    import contextlib
    import io
    import sys

    names = sys.argv[1:] or sorted(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        raise SystemExit(f"unknown golden case(s): {' '.join(unknown)}")
    (GOLDEN / "expected").mkdir(exist_ok=True)
    for name in names:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if main(CASES[name]) != 0:
                raise SystemExit(f"{name}: non-zero exit")
        path = GOLDEN / "expected" / name
        old = path.read_text(encoding="utf-8") if path.exists() else None
        if buf.getvalue() != old:
            path.write_text(buf.getvalue(), encoding="utf-8")
            print(f"{'changed' if old is not None else 'created'}: {name}")
