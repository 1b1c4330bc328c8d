import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desing.charts import ChartId, blow_up_in_chart
from desing.cli import _num, analysis_payload, build_parser, main, render_analysis_text
from desing.dsl import lower_to_polynomials, parse_field_spec
from desing.dynamo import Trajectory, sample_portrait
from desing.equilibria import global_divisor_report
from desing.errors import DesingError, NonFiniteField
from desing.polar import MODELS, desingularize_polar, polar_pushforward
from desing.weights import infer_weights

ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / "inputs"
QUADRATIC = str(INPUTS / "quadratic.vf")
WEIGHTED = str(INPUTS / "weighted_cubic.vf")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weights_text(capsys):
    code, out, _ = run(capsys, "weights", QUADRATIC)
    assert code == 0
    assert out == "(alpha, beta, k) = (1, 1, 1)\n"


def test_weights_json(capsys):
    code, out, _ = run(capsys, "weights", WEIGHTED, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"alpha": 2, "beta": 1, "k": 2}


def test_weights_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"var x y; dx/dt = y; dy/dt = x;")))
    code, out, _ = run(capsys, "weights", "-")
    assert code == 0
    assert out == "(alpha, beta, k) = (1, 1, 0)\n"


def test_analyze_text_report(capsys):
    code, out, _ = run(capsys, "analyze", QUADRATIC, "--param", "a=1")
    assert code == 0
    assert "divisor equilibria (6):" in out
    assert out.count("hyperbolic-saddle") == 6
    assert "cross-derivation notes" in out
    assert "x2*(2*a*r2 - 3)" in out and "x2*(2*a*x2 - 3)" in out  # both variants shown
    assert "6*y1 - 3*a" in out and "6*y1 - 2*a" in out
    assert "2*a*cosh(phi)*sinh(phi)^2" in out
    assert "(phi, rho) = (0, tanh(2*a/3))" in out


def test_analyze_unbound_parameter_exit_code(capsys):
    code, _, err = run(capsys, "analyze", QUADRATIC)
    assert code == 1
    assert "parameter 'a' has no binding" in err


def test_analyze_sign_constraint(capsys):
    code, _, err = run(capsys, "analyze", QUADRATIC, "--param", "a=-1")
    assert code == 1
    assert "positive" in err


def test_analyze_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.vf"
    bad.write_text("var x y; dx/dt = q; dy/dt = 0;")
    code, _, err = run(capsys, "analyze", str(bad), "--param", "a=1")
    assert code == 1
    assert "undeclared identifier" in err


@pytest.mark.parametrize("command", ["weights", "analyze"])
def test_zero_field_one_line_error(tmp_path, capsys, command):
    zero = tmp_path / "zero.vf"
    zero.write_text("var x y; dx/dt = 0; dy/dt = 0;")
    code, out, err = run(capsys, command, str(zero))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"{command}: the zero field has no quasi-homogeneous type"]


@pytest.mark.parametrize(
    "src, message",
    [
        (
            "var x y; dx/dt = x; dy/dt = y;",
            "weight constraints underdetermine (alpha, beta, k); generators: "
            "(1, 0, 0), (0, 1, 0); minimal positive choice (1, 1, 0)",
        ),
        (
            "var x y; dx/dt = x^2; dy/dt = 0;",
            "weight constraints underdetermine (alpha, beta, k); generators: "
            "(0, 1, 0), (1, 0, 1); minimal positive choice (1, 1, 1)",
        ),
    ],
    ids=["linear", "x-squared"],
)
def test_ambiguous_weights_one_line_error(tmp_path, capsys, src, message):
    path = tmp_path / "ambiguous.vf"
    path.write_text(src)
    code, out, err = run(capsys, "weights", str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"weights: {message}"]


def test_power_with_a_huge_coefficient_one_line_error(tmp_path, capsys):
    # rejected at the exponent, before 10^10000 is raised to the 10000th power
    path = tmp_path / "huge.vf"
    path.write_text("var x y; dx/dt = (10^10000)^10000*x; dy/dt = y;")
    code, out, err = run(capsys, "weights", str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "weights: 1:29: coefficient of about 332200000 bits exceeds the supported bound of 65536 bits"
    ]


def test_product_with_a_huge_coefficient_one_line_error(tmp_path, capsys):
    # two literals of 39,864 bits each: the product's leading coefficient
    # 10^24000 has 79,727 bits and is rejected at the `*` between them
    big = "1" + "0" * 12000
    src = f"var x y; dx/dt = {big}*{big}*x^2 - x*y; dy/dt = y^2 - x*y;"
    path = tmp_path / "huge.vf"
    path.write_text(src)
    code, out, err = run(capsys, "weights", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"weights: 1:{src.index('*') + 1}: coefficient of about 79727 bits exceeds the supported bound of 65536 bits"
    ]
    # the bound is on the exact product: 1/10^12000 * 10^12000 is 1
    path.write_text(src.replace("= ", "= 1/", 1))
    code, out, err = run(capsys, "weights", str(path))
    assert (code, out, err) == (0, "(alpha, beta, k) = (1, 1, 1)\n", "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_coefficients_past_the_int_text_limit_print_exactly(tmp_path, capsys, fmt):
    # int refuses to convert more than 4300 digits to text by default; the
    # parser reads such literals and the printer writes them digit for
    # digit, up to the coefficient budget: 10^19728 has 65535 bits
    digits, budget = "7" * 5000, "1" + "0" * 19728
    for rhs, printed in (("10^5000", "1" + "0" * 5000), (digits, digits), (budget, budget)):
        path = tmp_path / "huge.vf"
        path.write_text(f"var x y; dx/dt = {rhs}*x^2 - x*y; dy/dt = y^2 - x*y;")
        code, out, err = run(capsys, "blowup", str(path), "--format", fmt)
        assert (code, err) == (0, "")
        assert printed in out
        code, out, err = run(capsys, "weights", str(path))
        assert (code, out, err) == (0, "(alpha, beta, k) = (1, 1, 1)\n", "")


def test_exact_values_past_the_int_text_limit_render():
    # the analyze reports write exact roots, enclosures and eigenvalues with
    # `_num`; isolating a root with this many digits takes tens of seconds
    assert _num(Fraction(-(10**5000) - 1, 10**5001)) == "-1" + "0" * 4999 + "1/1" + "0" * 5001
    assert _num(Fraction(7 * 10**5000)) == "7" + "0" * 5000


def test_bindings_past_the_int_text_limit_render():
    # a hand-built report: analyze of a 5,000-digit binding spends seconds in
    # the root layer before it renders
    f = lower_to_polynomials(parse_field_spec(Path(QUADRATIC).read_text()))
    report = global_divisor_report(f, infer_weights(f), {"a": Fraction(1)})
    report.bindings = {"a": Fraction(7 * (10**5000 - 1) // 9)}
    assert f"\nbindings: a = {'7' * 5000}\n" in render_analysis_text(report)
    assert analysis_payload(report)["bindings"] == {"a": "7" * 5000}


def test_numbers_are_ascii_digits(tmp_path, capsys):
    # identifiers are ASCII, and so are numbers: an Arabic-Indic three or a
    # fullwidth two is an unexpected character at its line:column
    path = tmp_path / "digits.vf"
    for rhs, message in (("\u0663*x^2", "2:9: unexpected character '\u0663'"),
                         ("3*x^\uff12", "2:13: unexpected character '\uff12'")):
        path.write_text(f"var x y;\ndx/dt = {rhs};\ndy/dt = y^2;\n", encoding="utf-8")
        code, out, err = run(capsys, "weights", str(path))
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"weights: {message}"]
    path.write_text("var x y;\ndx/dt = 3*x^2;\ndy/dt = y^2;\n", encoding="utf-8")
    assert run(capsys, "weights", str(path)) == (0, "(alpha, beta, k) = (1, 1, 1)\n", "")


@pytest.mark.parametrize(
    "rhs, message",
    [
        ("1" * 20000 + "*x", "1:18: coefficient of about 66436 bits exceeds the supported bound of 65536 bits"),
        ("9" * 19729 + "*x", "1:18: coefficient of about 65539 bits exceeds the supported bound of 65536 bits"),
        ("1" * 10**6 + "*x", "1:18: coefficient of about 3321925 bits exceeds the supported bound of 65536 bits"),
        ("1/" + "9" * 20000 + "*x", "1:20: coefficient of about 66436 bits exceeds the supported bound of 65536 bits"),
        ("0." + "0" * 70000 + "1*x", "1:18: coefficient of about 70002 bits exceeds the supported bound of 65536 bits"),
        ("x^" + "9" * 5000, "1:20: exponent " + "9" * 5000 + " exceeds the supported bound 10000"),
    ],
    ids=["integer", "exact-bits", "million-digits", "denominator", "decimal", "exponent"],
)
def test_literal_past_the_budget_one_line_error(tmp_path, capsys, rhs, message):
    # rejected at the literal's token; the million digits by their count,
    # without converting them
    path = tmp_path / "huge.vf"
    path.write_text(f"var x y; dx/dt = {rhs}; dy/dt = y;")
    code, out, err = run(capsys, "weights", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"weights: {message}"]


@pytest.mark.parametrize(
    "name, argv, message",
    [
        ("r1", ["analyze"], "chart variable 'r1' collides with a field variable"),
        ("y1", ["blowup"], "chart variable 'y1' collides with a field variable"),
        ("x2", ["analyze", "--model", "directional"], "chart variable 'x2' collides with a field variable"),
        ("c", ["blowup", "--model", "sphere"], "parameter name(s) ['c'] collide with the quotient-ring variables ('c', 's', 'r')"),
        ("s", ["analyze", "--model", "hyperbolic-y"], "parameter name(s) ['s'] collide with the quotient-ring variables ('c', 's', 'r')"),
    ],
    ids=["r1-analyze", "y1-blowup", "x2-directional", "c-sphere", "s-hyperbolic-y"],
)
def test_name_collision_one_line_error(tmp_path, capsys, name, argv, message):
    src = tmp_path / "clash.vf"
    src.write_text(f"param {name} > 0; var x y; dx/dt = {name}*x^2 - 2*x*y; dy/dt = y^2 - x*y;")
    code, out, err = run(capsys, argv[0], str(src), "--param", f"{name}=1", *argv[1:])
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"{argv[0]}: {message}"]


@pytest.mark.parametrize("frame", ["sphere", "hyperbolic-x"])
def test_portrait_polar_frame_needs_an_equilibrium(tmp_path, capsys, frame):
    src = tmp_path / "shifted.vf"
    src.write_text("var x y; dx/dt = 1; dy/dt = x;")
    code, out, err = run(capsys, "portrait", str(src), "--frame", frame, "--grid", "0:1:2,0.1:1:2")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "portrait: the blow-up needs f(0, 0) = 0 identically in the parameters, "
        "but dx/dt = 1 at the origin"
    ]


def test_missing_file_exit(capsys):
    code, _, err = run(capsys, "analyze", "no-such-file.vf")
    assert code == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", QUADRATIC, "--param", "oops"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "option, value",
    [
        ("--step", "0"),
        ("--step", "-1"),
        ("--step", "nan"),
        ("--step", "inf"),
        ("--t-end", "0"),
        ("--t-end", "nan"),
        ("--grid", "0.1:0.5:-3,0.1:0.5:2"),
        ("--grid", "0.1:0.5:2,0.1:0.5:-1"),
        ("--grid", "0.1:nan:2,0.1:0.5:2"),
        ("--grid", "0.1:0.5:2,-inf:0.5:2"),
        # finite bounds whose span v1 - v0 (or u1 - u0) overflows
        ("--grid", "0:1:2,-1e308:1e308:3"),
        ("--grid", "1e308:-1e308:1,0:1:2"),
    ],
)
def test_portrait_rejects_bad_numbers(capsys, option, value):
    argv = ["portrait", QUADRATIC, "--param", "a=1", "--grid", "0.1:0.5:2,0.1:0.5:2", option, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(f"desing portrait: error: argument {option}: ")


def test_json_analysis_roundtrips_bytes(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "analyze", QUADRATIC, "--param", "a=1", "--format", "json", "-o", str(out_path))
    assert code == 0
    raw = out_path.read_text()
    rendered = json.dumps(json.loads(raw), sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert rendered == raw
    payload = json.loads(raw)
    assert len(payload["equilibria"]) == 6
    assert payload["weights"] == {"alpha": 1, "beta": 1, "k": 1}
    assert payload["equilibria"][0]["members"][0]["eigenvalues_exact"] == ["-2", "1"]


def test_outputs_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "analyze", QUADRATIC, "--param", "a=1", "--format", "json", "-o", str(a))
    run(capsys, "analyze", QUADRATIC, "--param", "a=1", "--format", "json", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_blowup_directional(capsys):
    code, out, _ = run(capsys, "blowup", QUADRATIC, "--charts", "K1,K2")
    assert code == 0
    assert "K1:" in out and "K2:" in out and "K3:" not in out
    assert "a*r1^2 - 2*r1^2*y1" in out


def test_blowup_sphere(capsys):
    code, out, _ = run(capsys, "blowup", QUADRATIC, "--model", "sphere")
    assert code == 0
    assert "theta'" in out and "cos(theta)" in out


def test_blowup_text_is_laid_out_from_the_fields(capsys):
    # the chart lines in sorted order and each polar block, from the fields
    f = lower_to_polynomials(parse_field_spec(Path(QUADRATIC).read_text()))
    w = infer_weights(f)
    lines = [f"weights: {w}"]
    for chart in (ChartId.K1, ChartId.K3, ChartId.K4):
        cf = blow_up_in_chart(f, w, chart)
        r, a = cf.radial_var, cf.angular_var
        lines.append(
            f"{chart}: {r}' = {cf.raw[0]}, {a}' = {cf.raw[1]} "
            f"(desingularized: {r}' = {cf.desing[0]}, {a}' = {cf.desing[1]})"
        )
    assert run(capsys, "blowup", QUADRATIC, "--charts", "K4,K1,K3") == (0, "\n".join(lines) + "\n", "")
    for model, key in MODELS.items():
        raw = polar_pushforward(f, *key)
        lines = [f"weights: {w}"]
        for name, pf in (("raw", raw), ("desingularized", desingularize_polar(raw))):
            a, r = pf.angle_name, pf.radial_name
            lines += [f"{name}:", f"{a}' = {pf.angular.pretty()}", f"{r}' = {pf.radial.pretty()}"]
        assert run(capsys, "blowup", QUADRATIC, "--model", model) == (0, "\n".join(lines) + "\n", "")


def test_blowup_hyperbolic_json(capsys):
    code, out, _ = run(capsys, "blowup", QUADRATIC, "--model", "hyperbolic-x", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["raw"]["angle"] == "phi"
    assert "sinh(phi)" in payload["raw"]["angular"]


def test_analyze_hyperbolic(capsys):
    code, out, _ = run(capsys, "analyze", QUADRATIC, "--param", "a=2", "--model", "hyperbolic-x")
    assert code == 0
    assert "divisor equilibria (1):" in out


def test_analyze_hyperbolic_root_rounding_to_one(tmp_path, capsys):
    # the wing root w = 1 - 10^-17 is certified inside (-1, 1) but its float
    # is 1.0; phi comes from the exact w, not from atanh(1.0)
    path = tmp_path / "near_one.vf"
    path.write_text("var x y; dx/dt = 0; dy/dt = y^2 - 99999999999999999/100000000000000000*x*y;")
    code, out, err = run(capsys, "analyze", str(path), "--model", "hyperbolic-x")
    assert code == 0, err
    assert "divisor equilibria (2):" in out
    assert "[2] phi = 19.9185468807  non-hyperbolic" in out


def test_analyze_hyperbolic_wing_phi_near_one(tmp_path, capsys):
    # atanh of the rounded wing root w = 1 - 10^-12/3 gave phi = 14.1620952092;
    # phi comes from the exact w, and atanh(w) = 14.16208414824...
    path = tmp_path / "near_one.vf"
    path.write_text("var x y; dx/dt = 0; dy/dt = y^2 - 2999999999997/3000000000000*x*y;")
    code, out, err = run(capsys, "analyze", str(path), "--model", "hyperbolic-x")
    assert code == 0, err
    assert "[2] phi = 14.1620841482  non-hyperbolic" in out


def test_analyze_hyperbolic_wing_far_out(tmp_path, capsys):
    # w = 1 - 10^-200 puts the wing point at cosh(phi) ~ 7.07e99; the wing
    # eigenvalues are the chart's times cosh(phi), finite in text and JSON
    path = tmp_path / "tiny.vf"
    path.write_text("var x y; dx/dt = 0; dy/dt = y^2 - (1 - 1/10^200)*x*y;")
    code, out, err = run(capsys, "analyze", str(path), "--model", "hyperbolic-x")
    assert code == 0, err
    assert "hyperbolic-x: coords (230.60508289, 0); eigenvalues 0, 7.07106781187e+99" in out
    code, out, err = run(capsys, "analyze", str(path), "--model", "hyperbolic-x", "--format", "json")
    assert code == 0, err
    second = json.loads(out)["equilibria"][1]["members"][0]
    assert second["eigenvalues"] == [[0.0, 0.0], [pytest.approx(7.07106781187e99), 0.0]]


# the coefficient 2*10^400, and the eigenvalue -2*10^400 of the divisor point
# w = 0, lie beyond the float range
HUGE = "var x y; dx/dt = 0; dy/dt = y^3 - 2*10^400*x^2*y;"
# the divisor polynomial's Cauchy bound 2^1100 lies about 1100 bisection
# levels above its roots near 1
FAR = "var x y; dx/dt = 0; dy/dt = (y + (2^1100 + 3)*x)*(y - x)*(y - 2*x)*(2*y - 7*x);"
# the report on K1's exact root -(2^1100 + 3) is exact; the printed angle and
# eigenvalue of that point lie beyond the float range
BEYOND = "var x y; dx/dt = 0; dy/dt = (y + (2^1100 + 3)*x)*(y - x);"


@pytest.mark.parametrize(
    "source, argv",
    [
        (HUGE, ["analyze"]),
        (HUGE, ["analyze", "--model", "hyperbolic-x"]),
        (HUGE, ["portrait", "--grid", "0:1:1,0:1:1"]),
        (HUGE, ["verify"]),
        (FAR, ["analyze"]),
        (FAR, ["analyze", "--model", "directional"]),
        (BEYOND, ["analyze"]),
    ],
    ids=[
        "analyze-sphere", "analyze-hyperbolic-x", "portrait", "verify", "far-root-sphere", "far-root-directional",
        "exact-root-beyond-floats",
    ],
)
def test_value_beyond_float_range_exits_1(tmp_path, capsys, source, argv):
    path = tmp_path / "huge.vf"
    path.write_text(source)
    command, *options = argv
    code, out, err = run(capsys, command, str(path), *options)
    assert code == 1
    assert out == ""
    assert err.startswith(f"{command}: value beyond the float range (")
    assert err.count("\n") == 1


STEP_LIMIT = "portrait: the grid and --t-end/--step ask for more than 1000000 RK4 steps\n"


@pytest.mark.parametrize(
    "options",
    [
        ["--grid=0:1:3000,0:1:3000"],
        ["--grid=0:1:1,0:1:1", "--step", "1e-300", "--t-end", "1"],
        ["--grid=0:1:1,0:1:1", "--step", "1e-300", "--t-end", "1e300"],  # t_end / step is inf
    ],
    ids=["grid", "step", "infinite-quotient"],
)
def test_portrait_beyond_the_step_limit_exits_1_at_once(capsys, options):
    start = time.process_time()
    code, out, err = run(capsys, "portrait", QUADRATIC, "--param", "a=1", *options)
    assert (code, out, err) == (1, "", STEP_LIMIT)
    assert time.process_time() - start < 1


def test_portrait_step_limit_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr("desing.cli._MAX_RK4_STEPS", 8)
    argv = ["portrait", QUADRATIC, "--param", "a=1", "--grid=0.1:0.1:1,0.1:0.1:1", "--t-end", "1"]
    code, out, _ = run(capsys, *argv, "--step", "0.25")  # 2 orbits of 4 steps
    assert code == 0
    assert len(out.splitlines()) == 1 + 2 * 5
    code, out, err = run(capsys, *argv, "--step", "0.24")  # 2 orbits of 5 steps
    assert (code, out) == (1, "")
    assert "more than 8 RK4 steps" in err


def test_portrait_csv(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, _, _ = run(
        capsys, "portrait", QUADRATIC, "--param", "a=1", "--frame", "K1",
        "--grid", "0:1:5,-1:1:5", "--t-end", "0.2", "--step", "0.01",
        "-o", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "frame,traj_id,t,u,v"
    ids = {int(line.split(",")[1]) for line in lines[1:]}
    assert ids == set(range(50))
    frame, tid, t, u, v = lines[1].split(",")
    assert frame == "K1"
    assert float(u) == float(format(float(u), ".17g"))  # lossless float round-trip


def test_portrait_deterministic(tmp_path, capsys):
    paths = []
    for name in ("p1.csv", "p2.csv"):
        p = tmp_path / name
        run(
            capsys, "portrait", QUADRATIC, "--param", "a=1", "--frame", "sphere",
            "--grid", "0:6.28:3,0.1:0.5:2", "--t-end", "0.3", "--step", "0.01",
            "-o", str(p),
        )
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_portrait_seed_whose_field_overflows_leaves_the_domain(capsys):
    # cosh(800) overflows at the seed phi = 800: its orbits end there, and the
    # seed at phi = 0 integrates as it does alone
    argv = ["portrait", QUADRATIC, "--param", "a=1", "--frame", "hyperbolic-x", "--t-end", "0.1"]
    code, out, _ = run(capsys, *argv, "--grid=0:800:2,1:1:1")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    code, alone, _ = run(capsys, *argv, "--grid=0:0:1,1:1:1")
    assert code == 0
    assert [r for r in rows if r[3] == "0"] == [line.split(",") for line in alone.splitlines()[1:]]
    assert [r[1:] for r in rows if r[3] != "0"] == [["2", "0", "800", "1"], ["3", "0", "800", "1"]]


def test_portrait_final_step_takes_in_the_rounding_sliver(capsys):
    # ten steps of 0.1 add up to 0.99999999999999989: the last step takes in
    # the rest, so no step of 1.1e-16 repeats the point
    argv = ["portrait", QUADRATIC, "--param", "a=1", "--grid=0.1:0.1:1,0.1:0.1:1", "--t-end", "1", "--step", "0.1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    for tid in ("0", "1"):
        ts = [t for _, i, t, _, _ in rows if i == tid]
        assert len(ts) == 11
        assert ts[-2:] == ["0.89999999999999991", "1"]


def reference_csv(trajectories) -> str:
    """The portrait CSV written row by row, one %.17g per cell."""
    rows = ["frame,traj_id,t,u,v"]
    for tid, tr in enumerate(trajectories):
        row = f"{tr.frame},{tid},%.17g,%.17g,%.17g"
        rows.extend(row % point for point in tr.points)
    return "\n".join(rows) + "\n"


_COORDS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]
)
# an orbit's times start at 0.0 and grow; 1-point orbits have only the seed
_TIMES = st.lists(st.floats(0.0, 1e3, exclude_min=True), max_size=20).map(lambda ts: [0.0] + sorted(set(ts)))


@st.composite
def _portraits(draw):
    shared = draw(_TIMES)
    same = st.just(shared) | st.integers(1, len(shared)).map(lambda n: shared[:n])
    trajectories = []
    for _ in range(draw(st.integers(0, 6))):
        ts = draw(same | _TIMES)
        frame = draw(st.sampled_from(["original", "K1", "hyperbolic-x"]))
        trajectories.append(Trajectory(frame, [(t, draw(_COORDS), draw(_COORDS)) for t in ts], "max-time"))
    return trajectories


@settings(max_examples=150, deadline=None)
@given(trajectories=_portraits())
def test_portrait_csv_is_the_per_row_reference(trajectories):
    expected = reference_csv(trajectories)
    argv = ["portrait", QUADRATIC, "--param", "a=1", "--grid=0:1:1,0:1:1"]
    stdout = io.StringIO()
    with mock.patch("desing.cli.sample_portrait", lambda frame, grid: iter(trajectories)):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.csv"
            assert main([*argv, "-o", str(path)]) == 0
            assert path.read_bytes() == expected.encode()
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
    assert stdout.getvalue() == expected


@pytest.mark.parametrize(
    "options",
    [
        ["--grid=0:1:0,0:1:3"],  # no seeds: the header alone
        ["--grid=0.1:0.1:1,0.1:0.1:1", "--t-end", "1", "--step", "0.1"],
        ["--frame", "K1", "--grid", "0:1:5,-1:1:5", "--t-end", "0.2", "--step", "0.01"],
        ["--frame", "hyperbolic-x", "--grid=0:800:2,1:1:1", "--t-end", "0.1"],  # an orbit of one point
    ],
    ids=["empty", "sliver", "chart", "overflow"],
)
def test_portrait_csv_of_a_grid_is_the_per_row_reference(capsys, monkeypatch, options):
    seen = []

    def recording(frame, grid):
        for tr in sample_portrait(frame, grid):
            seen.append(tr)
            yield tr

    monkeypatch.setattr("desing.cli.sample_portrait", recording)
    code, out, _ = run(capsys, "portrait", QUADRATIC, "--param", "a=1", *options)
    assert code == 0
    assert out == reference_csv(seen)


def test_portrait_seed_that_raises_writes_nothing(tmp_path, capsys, monkeypatch):
    def failing(frame, grid):
        yield Trajectory("original", [(0.0, 0.1, 0.1)], "max-time")
        raise NonFiniteField("field is not finite at the initial point (0.2, 0.1)")

    monkeypatch.setattr("desing.cli.sample_portrait", failing)
    path = tmp_path / "p.csv"
    code, out, err = run(capsys, "portrait", QUADRATIC, "--param", "a=1", "--grid=0:1:2,0:1:1", "-o", str(path))
    assert (code, out) == (1, "")
    assert err == "portrait: field is not finite at the initial point (0.2, 0.1)\n"
    assert not path.exists()


def test_portrait_memory_stays_streamed(tmp_path):
    # each trajectory is formatted and dropped as it arrives, and the parts
    # are written as they are: the peak is the parts and one part's encoding,
    # not every orbit's points or a joined copy of the text
    path = tmp_path / "p.csv"
    argv = ["portrait", QUADRATIC, "--param", "a=1", "--grid=0.1:0.5:16,0.1:0.5:16", "--t-end", "1", "--step", "0.01"]
    tracemalloc.start()
    try:
        assert main([*argv, "-o", str(path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * path.stat().st_size


def test_analyze_degenerate_field(tmp_path, capsys):
    # f = (x*(x - y), y*(x - y)): every ray is invariant, the whole divisor is
    # a line of equilibria; all four charts are degenerate
    path = tmp_path / "radial.vf"
    path.write_text("var x y; dx/dt = x^2 - x*y; dy/dt = x*y - y^2;")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "degenerate charts" in out
    assert "K1, K2, K3, K4" in out
    assert "divisor equilibria (0):" in out


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out
    assert "ring-axioms (100 cases)" in out


def test_verify_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("DESING_SEED", "7")
    code, out, _ = run(capsys, "verify", "--seed", "3")
    assert code == 0
    assert "(seed 7)" in out


def test_verify_binds_a_to_one_by_default(capsys):
    assert run(capsys, "verify") == run(capsys, "verify", "--param", "a=1")


def test_verify_on_input_field(capsys):
    code, out, _ = run(capsys, "verify", WEIGHTED)
    assert code == 0
    assert "FAIL" not in out


def test_verify_of_escaping_orbits_fails_in_one_line(tmp_path, capsys):
    # both orbits of a conjugacy comparison leave the domain within 7 points,
    # and their common arc length of about 1e5 would take 1e8 samples
    path = tmp_path / "escape.vf"
    path.write_text("var x y; dx/dt = -1000*x^2 - 2000*x*y; dy/dt = 1000*y^2 - 3000*x*y;")
    start = time.process_time()
    code, out, err = run(capsys, "verify", str(path), "--seed", "0")
    assert time.process_time() - start < 2
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line for line in lines if "samples" in line] == [
        "FAIL conjugacy (0 cases) K4 seed (0.1710477295954721, -0.23543461163934148): "
        "comparing curves of arc length 1.01e+05 needs more than 100000 samples"
    ]
    assert lines[-1] == "6/9 checks passed (seed 0)"
    assert "Traceback" not in out


# the checks that read FILE; the four unit-weight ones run for unit weights only
FILE_CHECKS = [
    "chart-pushforward", "chart-compatibility", "bridge-conjugacy", "polar-finite-difference",
    "hyperbolic-finite-difference", "divisor-invariance", "rk4-order", "raw-vs-desing-rescaling", "conjugacy",
]


@pytest.mark.parametrize(
    "argv, names",
    [
        ([WEIGHTED], [FILE_CHECKS[0], *FILE_CHECKS[5:]]),
        # the file holds the demo field, but verify FILE runs no demo-only check
        ([QUADRATIC, "--param", "a=1"], FILE_CHECKS),
    ],
    ids=["weighted", "unit"],
)
def test_verify_file_runs_only_the_checks_that_read_it(capsys, argv, names):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == names
    assert lines[-1] == f"{len(names)}/{len(names)} checks passed (seed 0)"


@pytest.mark.parametrize(
    "src, failed",
    [
        ("var x y1; dx/dt = x^2 - 2*x*y1; dy1/dt = y1^2 - x*y1;",
         ["chart-pushforward", "chart-compatibility", "bridge-conjugacy", "divisor-invariance",
          "raw-vs-desing-rescaling", "conjugacy"]),
        ("var x y1; dx/dt = x^2; dy1/dt = y1^3;", ["divisor-invariance", "raw-vs-desing-rescaling", "conjugacy"]),
    ],
    ids=["unit-weights", "weights-2-1-2"],
)
def test_verify_of_a_chart_name_collision_fails_per_check(tmp_path, capsys, src, failed):
    # a state variable named like a chart variable fails each check that
    # blows the field up, whatever the weights, and the others still run
    path = tmp_path / "collide.vf"
    path.write_text(src)
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    fail = "(0 cases) chart variable 'y1' collides with a field variable"
    assert [line for line in lines if line.startswith("FAIL")] == [f"FAIL {name} {fail}" for name in failed]
    total = len(lines) - 1
    assert lines[-1] == f"{total - len(failed)}/{total} checks passed (seed 0)"


# the checks bare verify prints after its first nine, in order; like every
# check, each runs through `_guarded`
FIELD_CHECKS = [
    "check_compatibility", "check_golden_forms", "check_global_counts", "check_bridge_conjugacy",
    "check_polar_finite_difference", "check_hyperbolic_finite_difference", "check_divisor_invariance",
    "check_rk4_order", "check_rescaling", "check_conjugacy",
]


@pytest.mark.parametrize("raising", [FIELD_CHECKS[:1], FIELD_CHECKS], ids=["first", "all"])
def test_verify_check_that_raises_fails_alone(capsys, monkeypatch, raising):
    # a DesingError fails the check that raised it, under that check's name,
    # and every later check still runs
    code, plain, _ = run(capsys, "verify")
    assert code == 0
    lines = plain.splitlines()
    assert lines[9] == "PASS chart-compatibility (8 cases)"

    def boom(*args):
        raise DesingError("boom")

    for name in raising:
        monkeypatch.setattr(f"desing.selfcheck.{name}", boom)
    code, out, err = run(capsys, "verify")
    assert (code, err) == (1, "")
    failed = range(9, 9 + len(raising))
    expected = [f"FAIL {line.split()[1]} (0 cases) boom" if i in failed else line for i, line in enumerate(lines[:-1])]
    assert out.splitlines() == expected + [f"{19 - len(raising)}/19 checks passed (seed 0)"]


@pytest.mark.parametrize(
    "params, message",
    [
        ([], "parameter 'a' has no binding"),
        (["--param", "a=-1"], "parameter 'a' is declared positive but bound to -1"),
        (["--param", "a=1", "--param", "b=1"], "binding for unknown parameter(s) ['b']"),
        (["--param", "a=-" + "7" * 5000], "parameter 'a' is declared positive but bound to -" + "7" * 5000),
    ],
    ids=["unbound", "out-of-sign", "unknown", "out-of-sign-5000-digits"],
)
def test_verify_binding_error_exits_in_one_line(capsys, params, message):
    # the bindings are checked once, before any check runs, as analyze does
    assert run(capsys, "verify", QUADRATIC, *params) == (1, "", f"verify: {message}\n")
    assert run(capsys, "analyze", QUADRATIC, *params) == (1, "", f"analyze: {message}\n")


def test_verify_rejects_a_non_integer_seed_variable(capsys, monkeypatch):
    monkeypatch.setenv("DESING_SEED", "abc")
    assert run(capsys, "verify") == (2, "", "verify: DESING_SEED must be an integer, got 'abc'\n")


def test_non_utf8_file_one_line_error(tmp_path, capsys):
    path = tmp_path / "f.vf"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (1, "")
    assert err == f"analyze: cannot decode {str(path)!r} as UTF-8: invalid start byte at byte 0\n"


def test_non_utf8_stdin_one_line_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8"))
    code, out, err = run(capsys, "analyze", "-")
    assert (code, out) == (1, "")
    assert err == "analyze: cannot decode standard input as UTF-8: invalid start byte at byte 0\n"


# The choices of --model and --frame are read off the chart and polar-model
# tables; these pins keep the help text and the usage error as users see them.
HELP = {
    (): """\
usage: desing [-h] {weights,blowup,analyze,portrait,verify} ...

Blow-up desingularization of planar polynomial vector fields

positional arguments:
  {weights,blowup,analyze,portrait,verify}
    weights             infer the quasi-homogeneous type
    blowup              print raw and desingularized blown-up fields
    analyze             global divisor equilibria report
    portrait            emit trajectory data for phase portraits
    verify              run the invariant suite and report pass/fail

options:
  -h, --help            show this help message and exit
""",
    ("weights",): """\
usage: desing weights [-h] [--param NAME=VALUE] [-o OUTPUT]
                      [--format {text,json}]
                      input

positional arguments:
  input                 vector-field file ('-' for stdin)

options:
  -h, --help            show this help message and exit
  --param NAME=VALUE    bind a parameter to an exact rational (repeatable)
  -o OUTPUT, --output OUTPUT
                        write output to a file
  --format {text,json}
""",
    ("blowup",): """\
usage: desing blowup [-h] [--param NAME=VALUE] [-o OUTPUT]
                     [--model {sphere,directional,hyperbolic-x,hyperbolic-y}]
                     [--charts CHARTS] [--format {text,json}]
                     input

positional arguments:
  input                 vector-field file ('-' for stdin)

options:
  -h, --help            show this help message and exit
  --param NAME=VALUE    bind a parameter to an exact rational (repeatable)
  -o OUTPUT, --output OUTPUT
                        write output to a file
  --model {sphere,directional,hyperbolic-x,hyperbolic-y}
  --charts CHARTS       comma-separated chart subset
  --format {text,json}
""",
    ("analyze",): """\
usage: desing analyze [-h] [--param NAME=VALUE] [-o OUTPUT]
                      [--model {sphere,directional,hyperbolic-x,hyperbolic-y}]
                      [--format {text,json}]
                      input

positional arguments:
  input                 vector-field file ('-' for stdin)

options:
  -h, --help            show this help message and exit
  --param NAME=VALUE    bind a parameter to an exact rational (repeatable)
  -o OUTPUT, --output OUTPUT
                        write output to a file
  --model {sphere,directional,hyperbolic-x,hyperbolic-y}
  --format {text,json}
""",
    ("portrait",): """\
usage: desing portrait [-h] [--param NAME=VALUE] [-o OUTPUT]
                       [--frame {original,K1,K2,K3,K4,sphere,hyperbolic-x,hyperbolic-y}]
                       --grid U0:U1:NU,V0:V1:NV [--t-end T_END] [--step STEP]
                       input

positional arguments:
  input                 vector-field file ('-' for stdin)

options:
  -h, --help            show this help message and exit
  --param NAME=VALUE    bind a parameter to an exact rational (repeatable)
  -o OUTPUT, --output OUTPUT
                        write output to a file
  --frame {original,K1,K2,K3,K4,sphere,hyperbolic-x,hyperbolic-y}
  --grid U0:U1:NU,V0:V1:NV
  --t-end T_END
  --step STEP
""",
    ("verify",): """\
usage: desing verify [-h] [--param NAME=VALUE] [-o OUTPUT] [--seed SEED]
                     [input]

positional arguments:
  input                 optional field file ('-' for stdin)

options:
  -h, --help            show this help message and exit
  --param NAME=VALUE    bind a parameter to an exact rational (repeatable)
  -o OUTPUT, --output OUTPUT
                        write output to a file
  --seed SEED           property-check seed (DESING_SEED overrides)
""",
}


@pytest.mark.parametrize("command", list(HELP), ids=lambda c: "-".join(c) or "desing")
def test_help_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP[command]


def test_unknown_frame_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["portrait", QUADRATIC, "--grid", "0:1:1,0:1:1", "--frame", "K5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage = HELP[("portrait",)].split("\n\n")[0]
    assert captured.err == (
        f"{usage}\n"
        "desing portrait: error: argument --frame: invalid choice: 'K5' (choose from "
        "'original', 'K1', 'K2', 'K3', 'K4', 'sphere', 'hyperbolic-x', 'hyperbolic-y')\n"
    )


# Command lines that the one parser tree of `main` parses or rejects; it is
# built once per process, so each line must leave it as it was.  Paths are
# never opened while parsing.
PARSED_ALIKE = [
    # the op shapes of bench/workloads.py
    ["analyze", "d.vf", "--param", "p=-3/7", "--format", "json", "-o", "o.json"],
    *(["analyze", "q.vf", "--param", "a=1", "--model", m, "--format", f, "-o", "o"]
      for m in ("sphere", "directional", "hyperbolic-x", "hyperbolic-y") for f in ("text", "json")),
    ["weights", "q.vf", "--format", "text", "-o", "o.txt"],
    *(["blowup", "q.vf", "--model", m, "--format", "json", "-o", "o.json"]
      for m in ("sphere", "directional", "hyperbolic-x", "hyperbolic-y")),
    ["analyze", "q.vf", "--format", "text", "-o", "o.txt"],
    ["portrait", "p.vf", "--param", "a=1", "--frame", "K3", "--grid=0.1:0.5:3,-0.5:0.5:2",
     "--t-end", "0.75", "--step", "0.005", "-o", "o.csv"],
    ["portrait", "p.vf", "--frame", "hyperbolic-y", "--grid=-1:1:2,0:1:1", "--t-end", "1.0",
     "--step", "0.01", "-o", "o.csv"],
    ["verify", "--seed", "1", "-o", "o.txt"],
    ["verify", "w.vf", "--seed", "0", "-o", "o.txt"],
    # the README examples
    ["weights", "inputs/quadratic.vf"],
    ["blowup", "inputs/quadratic.vf", "--charts", "K1,K2"],
    ["blowup", "inputs/quadratic.vf", "--model", "hyperbolic-x"],
    ["analyze", "inputs/quadratic.vf", "--param", "a=1"],
    ["analyze", "inputs/quadratic.vf", "--param", "a=1", "--format", "json", "-o", "report.json"],
    ["analyze", "inputs/quadratic.vf", "--param", "a=2", "--model", "hyperbolic-x"],
    ["portrait", "inputs/quadratic.vf", "--param", "a=1", "--frame", "K1", "--grid", "0:1:5,-1:1:5",
     "--t-end", "0.5", "--step", "0.01", "-o", "trajectories.csv"],
    ["verify"],
    ["verify", "my_field.vf", "--param", "mu=1/2"],
    # options before the input, repeated options, stdin and a separating --
    ["analyze", "--param", "a=1", "--param", "b=2", "--format=json", "-", "--model", "sphere"],
    ["weights", "--", "-"],
]


REJECTED_ALIKE = [
    [],
    ["frobnicate", "q.vf"],
    ["analyze", "q.vf", "--bogus"],
    ["analyze", "q.vf", "--bogus", "-o"],
    ["analyze", "q.vf", "extra"],
    ["verify", "a.vf", "b.vf"],
    ["analyze"],
    ["portrait", "q.vf"],
    ["analyze", "q.vf", "--model", "torus"],
    ["portrait", "q.vf", "--grid", "0:1:2"],
    ["analyze", "q.vf", "--param", "a"],
    ["analyze", "q.vf", "--param", "a=1/0"],
    ["verify", "--seed", "x"],
    ["analyze", "-h", "--bogus"],
    ["analyze", "q.vf", "--bogus", "-h"],
    ["-h", "--bogus"],
    ["--help"],
    ["--", "analyze", "q.vf"],
    ["analyze", "--", "q.vf", "--model"],
]


def _outcome(parse, argv, capsys):
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSED_ALIKE + REJECTED_ALIKE, ids=lambda argv: " ".join(argv) or "no-args")
def test_reused_tree_parses_like_a_fresh_tree(argv, capsys, monkeypatch):
    # the namespace, or the exit code, stdout and stderr, once the cached
    # tree has parsed every other line
    monkeypatch.setenv("COLUMNS", "80")
    build_parser.cache_clear()
    for other in PARSED_ALIKE + REJECTED_ALIKE:
        if other is not argv:
            _outcome(build_parser().parse_args, other, capsys)
    fresh = build_parser.__wrapped__()
    assert _outcome(build_parser().parse_args, argv, capsys) == _outcome(fresh.parse_args, argv, capsys)


def test_two_commands_build_the_tree_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    assert run(capsys, "weights", QUADRATIC)[0] == 0
    assert run(capsys, "analyze", QUADRATIC, "--param", "a=1")[0] == 0
    assert len(built) == 6  # the top level and five commands, once


def test_a_binding_does_not_outlive_its_command_line(capsys):
    assert run(capsys, "analyze", QUADRATIC, "--param", "a=1")[0] == 0
    assert run(capsys, "analyze", QUADRATIC) == (1, "", "analyze: parameter 'a' has no binding\n")


@pytest.mark.parametrize(
    "value",
    ["1e10000000", "1e-10000000", "1E1_0000000", "0e99999", "1e19729",
     pytest.param("7" * 20000, id="20000-digits")],
)
def test_param_past_the_budget_is_a_usage_error(capsys, monkeypatch, value):
    # an exponent is bounded before the value is built (Fraction("1e10000000")
    # alone takes seconds); 10^19729 has 65537 bits and is refused once built;
    # 20,000 digits are refused by their count, as a DSL literal is
    monkeypatch.setenv("COLUMNS", "80")
    start = time.process_time()
    with pytest.raises(SystemExit) as exc:
        main(["analyze", QUADRATIC, "--param", f"a={value}"])
    assert time.process_time() - start < 0.1
    assert exc.value.code == 2
    captured = capsys.readouterr()
    usage = HELP[("analyze",)].split("\n\n")[0]
    assert (captured.out, captured.err) == ("", (
        f"{usage}\ndesing analyze: error: argument --param: bad rational value in 'a={value}': "
        "numerator or denominator exceeds the supported bound of 65536 bits\n"
    ))


@pytest.mark.parametrize("value", ["1e1000", "5e-19729", "-3/7", "1_0e1_0", " 2.5E-3 ", "0e19729"])
def test_param_within_the_budget_is_exact(value):
    # 5e-19729 is 1/(2^19729 * 5^19728), a denominator of exactly 65536 bits
    args = build_parser().parse_args(["analyze", "q.vf", "--param", f"a={value}"])
    assert args.param == [("a", Fraction(value))]


def test_param_past_the_int_text_limit_is_exact():
    # int reads at most 4300 digits from text; --param reads what the DSL does
    sevens = 7 * (10**5000 - 1) // 9
    args = build_parser().parse_args(["analyze", "q.vf", "--param", f"a={'7' * 5000}/3"])
    assert args.param == [("a", Fraction(sevens, 3))]


def _python_m_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "desing.cli", *argv], cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"}, capture_output=True, text=True,
    )


@pytest.mark.parametrize("env, flags", [({"LC_ALL": "C"}, []), ({}, ["-X", "utf8"])], ids=["C-locale", "utf8-mode"])
def test_non_utf8_stdin_is_decoded_as_a_file_is(env, flags):
    # the locale's stdin escapes undecodable bytes in these two settings
    done = subprocess.run(
        [sys.executable, *flags, "-m", "desing.cli", "analyze", "-"], cwd=ROOT, input=b"\xff\xfe",
        env={"PYTHONPATH": str(ROOT / "src"), **env}, capture_output=True,
    )
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr == b"analyze: cannot decode standard input as UTF-8: invalid start byte at byte 0\n"


def test_module_entry_point_reads_sys_argv():
    done = _python_m_cli("analyze", "inputs/quadratic.vf", "--param", "a=1")
    assert (done.returncode, done.stderr) == (0, "")
    assert "divisor equilibria (6):" in done.stdout
    done = _python_m_cli()
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines() == [
        "usage: desing [-h] {weights,blowup,analyze,portrait,verify} ...",
        "desing: error: the following arguments are required: command",
    ]


def test_polar_models_divide_by_the_weights_k(tmp_path, capsys):
    # x' = x*(x^2 + y^2), y' = y*(x^2 + y^2): type (1, 1, 2) with a vanishing
    # angular part; every model keeps one radius in the radial component, as
    # K1 does (r1' = r1*y1^2 + r1), so the divisor stays invariant
    path = tmp_path / "radial_cubic.vf"
    path.write_text("var x y; dx/dt = x^3 + x*y^2; dy/dt = x^2*y + y^3;")
    code, out, _ = run(capsys, "blowup", str(path), "--model", "sphere")
    assert code == 0
    assert out.endswith("desingularized:\ntheta' = 0\nr' = r\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "desingularized r1' = r1*y1^2 + r1" in out
    assert "desingularized theta' = 0\n                 r' = r\n" in out
    for model in ("hyperbolic-x", "hyperbolic-y"):
        code, out, _ = run(capsys, "analyze", str(path), "--model", model)
        assert code == 0
        assert "                 rho' = 2*sinh(phi)^2*rho + rho\n" in out
        code, out, _ = run(capsys, "blowup", str(path), "--model", model)
        assert code == 0
        assert out.endswith("desingularized:\nphi' = 0\nrho' = 2*sinh(phi)^2*rho + rho\n")


def test_hyperboloid_report_notes_non_hyperbolic_points(tmp_path, capsys):
    # the point at angle 0 is non-hyperbolic on the circle and on the x-wing
    path = tmp_path / "non_hyperbolic.vf"
    path.write_text("var x y; dx/dt = -x*y + y^2; dy/dt = y^2;")
    note = (
        "note: non-hyperbolic divisor equilibrium at angle 0: "
        "a further blow-up would be needed there (not performed)\n"
    )
    for model in ("sphere", "hyperbolic-x"):
        code, out, _ = run(capsys, "analyze", str(path), "--model", model)
        assert code == 0
        assert out.count(note) == 1
    code, out, _ = run(capsys, "analyze", str(path), "--model", "hyperbolic-x", "--format", "json")
    assert json.loads(out)["notes"] == [note[len("note: "):-1]]


def test_long_sum_infers_weights(tmp_path, capsys):
    path = tmp_path / "long_sum.vf"
    path.write_text("var x y; dx/dt = x*y + " + " + ".join(["x^2"] * 1999) + "; dy/dt = y^2;")
    code, out, _ = run(capsys, "weights", str(path))
    assert code == 0
    assert out == "(alpha, beta, k) = (1, 1, 1)\n"


def test_deep_parentheses_one_line_error(tmp_path, capsys):
    path = tmp_path / "deep.vf"
    path.write_text("var x y;\ndx/dt = " + "(" * 300 + "x^2" + ")" * 300 + ";\ndy/dt = y^2;\n")
    code, out, err = run(capsys, "weights", str(path))
    assert code == 1
    assert out == ""
    assert err == "weights: 2:109: parentheses nested deeper than 100 levels\n"
