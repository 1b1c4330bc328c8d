"""Command-line front end.

Subcommands: weights, blowup, analyze, portrait, verify.  Exit codes:
0 success, 1 domain error (bad input field, unbound parameter, failed
verification, a value beyond the float range, a portrait beyond the RK4 step
limit), 2 usage error.  Output is deterministic for a fixed configuration and
seed; DESING_SEED overrides the property-check seed.  `verify` checks the
parameter bindings before any check runs, so an unbound, out-of-sign or
unknown parameter exits 1 with one stderr line, as in `analyze`.  Bare
`verify` runs every check of `selfcheck` on the demo field; `verify FILE`
runs only the checks that read FILE (see `selfcheck`), and a check that
raises prints as its FAIL line.  A `--param` value is read by the DSL's
number reader, `dsl.exact_rational`.

Each command derives its output once and builds all of it before writing a
byte; `_emit` alone writes the finished parts, to stdout or to the -o file.
So a command that fails writes nothing.

`main` parses every command line with the one parser tree of
`build_parser`, built on its first call and reused for the life of the
process: in-process callers (the benchmark, the tests, library users) call
`main` many times, and building the tree costs over ten times what parsing
with it does.  Parsing leaves the tree as it was; an appended `--param` list
is a copy, never the shared default.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from fractions import Fraction

from .charts import ChartId, blow_up_in_chart
from .dsl import _MAX_COEFF_BITS, OverBudget, exact_rational, lower_to_polynomials, parse_field_spec
from .dynamo import GridSpec, frame_chart, frame_original, frame_polar, sample_portrait
from .equilibria import (
    DERIVATION_NOTES,
    MODEL_DIRECTIONAL,
    MODEL_HYPERBOLIC_X,
    MODEL_HYPERBOLIC_Y,
    MODEL_SPHERE,
    GlobalReport,
    global_divisor_report,
)
from .errors import DesingError
from .polar import MODELS, desingularize_polar, polar_pushforward
from .poly import rational_text
from .vectorfield import VectorField
from .weights import infer_weights

_MODELS = (MODEL_SPHERE, MODEL_DIRECTIONAL, MODEL_HYPERBOLIC_X, MODEL_HYPERBOLIC_Y)
_FRAMES = ("original", *(c.value for c in ChartId), *MODELS)
# RK4 steps one portrait may take: time and memory grow linearly with them,
# and 2*10^5 steps of the original frame take 0.9 s and 103 MiB peak RSS
# (Python 3.11, a 2-vCPU Xeon VM)
_MAX_RK4_STEPS = 10**6


def _param_binding(text: str):
    """NAME=VALUE, the value read as the DSL reads a number literal (in
    `Fraction`'s syntax) within its coefficient budget."""
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected name=value, got {text!r}")
    try:
        return (name.strip(), exact_rational(value.strip()))
    except OverBudget:
        raise argparse.ArgumentTypeError(
            f"bad rational value in {text!r}: "
            f"numerator or denominator exceeds the supported bound of {_MAX_COEFF_BITS} bits"
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational value in {text!r}: {exc}")


def _grid(text: str):
    try:
        uspec, vspec = text.split(",")
        u0, u1, nu = uspec.split(":")
        v0, v1, nv = vspec.split(":")
        u0, u1, v0, v1 = (float(b) for b in (u0, u1, v0, v1))
        nu, nv = int(nu), int(nv)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected umin:umax:nu,vmin:vmax:nv, got {text!r}: {exc}"
        )
    # a span can overflow even between finite bounds, and the seeds step by it
    if not all(map(math.isfinite, (u0, u1, v0, v1, u1 - u0, v1 - v0))) or min(nu, nv) < 0:
        raise argparse.ArgumentTypeError(
            f"grid bounds and their spans must be finite and counts >= 0, got {text!r}"
        )
    return (u0, u1, nu, v0, v1, nv)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _add_common(p, nargs=None, input_help="vector-field file ('-' for stdin)"):
    p.add_argument("input", nargs=nargs, help=input_help)
    p.add_argument("--param", action="append", default=[], type=_param_binding, metavar="NAME=VALUE",
                   help="bind a parameter to an exact rational (repeatable)")
    p.add_argument("-o", "--output", default=None, help="write output to a file")


def _weights_args(p):
    _add_common(p)
    p.add_argument("--format", choices=("text", "json"), default="text")


def _blowup_args(p):
    _add_common(p)
    p.add_argument("--model", choices=_MODELS, default=MODEL_DIRECTIONAL)
    p.add_argument("--charts", default="K1,K2,K3,K4", help="comma-separated chart subset")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _analyze_args(p):
    _add_common(p)
    p.add_argument("--model", choices=_MODELS, default=MODEL_SPHERE)
    p.add_argument("--format", choices=("text", "json"), default="text")


def _portrait_args(p):
    _add_common(p)
    p.add_argument("--frame", choices=_FRAMES, default="original")
    p.add_argument("--grid", type=_grid, required=True, metavar="U0:U1:NU,V0:V1:NV")
    p.add_argument("--t-end", type=_positive_float, default=1.0)
    p.add_argument("--step", type=_positive_float, default=1e-2)


def _verify_args(p):
    _add_common(p, nargs="?", input_help="optional field file ('-' for stdin)")
    p.add_argument("--seed", type=int, default=0, help="property-check seed (DESING_SEED overrides)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="desing",
        description="Blow-up desingularization of planar polynomial vector fields",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args, _) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=help_line))
    return top


# -- helpers ---------------------------------------------------------------------


def _read_source(path: str) -> str:
    try:
        if path == "-":
            # strict UTF-8 as for a file, not the locale's escaping decoder
            stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
            try:
                return stdin.read()
            finally:
                stdin.detach()  # leave sys.stdin open
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        name = "standard input" if path == "-" else repr(path)
        raise DesingError(f"cannot decode {name} as UTF-8: {exc.reason} at byte {exc.start}")


def _load_field(path: str) -> VectorField:
    return lower_to_polynomials(parse_field_spec(_read_source(path)))


def _emit(parts, output: "str | None"):
    """Write a command's finished output, an iterable of strings, to stdout
    or to the -o file; the one writer of command output."""
    if output is None:
        sys.stdout.writelines(parts)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(parts)


def render_json(payload) -> str:
    """Stable JSON rendering; loading the output and re-rendering reproduces
    the bytes exactly."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _weights_payload(w):
    return {"alpha": w.alpha, "beta": w.beta, "k": w.k}


def _num(value):
    """JSON value for a coordinate: exact rationals as strings, floats as-is."""
    if isinstance(value, Fraction):
        return rational_text(value.numerator, value.denominator)
    return float(value)


def _field_payload(f: VectorField):
    return {
        "state_vars": list(f.state_vars),
        "params": [{"name": p.name, "positive": p.positive} for p in f.params],
        "f1": str(f.f1),
        "f2": str(f.f2),
    }


def _chart_payload(cf):
    return {
        "radial": cf.radial_var,
        "angular": cf.angular_var,
        "divisor": cf.divisor,
        "raw": [str(p) for p in cf.raw],
        "desingularized": [str(cf.desing[0]), str(cf.desing[1])],
    }


def _polar_payload(pf):
    return {
        "signature": pf.sigma,
        "branch": pf.branch.value,
        "angle": pf.angle_name,
        "radius": pf.radial_name,
        "angular": pf.angular.pretty(),
        "radial": pf.radial.pretty(),
        "desingularized": pf.desingularized,
    }


def _eigen_payload(eq):
    return {
        "chart": eq.chart,
        "coords": [_num(c) for c in eq.coords],
        "coords_float": list(eq.coords_float),
        "exact": eq.exact,
        "interval": None if eq.interval is None else [_num(v) for v in eq.interval],
        "jacobian": [[_num(x) for x in row] for row in eq.jacobian],
        "eigenvalues": [[x, 0.0] for x in eq.eigenvalues],  # [re, im] of a real eigenvalue
        "eigenvalues_exact": None
        if eq.eigenvalues_exact is None
        else [_num(v) for v in eq.eigenvalues_exact],
        "classification": eq.classification,
    }


def analysis_payload(report: GlobalReport):
    return {
        "model": report.model,
        "field": _field_payload(report.field),
        "bindings": {k: _num(v) for k, v in report.bindings.items()},
        "weights": _weights_payload(report.weights),
        "charts": {name: _chart_payload(cf) for name, cf in report.chart_fields.items()},
        "polar": None
        if report.polar_raw is None
        else {"raw": _polar_payload(report.polar_raw), "desingularized": _polar_payload(report.polar_desing)},
        "equilibria": [
            {
                "angle": m.angle,
                "classification": m.classification,
                "members": [_eigen_payload(e) for e in m.members],
            }
            for m in report.equilibria
        ],
        "flow": [{"start": arc.start, "end": arc.end, "sign": arc.sign} for arc in report.flow],
        "degenerate_charts": report.degenerate_charts,
        "notes": report.notes,
        "derivation_notes": [dict(n) for n in DERIVATION_NOTES],
    }


def render_analysis_text(report: GlobalReport) -> str:
    lines = []
    f = report.field
    lines.append(f"field: {f}")
    if report.bindings:
        shown = ", ".join(f"{k} = {_num(v)}" for k, v in sorted(report.bindings.items()))
        lines.append(f"bindings: {shown}")
    lines.append(f"weights: {report.weights}")
    lines.append(f"model: {report.model}")
    lines.append("")
    lines.append("charts:")
    for name in sorted(report.chart_fields):
        cf = report.chart_fields[name]
        r, w = cf.radial_var, cf.angular_var
        raw_r, raw_w = cf.raw
        lines.append(f"  {name}: raw            {r}' = {raw_r}")
        lines.append(f"  {'':{len(name)}}  {'':14} {w}' = {raw_w}")
        lines.append(f"  {'':{len(name)}}  desingularized {r}' = {cf.desing[0]}")
        lines.append(f"  {'':{len(name)}}  {'':14} {w}' = {cf.desing[1]}")
    if report.polar_raw is not None:
        pf, pd = report.polar_raw, report.polar_desing
        a, r = pf.angle_name, pf.radial_name
        lines.append("")
        lines.append("polar form:")
        lines.append(f"  raw            {a}' = {pf.angular.pretty()}")
        lines.append(f"  {'':14} {r}' = {pf.radial.pretty()}")
        if pd is not None:
            lines.append(f"  desingularized {a}' = {pd.angular.pretty()}")
            lines.append(f"  {'':14} {r}' = {pd.radial.pretty()}")
    lines.append("")
    if report.degenerate_charts:
        lines.append(
            "degenerate charts (a line of divisor equilibria): "
            + ", ".join(report.degenerate_charts)
        )
    angle_label = "angle" if report.model in (MODEL_SPHERE, MODEL_DIRECTIONAL) else "phi"
    lines.append(f"divisor equilibria ({len(report.equilibria)}):")
    for i, m in enumerate(report.equilibria, 1):
        lines.append(f"  [{i}] {angle_label} = {m.angle:.12g}  {m.classification}")
        for e in m.members:
            coords = ", ".join(_num(c) if isinstance(c, Fraction) else f"{c:.12g}" for c in e.coords)
            eig = ", ".join(f"{x:.12g}" for x in e.eigenvalues)
            exact = ""
            if e.eigenvalues_exact is not None:
                exact = " (exact: " + ", ".join(_num(v) for v in e.eigenvalues_exact) + ")"
            lines.append(f"      {e.chart}: coords ({coords}); eigenvalues {eig}{exact}")
    lines.append("")
    lines.append("flow (sign of the angular component between equilibria):")
    for arc in report.flow:
        start = "-inf" if arc.start is None else f"{arc.start:.12g}"
        end = "+inf" if arc.end is None else f"{arc.end:.12g}"
        word = {1: "increasing", -1: "decreasing", 0: "zero"}[arc.sign]
        lines.append(f"  {start} -> {end}: {word}")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append("")
    lines.append("cross-derivation notes (published vs derived forms; derived is used):")
    for n in DERIVATION_NOTES:
        lines.append(f"  [{n['key']}]")
        lines.append(f"    published: {n['published']}")
        lines.append(f"    derived:   {n['derived']}")
        lines.append(f"    {n['detail']}")
    return "\n".join(lines) + "\n"


def _blowup_text(w, payload) -> str:
    """`blowup`'s text, laid out from the strings of its payload: one line per
    chart in sorted order, or the raw and desingularized polar forms."""
    lines = [f"weights: {w}"]
    if "charts" in payload:
        for name, c in sorted(payload["charts"].items()):
            r, a = c["radial"], c["angular"]
            (raw_r, raw_a), (des_r, des_a) = c["raw"], c["desingularized"]
            lines.append(f"{name}: {r}' = {raw_r}, {a}' = {raw_a} "
                         f"(desingularized: {r}' = {des_r}, {a}' = {des_a})")
    else:
        for key in ("raw", "desingularized"):
            p = payload[key]
            lines += [f"{key}:", f"{p['angle']}' = {p['angular']}", f"{p['radius']}' = {p['radial']}"]
    return "\n".join(lines) + "\n"


# -- subcommands -------------------------------------------------------------------


def _cmd_weights(args) -> int:
    f = _load_field(args.input)
    w = infer_weights(f)
    text = render_json(_weights_payload(w)) if args.format == "json" else f"{w}\n"
    _emit((text,), args.output)
    return 0


def _cmd_blowup(args) -> int:
    f = _load_field(args.input)
    w = infer_weights(f)
    payload = {"weights": _weights_payload(w)}
    if args.model == MODEL_DIRECTIONAL:
        try:
            names = [ChartId(c.strip()) for c in args.charts.split(",") if c.strip()]
        except ValueError as exc:
            raise DesingError(f"unknown chart in --charts: {exc}")
        payload["charts"] = {c.value: _chart_payload(blow_up_in_chart(f, w, c)) for c in names}
    else:
        raw = polar_pushforward(f, *MODELS[args.model])
        payload["raw"] = _polar_payload(raw)
        payload["desingularized"] = _polar_payload(desingularize_polar(raw))
    text = render_json(payload) if args.format == "json" else _blowup_text(w, payload)
    _emit((text,), args.output)
    return 0


def _cmd_analyze(args) -> int:
    f = _load_field(args.input)
    w = infer_weights(f)
    report = global_divisor_report(f, w, dict(args.param), model=args.model)
    text = render_json(analysis_payload(report)) if args.format == "json" else render_analysis_text(report)
    _emit((text,), args.output)
    return 0


def _cmd_portrait(args) -> int:
    u0, u1, nu, v0, v1, nv = args.grid
    # a forward and a backward orbit per seed, each of ceil(t_end / step) steps
    per_orbit = args.t_end / args.step
    if not math.isfinite(per_orbit) or 2 * nu * nv * math.ceil(per_orbit) > _MAX_RK4_STEPS:
        raise DesingError(f"the grid and --t-end/--step ask for more than {_MAX_RK4_STEPS} RK4 steps")
    f = _load_field(args.input)
    bindings = dict(args.param)
    if args.frame == "original":
        frame = frame_original(f, bindings)
    elif args.frame in MODELS:
        pf = desingularize_polar(polar_pushforward(f, *MODELS[args.frame]))
        frame = frame_polar(pf, bindings)
    else:
        w = infer_weights(f)
        frame = frame_chart(blow_up_in_chart(f, w, ChartId(args.frame)), bindings)
    grid = GridSpec(u0, u1, nu, v0, v1, nv, t_end=args.t_end, step=args.step)
    # every part is built before anything is written, so a seed that raises
    # leaves no output file; each trajectory is formatted as it arrives
    parts = ["frame,traj_id,t,u,v\n"]
    # "%.17g" of each distinct time, formatted once: the text is a function of
    # the float, and times start at 0.0 and grow, so they are never -0.0 or NaN
    times = {}
    for tid, tr in enumerate(sample_portrait(frame, grid)):
        cells = []
        for t, u, v in tr.points:
            text = times.get(t)
            if text is None:
                text = times[t] = "%.17g" % t
            cells += (text, u, v)
        # one %-call per trajectory prints the bytes of :.17g per coordinate
        parts.append((f"{tr.frame},{tid},%s,%.17g,%.17g\n" * len(tr.points)) % tuple(cells))
    _emit(parts, args.output)
    return 0


def _cmd_verify(args) -> int:
    from .selfcheck import run_all  # only verify needs the suite; other commands skip its import

    try:
        seed = int(os.environ.get("DESING_SEED", args.seed))
    except ValueError:
        got = os.environ["DESING_SEED"]
        print(f"verify: DESING_SEED must be an integer, got {got!r}", file=sys.stderr)
        return 2
    f = None if args.input is None else _load_field(args.input)
    results = run_all(seed=seed, f=f, bindings=dict(args.param))
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f" {r.detail}" if r.detail else ""
        lines.append(f"{status} {r.name} ({r.cases} cases){detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed (seed {seed})")
    _emit(("\n".join(lines) + "\n",), args.output)
    return 1 if failed else 0


# name -> (help line, function that adds the command's arguments, handler)
_COMMANDS = {
    "weights": ("infer the quasi-homogeneous type", _weights_args, _cmd_weights),
    "blowup": ("print raw and desingularized blown-up fields", _blowup_args, _cmd_blowup),
    "analyze": ("global divisor equilibria report", _analyze_args, _cmd_analyze),
    "portrait": ("emit trajectory data for phase portraits", _portrait_args, _cmd_portrait),
    "verify": ("run the invariant suite and report pass/fail", _verify_args, _cmd_verify),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except (DesingError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"{args.command}: value beyond the float range ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
