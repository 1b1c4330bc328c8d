"""Oracles for benchmark ops, built on sympy and never on desing.

Each check takes an op's oracle data (see workloads.py), the exit code and
stderr of the op, and returns `(reason, stats)`: `reason` is None when the
output is right and a one-line explanation otherwise; `stats` feeds the
traced run's ratios (`rational_members`, `exact_members`).

The field formulas are derived here from the chain rule, independently of the
package:
- directional chart K1 (x = r^a, y = r^b w): r' = x'/(a r^(a-1)),
  w' = (y' - b r^(b-1) w r')/r^b, both divided by r^k; K2..K4 likewise;
- polar forms: x = R C, y = R S on C^2 + sigma*S^2 = 1 (sphere sigma = 1,
  x-hyperbola sigma = -1): angle' = (C y' - S x')/R and
  R' = C x' + sigma S y', divided by R^k.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import numpy as np
import sympy as sp

X, Y, R, W, C, S, T = sp.symbols("x y R w C S t")
CHART_VARS = {"K1": ("r1", "y1"), "K2": ("r2", "x2"), "K3": ("r3", "y3"), "K4": ("r4", "x4")}
SADDLE = "hyperbolic-saddle"
ANGLE_TOL = 1e-9  # text reports print angles with 12 significant digits
PORTRAIT_RTOL = 1e-7  # same RK4 steps; only float evaluation order differs


# -- expressions ----------------------------------------------------------------------


def _parse(text: str, names=()):
    local = {n: sp.Symbol(n) for n in ("x", "y", *names)}
    return sp.sympify(text.replace("^", "**"), locals=local)


def field_exprs(fld, bind=True):
    names = [n for n, _ in fld.params]
    f1, f2 = _parse(fld.f1, names), _parse(fld.f2, names)
    if bind:
        subs = {sp.Symbol(k): sp.Rational(v.numerator, v.denominator) for k, v in fld.bindings.items()}
        f1, f2 = f1.subs(subs), f2.subs(subs)
    return sp.expand(f1), sp.expand(f2)


def chart_field(f1, f2, chart: str, weights):
    """Desingularized (r', w') of chart K1..K4 in the symbols (R, W)."""
    alpha, beta, k = weights
    if chart in ("K1", "K3"):
        sign = 1 if chart == "K1" else -1
        sub = {X: sign * R**alpha, Y: R**beta * W}
        F1, F2 = (sp.expand(f.subs(sub, simultaneous=True)) for f in (f1, f2))
        rdot = sign * F1 / (alpha * R ** (alpha - 1))
        wdot = (F2 - beta * R ** (beta - 1) * W * rdot) / R**beta
    else:
        sign = 1 if chart == "K2" else -1
        sub = {X: R**alpha * W, Y: sign * R**beta}
        F1, F2 = (sp.expand(f.subs(sub, simultaneous=True)) for f in (f1, f2))
        rdot = sign * F2 / (beta * R ** (beta - 1))
        wdot = (F1 - alpha * R ** (alpha - 1) * W * rdot) / R**alpha
    return sp.expand(sp.cancel(rdot / R**k)), sp.expand(sp.cancel(wdot / R**k))


def polar_field(f1, f2, sigma: int):
    """Desingularized (angle', R') over C, S, R for x = R*C, y = R*S."""
    F1, F2 = (sp.expand(f.subs({X: R * C, Y: R * S}, simultaneous=True)) for f in (f1, f2))
    ang = sp.expand(sp.cancel((C * F2 - S * F1) / R))
    rad = sp.expand(C * F1 + sigma * S * F2)
    degs = [m[2] for e in (ang, rad) if e != 0 for m in sp.Poly(e, C, S, R).monoms()]
    k = min(degs)
    return sp.expand(ang / R**k), sp.expand(rad / R**k)


def _distinct_real_roots(expr, var) -> "list":
    if expr == 0:
        raise ValueError("identically zero divisor polynomial")
    p = sp.Poly(expr, var)
    if p.degree() < 1:
        return []
    return sorted(set(sp.Poly(p.sqf_part(), var).real_roots()), key=lambda r: float(r))


# -- parsing reports --------------------------------------------------------------------

_MEMBER = re.compile(r"^\s+(K[1-4]|hyperbolic-[xy]): coords \(([^,]+), ([^)]+)\);")
_HEAD = re.compile(r"^  \[\d+\] (?:angle|phi) = (\S+)  (\S+)$")


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _is_exact_text(token: str) -> bool:
    return not any(ch in token for ch in ".en")


def parse_analysis(path: str, fmt: str) -> dict:
    """Equilibria (angle, classification), members (chart, exact, coords)."""
    text = _read(path)
    if fmt == "json":
        doc = json.loads(text)
        return {
            "weights": (doc["weights"]["alpha"], doc["weights"]["beta"], doc["weights"]["k"]),
            "degenerate": list(doc["degenerate_charts"]),
            "equilibria": [(float(m["angle"]), m["classification"]) for m in doc["equilibria"]],
            "members": [
                (e["chart"], bool(e["exact"]), tuple(str(c) for c in e["coords"]))
                for m in doc["equilibria"]
                for e in m["members"]
            ],
        }
    out = {"weights": None, "degenerate": [], "equilibria": [], "members": [], "count": None}
    for line in text.splitlines():
        if line.startswith("weights: "):
            out["weights"] = tuple(int(v) for v in re.findall(r"-?\d+", line.split("=")[1]))
        elif line.startswith("degenerate charts"):
            out["degenerate"] = [c.strip() for c in line.split(":")[1].split(",")]
        elif line.startswith("divisor equilibria ("):
            out["count"] = int(line.split("(")[1].split(")")[0])
        elif _HEAD.match(line):
            angle, cls = _HEAD.match(line).groups()
            out["equilibria"].append((float(angle), cls))
        elif _MEMBER.match(line):
            chart, c0, c1 = _MEMBER.match(line).groups()
            exact = _is_exact_text(c0) and _is_exact_text(c1)
            out["members"].append((chart, exact, (c0.strip(), c1.strip())))
    if out["count"] != len(out["equilibria"]):
        raise ValueError("equilibrium count line disagrees with the listed equilibria")
    return out


# -- checks ----------------------------------------------------------------------------


def check_divisor_count(data, rc, err):
    """Sphere report of a homogeneous unit-weight field: 2 x the distinct
    real projective roots of x*f2 - y*f1, rational ones reported exact."""
    f1, f2 = field_exprs(data["field"])
    g = sp.expand(X * f2 - Y * f1)
    affine = sp.expand(g.subs(X, 1).subs(Y, W))
    roots = _distinct_real_roots(affine, W)
    vertical = sp.expand(g.subs({X: 0, Y: 1})) == 0
    want = 2 * (len(roots) + int(vertical))
    rep = parse_analysis(data["out"], data["format"])
    got = len(rep["equilibria"])
    rational = [sp.Rational(r) for r in roots if r.is_rational]
    expect = []  # (chart, exact coordinate) that must be reported exact
    for r in rational:
        expect += [("K1", r), ("K3", -r)]
        if r != 0:
            expect += [("K2", 1 / r), ("K4", -1 / r)]
    if vertical:
        expect += [("K2", sp.Integer(0)), ("K4", sp.Integer(0))]
    exact = {(c, Fraction(m[1])) for c, ex, m in rep["members"] if ex}
    found = sum(1 for c, v in expect if (c, Fraction(int(v.p), int(v.q))) in exact)
    stats = {"rational_members": len(expect), "exact_members": found}
    if got != want:
        return f"{got} divisor equilibria, oracle says {want}", stats
    if found != len(expect):
        missing = [f"{c}:{v}" for c, v in expect if (c, Fraction(int(v.p), int(v.q))) not in exact]
        return f"rational roots not reported exact: {', '.join(missing[:4])}", stats
    return None, stats


def _hyperbolic_phis(data):
    f1, f2 = field_exprs(data["field"])
    chart = "K1" if data["model"] == "hyperbolic-x" else "K2"
    _, wdot = chart_field(f1, f2, chart, (1, 1, 1))
    roots = _distinct_real_roots(wdot.subs(R, 0), W)
    return [math.atanh(float(r)) for r in roots if -1 < r < 1]


def check_quadratic_report(data, rc, err):
    """PAPER.md: six saddles at 0, atan(2a/3), pi/2, pi, pi + atan(2a/3),
    3pi/2 on the sphere; on the x-hyperboloid two saddles for a < 3/2 and one
    otherwise.  The y-wing count comes from the K2 divisor polynomial."""
    a = float(data["a"])
    model = data["model"]
    if model in ("sphere", "directional"):
        t = math.atan(2 * a / 3)
        want = sorted([0.0, t, math.pi / 2, math.pi, math.pi + t, 3 * math.pi / 2])
    else:
        want = sorted(_hyperbolic_phis(data))
        if model == "hyperbolic-x" and len(want) != (2 if data["a"] < Fraction(3, 2) else 1):
            return "oracle disagrees with PAPER.md on the x-hyperboloid count", {}
    rep = parse_analysis(data["out"], data["format"])
    got = rep["equilibria"]
    if len(got) != len(want):
        return f"{len(got)} equilibria, expected {len(want)}", {}
    for (angle, cls), ref in zip(got, want):
        if abs(angle - ref) > ANGLE_TOL:
            return f"equilibrium at {angle!r}, expected {ref!r}", {}
        if cls != SADDLE:
            return f"equilibrium at {angle!r} classified {cls}, expected a saddle", {}
    return None, {}


def check_chart_counts(data, rc, err):
    """Weighted sphere report: per-chart divisor roots counted by sympy, and
    the merged count K1 + K3 roots plus the two vertical directions."""
    fld = data["field"]
    f1, f2 = field_exprs(fld)
    want = {}
    zero_root = {}
    for chart in CHART_VARS:
        _, wdot = chart_field(f1, f2, chart, fld.weights)
        roots = _distinct_real_roots(wdot.subs(R, 0), W)
        want[chart] = len(roots)
        zero_root[chart] = any(r == 0 for r in roots)
    merged = want["K1"] + want["K3"] + int(zero_root["K2"]) + int(zero_root["K4"])
    rep = parse_analysis(data["out"], data["format"])
    if rep["weights"] != tuple(fld.weights):
        return f"weights {rep['weights']}, expected {fld.weights}", {}
    if rep["degenerate"]:
        return f"unexpected degenerate charts {rep['degenerate']}", {}
    for chart, n in want.items():
        got = sum(1 for c, _, _ in rep["members"] if c == chart)
        if got != n:
            return f"{chart} lists {got} divisor equilibria, sympy finds {n}", {}
    if len(rep["equilibria"]) != merged:
        return f"{len(rep['equilibria'])} merged equilibria, expected {merged}", {}
    return None, {}


def check_weights(data, rc, err):
    text = _read(data["out"])
    if data["format"] == "json":
        doc = json.loads(text)
        got = (doc["alpha"], doc["beta"], doc["k"])
    else:
        got = tuple(int(v) for v in re.findall(r"-?\d+", text.split("=")[1]))
    if got != tuple(data["weights"]):
        return f"weights {got}, expected {tuple(data['weights'])}", {}
    return None, {}


_CHART_TEXT = re.compile(r"^(K[1-4]): .*\(desingularized: \S+ = (.*), \S+ = (.*)\)$")


def _polar_points(sigma: int, names):
    """Exact rational points on C^2 + sigma*S^2 = 1 with rational R and params."""
    pts = []
    for i, t in enumerate((sp.Rational(1, 3), sp.Rational(-2, 7), sp.Rational(5, 11), sp.Rational(3, 13))):
        den = 1 + sigma * t**2
        pt = {C: (1 - sigma * t**2) / den, S: 2 * t / den, R: sp.Rational(2 * i + 1, 5)}
        for j, n in enumerate(names):
            pt[sp.Symbol(n)] = sp.Rational(3 + j + i, 7)
        pts.append(pt)
    return pts


def check_blowup(data, rc, err):
    fld = data["field"]
    names = [n for n, _ in fld.params]
    f1, f2 = field_exprs(fld, bind=False)
    text = _read(data["out"])
    model = data["model"]
    if model == "directional":
        if data["format"] == "json":
            charts = {k: tuple(v["desingularized"]) for k, v in json.loads(text)["charts"].items()}
        else:
            charts = {m.group(1): (m.group(2), m.group(3)) for m in map(_CHART_TEXT.match, text.splitlines()) if m}
        if sorted(charts) != sorted(CHART_VARS):
            return f"charts {sorted(charts)} in the output, expected K1..K4", {}
        for chart, (rtext, wtext) in charts.items():
            rn, wn = CHART_VARS[chart]
            want = chart_field(f1, f2, chart, data["weights"])
            got = [_parse(t, names + [rn, wn]).subs({sp.Symbol(rn): R, sp.Symbol(wn): W}) for t in (rtext, wtext)]
            if any(sp.expand(g - w) != 0 for g, w in zip(got, want)):
                return f"{chart} desingularized field differs from the chain-rule derivation", {}
        return None, {}
    sigma = 1 if model == "sphere" else -1
    if data["format"] == "json":
        des = json.loads(text)["desingularized"]
        ang_text, rad_text = des["angular"], des["radial"]
    else:
        lines = text.splitlines()
        tail = lines[lines.index("desingularized:") + 1:]
        ang_text, rad_text = (line.split(" = ", 1)[1] for line in tail[:2])

    def to_sym(t):
        for a, b in (("cosh(phi)", "C"), ("sinh(phi)", "S"), ("cos(theta)", "C"), ("sin(theta)", "S")):
            t = t.replace(a, b)
        t = re.sub(r"\brho\b", "R", re.sub(r"\br\b", "R", t))
        return _parse(t, names + ["C", "S", "R"])

    want = polar_field(f1, f2, sigma)
    got = (to_sym(ang_text), to_sym(rad_text))
    for pt in _polar_points(sigma, names):
        if any(sp.expand(g - w).subs(pt) != 0 for g, w in zip(got, want)):
            return f"{model} desingularized form differs from the derivation at {pt}", {}
    return None, {}


def _frame_callable(data):
    fld = data["field"]
    f1, f2 = field_exprs(fld)
    frame = data["frame"]
    u, v = sp.symbols("u v")
    if frame == "original":
        pair = (f1.subs({X: u, Y: v}, simultaneous=True), f2.subs({X: u, Y: v}, simultaneous=True))
    elif frame in CHART_VARS:
        deg = sp.Poly(f1 + f2, X, Y).total_degree()
        pair = tuple(e.subs({R: u, W: v}, simultaneous=True) for e in chart_field(f1, f2, frame, (1, 1, deg - 1)))
    else:
        sigma, trig = (1, (sp.cos, sp.sin)) if frame == "sphere" else (-1, (sp.cosh, sp.sinh))
        sub = {C: trig[0](u), S: trig[1](u), R: v}
        pair = tuple(e.subs(sub, simultaneous=True) for e in polar_field(f1, f2, sigma))
    fn = sp.lambdify((u, v), pair, modules="math")
    return lambda a, b: fn(a, b)


def _rk4_endpoint(fn, x0, t_end, h, sign):
    """The integrator's fixed-step scheme, run on the oracle's field."""
    u, v = x0
    t = 0.0
    while t < t_end:
        step = min(h, t_end - t)
        if t + step == t:
            break
        k1 = fn(u, v)
        k2 = fn(u + 0.5 * step * sign * k1[0], v + 0.5 * step * sign * k1[1])
        k3 = fn(u + 0.5 * step * sign * k2[0], v + 0.5 * step * sign * k2[1])
        k4 = fn(u + step * sign * k3[0], v + step * sign * k3[1])
        u = u + step / 6.0 * sign * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v = v + step / 6.0 * sign * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        t += step
    return u, v


def _grid_seeds(grid: str):
    uspec, vspec = grid.split(",")
    u0, u1, nu = uspec.split(":")
    v0, v1, nv = vspec.split(":")
    us = np.linspace(float(u0), float(u1), int(nu))
    vs = np.linspace(float(v0), float(v1), int(nv))
    return [(float(a), float(b)) for a in us for b in vs]


def check_portrait(data, rc, err):
    """Trajectories that reach t_end match an RK4 reference on the
    sympy-derived frame field within PORTRAIT_RTOL.  Workload grids keep
    every orbit in its frame's domain, so there every trajectory must reach
    t_end; only the defect probes (`expect_escape`) may, and must, have an
    orbit that stops early."""
    rows = _read(data["out"]).splitlines()
    if not rows or rows[0] != "frame,traj_id,t,u,v":
        return "missing CSV header", {}
    trajs: "dict[int, list]" = {}
    for row in rows[1:]:
        _, tid, t, u, v = row.split(",")
        trajs.setdefault(int(tid), []).append((float(t), float(u), float(v)))
    seeds = _grid_seeds(data["grid"])
    if sorted(trajs) != list(range(2 * len(seeds))):
        return f"{len(trajs)} trajectories, expected {2 * len(seeds)}", {}
    fn = _frame_callable(data)
    t_end, h = data["t_end"], data["step"]
    escaped = 0
    for tid, pts in trajs.items():
        seed = seeds[tid // 2]
        if (pts[0][1], pts[0][2]) != seed:
            return f"trajectory {tid} starts at {pts[0][1:]}, expected {seed}", {}
        if abs(pts[-1][0] - t_end) > 1e-9:
            if not data.get("expect_escape"):
                return f"trajectory {tid} stops at t = {pts[-1][0]}, before t_end = {t_end}", {}
            escaped += 1
            continue
        ref = _rk4_endpoint(fn, seed, t_end, h, -1.0 if tid % 2 else 1.0)
        for got, want in zip(pts[-1][1:], ref):
            if abs(got - want) > PORTRAIT_RTOL * max(1.0, abs(want)):
                return f"trajectory {tid} ends at {pts[-1][1:]}, reference {ref}", {}
    if data.get("expect_escape") and not escaped:
        return "no trajectory left the domain", {}
    return None, {}


def check_verify(data, rc, err):
    lines = _read(data["out"]).splitlines()
    if not lines:
        return "empty verify report", {}
    bad = [line for line in lines[:-1] if not line.startswith("PASS ")]
    if bad:
        return f"check not passed: {bad[0]}", {}
    m = re.match(r"^(\d+)/(\d+) checks passed", lines[-1])
    if not m or m.group(1) != m.group(2) or int(m.group(2)) != len(lines) - 1:
        return f"bad summary line {lines[-1]!r}", {}
    return None, {}


def check_one_line_error(data, rc, err):
    lines = err.strip().splitlines()
    if len(lines) != 1:
        return f"expected a one-line message on stderr, got {len(lines)} lines", {}
    return None, {}


CHECKS = {
    "divisor_count": check_divisor_count,
    "quadratic_report": check_quadratic_report,
    "chart_counts": check_chart_counts,
    "weights": check_weights,
    "blowup": check_blowup,
    "portrait": check_portrait,
    "verify": check_verify,
    "one_line_error": check_one_line_error,
}


def check(op, rc, err):
    """Run the op's oracle; an oracle that cannot read the output fails the op."""
    try:
        return CHECKS[op.check](op.data, rc, err)
    except (OSError, ValueError, KeyError, IndexError, TypeError, json.JSONDecodeError, sp.SympifyError) as exc:
        return f"output unreadable by the oracle: {type(exc).__name__}: {exc}", {}
