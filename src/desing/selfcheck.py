"""Runtime invariant suite behind the `verify` subcommand.

Each check returns a CheckResult; the pytest suite reuses the same functions
so the CLI and the tests cannot drift apart.  Randomized checks draw from a
seeded generator and are deterministic for a fixed seed.

The production code each check exercises:

- ring-axioms: `Poly` addition and multiplication.
- reduction-homomorphism: `quotient.reduce_poly`, which the polar blow-up runs.
- exact-division: `Poly.shift`, the one division the pipeline performs.
- substitution-homomorphism: `Poly.substitute`, which the pipeline does not
  run; it is the independent reference of the two checks below that use it.
- weights-oracle: `weights.infer_weights` against planted weights.
- polar-solve-roundtrip: `polar.polar_pushforward`, against `Poly.substitute`.
- chart-pushforward: `charts.blow_up_in_chart` (unit weights), against
  `Poly.substitute`.
- chart-pushforward-numeric: `blow_up_in_chart` and `ChartField.as_callable`
  for weights (2, 1, 2), through `_pushforward_defect`.
- transition-roundtrip: `charts.transition`.
- chart-compatibility: `blow_up_in_chart` on overlapping charts, through
  `charts.compatibility_defect`.
- golden-forms: `blow_up_in_chart` and `polar_pushforward` on the demo field.
- global-counts: `equilibria.global_divisor_report`, sphere and hyperbolic-x.
- bridge-conjugacy: `polar.desingularize_polar`, `PolarField.as_callable`,
  `ChartField.as_callable` and `polar.bridge_beta1`.
- polar-finite-difference, hyperbolic-finite-difference: `polar_pushforward`
  and `PolarField.as_callable`, against `dynamo.integrate` of the plane field.
- divisor-invariance: `dynamo.integrate` in `dynamo.frame_chart`.
- rk4-order: `dynamo.integrate`, through `dynamo.observed_order`.
- raw-vs-desing-rescaling: `blow_up_in_chart` and `ChartField.as_callable`,
  in every chart and for any weights, against `VectorField.as_callable`.
- conjugacy: `dynamo.conjugacy_check`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .charts import OVERLAPS, ChartId, blow_up_in_chart, compatibility_defect, embed, overlap_sign, transition
from .dynamo import conjugacy_check, frame_chart, frame_original, integrate, observed_order
from .equilibria import CLASS_SADDLE, MODEL_HYPERBOLIC_X, global_divisor_report
from .errors import DesingError, NotDivisible
from .polar import Branch, HYPERBOLA, SPHERE, bridge_beta1, desingularize_polar, polar_pushforward
from .poly import Poly
from .quotient import COS, NAMES, RADIAL, SIN, TRIG, QuotientPoly, reduce_poly
from .vectorfield import Param, VectorField, check_param_bindings
from .weights import Weights, infer_weights


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    detail: str = ""


def demo_system() -> VectorField:
    """The reference quadratic example: x' = a*x^2 - 2*x*y, y' = y^2 - a*x*y."""
    a, x, y = Poly.var("a"), Poly.var("x"), Poly.var("y")
    order = ("a", "x", "y")
    return VectorField(
        (a * x**2 - 2 * x * y).reordered(order),
        (y**2 - a * x * y).reordered(order),
        ("x", "y"),
        (Param("a", positive=True),),
    )


# -- random generators ----------------------------------------------------------


def _random_poly(rng: random.Random, names=("x", "y", "a"), max_terms=4, max_exp=3) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in names)
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if coeff:
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return Poly(names, {e: c for e, c in terms.items() if c})


def _random_quasihomogeneous(rng: random.Random):
    """A field generated from a sampled primitive triple, with enough monomials
    that the triple is the unique positive solution."""
    while True:
        alpha = rng.randint(1, 5)
        beta = rng.randint(1, 5)
        k = rng.randint(1, 5)
        g = math.gcd(math.gcd(alpha, beta), k)
        alpha, beta, k = alpha // g, beta // g, k // g
        mono1 = [(m, n) for m in range(8) for n in range(8) if alpha * m + beta * n == alpha + k]
        mono2 = [(m, n) for m in range(8) for n in range(8) if alpha * m + beta * n == beta + k]
        if not mono1 or not mono2:
            continue
        take1 = rng.sample(mono1, rng.randint(1, min(2, len(mono1))))
        take2 = rng.sample(mono2, rng.randint(1, min(2, len(mono2))))
        f1 = Poly(("x", "y"), {e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for e in take1})
        f2 = Poly(("x", "y"), {e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for e in take2})
        rows = [(m - 1, n) for m, n in take1] + [(m, n - 1) for m, n in take2]
        rank2 = any(
            rows[i][0] * rows[j][1] != rows[i][1] * rows[j][0]
            for i in range(len(rows))
            for j in range(i + 1, len(rows))
        )
        if rank2:
            return VectorField(f1, f2, ("x", "y")), Weights(alpha, beta, k)


# -- symbolic checks --------------------------------------------------------------


def check_ring_axioms(seed: int) -> CheckResult:
    rng = random.Random(seed)
    for i in range(100):
        p, q, r = _random_poly(rng), _random_poly(rng), _random_poly(rng)
        if (p + q) + r != p + (q + r):
            return CheckResult("ring-axioms", False, i, "additive associativity failed")
        if (p * q) * r != p * (q * r):
            return CheckResult("ring-axioms", False, i, "multiplicative associativity failed")
        if p * q != q * p:
            return CheckResult("ring-axioms", False, i, "commutativity failed")
        if p * (q + r) != p * q + p * r:
            return CheckResult("ring-axioms", False, i, "distributivity failed")
    return CheckResult("ring-axioms", True, 100)


def check_reduction_homomorphism(seed: int) -> CheckResult:
    rng = random.Random(seed)
    names = (COS, SIN, RADIAL, "a")
    for i in range(100):
        sigma = rng.choice((SPHERE, HYPERBOLA))
        p, q = _random_poly(rng, names), _random_poly(rng, names)
        pq = reduce_poly(p * q, sigma)
        if reduce_poly(reduce_poly(p, sigma) * reduce_poly(q, sigma), sigma) != pq:
            return CheckResult(
                "reduction-homomorphism", False, i, "reduce(reduce(p)*reduce(q)) != reduce(p*q)"
            )
        if reduce_poly(pq, sigma) != pq:
            return CheckResult("reduction-homomorphism", False, i, "reduction is not idempotent")
    return CheckResult("reduction-homomorphism", True, 100)


def check_exact_division(seed: int) -> CheckResult:
    """`Poly.shift`, the one division the pipeline performs (by c*r^j, in the
    charts, in polar and in `QuotientPoly.div_radial`): it undoes a product
    with c*m, and raises NotDivisible for a term that lacks m."""
    rng = random.Random(seed)
    for done in range(100):
        p = _random_poly(rng)
        m = {v: rng.randint(0, 2) for v in ("x", "y", "r")}
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
        cm = Poly(tuple(m), {tuple(m.values()): c})
        if (p * cm).shift(m, c) != p:
            return CheckResult("exact-division", False, done, f"(p*c*m).shift(m, c) != p for p={p}, c*m={cm}")
        short = [v for v, e in m.items() if e]
        if short:
            v = rng.choice(short)
            lacking = p * cm + Poly((v,), {(m[v] - 1,): 1})
            try:
                lacking.shift(m, c)
            except NotDivisible:
                continue
            return CheckResult("exact-division", False, done, f"{lacking} divided by {cm} without a remainder")
    return CheckResult("exact-division", True, 100)


def check_substitution_homomorphism(seed: int) -> CheckResult:
    rng = random.Random(seed)
    for i in range(100):
        p = _random_poly(rng)
        q = _random_poly(rng)
        bindings = {
            "x": _random_poly(rng, ("u", "v"), max_terms=2, max_exp=2),
            "y": _random_poly(rng, ("u", "v"), max_terms=2, max_exp=2),
        }

        def subbed(poly):
            return poly.substitute({k: v for k, v in bindings.items() if k in poly.vars})

        if subbed(p * q) != subbed(p) * subbed(q):
            return CheckResult(
                "substitution-homomorphism", False, i, "substitute(p*q) != substitute(p)*substitute(q)"
            )
    return CheckResult("substitution-homomorphism", True, 100)


def check_weights_oracle(seed: int) -> CheckResult:
    rng = random.Random(seed)
    for i in range(100):
        f, expected = _random_quasihomogeneous(rng)
        got = infer_weights(f)
        if got != expected:
            return CheckResult("weights-oracle", False, i, f"expected {expected}, got {got} for {f}")
    return CheckResult("weights-oracle", True, 100)


def check_polar_solve_roundtrip(seed: int) -> CheckResult:
    """Reconstruct (x', y') from the solved polar components symbolically;
    validates the linear solve including the exact division by the radius."""
    rng = random.Random(seed)

    def drop_state_constants(p):
        # the blow-up needs f(0, 0) = 0 identically in the parameters
        ix, iy = p.vars.index("x"), p.vars.index("y")
        return Poly._normal(p.vars, {e: n for e, n in p.nums.items() if e[ix] or e[iy]}, p.den)

    c, s, r = Poly.var(COS), Poly.var(SIN), Poly.var(RADIAL)
    sub = {"x": r * c, "y": r * s}
    done = attempts = 0
    while done < 50 and attempts < 2500:
        attempts += 1
        f1 = drop_state_constants(_random_poly(rng, ("x", "y", "a"), max_terms=3, max_exp=2))
        f2 = drop_state_constants(_random_poly(rng, ("x", "y", "a"), max_terms=3, max_exp=2))
        if f1.is_zero() and f2.is_zero():
            continue
        f = VectorField(f1, f2, ("x", "y"), (Param("a"),))
        F1 = f1.substitute({k: v for k, v in sub.items() if k in f1.vars})
        F2 = f2.substitute({k: v for k, v in sub.items() if k in f2.vars})
        for sigma in (SPHERE, HYPERBOLA):
            pf = polar_pushforward(f, sigma)
            rad, ang = pf.radial.base, pf.angular.base
            # x' = r'c - sigma*r*s*angle', y' = r's + r*c*angle'
            x_dot = QuotientPoly(sigma, rad * c - sigma * r * s * ang)
            y_dot = QuotientPoly(sigma, rad * s + r * c * ang)
            if x_dot != QuotientPoly(sigma, F1) or y_dot != QuotientPoly(sigma, F2):
                return CheckResult(
                    "polar-solve-roundtrip", False, done, f"sigma={sigma}: (x', y') not reproduced"
                )
        done += 1
    return CheckResult("polar-solve-roundtrip", True, done)


def check_chart_pushforward(f: VectorField, w: Weights) -> CheckResult:
    """Symbolic pushforward identity for unit weights: D(psi) . raw == f o psi.

    `blow_up_in_chart` reads the chart field off the terms of f in closed
    form; this check recomputes f o psi with `Poly.substitute` and is the
    independent symbolic reference for it."""
    if (w.alpha, w.beta) != (1, 1):
        return CheckResult("chart-pushforward", True, 0, "skipped: non-unit weights")
    sx, sy = f.state_vars
    for chart in ChartId:
        cf = blow_up_in_chart(f, w, chart)
        r = Poly.var(cf.radial_var)
        wv = Poly.var(cf.angular_var)
        x_radial, sign = chart.x_radial, chart.sign
        raw_r, raw_w = cf.raw
        if x_radial:
            emb = {sx: sign * r, sy: r * wv}
            lhs1 = sign * raw_r
            lhs2 = wv * raw_r + r * raw_w
        else:
            emb = {sx: r * wv, sy: sign * r}
            lhs1 = wv * raw_r + r * raw_w
            lhs2 = sign * raw_r
        rhs1 = f.f1.substitute({k: v for k, v in emb.items() if k in f.f1.vars})
        rhs2 = f.f2.substitute({k: v for k, v in emb.items() if k in f.f2.vars})
        if lhs1 != rhs1 or lhs2 != rhs2:
            return CheckResult("chart-pushforward", False, 0, f"{chart}: identity failed")
    return CheckResult("chart-pushforward", True, 4)


def _pushforward_defect(fn, cf, des, point) -> float:
    """Relative defect of D(psi) . (r^k * des) == f o psi at a chart point
    (r, w) with r > 0, where psi is `charts.embed` and `fn`, `des` are the
    float evaluators of f and of the chart's desingularized field."""
    r, w = point
    a, b, k = cf.weights.alpha, cf.weights.beta, cf.weights.k
    x, y = embed(cf.chart, cf.weights, point)
    vr, vw = (r**k * v for v in des(r, w))
    # x and y are +-r^a and r^b times 1 or w: d/dr scales them by a/r and b/r
    dx, dy = a * x / r * vr, b * y / r * vr
    if cf.chart.x_radial:
        dy += r**b * vw
    else:
        dx += r**a * vw
    ex, ey = fn(x, y)
    return math.hypot(dx - ex, dy - ey) / (math.hypot(ex, ey) or 1.0)


def check_chart_pushforward_numeric(seed: int) -> CheckResult:
    """Numeric pushforward identity for a non-unit-weight field (type (2,1,2))."""
    rng = random.Random(seed)
    x, y = Poly.var("x"), Poly.var("y")
    f = VectorField(x**2, y**3, ("x", "y"))
    w = infer_weights(f)
    fn = f.as_callable({})
    for chart in ChartId:
        cf = blow_up_in_chart(f, w, chart)
        des = cf.as_callable({})
        for _ in range(20):
            point = (rng.uniform(0.2, 1.2), rng.uniform(-2.0, 2.0))
            if _pushforward_defect(fn, cf, des, point) > 1e-12:
                return CheckResult(
                    "chart-pushforward-numeric", False, 0, f"{chart} at (r, w)=({point[0]}, {point[1]})"
                )
    return CheckResult("chart-pushforward-numeric", True, 80)


def check_compatibility(f: VectorField, w: Weights) -> CheckResult:
    for frm, to in OVERLAPS:
        defect = compatibility_defect(f, w, frm, to)
        if not (defect[0].is_zero() and defect[1].is_zero()):
            return CheckResult("chart-compatibility", False, 0, f"{frm}->{to} defect nonzero")
    return CheckResult("chart-compatibility", True, len(OVERLAPS))


def check_transition_roundtrip(seed: int) -> CheckResult:
    rng = random.Random(seed)
    for i in range(50):
        frm, to = rng.choice(OVERLAPS)
        sgn = overlap_sign(frm, to)
        r = Fraction(rng.randint(0, 8), rng.randint(1, 5))
        wv = sgn * Fraction(rng.randint(1, 9), rng.randint(1, 5))
        back = transition(transition((r, wv), frm, to), to, frm)
        if back != (r, wv):
            return CheckResult("transition-roundtrip", False, i, f"{frm}->{to} not involutive")
    return CheckResult("transition-roundtrip", True, 50)


# -- numeric checks -----------------------------------------------------------------


def check_divisor_invariance(f: VectorField, w: Weights, bindings) -> CheckResult:
    worst = 0.0
    for chart in ChartId:
        cf = blow_up_in_chart(f, w, chart)
        ff = frame_chart(cf, bindings)
        for seed_w in (-1.0, 0.25, 2.0):
            tr = integrate(ff, (0.0, seed_w), 2.0, 1e-2)
            worst = max(worst, max(abs(u) for _, u, _ in tr.points))
    return CheckResult("divisor-invariance", worst < 1e-12, 12, f"max |radial| = {worst:.3e}")


def check_rk4_order(f: VectorField, bindings) -> CheckResult:
    # seeds ordered energetic-first; tame fields may only resolve the
    # rounding floor, which still certifies convergence
    ff = frame_original(f, bindings)
    for x0 in ((0.5, -0.5), (-1.0, -0.8), (0.1, 0.2)):
        try:
            order = observed_order(ff, x0, 1.0, 1e-2)
        except ValueError:
            continue  # orbit escaped; try the next seed
        if math.isinf(order):
            continue
        return CheckResult("rk4-order", 3.5 <= order <= 4.5, 3, f"observed order {order:.2f}")
    return CheckResult("rk4-order", True, 3, "truncation error below the rounding floor")


# seed windows per chart where the reference example's angular dynamics stay
# bounded, so the conjugacy tolerance measures integration error rather than
# finite-time escape
_SAFE_ANGULAR = {
    ChartId.K1: (-0.5, 0.5),
    ChartId.K2: (-0.5, 0.5),
    ChartId.K3: (-0.5, 0.0),
    ChartId.K4: (-0.5, 0.0),
}


def check_conjugacy(f: VectorField, w: Weights, bindings, seed: int) -> CheckResult:
    rng = random.Random(seed)
    worst = 0.0
    blown_up = {}  # each chart is blown up once, on its first draw
    for i in range(20):
        chart = rng.choice(list(ChartId))
        lo, hi = _SAFE_ANGULAR[chart]
        if chart not in blown_up:
            blown_up[chart] = blow_up_in_chart(f, w, chart)
        cf = blown_up[chart]
        x0 = (rng.uniform(0.05, 0.5), rng.uniform(lo, hi))
        try:
            defect = conjugacy_check(f, cf, x0, bindings, t_end=1.0, h=1e-3)
        except DesingError as exc:
            return CheckResult("conjugacy", False, i, f"{chart} seed {x0}: {exc}")
        worst = max(worst, defect)
        if defect >= 1e-6:
            return CheckResult("conjugacy", False, i, f"{chart} seed {x0}: defect {defect:.3e}")
    return CheckResult("conjugacy", True, 20, f"max defect {worst:.3e}")


def check_rescaling(f: VectorField, w: Weights, bindings, seed: int) -> CheckResult:
    """The blow-up identity in floats, in every chart and for any weights:
    r^k times the desingularized chart field is the pushforward of f,
    D(psi) . (r^k * des) == f o psi, against f's own evaluator."""
    rng = random.Random(seed)
    points = [(rng.uniform(0.01, 2.0), rng.uniform(-3.0, 3.0)) for _ in range(100)]
    fn = f.as_callable(bindings)
    for i, chart in enumerate(ChartId):
        cf = blow_up_in_chart(f, w, chart)
        des = cf.as_callable(bindings)
        for j, point in enumerate(points):
            defect = _pushforward_defect(fn, cf, des, point)
            if defect > 1e-10:
                return CheckResult(
                    "raw-vs-desing-rescaling", False, len(points) * i + j,
                    f"{chart} at (r, w)=({point[0]:.4f}, {point[1]:.4f}): relative defect {defect:.2e}",
                )
    return CheckResult("raw-vs-desing-rescaling", True, 4 * len(points))


def _orbit_derivative(field, x0, observe, dt: float) -> float:
    """Richardson-extrapolated central difference of observe(z(t)) at t=0
    along the orbit of `field`, using single RK4 steps of +-dt and +-dt/2."""

    def obs_at(step, backward):
        _, u, v = integrate(field, x0, step, step, backward).points[-1]
        return observe(u, v)

    def central(step):
        return (obs_at(step, False) - obs_at(step, True)) / (2.0 * step)

    return (4.0 * central(dt / 2.0) - central(dt)) / 3.0


# the inverse polar maps: (angle of (u, v) near a reference angle, radius of (u, v))
_INVERSE = {
    SPHERE: (lambda u, v, near: near + (math.atan2(v, u) - near + math.pi) % (2.0 * math.pi) - math.pi, math.hypot),
    HYPERBOLA: (lambda u, v, near: math.atanh(v / u), lambda u, v: math.sqrt(u * u - v * v)),
}


def _finite_difference(name, f, bindings, seed, sigma, span, count, tol) -> CheckResult:
    """The polar field of signature sigma (first branch) vs finite differences
    of the inverse polar map along orbits of f, at `count` random points
    (angle in `span`, radius in [0.3, 1]) where both components are away
    from 0; at most 100 * count draws."""
    rng = random.Random(seed)
    pfield = polar_pushforward(f, sigma).as_callable(bindings)
    ff = frame_original(f, bindings)
    (cos, sin), (angle_name, radius_name) = TRIG[sigma], NAMES[sigma]
    angle_of, radius_of = _INVERSE[sigma]
    done = attempts = 0
    while done < count and attempts < 100 * count:
        attempts += 1
        angle = rng.uniform(*span)
        radius = rng.uniform(0.3, 1.0)
        exp_a, exp_r = pfield(angle, radius)
        if abs(exp_a) < 0.05 or abs(exp_r) < 0.05:
            continue  # relative comparison needs values away from the roots
        x0 = (radius * cos(angle), radius * sin(angle))
        num_a = _orbit_derivative(ff, x0, lambda u, v: angle_of(u, v, angle), 1e-4)
        num_r = _orbit_derivative(ff, x0, radius_of, 1e-4)
        if abs(num_a - exp_a) / abs(exp_a) > tol or abs(num_r - exp_r) / abs(exp_r) > tol:
            return CheckResult(
                name, False, done,
                f"{angle_name}={angle:.4f} {radius_name}={radius:.4f}: "
                f"({num_a}, {num_r}) vs ({exp_a}, {exp_r})",
            )
        done += 1
    return CheckResult(name, True, done)


def check_polar_finite_difference(f: VectorField, bindings, seed: int) -> CheckResult:
    """Spherical polar components vs finite differences of the inverse polar
    map along integrated orbits."""
    return _finite_difference(
        "polar-finite-difference", f, bindings, seed, SPHERE, (0.0, 2.0 * math.pi), 50, 1e-8
    )


def check_hyperbolic_finite_difference(f: VectorField, bindings, seed: int) -> CheckResult:
    """Hyperbolic polar components vs finite differences of the hyperboloid
    inverse along orbits: this is the check that arbitrates the sign of the
    last radial term."""
    return _finite_difference(
        "hyperbolic-finite-difference", f, bindings, seed, HYPERBOLA, (-1.2, 1.2), 10, 1e-9
    )


def check_bridge_conjugacy(f: VectorField, w: Weights, bindings, seed: int) -> CheckResult:
    """D(beta1) applied to the hyperbolic polar field equals the first-chart
    field at the bridged point; the desingularized forms agree after scaling
    the chart field by cosh(phi)^k."""
    rng = random.Random(seed)
    raw_h = polar_pushforward(f, HYPERBOLA, Branch.X)
    des_h = desingularize_polar(raw_h)
    cf = blow_up_in_chart(f, w, ChartId.K1)
    des_k = cf.as_callable(bindings)
    raw_hf = raw_h.as_callable(bindings)
    des_hf = des_h.as_callable(bindings)
    for i in range(20):
        phi = rng.uniform(-1.5, 1.5)
        rho = rng.uniform(0.05, 1.0)
        r1, y1 = bridge_beta1(phi, rho)
        ch, sh = math.cosh(phi), math.sinh(phi)
        sech2 = 1.0 / (ch * ch)
        kv = des_k(r1, y1)
        # the undivided K1 field is r1^k times the desingularized one
        for hfield, scale in ((raw_hf, r1**w.k), (des_hf, ch**w.k)):
            da, dr = hfield(phi, rho)
            lhs = (rho * sh * da + ch * dr, sech2 * da)
            rhs = (scale * kv[0], scale * kv[1])
            err = math.hypot(lhs[0] - rhs[0], lhs[1] - rhs[1])
            norm = max(1e-12, math.hypot(*rhs))
            if err / norm > 1e-9:
                return CheckResult(
                    "bridge-conjugacy", False, i,
                    f"(phi, rho)=({phi:.4f}, {rho:.4f}): relative defect {err / norm:.2e}",
                )
    return CheckResult("bridge-conjugacy", True, 20)


def check_global_counts(f: VectorField, w: Weights) -> CheckResult:
    for a in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(10)):
        report = global_divisor_report(f, w, {"a": a})
        if len(report.equilibria) != 6:
            return CheckResult("global-counts", False, 0, f"a={a}: {len(report.equilibria)} equilibria")
        if any(m.classification != CLASS_SADDLE for m in report.equilibria):
            return CheckResult("global-counts", False, 0, f"a={a}: non-saddle present")
        hx = global_divisor_report(f, w, {"a": a}, model=MODEL_HYPERBOLIC_X)
        expected = 2 if a < Fraction(3, 2) else 1
        if len(hx.equilibria) != expected:
            return CheckResult(
                "global-counts", False, 0,
                f"a={a}: {len(hx.equilibria)} hyperboloid equilibria, expected {expected}",
            )
    return CheckResult("global-counts", True, 5)


def check_golden_forms(f: VectorField, w: Weights) -> CheckResult:
    """First-chart and spherical golden identities, asserted symbolically."""
    a = Poly.var("a")
    cf = blow_up_in_chart(f, w, ChartId.K1)
    r1, y1 = Poly.var("r1"), Poly.var("y1")
    if cf.raw != (r1**2 * (a - 2 * y1), r1 * y1 * (3 * y1 - 2 * a)):
        return CheckResult("golden-forms", False, 0, "first-chart raw field mismatch")
    if cf.desing != (r1 * (a - 2 * y1), y1 * (3 * y1 - 2 * a)):
        return CheckResult("golden-forms", False, 0, "first-chart desingularized field mismatch")
    c, s, r = Poly.var(COS), Poly.var(SIN), Poly.var(RADIAL)
    pf = polar_pushforward(f, SPHERE)
    want_ang = QuotientPoly(SPHERE, r * (3 * c * s**2 - 2 * a * s * c**2))
    want_rad = QuotientPoly(SPHERE, r**2 * (a * c - 2 * s - 2 * a * c * s**2 + 3 * s**3))
    if pf.angular != want_ang or pf.radial != want_rad:
        return CheckResult("golden-forms", False, 0, "spherical polar mismatch")
    return CheckResult("golden-forms", True, 2)


def _guarded(name: str, check, *args) -> CheckResult:
    """The field-specific check's result, or its FAIL when it raises a
    DesingError (a chart variable that collides with a field name, say), so
    the checks after it still run."""
    try:
        return check(*args)
    except DesingError as exc:
        return CheckResult(name, False, 0, str(exc))


def run_all(seed: int = 0, f: "VectorField | None" = None, bindings=None) -> "list[CheckResult]":
    if f is None:
        f = demo_system()
        bindings = bindings or {"a": Fraction(1)}
    bindings = dict(bindings or {})
    is_demo = f == demo_system()
    w = infer_weights(f)
    check_param_bindings(f.params, bindings)  # a bad binding is the caller's error, not a FAIL
    results = [
        check_ring_axioms(seed),
        check_reduction_homomorphism(seed + 1),
        check_exact_division(seed + 2),
        check_substitution_homomorphism(seed + 3),
        check_weights_oracle(seed + 4),
        check_polar_solve_roundtrip(seed + 5),
        check_chart_pushforward(f, w),
        check_chart_pushforward_numeric(seed + 6),
        check_transition_roundtrip(seed + 7),
    ]
    if (w.alpha, w.beta) == (1, 1):
        results.append(_guarded("chart-compatibility", check_compatibility, f, w))
        if is_demo:
            results.append(_guarded("golden-forms", check_golden_forms, f, w))
            results.append(_guarded("global-counts", check_global_counts, f, w))
        results.append(_guarded("bridge-conjugacy", check_bridge_conjugacy, f, w, bindings, seed + 8))
        results.append(_guarded("polar-finite-difference", check_polar_finite_difference, f, bindings, seed + 9))
        results.append(
            _guarded("hyperbolic-finite-difference", check_hyperbolic_finite_difference, f, bindings, seed + 10)
        )
    results.append(_guarded("divisor-invariance", check_divisor_invariance, f, w, bindings))
    results.append(_guarded("rk4-order", check_rk4_order, f, bindings))
    results.append(_guarded("raw-vs-desing-rescaling", check_rescaling, f, w, bindings, seed + 11))
    results.append(_guarded("conjugacy", check_conjugacy, f, w, bindings, seed + 12))
    return results
