"""Divisor equilibria: location, linearization, classification, global merge.

Restricting the desingularized angular component to the divisor gives a
univariate rational polynomial; its real roots are the chart's divisor
equilibria.  Rational roots are recognized exactly and give exact rational
Jacobians, for which hyperbolicity is decidable with no tolerance at all:

    det < 0                 -> saddle
    det = 0 or trace = 0    -> non-hyperbolic (a zero-real-part eigenvalue)
    det > 0, trace != 0     -> node (disc >= 0) or focus (disc < 0)

Irrational roots carry certified enclosures; Jacobian entries are evaluated
in rational interval arithmetic and the same sign logic applies, refining
the enclosure until the signs are certain (or conservatively reporting
non-hyperbolic when they never become certain).

Each chart point on the divisor is keyed by the angle of its direction on
the unit circle (K1 point (0, w) maps to atan2(w, 1) for unit weights),
which lets findings from overlapping charts be merged into one global list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Mapping

from .charts import ChartField, ChartId, blow_up_in_chart
from .errors import DegenerateChart, DesingError
from .polar import Branch, HYPERBOLA, PolarField, desingularize_polar, polar_pushforward
from .poly import Poly
from .quotient import COS, RADIAL, SIN, TRIG, angular_derivative, radial_derivative
from .realroots import (
    DEFAULT_WIDTH,
    RatInterval,
    RealRoot,
    interval_eval,
    real_roots,
    refine_root,
)
from .vectorfield import VectorField, bind_params, check_param_bindings, float_field
from .weights import Weights

TWO_PI = 2.0 * math.pi
ANGLE_MERGE_TOL = 1e-9
_FLOW_ZERO_TOL = 1e-15

CLASS_SADDLE = "hyperbolic-saddle"
CLASS_STABLE_NODE = "hyperbolic-stable-node"
CLASS_UNSTABLE_NODE = "hyperbolic-unstable-node"
CLASS_STABLE_FOCUS = "hyperbolic-focus-stable"
CLASS_UNSTABLE_FOCUS = "hyperbolic-focus-unstable"
CLASS_NON_HYPERBOLIC = "non-hyperbolic"

MODEL_SPHERE = "sphere"
MODEL_DIRECTIONAL = "directional"
MODEL_HYPERBOLIC_X = "hyperbolic-x"
MODEL_HYPERBOLIC_Y = "hyperbolic-y"

# Cross-derivation notes: places where the published account of the reference
# quadratic example (x' = a*x^2 - 2*x*y, y' = y^2 - a*x*y) differs from the
# independent derivation this package performs.  The derived forms are the
# ones used; reports show both.
DERIVATION_NOTES = (
    {
        "key": "chart2-angular",
        "published": "x2' = x2*(2*a*r2 - 3)",
        "derived": "x2' = x2*(2*a*x2 - 3)",
        "detail": "desingularized angular component in the second directional chart; "
        "only the derived form makes the chart-compatibility defect vanish",
    },
    {
        "key": "chart1-linearization",
        "published": "d(y1')/dy1 = 6*y1 - 3*a",
        "derived": "d(y1')/dy1 = 6*y1 - 2*a",
        "detail": "corner entry of the first-chart Jacobian; both variants give "
        "saddles here, the derived one is what differentiation yields",
    },
    {
        "key": "hyperbolic-radial-sign",
        "published": "rho' = rho^2*(a*cosh(phi) - 2*sinh(phi) - 3*sinh(phi)^3 - 2*a*cosh(phi)*sinh(phi)^2)",
        "derived": "rho' = rho^2*(a*cosh(phi) - 2*sinh(phi) - 3*sinh(phi)^3 + 2*a*cosh(phi)*sinh(phi)^2)",
        "detail": "sign of the last term of the hyperbolic radial component; "
        "finite-difference checks along integrated orbits confirm the derived sign",
    },
    {
        "key": "hyperbolic-second-equilibrium",
        "published": "(phi, rho) = (0, tanh(2*a/3))",
        "derived": "(phi, rho) = (artanh(2*a/3), 0), existing only for a < 3/2",
        "detail": "second divisor steady state on the x-hyperboloid; for a >= 3/2 "
        "the x-hyperboloid carries a single divisor steady state",
    },
)


@dataclass(frozen=True)
class Equilibrium:
    """A divisor equilibrium in one chart or polar model.

    `coords` follows the frame convention: (radial, angular) in directional
    charts, (angle, radius) in polar models.  Entries are exact Fractions
    when available, floats otherwise.
    """

    chart: str
    coords: tuple
    coords_float: "tuple[float, float]"
    exact: bool
    interval: "tuple[Fraction, Fraction] | None"
    jacobian: tuple
    eigenvalues: "tuple[complex, complex]"
    eigenvalues_exact: "tuple[Fraction, Fraction] | None"
    classification: str
    divisor_angle: float


@dataclass
class MergedEquilibrium:
    angle: float
    members: "list[Equilibrium]"
    classification: str


@dataclass
class FlowArc:
    start: "float | None"  # None encodes an unbounded end (hyperbolic models)
    end: "float | None"
    sign: int


@dataclass
class GlobalReport:
    model: str
    weights: Weights
    bindings: "dict[str, Fraction]"
    field: VectorField
    chart_fields: "dict[str, ChartField]"
    equilibria: "list[MergedEquilibrium]"
    flow: "list[FlowArc]"
    degenerate_charts: "list[str]" = field(default_factory=list)
    notes: "list[str]" = field(default_factory=list)
    polar_raw: "PolarField | None" = None
    polar_desing: "PolarField | None" = None


# -- classification ------------------------------------------------------------------


def _exact_sqrt(value: Fraction) -> "Fraction | None":
    if value < 0:
        return None
    n, d = value.numerator, value.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _float_eigenvalues(tr: float, det: float) -> "tuple[complex, complex]":
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        pair = (complex((tr - root) / 2.0), complex((tr + root) / 2.0))
    else:
        root = math.sqrt(-disc)
        pair = (complex(tr / 2.0, -root / 2.0), complex(tr / 2.0, root / 2.0))
    return tuple(sorted(pair, key=lambda z: (z.real, z.imag)))


def classify_exact(jac) -> "tuple[str, tuple | None, tuple[complex, complex]]":
    """Classification of an exact rational 2x2 Jacobian: no tolerances."""
    (a, b), (c, d) = jac
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4 * det
    if det < 0:
        cls = CLASS_SADDLE
    elif det == 0 or tr == 0:
        cls = CLASS_NON_HYPERBOLIC
    elif disc >= 0:
        cls = CLASS_STABLE_NODE if tr < 0 else CLASS_UNSTABLE_NODE
    else:
        cls = CLASS_STABLE_FOCUS if tr < 0 else CLASS_UNSTABLE_FOCUS
    exact_pair = None
    root = _exact_sqrt(disc)
    if root is not None:
        exact_pair = tuple(sorted(((tr - root) / 2, (tr + root) / 2)))
    return cls, exact_pair, _float_eigenvalues(float(tr), float(det))


def _classify_interval(jac_int) -> "str | None":
    """Return a classification when every needed sign is certain, else None."""
    (a, b), (c, d) = jac_int
    tr = a + d
    det = a * d - b * c
    det_sign = det.sign()
    if det_sign < 0:
        return CLASS_SADDLE
    if det_sign == 0:
        return None
    tr_sign = tr.sign()
    if tr_sign == 0:
        return None
    disc = tr * tr - RatInterval.point(4) * det
    disc_sign = disc.sign()
    if disc_sign == 0:
        # hyperbolicity is already certain; settle node-vs-focus by midpoint
        disc_sign = 1 if disc.mid >= 0 else -1
    if disc_sign > 0:
        return CLASS_STABLE_NODE if tr_sign < 0 else CLASS_UNSTABLE_NODE
    return CLASS_STABLE_FOCUS if tr_sign < 0 else CLASS_UNSTABLE_FOCUS


# -- chart-local analysis ----------------------------------------------------------------


def _univariate(poly: Poly, var: str) -> "list[Fraction]":
    extra = set(poly.effective_vars()) - {var}
    if extra:
        raise ValueError(f"polynomial is not univariate in {var}: extra {sorted(extra)}")
    if poly.is_zero():
        return []
    coeffs = [Fraction(0)] * (poly.degree_in(var) + 1)
    idx = poly.vars.index(var) if var in poly.vars else None
    for exps, c in poly.terms.items():
        coeffs[exps[idx] if idx is not None else 0] += c
    return coeffs


def _solve_unit_radius(alpha: int, beta: int, a2: float, b2: float) -> float:
    """Positive t with t^(2*alpha)*a2 + t^(2*beta)*b2 = 1 (monotone bisection)."""
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if mid ** (2 * alpha) * a2 + mid ** (2 * beta) * b2 > 1.0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


def divisor_direction(chart: ChartId, w_value: float, weights: Weights) -> "tuple[float, float]":
    """Unit-circle representative of a chart divisor point (0, w)."""
    alpha, beta = weights.alpha, weights.beta
    x_radial = chart in (ChartId.K1, ChartId.K3)
    sign = 1 if chart in (ChartId.K1, ChartId.K2) else -1
    if (alpha, beta) == (1, 1):
        t = 1.0 / math.hypot(1.0, w_value)
    elif x_radial:
        t = _solve_unit_radius(alpha, beta, 1.0, w_value * w_value)
    else:
        t = _solve_unit_radius(alpha, beta, w_value * w_value, 1.0)
    if x_radial:
        return (sign * t**alpha, (t**beta) * w_value)
    return ((t**alpha) * w_value, sign * t**beta)


def divisor_angle(chart: ChartId, w_value: float, weights: Weights) -> float:
    x, y = divisor_direction(chart, w_value, weights)
    return math.atan2(y, x) % TWO_PI


def _jacobian_interval(jac_coeffs, box: RatInterval):
    return tuple(tuple(interval_eval(cs, box) for cs in row) for row in jac_coeffs)


def _exact_equilibrium(cf: ChartField, value: Fraction, jac_coeffs) -> "Equilibrium":
    """The classified divisor equilibrium at the rational root w = value."""
    point = RatInterval.point(value)
    jac = tuple(tuple(interval_eval(cs, point).lo for cs in row) for row in jac_coeffs)
    cls, eig_exact, eig_float = classify_exact(jac)
    return Equilibrium(
        chart=cf.chart.value,
        coords=(Fraction(0), value),
        coords_float=(0.0, float(value)),
        exact=True,
        interval=None,
        jacobian=jac,
        eigenvalues=eig_float,
        eigenvalues_exact=eig_exact,
        classification=cls,
        divisor_angle=divisor_angle(cf.chart, float(value), cf.weights),
    )


def divisor_equilibria(cf: ChartField, bindings: Mapping) -> "list[Equilibrium]":
    """All divisor equilibria of one chart, classified.

    Raises DegenerateChart when the angular component vanishes identically
    on the divisor (a line of equilibria); report builders catch this and
    record the chart as degenerate.
    """
    bound = check_param_bindings(cf.params, bindings)
    rvar, wvar = cf.radial_var, cf.angular_var
    des_r = bind_params(cf.desing[0], bound)
    des_w = bind_params(cf.desing[1], bound)
    on_divisor = des_w.bind({rvar: 0}) if rvar in des_w.vars else des_w
    coeffs = _univariate(on_divisor, wvar)
    if not coeffs or all(c == 0 for c in coeffs):
        raise DegenerateChart(cf.chart.value)

    jac_polys = (
        (des_r.derivative(rvar), des_r.derivative(wvar)),
        (des_w.derivative(rvar), des_w.derivative(wvar)),
    )
    # divisor restrictions of the Jacobian entries, as univariate coefficient
    # lists, for exact evaluation at rational roots and interval evaluation
    # at enclosed ones
    jac_coeffs = tuple(
        tuple(
            _univariate(p.bind({rvar: 0}) if rvar in p.vars else p, wvar)
            for p in row
        )
        for row in jac_polys
    )

    out = []
    for root in real_roots(coeffs):
        if root.exact:
            out.append(_exact_equilibrium(cf, root.value, jac_coeffs))
        else:
            out.append(_interval_equilibrium(cf, root, jac_coeffs))
    out.sort(key=lambda e: e.coords_float[1])
    return out


def _interval_equilibrium(cf, root: RealRoot, jac_coeffs):
    cls = None
    width = DEFAULT_WIDTH
    for _ in range(3):
        box = RatInterval(root.lo, root.hi)
        jac_int = _jacobian_interval(jac_coeffs, box)
        cls = _classify_interval(jac_int)
        if cls is not None:
            break
        width = width * DEFAULT_WIDTH  # square the precision and retry
        root = refine_root(root, width)
        if root.exact:
            return _exact_equilibrium(cf, root.value, jac_coeffs)
    if cls is None:
        cls = CLASS_NON_HYPERBOLIC  # enclosure never separated from zero
    mid = root.approx
    jac_mid = tuple(
        tuple(sum(float(c) * mid**i for i, c in enumerate(cs)) for cs in row)
        for row in jac_coeffs
    )
    tr = jac_mid[0][0] + jac_mid[1][1]
    det = jac_mid[0][0] * jac_mid[1][1] - jac_mid[0][1] * jac_mid[1][0]
    return Equilibrium(
        chart=cf.chart.value,
        coords=(0.0, mid),
        coords_float=(0.0, mid),
        exact=False,
        interval=(root.lo, root.hi),
        jacobian=jac_mid,
        eigenvalues=_float_eigenvalues(tr, det),
        eigenvalues_exact=None,
        classification=cls,
        divisor_angle=divisor_angle(cf.chart, mid, cf.weights),
    )


# -- global merge -----------------------------------------------------------------------


def _merge_by_angle(equilibria, tol=ANGLE_MERGE_TOL) -> "list[MergedEquilibrium]":
    if not equilibria:
        return []
    eqs = sorted(equilibria, key=lambda e: e.divisor_angle)
    clusters: "list[list[Equilibrium]]" = [[eqs[0]]]
    for eq in eqs[1:]:
        if eq.divisor_angle - clusters[-1][-1].divisor_angle <= tol:
            clusters[-1].append(eq)
        else:
            clusters.append([eq])
    # wrap-around: an angle just below 2*pi matches one at 0; keep the
    # near-zero members first so the cluster is keyed near 0
    if len(clusters) > 1:
        first, last = clusters[0], clusters[-1]
        if first[0].divisor_angle + TWO_PI - last[-1].divisor_angle <= tol:
            clusters[0] = first + last
            clusters.pop()
    merged = []
    for members in clusters:
        rep = next((e for e in members if e.exact), members[0])
        merged.append(
            MergedEquilibrium(
                angle=rep.divisor_angle,
                members=members,
                classification=rep.classification,
            )
        )
    merged.sort(key=lambda m: m.angle)
    return merged


def _chart_for_angle(theta: float) -> "tuple[ChartId, int]":
    """Covering chart and flow orientation (+1 when the chart's angular
    coordinate increases with the angle)."""
    c, s = math.cos(theta), math.sin(theta)
    if abs(c) >= abs(s):
        return (ChartId.K1, 1) if c > 0 else (ChartId.K3, -1)
    return (ChartId.K2, -1) if s > 0 else (ChartId.K4, 1)


def _chart_coordinate_of_angle(chart: ChartId, theta: float, weights: Weights) -> float:
    c, s = math.cos(theta), math.sin(theta)
    alpha, beta = weights.alpha, weights.beta
    if chart is ChartId.K1:
        t = c ** (1.0 / alpha)
        return s / t**beta
    if chart is ChartId.K3:
        t = (-c) ** (1.0 / alpha)
        return s / t**beta
    if chart is ChartId.K2:
        t = s ** (1.0 / beta)
        return c / t**alpha
    t = (-s) ** (1.0 / beta)
    return c / t**alpha


def _circle_flow(chart_fields, weights, bound, merged) -> "list[FlowArc]":
    # One evaluator for the four charts' desingularized angular components,
    # since compiling costs far more than evaluating; each component reads
    # only its own chart's (radial, angular) pair.
    charts = list(chart_fields.values())
    order = tuple(v for cf in charts for v in (cf.radial_var, cf.angular_var))
    angulars = float_field([cf.desing[1] for cf in charts], charts[0].params, bound, order)
    slot = {cf.chart: i for i, cf in enumerate(charts)}

    def flow_sign(theta: float) -> int:
        chart, orient = _chart_for_angle(theta)
        i = slot[chart]
        point = [0.0] * len(order)
        point[2 * i + 1] = _chart_coordinate_of_angle(chart, theta, weights)
        value = angulars(*point)[i]
        if abs(value) <= _FLOW_ZERO_TOL:
            return 0
        return orient * (1 if value > 0 else -1)

    if not merged:
        return [FlowArc(0.0, TWO_PI, flow_sign(1.0))]
    arcs = []
    angles = [m.angle for m in merged]
    for i, start in enumerate(angles):
        end = angles[(i + 1) % len(angles)]
        span = (end - start) % TWO_PI
        if span == 0.0:
            span = TWO_PI
        mid = (start + span / 2.0) % TWO_PI
        arcs.append(FlowArc(start, end, flow_sign(mid)))
    return arcs


# -- hyperbolic models --------------------------------------------------------------------


def _polar_jacobian(pf: PolarField):
    return (
        (angular_derivative(pf.angular), radial_derivative(pf.angular)),
        (angular_derivative(pf.radial), radial_derivative(pf.radial)),
    )


def _hyperbolic_equilibria(bound, branch: Branch, chart_field: ChartField, jac_q, field):
    """Divisor equilibria on one hyperboloid wing, through the chart bridge.

    The wing corresponds to the x-chart (resp. y-chart) with the angular
    coordinate inside (-1, 1) via w = tanh(angle); the bridge is an analytic
    diffeomorphism and the desingularized fields match up to the positive
    factor cosh(angle), so the chart classification transfers unchanged and
    chart eigenvalues scale by cosh(angle).  `jac_q` is the Jacobian of the
    desingularized field on the wing and `field` evaluates its four entries
    (first in its output) in floats over (c, s, r).
    """
    chart_eqs = divisor_equilibria(chart_field, bound)
    out = []
    for eq in chart_eqs:
        w_norm = eq.coords[1]
        w_float = eq.coords_float[1]
        if eq.exact:
            inside = abs(w_norm) < 1
        else:
            lo, hi = eq.interval
            inside = -1 < lo and hi < 1
        if not inside:
            continue
        phi = math.atanh(w_float)
        cosh_phi = 1.0 / math.sqrt(1.0 - w_float * w_float)
        at_axis = eq.exact and w_norm == 0
        if at_axis:
            jac = tuple(
                tuple(q.eval_exact(1, 0, 0, bound) for q in row) for row in jac_q
            )
            cls, eig_exact, eig_float = classify_exact(jac)
        else:
            a, b, c, d = field(cosh_phi, w_float * cosh_phi, 0.0)[:4]
            jac = ((a, b), (c, d))
            eig_float = _float_eigenvalues(a + d, a * d - b * c)
            eig_exact = None
            cls = eq.classification  # transfers through the positive rescaling
        out.append(
            Equilibrium(
                chart=MODEL_HYPERBOLIC_X if branch is Branch.X else MODEL_HYPERBOLIC_Y,
                coords=(Fraction(0) if at_axis else phi, Fraction(0)),
                coords_float=(phi, 0.0),
                exact=at_axis,
                interval=None,
                jacobian=jac,
                eigenvalues=eig_float,
                eigenvalues_exact=eig_exact,
                classification=cls,
                divisor_angle=phi,
            )
        )
    out.sort(key=lambda e: e.divisor_angle)
    return out


def _line_flow(field, angles) -> "list[FlowArc]":
    """Flow signs along the hyperbola's divisor; `field` evaluates the
    desingularized angular component last in its output, over (c, s, r)."""
    cosh, sinh = TRIG[HYPERBOLA]
    samples = []
    if not angles:
        samples.append((None, None, 0.0))
    else:
        samples.append((None, angles[0], angles[0] - 1.0))
        for a, b in zip(angles, angles[1:]):
            samples.append((a, b, (a + b) / 2.0))
        samples.append((angles[-1], None, angles[-1] + 1.0))
    arcs = []
    for start, end, at in samples:
        value = field(cosh(at), sinh(at), 0.0)[-1]
        sign = 0 if abs(value) <= _FLOW_ZERO_TOL else (1 if value > 0 else -1)
        arcs.append(FlowArc(start, end, sign))
    return arcs


# -- reports -----------------------------------------------------------------------------


def global_divisor_report(
    f: VectorField,
    w: Weights,
    bindings: Mapping,
    model: str = MODEL_SPHERE,
) -> GlobalReport:
    """Merge chart-local divisor findings into a global picture.

    sphere / directional: analyse all four sign charts, key equilibria by
    their circle angle, dedup within 1e-9 and attach the angular flow signs
    between consecutive equilibria.  hyperbolic-x / hyperbolic-y: analyse
    the wing covered by the corresponding directional chart.
    """
    bound = check_param_bindings(f.params, bindings)
    notes: "list[str]" = []

    if model in (MODEL_HYPERBOLIC_X, MODEL_HYPERBOLIC_Y):
        if (w.alpha, w.beta) != (1, 1):
            raise DesingError("hyperboloid models are defined for unit weights only")
        branch = Branch.X if model == MODEL_HYPERBOLIC_X else Branch.Y
        chart = ChartId.K1 if branch is Branch.X else ChartId.K2
        cf = blow_up_in_chart(f, w, chart)
        raw = polar_pushforward(f, HYPERBOLA, branch)
        hh = desingularize_polar(raw)
        # one evaluator for the report, since compiling costs far more than
        # evaluating: the Jacobian entries of hh, then its angular component
        jac_q = _polar_jacobian(hh)
        field = float_field(
            [q.base for row in jac_q for q in row] + [hh.angular.base],
            hh.params, bound, (COS, SIN, RADIAL),
        )
        degenerate: "list[str]" = []
        try:
            eqs = _hyperbolic_equilibria(bound, branch, cf, jac_q, field)
        except DegenerateChart:
            degenerate.append(chart.value)
            eqs = []
        merged = [
            MergedEquilibrium(angle=e.divisor_angle, members=[e], classification=e.classification)
            for e in eqs
        ]
        flow = _line_flow(field, [e.divisor_angle for e in eqs])
        return GlobalReport(
            model=model,
            weights=w,
            bindings=bound,
            field=f,
            chart_fields={chart.value: cf},
            equilibria=merged,
            flow=flow,
            degenerate_charts=degenerate,
            notes=notes,
            polar_raw=raw,
            polar_desing=hh,
        )

    if model not in (MODEL_SPHERE, MODEL_DIRECTIONAL):
        raise DesingError(f"unknown model '{model}'")

    chart_fields = {}
    all_eqs = []
    degenerate = []
    for chart in ChartId:
        cf = blow_up_in_chart(f, w, chart)
        chart_fields[chart.value] = cf
        try:
            all_eqs.extend(divisor_equilibria(cf, bound))
        except DegenerateChart:
            degenerate.append(chart.value)
    merged = _merge_by_angle(all_eqs)
    for m in merged:
        kinds = {e.classification for e in m.members}
        if len(kinds) > 1:
            notes.append(
                f"charts disagree on the classification at angle {m.angle:.12g}: {sorted(kinds)}"
            )
        if m.classification == CLASS_NON_HYPERBOLIC:
            notes.append(
                f"non-hyperbolic divisor equilibrium at angle {m.angle:.12g}: "
                "a further blow-up would be needed there (not performed)"
            )
    flow = _circle_flow(chart_fields, w, bound, merged) if not degenerate else []
    polar_raw = polar_desing = None
    if model == MODEL_SPHERE and (w.alpha, w.beta) == (1, 1):
        polar_raw = polar_pushforward(f, 1)
        if not f.is_zero():
            polar_desing = desingularize_polar(polar_raw, w.k)
    return GlobalReport(
        model=model,
        weights=w,
        bindings=bound,
        field=f,
        chart_fields=chart_fields,
        equilibria=merged,
        flow=flow,
        degenerate_charts=degenerate,
        notes=notes,
        polar_raw=polar_raw,
        polar_desing=polar_desing,
    )
