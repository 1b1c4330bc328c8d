"""Divisor equilibria: location, linearization, classification, global merge.

Restricting the desingularized angular component to the divisor gives a
univariate rational polynomial; its real roots are the chart's divisor
equilibria.

The divisor is invariant, and the Jacobian on it is diagonal.  In K1, say,
x = r^alpha and y = r^beta*w, and with verified weights every x-term of the
field is pushed to r^(alpha+k) times a power of w, and every y-term to
r^(beta+k) times one.  So x' = alpha*r^(alpha-1)*r' gives r' = r^(k+1)*P(w),
and w' = r^k*Q(w); dividing by r^k leaves r' = r*P(w) and w' = Q(w) in
every chart.  On r = 0 the Jacobian in (r, w) order is diag(P(w0), Q'(w0)),
and its two entries a and d are its eigenvalues.  With no tolerance at all:

    a*d < 0             -> saddle
    a = 0 or d = 0      -> non-hyperbolic (a zero eigenvalue)
    a*d > 0             -> stable node for a < 0, unstable node for a > 0

A focus cannot occur: the eigenvalues are real, the sorted diagonal.  At a
rational root a and d are exact.  At an irrational root `value_at_root`
gives each a rational with its exact sign, exactly 0 when the entry vanishes
there; the Jacobian, and so the printed eigenvalues, hold those rounded once.

Each divisor point is keyed by its owning chart and exact root: K1 and K3
own their roots with |w| <= 1, K2 and K4 those with |w| < 1.  The chart
transitions map |w| = 1 to |w| = 1 for any weights, so every direction has
exactly one owner, and ownership is decided exactly on an isolating
enclosure.  Flow signs along the divisor follow from the root
multiplicities and the sign of the leading coefficient, with no evaluation.
The angle of a point's direction on the unit circle is for display only.

K3 and K4 cover the halves of the blow-up sphere antipodal to K1 and K2,
and on the paper's hyperbola they are the sheet x = -rho*cosh(phi) opposite
x = rho*cosh(phi).  When the pure radial exponent of a negative chart is
odd (alpha for K3, beta for K4), its chart map is the positive partner's
after R(r, w) = (-r, eps*w), with eps = (-1)^beta for K3 and (-1)^alpha
for K4, and dividing by r^k adds the time factor t = (-1)^k:

    desing_K3(p) = t * R * desing_K1(R p),  likewise K4 from K2.

So the report maps the partner's equilibria instead of isolating roots
again: roots are mirrored and reversed when eps = -1, and the Jacobian is
t * R * diag(a, d) * R = t * diag(a, d).  With an even radial exponent no
real r gives x = -r^alpha, and the chart is computed directly.

A hyperboloid wing point is its chart point seen through the bridge
beta(phi, rho) = (rho*cosh(phi), tanh(phi)) onto the x-chart (y-chart): the
desingularized wing field is the chart field pushed through beta times
cosh(phi)^k.  With the chart Jacobian diag(a, d), the wing Jacobian in
(phi, rho) order is cosh(phi)^k * diag(d, a), and the wing point keeps the
chart's class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import takewhile
from math import isqrt, lcm
from typing import Mapping

from .charts import ChartField, ChartId, blow_up_in_chart, embed, overlap_sign
from .errors import DegenerateChart, DesingError
from .polar import MODELS, PolarField, desingularize_polar, polar_pushforward
from .poly import Poly
from .realroots import (
    RealRoot,
    compare_root,
    real_roots,
    refine_root,
    value_at_root,
)
from .vectorfield import VectorField, bind_params, check_param_bindings
from .weights import Weights

TWO_PI = 2.0 * math.pi

CLASS_SADDLE = "hyperbolic-saddle"
CLASS_STABLE_NODE = "hyperbolic-stable-node"
CLASS_UNSTABLE_NODE = "hyperbolic-unstable-node"
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
    when available, floats otherwise; the Jacobian is diagonal, and its
    eigenvalues and the root's enclosure are derived from it and the root.
    """

    chart: str
    coords: tuple
    exact: bool
    jacobian: tuple
    classification: str
    divisor_angle: float
    root: "RealRoot | None" = None  # the root w of a directional chart point (0, w)

    @property
    def coords_float(self) -> "tuple[float, ...]":
        return tuple(float(c) for c in self.coords)

    @property
    def interval(self) -> "tuple[Fraction, Fraction] | None":
        """The isolating enclosure of an irrational root, else None."""
        return None if self.root is None or self.root.exact else (self.root.lo, self.root.hi)

    @property
    def eigenvalues_exact(self) -> "tuple[Fraction, Fraction] | None":
        """The sorted diagonal of an exact Jacobian, else None."""
        return tuple(sorted((self.jacobian[0][0], self.jacobian[1][1]))) if self.exact else None

    @property
    def eigenvalues(self) -> "tuple[float, float]":
        """The sorted diagonal rounded to floats."""
        return tuple(sorted((float(self.jacobian[0][0]), float(self.jacobian[1][1]))))


class ChartEquilibria(list):
    """One chart's divisor equilibria in exact increasing order of the root,
    with the sign of the leading coefficient of the angular component on the
    divisor.  With the root multiplicities, that sign fixes the component's
    sign between any two roots."""

    def __init__(self, lead_sign: int):
        super().__init__()
        self.lead_sign = lead_sign


@dataclass
class MergedEquilibrium:
    """One divisor point; its angle and class are those of the first exact
    member, or else the first member."""

    members: "list[Equilibrium]"

    @property
    def _representative(self) -> Equilibrium:
        return next((e for e in self.members if e.exact), self.members[0])

    @property
    def angle(self) -> float:
        return self._representative.divisor_angle

    @property
    def classification(self) -> str:
        return self._representative.classification


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


def classify_exact(a: Fraction, d: Fraction) -> str:
    """The class of the divisor Jacobian diag(a, d) from exact values or
    values with the exact signs: no tolerances."""
    if a * d < 0:
        return CLASS_SADDLE
    if not a or not d:
        return CLASS_NON_HYPERBOLIC
    return CLASS_STABLE_NODE if a < 0 else CLASS_UNSTABLE_NODE


# -- chart-local analysis ----------------------------------------------------------------


def _on_divisor(polys, rvar: str, wvar: str) -> "tuple[int, list[list[int]]]":
    """The polynomials restricted to the divisor r = 0, as trimmed integer
    coefficient lists in w over one positive common denominator."""
    lists = []
    for p in polys:
        if rvar in p.vars:
            p = p.bind({rvar: 0})
        extra = set(p.effective_vars()) - {wvar}
        if extra:
            raise ValueError(f"polynomial is not univariate in {wvar}: extra {sorted(extra)}")
        cs = [Fraction(0)] * (p.degree_in(wvar) + 1 if p.terms else 0)
        idx = p.vars.index(wvar) if wvar in p.vars else None
        for exps, c in p.terms.items():
            cs[exps[idx] if idx is not None else 0] += c
        lists.append(cs)
    den = lcm(*(c.denominator for cs in lists for c in cs))
    return den, [[c.numerator * (den // c.denominator) for c in cs] for cs in lists]


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
    if (alpha, beta) == (1, 1):
        t = 1.0 / math.hypot(1.0, w_value)
    elif chart.x_radial:
        t = _solve_unit_radius(alpha, beta, 1.0, w_value * w_value)
    else:
        t = _solve_unit_radius(alpha, beta, w_value * w_value, 1.0)
    return embed(chart, weights, (t, w_value))


def divisor_angle(chart: ChartId, w_value: float, weights: Weights) -> float:
    x, y = divisor_direction(chart, w_value, weights)
    return math.atan2(y, x) % TWO_PI


def _member(cf: ChartField, root: RealRoot, a, d, cls: str) -> Equilibrium:
    """The divisor equilibrium of class `cls` at a root with the Jacobian
    diag(a, d) there: exact at a rational root; at an irrational one printed
    at the enclosure's midpoint, with a and d rounded once."""
    if root.exact:
        zero, w = Fraction(0), root.value
    else:
        zero, w = 0.0, float((root.lo + root.hi) / 2)
        a, d = float(a), float(d)
    angle = divisor_angle(cf.chart, float(w), cf.weights)
    return Equilibrium(cf.chart.value, (zero, w), root.exact, ((a, zero), (zero, d)), cls, angle, root)


def _angular_on_divisor(cf: ChartField, des_w: Poly) -> "list[int]":
    """The bound angular component on the divisor, as a trimmed integer
    coefficient list; DegenerateChart when it vanishes identically."""
    _, (coeffs,) = _on_divisor([des_w], cf.radial_var, cf.angular_var)
    if not coeffs:
        raise DegenerateChart(cf.chart.value)
    return coeffs


def divisor_equilibria(cf: ChartField, bindings: Mapping) -> ChartEquilibria:
    """All divisor equilibria of one chart, classified, in exact root order.

    Raises DegenerateChart when the angular component vanishes identically
    on the divisor (a line of equilibria); report builders catch this and
    record the chart as degenerate.
    """
    bound = check_param_bindings(cf.params, bindings)
    des_r = bind_params(cf.desing[0], bound)
    des_w = bind_params(cf.desing[1], bound)
    coeffs = _angular_on_divisor(cf, des_w)
    rv, wv = cf.radial_var, cf.angular_var
    # the diagonal P(w) and Q'(w) of the Jacobian on the divisor, over den
    den, diagonal = _on_divisor([des_r.derivative(rv), des_w.derivative(wv)], rv, wv)
    out = ChartEquilibria(1 if coeffs[-1] > 0 else -1)
    for root in real_roots(coeffs):
        if root.exact:
            a, d = (value_at_root(e, root) / den for e in diagonal)
            out.append(_member(cf, root, a, d, classify_exact(a, d)))
        else:
            out.append(_interval_equilibrium(cf, root, den, diagonal))
    return out


def _interval_equilibrium(cf: ChartField, root: RealRoot, den: int, diagonal) -> Equilibrium:
    """The classified divisor equilibrium at an irrational root.  Each
    diagonal entry is the rational `value_at_root` gives, over `den`: it has
    the exact sign there, and is 0 when the entry vanishes at the root."""
    a, d = (value_at_root(e, root) / den for e in diagonal)
    return _member(cf, root, a, d, classify_exact(a, d))


# -- reflected charts ----------------------------------------------------------------


def _reflection(chart: ChartId, w: Weights) -> "tuple[ChartId, int, int] | None":
    """(partner, eps, t) when the chart's desingularized field is
    t * R * (partner's field)(R p) with R(r, w) = (-r, eps*w), and None when
    the chart is computed directly: a chart with sign +1, or one whose pure
    radial exponent is even."""
    radial, angular = (w.alpha, w.beta) if chart.x_radial else (w.beta, w.alpha)
    if chart.sign > 0 or radial % 2 == 0:
        return None
    partner = next(c for c in ChartId if c.x_radial == chart.x_radial and c.sign > 0)
    return partner, 1 - 2 * (angular % 2), 1 - 2 * (w.k % 2)


def _signed(s: int, x):
    """s * x for s = +-1, with a float zero kept as 0.0 rather than -0.0."""
    return x if s > 0 or not x else -x


def _mirrored(root: RealRoot) -> RealRoot:
    """The root -x for a root x, as `real_roots` returns it from the
    mirrored polynomial.  The factor f(-x) is made leading positive, as
    `yun_squarefree` leaves every factor; the Cauchy interval is symmetric
    and bisection splits at midpoints, so the enclosure is x's mirrored."""
    factor = [-c if i % 2 else c for i, c in enumerate(root.factor)]
    if factor[-1] < 0:
        factor = [-c for c in factor]
    if root.exact:
        return RealRoot(-root.value, None, None, root.multiplicity, tuple(factor))
    return RealRoot(None, -root.hi, -root.lo, root.multiplicity, tuple(factor))


# a reversed time factor swaps the stable and unstable node
_REVERSED = {CLASS_STABLE_NODE: CLASS_UNSTABLE_NODE, CLASS_UNSTABLE_NODE: CLASS_STABLE_NODE}


def _reflected_equilibria(
    cf: ChartField, bound: Mapping, partner: ChartEquilibria, eps: int, t: int
) -> ChartEquilibria:
    """The chart's divisor equilibria mapped from its reflection partner's.

    A partner point (0, w') is the point (0, eps*w') here, and with the time
    factor t a partner Jacobian diag(a, d) becomes t * diag(a, d), of the
    partner's class with the nodes swapped when t = -1."""
    coeffs = _angular_on_divisor(cf, bind_params(cf.desing[1], bound))
    out = ChartEquilibria(1 if coeffs[-1] > 0 else -1)
    for eq in reversed(partner) if eps < 0 else partner:
        root = _mirrored(eq.root) if eps < 0 else eq.root
        (a, _), (_, d) = eq.jacobian
        cls = eq.classification if t > 0 else _REVERSED.get(eq.classification, eq.classification)
        out.append(_member(cf, root, _signed(t, a), _signed(t, d), cls))
    return out


# -- global picture ----------------------------------------------------------------------

# the charts in circle order from angle 0, and the four overlap halves
# between consecutive ones, one open quadrant each; overlap_sign gives each
# chart's side of w there
_CIRCLE = list(ChartId)
_HALVES = tuple(zip(_CIRCLE, _CIRCLE[1:] + _CIRCLE[:1]))


def _sign_below(eqs: ChartEquilibria, k: int) -> int:
    """Sign of the chart's angular component on the divisor just below its
    k-th root (beyond every root for k = len(eqs)): each root above flips
    the leading sign once per unit of multiplicity."""
    flips = sum(e.root.multiplicity for e in eqs[k:])
    return -eqs.lead_sign if flips % 2 else eqs.lead_sign


def _owned_points(charts: "dict[ChartId, ChartEquilibria]"):
    """Every divisor point once, as (owner chart, root index, side of w,
    members), in circle order from angle 0.

    A root at w = 0 is seen by its chart alone.  On an overlap half the
    transition maps |w| > 1 monotonically onto |w'| < 1, so the two charts'
    roots there pair up in reverse |w| order; K1 or K3 owns a pair when its
    |w| <= 1, K2 or K4 otherwise."""
    sides: "dict[tuple[ChartId, int], list[int]]" = {}
    for chart, eqs in charts.items():
        for i, e in enumerate(eqs):
            sides.setdefault((chart, compare_root(e.root, 0)), []).append(i)
    points = [(chart, i, 0, [charts[chart][i]]) for chart in charts for i in sides.get((chart, 0), ())]
    for a, b in _HALVES:
        sa, sb = overlap_sign(a, b), overlap_sign(b, a)
        by_abs = sides.get((a, sa), [])[::sa]  # increasing |w|
        reverse_abs = sides.get((b, sb), [])[::-sb]
        for i, j in zip(by_abs, reverse_abs, strict=True):
            xs, ys = (a, i, sa), (b, j, sb)
            if not a.x_radial:
                xs, ys = ys, xs
            chart, k, side = xs  # K1 or K3; |w| - 1 has the sign of side * (w - side)
            owner = xs if side * compare_root(charts[chart][k].root, side) <= 0 else ys
            points.append((*owner, [charts[a][i], charts[b][j]]))

    def circle_order(point):
        chart, i, side, _ = point
        sector = 4 if chart is ChartId.K1 and side < 0 else _CIRCLE.index(chart)
        return (sector, chart.orientation * i)

    return sorted(points, key=circle_order)


def _circle_picture(charts: "dict[ChartId, ChartEquilibria]"):
    """The merged divisor points and the flow arcs between them."""
    merged, signs = [], []
    for chart, i, _, members in _owned_points(charts):
        members.sort(key=lambda e: (e.divisor_angle, e.chart))
        merged.append(MergedEquilibrium(members))
        # the arc leaves the owner root in the direction of increasing angle
        orient = chart.orientation
        signs.append(orient * _sign_below(charts[chart], i + (orient > 0)))
    if not merged:
        return [], [FlowArc(0.0, TWO_PI, _sign_below(charts[ChartId.K1], 0))]
    angles = [m.angle for m in merged]
    arcs = [FlowArc(a, b, sign) for a, b, sign in zip(angles, angles[1:] + angles[:1], signs)]
    return merged, arcs


# -- hyperbolic models --------------------------------------------------------------------


def _sqrt_float(q: Fraction) -> float:
    """sqrt(q) for a rational q >= 0, from a 64-bit integer square root
    rounded to a float once; OverflowError beyond the float range."""
    n, d = q.numerator, q.denominator
    e = (128 - n.bit_length() + d.bit_length()) // 2
    t, rem = divmod(n << 2 * e, d) if e >= 0 else divmod(n, d << -2 * e)
    s = isqrt(t)
    # a sticky low bit for an inexact root: a truncated root that lands on a
    # halfway point between floats would otherwise round down
    return math.ldexp(s | (rem != 0 or s * s != t), -e)


def _wing_equilibrium(eq: Equilibrium, model: str, k: int) -> Equilibrium:
    """A chart divisor equilibrium with |w| < 1 on its hyperboloid wing.

    The bridge beta(phi, rho) = (rho*cosh(phi), tanh(phi)) takes the wing
    onto the x-chart (resp. y-chart) with |w| < 1, and the desingularized
    wing field is the chart field pushed through it times cosh(phi)^k.  At
    the equilibrium its Jacobian is cosh(phi)^k * Dbeta^-1 * J * Dbeta, with
    J = diag(a, d) the chart member's Jacobian in (r, w) order (see the
    module docstring), so the wing Jacobian in (phi, rho) order is
    cosh(phi)^k * diag(d, a).

    At the axis (w = 0) that is the chart member reordered, exactly.
    Elsewhere the entries are scaled by cosh(phi)^k > 0, so the class, a
    certified zero and the eigenvalue order carry over.
    """
    (a, zero), (_, d) = eq.jacobian
    if eq.exact and eq.coords[1] == 0:
        return Equilibrium(model, (zero, zero), True, ((d, zero), (zero, a)), eq.classification, 0.0)
    root = eq.root
    # an enclosure narrow against 1 - |w| gives cosh(phi) to about 2^-37
    while not root.exact and (root.hi - root.lo) * 2**36 > 1 - max(-root.lo, root.hi):
        root = refine_root(root, (root.hi - root.lo) / 2)
    w = root.value if root.exact else (root.lo + root.hi) / 2
    n, m = w.numerator, w.denominator
    # phi = atanh(n/m) from the exact w: atanh of the rounded w loses digits
    # as |w| nears 1, and the log form cancels near 0
    phi = math.atanh(n / m) if 2 * abs(n) <= m else (math.log(m + n) - math.log(m - n)) / 2.0
    cosh_2k = (1 / (1 - w * w)) ** k  # cosh(phi)^(2k)
    if eq.exact:
        # rounded once: x*cosh(phi)^k = sign(x)*sqrt(x^2*cosh(phi)^(2k))
        da, dd = (math.copysign(_sqrt_float(x * x * cosh_2k), x) for x in (a, d))
    else:
        scale = _sqrt_float(cosh_2k)
        da, dd = scale * a, scale * d
    return Equilibrium(model, (phi, Fraction(0)), False, ((dd, 0.0), (0.0, da)), eq.classification, phi)


def _wing_picture(eqs: ChartEquilibria, model: str, k: int):
    """The wing's divisor points and flow arcs.  The wing holds the chart
    roots with |w| < 1, in increasing w and so increasing angle; because
    cosh(angle) > 0, the chart gives each arc's sign directly."""
    first = sum(1 for e in eqs if compare_root(e.root, -1) <= 0)
    inside = list(takewhile(lambda e: compare_root(e.root, 1) < 0, eqs[first:]))
    wing = [_wing_equilibrium(e, model, k) for e in inside]
    merged = [MergedEquilibrium([e]) for e in wing]
    angles = [e.divisor_angle for e in wing]
    arcs = [
        FlowArc(a, b, _sign_below(eqs, k))
        for k, (a, b) in enumerate(zip([None] + angles, angles + [None]), first)
    ]
    return merged, arcs


# -- reports -----------------------------------------------------------------------------


def global_divisor_report(
    f: VectorField,
    w: Weights,
    bindings: Mapping,
    model: str = MODEL_SPHERE,
) -> GlobalReport:
    """Merge chart-local divisor findings into a global picture.

    sphere / directional: analyse all four sign charts, key every divisor
    point by its owning chart and exact root, and attach the angular flow
    signs between consecutive points.  K3 and K4 are mapped from K1 and K2
    wherever the chart map reflects (see the module docstring).  hyperbolic-x / hyperbolic-y: analyse
    the wing covered by the corresponding directional chart.

    The members of a merged point share its classification: they see one
    direction from two overlapping charts, whose desingularized fields are
    conjugate through the transition up to a positive time factor, so their
    Jacobians are similar up to a positive scalar.
    """
    bound = check_param_bindings(f.params, bindings)
    wing = model in (MODEL_HYPERBOLIC_X, MODEL_HYPERBOLIC_Y)
    if wing:
        if (w.alpha, w.beta) != (1, 1):
            raise DesingError("hyperboloid models are defined for unit weights only")
        charts = [ChartId.K1 if model == MODEL_HYPERBOLIC_X else ChartId.K2]
    elif model in (MODEL_SPHERE, MODEL_DIRECTIONAL):
        charts = list(ChartId)
    else:
        raise DesingError(f"unknown model '{model}'")

    chart_fields = {}
    found = {}
    degenerate = []
    for chart in charts:
        cf = blow_up_in_chart(f, w, chart)
        chart_fields[chart.value] = cf
        reflection = _reflection(chart, w)
        try:
            if reflection and reflection[0] in found:
                partner, eps, t = reflection
                found[chart] = _reflected_equilibria(cf, bound, found[partner], eps, t)
            else:
                found[chart] = divisor_equilibria(cf, bound)
        except DegenerateChart:
            degenerate.append(chart.value)
    # a chart is degenerate when the angular component vanishes on the whole
    # divisor, and then it does in every chart
    if degenerate:
        merged, flow = [], [FlowArc(None, None, 0)] if wing else []
    elif wing:
        merged, flow = _wing_picture(found[chart], model, w.k)
    else:
        merged, flow = _circle_picture(found)
    notes = [
        f"non-hyperbolic divisor equilibrium at angle {m.angle:.12g}: "
        "a further blow-up would be needed there (not performed)"
        for m in merged
        if m.classification == CLASS_NON_HYPERBOLIC
    ]
    polar_raw = polar_desing = None
    if model in MODELS and (w.alpha, w.beta) == (1, 1):
        polar_raw = polar_pushforward(f, *MODELS[model])
        polar_desing = desingularize_polar(polar_raw)
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
