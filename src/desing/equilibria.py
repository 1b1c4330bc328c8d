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
there.

Each divisor point is keyed by its owning chart and exact root: K1 and K3
own their roots with |w| <= 1, K2 and K4 those with |w| < 1.  The chart
transitions map |w| = 1 to |w| = 1 for any weights, so every direction has
exactly one owner, and ownership is decided exactly on an isolating
enclosure.  Flow signs along the divisor follow from the root
multiplicities and the sign of the leading coefficient, with no evaluation.

K3 and K4 cover the halves of the blow-up sphere antipodal to K1 and K2,
and on the paper's hyperbola they are the sheet x = -rho*cosh(phi) opposite
x = rho*cosh(phi).  When the pure radial exponent of a negative chart is
odd (alpha for K3, beta for K4), its chart map is the positive partner's
after R(r, w) = (-r, eps*w), with eps = (-1)^beta for K3 and (-1)^alpha
for K4, and dividing by r^k adds the time factor t = (-1)^k:

    desing_K3(p) = t * R * desing_K1(R p),  likewise K4 from K2.

So the report maps the partner's equilibria instead of isolating roots
again: roots are mirrored and reversed when eps = -1, and the Jacobian is
t * R * diag(a, d) * R = t * diag(a, d), classified again from those exact
entries.  With an even radial exponent no
real r gives x = -r^alpha, and the chart is computed directly.

A hyperboloid wing point is its chart point seen through the bridge
beta(phi, rho) = (rho*cosh(phi), tanh(phi)) onto the x-chart (y-chart): the
desingularized wing field is the chart field pushed through beta times
cosh(phi)^k.  With the chart Jacobian J = diag(a, d), the wing Jacobian
cosh(phi)^k * Dbeta^-1 * J * Dbeta is cosh(phi)^k * diag(d, a) in (phi, rho)
order: at the axis w = 0 the chart point's reordered, exactly.  The wing
point keeps the chart's class.

A report stores exact data only.  A chart point is its chart, the weights,
its root, (a, d) and its class; a wing point is its chart point, the model
and k; a merged point holds its members in the order the pairing found them,
and a flow arc the merged points at its ends.  Every float a report prints
(an enclosed root's coordinate, an angle or phi, a rounded or cosh-scaled
diagonal, an arc's ends, a note), and the member order sorted by angle, is
derived when a renderer first reads it, and kept.  As in `realroots`, decisions are exact and numbers
are made only for output, so a value beyond the float range fails in the
renderer, after the exact analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import takewhile
from math import isqrt
from typing import Mapping

from .charts import ChartField, ChartId, blow_up_in_chart, embed, overlap_sign
from .errors import DegenerateChart, DesingError
from .polar import MODELS, PolarField, desingularize_polar, polar_pushforward
from .realroots import (
    RealRoot,
    _derivative,
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


class _Views:
    """What a renderer prints of a divisor point, derived from its `exact`,
    `coords` and `diagonal` when first read, and kept."""

    interval = None  # a wing point prints no enclosure

    @cached_property
    def coords_float(self) -> "tuple[float, ...]":
        return tuple(float(c) for c in self.coords)

    @cached_property
    def jacobian(self) -> tuple:
        """diag(a, d) as a 2x2 matrix: exact at an exact point, else with
        the diagonal rounded once."""
        a, d = self.diagonal
        if self.exact:
            return ((a, Fraction(0)), (Fraction(0), d))
        return ((float(a), 0.0), (0.0, float(d)))

    @cached_property
    def eigenvalues_exact(self) -> "tuple[Fraction, Fraction] | None":
        """The sorted diagonal of an exact point, else None."""
        return tuple(sorted(self.diagonal)) if self.exact else None

    @cached_property
    def eigenvalues(self) -> "tuple[float, float]":
        """The sorted diagonal rounded to floats."""
        return tuple(sorted(float(x) for x in self.diagonal))


@dataclass(frozen=True)
class Equilibrium(_Views):
    """A divisor equilibrium (0, w) of one directional chart: the chart, the
    weights, the root w, the exact diagonal (a, d) of the divisor Jacobian
    in (r, w) order and the class read from it."""

    chart: str
    weights: Weights
    root: RealRoot
    diagonal: tuple
    classification: str

    @property
    def exact(self) -> bool:
        return self.root.exact

    @cached_property
    def interval(self) -> "tuple[Fraction, Fraction] | None":
        """The isolating enclosure of an irrational root, else None."""
        return None if self.root.exact else (self.root.lo, self.root.hi)

    @cached_property
    def coords(self) -> tuple:
        """(0, w), as floats at the midpoint of an irrational root's enclosure."""
        root = self.root
        return (Fraction(0), root.value) if root.exact else (0.0, float((root.lo + root.hi) / 2))

    @cached_property
    def angle(self) -> float:
        """The angle of the direction on the unit circle."""
        return divisor_angle(ChartId(self.chart), float(self.coords[1]), self.weights)


@dataclass(frozen=True)
class WingEquilibrium(_Views):
    """A chart divisor point with |w| < 1 on its hyperboloid wing: that
    point, the model and k.  Its `angle` phi, its coordinates (phi, rho) and
    its diagonal in (phi, rho) order are exact at the axis w = 0 only."""

    point: Equilibrium
    model: str
    k: int

    @property
    def chart(self) -> str:
        return self.model

    @property
    def classification(self) -> str:
        return self.point.classification

    @property
    def exact(self) -> bool:
        return self.point.exact and self.point.root.value == 0

    @cached_property
    def _w(self) -> Fraction:
        """w, or the midpoint of an enclosure narrow against 1 - |w|, which
        gives cosh(phi) to about 2^-37."""
        root = self.point.root
        while not root.exact and (root.hi - root.lo) * 2**36 > 1 - max(-root.lo, root.hi):
            root = refine_root(root, (root.hi - root.lo) / 2)
        return root.value if root.exact else (root.lo + root.hi) / 2

    @cached_property
    def angle(self) -> float:
        """phi = atanh(w), from the exact w: atanh of the rounded w loses
        digits as |w| nears 1, and the log form cancels near 0."""
        if self.exact:
            return 0.0
        n, m = self._w.numerator, self._w.denominator
        return math.atanh(n / m) if 2 * abs(n) <= m else (math.log(m + n) - math.log(m - n)) / 2.0

    @cached_property
    def coords(self) -> tuple:
        return (Fraction(0) if self.exact else self.angle, Fraction(0))

    @cached_property
    def diagonal(self) -> tuple:
        """cosh(phi)^k * (d, a), rounded once off the axis; the scale is > 0,
        so a certified zero and the eigenvalue order carry over."""
        a, d = self.point.diagonal
        if self.exact:
            return (d, a)
        cosh_2k = (1 / (1 - self._w**2)) ** self.k  # cosh(phi)^(2k)
        if self.point.exact:
            # x*cosh(phi)^k = sign(x)*sqrt(x^2*cosh(phi)^(2k))
            return tuple(math.copysign(_sqrt_float(x * x * cosh_2k), x) for x in (d, a))
        scale = _sqrt_float(cosh_2k)
        return (scale * float(d), scale * float(a))


class ChartEquilibria(list):
    """One chart's divisor equilibria in exact increasing order of the root,
    with the sign of the leading coefficient of the angular component on the
    divisor.  With the root multiplicities, that sign fixes the component's
    sign between any two roots."""

    def __init__(self, lead_sign: int):
        super().__init__()
        self.lead_sign = lead_sign


@dataclass(frozen=True)
class MergedEquilibrium:
    """One divisor point: the members that see its direction, stored in the
    order `_owned_points` pairs them; they share the class.  When first read,
    `members` orders them for printing by (angle, chart), and the point's
    angle is that of the first exact member there, or else the first's."""

    points: tuple

    @cached_property
    def members(self) -> "list[Equilibrium | WingEquilibrium]":
        return sorted(self.points, key=lambda e: (e.angle, e.chart))

    @cached_property
    def angle(self) -> float:
        return next((e for e in self.members if e.exact), self.members[0]).angle

    @property
    def classification(self) -> str:
        return self.points[0].classification


@dataclass(frozen=True)
class FlowArc:
    """The sign of the angular component on the divisor between two
    consecutive points.  `tail` and `head` are the merged points at its
    ends, None at an unbounded end of a wing; only the one arc of an empty
    circle has fixed ends, the angles 0 and 2*pi.  `start` and `end` are the
    ends' angles."""

    tail: "MergedEquilibrium | float | None"
    head: "MergedEquilibrium | float | None"
    sign: int

    @property
    def start(self) -> "float | None":
        return self.tail.angle if isinstance(self.tail, MergedEquilibrium) else self.tail

    @property
    def end(self) -> "float | None":
        return self.head.angle if isinstance(self.head, MergedEquilibrium) else self.head


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
    polar_raw: "PolarField | None" = None
    polar_desing: "PolarField | None" = None

    @property
    def notes(self) -> "list[str]":
        return [
            f"non-hyperbolic divisor equilibrium at angle {m.angle:.12g}: "
            "a further blow-up would be needed there (not performed)"
            for m in self.equilibria
            if m.classification == CLASS_NON_HYPERBOLIC
        ]


# -- classification ------------------------------------------------------------------


def classify_exact(a: Fraction, d: Fraction) -> str:
    """The class of the divisor Jacobian diag(a, d) from exact values or
    values with the exact signs: no tolerances.  Only the two signs are
    read, so huge entries cost no product."""
    if not a or not d:
        return CLASS_NON_HYPERBOLIC
    if (a < 0) != (d < 0):
        return CLASS_SADDLE
    return CLASS_STABLE_NODE if a < 0 else CLASS_UNSTABLE_NODE


# -- chart-local analysis ----------------------------------------------------------------


def _on_divisor(cf: ChartField, bound: Mapping) -> "list[tuple[list[int], int]]":
    """P and Q of the chart field (r*P(w), Q(w)) with the parameters bound,
    each as its trimmed integer coefficient list in w and its positive
    denominator; DegenerateChart when Q vanishes identically.  Every term
    of r*P(w) carries r^1, so its w exponents and coefficients are P's."""
    wv = cf.angular_var
    lists = []
    for p in cf.desing:
        p = bind_params(p, bound)
        cs = [0] * (p.degree_in(wv) + 1 if p.nums else 0)
        idx = p.vars.index(wv) if wv in p.vars else None
        for exps, n in p.nums.items():
            cs[exps[idx] if idx is not None else 0] += n
        lists.append((cs, p.den))
    if not lists[1][0]:
        raise DegenerateChart(cf.chart.value)
    return lists


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


def divisor_angle(chart: ChartId, w_value: float, weights: Weights) -> float:
    """The angle of the unit-circle representative of a chart divisor point
    (0, w)."""
    alpha, beta = weights.alpha, weights.beta
    if (alpha, beta) == (1, 1):
        t = 1.0 / math.hypot(1.0, w_value)
    elif chart.x_radial:
        t = _solve_unit_radius(alpha, beta, 1.0, w_value * w_value)
    else:
        t = _solve_unit_radius(alpha, beta, w_value * w_value, 1.0)
    x, y = embed(chart, weights, (t, w_value))
    return math.atan2(y, x) % TWO_PI


def _member(cf: ChartField, root: RealRoot, a: Fraction, d: Fraction) -> Equilibrium:
    """The divisor equilibrium at a root with the exact Jacobian diag(a, d)
    there, classified from it."""
    return Equilibrium(cf.chart.value, cf.weights, root, (a, d), classify_exact(a, d))


def divisor_equilibria(cf: ChartField, bindings: Mapping) -> ChartEquilibria:
    """All divisor equilibria of one chart, classified, in exact root order.

    Raises DegenerateChart when the angular component vanishes identically
    on the divisor (a line of equilibria); report builders catch this and
    record the chart as degenerate.
    """
    bound = check_param_bindings(cf.params, bindings)
    # the diagonal P(w) and Q'(w) of the Jacobian on the divisor, each over its den
    (P, den_p), (coeffs, den_q) = _on_divisor(cf, bound)
    diagonal = ((P, den_p), (_derivative(coeffs), den_q))
    out = ChartEquilibria(1 if coeffs[-1] > 0 else -1)
    for root in real_roots(coeffs):
        a, d = (value_at_root(e, root) / den for e, den in diagonal)
        out.append(_member(cf, root, a, d) if root.exact else _interval_equilibrium(cf, root, a, d))
    return out


def _interval_equilibrium(cf: ChartField, root: RealRoot, a: Fraction, d: Fraction) -> Equilibrium:
    """The classified divisor equilibrium at an irrational root.  Each
    diagonal entry is the rational `value_at_root` gives: it has the exact
    sign there, and is 0 when the entry vanishes at the root."""
    return _member(cf, root, a, d)


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


def _reflected_equilibria(
    cf: ChartField, bound: Mapping, partner: ChartEquilibria, eps: int, t: int
) -> ChartEquilibria:
    """The chart's divisor equilibria mapped from its reflection partner's.

    A partner point (0, w') is the point (0, eps*w') here, and with the time
    factor t a partner Jacobian diag(a, d) becomes t * diag(a, d): exact, so
    a zero entry stays 0 and t = -1 swaps the nodes."""
    coeffs = _on_divisor(cf, bound)[1][0]
    out = ChartEquilibria(1 if coeffs[-1] > 0 else -1)
    for eq in reversed(partner) if eps < 0 else partner:
        a, d = eq.diagonal
        out.append(_member(cf, _mirrored(eq.root) if eps < 0 else eq.root, t * a, t * d))
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
    points = [(chart, i, 0, (charts[chart][i],)) for chart in charts for i in sides.get((chart, 0), ())]
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
            points.append((*owner, (charts[a][i], charts[b][j])))

    def circle_order(point):
        chart, i, side, _ = point
        sector = 4 if chart is ChartId.K1 and side < 0 else _CIRCLE.index(chart)
        return (sector, chart.orientation * i)

    return sorted(points, key=circle_order)


def _circle_picture(charts: "dict[ChartId, ChartEquilibria]"):
    """The merged divisor points and the flow arcs between them."""
    merged, signs = [], []
    for chart, i, _, members in _owned_points(charts):
        merged.append(MergedEquilibrium(members))
        # the arc leaves the owner root in the direction of increasing angle
        orient = chart.orientation
        signs.append(orient * _sign_below(charts[chart], i + (orient > 0)))
    if not merged:
        return [], [FlowArc(0.0, TWO_PI, _sign_below(charts[ChartId.K1], 0))]
    arcs = [FlowArc(a, b, sign) for a, b, sign in zip(merged, merged[1:] + merged[:1], signs)]
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


def _wing_picture(eqs: ChartEquilibria, model: str, k: int):
    """The wing's divisor points and flow arcs.  The wing holds the chart
    roots with |w| < 1, in increasing w and so increasing angle; because
    cosh(angle) > 0, the chart gives each arc's sign directly."""
    first = sum(1 for e in eqs if compare_root(e.root, -1) <= 0)
    inside = list(takewhile(lambda e: compare_root(e.root, 1) < 0, eqs[first:]))
    merged = [MergedEquilibrium((WingEquilibrium(e, model, k),)) for e in inside]
    arcs = [
        FlowArc(a, b, _sign_below(eqs, i))
        for i, (a, b) in enumerate(zip([None] + merged, merged + [None]), first)
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
        polar_raw=polar_raw,
        polar_desing=polar_desing,
    )
