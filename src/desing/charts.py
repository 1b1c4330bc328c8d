"""Weighted directional blow-up in four sign charts.

Chart embeddings into the plane, with weights (alpha, beta) and radial
coordinate r >= 0:

    K1 (x > 0):  x =  r^alpha,      y =  r^beta * w     (w plays y/x^..)
    K2 (y > 0):  x =  r^alpha * w,  y =  r^beta
    K3 (x < 0):  x = -r^alpha,      y =  r^beta * w
    K4 (y < 0):  x =  r^alpha * w,  y = -r^beta

`_CHART_INFO` states this once: each chart's radial and angular names,
whether x carries the pure radial power (`x_radial`) and that power's
`sign`.  Every other chart convention is read off it:

- Two charts overlap exactly when their `x_radial` differ (an x-chart and a
  y-chart).  On the overlap the source angular coordinate has the sign of
  the target chart, and the point lands with the sign of the source chart.
- `orientation` is +1 where the angle on the circle increases with the
  angular coordinate: `sign` in the x-charts, `-sign` in the y-charts.

With verified weights (alpha, beta, k), every term of f1 scales by
r^(alpha+k) and every term of f2 by r^(beta+k) under the embedding, so with
s the chart sign, f1(s*r^alpha, r^beta*w) = r^(alpha+k)*f1(s, w), and
likewise for f2.  Solving x' = s*alpha*r^(alpha-1)*r' and
y' = beta*r^(beta-1)*w*r' + r^beta*w' in K1/K3 and dividing by r^k gives

    r' = r*P(w),  P = s*f1(s, w)/alpha,
    w' = Q(w),    Q = f2(s, w) - (beta/alpha)*s*w*f1(s, w),

and in K2/K4 the same with the roles of (f1, alpha) and (f2, beta)
swapped, the radial state variable set to s and the angular one to w.
`blow_up_in_chart` reads both off the integer numerators of f1 and f2 in
one pass, r*P over alpha times f1's denominator and Q over alpha times the
lcm of both denominators; the undivided field is r^k times them.  Both
chart fields are grlex-descending over params + (r, w).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Callable

from .errors import NameCollision, NotDivisible, OutOfDomain
from .poly import Poly, float_evaluator
from .vectorfield import Param, VectorField, bind_components
from .weights import Weights, verify_weights


class ChartId(Enum):
    K1 = "K1"
    K2 = "K2"
    K3 = "K3"
    K4 = "K4"

    def __str__(self):
        return self.value

    @property
    def x_radial(self) -> bool:
        """True when x carries the pure radial power (K1, K3)."""
        return _CHART_INFO[self][2]

    @property
    def sign(self) -> int:
        """Sign of the pure radial power: the side of the axis the chart covers."""
        return _CHART_INFO[self][3]

    @property
    def orientation(self) -> int:
        """+1 where the angle on the circle increases with the angular coordinate."""
        return self.sign if self.x_radial else -self.sign


# (radial name, angular name, x carries the pure radial power?, sign of that power)
_CHART_INFO = {
    ChartId.K1: ("r1", "y1", True, 1),
    ChartId.K2: ("r2", "x2", False, 1),
    ChartId.K3: ("r3", "y3", True, -1),
    ChartId.K4: ("r4", "x4", False, -1),
}


def embed(chart: ChartId, weights: Weights, point):
    """Chart point (r, w) -> plane point (x, y); exact for rational input
    with integer weights, float otherwise."""
    r, w = point
    if chart.x_radial:
        return (chart.sign * r**weights.alpha, r**weights.beta * w)
    return (r**weights.alpha * w, chart.sign * r**weights.beta)


@dataclass(frozen=True)
class ChartField:
    """A chart's desingularized field (r*P(w), Q(w)); the chart's variable
    names, its divisor and the field before division derive from it."""

    chart: ChartId
    weights: Weights
    desing: "tuple[Poly, Poly]"  # (radial', angular') after exact division by radial^k
    params: "tuple[Param, ...]" = ()

    @property
    def radial_var(self) -> str:
        return _CHART_INFO[self.chart][0]

    @property
    def angular_var(self) -> str:
        return _CHART_INFO[self.chart][1]

    @property
    def divisor(self) -> str:
        return f"{self.radial_var} = 0"

    @property
    def raw(self) -> "tuple[Poly, Poly]":
        """(radial', angular') before division by radial^k: each term of
        `desing` times radial^k, which keeps the grlex order."""
        rk = Poly.var(self.radial_var) ** self.weights.k
        return (self.desing[0] * rk, self.desing[1] * rk)

    def as_callable(self, bindings) -> Callable:
        """Float evaluator (r, w) -> (r', w') of the desingularized field with
        parameters bound; the undivided field is r^k times it."""
        polys = bind_components(self.desing, self.params, bindings)
        return float_evaluator(polys, (self.radial_var, self.angular_var))


def blow_up_in_chart(f: VectorField, w: Weights, chart: ChartId) -> ChartField:
    """The chart field r' = r*P(w), w' = Q(w) of f, read off the terms of f1
    and f2 in one pass (see the module docstring).

    Raises NotDivisible unless verify_weights(f, w): only verified weights
    make the pushed field divisible by radial^k.
    """
    if not verify_weights(f, w):
        raise NotDivisible(f"weights {w} do not verify on the field; cannot blow up")
    radial, angular, x_radial, s = _CHART_INFO[chart]
    # the chart field's variables are the parameters and the chart variables
    taken = set(f.f1.vars) | set(f.f2.vars) | set(f.param_names())
    for name in (radial, angular):
        if name in taken:
            raise NameCollision(f"chart variable '{name}' collides with a field variable")

    # g carries the pure radial power: r' comes from g and w' from h
    g, h, a, b = (f.f1, f.f2, w.alpha, w.beta) if x_radial else (f.f2, f.f1, w.beta, w.alpha)
    sr, sw = f.state_vars if x_radial else f.state_vars[::-1]
    order = f.param_names() + (radial, angular)

    def at_sign(poly, k):
        """(parameter exponents, exponent of w, k * numerator) per term of
        poly with the radial state variable set to s and the other to w."""
        idx = [poly.vars.index(v) if v in poly.vars else None for v in order[:-2] + (sr, sw)]
        for exps, n in poly.nums.items():
            e = [exps[i] if i is not None else 0 for i in idx]
            yield tuple(e[:-2]), e[-1], -k * n if s < 0 and e[-2] % 2 else k * n

    # r*P(w) over a*g.den, and Q(w) over a*lcm(g.den, h.den)
    den = lcm(g.den, h.den)
    P: dict = {}
    Q: dict = {}
    for pe, n, c in at_sign(g, s):
        P[pe + (1, n)] = P.get(pe + (1, n), 0) + c
        Q[pe + (0, n + 1)] = Q.get(pe + (0, n + 1), 0) - b * (den // g.den) * c
    for pe, n, c in at_sign(h, a * (den // h.den)):
        Q[pe + (0, n)] = Q.get(pe + (0, n), 0) + c

    def grlex(terms, den):
        kept = sorted((e for e, c in terms.items() if c), key=lambda e: (sum(e), e), reverse=True)
        return Poly._normal(order, {e: terms[e] for e in kept}, den)

    return ChartField(chart, w, (grlex(P, a * g.den), grlex(Q, a * den)), f.params)


# -- transitions -------------------------------------------------------------------

def overlap_sign(frm: ChartId, to: ChartId) -> int:
    """Required sign of `frm`'s angular coordinate on its overlap with `to`;
    the point lands in `to` with the sign `frm.sign`."""
    if frm.x_radial == to.x_radial:
        raise OutOfDomain(f"charts {frm} and {to} do not overlap")
    return to.sign


# the overlapping pairs in ChartId order; seeded checks draw from it by index
OVERLAPS = tuple((a, b) for a in ChartId for b in ChartId if a.x_radial != b.x_radial)


def transition(point, frm: ChartId, to: ChartId):
    """Map a point of a unit-weight chart to an overlapping chart.

    The map is rational and computed exactly; it extends continuously to
    the divisor (radial = 0).
    """
    req = overlap_sign(frm, to)
    r, w = point
    if w == 0:
        raise OutOfDomain(f"{frm}->{to} is undefined where {_CHART_INFO[frm][1]} = 0")
    if (w > 0) != (req > 0):
        raise OutOfDomain(
            f"{frm}->{to} requires {_CHART_INFO[frm][1]} {'>' if req > 0 else '<'} 0"
        )
    mag = abs(Fraction(w))
    return (Fraction(r) * mag, Fraction(frm.sign) / mag)


# -- compatibility of desingularized charts --------------------------------------------


def _laurent_substitute(p: Poly, subs: "dict[str, tuple[Poly, int]]", wvar: str):
    """Substitute var -> numerator / wvar^power; return (numerator, power)."""
    term_data = []
    max_den = 0
    # the numerators substituted, then divided by p.den once
    for exps, c in p.nums.items():
        num = Poly.const(c)
        den = 0
        for v, e in zip(p.vars, exps):
            if not e:
                continue
            if v in subs:
                nv, dv = subs[v]
                num = num * nv**e
                den += dv * e
            else:
                num = num * Poly.var(v) ** e
        term_data.append((num, den))
        max_den = max(max_den, den)
    wp = Poly.var(wvar)
    total = Poly.zero()
    for num, den in term_data:
        total = total + num * wp ** (max_den - den)
    return Poly._normal(total.vars, total.nums, total.den * p.den), max_den


def compatibility_defect(
    f: VectorField,
    w: Weights,
    frm: ChartId,
    to: ChartId,
    desing_to: "tuple[Poly, Poly] | None" = None,
):
    """Symbolic compatibility check between two desingularized charts.

    Computes D(transition) applied to the source field minus the positive
    time rescaling lambda = (source angular)^k times the target field pulled
    back through the transition, with denominators cleared by a power of the
    angular variable.  The returned pair is identically zero exactly when the
    two desingularized charts agree up to the rescaling.

    Restricted to unit weights, where the transition Jacobian is rational;
    general weights are checked numerically in the dynamics module.  Pass
    `desing_to` to test an alternative candidate for the target field.
    """
    if (w.alpha, w.beta) != (1, 1):
        raise ValueError("symbolic compatibility requires unit weights (alpha, beta) = (1, 1)")
    s_dom = overlap_sign(frm, to)
    eps = frm.sign * s_dom

    cf_from = blow_up_in_chart(f, w, frm)
    if desing_to is None:
        desing_to = blow_up_in_chart(f, w, to).desing
    g_r, g_w = cf_from.desing
    rf, wf = cf_from.radial_var, cf_from.angular_var
    rt, wt = _CHART_INFO[to][:2]

    rp, wp = Poly.var(rf), Poly.var(wf)
    # transition: r_to = s_dom*r*w, w_to = eps/w; Jacobian rows below
    comp1 = s_dom * (wp * g_r + rp * g_w)  # denominator w^0
    comp2 = -eps * g_w  # denominator w^2
    lam = (s_dom * wp) ** w.k

    subs = {rt: (s_dom * rp * wp, 0), wt: (Poly.const(eps), 1)}
    h1, d1 = _laurent_substitute(desing_to[0], subs, wf)
    h2, d2 = _laurent_substitute(desing_to[1], subs, wf)

    def cleared(comp, cden, hnum, hden):
        j = max(cden, hden)
        return comp * wp ** (j - cden) - lam * hnum * wp ** (j - hden)

    order = tuple(p.name for p in f.params) + (rf, wf)
    return (
        cleared(comp1, 0, h1, d1).reordered(order),
        cleared(comp2, 2, h2, d2).reordered(order),
    )
