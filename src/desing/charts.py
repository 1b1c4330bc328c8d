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

Each embedding sends every variable to a signed monomial, so pushing the
field through it is `Poly.monomial_map`, an exponent rewrite.  The result
is a triangular system: the component carrying the pure +-r power
determines r', then the remaining equation yields w'.  Both solves divide
by a constant times a power of r, and desingularizing divides by r^k; all
three are `Poly.shift`, which raises NotDivisible if a term lacks the power.
When the weights verify, every term of the pushed x-component carries
exactly r^(alpha+k) and every term of the y-component r^(beta+k), so none
of the divisions can fail.  Both primitives return what `substitute` and
`div_exact` would, term order included; for a field from the DSL the chart
fields come out grlex-descending over params + (r, w).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping

from .errors import NameCollision, OutOfDomain
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
    ra = r ** weights.alpha
    rb = r ** weights.beta
    if chart.x_radial:
        return (chart.sign * ra, rb * w)
    return (ra * w, chart.sign * rb)


@dataclass(frozen=True)
class ChartField:
    chart: ChartId
    weights: Weights
    radial_var: str
    angular_var: str
    raw: "tuple[Poly, Poly]"  # (radial', angular') before division by radial^k
    desing: "tuple[Poly, Poly]"  # after exact division by radial^k
    divisor: str
    params: "tuple[Param, ...]" = ()

    def embed(self, point):
        return embed(self.chart, self.weights, point)

    def as_callable(self, bindings, desingularized: bool = True) -> Callable:
        """Float evaluator (r, w) -> (r', w') with parameters bound."""
        pair = self.desing if desingularized else self.raw
        polys = bind_components(pair, self.params, bindings)
        return float_evaluator(polys, (self.radial_var, self.angular_var))

    def pretty(self) -> str:
        r, w = self.radial_var, self.angular_var
        return (
            f"{self.chart}: {r}' = {self.raw[0]}, {w}' = {self.raw[1]} "
            f"(desingularized: {r}' = {self.desing[0]}, {w}' = {self.desing[1]})"
        )


def blow_up_in_chart(f: VectorField, w: Weights, chart: ChartId) -> ChartField:
    """Push f through the chart embedding and divide by radial^k.

    Requires verify_weights(f, w); the triangular solve and both divisions
    are exact, so a NotDivisible escape signals inconsistent weights.
    """
    if not verify_weights(f, w):
        raise ValueError(f"weights {w} do not verify on the field; cannot blow up")
    radial, angular, x_radial, sign = _CHART_INFO[chart]
    # a shared name would make the monomial map merge two exponents
    taken = set(f.f1.vars) | set(f.f2.vars) | set(f.param_names())
    for name in (radial, angular):
        if name in taken:
            raise NameCollision(f"chart variable '{name}' collides with a field variable")

    r = Poly.var(radial)
    wv = Poly.var(angular)
    sx, sy = f.state_vars
    alpha, beta, k = w.alpha, w.beta, w.k
    if x_radial:
        sub = {sx: sign * r**alpha, sy: (r**beta) * wv}
    else:
        sub = {sx: (r**alpha) * wv, sy: sign * r**beta}

    def push(poly):
        return poly.monomial_map({v: b for v, b in sub.items() if v in poly.vars})

    F1, F2 = push(f.f1), push(f.f2)
    if x_radial:
        # x' = sign*alpha*r^(alpha-1) * r'  and  y' = beta*r^(beta-1)*w*r' + r^beta*w'
        r_raw = (sign * F1).shift({radial: alpha - 1}, alpha)
        w_raw = (F2 - beta * (r ** (beta - 1)) * wv * r_raw).shift({radial: beta})
    else:
        r_raw = (sign * F2).shift({radial: beta - 1}, beta)
        w_raw = (F1 - alpha * (r ** (alpha - 1)) * wv * r_raw).shift({radial: alpha})

    order = tuple(p.name for p in f.params) + (radial, angular)
    r_raw = r_raw.reordered(order)
    w_raw = w_raw.reordered(order)
    desing = (r_raw.shift({radial: k}).reordered(order), w_raw.shift({radial: k}).reordered(order))
    return ChartField(
        chart=chart,
        weights=w,
        radial_var=radial,
        angular_var=angular,
        raw=(r_raw, w_raw),
        desing=desing,
        divisor=f"{radial} = 0",
        params=f.params,
    )


# -- transitions -------------------------------------------------------------------

def overlap_sign(frm: ChartId, to: ChartId) -> int:
    """Required sign of `frm`'s angular coordinate on its overlap with `to`;
    the point lands in `to` with the sign `frm.sign`."""
    if frm.x_radial == to.x_radial:
        raise OutOfDomain(f"charts {frm} and {to} do not overlap")
    return to.sign


# the overlapping pairs in ChartId order; seeded checks draw from it by index
OVERLAPS = tuple((a, b) for a in ChartId for b in ChartId if a.x_radial != b.x_radial)


def transition(point, frm: ChartId, to: ChartId, weights: Weights = Weights(1, 1, 1)):
    """Map a chart point to an overlapping chart.

    For unit weights the map is rational and computed exactly on rational
    input; for general weights it is evaluated in floats.  The formulas
    extend continuously to the divisor (radial = 0).
    """
    req = overlap_sign(frm, to)
    r, w = point
    if w == 0:
        raise OutOfDomain(f"{frm}->{to} is undefined where {_CHART_INFO[frm][1]} = 0")
    if (w > 0) != (req > 0):
        raise OutOfDomain(
            f"{frm}->{to} requires {_CHART_INFO[frm][1]} {'>' if req > 0 else '<'} 0"
        )
    exact = (
        weights.alpha == 1
        and weights.beta == 1
        and isinstance(r, (int, Fraction))
        and isinstance(w, (int, Fraction))
    )
    if exact:
        mag = abs(Fraction(w))
        return (Fraction(r) * mag, Fraction(frm.sign) / mag)
    alpha, beta = weights.alpha, weights.beta
    mag = abs(float(w))
    if frm.x_radial:
        r_exp, a_exp = 1.0 / beta, alpha / beta
    else:
        r_exp, a_exp = 1.0 / alpha, beta / alpha
    return (float(r) * mag**r_exp, frm.sign * mag**(-a_exp))


# -- compatibility of desingularized charts --------------------------------------------


def _laurent_substitute(p: Poly, subs: "dict[str, tuple[Poly, int]]", wvar: str):
    """Substitute var -> numerator / wvar^power; return (numerator, power)."""
    term_data = []
    max_den = 0
    for exps, c in p.terms.items():
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
    return total, max_den


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
