import math
import random
import struct
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desing import selfcheck
from desing.charts import (
    OVERLAPS,
    ChartField,
    ChartId,
    blow_up_in_chart,
    compatibility_defect,
    embed,
    overlap_sign,
    transition,
)
from desing.dsl import lower_to_polynomials, parse_field_spec
from desing.errors import NotDivisible, OutOfDomain
from desing.poly import Poly, poly_vars
from desing.selfcheck import (
    check_chart_pushforward,
    check_chart_pushforward_numeric,
    check_compatibility,
    check_rescaling,
    check_transition_roundtrip,
    demo_system,
    _random_quasihomogeneous,
)
from desing.vectorfield import Param, VectorField
from desing.weights import Weights, infer_weights

a = Poly.var("a")
F = demo_system()
W = Weights(1, 1, 1)


def _chart(chart):
    return blow_up_in_chart(F, W, chart)


def test_first_chart_golden():
    cf = _chart(ChartId.K1)
    r1, y1 = poly_vars("r1", "y1")
    assert cf.raw == (r1**2 * (a - 2 * y1), r1 * y1 * (3 * y1 - 2 * a))
    assert cf.desing == (r1 * (a - 2 * y1), y1 * (3 * y1 - 2 * a))
    assert cf.divisor == "r1 = 0"


def test_second_chart_derived():
    # independent oracle: for unit weights and index k the desingularized
    # second chart is (r * f2(w, 1), f1(w, 1) - w * f2(w, 1))
    cf = _chart(ChartId.K2)
    r2, x2 = poly_vars("r2", "x2")
    f1_w = F.f1.substitute({"x": x2, "y": Poly.const(1)})
    f2_w = F.f2.substitute({"x": x2, "y": Poly.const(1)})
    assert cf.desing == (r2 * f2_w, f1_w - x2 * f2_w)
    # frozen result of that oracle
    assert cf.desing == (r2 * (1 - a * x2), x2 * (2 * a * x2 - 3))


def test_negative_charts_derived():
    # oracles as for the second chart, with the sign substitutions of the
    # left/lower embeddings folded in by hand
    cf3 = _chart(ChartId.K3)
    r3, y3 = poly_vars("r3", "y3")
    assert cf3.raw == (-(r3**2) * (a + 2 * y3), r3 * y3 * (3 * y3 + 2 * a))
    assert cf3.desing == (-r3 * (a + 2 * y3), y3 * (3 * y3 + 2 * a))
    cf4 = _chart(ChartId.K4)
    r4, x4 = poly_vars("r4", "x4")
    assert cf4.raw == (-(r4**2) * (1 + a * x4), r4 * x4 * (2 * a * x4 + 3))
    assert cf4.desing == (-r4 * (1 + a * x4), x4 * (2 * a * x4 + 3))


def test_raw_is_radial_power_times_desing():
    rng = random.Random(5150)
    for _ in range(25):
        f, w = _random_quasihomogeneous(rng)
        for chart in ChartId:
            cf = blow_up_in_chart(f, w, chart)
            rk = Poly.var(cf.radial_var) ** w.k
            assert cf.raw[0] == rk * cf.desing[0]
            assert cf.raw[1] == rk * cf.desing[1]


def _reflected_desing(f, w, source: ChartId, target: ChartId):
    """t * R * desing_source(R p) over the target chart's variables, with
    R(r, w) = (-r, eps*w), eps the sign (-1)^(the other weight) and
    t = (-1)^k."""
    src, tgt = blow_up_in_chart(f, w, source), blow_up_in_chart(f, w, target)
    eps = (-1) ** (w.beta if source.x_radial else w.alpha)
    t = (-1) ** w.k
    images = {
        src.radial_var: -Poly.var(tgt.radial_var),
        src.angular_var: eps * Poly.var(tgt.angular_var),
    }
    g_r, g_w = (p.substitute({v: images[v] for v in p.vars if v in images}) for p in src.desing)
    return tgt.desing, (-t * g_r, t * eps * g_w)


def test_negative_charts_reflect_positive_ones_for_odd_radial_exponents():
    # K3's map is K1's after R when alpha is odd, K4's is K2's when beta is
    # odd; dividing by r^k adds the time factor (-1)^k
    rng = random.Random(2718)
    fields = [(F, W)] + [_random_quasihomogeneous(rng) for _ in range(60)]
    seen = set()
    for f, w in fields:
        for source, target, radial in (
            (ChartId.K1, ChartId.K3, w.alpha),
            (ChartId.K2, ChartId.K4, w.beta),
        ):
            if radial % 2:
                got, want = _reflected_desing(f, w, source, target)
                assert got == want, (f, w, target)
                seen.add((target, w.k % 2, (w.beta if target is ChartId.K3 else w.alpha) % 2))
    # both charts, k of both parities, eps of both signs
    assert {(c, k) for c, k, _ in seen} == {(c, k) for c in (ChartId.K3, ChartId.K4) for k in (0, 1)}
    assert {(c, e) for c, _, e in seen} == {(c, e) for c in (ChartId.K3, ChartId.K4) for e in (0, 1)}


def test_even_radial_exponent_does_not_reflect():
    # weighted_cubic.vf, type (2, 1): no real r gives x = -r^2, and the K1
    # map does not give K3, so K3 is computed directly
    x, y = poly_vars("x", "y")
    f, w = VectorField(x**2, y**3, ("x", "y")), Weights(2, 1, 2)
    got, want = _reflected_desing(f, w, ChartId.K1, ChartId.K3)
    assert got[0] != want[0] and got[1] != want[1]
    got, want = _reflected_desing(f, w, ChartId.K2, ChartId.K4)
    assert got == want


def test_zero_field_blow_up():
    zero = VectorField(Poly.zero(("x", "y")), Poly.zero(("x", "y")), ("x", "y"))
    cf = blow_up_in_chart(zero, Weights(1, 1, 0), ChartId.K1)
    assert cf.raw[0].is_zero() and cf.raw[1].is_zero()
    assert cf.desing[0].is_zero() and cf.desing[1].is_zero()


def test_bad_weights_rejected():
    with pytest.raises(NotDivisible):
        blow_up_in_chart(F, Weights(2, 1, 1), ChartId.K1)


def test_pushforward_identity_symbolic():
    res = check_chart_pushforward(F, W)
    assert res.passed, res.detail


def test_pushforward_identity_numeric_weighted():
    res = check_chart_pushforward_numeric(seed=11)
    assert res.passed, res.detail


def _halved_beta_over_alpha(f, w, chart):
    """The chart field with the (beta/alpha)*s*w*g term of Q halved:
    (beta/alpha)*s*w*g is beta*w*P, so half of it is added back to Q."""
    cf = blow_up_in_chart(f, w, chart)
    r, angular = Poly.var(cf.radial_var), Poly.var(cf.angular_var)
    p = cf.desing[0].shift({cf.radial_var: 1})
    q = cf.desing[1] + Fraction(w.beta, 2) * angular * p
    assert r * p == cf.desing[0] and not (q - cf.desing[1]).is_zero()
    return replace(cf, desing=(cf.desing[0], q.reordered(cf.desing[1].vars)))


@pytest.mark.parametrize("source", ["demo", "weighted_cubic.vf"])
def test_rescaling_check_fails_on_a_halved_beta_over_alpha(source, monkeypatch):
    # the undivided field is derived from the desingularized one, so only a
    # comparison with f itself can see a wrong chart field
    if source == "demo":
        f, bindings = F, {"a": Fraction(1)}
    else:
        text = (Path(__file__).resolve().parents[1] / "inputs" / source).read_text(encoding="utf-8")
        f, bindings = lower_to_polynomials(parse_field_spec(text)), {}
    w = infer_weights(f)
    assert check_rescaling(f, w, bindings, seed=11).passed
    monkeypatch.setattr(selfcheck, "blow_up_in_chart", _halved_beta_over_alpha)
    res = check_rescaling(f, w, bindings, seed=11)
    assert not res.passed
    assert res.name == "raw-vs-desing-rescaling" and "relative defect" in res.detail


def test_embed():
    cf = _chart(ChartId.K3)
    assert embed(cf.chart, cf.weights, (Fraction(2), Fraction(1, 2))) == (-2, 1)
    cfw = blow_up_in_chart(VectorField(Poly.var("x") ** 2, Poly.var("y") ** 3, ("x", "y")), Weights(2, 1, 2), ChartId.K1)
    assert embed(cfw.chart, cfw.weights, (Fraction(3), Fraction(5))) == (9, 15)


def _embed_written_out(chart, weights, point):
    r, w = point
    ra = r ** weights.alpha
    rb = r ** weights.beta
    if chart.x_radial:
        return (chart.sign * ra, rb * w)
    return (ra * w, chart.sign * rb)


@pytest.mark.parametrize(
    "src, weights",
    [
        ("var x y; dx/dt = x^2; dy/dt = y^2;", Weights(1, 1, 1)),
        ("var x y; dx/dt = x^2; dy/dt = y^3;", Weights(2, 1, 2)),
        ("var x y; dx/dt = x^3; dy/dt = y^2;", Weights(1, 2, 2)),
    ],
    ids=["1-1", "2-1", "1-2"],
)
@pytest.mark.parametrize("chart", list(ChartId))
def test_embed_matches_written_out_bit_for_bit(src, weights, chart):
    cf = blow_up_in_chart(lower_to_polynomials(parse_field_spec(src)), weights, chart)
    rng = random.Random(f"{chart}-{weights}")
    points = [(0.0, 0.0), (0.0, -0.0), (1e-200, -0.0), (5e-324, 3.0), (1e100, -1e200), (-0.25, 7.5)]
    points += [(rng.uniform(0, 3), rng.uniform(-5, 5)) for _ in range(300)]
    points += [(math.ldexp(rng.random(), rng.randint(-300, 300)), rng.gauss(0, 1)) for _ in range(300)]

    def bits(pts):
        return [struct.pack("<dd", *p) for p in pts]

    embedded = [embed(cf.chart, cf.weights, p) for p in points]
    assert bits(embedded) == bits([_embed_written_out(chart, weights, p) for p in points])
    rational = [(Fraction(3, 2), Fraction(-4, 5)), (Fraction(0), Fraction(7))]
    assert [embed(chart, weights, p) for p in rational] == [_embed_written_out(chart, weights, p) for p in rational]


# -- transitions ------------------------------------------------------------------


def test_transition_example():
    # both (2, 1/2) in K1 and (1, 2) in K2 embed to the plane point (2, 1)
    assert embed(ChartId.K1, W, (2, Fraction(1, 2))) == (2, 1)
    assert embed(ChartId.K2, W, (1, 2)) == (2, 1)
    assert transition((2, Fraction(1, 2)), ChartId.K1, ChartId.K2) == (1, 2)


def test_transition_divisor_point():
    assert transition((0, 1), ChartId.K1, ChartId.K2) == (0, 1)


def test_transition_roundtrip_example():
    once = transition((3, 2), ChartId.K1, ChartId.K2)
    assert transition(once, ChartId.K2, ChartId.K1) == (3, 2)


def test_transition_out_of_domain():
    with pytest.raises(OutOfDomain):
        transition((1, 0), ChartId.K1, ChartId.K2)
    with pytest.raises(OutOfDomain):
        transition((1, -1), ChartId.K1, ChartId.K2)
    with pytest.raises(OutOfDomain):
        transition((1, 1), ChartId.K1, ChartId.K3)


def test_transition_matches_embeddings():
    # whenever both charts see the point, both embeddings agree
    cases = [
        (ChartId.K1, ChartId.K2, (Fraction(3, 2), Fraction(4, 5))),
        (ChartId.K1, ChartId.K4, (Fraction(2), Fraction(-1, 3))),
        (ChartId.K2, ChartId.K3, (Fraction(1, 2), Fraction(-5, 2))),
        (ChartId.K3, ChartId.K4, (Fraction(1), Fraction(-2))),
        (ChartId.K4, ChartId.K3, (Fraction(3), Fraction(-1, 4))),
    ]
    for frm, to, point in cases:
        mapped = transition(point, frm, to)
        assert embed(frm, W, point) == embed(to, W, mapped)


def test_transition_roundtrip_random():
    res = check_transition_roundtrip(seed=77)
    assert res.passed, res.detail


# -- compatibility ------------------------------------------------------------------


def test_compatibility_defect_vanishes():
    defect = compatibility_defect(F, W, ChartId.K1, ChartId.K2)
    assert defect[0].is_zero() and defect[1].is_zero()


def test_compatibility_all_adjacent_pairs():
    res = check_compatibility(F, W)
    assert res.passed, res.detail


def test_compatibility_defect_zero_field():
    zero = VectorField(Poly.zero(("x", "y")), Poly.zero(("x", "y")), ("x", "y"))
    defect = compatibility_defect(zero, Weights(1, 1, 0), ChartId.K1, ChartId.K2)
    assert defect[0].is_zero() and defect[1].is_zero()


def test_compatibility_detects_published_variant():
    # the published second-chart angular component x2*(2*a*r2 - 3) is not
    # compatible with the first chart; the defect must be nonzero
    r2, x2 = poly_vars("r2", "x2")
    published = (r2 * (1 - a * x2), x2 * (2 * a * r2 - 3))
    defect = compatibility_defect(F, W, ChartId.K1, ChartId.K2, desing_to=published)
    assert not (defect[0].is_zero() and defect[1].is_zero())


def test_compatibility_requires_unit_weights():
    f = VectorField(Poly.var("x") ** 2, Poly.var("y") ** 3, ("x", "y"))
    with pytest.raises(ValueError):
        compatibility_defect(f, Weights(2, 1, 2), ChartId.K1, ChartId.K2)


# -- the conventions read off the chart table -----------------------------------------

K1, K2, K3, K4 = ChartId
# required sign of the source angular coordinate on each overlap, in the
# order the seeded transition round trip draws from
SOURCE_SIGN = {
    (K1, K2): 1, (K1, K4): -1, (K2, K1): 1, (K2, K3): -1,
    (K3, K2): 1, (K3, K4): -1, (K4, K1): 1, (K4, K3): -1,
}
# sign of the angular coordinate after landing in the target chart
TARGET_SIGN = {
    (K1, K2): 1, (K1, K4): 1, (K2, K1): 1, (K2, K3): 1,
    (K3, K2): -1, (K3, K4): -1, (K4, K1): -1, (K4, K3): -1,
}
# +1 where the angle on the circle increases with the chart's angular coordinate
ORIENT = {K1: 1, K2: -1, K3: -1, K4: 1}
# the four overlap halves, one open quadrant each, in circle order
HALVES = ((K1, K2), (K2, K3), (K3, K4), (K4, K1))


def test_overlap_signs_derived():
    for (frm, to), sign in SOURCE_SIGN.items():
        assert overlap_sign(frm, to) == sign
        assert frm.sign == TARGET_SIGN[frm, to]
    assert OVERLAPS == tuple(SOURCE_SIGN)  # order included
    for frm in ChartId:
        for to in ChartId:
            if (frm, to) not in SOURCE_SIGN:
                with pytest.raises(OutOfDomain):
                    overlap_sign(frm, to)


def test_orientation_and_halves_derived():
    from desing.equilibria import _HALVES

    assert {c: c.orientation for c in ChartId} == ORIENT
    assert _HALVES == HALVES


# -- the closed form against the general pushforward ---------------------------------


def _blow_up_general(f: VectorField, w: Weights, chart: ChartId):
    """(raw, desing) by the general route the closed form replaced: push f
    through the embedding with `substitute`, solve the triangular system
    for (r', w') with `shift`, and divide by r^k."""
    probe = ChartField(chart, w, ())
    radial, angular = probe.radial_var, probe.angular_var
    x_radial, sign = chart.x_radial, chart.sign
    r = Poly.var(radial)
    wv = Poly.var(angular)
    sx, sy = f.state_vars
    alpha, beta, k = w.alpha, w.beta, w.k
    if x_radial:
        sub = {sx: sign * r**alpha, sy: (r**beta) * wv}
    else:
        sub = {sx: (r**alpha) * wv, sy: sign * r**beta}

    def push(poly):
        return poly.substitute({v: b for v, b in sub.items() if v in poly.vars})

    F1, F2 = push(f.f1), push(f.f2)
    if x_radial:
        r_raw = (sign * F1).shift({radial: alpha - 1}, alpha)
        w_raw = (F2 - beta * (r ** (beta - 1)) * wv * r_raw).shift({radial: beta})
    else:
        r_raw = (sign * F2).shift({radial: beta - 1}, beta)
        w_raw = (F1 - alpha * (r ** (alpha - 1)) * wv * r_raw).shift({radial: alpha})

    order = tuple(p.name for p in f.params) + (radial, angular)
    r_raw = r_raw.reordered(order)
    w_raw = w_raw.reordered(order)
    desing = (r_raw.shift({radial: k}).reordered(order), w_raw.shift({radial: k}).reordered(order))
    return (r_raw, w_raw), desing


_TYPES = ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3))
_STATE_NAMES = (("x", "y"), ("u", "v"), ("y", "x"))


@st.composite
def _weighted_fields(draw):
    """A field that verifies (alpha, beta, k), its components over either
    the parameters then the state variables or a shuffle of them."""
    alpha, beta = draw(st.sampled_from(_TYPES))
    k = draw(st.integers(0, 6))
    params = ("a", "b")[: draw(st.integers(0, 2))]
    sx, sy = draw(st.sampled_from(_STATE_NAMES))
    order = params + (sx, sy)
    if draw(st.booleans()):
        order = tuple(draw(st.permutations(order)))

    def component(total):
        monomials = [
            (m, n) for m in range(total // alpha + 1) for n in range(total // beta + 1)
            if alpha * m + beta * n == total
        ]
        terms = {}
        for m, n in draw(st.lists(st.sampled_from(monomials), max_size=5)) if monomials else ():
            exps = {p: draw(st.integers(0, 2)) for p in params}
            exps.update({sx: m, sy: n})
            c = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
            terms[tuple(exps[v] for v in order)] = c
        return Poly(order, terms)

    f = VectorField(
        component(alpha + k), component(beta + k), (sx, sy), tuple(Param(p) for p in params)
    )
    return f, Weights(alpha, beta, k), order == params + (sx, sy)


def _identical(p: Poly, q: Poly) -> bool:
    return p.vars == q.vars and list(p.terms.items()) == list(q.terms.items())


@settings(max_examples=300, deadline=None)
@given(_weighted_fields())
def test_closed_form_matches_general_pushforward(case):
    # desing is identical in variables and term order; so is raw for
    # components over the parameters then the state variables, the order
    # `lower_to_polynomials` gives; otherwise raw's terms may be summed in
    # another order, and it is the same polynomial
    f, w, params_first = case
    for chart in ChartId:
        cf = blow_up_in_chart(f, w, chart)
        raw, desing = _blow_up_general(f, w, chart)
        assert all(_identical(p, q) for p, q in zip(cf.desing, desing))
        if params_first:
            assert all(_identical(p, q) for p, q in zip(cf.raw, raw))
        assert cf.raw == raw
