import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from desing.charts import ChartField, ChartId, blow_up_in_chart, transition
from desing.cli import main
from desing.dsl import lower_to_polynomials, parse_field_spec
from desing.equilibria import (
    CLASS_NON_HYPERBOLIC,
    CLASS_SADDLE,
    CLASS_STABLE_NODE,
    CLASS_UNSTABLE_NODE,
    MODEL_HYPERBOLIC_X,
    MODEL_HYPERBOLIC_Y,
    Equilibrium,
    classify_exact,
    divisor_angle,
    divisor_equilibria,
    _owned_points,
    _reflected_equilibria,
    _reflection,
    _sqrt_float,
    global_divisor_report,
)
from desing.errors import DegenerateChart, DesingError, UnboundParameter
from desing.poly import Poly, poly_vars
from desing.selfcheck import (
    _random_quasihomogeneous,
    check_bridge_conjugacy,
    check_global_counts,
    demo_system,
)
from desing.vectorfield import Param, VectorField
from desing.weights import Weights, infer_weights

F = demo_system()
W = Weights(1, 1, 1)
A1 = {"a": Fraction(1)}


def test_first_chart_equilibria_exact():
    cf = blow_up_in_chart(F, W, ChartId.K1)
    eqs = divisor_equilibria(cf, A1)
    assert [(e.coords[0], e.coords[1]) for e in eqs] == [(0, Fraction(0)), (0, Fraction(2, 3))]
    e0, e1 = eqs
    assert e0.eigenvalues_exact == (Fraction(-2), Fraction(1))
    assert e1.eigenvalues_exact == (Fraction(-1, 3), Fraction(2))
    assert e0.classification == CLASS_SADDLE
    assert e1.classification == CLASS_SADDLE
    # the Jacobian is triangular on the divisor; frozen from differentiating
    # the desingularized first-chart field by hand: [[a-2w, -2r], [0, 6w-2a]]
    assert e0.jacobian == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-2)))
    assert e1.jacobian == ((Fraction(-1, 3), Fraction(0)), (Fraction(0), Fraction(2)))


def test_second_chart_equilibria_exact():
    cf = blow_up_in_chart(F, W, ChartId.K2)
    eqs = divisor_equilibria(cf, A1)
    assert [e.coords[1] for e in eqs] == [Fraction(0), Fraction(3, 2)]
    assert eqs[0].eigenvalues_exact == (Fraction(-3), Fraction(1))
    assert eqs[1].eigenvalues_exact == (Fraction(-1, 2), Fraction(3))
    assert all(e.classification == CLASS_SADDLE for e in eqs)


def test_jacobian_against_finite_differences():
    cf = blow_up_in_chart(F, W, ChartId.K1)
    eqs = divisor_equilibria(cf, A1)
    field = cf.as_callable(A1)
    h = 1e-6
    for eq in eqs:
        r0, w0 = eq.coords_float
        fd = [
            [
                (field(r0 + h, w0)[i] - field(r0 - h, w0)[i]) / (2 * h),
                (field(r0, w0 + h)[i] - field(r0, w0 - h)[i]) / (2 * h),
            ]
            for i in range(2)
        ]
        for i in range(2):
            for j in range(2):
                assert abs(float(eq.jacobian[i][j]) - fd[i][j]) < 1e-8


def test_eigenvalues_against_characteristic_polynomial():
    cf = blow_up_in_chart(F, W, ChartId.K1)
    for eq in divisor_equilibria(cf, A1):
        (j00, j01), (j10, j11) = eq.jacobian
        for lam in eq.eigenvalues_exact:
            char = lam * lam - (j00 + j11) * lam + (j00 * j11 - j01 * j10)
            assert char == 0


def test_float_eigenvalues_agree_with_exact():
    for chart in ChartId:
        cf = blow_up_in_chart(F, W, chart)
        for eq in divisor_equilibria(cf, A1):
            assert eq.eigenvalues_exact is not None  # triangular rational Jacobians
            floats = sorted(z.real for z in eq.eigenvalues)
            exacts = sorted(float(v) for v in eq.eigenvalues_exact)
            assert floats == pytest.approx(exacts, rel=1e-14)
            assert all(z.imag == 0 for z in eq.eigenvalues)


@pytest.mark.parametrize(
    "jac, small",
    [((10**9, Fraction(3, 10**9)), 3e-9), ((10**9, Fraction(1, 10**9)), 1e-9)],
)
def test_node_eigenvalues_do_not_cancel(jac, small):
    # det is tiny against tr^2, where (tr - sqrt(disc)) / 2 would round to 0
    a, d = jac
    assert classify_exact(a, d) == CLASS_UNSTABLE_NODE
    zero = Fraction(0)
    eq = Equilibrium("K1", (zero, zero), True, (a, d), CLASS_UNSTABLE_NODE, 0.0)
    assert eq.eigenvalues_exact == (d, a)
    assert eq.eigenvalues == (small, 1e9)
    assert [z.imag for z in eq.eigenvalues] == [0.0, 0.0]


def test_non_hyperbolic_point_is_flagged_in_report():
    # f = (x^3, x^2*y + y^3) is type (1, 1) with index 2; on the divisor the
    # first chart's angular component is w^3, a triple root at 0
    x, y = poly_vars("x", "y")
    f = VectorField(x**3, x**2 * y + y**3, ("x", "y"))
    w = infer_weights(f)
    assert (w.alpha, w.beta, w.k) == (1, 1, 2)
    report = global_divisor_report(f, w, {})
    assert any(m.classification == CLASS_NON_HYPERBOLIC for m in report.equilibria)
    assert any("non-hyperbolic" in note for note in report.notes)


def test_forced_double_root_non_hyperbolic():
    r1, y1 = poly_vars("r1", "y1")
    cf = ChartField(chart=ChartId.K1, weights=W, desing=(r1, y1**2))
    eqs = divisor_equilibria(cf, {})
    assert len(eqs) == 1
    assert eqs[0].classification == CLASS_NON_HYPERBOLIC
    assert eqs[0].eigenvalues_exact == (Fraction(0), Fraction(1))


def test_degenerate_chart_raises():
    # x' = x*(x+y), y' = y*(x+y) is radial: in K1, Q(w) = w*(1+w) - w*(1+w) = 0
    x, y = poly_vars("x", "y")
    f = VectorField(x * (x + y), y * (x + y), ("x", "y"))
    cf = blow_up_in_chart(f, infer_weights(f), ChartId.K1)
    assert cf.desing[1].is_zero()
    with pytest.raises(DegenerateChart):
        divisor_equilibria(cf, {})


def test_unbound_parameter():
    cf = blow_up_in_chart(F, W, ChartId.K1)
    with pytest.raises(UnboundParameter):
        divisor_equilibria(cf, {})


def test_sign_constraint_enforced():
    cf = blow_up_in_chart(F, W, ChartId.K1)
    with pytest.raises(DesingError):
        divisor_equilibria(cf, {"a": Fraction(-1)})


def test_interval_classification_weighted_example():
    x, y = poly_vars("x", "y")
    f = VectorField(x**2, y**3, ("x", "y"))
    w = infer_weights(f)
    cf = blow_up_in_chart(f, w, ChartId.K1)
    eqs = divisor_equilibria(cf, {})
    # divisor restriction is w^3 - w/2: roots 0, +-1/sqrt(2)
    assert len(eqs) == 3
    mid = eqs[1]
    assert mid.exact and mid.coords[1] == 0
    outer = [e for e in eqs if not e.exact]
    assert len(outer) == 2
    for e in outer:
        assert e.classification == CLASS_UNSTABLE_NODE
        assert abs(abs(e.coords_float[1]) - 1 / math.sqrt(2)) < 1e-11
        lo, hi = e.interval
        assert hi - lo < Fraction(1, 10**12)


def test_irrational_double_root_certified_non_hyperbolic():
    # angular restriction (w^2 - 2)^2: double roots at +-sqrt(2), where the
    # angular eigenvalue is exactly zero; the interval classifier must refine,
    # never decide a sign, and fall back to non-hyperbolic
    r1, y1 = poly_vars("r1", "y1")
    quartic = (y1**2 - 2) ** 2
    cf = ChartField(chart=ChartId.K1, weights=W, desing=(r1, quartic))
    eqs = divisor_equilibria(cf, {})
    assert len(eqs) == 2
    for eq in eqs:
        assert not eq.exact
        assert eq.classification == CLASS_NON_HYPERBOLIC


def test_vanishing_discriminant_at_an_irrational_root_is_a_node():
    # f = (2xy, 3y^2 - 2x^2) blows up in K1 to r' = 2w*r, w' = w^2 - 2: at
    # -+sqrt(2) both diagonal entries are -+2 sqrt(2), a repeated eigenvalue
    x, y = poly_vars("x", "y")
    f = VectorField(2 * x * y, 3 * y**2 - 2 * x**2, ("x", "y"))
    eqs = divisor_equilibria(blow_up_in_chart(f, W, ChartId.K1), {})
    assert [e.exact for e in eqs] == [False, False]
    assert [e.classification for e in eqs] == [CLASS_STABLE_NODE, CLASS_UNSTABLE_NODE]
    for e, sign in zip(eqs, (-1, 1)):
        low, high = e.eigenvalues
        assert low == high and low.imag == 0
        assert low.real == pytest.approx(sign * 2 * math.sqrt(2), rel=1e-10)


small_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=3)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from((2, 3, 5)),
    small_polys,
    small_polys,
    st.sampled_from(("free", "radial-zero", "double-root", "repeated")),
)
def test_classification_matches_sympy_signs_at_roots(k, g, m, plant):
    # f = (x^n P(y/x), x^n D(y/x)) blows up in K1 to r' = r*P(w) and
    # w' = Q(w) = D(w) - w*P(w), with the Jacobian diag(P, Q') on the
    # divisor.  Q = (w^2 - k)*G has the irrational roots -+sqrt(k), where
    # the planted cases make P vanish, make the roots double roots of Q, or
    # make P = Q', a repeated eigenvalue.
    sympy = pytest.importorskip("sympy")
    w = sympy.Symbol("w")

    def poly(cs):
        return sum(coef * w**i for i, coef in enumerate(cs))

    q = sympy.expand((w**2 - k) ** (2 if plant == "double-root" else 1) * poly(g))
    assume(q != 0)
    dq = sympy.diff(q, w)
    p = sympy.expand(
        (w**2 - k) * poly(m) if plant == "radial-zero"
        else dq + (w**2 - k) * poly(m) if plant == "repeated"
        else poly(m)
    )

    def coefficients(expr):
        return [int(c) for c in sympy.Poly(expr, w).all_coeffs()[::-1]] if expr != 0 else []

    p_cs, d_cs = coefficients(p), coefficients(sympy.expand(q + w * p))
    n = max(len(p_cs), len(d_cs)) - 1
    x, y = poly_vars("x", "y")

    def homogeneous(cs):
        return sum((c * x ** (n - i) * y**i for i, c in enumerate(cs)), Poly.zero(("x", "y")))

    f = VectorField(homogeneous(p_cs), homogeneous(d_cs), ("x", "y"))
    eqs = divisor_equilibria(blow_up_in_chart(f, Weights(1, 1, n - 1), ChartId.K1), {})

    def sign_at(expr, root):
        if expr == 0 or sympy.rem(expr, sympy.minimal_polynomial(root, w), w) == 0:
            return 0
        return int(sympy.sign(expr.subs(w, root).evalf(50)))

    roots = sorted(set(sympy.Poly(q, w).real_roots(radicals=False)), key=lambda r: r.evalf(50))
    assert len(eqs) == len(roots)
    assert sum(not e.exact for e in eqs) >= 2
    for eq, root in zip(eqs, roots):
        sa, sd = sign_at(p, root), sign_at(dq, root)
        if sa * sd < 0:
            want = CLASS_SADDLE
        elif sa * sd == 0:
            want = CLASS_NON_HYPERBOLIC
        else:
            want = CLASS_STABLE_NODE if sa < 0 else CLASS_UNSTABLE_NODE
        assert eq.classification == want
        (a, _), (_, d) = eq.jacobian
        assert (a == 0, d == 0) == (sa == 0, sd == 0)
        assert eq.eigenvalues == tuple(complex(v) for v in sorted((float(a), float(d))))


def test_repeated_exact_eigenvalue_is_not_a_complex_pair(tmp_path, capsys):
    # K1's point w = 0 has the exact Jacobian diag(1/19, 1/19); a float
    # tr^2 - 4*det rounds below 0 there and once printed a complex pair
    src = "var x y; dx/dt = 1/19*x^3 + x*y^2; dy/dt = 2/19*x^2*y;"
    f = lower_to_polynomials(parse_field_spec(src))
    report = global_divisor_report(f, infer_weights(f), {})
    (member,) = [e for m in report.equilibria for e in m.members if e.chart == "K1" and e.coords[1] == 0]
    assert member.classification == CLASS_UNSTABLE_NODE
    assert member.eigenvalues == (complex(1 / 19), complex(1 / 19))
    assert [z.imag for z in member.eigenvalues] == [0.0, 0.0]
    path = tmp_path / "nineteen.vf"
    path.write_text(src)
    assert main(["analyze", str(path)]) == 0
    assert "K1: coords (0, 0); eigenvalues 0.0526315789474, 0.0526315789474 (exact: 1/19, 1/19)" in (
        capsys.readouterr().out
    )



def test_hyperbolic_wing_without_equilibria():
    # K1 angular restriction 1 + w^2 has no real roots, so the x-wing is empty
    x, y = poly_vars("x", "y")
    f = VectorField(x**3, x**3 + x**2 * y + x * y**2, ("x", "y"))
    w = infer_weights(f)
    rep = global_divisor_report(f, w, {}, model=MODEL_HYPERBOLIC_X)
    assert rep.equilibria == []
    assert len(rep.flow) == 1
    assert rep.flow[0].start is None and rep.flow[0].end is None


def test_divisor_angle_convention():
    assert divisor_angle(ChartId.K1, 0.0, W) == pytest.approx(0.0)
    assert divisor_angle(ChartId.K1, 2 / 3, W) == pytest.approx(math.atan2(2 / 3, 1))
    assert divisor_angle(ChartId.K2, 0.0, W) == pytest.approx(math.pi / 2)
    assert divisor_angle(ChartId.K3, 0.0, W) == pytest.approx(math.pi)
    assert divisor_angle(ChartId.K3, -2 / 3, W) == pytest.approx(math.pi + math.atan(2 / 3))
    assert divisor_angle(ChartId.K4, 0.0, W) == pytest.approx(3 * math.pi / 2)


def test_global_report_reference_angles():
    report = global_divisor_report(F, W, A1)
    assert len(report.equilibria) == 6
    expected = [
        0.0,
        math.atan(2 / 3),
        math.pi / 2,
        math.pi,
        math.pi + math.atan(2 / 3),
        3 * math.pi / 2,
    ]
    for merged, want in zip(report.equilibria, expected):
        assert abs(merged.angle - want) < 1e-9
        assert merged.classification == CLASS_SADDLE
    # the oblique equilibria are seen by two charts each
    assert len(report.equilibria[1].members) == 2
    assert len(report.equilibria[4].members) == 2
    assert report.flow and len(report.flow) == 6
    assert all(arc.sign in (-1, 1) for arc in report.flow)


def test_global_counts_across_parameters():
    res = check_global_counts(F, W)
    assert res.passed, res.detail


def test_chart_consistency_through_transition():
    cf1 = blow_up_in_chart(F, W, ChartId.K1)
    cf2 = blow_up_in_chart(F, W, ChartId.K2)
    eqs1 = divisor_equilibria(cf1, A1)
    eqs2 = divisor_equilibria(cf2, A1)
    moved = transition(eqs1[1].coords, ChartId.K1, ChartId.K2)
    match = [e for e in eqs2 if abs(float(e.coords[1]) - float(moved[1])) < 1e-12]
    assert len(match) == 1
    assert match[0].classification == eqs1[1].classification
    assert float(moved[0]) == pytest.approx(0.0, abs=1e-12)


def test_hyperbolic_x_counts_and_classes():
    rep1 = global_divisor_report(F, W, A1, model=MODEL_HYPERBOLIC_X)
    assert len(rep1.equilibria) == 2
    phis = [m.angle for m in rep1.equilibria]
    assert phis[0] == pytest.approx(0.0)
    assert phis[1] == pytest.approx(math.atanh(2 / 3))
    assert all(m.classification == CLASS_SADDLE for m in rep1.equilibria)
    rep2 = global_divisor_report(F, W, {"a": Fraction(2)}, model=MODEL_HYPERBOLIC_X)
    assert len(rep2.equilibria) == 1
    # boundary case: at a = 3/2 the second root sits at tanh(phi) = 1, off the wing
    rep3 = global_divisor_report(F, W, {"a": Fraction(3, 2)}, model=MODEL_HYPERBOLIC_X)
    assert len(rep3.equilibria) == 1


def test_hyperbolic_eigenvalues_scale_by_cosh():
    rep = global_divisor_report(F, W, A1, model=MODEL_HYPERBOLIC_X)
    second = rep.equilibria[1].members[0]
    cosh_phi = math.cosh(math.atanh(2 / 3))
    got = sorted(z.real for z in second.eigenvalues)
    want = sorted((cosh_phi * -1 / 3, cosh_phi * 2))
    assert got == pytest.approx(want, rel=1e-12)
    # axis equilibrium is exact: eigenvalues {-2a, a}
    first = rep.equilibria[0].members[0]
    assert first.eigenvalues_exact == (Fraction(-2), Fraction(1))


def test_hyperbolic_y_complements_x():
    # on the y-wing the second equilibrium exists exactly when a > 3/2
    repa = global_divisor_report(F, W, A1, model=MODEL_HYPERBOLIC_Y)
    assert len(repa.equilibria) == 1
    repb = global_divisor_report(F, W, {"a": Fraction(2)}, model=MODEL_HYPERBOLIC_Y)
    assert len(repb.equilibria) == 2


# x' = x^3, y' = y^3 - x*y^2/2 + 2*x^2*y/3 + x^3/6: unit weights with k = 2; the
# x-wing holds the rational root 1/2 of K1's divisor polynomial and the
# enclosed roots -+1/sqrt(3), the y-wing the axis point
_x, _y = poly_vars("x", "y")
CUBIC_WING_FIELD = VectorField(
    _x**3,
    _y**3 - Fraction(1, 2) * _x * _y**2 + Fraction(2, 3) * _x**2 * _y + Fraction(1, 6) * _x**3,
    ("x", "y"),
)
_WING_CASES = {
    f"quadratic-a{a.replace('/', '_')}-{model}": (F, {"a": Fraction(a)}, model)
    for a in ("1", "7/10", "2")
    for model in (MODEL_HYPERBOLIC_X, MODEL_HYPERBOLIC_Y)
} | {f"cubic-{model}": (CUBIC_WING_FIELD, {}, model) for model in (MODEL_HYPERBOLIC_X, MODEL_HYPERBOLIC_Y)}


def _sympy_of(sympy, poly, subs):
    expr = sympy.Integer(0)
    for exps, coef in poly.terms.items():
        term = sympy.Rational(coef.numerator, coef.denominator)
        for name, e in zip(poly.vars, exps):
            term *= subs[name] ** e
        expr += term
    return expr


@pytest.mark.parametrize("f, bindings, model", _WING_CASES.values(), ids=_WING_CASES.keys())
def test_wing_linearization_matches_sympy(f, bindings, model):
    # The reference differentiates the desingularized hyperbolic field itself
    # (c = cosh(phi), s = sinh(phi)) at phi = atanh(w), rho = 0, to 30 digits,
    # for every chart root w inside the wing.
    sympy = pytest.importorskip("sympy")
    phi, rho, w = sympy.symbols("phi rho w")
    report = global_divisor_report(f, infer_weights(f), bindings, model=model)
    params = {k: sympy.Rational(v.numerator, v.denominator) for k, v in report.bindings.items()}
    hh = report.polar_desing
    subs = {"c": sympy.cosh(phi), "s": sympy.sinh(phi), "r": rho, **params}
    ang, rad = (_sympy_of(sympy, q.base, subs) for q in (hh.angular, hh.radial))
    (cf,) = report.chart_fields.values()
    on_divisor = _sympy_of(sympy, cf.desing[1], {cf.radial_var: 0, cf.angular_var: w, **params})
    roots = [z for z in sympy.Poly(on_divisor, w).real_roots() if -1 < z < 1]
    roots = sorted(set(roots), key=lambda z: z.evalf(50))
    assert len(report.equilibria) == len(roots)
    for merged, root in zip(report.equilibria, roots):
        (member,) = merged.members
        at = {phi: sympy.atanh(root), rho: 0}
        jac = [[sympy.diff(g, v).subs(at).evalf(30) for v in (phi, rho)] for g in (ang, rad)]
        tr, det = jac[0][0] + jac[1][1], jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
        disc = tr * tr - 4 * det
        assert disc >= 0
        eig = sorted(((tr - sympy.sqrt(disc)) / 2, (tr + sympy.sqrt(disc)) / 2))
        got = [float(x) for row in member.jacobian for x in row]
        got += [z.real for z in member.eigenvalues]
        assert all(z.imag == 0 for z in member.eigenvalues)
        for value, ref in zip(got, [x for row in jac for x in row] + eig):
            if root.is_Rational:
                assert abs(value - ref) <= 2 * math.ulp(float(ref)), (value, ref)
            else:
                assert abs(value - ref) <= 1e-10 * abs(ref), (value, ref)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**40), st.integers(1, 10**40), st.integers(-1900, 2200))
@example(128, 9726375, 0)  # the truncated 64-bit root sits on a halfway point
def test_sqrt_float_is_rounded_once(n, d, e):
    # results from about 2^-1017 up to beyond the float range
    q = Fraction(n, d) * Fraction(2) ** e
    with localcontext() as ctx:
        ctx.prec = 1000
        ref = (Decimal(q.numerator) / Decimal(q.denominator)).sqrt()
    if ref > Decimal(sys.float_info.max):
        with pytest.raises(OverflowError):
            _sqrt_float(q)
        return
    want = float(ref)
    assert abs(_sqrt_float(q) - want) <= math.ulp(want) / 2


def test_bridge_conjugacy_scales_by_cosh_to_the_k():
    # with k = 2 the desingularized wing field is the chart field times cosh(phi)^2
    w = infer_weights(CUBIC_WING_FIELD)
    assert w.k == 2
    res = check_bridge_conjugacy(CUBIC_WING_FIELD, w, {}, seed=0)
    assert res.passed, res.detail


def test_near_one_wing_eigenvalue_is_cosh_times_chart():
    # w = 1 - 10^-17 rounds to 1.0 in floats; the chart eigenvalue there is w,
    # so the wing eigenvalue is w*cosh(phi) = w/sqrt(1 - w^2), about 2.236e8
    f = _dy_only(lambda x, y: y**2 - Fraction(10**17 - 1, 10**17) * x * y)
    report = global_divisor_report(f, infer_weights(f), {}, model=MODEL_HYPERBOLIC_X)
    second = report.equilibria[1].members[0]
    with localcontext() as ctx:
        ctx.prec = 50
        wd = 1 - Decimal(10) ** -17
        cosh_phi = float(1 / (1 - wd * wd).sqrt())
    assert cosh_phi == pytest.approx(2.2360679775e8)
    zero, big = (z.real for z in second.eigenvalues)
    assert zero == 0
    assert big == pytest.approx(cosh_phi, rel=1e-9)


def test_classification_invariant_under_rescaling():
    # eigenvalues differ chart to chart by the positive transition rescaling,
    # the classification does not
    report = global_divisor_report(F, W, A1)
    for merged in report.equilibria:
        kinds = {e.classification for e in merged.members}
        assert len(kinds) == 1


def test_classify_exact_table():
    Fr = Fraction
    assert classify_exact(Fr(1), Fr(-2)) == CLASS_SADDLE
    assert classify_exact(Fr(2), Fr(1)) == CLASS_UNSTABLE_NODE
    assert classify_exact(Fr(-2), Fr(-1)) == "hyperbolic-stable-node"
    assert classify_exact(Fr(0), Fr(0)) == CLASS_NON_HYPERBOLIC
    assert classify_exact(Fr(1), Fr(0)) == CLASS_NON_HYPERBOLIC


_CLASS_BY_SIGNS = {
    (-1, -1): CLASS_STABLE_NODE,
    (-1, 0): CLASS_NON_HYPERBOLIC,
    (-1, 1): CLASS_SADDLE,
    (0, -1): CLASS_NON_HYPERBOLIC,
    (0, 0): CLASS_NON_HYPERBOLIC,
    (0, 1): CLASS_NON_HYPERBOLIC,
    (1, -1): CLASS_SADDLE,
    (1, 0): CLASS_NON_HYPERBOLIC,
    (1, 1): CLASS_UNSTABLE_NODE,
}


@pytest.mark.parametrize("signs", sorted(_CLASS_BY_SIGNS))
@pytest.mark.parametrize("magnitude", [Fraction(1), Fraction(3, 7), Fraction(2**20_000 + 1, 3**12_000),
                                       Fraction(5**8_000, 2**20_000 - 1)])
def test_classify_exact_reads_only_the_signs(signs, magnitude):
    # every sign pair, with small entries and 20,000-bit ones, keeps the
    # class a*d < 0 gave; entries of different sizes must not matter either
    sa, sd = signs
    want = _CLASS_BY_SIGNS[signs]
    assert classify_exact(sa * magnitude, sd * magnitude) == want
    assert classify_exact(sa * magnitude, sd / magnitude) == want
    assert classify_exact(sa * magnitude, sd * Fraction(1, 2)) == want


_RATIONALS = st.just(Fraction(0)) | st.fractions()


@settings(max_examples=200, deadline=None)
@given(_RATIONALS, _RATIONALS)
@example(Fraction(0), Fraction(0))
@example(Fraction(0), Fraction(-3, 2))
@example(Fraction(5), Fraction(0))
def test_time_reversal_swaps_the_nodes(a, d):
    # a reflected chart with time factor -1 classifies diag(-a, -d): the
    # partner's class with the nodes swapped
    swapped = {CLASS_STABLE_NODE: CLASS_UNSTABLE_NODE, CLASS_UNSTABLE_NODE: CLASS_STABLE_NODE}
    c = classify_exact(a, d)
    assert classify_exact(-a, -d) == swapped.get(c, c)


def test_zero_field_reports_degenerate_charts():
    zero = VectorField(Poly.zero(("x", "y")), Poly.zero(("x", "y")), ("x", "y"))
    report = global_divisor_report(zero, Weights(1, 1, 0), {})
    assert report.degenerate_charts == ["K1", "K2", "K3", "K4"]
    assert report.equilibria == []


# -- exact chart ownership --------------------------------------------------------------


def _dy_only(f2) -> VectorField:
    x, y = poly_vars("x", "y")
    return VectorField(Poly.zero(("x", "y")), f2(x, y), ("x", "y"))


EPS_FIELD = _dy_only(lambda x, y: y**2 - Fraction(1, 10**10) * x * y)
BIG_RATIONAL_FIELD = _dy_only(lambda x, y: 3 * y**2 - 10000000000037 * x * y)
# K1's divisor polynomial 10^13 w^2 - (10^13 - 7) w - 7 has the rational roots
# 1 and -7/10^13, read off enclosures narrower than 1/10^13
UNIT_INTERVAL_FIELD = _dy_only(lambda x, y: 10**13 * y**2 - (10**13 - 7) * x * y - 7 * x**2)


def _owners(f, bindings=None):
    w = infer_weights(f)
    charts = {c: divisor_equilibria(blow_up_in_chart(f, w, c), bindings or {}) for c in ChartId}
    return [(owner, charts[owner][i], members) for owner, i, _, members in _owned_points(charts)]


def test_eps_field_keeps_close_roots_apart():
    # K1's roots 0 and 1/10^10 are 1e-10 rad apart on the circle
    report = global_divisor_report(EPS_FIELD, infer_weights(EPS_FIELD), {})
    assert len(report.equilibria) == 6
    members = [e for m in report.equilibria for e in m.members]
    assert len(members) == 8
    assert all(e.exact for e in members)
    assert [e.coords[1] for e in report.equilibria[1].members] == [Fraction(1, 10**10), 10**10]
    assert len(report.flow) == 6


def test_big_rational_field_has_six_points():
    # K1's interval root near 3.3e12 lies within 1e-9 rad of pi/2, where K2's
    # exact root w = 0 sits
    report = global_divisor_report(BIG_RATIONAL_FIELD, infer_weights(BIG_RATIONAL_FIELD), {})
    assert len(report.equilibria) == 6
    assert [len(m.members) for m in report.equilibria] == [1, 2, 1, 1, 2, 1]


def test_interval_root_at_one_is_owned_by_k1():
    owners = _owners(UNIT_INTERVAL_FIELD)
    assert len(owners) == 6
    owner, eq, members = owners[0]
    assert owner is ChartId.K1 and eq.exact and eq.coords[1] == 1
    assert [e.chart for e in members] == ["K1", "K2"]
    # K3 owns the direction of its own w = -1 as well
    k3 = [sorted(e.chart for e in ms) for o, _, ms in owners if o is ChartId.K3]
    assert k3 == [["K2", "K3"], ["K3", "K4"]]


@pytest.mark.parametrize("c", range(8, 40))
def test_non_hyperbolic_enclosed_points_print_a_zero_eigenvalue(c):
    # the K2/K4 roots near -+10^13/c are irrational for these c; their
    # eigenvalues are the diagonal entries with their exact signs, so a
    # non-hyperbolic point prints an eigenvalue with zero real part
    f = _dy_only(lambda x, y: 10**13 * y**2 - (10**13 - 7) * x * y - c * x**2)
    report = global_divisor_report(f, infer_weights(f), {})
    enclosed = [e for m in report.equilibria for e in m.members if not e.exact]
    assert enclosed
    for e in enclosed:
        if e.classification == CLASS_NON_HYPERBOLIC:
            assert any(z.real == 0 for z in e.eigenvalues), (e.chart, e.eigenvalues)


def test_quadratic_k1_owns_exact_one():
    # a = 3/2: K1's root 2a/3 = 1 and K2's root 3/(2a) = 1 are one direction
    owners = _owners(F, {"a": Fraction(3, 2)})
    assert len(owners) == 6
    k1_one = [(o, ms) for o, eq, ms in owners if eq.chart == "K1" and eq.coords[1] == 1]
    assert len(k1_one) == 1
    owner, members = k1_one[0]
    assert owner is ChartId.K1
    assert [(e.chart, e.coords[1]) for e in members] == [("K1", 1), ("K2", 1)]


# Unit-weight fields x' = -y*P + x*Q, y' = x*P + y*Q with P a product of
# powers of distinct linear forms, so x*f2 - y*f1 = (x^2 + y^2)*P: the
# divisor points are the two directions of each line P vanishes on.
SLOPES = [Fraction(s) for s in ("0", "1", "-1", "1/2", "-1/2", "2", "-2", "3", "-3")] + [None]


def _line(slope, x, y):
    return x if slope is None else y - slope * x  # None: the vertical line x = 0


def _line_angles(slope):
    base = math.pi / 2 if slope is None else math.atan(slope) % math.pi
    return [base, base + math.pi]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(SLOPES), min_size=1, max_size=4, unique=True),
    st.data(),
)
def test_report_follows_linear_factors(slopes, data):
    powers = [data.draw(st.integers(1, 2)) for _ in slopes]
    lead = data.draw(st.sampled_from((1, -1)))
    q = data.draw(st.sampled_from((0, 1, -2)))
    deg = sum(powers)

    def p_of(x, y):
        out = lead
        for slope, k in zip(slopes, powers):
            out = out * _line(slope, x, y) ** k
        return out

    def components(x, y):
        p, qq = p_of(x, y), q * x**deg
        return -y * p + x * qq, x * p + y * qq

    x, y = poly_vars("x", "y")
    f = VectorField(*components(x, y), ("x", "y"))
    report = global_divisor_report(f, Weights(1, 1, deg), {})

    want = sorted(a for s in slopes for a in _line_angles(s))
    assert len(report.equilibria) == 2 * len(slopes)
    assert all(e.classification == m.classification for m in report.equilibria for e in m.members)
    for m, angle in zip(report.equilibria, want):
        assert abs(m.angle - angle) < 1e-9
    assert len(report.flow) == len(want)
    for i, arc in enumerate(report.flow):
        assert arc.start == report.equilibria[i].angle
        lo, hi = want[i], want[(i + 1) % len(want)] + (2 * math.pi if i + 1 == len(want) else 0)
        mid = (lo + hi) / 2
        cx = Fraction(math.cos(mid)).limit_denominator(10**6)
        cy = Fraction(math.sin(mid)).limit_denominator(10**6)
        f1, f2 = components(cx, cy)
        g = cx * f2 - cy * f1
        assert arc.sign == (1 if g > 0 else -1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_merged_members_share_the_classification(seed):
    # the members of a merged point see one direction from two overlapping
    # charts, whose desingularized fields are conjugate up to a positive time
    # factor; so their Jacobians are similar up to a positive scalar
    f, w = _random_quasihomogeneous(random.Random(seed))
    report = global_divisor_report(f, w, {})
    for m in report.equilibria:
        assert {e.classification for e in m.members} == {m.classification}


# -- reflected charts -------------------------------------------------------------------


def _assert_reflections_match(f, w, bindings) -> int:
    """Map every reflectable chart from its partner and compare with the
    direct path: the lead sign and each member by repr, which tells -0.0
    from 0.0 where == does not.  Returns the number of
    charts with a reflection partner."""
    direct = {}
    for chart in ChartId:
        try:
            direct[chart] = divisor_equilibria(blow_up_in_chart(f, w, chart), bindings)
        except DegenerateChart:
            pass
    reflected = 0
    for chart in ChartId:
        reflection = _reflection(chart, w)
        radial = w.alpha if chart.x_radial else w.beta
        if chart.sign > 0 or radial % 2 == 0:
            assert reflection is None
            continue
        partner, eps, t = reflection
        assert partner.x_radial == chart.x_radial and partner.sign == 1
        reflected += 1
        if partner not in direct:
            assert chart not in direct
            continue
        got = _reflected_equilibria(blow_up_in_chart(f, w, chart), bindings, direct[partner], eps, t)
        want = direct[chart]
        assert got.lead_sign == want.lead_sign
        assert [repr(e) for e in got] == [repr(e) for e in want]
    return reflected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_reflected_charts_match_direct_random_types(seed):
    f, w = _random_quasihomogeneous(random.Random(seed))
    _assert_reflections_match(f, w, {})


WEIGHT_TYPES = ((1, 1), (1, 2), (2, 1), (3, 1), (3, 2))
coefficients = st.fractions(-5, 5, max_denominator=4).filter(bool)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(WEIGHT_TYPES), st.integers(0, 6), st.data())
def test_reflected_charts_match_direct(weights, k, data):
    # quasi-homogeneous of the drawn type and index, each coefficient
    # optionally times a bound parameter
    alpha, beta = weights
    mono1 = [(m, n) for m in range(8) for n in range(8) if alpha * m + beta * n == alpha + k]
    mono2 = [(m, n) for m in range(8) for n in range(8) if alpha * m + beta * n == beta + k]
    assume(mono1 and mono2)

    def component(monos):
        picked = data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        terms = {(data.draw(st.integers(0, 1)), m, n): data.draw(coefficients) for m, n in picked}
        return Poly(("a", "x", "y"), terms)

    f = VectorField(component(mono1), component(mono2), ("x", "y"), (Param("a"),))
    bindings = {"a": data.draw(st.fractions(-3, 3, max_denominator=3))}
    assert _assert_reflections_match(f, Weights(alpha, beta, k), bindings) == (alpha % 2) + (beta % 2)
