import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desing.dsl import lower_to_polynomials, parse_field_spec
from desing.errors import NotDivisible, SingularAngle
from desing.polar import (
    Branch,
    HYPERBOLA,
    SPHERE,
    _push,
    bridge_alpha1,
    bridge_beta1,
    bridge_beta2,
    desingularize_polar,
    polar_pushforward,
)
from desing.poly import Poly, poly_vars
from desing.quotient import COS, RADIAL, SIN, QuotientPoly, reduce_poly
from desing.selfcheck import (
    check_bridge_conjugacy,
    check_hyperbolic_finite_difference,
    check_polar_finite_difference,
    check_polar_solve_roundtrip,
    demo_system,
)
from desing.vectorfield import Param, VectorField
from desing.weights import Weights
from test_poly import identical, polys

c, s, r, a = poly_vars(COS, SIN, RADIAL, "a")
F = demo_system()


def q(sigma, poly):
    return QuotientPoly(sigma, poly)


def test_spherical_golden():
    pf = polar_pushforward(F, SPHERE)
    assert pf.angular == q(SPHERE, r * (3 * c * s**2 - 2 * a * s * c**2))
    assert pf.radial == q(SPHERE, r**2 * (a * c - 2 * s - 2 * a * c * s**2 + 3 * s**3))
    assert not pf.desingularized
    assert pf.k == 1


def test_spherical_desingularized_golden():
    pd = desingularize_polar(polar_pushforward(F, SPHERE))
    assert pd.angular == q(SPHERE, 3 * c * s**2 - 2 * a * s * c**2)
    assert pd.radial == q(SPHERE, r * (a * c - 2 * s - 2 * a * c * s**2 + 3 * s**3))
    assert pd.desingularized


def test_hyperbolic_angular_golden():
    hh = polar_pushforward(F, HYPERBOLA)
    assert hh.angular == q(HYPERBOLA, r * (3 * c * s**2 - 2 * a * s * c**2))


def test_hyperbolic_radial_derived_sign():
    # derived by solving the linear system with c^2 -> 1 + s^2: the last term
    # carries +2*a*c*s^2, not the published minus sign; the finite-difference
    # check below arbitrates
    hh = polar_pushforward(F, HYPERBOLA)
    derived = q(HYPERBOLA, r**2 * (a * c - 2 * s - 3 * s**3 + 2 * a * c * s**2))
    published = q(HYPERBOLA, r**2 * (a * c - 2 * s - 3 * s**3 - 2 * a * c * s**2))
    assert hh.radial == derived
    assert hh.radial != published


def test_hyperbolic_desingularized():
    hd = desingularize_polar(polar_pushforward(F, HYPERBOLA))
    assert hd.angular == q(HYPERBOLA, 3 * c * s**2 - 2 * a * s * c**2)
    assert hd.radial == q(HYPERBOLA, r * (a * c - 2 * s - 3 * s**3 + 2 * a * c * s**2))


def test_y_branch_swaps_roles():
    # pushing f through the y-hyperboloid equals pushing the swapped field
    # through the x-hyperboloid
    x, y = poly_vars("x", "y")
    f = F
    swapped = VectorField(
        f.f2.substitute({"x": y, "y": x}),
        f.f1.substitute({"x": y, "y": x}),
        ("x", "y"),
        f.params,
    )
    hy = polar_pushforward(f, HYPERBOLA, Branch.Y)
    hx = polar_pushforward(swapped, HYPERBOLA, Branch.X)
    assert hy.angular == hx.angular
    assert hy.radial == hx.radial


# -- the exponent rewrite against the general substitution ---------------------------


@settings(max_examples=300, deadline=None)
@given(polys(pool=("a", "x", "b", "y")), st.sampled_from([("x", "y"), ("y", "x")]), st.data())
def test_push_is_substitute(p, state, data):
    # the image variables join in the order the terms first use each state
    # variable, which the finished components below cannot tell apart; a
    # variable of the image's name that no term uses is shared, as in
    # `substitute`
    dead = data.draw(st.lists(st.sampled_from((RADIAL, COS, SIN)), max_size=2, unique=True))
    order = list(p.vars)
    for v in dead:
        order.insert(data.draw(st.integers(0, len(order))), v)
    p = p.reordered(order)
    sx, sy = state
    sub = {sx: r * c, sy: r * s}
    assert identical(_push(p, sx, sy), p.substitute({v: b for v, b in sub.items() if v in p.vars}))


def ref_pushforward(f, sigma, branch):
    """(angular, radial, k) of `polar_pushforward` by the general route:
    x = r*c and y = r*s composed in with `substitute`."""
    if sigma == SPHERE:
        branch = Branch.X
    (sx, sy), f1, f2 = f.state_vars, f.f1, f.f2
    if branch is Branch.Y:
        sx, sy, f1, f2 = sy, sx, f2, f1
    sub = {sx: r * c, sy: r * s}
    F1, F2 = (reduce_poly(p.substitute({v: b for v, b in sub.items() if v in p.vars}), sigma) for p in (f1, f2))
    order = f.param_names() + (COS, SIN, RADIAL)
    radial = QuotientPoly(sigma, (reduce_poly(c * F1, sigma) + sigma * s * F2).reordered(order)).base
    angular = QuotientPoly(sigma, (reduce_poly(c * F2, sigma) - s * F1).shift({RADIAL: 1}).reordered(order)).base
    degs = [p.min_degree_in(RADIAL) - d for p, d in ((angular, 0), (radial, 1)) if not p.is_zero()]
    return angular, radial, min(degs) if degs else None


def _same_pushforward(f, sigma, branch):
    angular, radial, k = ref_pushforward(f, sigma, branch)
    pf = polar_pushforward(f, sigma, branch)
    pd = desingularize_polar(pf)
    assert pf.k == k
    expected = [angular, radial] + [p.shift({RADIAL: k}) if k else p for p in (angular, radial)]
    got = [pf.angular.base, pf.radial.base, pd.angular.base, pd.radial.base]
    for p, q in zip(got, expected):
        assert identical(p, q)


@st.composite
def polar_fields(draw):
    """Fields over any two state variable names and 0-2 parameters, each
    component over its own order of a subset of them, with every term
    vanishing at the origin; a component may be zero or miss a state
    variable."""
    names = draw(st.permutations(("x", "y", "u", "a", "b")))
    state, params = tuple(names[:2]), tuple(names[2 : 2 + draw(st.integers(0, 2))])
    comps = []
    for _ in range(2):
        pool = draw(st.permutations(state + params))
        vs = tuple(pool[: draw(st.integers(1, len(pool)))])
        at_state = [i for i, v in enumerate(vs) if v in state]
        exps = st.tuples(*[st.integers(0, 3)] * len(vs))
        coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
        terms = draw(st.dictionaries(exps, coeffs, max_size=6))
        comps.append(Poly(vs, {e: v for e, v in terms.items() if any(e[i] for i in at_state)}))
    return VectorField(*comps, state, tuple(Param(n) for n in params))


@settings(max_examples=300, deadline=None)
@given(polar_fields(), st.sampled_from([SPHERE, HYPERBOLA]), st.sampled_from(list(Branch)))
def test_pushforward_is_the_substitution(f, sigma, branch):
    # variables, term order and coefficients of all four components, since
    # `shift` sorts by grlex over the variable order and the float
    # evaluators sum in term order
    _same_pushforward(f, sigma, branch)


def test_pushforward_of_the_input_files_is_the_substitution():
    root = Path(__file__).resolve().parents[1]
    for path in sorted(root.glob("inputs/*.vf")) + sorted(root.glob("tests/golden/inputs/*.vf")):
        f = lower_to_polynomials(parse_field_spec(path.read_text(encoding="utf-8")))
        for sigma in (SPHERE, HYPERBOLA):
            for branch in Branch:
                _same_pushforward(f, sigma, branch)


def test_polar_rejects_constant_terms():
    x, y = poly_vars("x", "y")
    f = VectorField(x + 1, y, ("x", "y"))
    with pytest.raises(NotDivisible, match=r"needs f\(0, 0\) = 0 .* dx/dt = 1 at the origin"):
        polar_pushforward(f, SPHERE)
    # f(0, 0) must vanish for every value of the parameters
    g = VectorField(x, y**2 + a * x + a, ("x", "y"), (Param("a"),))
    for sigma in (SPHERE, HYPERBOLA):
        with pytest.raises(NotDivisible, match="dy/dt = a at the origin"):
            polar_pushforward(g, sigma)


def test_reserved_parameter_names_rejected():
    x, y = poly_vars("x", "y")
    f = VectorField(Poly.var("s") * x, y**2, ("x", "y"), (Param("s"),))
    with pytest.raises(ValueError):
        polar_pushforward(f, SPHERE)


def test_zero_field_desingularizes_to_zero():
    zero = VectorField(Poly.zero(("x", "y")), Poly.zero(("x", "y")), ("x", "y"))
    pf = polar_pushforward(zero, SPHERE)
    assert pf.k is None
    pd = desingularize_polar(pf)
    assert pd.angular.is_zero() and pd.radial.is_zero()
    assert pd.desingularized
    with pytest.raises(ValueError):
        desingularize_polar(pd)


def test_desingularize_with_explicit_index():
    pf = polar_pushforward(F, SPHERE)
    assert pf.k == Weights(1, 1, 1).k


@pytest.mark.parametrize("sigma", [SPHERE, HYPERBOLA])
def test_index_keeps_one_radius_when_angular_vanishes(sigma):
    # x' = x*(x^2 + y^2), y' = y*(x^2 + y^2): type (1, 1, 2), angular part 0
    x, y = poly_vars("x", "y")
    f = VectorField(x**3 + x * y**2, x**2 * y + y**3, ("x", "y"))
    pf = polar_pushforward(f, sigma)
    assert pf.angular.is_zero()
    assert pf.k == 2
    assert desingularize_polar(pf).radial.min_radial_degree() == 1


def test_divisor_equilibrium_factorization():
    # on the divisor the reduced angular component is c*s*(3*s - 2*a*c)
    pd = desingularize_polar(polar_pushforward(F, SPHERE))
    assert pd.angular == q(SPHERE, c * s * (3 * s - 2 * a * c))
    for theta in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2, math.atan(2 / 3)):
        assert pd.angular.eval_float(theta, 0.0, {"a": 1.0}) == pytest.approx(0.0, abs=1e-12)


def test_solve_roundtrip_random():
    res = check_polar_solve_roundtrip(seed=404)
    assert res.passed, res.detail


def test_determinant_reduces_to_radius():
    # sphere rows [[c, -r*s], [s, r*c]], hyperbola rows [[c, r*s], [s, r*c]]
    det_sphere = q(SPHERE, c * (r * c) - (-r * s) * s)
    assert det_sphere == q(SPHERE, r)
    det_hyper = q(HYPERBOLA, c * (r * c) - (r * s) * s)
    assert det_hyper == q(HYPERBOLA, r)


def test_radial_degrees_drop_by_one():
    pf = polar_pushforward(F, SPHERE)
    assert pf.angular.min_radial_degree() == 1
    assert pf.radial.min_radial_degree() == 2
    pd = desingularize_polar(pf)
    assert pd.angular.min_radial_degree() == 0
    assert pd.radial.min_radial_degree() == 1


def test_polar_finite_difference():
    res = check_polar_finite_difference(F, {"a": Fraction(1)}, seed=42)
    assert res.passed, res.detail


def test_hyperbolic_finite_difference():
    res = check_hyperbolic_finite_difference(F, {"a": Fraction(1)}, seed=43)
    assert res.passed, res.detail


# -- bridges ---------------------------------------------------------------------------


def test_alpha1_axis_point():
    assert bridge_alpha1(0.0, 2.0) == (2.0, 0.0)


def test_alpha1_diagonal():
    r1, y1 = bridge_alpha1(math.pi / 4, 1.0)
    assert r1 == pytest.approx(math.sqrt(2) / 2)
    assert y1 == pytest.approx(1.0)


def test_alpha1_singular():
    with pytest.raises(SingularAngle):
        bridge_alpha1(math.pi / 2, 1.0)
    with pytest.raises(SingularAngle):
        bridge_alpha1(3 * math.pi / 2, 1.0)


def test_beta1_total():
    assert bridge_beta1(0.0, 3.0) == (3.0, 0.0)
    # well-defined where alpha1 is singular-like; no excluded locus at all
    r1, y1 = bridge_beta1(50.0, 1e-3)
    assert math.isfinite(r1) and math.isfinite(y1)


def test_beta1_tanh_artanh():
    # tanh(artanh(2/3)) == 2/3 exactly over the reals; in floats the round
    # trip is within one ulp
    _, y1 = bridge_beta1(math.atanh(2.0 / 3.0), 1.0)
    assert abs(y1 - 2.0 / 3.0) <= math.ulp(2.0 / 3.0)


def test_beta2_singular_at_zero():
    with pytest.raises(SingularAngle):
        bridge_beta2(0.0, 1.0)
    r2, x2 = bridge_beta2(math.atanh(0.5), 2.0)
    assert x2 == pytest.approx(2.0)


def test_bridge_conjugacy():
    res = check_bridge_conjugacy(F, Weights(1, 1, 1), {"a": Fraction(1)}, seed=44)
    assert res.passed, res.detail
