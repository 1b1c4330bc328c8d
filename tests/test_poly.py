import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desing.charts import ChartId, blow_up_in_chart
from desing.errors import NotDivisible
from desing.polar import SPHERE, desingularize_polar, polar_pushforward
from desing.poly import Poly, float_evaluator, poly_vars
from desing.quotient import COS, RADIAL, SIN, TRIG
from desing.selfcheck import (
    check_exact_division,
    check_ring_axioms,
    check_substitution_homomorphism,
)
from desing.vectorfield import Param, VectorField
from desing.weights import Weights, verify_weights

x, y, a = poly_vars("x", "y", "a")
r, c, s = poly_vars("r", "c", "s")


def test_difference_of_squares():
    assert (x + y) * (x - y) == x**2 - y**2


def test_zero_annihilates():
    f1 = a * x**2 - 2 * x * y
    assert (f1 * 0).is_zero()
    assert f1 * Poly.zero() == Poly.zero()


def test_cancellation():
    assert (a * x**2 - 2 * x * y) + (2 * x * y) == a * x**2


def test_pow_and_neg():
    assert (-(x + 1)) ** 2 == x**2 + 2 * x + 1
    assert x**0 == Poly.const(1, ("x",))
    with pytest.raises(ValueError):
        x ** (-1)


def test_equality_ignores_variable_order():
    p = Poly(("x", "y"), {(1, 2): 3})
    q = Poly(("y", "x"), {(2, 1): 3})
    assert p == q
    assert hash(p) == hash(q)
    assert p != Poly(("x", "y"), {(2, 1): 3})


def test_substitute_polar_form():
    # f1 = a*x^2 - 2*x*y under x -> r*c, y -> r*s expands to r^2*(a*c^2 - 2*c*s)
    f1 = a * x**2 - 2 * x * y
    out = f1.substitute({"x": r * c, "y": r * s})
    assert out == r**2 * (a * c**2 - 2 * c * s)


def test_substitute_identity():
    f1 = a * x**2 - 2 * x * y
    assert f1.substitute({"x": x, "y": y}) == f1


def test_substitute_second_chart():
    # f2 = y^2 - a*x*y under x -> r2*x2, y -> r2 gives r2^2*(1 - a*x2)
    f2 = y**2 - a * x * y
    r2, x2 = poly_vars("r2", "x2")
    out = f2.substitute({"x": r2 * x2, "y": r2})
    assert out == r2**2 * (1 - a * x2)


def test_substitute_rejects_unknown_variable():
    with pytest.raises(ValueError):
        x.substitute({"z": y})


def test_div_exact_monomial():
    r1, y1 = poly_vars("r1", "y1")
    p = r1**2 * (a - 2 * y1)
    assert p.div_exact(r1) == r1 * (a - 2 * y1)


def test_div_exact_binomial():
    assert (x**2 - y**2).div_exact(x - y) == x + y


def test_div_exact_failure():
    with pytest.raises(NotDivisible):
        (x**2 + y).div_exact(x)
    with pytest.raises(ZeroDivisionError):
        x.div_exact(Poly.zero())


def test_canonical_rendering():
    f1 = (a * x**2 - 2 * x * y).reordered(("a", "x", "y"))
    assert str(f1) == "a*x^2 - 2*x*y"
    f2 = (y**2 - a * x * y).reordered(("a", "x", "y"))
    assert str(f2) == "-a*x*y + y^2"
    assert str(Poly.zero()) == "0"
    assert str(Poly.const(Fraction(-3, 2), ("x",))) == "-3/2"
    assert str(Fraction(2, 3) * x) == "2/3*x"


def test_rendering_reparses_to_same_polynomial():
    # canonical output is legal DSL expression syntax
    from desing.dsl import parse_field_spec

    p = (a * x**2 - 2 * x * y + Fraction(1, 3) * y**2).reordered(("a", "x", "y"))
    src = f"param a;\nvar x y;\ndx/dt = {p};\ndy/dt = 0;\n"
    spec = parse_field_spec(src)
    assert spec.rhs[0] == p


def test_evaluate_exact_and_float():
    p = a * x**2 - 2 * x * y
    val = p.bind({"a": Fraction(1, 2), "x": Fraction(2), "y": Fraction(3)})
    assert val == Fraction(1, 2) * 4 - 12
    assert float_evaluator([p], ("a", "x", "y"))(0.5, 2.0, 3.0) == (-10.0,)


def test_min_degree_and_effective_vars():
    p = r**2 * x + r**3
    assert p.min_degree_in("r") == 2
    assert p.degree_in("r") == 3
    assert (x * y).effective_vars() == ("x", "y")
    assert Poly.zero(("x",)).effective_vars() == ()


def test_reordered_guards_live_variables():
    p = x * y
    with pytest.raises(ValueError):
        p.reordered(("x",))
    assert p.reordered(("y", "x", "z")).vars == ("y", "x", "z")


def test_ring_axioms_random():
    res = check_ring_axioms(seed=123)
    assert res.passed, res.detail


def test_division_roundtrip_random():
    res = check_exact_division(seed=456)
    assert res.passed, res.detail


def test_exact_division_check_exercises_shift(monkeypatch):
    # the check certifies Poly.shift, the division the pipeline runs: a shift
    # that skips the coefficient division, or that never refuses a term
    # lacking the monomial, fails it
    shift = Poly.shift

    def never_refuses(self, monomial, coeff=1):
        try:
            return shift(self, monomial, coeff)
        except NotDivisible:
            return Poly.const(0)

    monkeypatch.setattr(Poly, "shift", lambda self, monomial, coeff=1: shift(self, monomial))
    assert not check_exact_division(seed=456).passed
    monkeypatch.setattr(Poly, "shift", never_refuses)
    assert not check_exact_division(seed=456).passed


def test_substitution_homomorphism_random():
    res = check_substitution_homomorphism(seed=789)
    assert res.passed, res.detail


def test_random_division_never_invents_quotients():
    rng = random.Random(7)
    hits = 0
    for _ in range(200):
        p = Poly(("x", "y"), {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 5)})
        q = Poly(("x", "y"), {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 5), (0, 0): 1})
        try:
            h = p.div_exact(q)
        except NotDivisible:
            continue
        hits += 1
        assert h * q == p
    assert hits > 0


# -- the monomial primitives against the general operations ------------------------

coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))


@st.composite
def polys(draw, pool=("a", "x", "y", "r", "w"), max_exp=3):
    names = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)))
    exps = st.tuples(*[st.integers(0, max_exp)] * len(names))
    return Poly(names, draw(st.dictionaries(exps, coefficients, max_size=6)))


@st.composite
def signed_monomials(draw, pool=("r", "w", "c", "a", "x")):
    names = tuple(draw(st.lists(st.sampled_from(pool), max_size=3, unique=True)))
    exps = tuple(draw(st.integers(0, 3)) for _ in names)
    return Poly(names, {exps: draw(st.sampled_from((1, -1)))})


def identical(p, q):
    """Same variables in the same order and the same terms in the same order."""
    return p.vars == q.vars and list(p.terms.items()) == list(q.terms.items())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_monomial_map_is_substitute(data):
    # image variables may coincide with unbound ones, so monomials can merge
    p = data.draw(polys())
    bound = data.draw(st.lists(st.sampled_from(p.vars), unique=True))
    images = {v: data.draw(signed_monomials()) for v in bound}
    assert identical(p.monomial_map(images), p.substitute(images))


def test_monomial_map_rejects_non_monomial_images():
    with pytest.raises(ValueError):
        (x * y).monomial_map({"x": r + c})
    with pytest.raises(ValueError):
        (x * y).monomial_map({"x": 2 * r})
    with pytest.raises(ValueError):
        x.monomial_map({"z": r})


@settings(max_examples=100, deadline=None)
@given(polys(), st.dictionaries(st.sampled_from(("a", "x", "r", "z")), st.integers(0, 2), max_size=2), coefficients)
def test_shift_is_div_exact_by_the_monomial(p, monomial, coeff):
    divisor = Poly(tuple(monomial), {tuple(monomial.values()): coeff})
    try:
        expected = p.div_exact(divisor)
    except NotDivisible:
        with pytest.raises(NotDivisible):
            p.shift(monomial, coeff)
        return
    assert identical(p.shift(monomial, coeff), expected)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bind_is_substitute_with_constants(data):
    p = data.draw(polys())
    values = data.draw(
        st.dictionaries(st.sampled_from(p.vars), st.one_of(st.just(0), coefficients), max_size=3)
    )
    assert identical(p.bind(values), p.substitute(values))


# -- the exponent-row weight test against the symbolic one ---------------------------


def symbolic_verify(f, w):
    """f(r^alpha x, r^beta y) == (r^(alpha+k) f1, r^(beta+k) f2), by substitution."""
    sx, sy = f.state_vars
    rr = Poly.var("r")
    subs = {sx: rr**w.alpha * Poly.var(sx), sy: rr**w.beta * Poly.var(sy)}

    def scaled(poly, shift):
        bind = {v: b for v, b in subs.items() if v in poly.vars}
        return poly.substitute(bind) == rr**shift * poly

    return scaled(f.f1, w.alpha + w.k) and scaled(f.f2, w.beta + w.k)


@st.composite
def fields_and_weights(draw):
    """A field over (a, x, y) that is often, not always, quasi-homogeneous for
    the drawn weights: each term satisfies the row test with high probability."""
    w = Weights(draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 4)))

    def component(target):
        fits = [(m, n) for m in range(7) for n in range(7) if w.alpha * m + w.beta * n == target]
        pick = st.sampled_from(fits) if fits else st.nothing()
        any_mn = st.tuples(st.integers(0, 4), st.integers(0, 4))
        mns = draw(st.lists(st.one_of(pick, pick, pick, any_mn), max_size=4))
        return Poly(("a", "x", "y"), {(draw(st.integers(0, 2)), m, n): draw(coefficients) for m, n in mns})

    f = VectorField(component(w.alpha + w.k), component(w.beta + w.k), ("x", "y"), (Param("a"),))
    return f, w


@settings(max_examples=150, deadline=None)
@given(fields_and_weights())
def test_row_weight_test_matches_symbolic_check(fw):
    f, w = fw
    assert verify_weights(f, w) == symbolic_verify(f, w)


@settings(max_examples=60, deadline=None)
@given(fields_and_weights(), st.sampled_from(list(ChartId)))
def test_blow_up_raises_exactly_on_unverified_weights(fw, chart):
    f, w = fw
    if symbolic_verify(f, w):
        cf = blow_up_in_chart(f, w, chart)
        rk = Poly.var(cf.radial_var) ** w.k
        assert rk * cf.desing[0] == cf.raw[0] and rk * cf.desing[1] == cf.raw[1]
    else:
        with pytest.raises(NotDivisible):
            blow_up_in_chart(f, w, chart)


# -- the compiled float evaluator -----------------------------------------------------------


def term_loop(p, order, point):
    """The float term loop the plane and chart views ran before
    `float_evaluator`: float coefficient times every power, exponent 0
    included, summed in term order."""
    total = 0.0
    for exps, c in p.reordered(order).terms.items():
        t = float(c)
        for val, e in zip(point, exps):
            t = t * val**e
        total += t
    return total


def bits(values):
    return [struct.pack("<d", v) for v in values]


floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
float_coefficients = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_float_evaluator_is_the_term_loop_bit_for_bit(data):
    order = ("x", "y", "z")[: data.draw(st.integers(2, 3))]
    exps = st.tuples(*[st.integers(0, 4)] * len(order))
    # sums of two term maps, so that shared monomials merge
    ps = [
        Poly(order, data.draw(st.dictionaries(exps, float_coefficients, max_size=6)))
        + Poly(order, data.draw(st.dictionaries(exps, float_coefficients, max_size=6)))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    point = tuple(data.draw(floats) for _ in order)
    got = float_evaluator(ps, order)(*point)
    assert bits(got) == bits(term_loop(p, order, point) for p in ps)


def drawn_polys(data, order):
    exps = st.tuples(*[st.integers(0, 4)] * len(order))
    return [
        Poly(order, data.draw(st.dictionaries(exps, float_coefficients, max_size=6)))
        for _ in range(data.draw(st.integers(1, 3)))
    ]


@pytest.mark.parametrize("sigma", sorted(TRIG))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_angle_prologue_is_the_evaluator_at_cos_sin_bit_for_bit(sigma, data):
    cos, sin = TRIG[sigma]
    order = (COS, SIN, RADIAL)
    ps = drawn_polys(data, order)
    # angles far enough out for cosh and its powers to overflow
    angle, radius = data.draw(st.floats(-800, 800)), data.draw(floats)
    try:
        expected = float_evaluator(ps, order)(cos(angle), sin(angle), radius)
    except OverflowError:
        with pytest.raises(OverflowError):
            float_evaluator(ps, order, TRIG[sigma])(angle, radius)
    else:
        assert bits(float_evaluator(ps, order, TRIG[sigma])(angle, radius)) == bits(expected)


def test_float_evaluator_compiles_five_thousand_terms():
    p = Poly(("x", "y"), {(i, j): Fraction(i + 1, j + 2) for i in range(100) for j in range(50)})
    assert len(p.terms) == 5000
    (value,) = float_evaluator([p], ("x", "y"))(0.5, -0.75)
    assert bits([value]) == bits([term_loop(p, ("x", "y"), (0.5, -0.75))])


def test_float_evaluator_overflow_raises():
    with pytest.raises(OverflowError):
        float_evaluator([x**3 - y], ("x", "y"))(1e200, 1.0)


def test_polar_view_binds_parameters_exactly():
    # the a-terms merge with the parameter-free ones once a is bound, and
    # the polar view evaluates the exactly bound polynomials
    f = VectorField(3 * a * x**2 + x**2 - 2 * x * y, y**2 - a * x * y, ("x", "y"), (Param("a"),))
    pf = desingularize_polar(polar_pushforward(f, SPHERE))
    value = Fraction(1, 10)
    bound = [q.base.bind({"a": value}) for q in (pf.angular, pf.radial)]
    assert sum(len(p.terms) for p in bound) < len(pf.angular.base.terms) + len(pf.radial.base.terms)
    reference = float_evaluator(bound, (COS, SIN, RADIAL))
    field = pf.as_callable({"a": value})
    for angle, radius in ((0.3, 0.5), (2.0, 1.5), (4.1, 0.0)):
        expected = reference(math.cos(angle), math.sin(angle), radius)
        assert bits(field(angle, radius)) == bits(expected)
