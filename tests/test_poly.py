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
from desing.quotient import COS, NAMES, RADIAL, SIN, TRIG
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


def identical(p, q):
    """Same variables in the same order and the same terms in the same order."""
    return p.vars == q.vars and list(p.terms.items()) == list(q.terms.items())


# -- the one-pass products, powers and printing against the general bodies -------


def ref_mul(p, other):
    """`Poly.__mul__` without its one-term pass: the general double loop, on
    the rational coefficients."""
    q = p._lift(other)
    vs = Poly._union_vars(p, q)
    a = p.reordered(vs).terms
    b = q.reordered(vs).terms
    terms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = terms.get(e, Fraction(0)) + ca * cb
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    return Poly(vs, terms)


def ref_pow(p, n):
    """`Poly.__pow__` without its one-term pass: binary powering by `ref_mul`."""
    result = Poly.const(1, p.vars)
    base = p
    while n:
        if n & 1:
            result = ref_mul(result, base)
        n >>= 1
        if n:
            base = ref_mul(base, base)
    return result


def ref_format(p, display=None):
    """`Poly.format` as a list of (sign, body) pieces over `abs(c)`."""
    if not p.terms:
        return "0"
    disp = dict(display or {})
    pieces = []
    for exps in sorted(p.terms, key=lambda e: (sum(e), e), reverse=True):
        c = p.terms[exps]
        factors = []
        for v, e in zip(p.vars, exps):
            if not e:
                continue
            name = disp.get(v, v)
            factors.append(name if e == 1 else f"{name}^{e}")
        mono = "*".join(factors)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


@st.composite
def one_terms(draw, pool=("a", "x", "y", "r", "w")):
    names = tuple(draw(st.lists(st.sampled_from(pool), max_size=4, unique=True)))
    exps = tuple(draw(st.integers(0, 3)) for _ in names)
    return Poly(names, {exps: draw(coefficients)})


operands = st.one_of(polys(), one_terms(), st.just(Poly.zero()), st.just(Poly.zero(("y", "a"))),
                     coefficients, st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
@given(one_terms(), operands)
def test_one_term_products_are_the_double_loop(m, other):
    # a one-term operand on either side, over disjoint and reordered variables
    assert identical(m * other, ref_mul(m, other))
    if isinstance(other, Poly):
        assert identical(other * m, ref_mul(other, m))
    else:
        assert identical(other * m, ref_mul(m, other))


@settings(max_examples=100, deadline=None)
@given(polys(), operands)
def test_products_are_the_double_loop(p, other):
    assert identical(p * other, ref_mul(p, other))


@settings(max_examples=200, deadline=None)
@given(st.one_of(one_terms(), polys(max_exp=1)), st.integers(0, 12))
def test_powers_are_binary_powering(p, n):
    if len(p.terms) > 1:
        n %= 4  # the general path, kept small
    assert identical(p**n, ref_pow(p, n))


@settings(max_examples=200, deadline=None)
@given(polys(pool=("a", "x", "c", "s", "r")), st.sampled_from(sorted(NAMES)), st.booleans())
def test_format_is_the_piecewise_rendering(p, sigma, displayed):
    # the display map is the one `QuotientPoly.pretty` passes
    angle, radius = NAMES[sigma]
    cos, sin = (fn.__name__ for fn in TRIG[sigma])
    display = {COS: f"{cos}({angle})", SIN: f"{sin}({angle})", RADIAL: radius} if displayed else None
    assert p.format(display) == ref_format(p, display)


def test_format_edge_cases():
    cases = [Poly.zero(), Poly.const(-1), Poly.const(Fraction(-3, 2), ("x",)), -x, Fraction(1, 7) * x * y**2,
             -x**2 + 1, 2 * x - Fraction(5, 3) * a * y + Fraction(-1, 2)]
    for p in cases:
        assert p.format() == ref_format(p)
        assert p.format({"x": "cos(theta)"}) == ref_format(p, {"x": "cos(theta)"})


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


# -- integer numerators against the rational loops they replaced -------------------------
# `Ref` is the Fraction-dict polynomial the package used before its
# coefficients became integer numerators over one denominator: the same
# loops, copied, on exponent tuple -> Fraction maps.


class Ref:
    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        self.terms = terms

    @classmethod
    def of(cls, p):
        return cls(p.vars, dict(p.terms.items())) if isinstance(p, Poly) else p

    @classmethod
    def const(cls, value, variables=()):
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): Fraction(value)} if value else {})

    def _remapped(self, variables):
        if variables == self.vars:
            return dict(self.terms)
        idx = [variables.index(v) for v in self.vars]
        out = {}
        for exps, c in self.terms.items():
            new = [0] * len(variables)
            for i, e in zip(idx, exps):
                new[i] = e
            out[tuple(new)] = c
        return out

    @staticmethod
    def _union_vars(p, q):
        if p.vars == q.vars:
            return p.vars
        return p.vars + tuple(v for v in q.vars if v not in p.vars)

    def reordered(self, variables):
        vs = tuple(variables)
        keep = tuple(v for v in self.vars if v in vs)
        sel = [self.vars.index(v) for v in keep]
        dropped = Ref(keep, {tuple(e[i] for i in sel): c for e, c in self.terms.items()})
        return Ref(vs, dropped._remapped(vs))

    def _lift(self, other):
        if isinstance(other, Ref):
            return other
        return Ref((), {(): Fraction(other)} if other else {})

    def __add__(self, other):
        q = self._lift(other)
        vs = Ref._union_vars(self, q)
        terms = self._remapped(vs)
        for e, c in q._remapped(vs).items():
            s = terms.get(e, Fraction(0)) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Ref(vs, terms)

    __radd__ = __add__

    def __neg__(self):
        return Ref(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        q = self._lift(other)
        vs = Ref._union_vars(self, q)
        a = self.terms if self.vars == vs else self._remapped(vs)
        b = q.terms if q.vars == vs else q._remapped(vs)
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            ((em, cm),) = a.items()
            return Ref(vs, {tuple(x + y for x, y in zip(em, e)): cm * c for e, c in b.items()})
        terms = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = terms.get(e, Fraction(0)) + ca * cb
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Ref(vs, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n and len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            return Ref(self.vars, {tuple(k * n for k in e): c**n})
        result = Ref.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def substitute(self, bindings):
        bound = {v: (b if isinstance(b, Ref) else Ref.const(b)) for v, b in bindings.items()}
        keep = tuple(v for v in self.vars if v not in bound)
        sel = [self.vars.index(v) for v in keep]
        power_cache = {}
        acc = Ref(keep, {})
        for exps, c in self.terms.items():
            term = Ref(keep, {tuple(exps[i] for i in sel): c})
            for v, e in zip(self.vars, exps):
                if v in bound and e:
                    if (v, e) not in power_cache:
                        power_cache[(v, e)] = bound[v] ** e
                    term = term * power_cache[(v, e)]
            acc = acc + term
        return acc

    def bind(self, values):
        keep = [i for i, v in enumerate(self.vars) if v not in values]
        bound = [(i, Fraction(values[v])) for i, v in enumerate(self.vars) if v in values]
        powers = {}
        terms = {}
        for exps, c in self.terms.items():
            for i, val in bound:
                e = exps[i]
                if e:
                    pw = powers.get((i, e))
                    if pw is None:
                        pw = powers[(i, e)] = val**e
                    c = c * pw
            key = tuple(exps[i] for i in keep)
            if key in terms:
                s = terms[key] + c
                if s:
                    terms[key] = s
                else:
                    del terms[key]
            elif c:
                terms[key] = c
        return Ref(tuple(self.vars[i] for i in keep), terms)

    def shift(self, monomial, coeff=1):
        c0 = Fraction(coeff)
        vs = self.vars + tuple(v for v in monomial if v not in self.vars)
        pad = (0,) * (len(vs) - len(self.vars))
        drop = [(vs.index(v), e) for v, e in monomial.items() if e]
        terms = {}
        for exps, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
            new = list(exps + pad)
            for i, e in drop:
                new[i] -= e
                if new[i] < 0:
                    raise NotDivisible("a term lacks the monomial")
            terms[tuple(new)] = c if c0 == 1 else c / c0
        return Ref(vs, terms)

    def format(self, display=None):
        disp = display or {}
        names = [disp.get(v, v) for v in self.vars]
        out = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[exps]
            num, den = c.numerator, c.denominator
            if num < 0:
                num = -num
                out.append(" - " if out else "-")
            elif out:
                out.append(" + ")
            mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)
            if num != 1 or den != 1 or not mono:
                out.append(f"{num}/{den}" if den != 1 else str(num))
                if mono:
                    out.append("*")
            out.append(mono)
        return "".join(out) or "0"


def ref_reduce(base, sigma):
    if COS not in base.vars or max((e[base.vars.index(COS)] for e in base.terms), default=0) <= 1:
        return base
    vs = base.vars if SIN in base.vars else base.vars + (SIN,)
    ci, si = vs.index(COS), vs.index(SIN)
    pad = [0] * (len(vs) - len(base.vars))
    terms = {}
    for exps, coeff in base.terms.items():
        q, rem = divmod(exps[ci], 2)
        stripped = list(exps) + pad
        stripped[ci] = rem
        for j in range(q + 1):
            key = list(stripped)
            key[si] += 2 * j
            key = tuple(key)
            s = terms.get(key, Fraction(0)) + coeff * (math.comb(q, j) * (-sigma) ** j)
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
    return Ref(vs, terms)


def ref_float_source(polys, order, angle=False):
    order = tuple(order)
    names = [f"x{i}" for i in range(len(order))]
    lines = [f"def field({', '.join(['p'] + names[2:] if angle else names)}):"]
    if angle:
        lines += ["    x0 = cos(p)", "    x1 = sin(p)"]
    for k, p in enumerate(polys):
        lines.append(f"    a{k} = 0.0")
        terms = p.terms if p.vars == order else p.reordered(order).terms
        for exps, c in terms.items():
            factors = [repr(float(c))]
            factors += [f"x{i}" if e == 1 else f"x{i}**{e}" for i, e in enumerate(exps) if e]
            lines.append(f"    a{k} += {' * '.join(factors)}")
    lines.append(f"    return ({''.join(f'a{k}, ' for k in range(len(polys)))})")
    return "\n".join(lines)


def same(p, ref):
    """The same variables, rational terms in the same order, and the
    canonical representation: den > 0, no zero numerator, gcd 1."""
    assert isinstance(p, Poly)
    assert p.vars == ref.vars
    assert list(p.terms.items()) == list(ref.terms.items())
    assert p.den > 0 and all(p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1


def same_outcome(run_poly, run_ref):
    """Both raise the same exception type, or give the same value."""
    try:
        expected = run_ref()
    except (NotDivisible, OverflowError) as exc:
        with pytest.raises(type(exc)):
            run_poly()
        return None
    return run_poly(), expected


huge = st.builds(Fraction, st.integers(-(2**2000), 2**2000).filter(bool), st.integers(1, 2**2000))
# mostly the small coefficients, whose denominators share factors and cancel
mixed = st.one_of(coefficients, coefficients, coefficients, huge)
scalars = st.one_of(mixed, st.integers(-3, 3), st.just(Fraction(0)))


@st.composite
def mixed_polys(draw, pool=("a", "x", "y", "r", "w"), max_exp=3):
    names = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)))
    exps = st.tuples(*[st.integers(0, max_exp)] * len(names))
    return Poly(names, draw(st.dictionaries(exps, mixed, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(mixed_polys(), st.one_of(mixed_polys(), scalars))
def test_ring_operations_match_the_rational_loops(p, q):
    rp, rq = Ref.of(p), Ref.of(q)
    same(p + q, rp + rq)
    same(q + p, rq + rp)
    same(p - q, rp - rq)
    same(q - p, rq - rp)
    same(-p, -rp)
    same(p * q, rp * rq)
    same(q * p, rq * rp)
    assert (p + q == q + p) and hash(p + q) == hash(q + p)


@settings(max_examples=150, deadline=None)
@given(st.one_of(mixed_polys(max_exp=2), one_terms()), st.integers(0, 4))
def test_powers_match_the_rational_loops(p, n):
    same(p**n, Ref.of(p) ** n)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bind_and_substitute_match_the_rational_loops(data):
    p = data.draw(mixed_polys())
    values = data.draw(st.dictionaries(st.sampled_from(p.vars), st.one_of(st.just(0), mixed), max_size=3))
    same(p.bind(values), Ref.of(p).bind(values))
    images = data.draw(st.dictionaries(
        st.sampled_from(p.vars), st.one_of(mixed_polys(pool=("u", "v", "x"), max_exp=2), scalars), max_size=2))
    same(p.substitute(images), Ref.of(p).substitute({v: Ref.of(b) for v, b in images.items()}))


@settings(max_examples=200, deadline=None)
@given(mixed_polys(), st.dictionaries(st.sampled_from(("a", "x", "r", "z")), st.integers(0, 2), max_size=2),
       st.one_of(mixed, st.just(1)))
def test_shift_matches_the_rational_loop(p, monomial, coeff):
    outcome = same_outcome(lambda: p.shift(monomial, coeff), lambda: Ref.of(p).shift(monomial, coeff))
    if outcome:
        same(*outcome)


@settings(max_examples=200, deadline=None)
@given(mixed_polys(pool=("a", "c", "s", "r"), max_exp=4), mixed_polys(pool=("c", "s", "r"), max_exp=3),
       st.sampled_from((1, -1)))
def test_reduce_poly_matches_the_rational_loop(p, q, sigma):
    from desing.quotient import reduce_poly

    same(reduce_poly(p, sigma), ref_reduce(Ref.of(p), sigma))
    # products reach c^2 and cancel after reduction, which tests the gcd
    same(reduce_poly(p * q, sigma), ref_reduce(Ref.of(p) * Ref.of(q), sigma))


@settings(max_examples=200, deadline=None)
@given(mixed_polys(pool=("a", "x", "c", "s", "r")), st.booleans())
def test_format_matches_the_rational_loop(p, displayed):
    display = {COS: "cosh(phi)", SIN: "sinh(phi)", RADIAL: "rho"} if displayed else None
    assert p.format(display) == Ref.of(p).format(display)


@settings(max_examples=200, deadline=None)
@given(st.lists(mixed_polys(pool=("x", "y", "z")), min_size=1, max_size=3), st.booleans(), st.randoms())
def test_float_source_matches_the_rational_loop(ps, angle, rnd):
    from desing.poly import float_source

    order = ["x", "y", "z"]
    rnd.shuffle(order)
    outcome = same_outcome(lambda: float_source(ps, order, angle),
                           lambda: ref_float_source([Ref.of(p) for p in ps], order, angle))
    if outcome:
        assert outcome[0] == outcome[1]


# -- the n-ary sum against a Fraction fold ----------------------------------------------

PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def sum_parts(draw):
    """Signed parts over overlapping and disjoint variables whose
    denominators are products of distinct small primes, so often coprime;
    exponents 0-1 make keys meet, and a part may repeat an earlier one with
    the opposite sign, so that keys cancel and re-enter."""
    parts = []
    for _ in range(draw(st.integers(1, 6))):
        if parts and draw(st.integers(0, 3)) == 0:
            sign, p = draw(st.sampled_from(parts))
            parts.append((-sign, p))
            continue
        names = tuple(draw(st.lists(st.sampled_from(("x", "y", "z", "u", "v")), max_size=3, unique=True)))
        den = math.prod(draw(st.sets(st.sampled_from(PRIMES), max_size=3)))
        coeffs = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.just(den))
        terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 1)] * len(names)), coeffs, max_size=4))
        parts.append((draw(st.sampled_from((1, -1))), Poly(names, terms)))
    return parts


def fraction_sum(parts):
    """The parts added one at a time on exponent -> Fraction maps over the
    variables in the order they are met."""
    vs = ()
    for _, p in parts:
        vs += tuple(v for v in p.vars if v not in vs)
    terms = {}
    for sign, p in parts:
        for e, c in p.terms.items():
            key = tuple(dict(zip(p.vars, e)).get(v, 0) for v in vs)
            s = terms.get(key, 0) + sign * c
            if s:
                terms[key] = s
            else:
                del terms[key]
    return vs, list(terms.items())


@settings(max_examples=300, deadline=None)
@given(sum_parts())
def test_sum_is_the_fraction_fold(parts):
    total = Poly.sum(parts)
    vs, terms = fraction_sum(parts)
    assert total.vars == vs
    assert list(total.terms.items()) == terms
    assert total.den == math.lcm(*(c.denominator for _, c in terms))
    assert all(total.nums.values()) and math.gcd(total.den, *total.nums.values()) == 1
    # repeated binary `+` and `-` build the same polynomial
    acc = parts[0][1] if parts[0][0] == 1 else -parts[0][1]
    for sign, p in parts[1:]:
        acc = acc + p if sign == 1 else acc - p
    assert identical(acc, total)


def test_empty_sum_is_zero_over_no_variables():
    assert identical(Poly.sum([]), Poly.zero())


def first_primes(n):
    primes = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def test_merge_free_sum_takes_no_gcd(monkeypatch):
    # 1/2*x + 1/3*x^2 + ... + 1/p_3000*x^3000: no two terms meet, so the sum
    # over the product of the primes is canonical without a gcd over its
    # 3000 numerators; in the parser the only gcds left are the terms' own
    import desing.poly
    from desing.dsl import parse_field_spec

    primes = first_primes(3000)
    parts = [(1, Fraction(1, p) * x**i) for i, p in enumerate(primes, 1)]
    calls = []
    monkeypatch.setattr(desing.poly, "gcd", lambda *args: calls.append(len(args)) or math.gcd(*args))
    total = Poly.sum(parts)
    assert calls == []
    assert total.den == math.prod(primes)
    assert list(total.terms.items()) == [((i,), Fraction(1, p)) for i, p in enumerate(primes, 1)]
    # a sum in which two terms meet still normalises, once
    Poly.sum(parts + [(-1, parts[0][1])])
    assert calls == [3000]
    calls.clear()
    source = " + ".join(f"1/{p}*x^{i}" for i, p in enumerate(primes, 1))
    assert identical(parse_field_spec(f"var x y; dx/dt = {source}; dy/dt = y;").rhs[0], total)
    assert max(calls) == 2
