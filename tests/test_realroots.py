from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desing.realroots import (
    RatInterval,
    _integer_form,
    _primitive,
    _sign_at,
    cauchy_bound,
    compare_root,
    interval_eval,
    poly_divmod,
    poly_gcd,
    real_roots,
    refine_root,
    sturm_chain,
    sign_variations,
    yun_squarefree,
)

F = Fraction


def coeffs(*cs):
    return [F(c) for c in cs]


def from_roots(*roots):
    p = [F(1)]
    for r in roots:
        p = [F(0)] + p
        for i in range(len(p) - 1):
            p[i] -= F(r) * p[i + 1]
    return p


def test_from_roots_helper():
    # (x - 1)(x + 2) = x^2 + x - 2
    assert from_roots(1, -2) == coeffs(-2, 1, 1)


def test_poly_divmod():
    # (x^2 - 1) / (x - 1) = (x + 1), remainder 0
    quot, rem = poly_divmod(coeffs(-1, 0, 1), coeffs(-1, 1))
    assert quot == coeffs(1, 1)
    assert rem == []


def test_poly_gcd_monic():
    p = from_roots(1, 2, 3)
    q = from_roots(2, 3, 5)
    assert poly_gcd(p, q) == from_roots(2, 3)


def test_yun_decomposition():
    # x^2 * (x^2 - 2): levels are {x^2 - 2} at multiplicity 1, {x} at 2
    p = [F(0), F(0), F(-2), F(0), F(1)]
    out = yun_squarefree(p)
    assert [(f, m) for f, m in out] == [([F(-2), F(0), F(1)], 1), ([F(0), F(1)], 2)]


def test_rational_roots_with_multiplicity():
    # (x - 1/2)^2 (x + 3)
    p = [F(1)]
    for root, mult in ((F(1, 2), 2), (F(-3), 1)):
        for _ in range(mult):
            p = [F(0)] + p
            for i in range(len(p) - 1):
                p[i] -= root * p[i + 1]
    roots = real_roots(p)
    assert [(r.value, r.multiplicity) for r in roots] == [(F(-3), 1), (F(1, 2), 2)]
    assert all(r.exact for r in roots)


def test_irrational_isolation():
    roots = real_roots(coeffs(-2, 0, 1))  # x^2 - 2
    assert len(roots) == 2
    for root in roots:
        assert not root.exact
        assert root.hi - root.lo < F(1, 10**12)
    assert roots[0].approx == pytest.approx(-(2**0.5), abs=1e-11)
    assert roots[1].approx == pytest.approx(2**0.5, abs=1e-11)


def test_mixed_roots():
    # x * (x - 1)^2 * (x^2 - 3)
    p = from_roots(0, 1, 1)
    # multiply by irreducible x^2 - 3
    res = [F(0)] * (len(p) + 2)
    for i, ci in enumerate(p):
        res[i] += -3 * ci
        res[i + 2] += ci
    roots = real_roots(res)
    values = [(r.value, r.multiplicity, r.exact) for r in roots]
    assert (F(0), 1, True) in values
    assert (F(1), 2, True) in values
    irr = [r for r in roots if not r.exact]
    assert len(irr) == 2
    assert irr[0].approx == pytest.approx(-(3**0.5), abs=1e-11)
    assert irr[1].approx == pytest.approx(3**0.5, abs=1e-11)


def test_no_real_roots():
    assert real_roots(coeffs(1, 0, 1)) == []  # x^2 + 1


def test_constant_and_zero_polynomials():
    assert real_roots(coeffs(5)) == []
    with pytest.raises(ValueError):
        real_roots(coeffs(0))


def test_refine_root_shrinks():
    roots = real_roots(coeffs(-2, 0, 1), width=F(1, 10**6))
    root = roots[1]
    finer = refine_root(root, F(1, 10**30))
    assert finer.hi - finer.lo < F(1, 10**30)
    # enclosure still brackets sqrt(2), checked exactly by squaring
    assert finer.lo**2 < 2 < finer.hi**2


def test_sturm_counts():
    p = coeffs(-2, 0, 1)
    chain = sturm_chain(p)
    b = cauchy_bound(p)
    assert sign_variations(chain, -b) - sign_variations(chain, b) == 2


def test_angular_restriction_example():
    # y*(3*y - 2) from the reference system at a = 1: roots 0 and 2/3
    roots = real_roots(coeffs(0, -2, 3))
    assert [r.value for r in roots] == [F(0), F(2, 3)]


def test_double_root_at_zero():
    roots = real_roots(coeffs(0, 0, 1))  # y^2
    assert [(r.value, r.multiplicity) for r in roots] == [(F(0), 2)]


def test_interval_arithmetic():
    box = RatInterval(F(1), F(2))
    sq = box * box
    assert (sq.lo, sq.hi) == (F(1), F(4))
    assert (box - box).contains_zero()
    assert (RatInterval(F(-3), F(-1))).sign() == -1
    assert RatInterval(F(2), F(5)).sign() == 1
    assert RatInterval(F(-1), F(1)).sign() == 0


def test_interval_eval_encloses_value():
    p = coeffs(-2, 0, 1)
    box = RatInterval(F(141421, 100000), F(141422, 100000))
    out = interval_eval(p, box)
    exact = _fraction_horner(p, F(1414215, 1000000))
    assert out.lo <= exact <= out.hi


def test_close_roots_separated():
    p = from_roots(F(1, 1000), F(2, 1000))
    roots = real_roots(p)
    assert [r.value for r in roots] == [F(1, 1000), F(2, 1000)]


# -- properties against Fraction references and a sympy oracle ----------------------

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def polynomials(draw, max_degree=8):
    """Nonzero coefficient lists; half of them get planted rational roots,
    some repeated, so exact hits and multiplicities occur."""
    cs = draw(st.lists(rationals, min_size=1, max_size=max_degree - 1))
    if not any(cs):
        cs[-1] = F(1)
    if draw(st.booleans()):
        for r in draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=3)):
            cs = [F(0)] + cs
            for i in range(len(cs) - 1):
                cs[i] -= r * cs[i + 1]
    while cs[-1] == 0:
        cs.pop()
    return cs


def _fraction_horner(cs, x):
    acc = F(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _sympy_poly(sympy, cs):
    x = sympy.Symbol("x")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(cs)], x)


@settings(max_examples=100, deadline=None)
@given(polynomials(), rationals)
def test_integer_sign_matches_fraction_horner(cs, x):
    value = _fraction_horner(cs, x)
    expected = (value > 0) - (value < 0)
    ints = _integer_form(cs)
    assert _sign_at(ints, x.numerator, x.denominator) == expected
    assert _sign_at(_primitive(ints), x.numerator, x.denominator) == expected


@settings(max_examples=100, deadline=None)
@given(polynomials(), rationals, rationals)
def test_interval_eval_matches_fraction_interval_horner(cs, a, b):
    box = RatInterval(min(a, b), max(a, b))
    acc = RatInterval.point(0)
    for c in reversed(cs):
        acc = acc * box + RatInterval.point(c)
    out = interval_eval(cs, box)
    assert (out.lo, out.hi) == (acc.lo, acc.hi)


@settings(max_examples=60, deadline=None)
@given(polynomials())
def test_sturm_count_matches_sympy(cs):
    sympy = pytest.importorskip("sympy")
    if len(cs) < 2:
        return
    chain = sturm_chain(cs)
    bound = cauchy_bound(cs)
    count = sign_variations(chain, -bound) - sign_variations(chain, bound)
    assert count == _sympy_poly(sympy, cs).count_roots()


@settings(max_examples=60, deadline=None)
@given(polynomials())
def test_real_roots_match_sympy(cs):
    sympy = pytest.importorskip("sympy")
    if len(cs) < 2:
        return
    poly = _sympy_poly(sympy, cs)
    roots = real_roots(cs)
    assert len(roots) == poly.count_roots()
    for left, right in zip(roots, roots[1:]):
        assert left.as_interval()[1] < right.as_interval()[0]
    for root in roots:
        if root.exact:
            assert poly.eval(sympy.Rational(root.value.numerator, root.value.denominator)) == 0
        else:
            lo = sympy.Rational(root.lo.numerator, root.lo.denominator)
            hi = sympy.Rational(root.hi.numerator, root.hi.denominator)
            assert poly.count_roots(lo, hi) == 1


def test_roots_closer_than_a_float_ulp_sort_exactly():
    # (w - a)^2 (w - b) with a < b both rounding to 1.0: neither linear factor
    # passes the rational-root search, so both roots come back as enclosures
    # wide enough to hold both
    a, b = 1 + F(1, 10**17), 1 + F(2, 10**17)
    roots = real_roots(from_roots(a, a, b))
    assert [r.multiplicity for r in roots] == [2, 1]
    assert compare_root(roots[0], a) == 0 and compare_root(roots[1], b) == 0
    # the reported enclosures are the ones isolation returned
    assert roots[0].as_interval() == real_roots(from_roots(a))[0].as_interval()
    assert roots[1].as_interval() == real_roots(from_roots(b))[0].as_interval()


def test_compare_root_recognizes_a_rational_root_left_to_isolation():
    # 10^13 w - (10^13 - 7): the root is 1 - 7/10^13, found only as an enclosure
    (root,) = real_roots([F(-(10**13 - 7)), F(10**13)])
    assert not root.exact
    assert compare_root(root, 1 - F(7, 10**13)) == 0
    assert compare_root(root, F(1)) == -1
    assert compare_root(root, 1 - F(8, 10**13)) == 1
    # and the unit root of 10^13 w^2 - (10^13 - 7) w - 7 ends as well
    unit = [r for r in real_roots([F(-7), F(-(10**13 - 7)), F(10**13)]) if r.approx > 0]
    assert compare_root(unit[0], F(1)) == 0
