from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from desing.realroots import (
    _integer_form,
    _primitive,
    _sign_at,
    _variations,
    cauchy_bound,
    compare_root,
    interval_eval,
    poly_gcd,
    real_roots,
    refine_root,
    sturm_chain,
    value_at_root,
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


def times(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_from_roots_helper():
    # (x - 1)(x + 2) = x^2 + x - 2
    assert from_roots(1, -2) == coeffs(-2, 1, 1)


def test_poly_gcd_primitive():
    # 2 (x - 1)(x - 2)(x - 3) and -3 (x - 2)(x - 3)(x - 5) share (x - 2)(x - 3)
    p = [2 * c for c in _integer_form(from_roots(1, 2, 3))]
    q = [-3 * c for c in _integer_form(from_roots(2, 3, 5))]
    assert poly_gcd(p, q) == poly_gcd(q, p) == [6, -5, 1]
    # (2x - 1) and (4x - 2) share 2x - 1, not the monic x - 1/2
    assert poly_gcd([-1, 2], [2, -4]) == [-1, 2]


def test_yun_decomposition():
    # x^2 * (x^2 - 2): levels are {x^2 - 2} at multiplicity 1, {x} at 2
    assert yun_squarefree([0, 0, -2, 0, 1]) == [([-2, 0, 1], 1), ([0, 1], 2)]
    # (2x - 1)^3: the factor stays primitive, not monic
    assert yun_squarefree([-1, 6, -12, 8]) == [([-1, 2], 3)]


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
    assert float(roots[0].lo) == pytest.approx(-(2**0.5), abs=1e-11)
    assert float(roots[1].lo) == pytest.approx(2**0.5, abs=1e-11)


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
    assert float(irr[0].lo) == pytest.approx(-(3**0.5), abs=1e-11)
    assert float(irr[1].lo) == pytest.approx(3**0.5, abs=1e-11)


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


def _root_count(p):
    """Sturm's count of the real roots of the integer list p."""
    chain = sturm_chain(p)
    b = cauchy_bound(p)
    return _variations(chain, -b.numerator, b.denominator) - _variations(chain, b.numerator, b.denominator)


def test_sturm_counts():
    assert _root_count([-2, 0, 1]) == 2


def test_angular_restriction_example():
    # y*(3*y - 2) from the reference system at a = 1: roots 0 and 2/3
    roots = real_roots(coeffs(0, -2, 3))
    assert [r.value for r in roots] == [F(0), F(2, 3)]


def test_double_root_at_zero():
    roots = real_roots(coeffs(0, 0, 1))  # y^2
    assert [(r.value, r.multiplicity) for r in roots] == [(F(0), 2)]


def test_interval_eval_encloses_value():
    p = [-2, 0, 1]
    lo, hi = interval_eval(p, F(141421, 100000), F(141422, 100000))
    exact = _fraction_horner(p, F(1414215, 1000000))
    assert lo <= exact <= hi


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
    ints = _integer_form(cs)
    box_lo, box_hi = min(a, b), max(a, b)
    lo = hi = F(0)
    for c in reversed(ints):
        prods = (lo * box_lo, lo * box_hi, hi * box_lo, hi * box_hi)
        lo, hi = min(prods) + c, max(prods) + c
    assert interval_eval(ints, box_lo, box_hi) == (lo, hi)


@settings(max_examples=60, deadline=None)
@given(polynomials())
def test_sturm_count_matches_sympy(cs):
    sympy = pytest.importorskip("sympy")
    if len(cs) < 2:
        return
    assert _root_count(_integer_form(cs)) == _sympy_poly(sympy, cs).count_roots()


@settings(max_examples=60, deadline=None)
@given(st.lists(polynomials(max_degree=3), min_size=1, max_size=3))
def test_yun_matches_sympy_sqf_list(parts):
    # the product of parts[i]^(i+1), so every level up to 3 can be filled
    sympy = pytest.importorskip("sympy")
    p = [F(1)]
    for i, part in enumerate(parts):
        for _ in range(i + 1):
            p = times(p, part)
    p = _integer_form(p)
    if len(p) < 2:
        return
    _, levels = sympy.Poly(p[::-1], sympy.Symbol("x")).sqf_list()
    want = [([int(c) for c in f.all_coeffs()[::-1]], m) for f, m in levels]
    assert yun_squarefree(p) == sorted(want, key=lambda level: level[1])


@settings(max_examples=60, deadline=None)
@given(polynomials(), st.fractions(min_value=-1000, max_value=1000, max_denominator=1000).filter(bool))
def test_real_roots_are_invariant_under_scaling(cs, lam):
    # real_roots converts its input once; every result, the factors included,
    # is independent of the scale and sign of the input
    assert real_roots([lam * c for c in cs]) == real_roots(cs)


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
        assert (left.value if left.exact else left.hi) < (right.value if right.exact else right.lo)
    for root in roots:
        if root.exact:
            assert poly.eval(sympy.Rational(root.value.numerator, root.value.denominator)) == 0
        else:
            lo = sympy.Rational(root.lo.numerator, root.lo.denominator)
            hi = sympy.Rational(root.hi.numerator, root.hi.denominator)
            assert poly.count_roots(lo, hi) == 1


def test_roots_closer_than_a_float_ulp_sort_exactly():
    # w^2 - 2w + 1 - 2/10^34 has the irrational roots 1 -+ sqrt(2)/10^17, which
    # both round to 1.0; squared and times (w - 1), the exact root 1 sorts
    # between them
    q = coeffs(1 - F(2, 10**34), -2, 1)
    roots = real_roots(times(times(q, q), coeffs(-1, 1)))
    assert [r.multiplicity for r in roots] == [2, 1, 2]
    assert [r.value for r in roots] == [None, 1, None]
    assert all(float(r.lo) == float(r.hi) == 1.0 for r in roots if not r.exact)
    below, _, above = roots
    assert compare_root(below, 1 - F(14143, 10**21)) == 1
    assert compare_root(below, 1 - F(14142, 10**21)) == -1
    assert compare_root(above, 1 + F(14142, 10**21)) == 1
    assert compare_root(above, 1 + F(14143, 10**21)) == -1
    # the reported enclosures are the ones isolation returned
    assert [(r.lo, r.hi) for r in (below, above)] == [(r.lo, r.hi) for r in real_roots(q)]


def test_compare_root_recognizes_a_rational_root_left_to_isolation():
    # 10^13 w - (10^13 - 7): the root 1 - 7/10^13 comes back exact, although
    # its denominator is far beyond any trial division
    (root,) = real_roots([F(-(10**13 - 7)), F(10**13)])
    assert root.value == 1 - F(7, 10**13)
    assert compare_root(root, F(1)) == -1
    assert compare_root(root, 1 - F(8, 10**13)) == 1
    # and so do both roots of 10^13 w^2 - (10^13 - 7) w - 7
    roots = real_roots([F(-7), F(-(10**13 - 7)), F(10**13)])
    assert [r.value for r in roots] == [-F(7, 10**13), F(1)]


def test_value_at_root_refines_past_a_close_rational():
    # 10^8 w - 141421356 does not vanish at sqrt(2) = 1.41421356237..., but
    # its interval over a wide enclosure of sqrt(2) straddles 0
    neg, pos = real_roots(coeffs(-2, 0, 1), width=F(1))
    lo, hi = interval_eval([-141421356, 10**8], pos.lo, pos.hi)
    assert lo < 0 < hi
    assert value_at_root([-141421356, 10**8], pos) > 0
    assert value_at_root([-141421357, 10**8], pos) < 0
    assert value_at_root([-141421356, 10**8], neg) < 0
    # (w^2 - 2)(w + 1) vanishes at both roots
    assert value_at_root([-2, -2, 1, 1], pos) == value_at_root([-2, -2, 1, 1], neg) == 0


big_rationals = st.builds(F, st.integers(-(2**64), 2**64), st.integers(1, 2**64))


@settings(max_examples=40, deadline=None)
@given(st.lists(big_rationals, min_size=1, max_size=4), st.integers(-9, 9), st.integers(-9, 9))
def test_big_rational_roots_come_back_exact(rats, b, c):
    # products of rational linear factors times the quadratic w^2 + b w + c,
    # which has no rational root
    sympy = pytest.importorskip("sympy")
    disc = b * b - 4 * c
    assume(disc < 0 or isqrt(disc) ** 2 != disc)
    p = coeffs(c, b, 1)
    for r in rats:
        p = times(p, [-r, F(1)])
    roots = real_roots(p)
    got = Counter(r.value for r in roots if r.exact for _ in range(r.multiplicity))
    assert got == Counter(rats)
    want = Counter(r for r in _sympy_poly(sympy, p).real_roots() if r.is_Rational)
    assert Counter({sympy.Rational(v.numerator, v.denominator): n for v, n in got.items()}) == want
    assert len([r for r in roots if not r.exact]) == (2 if disc > 0 else 0)


@settings(max_examples=40, deadline=None)
@given(polynomials(), polynomials(), st.booleans())
def test_value_at_root_has_the_exact_sign(cs, qs, plant):
    # a planted q shares every root of cs, which the gcd test must find; wide
    # enclosures make the interval of q straddle 0 where q does not vanish
    sympy = pytest.importorskip("sympy")
    if len(cs) < 2:
        return
    if plant:
        qs = times(qs, cs)
    w = sympy.Symbol("x")
    q = _integer_form(qs)
    q_expr = _sympy_poly(sympy, [F(c) for c in q]).as_expr()
    roots = real_roots(cs, width=F(1))
    oracle = sorted(set(_sympy_poly(sympy, cs).real_roots(radicals=False)), key=lambda r: r.evalf(50))
    assert len(roots) == len(oracle)
    for root, alpha in zip(roots, oracle):
        if sympy.rem(q_expr, sympy.minimal_polynomial(alpha, w), w) == 0:
            want = 0
        else:
            want = int(sympy.sign(q_expr.subs(w, alpha).evalf(50)))
        got = value_at_root(q, root)
        assert (got > 0) - (got < 0) == want
