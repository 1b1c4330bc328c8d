import pytest

from desing.errors import NotDivisible
from desing.poly import Poly, poly_vars
from desing.quotient import (
    COS,
    RADIAL,
    SIN,
    QuotientPoly,
    reduce_poly,
)
from desing.selfcheck import check_reduction_homomorphism

c, s, r, a = poly_vars(COS, SIN, RADIAL, "a")


def test_reduce_circle_cube():
    # c^3 = c*(1 - s^2) on the circle
    q = QuotientPoly(1, c**3)
    assert q.base == c - c * s**2


def test_reduce_hyperbola_cube():
    # a*c^3 = a*c*(1 + s^2) on the hyperbola; the sign difference against the
    # circle is what separates the two polar lemmas
    q = QuotientPoly(-1, a * c**3)
    assert q.base == a * c + a * c * s**2


def test_reduce_idempotent():
    p = 3 * c * s**2 - 2 * a * s * c**2
    once = reduce_poly(p, 1)
    assert reduce_poly(once, 1) == once
    assert QuotientPoly(1, once) == QuotientPoly(1, p)


def test_reduced_degree_bound():
    q = QuotientPoly(1, (c**2 + s**2) ** 3 * c**5)
    assert q.base.degree_in(COS) <= 1
    # c^2 + s^2 == 1 in the circle ring
    assert QuotientPoly(1, c**2 + s**2) == QuotientPoly(1, Poly.const(1))
    assert QuotientPoly(-1, c**2 - s**2) == QuotientPoly(-1, Poly.const(1))


def test_signature_mixing_rejected():
    with pytest.raises(ValueError):
        QuotientPoly(0, c)


def test_div_radial():
    q = QuotientPoly(1, r**2 * (a * c - 2 * s))
    assert q.div_radial(1) == QuotientPoly(1, r * (a * c - 2 * s))
    assert q.div_radial(2) == QuotientPoly(1, a * c - 2 * s)
    with pytest.raises(NotDivisible):
        q.div_radial(3)
    assert q.div_radial(0) == q


def test_homomorphism_random():
    res = check_reduction_homomorphism(seed=321)
    assert res.passed, res.detail


def _reduce_dropping_top(base, sigma):
    """reduce_poly with the last term of each binomial expansion left out."""
    if COS not in base.vars:
        return base
    ci = base.vars.index(COS)
    out = Poly.const(0)
    for exps, coeff in base.terms.items():
        q, rem = divmod(exps[ci], 2)
        stripped = Poly(base.vars, {exps[:ci] + (rem,) + exps[ci + 1 :]: coeff})
        top = (-sigma * s**2) ** q if q else 0
        out = out + stripped * ((1 - sigma * s**2) ** q - top)
    return out


def test_homomorphism_check_catches_broken_reduction(monkeypatch):
    import desing.quotient
    import desing.selfcheck

    for module in (desing.quotient, desing.selfcheck):
        monkeypatch.setattr(module, "reduce_poly", _reduce_dropping_top, raising=False)
    assert not check_reduction_homomorphism(0).passed


def test_eval_float_uses_right_functions():
    import math

    q = QuotientPoly(1, c**2 + s**2)
    assert q.eval_float(0.7, 2.0) == pytest.approx(1.0)
    h = QuotientPoly(-1, c**2 - s**2)
    assert h.eval_float(1.3, 0.5) == pytest.approx(1.0)


def test_pretty_rendering():
    q = QuotientPoly(1, 3 * c * s**2 * r)
    assert q.pretty() == "3*cos(theta)*sin(theta)^2*r"
    h = QuotientPoly(-1, 3 * c * s**2 * r)
    assert h.pretty() == "3*cosh(phi)*sinh(phi)^2*rho"
