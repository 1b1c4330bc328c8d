"""Certified real-root isolation for univariate rational polynomials.

Coefficient lists are dense, index = degree.  `real_roots` converts its
rational input once into an integer list, and everything below it takes and
returns integer lists.  The pipeline is classical: Yun's square-free
decomposition recovers multiplicities, then Sturm-sequence isolation plus
sign-change bisection encloses every real root of each square-free factor.
A rational root n/d of a factor that leads with L has d | L, so it is m/L
for an integer m; an enclosure narrower than 1/L holds at most one such
point, and testing that one point decides whether the root is rational.
Everything is exact, so no root is ever missed or invented; rational roots
come back exact and irrational roots as certified enclosures.

The sign of a polynomial q at a root is decided exactly as well (Yap,
Fundamental Problems of Algorithmic Algebra, 2000, ch. 7): interval Horner
over the enclosure settles it unless the enclosure of q straddles 0, and then
q vanishes at the root exactly when gcd(factor, q) changes sign across the
enclosure; otherwise refining the root makes the enclosure of q exclude 0.

Integers suffice throughout.  Yun's decomposition (Yun, SYMSAC 1976) divides
only by gcds, and a gcd is kept primitive with a positive leading
coefficient, so by Gauss's lemma every division is exact over the integers;
scaling a gcd by a rational lambda scales both of Yun's running polynomials
by 1/lambda and leaves the algorithm unchanged.  Every square-free factor is
such a gcd, whatever the scale and sign of the input.  A rational point is a pair
(n, d) with d > 0, and the sign of p(n/d) is the sign of the homogenised
value sum c_i n^i d^(deg - i) = d^deg p(n/d).  The Sturm chain is a
primitive integer remainder sequence: each member is a positive multiple of
the classical -rem/|lc(rem)| member.  Interval Horner runs over integer
endpoints with the box on one common denominator and divides once at the
end.  Sturm variation counts, the sign tests, the bisection, the Cauchy
bound and the min/max in interval products do not change when a polynomial
is scaled by a nonzero rational (a positive one, for the interval products),
so the isolation of lambda*p visits the same rational points and returns the
same Fractions as that of p, for every nonzero rational lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import zip_longest
from math import gcd, lcm
from typing import Sequence

_Z = Fraction(0)
DEFAULT_WIDTH = Fraction(1, 10**12)


# -- integer polynomial helpers ---------------------------------------------------


def _integer_form(cs) -> "list[int]":
    """The rational coefficients times the lcm of their denominators."""
    den = lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs]


def _primitive(ints) -> "list[int]":
    """Divide out the positive content; signs and roots are unchanged."""
    g = gcd(*ints)
    return [c // g for c in ints] if g > 1 else list(ints)


def _trim(cs: "list[int]") -> "list[int]":
    """Pop the trailing zeros of `cs` in place and return it."""
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _add(p, q, s=1) -> "list[int]":
    """p + s*q, trimmed."""
    return _trim([x + s * y for x, y in zip_longest(p, q, fillvalue=0)])


def _derivative(cs) -> "list[int]":
    return [c * i for i, c in enumerate(cs)][1:]


def _quotient(a, b) -> "list[int]":
    """a / b for a primitive b that divides a over the rationals.  By Gauss's
    lemma the quotient has integer coefficients, so every step of the long
    division divides exactly."""
    a = list(a)
    nb, lead = len(b), b[-1]
    q = [0] * (len(a) - nb + 1)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = a[i + nb - 1] // lead
        if c:
            for j in range(nb - 1):
                a[i + j] -= c * b[j]
    return q


def poly_gcd(a, b) -> "list[int]":
    """The primitive gcd with a positive leading coefficient, by a primitive
    integer remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a if a[-1] > 0 else [-c for c in a]


def yun_squarefree(p) -> "list[tuple[list[int], int]]":
    """Square-free decomposition of a nonzero integer list:
    [(factor, multiplicity)] with the factors pairwise coprime, square-free,
    primitive and leading positive.  Every factor is a gcd."""
    dp = _derivative(p)
    g = poly_gcd(p, dp)
    w = _quotient(p, g)
    z = _add(_quotient(dp, g), _derivative(w), -1)
    out = []
    i = 1
    while len(w) >= 2:
        h = poly_gcd(w, z)  # [1] when this multiplicity level is empty
        if len(h) >= 2:
            out.append((h, i))
        w = _quotient(w, h)
        z = _add(_quotient(z, h), _derivative(w), -1)
        i += 1
    return out


def _homogeneous_value(ints, n: int, d: int) -> int:
    """sum c_i n^i d^(deg - i), which is d^deg p(n/d); d > 0."""
    if not ints:
        return 0
    acc = ints[-1]
    dp = d
    for i in range(len(ints) - 2, -1, -1):
        acc = acc * n + ints[i] * dp
        dp *= d
    return acc


def _sign_at(ints, n: int, d: int) -> int:
    v = _homogeneous_value(ints, n, d)
    return (v > 0) - (v < 0)


# -- Sturm isolation --------------------------------------------------------------


def cauchy_bound(p) -> Fraction:
    return 1 + Fraction(max((abs(c) for c in p[:-1]), default=0), abs(p[-1]))


def _pseudo_remainder(a, b) -> "list[int]":
    """|lc(b)|^k * rem(a, b) for some k >= 0, over the integers: a positive
    multiple of the remainder, so it has the remainder's signs."""
    r = list(a)
    nb = len(b)
    scale = abs(b[-1])
    negate = b[-1] < 0
    while len(r) >= nb:
        lead = r.pop()
        if lead:
            if negate:
                lead = -lead
            shift = len(r) - (nb - 1)
            if scale != 1:
                r = [scale * c for c in r]
            for j in range(nb - 1):
                r[shift + j] -= lead * b[j]
    return _trim(r)


def sturm_chain(p) -> "list[list[int]]":
    """Sturm sequence p, p', -rem, ... of the integer list p, the members
    after p primitive.

    Each member is a positive multiple of the classical member (p, p', then
    -rem/|lc(rem)|), so every sign count is the classical one."""
    chain = [p, _primitive(_derivative(p))]
    while chain[-1]:
        r = _pseudo_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in _primitive(r)])
    return [c for c in chain if c]


def _variations(chain, n: int, d: int) -> int:
    count = 0
    last = 0
    for p in chain:
        s = _sign_at(p, n, d)
        if s:
            if last and s != last:
                count += 1
            last = s
    return count


def isolate_squarefree(p) -> "tuple[list[Fraction], list[tuple[Fraction, Fraction]]]":
    """Isolate all real roots of a square-free integer polynomial.

    Returns (exact_roots_hit, isolating_intervals); every interval contains
    exactly one simple root and has a strict sign change at its endpoints.
    """
    chain = sturm_chain(p)
    bound = cauchy_bound(p)
    exact: "list[Fraction]" = []
    intervals: "list[tuple[Fraction, Fraction]]" = []

    # Points are integer numerators over the common denominator d of the
    # interval being split; bisection doubles d.
    def rec(lo, hi, d, vlo, vhi):
        n = vlo - vhi
        if n <= 0:
            return
        if n == 1 and _sign_at(p, lo, d) * _sign_at(p, hi, d) < 0:
            intervals.append((Fraction(lo, d), Fraction(hi, d)))
            return
        mid, lo, hi, d = lo + hi, 2 * lo, 2 * hi, 2 * d
        if _sign_at(p, mid, d) == 0:
            exact.append(Fraction(mid, d))
            # probe mid -+ (hi - lo)/64, halving the offset until both probes
            # lie inside, miss the root and are one Sturm count apart
            offset = hi - lo
            lo, hi, mid, d = 64 * lo, 64 * hi, 64 * mid, 64 * d
            while True:
                a, b = mid - offset, mid + offset
                if (
                    lo < a
                    and b < hi
                    and _sign_at(p, a, d) != 0
                    and _sign_at(p, b, d) != 0
                ):
                    va, vb = _variations(chain, a, d), _variations(chain, b, d)
                    if va - vb == 1:
                        rec(lo, a, d, vlo, va)
                        rec(b, hi, d, vb, vhi)
                        return
                lo, hi, mid, d = 2 * lo, 2 * hi, 2 * mid, 2 * d
        else:
            vmid = _variations(chain, mid, d)
            rec(lo, mid, d, vlo, vmid)
            rec(mid, hi, d, vmid, vhi)

    bn, bd = bound.numerator, bound.denominator
    rec(-bn, bn, bd, _variations(chain, -bn, bd), _variations(chain, bn, bd))
    return exact, intervals


def refine(ints, lo: Fraction, hi: Fraction, width: Fraction):
    """Shrink a sign-change interval of the integer form `ints` below `width`
    by bisection.

    Returns ('exact', root) when a bisection point lands on the root,
    otherwise ('interval', lo, hi).
    """
    d = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    b = hi.numerator * (d // hi.denominator)
    wn, wd = width.numerator, width.denominator
    slo = _sign_at(ints, a, d)
    while (b - a) * wd >= wn * d:
        mid, a, b, d = a + b, 2 * a, 2 * b, 2 * d
        smid = _sign_at(ints, mid, d)
        if smid == 0:
            return ("exact", Fraction(mid, d))
        if (slo < 0) != (smid < 0):
            b = mid
        else:
            a, slo = mid, smid
    return ("interval", Fraction(a, d), Fraction(b, d))


# -- public root records ------------------------------------------------------------


@dataclass(frozen=True)
class RealRoot:
    value: "Fraction | None"  # exact rational root, when known
    lo: "Fraction | None"  # certified enclosure for irrational roots
    hi: "Fraction | None"
    multiplicity: int
    factor: "tuple[int, ...]"  # primitive integer form of the square-free factor

    @property
    def exact(self) -> bool:
        return self.value is not None


def refine_root(root: RealRoot, width: Fraction) -> RealRoot:
    if root.exact or root.hi - root.lo < width:
        return root
    status = refine(root.factor, root.lo, root.hi, width)
    if status[0] == "exact":
        return RealRoot(status[1], None, None, root.multiplicity, root.factor)
    return RealRoot(None, status[1], status[2], root.multiplicity, root.factor)


def rational_roots(p, mult: int, width: Fraction) -> "list[RealRoot]":
    """Every real root of a square-free primitive integer polynomial, the
    rational ones exact.

    A root at 0 is read off the coefficients, and the rest are isolated in p
    with its factor x stripped.  With L the absolute leading coefficient of
    that polynomial, each enclosure is refined below 1/L and the one point
    m/L strictly inside it is tested; when that point is not the root, the
    root is irrational and its enclosure is refined on below `width`.  Every
    root carries the stripped polynomial as its factor."""
    at_zero = p[0] == 0
    if at_zero:
        p = p[1:]  # square-free, so x divides p once
    ints = tuple(p)
    found = [RealRoot(_Z, None, None, mult, ints)] if at_zero else []
    if len(ints) < 2:
        return found
    exact, intervals = isolate_squarefree(p)
    lead = abs(ints[-1])
    found += [RealRoot(r, None, None, mult, ints) for r in exact]
    for lo, hi in intervals:
        root = refine_root(RealRoot(None, lo, hi, mult, ints), Fraction(1, lead))
        if not root.exact:
            m = root.lo.numerator * lead // root.lo.denominator + 1
            if m * root.hi.denominator < root.hi.numerator * lead and _sign_at(ints, m, lead) == 0:
                root = RealRoot(Fraction(m, lead), None, None, mult, ints)
            else:
                root = refine_root(root, width)
        found.append(root)
    return found


def refine_apart(root: RealRoot, c: "Fraction | int") -> RealRoot:
    """The same root with an enclosure that excludes the rational c, or exact.

    Refines a copy until the enclosure misses c, which terminates because an
    enclosed root is irrational."""
    while not root.exact and root.lo < c < root.hi:
        root = refine_root(root, (root.hi - root.lo) / 2)
    return root


def compare_root(root: RealRoot, c: "Fraction | int") -> int:
    """The exact sign of root - c, for a rational c."""
    root = refine_apart(root, c)
    if root.exact:
        return (root.value > c) - (root.value < c)
    return 1 if c <= root.lo else -1  # enclosure endpoints are never roots


def _compare_roots(a: RealRoot, b: RealRoot) -> int:
    """The exact order of two distinct roots; refines copies of overlapping
    enclosures, which terminates because the roots differ."""
    while True:
        if b.exact:
            return compare_root(a, b.value)
        if a.exact:
            return -compare_root(b, a.value)
        if a.hi <= b.lo:
            return -1
        if b.hi <= a.lo:
            return 1
        a = refine_root(a, (a.hi - a.lo) / 2)
        b = refine_root(b, (b.hi - b.lo) / 2)


def real_roots(coeffs: Sequence[Fraction], width: Fraction = DEFAULT_WIDTH) -> "list[RealRoot]":
    """All distinct real roots with multiplicities, in exact increasing order;
    rational roots are exact and irrational ones enclosed below `width`."""
    p = _trim(_integer_form(coeffs))
    if not p:
        raise ValueError("the zero polynomial has every point as a root")
    found = [r for factor, mult in yun_squarefree(p) for r in rational_roots(factor, mult, width)]
    found.sort(key=cmp_to_key(_compare_roots))
    return found


# -- signs at a root ---------------------------------------------------------------------


def interval_eval(ints, lo: Fraction, hi: Fraction) -> "tuple[Fraction, Fraction]":
    """Interval Horner of the integer list `ints` over [lo, hi], exactly as
    Fraction interval arithmetic would compute it.

    Runs over integers: after t steps the enclosure is [lo, hi] / d^t, with
    d the common denominator of the box, so it divides once at the end."""
    d = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    b = hi.numerator * (d // hi.denominator)
    low = high = 0
    dp = 1
    for k in reversed(ints):
        dp *= d
        prods = (low * a, low * b, high * a, high * b)
        low, high = min(prods) + k * dp, max(prods) + k * dp
    return Fraction(low, dp), Fraction(high, dp)


def poly_value(ints, x: Fraction) -> Fraction:
    """The integer polynomial `ints` at the rational x, exactly."""
    n, d = x.numerator, x.denominator
    return Fraction(_homogeneous_value(ints, n, d), d ** max(len(ints) - 1, 0))


def value_at_root(q, root: RealRoot) -> Fraction:
    """A rational with the exact sign of the integer polynomial q at the root.

    At an exact root this is q's value there.  At an enclosed root it is 0
    when q vanishes at the root, and otherwise q at the midpoint of an
    enclosure over which interval Horner keeps q away from 0.  While the
    enclosure of q straddles 0, q vanishes at the root exactly when
    gcd(factor, q) changes sign across the root's enclosure: the gcd's roots
    are simple roots of the factor, and the enclosure holds only this one.
    Otherwise refining a copy of the root makes the enclosure of q exclude 0."""
    if root.exact:
        return poly_value(q, root.value)
    lo, hi = interval_eval(q, root.lo, root.hi)
    if lo <= 0 <= hi:
        g = poly_gcd(root.factor, q)
        if _sign_at(g, root.lo.numerator, root.lo.denominator) != _sign_at(
            g, root.hi.numerator, root.hi.denominator
        ):
            return _Z
        while lo <= 0 <= hi:
            root = refine_root(root, (root.hi - root.lo) / 2)
            lo, hi = interval_eval(q, root.lo, root.hi)
    return poly_value(q, (root.lo + root.hi) / 2)
