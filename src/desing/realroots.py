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

Most signs come from one float pass, and each is still exact.  Every
polynomial whose signs are tested is converted to floats once
(`_float_form`), and a test at n/d runs Horner at x = fl(n/d) for the value v
and the magnitude m = sum |c_i| |x|^i.  With u = 2^-53, rounding the
coefficients, the point and each Horner step moves v by at most about
(3 deg + 1) u m (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
ed., 2002, sec. 5.1), so |v| > (4 (deg + 1) + 8) u m certifies the sign of v;
the margin covers the rounding of m and of the bound.  That analysis needs a
point with relative error at most u and no overflow, so `_sign_at` decides
exactly when a coefficient or n/d is beyond the float range, when fl(n/d) is
subnormal, or 0 for n != 0, and when m lies outside [1e-280, 1e280].
Rounding is monotone, so each partial |v| is at most the partial m, and an
overflow anywhere makes m infinite or NaN; above 1e-280, the absolute errors
of underflowing steps are far below the margin.  Only `_sign_at` returns 0, so
a root is never met by a float.

`refine` ends where bisection ends, without walking there.  On the common
denominator d of (lo, hi) = (a/d, b/d), with w = b - a, the cells of level j
are [a 2^j + i w, a 2^j + (i + 1) w] / (d 2^j); after j steps the bisection
state is one of them, integers included, and it stops at the least level k
with w / (d 2^k) < width.  A float Newton iteration safeguarded by bisection
guesses the root, with a radius from the same error bound, and `refine`
tests the endpoints of the cell that holds the guess at the finest level at
most k whose cells are twice that radius wide.  (lo, hi) holds exactly one
root, a simple one, so a sign change puts the root inside the open cell.  No
grid point of that level or a coarser one lies inside an open cell of that
level, so bisection never stops early, and the open cells of a level are
disjoint, so the cell it passes through is this one: `refine` bisects on from
it.  A zero at an endpoint is the root itself, which bisection lands on at
the first level whose grid holds it.  When the endpoints agree the guess
missed, and bisection runs from (lo, hi).  So `refine` returns bisection's own
result whatever the guess, and the root layer's output does not depend on
floats.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import zip_longest
from math import gcd, inf, lcm, log2, ulp
from typing import Sequence

_Z = Fraction(0)
DEFAULT_WIDTH = Fraction(1, 10**12)
_UNIT = 2.0**-53  # the unit roundoff of a float
_FLOAT_MIN = sys.float_info.min  # the least normal float
_MIN_JUMP = 4  # the fewest bisection steps worth a jump to a cell
_NEWTON_STEPS = 60  # a cap; Newton from a bracket settles in far fewer


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


# -- the float filter -----------------------------------------------------------


def _float_form(ints):
    """The filter's view of the integer list `ints`: its error factor
    (4(deg+1)+8)*2^-53 and its (c, |c|) float coefficient pairs, highest
    degree first; None when a coefficient is beyond the float range."""
    try:
        cs = [float(c) for c in reversed(ints)]
    except OverflowError:
        return None
    return (4 * len(ints) + 8) * _UNIT, [(c, abs(c)) for c in cs]


def _float_point(n: int, d: int) -> "float | None":
    """fl(n/d) when it is a normal float or an exact 0, otherwise None."""
    try:
        x = n / d
    except OverflowError:
        return None
    return x if abs(x) >= _FLOAT_MIN or not n else None


def _filtered_sign(ints, form, x, n: int, d: int) -> int:
    """The exact sign of `ints` at n/d, with `form` its `_float_form` and x
    its `_float_point`: one float Horner pass when its error bound certifies
    a nonzero sign, `_sign_at` otherwise."""
    if form is not None and x is not None:
        err, cs = form
        ax = abs(x)
        v = m = 0.0
        for c, a in cs:
            v = v * x + c
            m = m * ax + a
        if 1e-280 <= m <= 1e280 and abs(v) > err * m:
            return 1 if v > 0 else -1
    return _sign_at(ints, n, d)


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


def _variations(chain, forms, n: int, d: int) -> int:
    """Sign changes along the chain at n/d; `forms` are its `_float_form`s."""
    x = _float_point(n, d)
    count = 0
    last = 0
    for p, form in zip(chain, forms):
        s = _filtered_sign(p, form, x, n, d)
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
    forms = [_float_form(q) for q in chain]
    bound = cauchy_bound(p)
    exact: "list[Fraction]" = []
    intervals: "list[tuple[Fraction, Fraction]]" = []

    def sign(n, d):
        return _filtered_sign(p, forms[0], _float_point(n, d), n, d)

    # Points are integer numerators over the common denominator d of the
    # interval being split; bisection doubles d.  The stack of
    # (lo, hi, d, vlo, vhi) pops the left half first: depth-first from the
    # left, so both lists come out in increasing order.
    bn, bd = bound.numerator, bound.denominator
    stack = [(-bn, bn, bd, _variations(chain, forms, -bn, bd), _variations(chain, forms, bn, bd))]
    while stack:
        lo, hi, d, vlo, vhi = stack.pop()
        n = vlo - vhi
        if n <= 0:
            continue
        if n == 1 and sign(lo, d) * sign(hi, d) < 0:
            intervals.append((Fraction(lo, d), Fraction(hi, d)))
            continue
        mid, lo, hi, d = lo + hi, 2 * lo, 2 * hi, 2 * d
        if sign(mid, d) == 0:
            exact.append(Fraction(mid, d))
            # probe mid -+ (hi - lo)/64, halving the offset until both probes
            # lie inside, miss the root and are one Sturm count apart
            offset = hi - lo
            lo, hi, mid, d = 64 * lo, 64 * hi, 64 * mid, 64 * d
            while True:
                a, b = mid - offset, mid + offset
                if lo < a and b < hi and sign(a, d) != 0 and sign(b, d) != 0:
                    va, vb = _variations(chain, forms, a, d), _variations(chain, forms, b, d)
                    if va - vb == 1:
                        stack += [(b, hi, d, vb, vhi), (lo, a, d, vlo, va)]
                        break
                lo, hi, mid, d = 2 * lo, 2 * hi, 2 * mid, 2 * d
        else:
            vmid = _variations(chain, forms, mid, d)
            stack += [(mid, hi, d, vmid, vhi), (lo, mid, d, vlo, vmid)]
    return exact, intervals


def _float_guess(ints, lo: Fraction, hi: Fraction) -> "tuple[float, float] | None":
    """(x, r): a float x within about r of the one root of `ints` in (lo, hi),
    by Newton's method safeguarded with bisection on a float bracket; None
    when the polynomial or the bracket is beyond the float range.

    Only a guess: `refine` checks every cell it takes from it exactly."""
    form = _float_form(ints)
    if form is None:
        return None
    try:
        left, right = float(lo), float(hi)
    except OverflowError:
        return None
    err, cs = form
    n, d = lo.numerator, lo.denominator
    rising = _filtered_sign(ints, form, _float_point(n, d), n, d) < 0
    x = 0.5 * left + 0.5 * right
    for _ in range(_NEWTON_STEPS):
        v = dv = m = 0.0
        ax = abs(x)
        for c, a in cs:
            dv = dv * x + v
            v = v * x + c
            m = m * ax + a
        if v == 0:
            break
        if (v > 0) == rising:
            right = x
        else:
            left = x
        nx = x - v / dv if dv else x
        if not left < nx < right:
            nx = 0.5 * left + 0.5 * right
        if abs(nx - x) <= ulp(x):
            break
        x = nx
    r = (abs(v) + err * m) / abs(dv) if dv else inf
    return x, max(r, ulp(x))


def refine(ints, lo: Fraction, hi: Fraction, width: Fraction, guess=None):
    """Shrink a sign-change interval of the integer form `ints` that holds
    exactly one root below `width`, with bisection's result.

    Returns ('exact', root) when a bisection point lands on the root,
    otherwise ('interval', lo, hi).  It jumps to bisection's cell from a
    `_float_guess` of the root (see the module docstring): `guess`, or its
    own when bisection would take `_MIN_JUMP` steps or more.
    """
    d = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    b = hi.numerator * (d // hi.denominator)
    w = b - a  # every cell of level j is [a 2^j + i w, a 2^j + (i+1) w] / (d 2^j)
    k = (w * width.denominator // (width.numerator * d)).bit_length()  # bisection's step count
    form = _float_form(ints)

    def sign(n, d):
        return _filtered_sign(ints, form, _float_point(n, d), n, d)

    slo = sign(a, d)
    if k >= _MIN_JUMP and form is not None:
        if guess is None:
            guess = _float_guess(ints, lo, hi)
        if guess is not None:
            x, r = guess
            # the finest level whose cells are at least 2r wide
            level = min(k, int(log2(w) - log2(d) - log2(r) - 1)) if r < inf else 0
            if level >= _MIN_JUMP:
                xn, xd = x.as_integer_ratio()
                i = min(max(((xn * d - a * xd) << level) // (xd * w), 0), (1 << level) - 1)
                dc = d << level
                left = (a << level) + i * w
                sl = sign(left, dc)
                if sl == 0:
                    return ("exact", Fraction(left, dc))
                sr = sign(left + w, dc)
                if sr == 0:
                    return ("exact", Fraction(left + w, dc))
                if sl != sr:
                    a, b, d, slo, k = left, left + w, dc, sl, k - level
    for _ in range(k):
        mid, a, b, d = a + b, 2 * a, 2 * b, 2 * d
        smid = sign(mid, d)
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


def refine_root(root: RealRoot, width: Fraction, guess=None) -> RealRoot:
    if root.exact or root.hi - root.lo < width:
        return root
    status = refine(root.factor, root.lo, root.hi, width, guess)
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
        guess = _float_guess(ints, lo, hi)
        root = refine_root(RealRoot(None, lo, hi, mult, ints), Fraction(1, lead), guess)
        if not root.exact:
            m = root.lo.numerator * lead // root.lo.denominator + 1
            if m * root.hi.denominator < root.hi.numerator * lead and _sign_at(ints, m, lead) == 0:
                root = RealRoot(Fraction(m, lead), None, None, mult, ints)
            else:
                root = refine_root(root, width, guess)
        found.append(root)
    return found


def compare_root(root: RealRoot, c: "Fraction | int") -> int:
    """The exact sign of root - c, for a rational c.

    An enclosure holds one simple root of its factor and no other, and the
    factor is nonzero at both endpoints; so for lo < c < hi its sign at c
    times its sign at lo is 0 when c is the root and 1 exactly when the root
    lies above c."""
    if root.exact:
        return (root.value > c) - (root.value < c)
    if not root.lo < c < root.hi:
        return 1 if c <= root.lo else -1  # enclosure endpoints are never roots
    f, lo = root.factor, root.lo
    return _sign_at(f, c.numerator, c.denominator) * _sign_at(f, lo.numerator, lo.denominator)


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
