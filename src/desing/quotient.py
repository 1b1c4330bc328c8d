"""Quotient-ring arithmetic modulo a circle or hyperbola identity.

Elements live in Q[c, s, r, params...] / (c^2 + sigma*s^2 - 1):

    sigma = +1  models the unit circle,     (c, s) = (cos, sin)
    sigma = -1  models the unit hyperbola,  (c, s) = (cosh, sinh)

Both relations are monic in c^2, so rewriting c^2 -> 1 - sigma*s^2 gives a
unique normal form with c-degree <= 1 in every term.  The radial variable r
and any parameters are untouched by reduction, which makes division by
powers of r termwise exact whenever it is possible at all.

Floats enter only through `TRIG`, the one table of (cos, sin) or
(cosh, sinh) by signature, and `poly.float_evaluator`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb
from typing import Mapping, Union

from .poly import Poly, float_evaluator

COS = "c"
SIN = "s"
RADIAL = "r"

RESERVED = (COS, SIN, RADIAL)

# float values of (c, s) at an angle, by signature
TRIG = {1: (math.cos, math.sin), -1: (math.cosh, math.sinh)}

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


def reduce_poly(base: Poly, sigma: int) -> Poly:
    """Rewrite every power c^e with e >= 2 using c^2 = 1 - sigma*s^2.

    Each term c^(2q+e)*m becomes c^e*m*(1 - sigma*s^2)^q, expanded by the
    binomial theorem in ascending powers of s, and the results are summed
    into one term map in the order they are met.
    """
    if COS not in base.vars or base.degree_in(COS) <= 1:
        return base
    vs = base.vars if SIN in base.vars else base.vars + (SIN,)
    ci, si = vs.index(COS), vs.index(SIN)
    pad = [0] * (len(vs) - len(base.vars))
    terms: dict = {}
    for exps, coeff in base.terms.items():
        q, rem = divmod(exps[ci], 2)
        stripped = list(exps) + pad
        stripped[ci] = rem
        for j in range(q + 1):
            key = list(stripped)
            key[si] += 2 * j
            key = tuple(key)
            s = terms.get(key, _ZERO) + coeff * (comb(q, j) * (-sigma) ** j)
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
    return Poly._raw(vs, terms)


class QuotientPoly:
    """A reduced representative of the quotient ring element."""

    __slots__ = ("sigma", "base")

    def __init__(self, sigma: int, base: Poly):
        if sigma not in (1, -1):
            raise ValueError(f"signature must be +1 or -1, got {sigma}")
        self.sigma = sigma
        self.base = reduce_poly(base, sigma)

    # -- lifting and compatibility -------------------------------------------

    def _lift(self, other):
        if isinstance(other, QuotientPoly):
            if other.sigma != self.sigma:
                raise ValueError("mixing quotient rings of different signature")
            return other
        if isinstance(other, (int, Fraction, Poly)):
            return QuotientPoly(self.sigma, other if isinstance(other, Poly) else Poly.const(other))
        return None

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        q = self._lift(other)
        if q is None:
            return NotImplemented
        return QuotientPoly(self.sigma, self.base + q.base)

    __radd__ = __add__

    def __neg__(self):
        return QuotientPoly(self.sigma, -self.base)

    def __sub__(self, other):
        q = self._lift(other)
        if q is None:
            return NotImplemented
        return QuotientPoly(self.sigma, self.base - q.base)

    def __rsub__(self, other):
        q = self._lift(other)
        if q is None:
            return NotImplemented
        return QuotientPoly(self.sigma, q.base - self.base)

    def __mul__(self, other):
        q = self._lift(other)
        if q is None:
            return NotImplemented
        return QuotientPoly(self.sigma, self.base * q.base)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = QuotientPoly(self.sigma, Poly.const(1))
        base = self
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"power must be a non-negative integer, got {n!r}")
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        q = self._lift(other) if not isinstance(other, QuotientPoly) else other
        if q is None:
            return NotImplemented
        return self.sigma == q.sigma and self.base == q.base

    def __hash__(self):
        return hash((self.sigma, self.base))

    def is_zero(self) -> bool:
        return self.base.is_zero()

    # -- radial structure --------------------------------------------------------

    def min_radial_degree(self) -> int:
        return self.base.min_degree_in(RADIAL)

    def div_radial(self, k: int) -> "QuotientPoly":
        """Exact division by r^k (raises NotDivisible if some term lacks r^k)."""
        if k == 0:
            return self
        return QuotientPoly(self.sigma, self.base.shift({RADIAL: k}))

    # -- evaluation ---------------------------------------------------------------

    def eval_float(self, angle: float, radius: float, bindings: "Mapping[str, Scalar] | None" = None) -> float:
        """One-point float evaluation; parameters are bound exactly first."""
        cos, sin = TRIG[self.sigma]
        base = self.base.bind({k: v for k, v in (bindings or {}).items() if k in self.base.vars})
        return float_evaluator([base], (COS, SIN, RADIAL))(cos(angle), sin(angle), radius)[0]

    # -- printing ------------------------------------------------------------------

    def pretty(self, angle_symbol: "str | None" = None, radial_symbol: "str | None" = None) -> str:
        if self.sigma == 1:
            ang = angle_symbol or "theta"
            disp = {COS: f"cos({ang})", SIN: f"sin({ang})", RADIAL: radial_symbol or "r"}
        else:
            ang = angle_symbol or "phi"
            disp = {COS: f"cosh({ang})", SIN: f"sinh({ang})", RADIAL: radial_symbol or "rho"}
        return self.base.format(disp)

    def __str__(self):
        return str(self.base)

    def __repr__(self):
        rel = "c^2+s^2=1" if self.sigma == 1 else "c^2-s^2=1"
        return f"QuotientPoly[{rel}]({self.base.format()!r})"

