"""Normal forms modulo a circle or hyperbola identity.

Elements of Q[c, s, r, params...] / (c^2 + sigma*s^2 - 1) are stored as
normal forms:

    sigma = +1  models the unit circle,     (c, s) = (cos, sin)
    sigma = -1  models the unit hyperbola,  (c, s) = (cosh, sinh)

Both relations are monic in c^2, so rewriting c^2 -> 1 - sigma*s^2 gives a
unique normal form with c-degree <= 1 in every term.  `QuotientPoly` is that
normal form and defines no arithmetic: sums and products are computed in
`Poly` and reduced with `reduce_poly` wherever a c^2 can appear.  Reduction
is a ring homomorphism, reduce(reduce(p)*reduce(q)) == reduce(p*q), which
`verify` checks on random polynomials.  The radial variable r and any
parameters are untouched by reduction, which makes division by powers of r
termwise exact whenever it is possible at all.

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

# float values of (c, s) at an angle, by signature; their names print (c, s)
TRIG = {1: (math.cos, math.sin), -1: (math.cosh, math.sinh)}

# printed names of (angle, radius), by signature
NAMES = {1: ("theta", "r"), -1: ("phi", "rho")}

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
    """A normal form of a quotient-ring element, with its signature."""

    __slots__ = ("sigma", "base")

    def __init__(self, sigma: int, base: Poly):
        if sigma not in (1, -1):
            raise ValueError(f"signature must be +1 or -1, got {sigma}")
        self.sigma = sigma
        self.base = reduce_poly(base, sigma)

    def __eq__(self, other):
        if not isinstance(other, QuotientPoly):
            return NotImplemented
        return self.sigma == other.sigma and self.base == other.base

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

    def pretty(self) -> str:
        angle, radius = NAMES[self.sigma]
        cos, sin = (fn.__name__ for fn in TRIG[self.sigma])
        return self.base.format({COS: f"{cos}({angle})", SIN: f"{sin}({angle})", RADIAL: radius})

    def __str__(self):
        return str(self.base)

    def __repr__(self):
        rel = "c^2+s^2=1" if self.sigma == 1 else "c^2-s^2=1"
        return f"QuotientPoly[{rel}]({self.base.format()!r})"
