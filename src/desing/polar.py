"""Polar blow-up through the circle or the hyperbola, in the quotient ring.

The blow-up substitutes x = radius*c, y = radius*s where (c, s) satisfies
c^2 + sigma*s^2 = 1 and differentiates through the parametrization.  Both
images are monomials, so the substitution is `Poly.monomial_map`.  The
resulting 2x2 linear system for (radial', angular') has determinant exactly
radius in the quotient ring, so the solve needs one division by the radial
variable and nothing else.  That division and the desingularizing one by
radius^k are `QuotientPoly.div_radial`, an exponent shift.  Trigonometric
or hyperbolic functions are never expanded symbolically; they only appear
at float-evaluation time.

Branch conventions for the hyperbola:

    x-branch: x = rho*c, y = rho*s   (covers x >= rho > 0, i.e. the right wing)
    y-branch: x = rho*s, y = rho*c   (roles swapped, covers the upper wing)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping

from .errors import NameCollision, SingularAngle
from .poly import Poly
from .quotient import COS, RADIAL, RESERVED, SIN, QuotientPoly
from .vectorfield import Param, VectorField

SPHERE = 1
HYPERBOLA = -1

# float guard for the excluded angles of bridge_alpha1; pi/2 itself is not
# representable, so an exact zero test would never fire
_COS_SINGULAR_TOL = 1e-12


class Branch(Enum):
    X = "x"
    Y = "y"


@dataclass(frozen=True)
class PolarField:
    sigma: int  # +1 sphere, -1 hyperboloid
    branch: Branch
    angular: QuotientPoly  # angle'
    radial: QuotientPoly  # radius'
    desingularized: bool
    k: "int | None"  # largest common radial power of the raw components
    params: "tuple[Param, ...]" = ()

    @property
    def angle_name(self) -> str:
        return "theta" if self.sigma == SPHERE else "phi"

    @property
    def radial_name(self) -> str:
        return "r" if self.sigma == SPHERE else "rho"

    def field_at(self, angle: float, radius: float, bindings: "Mapping | None" = None):
        """Float evaluation -> (angle', radius')."""
        b = {k: float(v) for k, v in (bindings or {}).items()}
        return (
            self.angular.eval_float(angle, radius, b),
            self.radial.eval_float(angle, radius, b),
        )

    def pretty(self) -> str:
        a, r = self.angle_name, self.radial_name
        return (
            f"{a}' = {self.angular.pretty(a, r)}\n"
            f"{r}' = {self.radial.pretty(a, r)}"
        )


def _check_names(f: VectorField):
    taken = set(f.param_names())
    clash = taken & set(RESERVED)
    if clash:
        raise NameCollision(
            f"parameter name(s) {sorted(clash)} collide with the quotient-ring "
            f"variables {RESERVED}"
        )


def polar_pushforward(f: VectorField, sigma: int, branch: Branch = Branch.X) -> PolarField:
    """Induced field on the blown-up space, solved exactly in the quotient ring."""
    if sigma not in (SPHERE, HYPERBOLA):
        raise ValueError(f"signature must be +1 or -1, got {sigma}")
    _check_names(f)
    if sigma == SPHERE:
        branch = Branch.X
    c, s, r = Poly.var(COS), Poly.var(SIN), Poly.var(RADIAL)
    sx, sy = f.state_vars
    if branch is Branch.X:
        sub = {sx: r * c, sy: r * s}
    else:
        sub = {sx: r * s, sy: r * c}

    def push(poly):
        return QuotientPoly(sigma, poly.monomial_map({v: b for v, b in sub.items() if v in poly.vars}))

    F1, F2 = push(f.f1), push(f.f2)
    C = QuotientPoly(sigma, c)
    S = QuotientPoly(sigma, s)
    if sigma == SPHERE:
        # rows (x', y') = [[c, -r*s], [s, r*c]] (radial', angular'); det == r
        radial = C * F1 + S * F2
        angular = (C * F2 - S * F1).div_radial(1)
    elif branch is Branch.X:
        # rows [[c, r*s], [s, r*c]]; det == r * (c^2 - s^2) == r
        radial = C * F1 - S * F2
        angular = (C * F2 - S * F1).div_radial(1)
    else:
        # y-branch swaps the roles of the two equations
        radial = C * F2 - S * F1
        angular = (C * F1 - S * F2).div_radial(1)

    order = tuple(f.param_names()) + (COS, SIN, RADIAL)
    angular = QuotientPoly(sigma, angular.base.reordered(order))
    radial = QuotientPoly(sigma, radial.base.reordered(order))

    if angular.is_zero() and radial.is_zero():
        k = None
    else:
        degs = [q.min_radial_degree() for q in (angular, radial) if not q.is_zero()]
        k = min(degs)
    return PolarField(
        sigma=sigma,
        branch=branch,
        angular=angular,
        radial=radial,
        desingularized=False,
        k=k,
        params=f.params,
    )


def desingularize_polar(pf: PolarField, k: "int | None" = None) -> PolarField:
    """Divide both components by radial^k (defaults to the stored index).

    The zero field carries no radial power to remove and is returned
    unchanged apart from the flag.
    """
    if pf.desingularized:
        raise ValueError("polar field is already desingularized")
    power = pf.k if k is None else k
    if power is None:
        return replace(pf, desingularized=True)
    return replace(
        pf,
        angular=pf.angular.div_radial(power),
        radial=pf.radial.div_radial(power),
        desingularized=True,
    )


# -- bridges between polar and directional coordinates ---------------------------------


def bridge_alpha1(theta: float, r: float) -> "tuple[float, float]":
    """Circle coordinates -> first directional chart: (r*cos(theta), tan(theta))."""
    c = math.cos(theta)
    if abs(c) <= _COS_SINGULAR_TOL:
        raise SingularAngle(f"alpha1 is not defined where cos(theta) = 0 (theta = {theta})")
    return (r * c, math.tan(theta))


def bridge_beta1(phi: float, rho: float) -> "tuple[float, float]":
    """x-hyperboloid -> first directional chart: (rho*cosh(phi), tanh(phi)).

    Total: defined and analytic for every (phi, rho).
    """
    return (rho * math.cosh(phi), math.tanh(phi))


def bridge_beta2(phi: float, rho: float) -> "tuple[float, float]":
    """x-hyperboloid -> second directional chart: (rho*sinh(phi), 1/tanh(phi))."""
    if phi == 0:
        raise SingularAngle("beta2 is not defined at phi = 0 (tanh(0) = 0)")
    return (rho * math.sinh(phi), 1.0 / math.tanh(phi))
