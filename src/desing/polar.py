"""Polar blow-up through the circle or the hyperbola, in the quotient ring.

The blow-up substitutes x = radius*c, y = radius*s where (c, s) satisfies
c^2 + sigma*s^2 = 1 and differentiates through the parametrization.  Both
images are monomials, so the substitution is one exponent rewrite per term,
x^m*y^n -> r^(m+n)*c^m*s^n, for any field, homogeneous or not.  The
resulting 2x2 linear system for (radial', angular') has determinant exactly
radius in the quotient ring, so the solve needs one division by the radial
variable and nothing else.  One formula serves both signatures: the solve
runs in `Poly`, reducing with `reduce_poly` only the products by c, where a
c^2 can appear, and wraps each finished component in a `QuotientPoly`.  The
division by the radius and the desingularizing one by radius^k are exponent
shifts (`Poly.shift`, `QuotientPoly.div_radial`).  Trigonometric
or hyperbolic functions are never expanded symbolically: `as_callable`
binds the parameters and compiles both components over (c, s, r) with the
same evaluator the plane and chart views use, into one function of
(angle, radius) whose first lines set (c, s) to the (cos, sin) or
(cosh, sinh) of the angle.

Branch conventions for the hyperbola:

    x-branch: x = rho*c, y = rho*s   (covers x >= rho > 0, i.e. the right wing)
    y-branch: x = rho*s, y = rho*c   (roles swapped, covers the upper wing)

The y-branch is the x-branch with the (state variable, component) pairs of
the field swapped, so all three models share one solve.  `MODELS` names
each model's (signature, branch) and is the only place they are stated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Mapping

from .errors import NameCollision, NotDivisible, SingularAngle
from .poly import Poly, float_evaluator
from .quotient import COS, NAMES, RADIAL, RESERVED, SIN, TRIG, QuotientPoly, reduce_poly
from .vectorfield import Param, VectorField, bind_components

SPHERE = 1
HYPERBOLA = -1

# float guard for the excluded angles of bridge_alpha1; pi/2 itself is not
# representable, so an exact zero test would never fire
_COS_SINGULAR_TOL = 1e-12


class Branch(Enum):
    X = "x"
    Y = "y"


MODELS = {
    "sphere": (SPHERE, Branch.X),
    "hyperbolic-x": (HYPERBOLA, Branch.X),
    "hyperbolic-y": (HYPERBOLA, Branch.Y),
}


@dataclass(frozen=True)
class PolarField:
    sigma: int  # +1 sphere, -1 hyperboloid
    branch: Branch
    angular: QuotientPoly  # angle'
    radial: QuotientPoly  # radius'
    desingularized: bool
    k: "int | None"  # desingularization power; None for the zero field
    params: "tuple[Param, ...]" = ()

    @property
    def model(self) -> str:
        return next(name for name, key in MODELS.items() if key == (self.sigma, self.branch))

    @property
    def angle_name(self) -> str:
        return NAMES[self.sigma][0]

    @property
    def radial_name(self) -> str:
        return NAMES[self.sigma][1]

    def as_callable(self, bindings: Mapping) -> Callable:
        """Float evaluator (angle, radius) -> (angle', radius') with
        parameters bound."""
        polys = bind_components((self.angular.base, self.radial.base), self.params, bindings)
        return float_evaluator(polys, (COS, SIN, RADIAL), TRIG[self.sigma])

    def pretty(self) -> str:
        return (
            f"{self.angle_name}' = {self.angular.pretty()}\n"
            f"{self.radial_name}' = {self.radial.pretty()}"
        )


def _check_names(f: VectorField):
    taken = set(f.param_names())
    clash = taken & set(RESERVED)
    if clash:
        raise NameCollision(
            f"parameter name(s) {sorted(clash)} collide with the quotient-ring "
            f"variables {RESERVED}"
        )


def _push(poly: Poly, sx: str, sy: str) -> Poly:
    """`poly` with sx = r*c and sy = r*s, one exponent rewrite per term that
    merges none: x^m*y^n*rest -> r^(m+n)*c^m*s^n*rest.  Returns exactly what
    `substitute` returns: the other variables in order, then each image's as
    the terms first use sx and sy."""
    images = {sx: (RADIAL, COS), sy: (RADIAL, SIN)}
    state = [(i, images[v]) for i, v in enumerate(poly.vars) if v in images]
    rest = [i for i, v in enumerate(poly.vars) if v not in images]
    vs = [poly.vars[i] for i in rest]
    used = {}  # a used state variable's index -> c or s
    for exps in poly.nums:
        for i, image in state:
            if exps[i] and i not in used:
                used[i] = image[1]
                vs += [n for n in image if n not in vs]
    pos = {v: j for j, v in enumerate(vs)}
    ir, pad = pos.get(RADIAL), [0] * (len(vs) - len(rest))
    terms = {}
    for exps, num in poly.nums.items():
        new = [exps[i] for i in rest] + pad
        for i, n in used.items():
            new[pos[n]] = exps[i]
            new[ir] += exps[i]
        terms[tuple(new)] = num
    return Poly._raw(tuple(vs), terms, poly.den)


def polar_pushforward(f: VectorField, sigma: int, branch: Branch = Branch.X) -> PolarField:
    """Induced field on the blown-up space, solved exactly in the quotient ring."""
    if sigma not in (SPHERE, HYPERBOLA):
        raise ValueError(f"signature must be +1 or -1, got {sigma}")
    _check_names(f)
    for name, comp in zip(f.state_vars, f.components()):
        # the angular solve divides by the radius; a nonzero f(0, 0) leaves a remainder
        origin = comp.bind({v: 0 for v in f.state_vars if v in comp.vars})
        if not origin.is_zero():
            raise NotDivisible(
                f"the blow-up needs f(0, 0) = 0 identically in the parameters, "
                f"but d{name}/dt = {origin} at the origin"
            )
    if sigma == SPHERE:
        branch = Branch.X
    (sx, sy), f1, f2 = f.state_vars, f.f1, f.f2
    if branch is Branch.Y:
        sx, sy, f1, f2 = sy, sx, f2, f1
    F1, F2 = (reduce_poly(_push(p, sx, sy), sigma) for p in (f1, f2))
    c, s = Poly.var(COS), Poly.var(SIN)
    # rows (x', y') = [[c, -sigma*r*s], [s, r*c]] (radial', angular');
    # det == r * (c^2 + sigma*s^2) == r.  A product by s, or a sum of reduced
    # terms, keeps the c-degree at most 1, so only the products by c reduce.
    # The division by r sorts the terms, so it comes before the reorder.
    order = tuple(f.param_names()) + (COS, SIN, RADIAL)
    radial = QuotientPoly(sigma, (reduce_poly(c * F1, sigma) + sigma * s * F2).reordered(order))
    angular = QuotientPoly(sigma, (reduce_poly(c * F2, sigma) - s * F1).shift({RADIAL: 1}).reordered(order))

    # the largest power that keeps one radius in the radial component, as in
    # the charts: the weights' k on every unit-weight field, also where the
    # angular component vanishes
    degs = [q.min_radial_degree() - d for q, d in ((angular, 0), (radial, 1)) if not q.is_zero()]
    return PolarField(
        sigma=sigma,
        branch=branch,
        angular=angular,
        radial=radial,
        desingularized=False,
        k=min(degs) if degs else None,
        params=f.params,
    )


def desingularize_polar(pf: PolarField) -> PolarField:
    """Divide both components by radial^k, k the stored index.

    The zero field carries no radial power to remove and is returned
    unchanged apart from the flag.
    """
    if pf.desingularized:
        raise ValueError("polar field is already desingularized")
    if pf.k is None:
        return replace(pf, desingularized=True)
    return replace(
        pf,
        angular=pf.angular.div_radial(pf.k),
        radial=pf.radial.div_radial(pf.k),
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
