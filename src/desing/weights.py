"""Quasi-homogeneous type inference for planar polynomial fields.

A field is quasi-homogeneous of type (alpha, beta) with index k when
scaling x by r^alpha and y by r^beta multiplies the first component by
r^(alpha+k) and the second by r^(beta+k).  Every monomial x^m y^n of f1
therefore imposes alpha*m + beta*n = alpha + k, and every monomial of f2
imposes alpha*m + beta*n = beta + k; parameters do not enter the count.

`infer_weights` solves the resulting homogeneous integer system exactly
and returns the primitive positive solution.  Zero components impose no
constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import AmbiguousWeights, NotQuasiHomogeneous
from .poly import Poly
from .vectorfield import VectorField

_SCAN_BOUND = 64


@dataclass(frozen=True)
class Weights:
    alpha: int
    beta: int
    k: int

    def __post_init__(self):
        if self.alpha < 1 or self.beta < 1 or self.k < 0:
            raise ValueError(f"weights must satisfy alpha, beta >= 1 and k >= 0: {self}")

    def __str__(self):
        return f"(alpha, beta, k) = ({self.alpha}, {self.beta}, {self.k})"


def _state_exponents(poly: Poly, sx: str, sy: str):
    ix = poly.vars.index(sx) if sx in poly.vars else None
    iy = poly.vars.index(sy) if sy in poly.vars else None
    for exps in poly.terms:
        m = exps[ix] if ix is not None else 0
        n = exps[iy] if iy is not None else 0
        yield (m, n)


def _constraint_rows(f: VectorField) -> "list[tuple[int, int, int]]":
    sx, sy = f.state_vars
    rows = set()
    for m, n in _state_exponents(f.f1, sx, sy):
        rows.add((m - 1, n, -1))
    for m, n in _state_exponents(f.f2, sx, sy):
        rows.add((m, n - 1, -1))
    return sorted(rows)


def _nullspace(rows) -> "list[tuple[int, int, int]]":
    """Primitive integer basis of {v : row . v = 0 for every row}.

    Rows are non-zero.  Rank 2 and 3 are read off a cross product of two
    rows; at rank 1 the basis comes in the order Gauss-Jordan elimination
    gives, one vector per free column.
    """
    first = rows[0]
    for row in rows[1:]:
        v = (
            first[1] * row[2] - first[2] * row[1],
            first[2] * row[0] - first[0] * row[2],
            first[0] * row[1] - first[1] * row[0],
        )
        if any(v):
            if any(sum(a * b for a, b in zip(v, r)) for r in rows):
                return []
            return [_primitive(v)]
    p = next(i for i, c in enumerate(first) if c)
    basis = []
    for free in (c for c in range(3) if c != p):
        v = [0, 0, 0]
        v[free], v[p] = first[p], -first[free]
        basis.append(_primitive(v))
    return basis


def _primitive(vec) -> "tuple[int, ...]":
    g = gcd(*vec)
    lead = next(x for x in vec if x)
    if lead < 0:
        g = -g
    return tuple(x // g for x in vec)


def _positive_candidates(rows) -> "list[tuple[int, int, int]]":
    """Scan alpha, beta <= bound for positive primitive solutions of all rows."""
    found = []
    for alpha in range(1, _SCAN_BOUND + 1):
        for beta in range(1, _SCAN_BOUND + 1):
            ks = {alpha * a + beta * b for a, b, _ in rows}
            if len(ks) != 1:
                continue
            k = ks.pop()
            if k < 0:
                continue
            if gcd(gcd(alpha, beta), k) == 1:
                found.append((alpha, beta, k))
    found.sort(key=lambda t: (t[0] + t[1], t[0], t[1]))
    return found


def infer_weights(f: VectorField) -> Weights:
    """Primitive positive (alpha, beta, k) solving every monomial constraint."""
    if f.is_zero():
        raise NotQuasiHomogeneous("the zero field has no quasi-homogeneous type")
    rows = _constraint_rows(f)
    basis = _nullspace(rows)
    if not basis:
        raise NotQuasiHomogeneous(
            "the exponent constraints admit only the zero weight triple"
        )
    if len(basis) >= 2:
        candidates = _positive_candidates(rows)
        raise AmbiguousWeights(
            generators=basis, suggestion=candidates[0] if candidates else None
        )
    alpha, beta, k = basis[0]
    if alpha <= 0 or beta <= 0 or k < 0:
        raise NotQuasiHomogeneous(
            f"constraint solution ({alpha}, {beta}, {k}) has no positive representative"
        )
    w = Weights(alpha, beta, k)
    if not verify_weights(f, w):
        raise AssertionError(f"internal error: inferred weights {w} do not verify")
    return w


def verify_weights(f: VectorField, w: Weights) -> bool:
    """Whether f(r^alpha x, r^beta y) == (r^(alpha+k) f1, r^(beta+k) f2).

    The scaling sends a term c*x^m*y^n*(params) to the same term times
    r^(alpha*m + beta*n).  That map is injective on monomials, since it keeps
    every exponent and only adds one for r, so no two terms of the scaled
    component can merge or cancel.  The identity therefore holds exactly
    when each term of f1 satisfies alpha*m + beta*n == alpha + k and each
    term of f2 satisfies alpha*m + beta*n == beta + k: one integer test per
    term, with no polynomial arithmetic.
    """
    sx, sy = f.state_vars
    a, b = w.alpha, w.beta
    return all(a * m + b * n == a + w.k for m, n in _state_exponents(f.f1, sx, sy)) and all(
        a * m + b * n == b + w.k for m, n in _state_exponents(f.f2, sx, sy)
    )
