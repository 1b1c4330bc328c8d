"""Planar polynomial vector fields with symbolic parameters."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .errors import DesingError, UnboundParameter
from .poly import Poly, float_evaluator, rational_text


@dataclass(frozen=True)
class Param:
    name: str
    positive: bool = False


def check_param_bindings(params, bindings: Mapping) -> "dict[str, Fraction]":
    """Validate bindings against declared parameters; exact rationals out."""
    out = {}
    for p in params:
        if p.name not in bindings:
            raise UnboundParameter(f"parameter '{p.name}' has no binding")
        value = Fraction(bindings[p.name])
        if p.positive and value <= 0:
            raise DesingError(
                f"parameter '{p.name}' is declared positive but bound to "
                f"{rational_text(value.numerator, value.denominator)}"
            )
        out[p.name] = value
    unknown = set(bindings) - {p.name for p in params}
    if unknown:
        raise DesingError(f"binding for unknown parameter(s) {sorted(unknown)}")
    return out


def bind_params(poly: Poly, bound: Mapping[str, Fraction]) -> Poly:
    """`poly` with the parameters it uses replaced by their exact values."""
    subs = {k: v for k, v in bound.items() if k in poly.vars}
    return poly.bind(subs) if subs else poly


def bind_components(polys, params, bindings: Mapping) -> "tuple[Poly, ...]":
    """The components of a field with its parameters bound exactly, which
    is what its float view compiles."""
    bound = check_param_bindings(params, bindings)
    return tuple(bind_params(p, bound) for p in polys)


@dataclass(frozen=True)
class VectorField:
    """f = (f1, f2) over the state variables, parameters as extra poly vars."""

    f1: Poly
    f2: Poly
    state_vars: "tuple[str, str]" = ("x", "y")
    params: "tuple[Param, ...]" = ()

    def __post_init__(self):
        sx, sy = self.state_vars
        if sx == sy:
            raise ValueError("state variables must be distinct")
        names = {p.name for p in self.params}
        if len(names) != len(self.params):
            raise ValueError("duplicate parameter names")
        if sx in names or sy in names:
            raise ValueError("state variables may not shadow parameters")
        allowed = names | {sx, sy}
        for comp in (self.f1, self.f2):
            extra = set(comp.effective_vars()) - allowed
            if extra:
                raise ValueError(f"component uses undeclared variables {sorted(extra)}")

    # -- queries ---------------------------------------------------------------

    def components(self) -> "tuple[Poly, Poly]":
        return (self.f1, self.f2)

    def is_zero(self) -> bool:
        return self.f1.is_zero() and self.f2.is_zero()

    def param_names(self) -> "tuple[str, ...]":
        return tuple(p.name for p in self.params)

    # -- numeric view -------------------------------------------------------------

    def as_callable(self, bindings: Mapping[str, "Fraction | int | str"]) -> Callable:
        """Float evaluator (u, v) -> (f1, f2) with parameters bound."""
        polys = bind_components(self.components(), self.params, bindings)
        return float_evaluator(polys, self.state_vars)

    def __str__(self):
        sx, sy = self.state_vars
        return f"d{sx}/dt = {self.f1}; d{sy}/dt = {self.f2}"
