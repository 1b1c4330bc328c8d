"""Exact sparse multivariate polynomials over the rationals.

A polynomial carries an ordered tuple of variable names and a map from
exponent vectors (one non-negative integer per variable) to nonzero
`fractions.Fraction` coefficients.  All arithmetic is exact; floats only
appear when explicitly requested through `eval_float` / `float_terms`.

Term order is graded lexicographic (total degree first, then the exponent
vector, both descending) everywhere an order matters: canonical printing
and the leading-term choice inside exact division.  Binary operations
align variable sets automatically, keeping the left operand's order and
appending unseen variables of the right operand.

Two kinds of operation live side by side:

* General ones: `substitute` composes with arbitrary polynomials and
  `div_exact` runs grlex long division by any divisor.
* Monomial ones, which are exponent rewrites costing one pass over the
  terms: `monomial_map` substitutes signed monomials (x -> -r^2,
  y -> r*w), `shift` divides by c times a monomial, and `bind` substitutes
  rationals.  Each returns exactly what the general operation returns for
  the same arguments, variable order and term order included, so the
  float evaluators, which sum in term order, see the same polynomial
  either way.  The blow-ups use these; the general ones stay as the
  independent reference the self-checks compare against.

`Poly(...)` validates and normalises its input.  Polynomials built inside
this module go through `Poly._raw` instead, which trusts its caller to pass
a tuple of distinct names and a fresh dict of exponent tuples (right length,
non-negative ints) to nonzero Fractions, and adopts that dict uncopied.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import NotDivisible

Scalar = Union[int, Fraction]
Exponents = "tuple[int, ...]"

_ZERO = Fraction(0)


def _grlex(exps):
    return (sum(exps), exps)


class Poly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Sequence[int], Scalar]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names: {vs}")
        clean = {}
        for exps, coeff in terms.items():
            e = tuple(int(x) for x in exps)
            if len(e) != len(vs):
                raise ValueError(f"exponent vector {e} does not match variables {vs}")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in term {e}")
            c = Fraction(coeff)
            if c:
                clean[e] = c
        self.vars = vs
        self.terms = clean

    @classmethod
    def _raw(cls, variables: "tuple[str, ...]", terms: dict) -> "Poly":
        """Trusted constructor: adopt `terms` as is (see the module docstring)."""
        p = object.__new__(cls)
        p.vars = variables
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "Poly":
        return cls(variables, {})

    @classmethod
    def const(cls, value: Scalar, variables: Sequence[str] = ()) -> "Poly":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): Fraction(value)})

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls._raw((name,), {(1,): Fraction(1)})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return _ZERO
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    def min_degree_in(self, name: str) -> int:
        """Smallest exponent of `name` over all terms (0 for the zero poly)."""
        if name not in self.vars or not self.terms:
            return 0
        i = self.vars.index(name)
        return min(e[i] for e in self.terms)

    def effective_vars(self) -> "tuple[str, ...]":
        """Variables that actually occur with positive degree."""
        used = [False] * len(self.vars)
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used[i] = True
        return tuple(v for v, u in zip(self.vars, used) if u)

    # -- variable bookkeeping -----------------------------------------------

    def _remapped(self, variables: "tuple[str, ...]") -> dict:
        if variables == self.vars:
            return dict(self.terms)
        idx = [variables.index(v) for v in self.vars]
        out = {}
        for exps, c in self.terms.items():
            new = [0] * len(variables)
            for i, e in zip(idx, exps):
                new[i] = e
            out[tuple(new)] = c
        return out

    @staticmethod
    def _union_vars(p: "Poly", q: "Poly") -> "tuple[str, ...]":
        if p.vars == q.vars:
            return p.vars
        return p.vars + tuple(v for v in q.vars if v not in p.vars)

    def reordered(self, variables: Sequence[str]) -> "Poly":
        """Present the same polynomial over `variables` (a superset of the
        effective variables)."""
        vs = tuple(variables)
        missing = set(self.effective_vars()) - set(vs)
        if missing:
            raise ValueError(f"reorder drops live variables {sorted(missing)}")
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names: {vs}")
        keep = tuple(v for v in self.vars if v in vs)
        dropped = self if keep == self.vars else Poly._raw(keep, self._drop_dead(keep))
        return Poly._raw(vs, dropped._remapped(vs))

    def _drop_dead(self, keep: "tuple[str, ...]") -> dict:
        sel = [self.vars.index(v) for v in keep]
        return {tuple(e[i] for i in sel): c for e, c in self.terms.items()}

    def rename(self, mapping: Mapping[str, str]) -> "Poly":
        vs = tuple(mapping.get(v, v) for v in self.vars)
        return Poly(vs, dict(self.terms))

    # -- ring operations ----------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly._raw((), {(): Fraction(other)} if other else {})
        return None

    def __add__(self, other):
        q = self._lift(other)
        if q is None:
            return NotImplemented
        vs = Poly._union_vars(self, q)
        terms = self._remapped(vs)
        for e, c in q._remapped(vs).items():
            s = terms.get(e, _ZERO) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Poly._raw(vs, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        q = self._lift(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other):
        q = self._lift(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other):
        q = self._lift(other)
        if q is None:
            return NotImplemented
        vs = Poly._union_vars(self, q)
        a = self._remapped(vs)
        b = q._remapped(vs)
        terms: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = terms.get(e, _ZERO) + ca * cb
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Poly._raw(vs, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"polynomial power must be a non-negative integer, got {n!r}")
        result = Poly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- equality is variable-order independent ------------------------------

    def _key(self):
        return frozenset(
            (frozenset((v, e) for v, e in zip(self.vars, exps) if e), c)
            for exps, c in self.terms.items()
        )

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # -- substitution and evaluation ----------------------------------------

    def substitute(self, bindings: Mapping[str, "Poly | Scalar"]) -> "Poly":
        """Exact composition: replace bound variables by polynomials.

        Binding keys must all be variables of this polynomial.
        """
        bad = [v for v in bindings if v not in self.vars]
        if bad:
            raise ValueError(f"binding for unknown variable(s) {bad}; have {self.vars}")
        bound = {
            v: (b if isinstance(b, Poly) else Poly.const(b)) for v, b in bindings.items()
        }
        keep = tuple(v for v in self.vars if v not in bound)
        sel = [self.vars.index(v) for v in keep]
        power_cache: dict = {}
        acc = Poly.zero(keep)
        for exps, c in self.terms.items():
            term = Poly(keep, {tuple(exps[i] for i in sel): c})
            for v, e in zip(self.vars, exps):
                if v in bound and e:
                    key = (v, e)
                    if key not in power_cache:
                        power_cache[key] = bound[v] ** e
                    term = term * power_cache[key]
            acc = acc + term
        return acc

    def _check_bound(self, bindings) -> None:
        bad = [v for v in bindings if v not in self.vars]
        if bad:
            raise ValueError(f"binding for unknown variable(s) {bad}; have {self.vars}")

    def monomial_map(self, images: Mapping[str, "Poly"]) -> "Poly":
        """`substitute` for images that are signed monomials (+-1 times a
        power product), as one exponent rewrite per term.

        Returns exactly `self.substitute(images)`: unbound variables first,
        then each image's variables in the order the terms first use them,
        and the terms in the same order.  Monomials the map merges add their
        coefficients, as in `substitute`.
        """
        self._check_bound(images)
        for v, img in images.items():
            if len(img.terms) != 1 or next(iter(img.terms.values())) not in (1, -1):
                raise ValueError(f"image of {v} is not a signed monomial: {img}")
        # substitute's variable order: an image's variables join when a term
        # first uses the variable it replaces
        out = [v for v in self.vars if v not in images]
        pending = [(i, images[v].vars) for i, v in enumerate(self.vars) if v in images]
        for exps in self.terms:
            if not pending:
                break
            for i, names in pending:
                if exps[i]:
                    out.extend([n for n in names if n not in out])
            pending = [(i, names) for i, names in pending if not exps[i]]
        vs = tuple(out)
        pos = {v: j for j, v in enumerate(vs)}
        plan = []  # per variable of self: (image sign, ((target index, exponent), ...))
        for v in self.vars:
            img = images.get(v)
            if img is None:
                plan.append((1, ((pos[v], 1),)))
            elif all(n in pos for n in img.vars):
                ((iexps, sign),) = img.terms.items()
                plan.append((sign, tuple((pos[n], k) for n, k in zip(img.vars, iexps) if k)))
            else:  # v has exponent 0 in every term
                plan.append((1, ()))
        terms: dict = {}
        for exps, c in self.terms.items():
            new = [0] * len(vs)
            for e, (sign, targets) in zip(exps, plan):
                if e:
                    if sign < 0 and e & 1:
                        c = -c
                    for t, k in targets:
                        new[t] += e * k
            key = tuple(new)
            s = terms.get(key, _ZERO) + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return Poly._raw(vs, terms)

    def bind(self, values: Mapping[str, Scalar]) -> "Poly":
        """`substitute` for rational values: drop the bound variables and fold
        their powers into the coefficients.  Returns exactly
        `self.substitute(values)`, variable and term order included."""
        self._check_bound(values)
        keep = [i for i, v in enumerate(self.vars) if v not in values]
        bound = [(i, Fraction(values[v])) for i, v in enumerate(self.vars) if v in values]
        powers: dict = {}
        terms: dict = {}
        for exps, c in self.terms.items():
            for i, val in bound:
                e = exps[i]
                if e:
                    pw = powers.get((i, e))
                    if pw is None:
                        pw = powers[(i, e)] = val**e
                    c = c * pw
            key = tuple(exps[i] for i in keep)
            s = terms.get(key, _ZERO) + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return Poly._raw(tuple(self.vars[i] for i in keep), terms)

    def evaluate(self, values: Mapping[str, Scalar]) -> Fraction:
        """Exact evaluation; every live variable must be given a rational value."""
        missing = [v for v in self.effective_vars() if v not in values]
        if missing:
            raise ValueError(f"no value for variable(s) {missing}")
        vals = [Fraction(values.get(v, 0)) for v in self.vars]
        total = _ZERO
        for exps, c in self.terms.items():
            t = c
            for val, e in zip(vals, exps):
                if e:
                    t *= val**e
            total += t
        return total

    def eval_float(self, values: Mapping[str, float]) -> float:
        missing = [v for v in self.effective_vars() if v not in values]
        if missing:
            raise ValueError(f"no value for variable(s) {missing}")
        vals = [float(values.get(v, 0.0)) for v in self.vars]
        total = 0.0
        for exps, c in self.terms.items():
            t = float(c)
            for val, e in zip(vals, exps):
                if e:
                    t *= val**e
            total += t
        return total

    def float_terms(self, order: Sequence[str]) -> "list[tuple[float, tuple[int, ...]]]":
        """Precompiled (coefficient, exponents) pairs over `order`, for fast
        repeated float evaluation in integrators."""
        return [(float(c), e) for e, c in self.reordered(order).terms.items()]

    # -- calculus ------------------------------------------------------------

    def derivative(self, name: str) -> "Poly":
        if name not in self.vars:
            return Poly.zero(self.vars)
        i = self.vars.index(name)
        terms: dict = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if not e:
                continue
            new = list(exps)
            new[i] = e - 1
            key = tuple(new)
            s = terms.get(key, _ZERO) + c * e
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return Poly._raw(self.vars, terms)

    # -- exact division -------------------------------------------------------

    def _leading(self):
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    def div_exact(self, divisor: "Poly | Scalar") -> "Poly":
        """Return h with h * divisor == self, exactly.

        Raises NotDivisible when no such polynomial exists.  With graded-lex
        leading terms, exact divisibility guarantees the leading term of the
        running remainder is always divisible by the divisor's leading term,
        so a single failed step certifies failure.
        """
        q = self._lift(divisor)
        if q is None:
            raise TypeError(f"cannot divide by {divisor!r}")
        if q.is_zero():
            raise ZeroDivisionError("exact division by the zero polynomial")
        vs = Poly._union_vars(self, q)
        rem = self._remapped(vs)
        den = Poly(vs, q._remapped(vs))
        de, dc = den._leading()
        quot: dict = {}
        while rem:
            le = max(rem, key=_grlex)
            lc = rem[le]
            diff = tuple(a - b for a, b in zip(le, de))
            if any(d < 0 for d in diff):
                raise NotDivisible(f"{self} is not divisible by {q}")
            qc = lc / dc
            quot[diff] = quot.get(diff, _ZERO) + qc
            for ee, cc in den.terms.items():
                key = tuple(a + b for a, b in zip(diff, ee))
                s = rem.get(key, _ZERO) - qc * cc
                if s:
                    rem[key] = s
                else:
                    rem.pop(key, None)
        return Poly(vs, quot)

    def shift(self, monomial: Mapping[str, int], coeff: Scalar = 1) -> "Poly":
        """Exact division by `coeff` times the monomial {variable: exponent},
        as one exponent subtraction per term.

        Returns exactly what `div_exact` returns for that divisor: this
        polynomial's variables followed by the monomial's new ones, and the
        quotient terms in grlex-descending order.  Raises NotDivisible
        exactly when `div_exact` does, that is when a term lacks the monomial.
        """
        if any(e < 0 for e in monomial.values()):
            raise ValueError(f"negative exponent in divisor {dict(monomial)}")
        c0 = Fraction(coeff)
        if not c0:
            raise ZeroDivisionError("exact division by the zero polynomial")
        vs = self.vars + tuple(v for v in monomial if v not in self.vars)
        pad = (0,) * (len(vs) - len(self.vars))
        drop = [(vs.index(v), e) for v, e in monomial.items() if e]
        terms: dict = {}
        for exps, c in sorted(self.terms.items(), key=lambda t: _grlex(t[0]), reverse=True):
            new = list(exps + pad)
            for i, e in drop:
                new[i] -= e
                if new[i] < 0:
                    raise NotDivisible(f"{self} is not divisible by {dict(monomial)}")
            terms[tuple(new)] = c if c0 == 1 else c / c0
        return Poly._raw(vs, terms)

    # -- printing --------------------------------------------------------------

    def format(self, display: "Mapping[str, str] | None" = None) -> str:
        """Canonical rendering: graded-lex descending, signs folded into
        coefficients, `^` for powers, explicit `*` between factors."""
        if not self.terms:
            return "0"
        disp = dict(display or {})
        pieces = []
        for exps in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[exps]
            factors = []
            for v, e in zip(self.vars, exps):
                if not e:
                    continue
                name = disp.get(v, v)
                factors.append(name if e == 1 else f"{name}^{e}")
            mono = "*".join(factors)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"Poly({self.format()!r})"


def poly_vars(*names: str) -> "tuple[Poly, ...]":
    """Convenience: `x, y = poly_vars("x", "y")`."""
    return tuple(Poly.var(n) for n in names)
