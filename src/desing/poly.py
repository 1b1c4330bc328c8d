"""Exact sparse multivariate polynomials over the rationals.

A polynomial carries an ordered tuple of variable names, a map `nums` from
exponent vectors (one non-negative integer per variable) to nonzero integer
numerators, and one positive common denominator `den`, in the style of
FLINT's `fmpq_poly`.  The representation is canonical: gcd(den, every
numerator) == 1, so an integer polynomial has den == 1 and two polynomials
over the same variables are equal exactly when their `den` and `nums` are.
`terms` is the derived read-only view of the rational coefficients
nums[e]/den.  Arithmetic runs on the integers and normalises once per
result, by at most one gcd over its numerators; floats only appear in
`float_evaluator`, which compiles polynomials into one float function and
is the single place where a field becomes floats.

Scaling every coefficient of a computation by one nonzero rational changes
none of its cancellations, so the integer loops insert, merge and drop
exactly the terms the rational loops did, in the same order: term order is
the order of the rational representation, which `float_evaluator` sums in.

Term order is graded lexicographic (total degree first, then the exponent
vector, both descending) everywhere an order matters: canonical printing
and the leading-term choice inside exact division.  Binary operations
align variable sets automatically, keeping the left operand's order and
appending unseen variables of the right operand.

Two kinds of operation live side by side:

* General ones: `substitute` composes with arbitrary polynomials and
  `div_exact` runs grlex long division by any divisor.
* Monomial ones, which are exponent rewrites costing one pass over the
  terms: `shift` divides by c times a monomial, and `bind` substitutes
  rationals.  Each returns exactly what the general operation returns for
  the same arguments, variable order and term order included, so
  `float_evaluator`, which sums in term order, sees the same polynomial
  either way.  The pipeline uses only these and exponent rewrites of its
  own (the directional charts are read off the field's terms in closed
  form, see `charts`, and the polar blow-up maps x^m*y^n to
  r^(m+n)*c^m*s^n, see `polar`); the general ones stay as the independent
  reference the self-checks compare against.

Every sum, binary `+` and `-` included, is one n-ary `Poly.sum`, which
skips the normalising gcd when no two terms met: the sum is canonical then.

`*` and `**` take a one-pass route when an operand or the base is a single
term: a monomial factor shifts every exponent vector by one vector, which is
injective and cancels nothing, so the pass yields the general loop's terms
in the general loop's order.

`Poly(...)` validates and normalises its input.  Polynomials built inside
the package go through `Poly._raw` instead, which trusts its caller to pass
a tuple of distinct names, a fresh dict of exponent tuples (right length,
non-negative ints) to nonzero ints and a canonical `den`, and adopts that
dict uncopied; `Poly._normal` does the same for a `den` that may share a
factor with every numerator, and divides it out.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Callable, Sequence, Union

from .errors import NotDivisible

Scalar = Union[int, Fraction]


def _grlex(exps):
    return (sum(exps), exps)


class Poly:
    __slots__ = ("vars", "nums", "den")

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
        # the lcm of reduced denominators is coprime to the numerators it makes
        den = lcm(*(c.denominator for c in clean.values()))
        self.vars = vs
        self.nums = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self.den = den

    @classmethod
    def _raw(cls, variables: "tuple[str, ...]", nums: dict, den: int = 1) -> "Poly":
        """Trusted constructor: adopt `nums` as is (see the module docstring)."""
        p = object.__new__(cls)
        p.vars = variables
        p.nums = nums
        p.den = den
        return p

    @classmethod
    def _normal(cls, variables: "tuple[str, ...]", nums: dict, den: int) -> "Poly":
        """`_raw` for a positive `den` that may share a factor with every
        numerator: one gcd makes the representation canonical."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                nums = {e: n // g for e, n in nums.items()}
                den //= g
        return cls._raw(variables, nums, den)

    @property
    def terms(self) -> "Mapping[tuple[int, ...], Fraction]":
        """Read-only view: exponent vector -> rational coefficient, in term order."""
        return _Rationals(self.nums, self.den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "Poly":
        return cls(variables, {})

    @classmethod
    def const(cls, value: Scalar, variables: Sequence[str] = ()) -> "Poly":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): value})

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls._raw((name,), {(1,): 1})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max((e[i] for e in self.nums), default=0)

    def min_degree_in(self, name: str) -> int:
        """Smallest exponent of `name` over all terms (0 for the zero poly)."""
        if name not in self.vars or not self.nums:
            return 0
        i = self.vars.index(name)
        return min(e[i] for e in self.nums)

    def effective_vars(self) -> "tuple[str, ...]":
        """Variables that actually occur with positive degree."""
        used = [False] * len(self.vars)
        for e in self.nums:
            for i, x in enumerate(e):
                if x:
                    used[i] = True
        return tuple(v for v, u in zip(self.vars, used) if u)

    # -- variable bookkeeping -----------------------------------------------

    def _remapped(self, variables: "tuple[str, ...]") -> dict:
        """A fresh copy of `nums` with the exponent vectors over `variables`."""
        if variables == self.vars:
            return dict(self.nums)
        idx = [variables.index(v) for v in self.vars]
        out = {}
        for exps, n in self.nums.items():
            new = [0] * len(variables)
            for i, e in zip(idx, exps):
                new[i] = e
            out[tuple(new)] = n
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
        return Poly._raw(vs, dropped._remapped(vs), self.den)

    def _drop_dead(self, keep: "tuple[str, ...]") -> dict:
        sel = [self.vars.index(v) for v in keep]
        return {tuple(e[i] for i in sel): n for e, n in self.nums.items()}

    # -- ring operations ----------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return Poly._raw((), {(): other} if other else {})
        if isinstance(other, Fraction):
            return Poly._raw((), {(): other.numerator} if other else {}, other.denominator)
        return None

    def __add__(self, other):
        q = self._lift(other)
        if q is None:
            return NotImplemented
        return Poly.sum(((1, self), (1, q)))

    __radd__ = __add__

    @staticmethod
    def sum(parts: "Sequence[tuple[int, Poly]]") -> "Poly":
        """The sum of `(sign, poly)` parts, sign 1 or -1, built as repeated
        `+` and `-` build it: variables join where first met, the first
        part's terms come first and a cancelled key re-enters at the end.
        The empty sum is zero over no variables.

        The gcd that makes the sum canonical is taken only if two terms met.
        If none did, no prime p divides it: with p^e exactly dividing den, the
        lcm of the parts' denominators, the part whose denominator carries
        p^e is canonical, so one of its numerators is prime to p, and so is
        the scale den/den_q."""
        if not parts:
            return Poly._raw((), {})
        vs = parts[0][1].vars
        for _, q in parts:
            if q.vars != vs:
                vs += tuple(v for v in q.vars if v not in vs)
        den = lcm(*(q.den for _, q in parts))
        sign, first = parts[0]
        k = sign * (den // first.den)
        terms = first._remapped(vs)
        if k != 1:
            terms = {e: k * n for e, n in terms.items()}
        added = len(terms)
        for sign, q in parts[1:]:
            k = sign * (den // q.den)
            added += len(q.nums)
            for e, n in (q.nums if q.vars == vs else q._remapped(vs)).items():
                s = terms.get(e, 0) + k * n
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        # a meeting leaves fewer terms than were added
        if len(terms) == added:
            return Poly._raw(vs, terms, den)
        return Poly._normal(vs, terms, den)

    def __neg__(self):
        return Poly._raw(self.vars, {e: -n for e, n in self.nums.items()}, self.den)

    def __sub__(self, other):
        q = self._lift(other)
        if q is None:
            return NotImplemented
        return Poly.sum(((1, self), (-1, q)))

    def __rsub__(self, other):
        q = self._lift(other)
        if q is None:
            return NotImplemented
        return Poly.sum(((1, q), (-1, self)))

    def __mul__(self, other):
        q = self._lift(other)
        if q is None:
            return NotImplemented
        vs = Poly._union_vars(self, q)
        a = self.nums if self.vars == vs else self._remapped(vs)
        b = q.nums if q.vars == vs else q._remapped(vs)
        den = self.den * q.den
        # A one-term operand shifts every exponent of the other by one vector:
        # injective and never cancelling, so one pass over the other operand,
        # in the order the double loop meets its terms, builds the same dict.
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            ((em, cm),) = a.items()
            return Poly._normal(vs, {tuple(map(add, em, e)): cm * n for e, n in b.items()}, den)
        terms: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = terms.get(e, 0) + ca * cb
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Poly._normal(vs, terms, den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"polynomial power must be a non-negative integer, got {n!r}")
        if n and len(self.nums) == 1:
            # a monomial's power is one term, which binary powering reaches too
            ((e, c),) = self.nums.items()
            return Poly._raw(self.vars, {tuple(k * n for k in e): c**n}, self.den**n)
        # powers of the numerators over den**n: by Gauss's lemma the content
        # of N**n is content(N)**n, coprime to den**n, so no gcd is needed
        den = self.den**n
        result = Poly._raw(self.vars, {(0,) * len(self.vars): 1})
        base = Poly._raw(self.vars, self.nums)
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return Poly._raw(self.vars, result.nums, den)

    # -- equality is variable-order independent ------------------------------

    def _key(self):
        return self.den, frozenset(
            (frozenset((v, e) for v, e in zip(self.vars, exps) if e), n)
            for exps, n in self.nums.items()
        )

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.vars == other.vars:
            return self.den == other.den and self.nums == other.nums
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # -- substitution --------------------------------------------------------

    def substitute(self, bindings: Mapping[str, "Poly | Scalar"]) -> "Poly":
        """Exact composition: replace bound variables by polynomials.

        Binding keys must all be variables of this polynomial.
        """
        self._check_bound(bindings)
        bound = {
            v: (b if isinstance(b, Poly) else Poly.const(b)) for v, b in bindings.items()
        }
        keep = tuple(v for v in self.vars if v not in bound)
        sel = [self.vars.index(v) for v in keep]
        power_cache: dict = {}
        # the numerators composed, summed, then divided by den once
        parts = [(1, Poly._raw(keep, {}))]
        for exps, n in self.nums.items():
            term = Poly._raw(keep, {tuple(exps[i] for i in sel): n})
            for v, e in zip(self.vars, exps):
                if v in bound and e:
                    key = (v, e)
                    if key not in power_cache:
                        power_cache[key] = bound[v] ** e
                    term = term * power_cache[key]
            parts.append((1, term))
        acc = Poly.sum(parts)
        return Poly._normal(acc.vars, acc.nums, acc.den * self.den)

    def _check_bound(self, bindings) -> None:
        bad = [v for v in bindings if v not in self.vars]
        if bad:
            raise ValueError(f"binding for unknown variable(s) {bad}; have {self.vars}")

    def bind(self, values: Mapping[str, Scalar]) -> "Poly":
        """`substitute` for rational values: drop the bound variables and fold
        their powers into the coefficients.  Returns exactly
        `self.substitute(values)`, variable and term order included.

        With v = a/b bound and E its largest exponent, a term's numerator
        takes a^e*b^(E-e) and den takes b^E, so the numerators stay integers
        and are divided by one gcd at the end."""
        self._check_bound(values)
        keep = [i for i, v in enumerate(self.vars) if v not in values]
        bound = []
        den = self.den
        for i, v in enumerate(self.vars):
            if v in values:
                val = Fraction(values[v])
                top = max((e[i] for e in self.nums), default=0) if val.denominator != 1 else 0
                bound.append((i, val.numerator, val.denominator, top))
                den *= val.denominator**top
        powers: dict = {}
        terms: dict = {}
        for exps, n in self.nums.items():
            for i, a, b, top in bound:
                e = exps[i]
                if e or top:
                    pw = powers.get((i, e))
                    if pw is None:
                        pw = powers[(i, e)] = a**e * b ** (top - e) if top else a**e
                    n = n * pw
            key = tuple(exps[i] for i in keep)
            if key in terms:
                s = terms[key] + n
                if s:
                    terms[key] = s
                else:
                    del terms[key]
            elif n:
                terms[key] = n
        return Poly._normal(tuple(self.vars[i] for i in keep), terms, den)

    # -- exact division -------------------------------------------------------

    def div_exact(self, divisor: "Poly | Scalar") -> "Poly":
        """Return h with h * divisor == self, exactly.

        Raises NotDivisible when no such polynomial exists.  With graded-lex
        leading terms, exact divisibility guarantees the leading term of the
        running remainder is always divisible by the divisor's leading term,
        so a single failed step certifies failure.  The long division runs on
        the rational coefficients; nothing in the pipeline divides this way.
        """
        q = self._lift(divisor)
        if q is None:
            raise TypeError(f"cannot divide by {divisor!r}")
        if q.is_zero():
            raise ZeroDivisionError("exact division by the zero polynomial")
        vs = Poly._union_vars(self, q)
        rem = dict(_Rationals(self._remapped(vs), self.den))
        dterms = dict(_Rationals(q._remapped(vs), q.den))
        de = max(dterms, key=_grlex)
        dc = dterms[de]
        quot: dict = {}
        while rem:
            le = max(rem, key=_grlex)
            lc = rem[le]
            diff = tuple(a - b for a, b in zip(le, de))
            if any(d < 0 for d in diff):
                raise NotDivisible(f"{self} is not divisible by {q}")
            qc = lc / dc
            quot[diff] = quot.get(diff, 0) + qc
            for ee, cc in dterms.items():
                key = tuple(a + b for a, b in zip(diff, ee))
                s = rem.get(key, 0) - qc * cc
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
        # n/den divided by a/b is (n*b)/(den*a), with the sign of a moved up
        a, b = c0.numerator, c0.denominator
        mult = b if a > 0 else -b
        vs = self.vars + tuple(v for v in monomial if v not in self.vars)
        pad = (0,) * (len(vs) - len(self.vars))
        drop = [(vs.index(v), e) for v, e in monomial.items() if e]
        terms: dict = {}
        for exps, n in sorted(self.nums.items(), key=lambda t: _grlex(t[0]), reverse=True):
            new = list(exps + pad)
            for i, e in drop:
                new[i] -= e
                if new[i] < 0:
                    raise NotDivisible(f"{self} is not divisible by {dict(monomial)}")
            terms[tuple(new)] = n * mult
        return Poly._normal(vs, terms, self.den * abs(a))

    # -- printing --------------------------------------------------------------

    def format(self, display: "Mapping[str, str] | None" = None) -> str:
        """Canonical rendering: graded-lex descending, signs folded into
        coefficients, `^` for powers, explicit `*` between factors."""
        disp = display or {}
        names = [disp.get(v, v) for v in self.vars]
        out = []
        for exps in sorted(self.nums, key=_grlex, reverse=True):
            num, den = self.nums[exps], self.den
            if den != 1:
                g = gcd(num, den)
                num, den = num // g, den // g
            if num < 0:
                num = -num
                out.append(" - " if out else "-")
            elif out:
                out.append(" + ")
            mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)
            if num != 1 or den != 1 or not mono:
                out.append(rational_text(num, den))
                if mono:
                    out.append("*")
            out.append(mono)
        return "".join(out) or "0"

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"Poly({self.format()!r})"


class _Rationals(Mapping):
    """`Poly.terms`: the numerators over den as Fractions, in term order."""

    __slots__ = ("_nums", "_den")

    def __init__(self, nums: dict, den: int):
        self._nums = nums
        self._den = den

    def __getitem__(self, exps):
        return Fraction(self._nums[exps], self._den)

    def __iter__(self):
        return iter(self._nums)

    def __len__(self):
        return len(self._nums)


def rational_text(num: int, den: int) -> str:
    """The reduced fraction num/den (den > 0) as `str(Fraction)` writes it,
    also past `int`'s digit limit for conversion to text, which `Decimal`
    does not have."""
    try:
        return f"{num}/{den}" if den != 1 else str(num)
    except ValueError:
        from decimal import Decimal

        return f"{Decimal(num)}/{Decimal(den)}" if den != 1 else str(Decimal(num))


def poly_vars(*names: str) -> "tuple[Poly, ...]":
    """Convenience: `x, y = poly_vars("x", "y")`."""
    return tuple(Poly.var(n) for n in names)


def float_evaluator(
    polys: Sequence[Poly],
    order: Sequence[str],
    angle: "tuple[Callable, Callable] | None" = None,
) -> Callable:
    """Compile the polynomials into one float function of the variables in
    `order`, returning a tuple with one value per polynomial.

    Every variable a polynomial uses must be in `order`; bind parameters
    first.  Each value sums the terms left to right in term order, each
    term evaluated as `c * x1**e1 * x2**e2 ...` with c the coefficient
    rounded to a float and exponent-0 factors left out (exact, as
    c * 1.0 == c).  c is the int true division num / den, which rounds
    correctly as `float(Fraction)` does.  Powers stay `**`, so an
    overflowing power raises OverflowError.  The generated source
    (`float_source`) holds one statement per term (a single sum of thousands
    of terms would overflow the compiler's recursion limit) and only
    generated names and float literals.

    With `angle`, a pair of float functions such as (cos, sin), the function
    takes one angle in place of the first two variables and sets them to
    the pair's values at it; an overflowing cosh raises OverflowError too.
    """
    source = float_source(polys, order, angle is not None)
    namespace: dict = {"cos": angle[0], "sin": angle[1]} if angle else {}
    exec(compile(source, "<float_evaluator>", "exec"), namespace)
    return namespace["field"]


def float_source(polys: Sequence[Poly], order: Sequence[str], angle: bool = False) -> str:
    """The source text `float_evaluator` compiles."""
    order = tuple(order)
    names = [f"x{i}" for i in range(len(order))]
    lines = [f"def field({', '.join(['p'] + names[2:] if angle else names)}):"]
    if angle:
        lines += ["    x0 = cos(p)", "    x1 = sin(p)"]
    for k, p in enumerate(polys):
        lines.append(f"    a{k} = 0.0")
        if p.vars != order:
            p = p.reordered(order)
        den = p.den
        for exps, n in p.nums.items():
            factors = [repr(n / den)]
            factors += [f"x{i}" if e == 1 else f"x{i}**{e}" for i, e in enumerate(exps) if e]
            lines.append(f"    a{k} += {' * '.join(factors)}")
    lines.append(f"    return ({''.join(f'a{k}, ' for k in range(len(polys)))})")
    return "\n".join(lines)
