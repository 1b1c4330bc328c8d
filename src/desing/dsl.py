"""Text front end for vector-field input files.

Grammar (LL(1); `^` for powers, implicit multiplication disallowed):

    file       := {param_decl} var_decl eq eq ;
    param_decl := "param" IDENT [">" "0"] ";" ;
    var_decl   := "var" IDENT IDENT ";" ;
    eq         := "d" IDENT "/dt" "=" expr ";" ;
    expr       := term {("+"|"-") term} ;
    term       := factor {"*" factor} ;
    factor     := ["-"] base ["^" NAT] ;
    base       := IDENT | RATIONAL | "(" expr ")" ;

Numbers are ASCII digits, as identifiers are ASCII.  Rational literals
accept `p/q` and decimal forms; decimals are converted exactly (0.5 -> 1/2),
so no floats ever enter the symbolic core.  Comments run from `#` to end of
line.  Parentheses nest at most 100 levels deep; a sum or product may have
any length.  A token keeps only its offset in the source, and an error's
`line:column` (from 1, a column per character) is counted from it.

The parser expands as it goes: each rule returns a `Poly`, and `*` and `^`
are applied left to right as they are read, so a FieldSpec holds the two
right-hand sides already expanded.  A sum is one `Poly.sum` of its signed
terms.  A literal is read by `exact_rational`, which reads `--param` values
too; one whose numerator or denominator exceeds `_MAX_COEFF_BITS`
bits is rejected at its token, a power whose leading coefficient would
exceed that bound at its exponent, and a product whose leading coefficient
would at its `*`, each before it expands.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import ParseError
from .poly import Poly, _grlex
from .vectorfield import Param, VectorField

_MAX_EXPONENT = 10_000
# bits of a literal, and of a power's or product's leading coefficient,
# checked at its token before expanding
_MAX_COEFF_BITS = 65_536
# the parser recurses once per level of parentheses
_MAX_NESTING = 100


@dataclass(frozen=True)
class FieldSpec:
    params: "tuple[Param, ...]"
    state_vars: "tuple[str, str]"
    rhs: "tuple[Poly, Poly]"


# -- lexer -----------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT NUMBER SYMBOL EOF
    text: str
    pos: int  # offset in the source


_TOKEN_RE = re.compile(
    r"""(?P<skip>[ \t\r\n]+|\#[^\n]*)
      | (?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?)
      | (?P<SYMBOL>[;=+\-*^()/>])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _error(source: str, pos: int, message: str) -> ParseError:
    """A ParseError at offset `pos`: line and column count from 1, a line
    ends at each newline and a column is one character."""
    line_start = source.rfind("\n", 0, pos) + 1
    return ParseError(message, source.count("\n", 0, pos) + 1, pos - line_start + 1)


def _lex(source: str) -> "list[Token]":
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "bad":
            raise _error(source, m.start(), f"unexpected character {m.group()!r}")
        if kind != "skip":
            tokens.append(Token(kind, m.group(), m.start()))
    tokens.append(Token("EOF", "", len(source)))
    return tokens


# -- parser ------------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _lex(source)
        self.pos = 0
        self.depth = 0  # open parentheses

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: "Token | None" = None):
        raise _error(self.source, (tok or self.peek()).pos, message)

    def expect_symbol(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind != "SYMBOL" or tok.text != sym:
            self.fail(f"expected '{sym}', found {tok.text!r}" if tok.text else f"expected '{sym}', found end of input")
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            self.fail(f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}, found end of input")
        return self.next()

    def at_symbol(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYMBOL" and tok.text == sym

    # grammar rules --------------------------------------------------------

    def file(self) -> FieldSpec:
        params = []
        while self.peek().kind == "IDENT" and self.peek().text == "param":
            params.append(self.param_decl({p.name for p in params}))
        state_vars = self.var_decl({p.name for p in params})
        self.idents = {p.name for p in params} | set(state_vars)
        rhs = (self.equation(state_vars[0]), self.equation(state_vars[1]))
        tok = self.peek()
        if tok.kind != "EOF":
            self.fail("exactly two equations expected", tok)
        return FieldSpec(tuple(params), state_vars, rhs)

    def param_decl(self, seen: set) -> Param:
        self.next()  # 'param'
        name_tok = self.expect_ident("parameter name")
        if name_tok.text in seen or name_tok.text in ("param", "var"):
            self.fail(f"duplicate or reserved parameter name '{name_tok.text}'", name_tok)
        positive = False
        if self.at_symbol(">"):
            self.next()
            zero = self.peek()
            if zero.kind != "NUMBER" or zero.text != "0":
                self.fail("only '> 0' sign constraints are supported", zero)
            self.next()
            positive = True
        self.expect_symbol(";")
        return Param(name_tok.text, positive)

    def var_decl(self, param_names: set) -> "tuple[str, str]":
        tok = self.peek()
        if tok.kind != "IDENT" or tok.text != "var":
            self.fail("expected 'var' declaration")
        self.next()
        a = self.expect_ident("state variable")
        b = self.expect_ident("state variable")
        if a.text == b.text:
            self.fail("state variables must be distinct", b)
        for t in (a, b):
            if t.text in param_names:
                self.fail(f"state variable '{t.text}' shadows a parameter", t)
        self.expect_symbol(";")
        return (a.text, b.text)

    def equation(self, expected_var: str) -> Poly:
        head = self.expect_ident(f"equation 'd{expected_var}/dt'")
        if not (head.text.startswith("d") and len(head.text) > 1):
            self.fail(f"expected equation 'd{expected_var}/dt'", head)
        var = head.text[1:]
        if var != expected_var:
            self.fail(
                f"expected equation for '{expected_var}' (declaration order), found 'd{var}/dt'",
                head,
            )
        self.expect_symbol("/")
        dt = self.expect_ident("'dt'")
        if dt.text != "dt":
            self.fail("expected 'dt'", dt)
        self.expect_symbol("=")
        expr = self.expr()
        self.expect_symbol(";")
        return expr

    def expr(self) -> Poly:
        parts = [(1, self.term())]
        while self.at_symbol("+") or self.at_symbol("-"):
            sign = -1 if self.next().text == "-" else 1
            parts.append((sign, self.term()))
        return Poly.sum(parts)

    def term(self) -> Poly:
        out = self.factor()
        while self.at_symbol("*"):
            tok = self.next()
            q = self.factor()
            if out.nums and q.nums:
                self.check_product(out, q, tok)
            out = out * q
        return out

    def check_product(self, p: Poly, q: Poly, tok: Token):
        """The budget at `*`: the product's grlex-leading coefficient is the
        product of the operands' leading coefficients over their joint
        variables.  Its size is bounded by the sum of the operands' largest
        numerator and denominator bits, so it is computed only past that."""
        if _bits(p) + _bits(q) <= _MAX_COEFF_BITS:
            return
        vs = Poly._union_vars(p, q)
        c = _lead(p, vs) * _lead(q, vs)
        self.check_bits(max(c.numerator.bit_length(), c.denominator.bit_length()), tok)

    def factor(self) -> Poly:
        if self.at_symbol("-"):
            self.next()
            return -self.factor_tail()
        return self.factor_tail()

    def factor_tail(self) -> Poly:
        out = self.base()
        if self.at_symbol("^"):
            self.next()
            tok = self.peek()
            n = self.nat_exponent()
            if out.nums:
                # the leading coefficient's n-th power leads the result
                c = _lead(out, out.vars)
                self.check_bits(n * max(c.numerator.bit_length(), c.denominator.bit_length()), tok)
            out = out**n
        return out

    def nat_exponent(self) -> int:
        tok = self.peek()
        if tok.kind != "NUMBER" or "." in tok.text:
            self.fail("exponent must be a non-negative integer literal", tok)
        self.next()
        digits = tok.text.lstrip("0") or "0"
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT:
            self.fail(f"exponent {digits} exceeds the supported bound {_MAX_EXPONENT}", tok)
        return int(digits)

    def literal(self, tok: Token) -> Fraction:
        """The exact value of a NUMBER token, within the coefficient budget."""
        try:
            return exact_rational(tok.text)
        except OverBudget as exc:
            self.fail(str(exc), tok)

    def check_bits(self, bits: int, tok: Token):
        if bits > _MAX_COEFF_BITS:
            self.fail(str(OverBudget(bits)), tok)

    def base(self) -> Poly:
        tok = self.peek()
        if tok.kind == "IDENT":
            self.next()
            if tok.text not in self.idents:
                self.fail(f"undeclared identifier '{tok.text}'", tok)
            return Poly.var(tok.text)
        if tok.kind == "NUMBER":
            self.next()
            value = self.literal(tok)
            if self.at_symbol("/"):
                self.next()
                den = self.peek()
                if den.kind != "NUMBER" or "." in den.text:
                    self.fail("denominator must be an integer literal", den)
                self.next()
                q = self.literal(den)
                if not q:
                    self.fail("zero denominator in rational literal", den)
                value = value / q
            return Poly.const(value)
        if self.at_symbol("("):
            if self.depth == _MAX_NESTING:
                self.fail(f"parentheses nested deeper than {_MAX_NESTING} levels", tok)
            self.next()
            self.depth += 1
            out = self.expr()
            self.depth -= 1
            self.expect_symbol(")")
            return out
        self.fail(f"expected identifier, number or '(', found {tok.text!r}"
                  if tok.text else "unexpected end of input")


# a rational as `Fraction` reads it: a sign and digits with single `_`s
# between them, then `/` and an integer, or a decimal part and an exponent;
# the groups are sign, numerator, denominator, decimal part and exponent
_RATIONAL_RE = re.compile(
    r"\s*([-+]?)(?=\.?\d)((?:\d+(?:_\d+)*)?)"
    r"(?:/(\d+(?:_\d+)*)|(?:\.((?:\d+(?:_\d+)*)?))?(?:[eE]([-+]?\d+(?:_\d+)*))?)\s*"
)


class OverBudget(ValueError):
    """A rational whose numerator or denominator has about `bits` bits, more
    than `_MAX_COEFF_BITS`."""

    def __init__(self, bits: int):
        super().__init__(f"coefficient of about {bits} bits exceeds the supported bound of {_MAX_COEFF_BITS} bits")
        self.bits = bits


def _int(digits: str) -> int:
    """`int(digits)`, also past `int`'s limit on the digits it reads from text."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def _pow10_bits(n: int) -> int:
    """The bits of 10^n for n >= 0, in integers: log2(10) = 3.321928094887362..."""
    return n * 3_321_928_094_887_362 // 10**15 + 1


def exact_rational(text: str) -> Fraction:
    """The value of `text` as `Fraction(text)` reads it, also with more digits
    than `int` reads from text: the one reader of the DSL's number literals
    and of `--param` values.

    OverBudget when its numerator or denominator has more than
    `_MAX_COEFF_BITS` bits, before it is built where the digits show it: an
    integer of n significant digits is at least 10^(n - 1), a decimal part of
    n digits up to its last nonzero one leaves a denominator of at least 2^n,
    and a mantissa of m digits times 10^e a numerator or denominator of about
    10^(|e| - m) (so `0e99999` is refused)."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"invalid rational literal {text!r}")
    sign, num, den, dec, exp = m.groups("")
    if "_" in text:
        num, den, dec, exp = (g.replace("_", "") for g in (num, den, dec, exp))
    e = _int(exp) if exp else 0
    # without an exponent the digits bound the size only past 0.3 digits per
    # bit of the budget, as log2(10) > 3.3
    if exp or len(text) > _MAX_COEFF_BITS * 3 // 10:
        bits = max(
            _pow10_bits(len(num.lstrip("0")) - 1),
            _pow10_bits(len(den.lstrip("0")) - 1),
            len(dec.rstrip("0")) + 1,
            _pow10_bits(abs(e) - len(num + dec)) if exp else 0,
        )
        if bits > _MAX_COEFF_BITS:
            raise OverBudget(bits)
    n, d = _int(num + dec or "0"), _int(den or "1")
    e -= len(dec)
    if e >= 0:
        n *= 10**e
    else:
        d *= 10**-e
    value = Fraction(-n if sign == "-" else n, d)
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    if bits > _MAX_COEFF_BITS:
        raise OverBudget(bits)
    return value


def _bits(p: Poly) -> int:
    """Bits of the largest numerator or of the denominator of p."""
    return max(max(map(abs, p.nums.values())).bit_length(), p.den.bit_length())


def _lead(p: Poly, variables: "tuple[str, ...]") -> Fraction:
    """p's grlex-leading coefficient with its terms over `variables`."""
    nums = p.nums if p.vars == variables else p._remapped(variables)
    return Fraction(nums[max(nums, key=_grlex)], p.den)


# -- public operations -----------------------------------------------------------------


def parse_field_spec(source: str) -> FieldSpec:
    """Parse DSL text into a FieldSpec; parsing is deterministic."""
    return _Parser(source).file()


def lower_to_polynomials(spec: FieldSpec) -> VectorField:
    """The field of `spec`, its components over the parameters (declaration
    order) and then the two state variables; this keeps printed forms like
    `a*x^2 - 2*x*y` stable.
    """
    order = tuple(p.name for p in spec.params) + spec.state_vars
    f1, f2 = (p.reordered(order) for p in spec.rhs)
    return VectorField(f1, f2, spec.state_vars, spec.params)
