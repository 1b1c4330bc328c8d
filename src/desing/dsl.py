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

Rational literals accept `p/q` and decimal forms; decimals are converted
exactly (0.5 -> 1/2), so no floats ever enter the symbolic core.  Comments
run from `#` to end of line.  Parentheses nest at most 100 levels deep; a
sum or product may have any length.

The parser expands as it goes: each rule returns a `Poly`, and `+`, `-`,
`*` and `^` are applied left to right as they are read, so a FieldSpec holds
the two right-hand sides already expanded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .poly import Poly
from .vectorfield import Param, VectorField

_MAX_EXPONENT = 10_000
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
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<newline>\n)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<symbol>[;=+\-*^()/>])
    """,
    re.VERBOSE,
)


def _lex(source: str) -> "list[Token]":
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        if m.lastgroup == "newline":
            line += 1
            col = 1
        else:
            if m.lastgroup == "ident":
                tokens.append(Token("IDENT", text, line, col))
            elif m.lastgroup == "number":
                tokens.append(Token("NUMBER", text, line, col))
            elif m.lastgroup == "symbol":
                tokens.append(Token("SYMBOL", text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("EOF", "", line, col))
    return tokens


# -- parser ------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: "list[Token]"):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: "Token | None" = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

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
        out = self.term()
        while self.at_symbol("+") or self.at_symbol("-"):
            if self.next().text == "+":
                out = out + self.term()
            else:
                out = out - self.term()
        return out

    def term(self) -> Poly:
        out = self.factor()
        while self.at_symbol("*"):
            self.next()
            out = out * self.factor()
        return out

    def factor(self) -> Poly:
        if self.at_symbol("-"):
            self.next()
            return -self.factor_tail()
        return self.factor_tail()

    def factor_tail(self) -> Poly:
        out = self.base()
        if self.at_symbol("^"):
            self.next()
            out = out ** self.nat_exponent()
        return out

    def nat_exponent(self) -> int:
        tok = self.peek()
        if tok.kind != "NUMBER" or "." in tok.text:
            self.fail("exponent must be a non-negative integer literal", tok)
        self.next()
        value = int(tok.text)
        if value > _MAX_EXPONENT:
            self.fail(f"exponent {value} exceeds the supported bound {_MAX_EXPONENT}", tok)
        return value

    def base(self) -> Poly:
        tok = self.peek()
        if tok.kind == "IDENT":
            self.next()
            if tok.text not in self.idents:
                self.fail(f"undeclared identifier '{tok.text}'", tok)
            return Poly.var(tok.text)
        if tok.kind == "NUMBER":
            self.next()
            value = Fraction(tok.text)
            if self.at_symbol("/"):
                self.next()
                den = self.peek()
                if den.kind != "NUMBER" or "." in den.text:
                    self.fail("denominator must be an integer literal", den)
                self.next()
                if int(den.text) == 0:
                    self.fail("zero denominator in rational literal", den)
                value = value / int(den.text)
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


# -- public operations -----------------------------------------------------------------


def parse_field_spec(source: str) -> FieldSpec:
    """Parse DSL text into a FieldSpec; parsing is deterministic."""
    return _Parser(_lex(source)).file()


def lower_to_polynomials(spec: FieldSpec) -> VectorField:
    """The field of `spec`, its components over the parameters (declaration
    order) and then the two state variables; this keeps printed forms like
    `a*x^2 - 2*x*y` stable.
    """
    order = tuple(p.name for p in spec.params) + spec.state_vars
    f1, f2 = (p.reordered(order) for p in spec.rhs)
    return VectorField(f1, f2, spec.state_vars, spec.params)
