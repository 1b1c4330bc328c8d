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
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ParseError
from .poly import Poly
from .vectorfield import Param, VectorField

_MAX_EXPONENT = 10_000
# the parser and the lowering recurse once per level of parentheses
_MAX_NESTING = 100

# -- expression trees ----------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Union[Num, Name, Neg, Add, Sub, Mul, Pow]


@dataclass(frozen=True)
class FieldSpec:
    params: "tuple[Param, ...]"
    state_vars: "tuple[str, str]"
    rhs: "tuple[Expr, Expr]"

    def to_source(self) -> str:
        """Canonical rendering; a fixed point of parse followed by render."""
        lines = []
        for p in self.params:
            lines.append(f"param {p.name} > 0;" if p.positive else f"param {p.name};")
        lines.append(f"var {self.state_vars[0]} {self.state_vars[1]};")
        for var, expr in zip(self.state_vars, self.rhs):
            lines.append(f"d{var}/dt = {render_expr(expr)};")
        return "\n".join(lines) + "\n"


def render_expr(e: Expr, parent_level: int = 0) -> str:
    """Minimal-parentheses rendering; levels: 0 sum, 1 product, 2 factor."""
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Pow):
        return f"{render_expr(e.base, 3)}^{e.exponent}"
    if isinstance(e, Neg):
        body = f"-{render_expr(e.arg, 2)}"
        return f"({body})" if parent_level >= 3 else body
    if isinstance(e, Mul):
        body = f"{render_expr(e.left, 1)}*{render_expr(e.right, 2)}"
        return f"({body})" if parent_level >= 2 else body
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        body = f"{render_expr(e.left, 0)} {op} {render_expr(e.right, 1)}"
        return f"({body})" if parent_level >= 1 else body
    raise TypeError(f"unknown expression node {e!r}")


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

    def equation(self, expected_var: str) -> Expr:
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

    def expr(self) -> Expr:
        node = self.term()
        while self.at_symbol("+") or self.at_symbol("-"):
            op = self.next().text
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.at_symbol("*"):
            self.next()
            node = Mul(node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.at_symbol("-"):
            self.next()
            return Neg(self.factor_tail())
        return self.factor_tail()

    def factor_tail(self) -> Expr:
        node = self.base()
        if self.at_symbol("^"):
            self.next()
            node = Pow(node, self.nat_exponent())
        return node

    def nat_exponent(self) -> int:
        tok = self.peek()
        if tok.kind != "NUMBER" or "." in tok.text:
            self.fail("exponent must be a non-negative integer literal", tok)
        self.next()
        value = int(tok.text)
        if value > _MAX_EXPONENT:
            self.fail(f"exponent {value} exceeds the supported bound {_MAX_EXPONENT}", tok)
        return value

    def base(self) -> Expr:
        tok = self.peek()
        if tok.kind == "IDENT":
            self.next()
            if tok.text not in self.idents:
                self.fail(f"undeclared identifier '{tok.text}'", tok)
            return Name(tok.text)
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
            return Num(value)
        if self.at_symbol("("):
            if self.depth == _MAX_NESTING:
                self.fail(f"parentheses nested deeper than {_MAX_NESTING} levels", tok)
            self.next()
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            self.expect_symbol(")")
            return node
        self.fail(f"expected identifier, number or '(', found {tok.text!r}"
                  if tok.text else "unexpected end of input")


# -- public operations -----------------------------------------------------------------


def parse_field_spec(source: str) -> FieldSpec:
    """Parse DSL text into a FieldSpec; parsing is deterministic."""
    return _Parser(_lex(source)).file()


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def lower_expr(expr: Expr) -> Poly:
    # a sum or product of any length is a left-leaning chain: walk its left
    # spine in a loop, so only parentheses deepen the recursion
    spine = []
    while type(expr) in _BINARY:
        spine.append(expr)
        expr = expr.left
    if isinstance(expr, Num):
        out = Poly.const(expr.value)
    elif isinstance(expr, Name):
        out = Poly.var(expr.ident)
    elif isinstance(expr, Neg):
        out = -lower_expr(expr.arg)
    elif isinstance(expr, Pow):
        out = lower_expr(expr.base) ** expr.exponent
    else:
        raise TypeError(f"unknown expression node {expr!r}")
    for node in reversed(spine):
        out = _BINARY[type(node)](out, lower_expr(node.right))
    return out


def lower_to_polynomials(spec: FieldSpec) -> VectorField:
    """Expand the expression trees into canonical polynomial components.

    Variable order is parameters first (declaration order), then the two
    state variables; this keeps printed forms like `a*x^2 - 2*x*y` stable.
    """
    order = tuple(p.name for p in spec.params) + spec.state_vars
    f1 = lower_expr(spec.rhs[0]).reordered(order)
    f2 = lower_expr(spec.rhs[1]).reordered(order)
    return VectorField(f1, f2, spec.state_vars, spec.params)
