import operator
import random
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desing import dsl
from desing.dsl import lower_to_polynomials, parse_field_spec
from desing.errors import ParseError
from desing.poly import Poly, poly_vars
from test_poly import ref_mul, ref_pow

QUADRATIC_SRC = "param a > 0; var x y; dx/dt = a*x^2 - 2*x*y; dy/dt = y^2 - a*x*y;"


def test_parse_reference_example():
    spec = parse_field_spec(QUADRATIC_SRC)
    assert spec.state_vars == ("x", "y")
    assert [(p.name, p.positive) for p in spec.params] == [("a", True)]
    f = lower_to_polynomials(spec)
    a, x, y = poly_vars("a", "x", "y")
    assert f.f1 == a * x**2 - 2 * x * y
    assert f.f2 == y**2 - a * x * y
    assert f.params[0].positive


def test_parse_zero_field():
    spec = parse_field_spec("var x y; dx/dt = 0; dy/dt = 0;")
    f = lower_to_polynomials(spec)
    assert f.is_zero()
    assert f.params == ()


def test_negative_exponent_rejected():
    with pytest.raises(ParseError, match="exponent"):
        parse_field_spec("var x y; dx/dt = x^(-1); dy/dt = 0;")


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError, match="exponent"):
        parse_field_spec("var x y; dx/dt = x^1.5; dy/dt = 0;")


def test_huge_exponent_rejected():
    with pytest.raises(ParseError, match="exceeds"):
        parse_field_spec("var x y; dx/dt = x^99999; dy/dt = 0;")


def test_undeclared_identifier():
    with pytest.raises(ParseError, match="undeclared identifier 'b'"):
        parse_field_spec("var x y; dx/dt = b*x; dy/dt = 0;")


def test_wrong_arity():
    with pytest.raises(ParseError):
        parse_field_spec("var x y; dx/dt = x;")
    with pytest.raises(ParseError, match="two equations"):
        parse_field_spec("var x y; dx/dt = x; dy/dt = y; dx/dt = x;")


def test_equations_must_follow_declaration_order():
    with pytest.raises(ParseError, match="declaration order"):
        parse_field_spec("var x y; dy/dt = y; dx/dt = x;")


def test_lexical_error_position():
    with pytest.raises(ParseError) as err:
        parse_field_spec("var x y;\ndx/dt = x ? y;\ndy/dt = 0;")
    assert err.value.line == 2
    assert err.value.column == 11


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse_field_spec("param a; var x y; dx/dt = a x; dy/dt = 0;")


def test_decimal_literals_exact():
    spec = parse_field_spec("var x y; dx/dt = 0.5*x; dy/dt = 2.75*y;")
    x, y = poly_vars("x", "y")
    assert spec.rhs[0] == Fraction(1, 2) * x
    f = lower_to_polynomials(spec)
    assert f.f1 == Fraction(1, 2) * x
    assert f.f2 == Fraction(11, 4) * y


def test_rational_literals():
    spec = parse_field_spec("var x y; dx/dt = 2/3*x; dy/dt = 0;")
    assert spec.rhs[0] == Fraction(2, 3) * Poly.var("x")
    with pytest.raises(ParseError, match="denominator"):
        parse_field_spec("var x y; dx/dt = 1/0*x; dy/dt = 0;")


def test_binomial_identity_lowering():
    spec = parse_field_spec("var x y; dx/dt = (x+y)^2 - x^2 - y^2; dy/dt = 0;")
    f = lower_to_polynomials(spec)
    x, y = poly_vars("x", "y")
    assert f.f1 == 2 * x * y


# -- expression trees local to the tests ------------------------------------------
# A tree is ("num", Fraction), ("name", str), ("neg", tree), ("pow", tree, int)
# or (op, left, right) with op one of "add", "sub", "mul".

_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "pow": operator.pow}
# the parser adds with one Poly.sum per sum and multiplies through Poly's
# one-term passes; the reference adds with binary Poly.__add__ and multiplies
# with the double loop
_REFERENCE = dict(_OPS, mul=ref_mul, pow=ref_pow)


def interpret(tree, leaf, ops=_OPS):
    """Fold `tree` with the ring operations `ops` on whatever `leaf` returns."""
    kind = tree[0]
    if kind in ("num", "name"):
        return leaf(tree)
    if kind == "neg":
        return -interpret(tree[1], leaf, ops)
    if kind == "pow":
        return ops["pow"](interpret(tree[1], leaf, ops), tree[2])
    return ops[kind](interpret(tree[1], leaf, ops), interpret(tree[2], leaf, ops))


def eval_tree(tree, env):
    return interpret(tree, lambda t: t[1] if t[0] == "num" else env[t[1]])


def poly_tree(tree):
    return interpret(tree, lambda t: Poly.const(t[1]) if t[0] == "num" else Poly.var(t[1]), _REFERENCE)


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ("name", rng.choice(["x", "y", "a"]))
        return ("num", Fraction(rng.randint(0, 9), rng.randint(1, 5)))
    kind = rng.choice(["add", "sub", "mul", "neg", "pow"])
    if kind == "neg":
        return ("neg", random_tree(rng, depth - 1))
    if kind == "pow":
        return ("pow", random_tree(rng, 0), rng.randint(0, 4))
    return (kind, random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def render(e, level=0):
    """Source text with minimal parentheses; levels: 0 sum, 1 product, 2 factor,
    3 base of a power or operand of a minus sign.  A right operand sits one
    level deeper than its left, so the parser's left associativity must
    rebuild the same tree."""
    kind = e[0]
    if kind in ("num", "name"):
        return str(e[1])
    if kind == "pow":
        return f"{render(e[1], 3)}^{e[2]}"
    if kind == "neg":
        body, own = f"-{render(e[1], 3)}", 2
    elif kind == "mul":
        body, own = f"{render(e[1], 1)}*{render(e[2], 2)}", 1
    else:
        op = "+" if kind == "add" else "-"
        body, own = f"{render(e[1], 0)} {op} {render(e[2], 1)}", 0
    return f"({body})" if level > own else body


def test_lowering_agrees_with_tree_interpreter():
    # the parsed polynomial takes the tree's exact value at random rational points
    rng = random.Random(2024)
    for _ in range(100):
        tree = random_tree(rng, 5)
        src = f"param a;\nvar x y;\ndx/dt = {render(tree)};\ndy/dt = 0;\n"
        poly = parse_field_spec(src).rhs[0]
        for _ in range(10):
            env = {
                "x": Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                "y": Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                "a": Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            }
            expected = eval_tree(tree, env)
            assert poly.bind({k: v for k, v in env.items() if k in poly.vars}) == expected


def test_random_trees_roundtrip_through_renderer():
    # the parser rebuilds the tree: its polynomial has the variables and the
    # term list (order included) of the tree expanded with Poly operations
    rng = random.Random(99)
    for _ in range(50):
        tree = random_tree(rng, 4)
        src = f"param a;\nvar x y;\ndx/dt = {render(tree)};\ndy/dt = 0;\n"
        parsed = parse_field_spec(src).rhs[0]
        expanded = poly_tree(tree)
        assert parsed.vars == expanded.vars
        assert list(parsed.terms.items()) == list(expanded.terms.items())


@pytest.mark.parametrize(
    "expr, variables, terms",
    [
        ("x - x + x", ("x",), [((1,), 1)]),
        ("x + 1 - x + x", ("x",), [((0,), 1), ((1,), 1)]),  # a cancelled key re-enters at the end
        ("1 + x + a*y", ("x", "a", "y"), [((0, 0, 0), 1), ((1, 0, 0), 1), ((0, 1, 1), 1)]),
        ("y^2 - 3*(a - a) + x*y", ("y", "a", "x"), [((2, 0, 0), 1), ((1, 0, 1), 1)]),
        ("1 + 2 - 1/2", (), [((), Fraction(5, 2))]),
        ("0 + 0 - 0", (), []),
        ("x*0 - 0*y + 0", ("x", "y"), []),
    ],
)
def test_sum_fold_keeps_variable_and_term_order(expr, variables, terms):
    # the sum adds term by term as Poly.__add__ does: variables join where the
    # sum first meets them and a key that cancels re-enters at the end
    parsed = parse_field_spec(f"param a; var x y; dx/dt = {expr}; dy/dt = 0;").rhs[0]
    assert (parsed.vars, list(parsed.terms.items())) == (variables, terms)


def test_coefficient_bound_at_the_exponent():
    # the power's leading coefficient is 2^(8191*n): 65536 bits at n = 8
    src = "var x y; dx/dt = (2^8191*x + y)^{n}; dy/dt = 0;"
    assert parse_field_spec(src.format(n=8)).rhs[0].terms[(8, 0)] == 2 ** (8191 * 8)
    with pytest.raises(ParseError, match="coefficient of about 73728 bits exceeds the supported bound of 65536") as exc:
        parse_field_spec(src.format(n=9))
    assert (exc.value.line, exc.value.column) == (1, src.index("{n}") + 1)
    with pytest.raises(ParseError, match="65544 bits"):
        parse_field_spec("var x y; dx/dt = (1/2^8192)^8*x; dy/dt = 0;")


def test_coefficient_bound_admits_the_input_corpus():
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "inputs").glob("*.vf")) + sorted((root / "tests" / "golden" / "inputs").glob("*.vf"))
    assert files
    for path in files:
        parse_field_spec(path.read_text(encoding="utf-8"))


def test_nesting_limit_at_the_offending_parenthesis():
    ok = "var x y; dx/dt = " + "(" * 100 + "x^2" + ")" * 100 + "; dy/dt = y^2;"
    assert str(lower_to_polynomials(parse_field_spec(ok)).f1) == "x^2"
    deep = "var x y; dx/dt = " + "(" * 101 + "x^2" + ")" * 101 + "; dy/dt = y^2;"
    with pytest.raises(ParseError, match="nested deeper than 100 levels") as exc:
        parse_field_spec(deep)
    assert (exc.value.line, exc.value.column) == (1, len("var x y; dx/dt = ") + 101)


def test_long_chains_lower_like_short_ones():
    # a sum or product of any length lowers without recursing along it
    x, y = poly_vars("x", "y")
    spec = parse_field_spec(
        "var x y; dx/dt = " + " - ".join(["x*y"] * 3000) + "; dy/dt = " + "*".join(["y"] * 1500) + ";"
    )
    f = lower_to_polynomials(spec)
    assert f.f1 == -2998 * x * y
    assert f.f2 == y**1500
    again = parse_field_spec(
        "var x y; dx/dt = " + " - ".join(["x*y"] * 3000) + "; dy/dt = " + "*".join(["y"] * 1500) + ";"
    )
    assert hash(spec) == hash(again)
    assert spec == again


# -- error positions against the line and column walk ------------------------------


_WALK_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<newline>\n)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<symbol>[;=+\-*^()/>])
    """,
    re.VERBOSE,
)


def line_column_walk(source):
    """The lexer as it was before tokens kept only their offsets: it counts
    a line and a column along every token, and a newline token starts the
    next line.  Returns (kind, text, line, column) per token, EOF included,
    or raises at an unexpected character.  Its numbers are any Unicode
    decimal digits, so the sources below use ASCII digits only."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _WALK_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        if m.lastgroup == "newline":
            line += 1
            col = 1
        else:
            if m.lastgroup in ("ident", "number", "symbol"):
                tokens.append((m.lastgroup.upper(), text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(("EOF", "", line, col))
    return tokens


_VALID = "param a > 0;\nvar x y;\ndx/dt = a*x^2 - 2*x*y;\ndy/dt = y^2 - 1/2*a*x*y + 0.5;\n"
_GAPS = ("", " ", "  ", "\t", "\n", "\r\n", " # note\n", "\t# note\r\n", "\n\n\t")
_STRAYS = ("?", "$", "\u00e9", "\u00a0", "!")


@st.composite
def edited_files(draw):
    """A valid file with its gaps redrawn (an empty gap can merge two
    tokens), then cut short, with one ';' dropped or a stray character put
    in; or fragments of DSL text in any order."""
    if draw(st.booleans()):
        fragments = [" ", "\t", "\n", "\r\n", "# note\n", "# no end", "var x y;", "param a;", "dx/dt",
                     "dy/dt", "=", "x", "y", "a", "*", "^", "2", "1/2", "0.5", "+", "-", "(", ")", ";",
                     *_STRAYS]
        return "".join(draw(st.lists(st.sampled_from(fragments), max_size=30)))
    source = "".join(draw(st.sampled_from(_GAPS)) + t[1] for t in line_column_walk(_VALID))
    edit = draw(st.sampled_from(("none", "cut", "drop ;", "stray")))
    at = draw(st.integers(0, len(source)))
    if edit == "cut":
        source = source[:at]
    elif edit == "drop ;":
        semis = [i for i, ch in enumerate(source) if ch == ";"]
        i = semis[at % len(semis)]
        source = source[:i] + source[i + 1:]
    elif edit == "stray":
        source = source[:at] + draw(st.sampled_from(_STRAYS)) + source[at:]
    return source


@settings(max_examples=400, deadline=None)
@given(edited_files())
def test_error_positions_match_the_line_and_column_walk(source):
    # every token's offset converts to the line and column the walk counts,
    # and a ParseError reads the line and column of the offset it was raised
    # at, with the message the lexer or parser gave
    raised = []
    real = dsl._error

    def recording(src, pos, message):
        raised.append((pos, message))
        return real(src, pos, message)

    with mock.patch.object(dsl, "_error", recording):
        try:
            parse_field_spec(source)
            err = None
        except ParseError as exc:
            err = exc
    try:
        walk = line_column_walk(source)
    except ParseError as expected:
        assert err is not None
        assert (err.line, err.column, str(err)) == (expected.line, expected.column, str(expected))
        return
    tokens = dsl._lex(source)
    assert [(t.kind, t.text) for t in tokens] == [w[:2] for w in walk]
    for t, (_, _, line, col) in zip(tokens, walk):
        e = real(source, t.pos, "")
        assert (e.line, e.column) == (line, col)
    if err is not None:
        ((pos, message),) = raised
        ((_, _, line, col),) = [w for t, w in zip(tokens, walk) if t.pos == pos]
        assert (err.line, err.column, str(err)) == (line, col, f"{line}:{col}: {message}")
