import operator
import random
from fractions import Fraction

import pytest

from desing.dsl import lower_to_polynomials, parse_field_spec
from desing.errors import ParseError
from desing.poly import Poly, poly_vars

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

_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def interpret(tree, leaf):
    """Fold `tree` with the ring operations of whatever `leaf` returns."""
    kind = tree[0]
    if kind in ("num", "name"):
        return leaf(tree)
    if kind == "neg":
        return -interpret(tree[1], leaf)
    if kind == "pow":
        return interpret(tree[1], leaf) ** tree[2]
    return _BINARY[kind](interpret(tree[1], leaf), interpret(tree[2], leaf))


def eval_tree(tree, env):
    return interpret(tree, lambda t: t[1] if t[0] == "num" else env[t[1]])


def poly_tree(tree):
    return interpret(tree, lambda t: Poly.const(t[1]) if t[0] == "num" else Poly.var(t[1]))


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
