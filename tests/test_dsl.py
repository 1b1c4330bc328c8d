import random
from fractions import Fraction

import pytest

from desing.dsl import (
    Add,
    FieldSpec,
    Mul,
    Name,
    Neg,
    Num,
    Pow,
    Sub,
    lower_expr,
    lower_to_polynomials,
    parse_field_spec,
)
from desing.errors import ParseError
from desing.poly import poly_vars

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
    assert spec.rhs[0] == Mul(Num(Fraction(1, 2)), Name("x"))
    f = lower_to_polynomials(spec)
    x, y = poly_vars("x", "y")
    assert f.f1 == Fraction(1, 2) * x
    assert f.f2 == Fraction(11, 4) * y


def test_rational_literals():
    spec = parse_field_spec("var x y; dx/dt = 2/3*x; dy/dt = 0;")
    assert spec.rhs[0] == Mul(Num(Fraction(2, 3)), Name("x"))
    with pytest.raises(ParseError, match="denominator"):
        parse_field_spec("var x y; dx/dt = 1/0*x; dy/dt = 0;")


def test_binomial_identity_lowering():
    spec = parse_field_spec("var x y; dx/dt = (x+y)^2 - x^2 - y^2; dy/dt = 0;")
    f = lower_to_polynomials(spec)
    x, y = poly_vars("x", "y")
    assert f.f1 == 2 * x * y


def test_pretty_print_fixed_point():
    for src in (
        QUADRATIC_SRC,
        "var x y; dx/dt = -(x + y)*x^2; dy/dt = 1/2 - y;",
        "param mu; param a > 0; var u v; du/dt = mu*u - v^3; dv/dt = -u*-v;",
    ):
        once = parse_field_spec(src).to_source()
        twice = parse_field_spec(once).to_source()
        assert once == twice


# -- independent tree-interpreter oracle -------------------------------------------


def eval_tree(expr, env):
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Name):
        return env[expr.ident]
    if isinstance(expr, Neg):
        return -eval_tree(expr.arg, env)
    if isinstance(expr, Add):
        return eval_tree(expr.left, env) + eval_tree(expr.right, env)
    if isinstance(expr, Sub):
        return eval_tree(expr.left, env) - eval_tree(expr.right, env)
    if isinstance(expr, Mul):
        return eval_tree(expr.left, env) * eval_tree(expr.right, env)
    if isinstance(expr, Pow):
        return eval_tree(expr.base, env) ** expr.exponent
    raise TypeError(expr)


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Name(rng.choice(["x", "y", "a"]))
        return Num(Fraction(rng.randint(0, 9), rng.randint(1, 5)))
    kind = rng.choice(["add", "sub", "mul", "neg", "pow"])
    if kind == "neg":
        return Neg(random_tree(rng, depth - 1))
    if kind == "pow":
        return Pow(random_tree(rng, 0), rng.randint(0, 4))
    left = random_tree(rng, depth - 1)
    right = random_tree(rng, depth - 1)
    return {"add": Add, "sub": Sub, "mul": Mul}[kind](left, right)


def test_lowering_agrees_with_tree_interpreter():
    rng = random.Random(2024)
    for _ in range(100):
        tree = random_tree(rng, 5)
        poly = lower_expr(tree)
        for _ in range(10):
            env = {
                "x": Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                "y": Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                "a": Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            }
            expected = eval_tree(tree, env)
            got = poly.evaluate({k: v for k, v in env.items() if k in poly.effective_vars()})
            assert got == expected


def test_random_trees_roundtrip_through_renderer():
    from desing.dsl import render_expr

    rng = random.Random(99)
    for _ in range(50):
        tree = random_tree(rng, 4)
        src = f"param a;\nvar x y;\ndx/dt = {render_expr(tree)};\ndy/dt = 0;\n"
        spec = parse_field_spec(src)
        assert lower_expr(spec.rhs[0]) == lower_expr(tree)


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
