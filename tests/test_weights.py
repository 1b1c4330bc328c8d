import random
from math import gcd, lcm

import pytest
from sympy import Matrix

from desing.errors import AmbiguousWeights, NotQuasiHomogeneous
from desing.poly import Poly, poly_vars
from desing.selfcheck import check_weights_oracle, demo_system
from desing.vectorfield import VectorField
from desing.weights import Weights, _nullspace, infer_weights, verify_weights

x, y = poly_vars("x", "y")


def test_reference_example_weights():
    assert infer_weights(demo_system()) == Weights(1, 1, 1)


def test_weighted_cubic():
    # f = (x^2, y^3): 2*alpha = alpha + k and 3*beta = beta + k force
    # (alpha, beta, k) proportional to (2, 1, 2)
    f = VectorField(x**2, y**3, ("x", "y"))
    assert infer_weights(f) == Weights(2, 1, 2)


def test_not_quasi_homogeneous():
    # f = (x^2 + y, y^2): alpha = k, beta = 2k and beta = k conflict
    f = VectorField(x**2 + y, y**2, ("x", "y"))
    with pytest.raises(NotQuasiHomogeneous):
        infer_weights(f)


def test_mixed_field_is_type_1_1():
    f = VectorField(x**2 + x * y, y**2 + x * y, ("x", "y"))
    assert infer_weights(f) == Weights(1, 1, 1)


def test_zero_field_rejected():
    f = VectorField(Poly.zero(("x", "y")), Poly.zero(("x", "y")), ("x", "y"))
    with pytest.raises(NotQuasiHomogeneous):
        infer_weights(f)


def test_verify_weights_reference():
    f = demo_system()
    assert verify_weights(f, Weights(1, 1, 1))
    assert not verify_weights(f, Weights(2, 1, 1))


def test_verify_weights_zero_component_vacuous():
    f = VectorField(x**2, Poly.zero(("x", "y")), ("x", "y"))
    # any triple satisfying f1's constraint 2*alpha = alpha + k verifies
    assert verify_weights(f, Weights(3, 5, 3))
    assert not verify_weights(f, Weights(3, 5, 1))


def test_scaling_invariance():
    f = demo_system()
    for t in (1, 2, 5):
        assert verify_weights(f, Weights(t, t, t))
    assert infer_weights(f) == Weights(1, 1, 1)  # primitive representative


def test_ambiguous_weights_reports_generators():
    f = VectorField(x**2, Poly.zero(("x", "y")), ("x", "y"))
    with pytest.raises(AmbiguousWeights) as err:
        infer_weights(f)
    assert err.value.suggestion == (1, 1, 1)
    assert len(err.value.generators) == 2


def test_ambiguous_linear_field():
    f = VectorField(x, y, ("x", "y"))
    with pytest.raises(AmbiguousWeights) as err:
        infer_weights(f)
    # k = 0 forced, (alpha, beta) free; minimal positive suggestion
    assert err.value.suggestion == (1, 1, 0)


def test_linear_swap_is_unambiguous():
    f = VectorField(y, x, ("x", "y"))
    assert infer_weights(f) == Weights(1, 1, 0)


def test_parameters_do_not_carry_weight():
    f = demo_system()  # coefficients include the parameter a
    w = infer_weights(f)
    assert (w.alpha, w.beta, w.k) == (1, 1, 1)


def test_invalid_weights_rejected():
    with pytest.raises(ValueError):
        Weights(0, 1, 1)
    with pytest.raises(ValueError):
        Weights(1, 1, -1)


def test_brute_force_oracle_random():
    res = check_weights_oracle(seed=2718)
    assert res.passed, res.detail


def test_inferred_weights_always_verify():
    # self-consistency on random quasi-homogeneous samples
    from desing.selfcheck import _random_quasihomogeneous

    rng = random.Random(31415)
    for _ in range(50):
        f, _ = _random_quasihomogeneous(rng)
        assert verify_weights(f, infer_weights(f))


def test_brute_force_enumeration_matches_inference():
    # independent oracle: scan alpha, beta, k <= 10 by direct verification
    f = VectorField(x**2, y**3, ("x", "y"))
    found = [
        (alpha, beta, k)
        for alpha in range(1, 11)
        for beta in range(1, 11)
        for k in range(0, 11)
        if verify_weights(f, Weights(alpha, beta, k))
    ]
    found.sort(key=lambda t: (t[0] + t[1] + t[2],))
    assert found[0] == (2, 1, 2)
    got = infer_weights(f)
    assert (got.alpha, got.beta, got.k) == found[0]


def _sympy_primitive(vec):
    scale = lcm(*(int(c.q) for c in vec))
    ints = [int(c * scale) for c in vec]
    g = gcd(*ints)
    lead = next(c for c in ints if c)
    return tuple(c // g if lead > 0 else -c // g for c in ints)


def test_nullspace_matches_sympy():
    rng = random.Random(1618)
    for _ in range(600):
        first = [rng.randint(-3, 3) for _ in range(3)]
        if not any(first):
            continue
        rows = {tuple(first)}
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:  # a parallel row keeps the rank at 1
                m = rng.choice([-2, -1, 2, 3])
                rows.add(tuple(m * c for c in first))
            else:
                row = tuple(rng.randint(-3, 3) for _ in range(3))
                if any(row):
                    rows.add(row)
        rows = sorted(rows)
        expected = [_sympy_primitive(v) for v in Matrix(rows).nullspace()]
        assert [tuple(v) for v in _nullspace(rows)] == expected, rows
