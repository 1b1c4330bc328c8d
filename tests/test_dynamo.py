import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desing.charts import ChartId, blow_up_in_chart
from desing.dsl import lower_to_polynomials, parse_field_spec
from desing.dynamo import (
    FrameField,
    GridSpec,
    conjugacy_check,
    frame_chart,
    frame_original,
    frame_polar,
    hausdorff_defect,
    integrate,
    observed_order,
    rescaling_check,
    sample_portrait,
)
from desing.errors import NonFiniteField
from desing.polar import HYPERBOLA, SPHERE, Branch, desingularize_polar, polar_pushforward
from desing.poly import Poly, float_evaluator, poly_vars
from desing.quotient import COS, RADIAL, SIN, TRIG
from desing.selfcheck import check_conjugacy, check_divisor_invariance, demo_system
from desing.vectorfield import VectorField
from desing.weights import Weights, infer_weights

F = demo_system()
W = Weights(1, 1, 1)
A1 = {"a": Fraction(1)}


def plane(func):
    return FrameField("original", func)


def test_zero_field_constant_trajectory():
    tr = integrate(plane(lambda u, v: (0.0, 0.0)), (0.3, -0.7), 1.0, 0.1)
    assert tr.termination == "max-time"
    assert all((u, v) == (0.3, -0.7) for _, u, v in tr.points)


def test_linear_field_exponential():
    # (x, -y) from (1, 1): endpoint (e, 1/e) forward, (1/e, e) backward
    ff = plane(lambda u, v: (u, -v))
    for backward, (eu, ev) in ((False, (math.e, 1 / math.e)), (True, (1 / math.e, math.e))):
        tr = integrate(ff, (1.0, 1.0), 1.0, 1e-3, backward=backward)
        t, u, v = tr.points[-1]
        assert t == pytest.approx(1.0)
        assert abs(u - eu) < 1e-6
        assert abs(v - ev) < 1e-6


@pytest.mark.parametrize("backward", [False, True])
def test_first_stage_is_the_seed_value(backward):
    # one step evaluates the field four times: the seed's value, checked
    # for finiteness, is the first stage
    calls = []

    def counting(u, v):
        calls.append((u, v))
        return (u, -v)

    tr = integrate(plane(counting), (1.0, 1.0), 0.1, 0.1, backward=backward)
    assert len(tr.points) == 2
    assert len(calls) == 4
    assert calls[0] == (1.0, 1.0)


def negated(ff):
    return FrameField(ff.frame, lambda u, v: tuple(-a for a in ff.func(u, v)), ff.radial_index)


def orbit_bits(ff, seed, t_end, h, backward=False):
    try:
        tr = integrate(ff, seed, t_end, h, backward)
    except NonFiniteField:
        return None
    return tr.termination, [struct.pack("<3d", *p) for p in tr.points]


coefficients = st.fractions(min_value=-10, max_value=10, max_denominator=8)
coordinates = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)


@pytest.mark.parametrize("sigma", [None, *sorted(TRIG)], ids=["plane", "hyperbola", "sphere"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_backward_is_the_negated_field_bit_for_bit(sigma, data):
    order = ("x", "y") if sigma is None else (COS, SIN, RADIAL)
    exps = st.tuples(*[st.integers(0, 3)] * len(order))
    polys = [Poly(order, data.draw(st.dictionaries(exps, coefficients, max_size=5))) for _ in range(2)]
    if sigma is None:
        func, first = float_evaluator(polys, order), coordinates
    else:
        # angles far enough out for powers of cosh to overflow
        func, first = float_evaluator(polys, order, TRIG[sigma]), coordinates | st.floats(-400.0, 400.0)
    ff = FrameField("f", func, data.draw(st.sampled_from([None, 0, 1])))
    seed = (data.draw(first), data.draw(coordinates))
    t_end = data.draw(st.sampled_from([0.5, 1.0]) | st.floats(0.01, 2.0))
    h = data.draw(st.sampled_from([0.5, 0.25, 0.1, 0.01]))
    assert orbit_bits(ff, seed, t_end, h, backward=True) == orbit_bits(negated(ff), seed, t_end, h)


def test_backward_from_a_signed_zero_seed():
    # x' = y, y' = 1 from (-0.0, 0.25) with h = 0.5: the backward x-stages
    # 0.25, 0, 0, -0.25 cancel exactly, and the zero increment is -0.0 in
    # reverse time but +0.0 on the negated field
    ff = frame_original(lower_to_polynomials(parse_field_spec("var x y; dx/dt = y; dy/dt = 1;")), {})
    seed = (-0.0, 0.25)
    assert orbit_bits(ff, seed, 0.5, 0.5, backward=True) == orbit_bits(negated(ff), seed, 0.5, 0.5)


def test_step_halving_oracle_on_reference_field():
    ff = frame_original(F, A1)
    end_h = integrate(ff, (0.1, 0.2), 1.0, 1e-3).points[-1]
    end_h2 = integrate(ff, (0.1, 0.2), 1.0, 5e-4).points[-1]
    assert math.hypot(end_h[1] - end_h2[1], end_h[2] - end_h2[2]) < 1e-6 * max(
        1.0, math.hypot(end_h2[1], end_h2[2])
    )


def test_observed_order_is_four():
    order = observed_order(frame_original(F, A1), (0.5, -0.5), 1.0, 1e-2)
    assert 3.5 <= order <= 4.5


def test_observed_order_reports_rounding_floor():
    # from a very tame seed the truncation error drowns in rounding noise
    order = observed_order(frame_original(F, A1), (0.1, 0.2), 1.0, 1e-2)
    assert math.isinf(order)


def test_non_finite_rejected():
    with pytest.raises(NonFiniteField):
        integrate(plane(lambda u, v: (float("nan"), 0.0)), (0.0, 0.0), 1.0, 0.1)
    with pytest.raises(NonFiniteField):
        integrate(plane(lambda u, v: (0.0, 0.0)), (float("inf"), 0.0), 1.0, 0.1)


def test_bad_steps_rejected():
    zero = plane(lambda u, v: (0.0, 0.0))
    with pytest.raises(ValueError):
        integrate(zero, (0.0, 0.0), 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(zero, (0.0, 0.0), -1.0, 0.1)


def test_domain_guard_terminates_escape():
    tr = integrate(plane(lambda u, v: (u * u, 0.0)), (1.0, 0.0), 10.0, 1e-3)
    assert tr.termination == "left-domain"
    assert all(abs(u) <= 1e6 for _, u, _ in tr.points)


def test_chart_overflow_ends_in_left_domain():
    # K1 of x' = -y^3, y' = x^3 has w' = 1 + w^4: w escapes in finite time,
    # and float ** overflows inside one RK4 step before the domain guard
    f = lower_to_polynomials(parse_field_spec("var x y; dx/dt = -y^3; dy/dt = x^3;"))
    ff = frame_chart(blow_up_in_chart(f, infer_weights(f), ChartId.K1), {})
    for backward in (False, True):
        tr = integrate(ff, (0.1, 0.5), 2.0, 0.01, backward=backward)
        assert tr.termination == "left-domain"
        assert tr.points[-1][0] < 2.0
        assert all(math.isfinite(u) and math.isfinite(v) for _, u, v in tr.points)


def test_hyperbolic_overflow_ends_in_left_domain():
    # cosh overflows on the x-hyperbola of the demo field at a = 1
    pf = desingularize_polar(polar_pushforward(F, HYPERBOLA, Branch.X))
    trajs = sample_portrait(frame_polar(pf, A1), GridSpec(-1.0, 1.0, 4, 0.1, 1.0, 3, t_end=1.0, step=0.005))
    assert len(trajs) == 24
    assert any(tr.termination == "left-domain" for tr in trajs)
    assert all(math.isfinite(u) and math.isfinite(v) for tr in trajs for _, u, v in tr.points)


def test_radial_guard():
    ff = frame_chart(blow_up_in_chart(F, W, ChartId.K1), A1)
    tr = integrate(FrameField("K1", lambda u, v: (-1.0, 0.0), radial_index=0), (0.05, 0.0), 10.0, 1e-2)
    assert tr.termination == "left-domain"
    assert all(u >= 0 for _, u, _ in tr.points)
    assert ff.radial_index == 0


def test_divisor_invariance():
    res = check_divisor_invariance(F, W, A1)
    assert res.passed, res.detail


def test_divisor_seeds_stay_on_divisor():
    cf = blow_up_in_chart(F, W, ChartId.K1)
    ff = frame_chart(cf, A1)
    tr = integrate(ff, (0.0, 0.25), 2.0, 1e-2)
    assert max(abs(u) for _, u, _ in tr.points) < 1e-12


def test_rescaling_exact_point():
    cf = blow_up_in_chart(F, W, ChartId.K1)
    res = rescaling_check(cf, [(0.5, 1.0)], A1)
    assert res.checked == 1
    assert res.max_angle_defect == pytest.approx(0.0, abs=1e-12)
    # raw/desing length ratio equals the radial coordinate (k = 1)
    raw = cf.as_callable(A1, desingularized=False)
    des = cf.as_callable(A1, desingularized=True)
    assert math.hypot(*raw(0.5, 1.0)) / math.hypot(*des(0.5, 1.0)) == pytest.approx(0.5)


def test_rescaling_many_points():
    import random

    rng = random.Random(8)
    cf = blow_up_in_chart(F, W, ChartId.K2)
    pts = [(rng.uniform(0.01, 2.0), rng.uniform(-3.0, 3.0)) for _ in range(100)]
    res = rescaling_check(cf, pts, A1)
    assert res.max_angle_defect < 1e-10
    assert res.max_ratio_defect < 1e-10


def test_rescaling_requires_positive_radial():
    cf = blow_up_in_chart(F, W, ChartId.K1)
    with pytest.raises(ValueError):
        rescaling_check(cf, [(0.0, 1.0)], A1)


def test_conjugacy_reference_seed():
    cf = blow_up_in_chart(F, W, ChartId.K1)
    defect = conjugacy_check(F, cf, (0.3, 0.4), A1, t_end=1.0, h=1e-3)
    assert defect < 1e-6


def test_conjugacy_rejects_divisor_seed():
    cf = blow_up_in_chart(F, W, ChartId.K1)
    with pytest.raises(ValueError):
        conjugacy_check(F, cf, (0.0, 0.4), A1)


def test_conjugacy_zero_field():
    zero = VectorField(Poly.zero(("x", "y")), Poly.zero(("x", "y")), ("x", "y"))
    cf = blow_up_in_chart(zero, Weights(1, 1, 0), ChartId.K1)
    assert conjugacy_check(zero, cf, (0.3, 0.4), {}) == 0.0


def test_conjugacy_random_seeds():
    res = check_conjugacy(F, W, A1, seed=3)
    assert res.passed, res.detail


def test_conjugacy_decreases_under_step_halving():
    cf = blow_up_in_chart(F, W, ChartId.K1)
    d1 = conjugacy_check(F, cf, (0.3, 0.4), A1, t_end=1.0, h=2e-3)
    d2 = conjugacy_check(F, cf, (0.3, 0.4), A1, t_end=1.0, h=1e-3)
    assert d2 <= d1 or d2 < 1e-9


def test_hausdorff_defect_translated_segments():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.1], [1.0, 0.1]])
    assert hausdorff_defect(a, b) == pytest.approx(0.1, abs=1e-12)


def test_portrait_counts():
    ff = frame_chart(blow_up_in_chart(F, W, ChartId.K1), A1)
    grid = GridSpec(0.0, 1.0, 5, -1.0, 1.0, 5, t_end=0.2, step=1e-2)
    trajectories = sample_portrait(ff, grid)
    assert len(trajectories) == 50  # forward and backward per seed
    assert all(tr.frame == "K1" for tr in trajectories)


def test_portrait_empty_grid():
    ff = frame_original(F, A1)
    assert sample_portrait(ff, GridSpec(0, 1, 0, 0, 1, 5)) == []


def test_portrait_divisor_rows_stay():
    ff = frame_chart(blow_up_in_chart(F, W, ChartId.K1), A1)
    grid = GridSpec(0.0, 0.0, 1, -1.0, 1.0, 3, t_end=0.5, step=1e-2)
    for tr in sample_portrait(ff, grid):
        assert max(abs(u) for _, u, _ in tr.points) < 1e-12


def test_polar_frame_integration():
    pf = desingularize_polar(polar_pushforward(F, SPHERE))
    ff = frame_polar(pf, A1)
    tr = integrate(ff, (0.3, 0.2), 1.0, 1e-2)
    assert tr.frame == "sphere"
    assert tr.termination == "max-time"
    assert all(v >= 0 for _, _, v in tr.points)  # radius guarded
