import math
from fractions import Fraction

import numpy as np
import pytest

from desing.charts import ChartId, blow_up_in_chart
from desing.dsl import lower_to_polynomials, parse_field_spec
from desing.dynamo import (
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
from desing.poly import Poly, poly_vars
from desing.selfcheck import check_conjugacy, check_divisor_invariance, demo_system
from desing.vectorfield import VectorField
from desing.weights import Weights, infer_weights

F = demo_system()
W = Weights(1, 1, 1)
A1 = {"a": Fraction(1)}


def test_zero_field_constant_trajectory():
    tr = integrate(lambda u, v: (0.0, 0.0), (0.3, -0.7), 1.0, 0.1)
    assert tr.termination == "max-time"
    assert all((u, v) == (0.3, -0.7) for _, u, v in tr.points)


def test_linear_field_exponential():
    # (x, -y) from (1, 1): endpoint (e, 1/e)
    tr = integrate(lambda u, v: (u, -v), (1.0, 1.0), 1.0, 1e-3)
    _, u, v = tr.points[-1]
    assert abs(u - math.e) < 1e-6
    assert abs(v - 1 / math.e) < 1e-6


def test_step_halving_oracle_on_reference_field():
    fn = F.as_callable(A1)
    end_h = integrate(fn, (0.1, 0.2), 1.0, 1e-3).points[-1]
    end_h2 = integrate(fn, (0.1, 0.2), 1.0, 5e-4).points[-1]
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
        integrate(lambda u, v: (float("nan"), 0.0), (0.0, 0.0), 1.0, 0.1)
    with pytest.raises(NonFiniteField):
        integrate(lambda u, v: (0.0, 0.0), (float("inf"), 0.0), 1.0, 0.1)


def test_bad_steps_rejected():
    with pytest.raises(ValueError):
        integrate(lambda u, v: (0.0, 0.0), (0.0, 0.0), 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(lambda u, v: (0.0, 0.0), (0.0, 0.0), -1.0, 0.1)


def test_domain_guard_terminates_escape():
    tr = integrate(lambda u, v: (u * u, 0.0), (1.0, 0.0), 10.0, 1e-3)
    assert tr.termination == "left-domain"
    assert all(abs(u) <= 1e6 for _, u, _ in tr.points)


def test_chart_overflow_ends_in_left_domain():
    # K1 of x' = -y^3, y' = x^3 has w' = 1 + w^4: w escapes in finite time,
    # and float ** overflows inside one RK4 step before the domain guard
    f = lower_to_polynomials(parse_field_spec("var x y; dx/dt = -y^3; dy/dt = x^3;"))
    ff = frame_chart(blow_up_in_chart(f, infer_weights(f), ChartId.K1), {})
    for field in (ff, ff.negated()):
        tr = integrate(field, (0.1, 0.5), 2.0, 0.01)
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
    tr = integrate(lambda u, v: (-1.0, 0.0), (0.05, 0.0), 10.0, 1e-2, radial_index=0)
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
