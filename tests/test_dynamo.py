import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from desing.charts import ChartId, blow_up_in_chart, embed
from desing.dsl import lower_to_polynomials, parse_field_spec
from desing.dynamo import (
    FrameField,
    GridSpec,
    _arc_lengths,
    _min_dist_to_polyline,
    conjugacy_check,
    frame_chart,
    frame_original,
    frame_polar,
    hausdorff_defect,
    integrate,
    observed_order,
    sample_portrait,
)
from desing.errors import DesingError, NonFiniteField
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


@settings(max_examples=300, deadline=None)
@given(
    h=st.sampled_from([0.1, 0.01, 0.3, 0.7, 1.0]) | st.floats(1e-3, 10.0),
    n=st.integers(1, 1000),
    scale=st.sampled_from([1.0, 0.1, 0.01, 1e-7, 1.0 + 1e-12, 1.0 - 1e-12]) | st.floats(1e-3, 1.0),
)
@example(h=0.1, n=10, scale=1.0)  # t = 0.99999999999999989 after ten steps once took an 11th
@example(h=0.0025, n=400, scale=1.0)  # the h/4 orbit of verify's rk4-order check
def test_orbit_ends_at_t_end_in_at_most_ceil_steps(h, n, scale):
    # t_end near a multiple of h: a rounding sliver left after the last full
    # step is taken into the final step instead of a step of its own
    t_end = n * h * scale
    assume(t_end > 0.0 and t_end / h <= 1000)
    tr = integrate(plane(lambda u, v: (0.0, 0.0)), (0.3, -0.7), t_end, h)
    ts = [t for t, _, _ in tr.points]
    assert tr.termination == "max-time"
    assert ts[-1] == t_end
    assert len(ts) - 1 <= math.ceil(t_end / h)
    assert all(a < b for a, b in zip(ts, ts[1:]))


def test_sample_portrait_integrates_each_orbit_when_asked():
    seeds = []

    def func(u, v):
        seeds.append((u, v))
        return (0.0, 0.0)

    orbits = sample_portrait(plane(func), GridSpec(0.0, 1.0, 2, 0.0, 1.0, 2, t_end=0.1, step=0.1))
    assert seeds == []
    first = next(orbits)
    assert first.points[0][1:] == (0.0, 0.0) and len(seeds) == 4  # one RK4 step
    assert len(list(orbits)) == 7


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
    trajs = list(sample_portrait(frame_polar(pf, A1), GridSpec(-1.0, 1.0, 4, 0.1, 1.0, 3, t_end=1.0, step=0.005)))
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


def test_conjugacy_check_blows_each_chart_up_once(monkeypatch):
    import desing.selfcheck

    charts = []

    def counting(f, w, chart):
        charts.append(chart)
        return blow_up_in_chart(f, w, chart)

    monkeypatch.setattr(desing.selfcheck, "blow_up_in_chart", counting)
    assert check_conjugacy(F, W, A1, seed=3).passed
    assert len(charts) == len(set(charts))


def test_conjugacy_decreases_under_step_halving():
    cf = blow_up_in_chart(F, W, ChartId.K1)
    d1 = conjugacy_check(F, cf, (0.3, 0.4), A1, t_end=1.0, h=2e-3)
    d2 = conjugacy_check(F, cf, (0.3, 0.4), A1, t_end=1.0, h=1e-3)
    assert d2 <= d1 or d2 < 1e-9


def test_hausdorff_defect_translated_segments():
    a = [(0.0, 0.0), (1.0, 0.0)]
    b = [(0.0, 0.1), (1.0, 0.1)]
    assert hausdorff_defect(a, b) == pytest.approx(0.1, abs=1e-12)


# -- the pure-Python curve comparison and grid against numpy ------------------------


def bits(values):
    return [struct.pack("<d", x) for x in values]


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(start=finite | st.floats(-1e-300, 1e-300), stop=finite | st.floats(-1e-300, 1e-300), num=st.integers(0, 40))
@example(start=0.0, stop=5e-324, num=4)  # the step underflows to zero
@example(start=-0.0, stop=0.0, num=1)
@example(start=0.3, stop=0.3, num=5)
@example(start=1.0, stop=-2.5, num=7)
def test_grid_seeds_are_numpy_linspace_bit_for_bit(start, stop, num):
    assume(math.isfinite(stop - start))
    us = [u for u, _ in GridSpec(start, stop, num, 0.0, 0.0, 1).seeds()]
    vs = [v for _, v in GridSpec(0.0, 0.0, 1, start, stop, num).seeds()]
    with np.errstate(over="ignore"):  # numpy computes the last point too, then writes stop over it
        want = bits(np.linspace(start, stop, num).tolist())
    assert bits(us) == want
    assert bits(vs) == want


def full_scan(samples, poly):
    """Every segment's distance, with the kernel's expressions, no pruning."""
    out = []
    for px, py in samples:
        ds = []
        for (ax, ay), (bx, by) in zip(poly, poly[1:]):
            sx, sy = bx - ax, by - ay
            dd = sx * sx + sy * sy or 1.0
            t = min(max(((px - ax) * sx + (py - ay) * sy) / dd, 0.0), 1.0)
            dx, dy = px - (ax + t * sx), py - (ay + t * sy)
            ds.append(math.sqrt(dx * dx + dy * dy))
        out.append(min(ds))
    return out


def numpy_min_dist(samples, poly):
    """The former numpy kernel of `desing.dynamo`, vectorized over all segments."""
    samples, poly = np.array(samples, dtype=float), np.array(poly, dtype=float)
    a = poly[:-1]
    seg = np.diff(poly, axis=0)
    dd = (seg * seg).sum(axis=1)
    dd = np.where(dd == 0, 1.0, dd)
    diff = samples[:, None, :] - a[None, :, :]
    t = np.clip((diff * seg[None, :, :]).sum(axis=2) / dd[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * seg[None, :, :]
    delta = samples[:, None, :] - proj
    return np.sqrt((delta * delta).sum(axis=2)).min(axis=1).tolist()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pruned_minimum_is_the_full_scan_bit_for_bit(data):
    # a random walk near (1e3, 1e3) of up to 600 points, so up to five
    # groups of blocks, repeated points and axis-parallel segments included,
    # which may walk back along itself to near its start, so that far blocks
    # hold near segments; sampled within 1e-12 of its segments (about 10 ulps)
    # and farther out, along the curve as the curve comparison samples it or
    # in random order so the search starts anywhere.  The first steps are
    # drawn, so they shrink; the rest come from a drawn rng, with each
    # coordinate often 0, +-1 or 0.5 as drawn floats often are
    steps = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)) | st.just((0.0, 0.0))
    walk = data.draw(st.lists(steps, min_size=1, max_size=80))
    rng = random.Random(data.draw(st.integers(0, 2**32)))

    def coord():
        return rng.choice((0.0, 1.0, -1.0, 0.5)) if rng.random() < 0.3 else rng.uniform(-1.0, 1.0)

    for _ in range(data.draw(st.integers(0, 520))):
        walk.append((0.0, 0.0) if rng.random() < 0.1 else (coord(), coord()))
    x, y = data.draw(st.tuples(st.floats(999.0, 1001.0), st.floats(999.0, 1001.0)))
    poly = [(x, y)]
    for dx, dy in walk:
        x, y = x + dx, y + dy
        poly.append((x, y))
    if data.draw(st.booleans()):
        ox, oy = data.draw(st.tuples(st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3)))
        poly += [(x + ox, y + oy) for x, y in reversed(poly)]
    near = st.tuples(
        st.integers(0, len(poly) - 2), st.floats(0.0, 1.0),
        st.floats(-1e-12, 1e-12), st.floats(-1e-12, 1e-12),
    )
    samples = []
    for j, f, ex, ey in sorted(data.draw(st.lists(near, min_size=1, max_size=40))):
        (ax, ay), (bx, by) = poly[j], poly[j + 1]
        samples.append((ax + f * (bx - ax) + ex, ay + f * (by - ay) + ey))
    samples += data.draw(st.lists(st.tuples(st.floats(990.0, 1010.0), st.floats(990.0, 1010.0)), max_size=5))
    if data.draw(st.booleans()):
        samples = data.draw(st.permutations(samples))
    got = _min_dist_to_polyline(samples, poly)
    assert bits(got) == bits(full_scan(samples, poly))
    assert bits(got) == bits(numpy_min_dist(samples, poly))


def test_pruning_counts_a_projection_rounded_out_of_its_box():
    # bx - ax rounds, so the end of the segment A -> B computes to one ulp
    # beyond B, outside the segments' bounding box; the sample p, 9 ulps
    # right of B, is nearer to that end (8 ulps) than to the box and to the
    # decoy at height 9.6e-13, which the search meets first
    ax, bx = 0.8791659420916744, 1000.8742504886155
    assert ax + (bx - ax) > bx
    px, decoy = bx + 1e-12, 9.6e-13
    poly = [(ax, 0.0)] + [(bx, float(i)) for i in range(16)]  # the first block
    poly += [(px + 10, 15.0), (px + 10, decoy), (px, decoy), (px, 20.0)]
    samples = [(px + 5, decoy + 1e-3), (px, 0.0)]  # the first starts the search in block 2
    got = _min_dist_to_polyline(samples, poly)
    assert bits(got) == bits(full_scan(samples, poly))
    assert got[1] < decoy


def numpy_hausdorff(curve_a, curve_b):
    """The former numpy `hausdorff_defect` of `desing.dynamo`."""
    curve_a, curve_b = np.array(curve_a, dtype=float), np.array(curve_b, dtype=float)

    def truncate(points, length):
        seg = np.diff(points, axis=0)
        lens = np.hypot(seg[:, 0], seg[:, 1])
        cum = np.concatenate(([0.0], np.cumsum(lens)))
        if cum[-1] <= length:
            return points
        i = min(int(np.searchsorted(cum, length, side="right") - 1), len(seg) - 1)
        frac = 0.0 if lens[i] == 0 else (length - cum[i]) / lens[i]
        return np.vstack([points[: i + 1], points[i] + frac * seg[i]])

    def resample(points, step):
        seg = np.diff(points, axis=0)
        lens = np.hypot(seg[:, 0], seg[:, 1])
        cum = np.concatenate(([0.0], np.cumsum(lens)))
        total = float(cum[-1])
        if total == 0.0:
            return points[:1]
        targets = np.append(np.arange(0.0, total, step), total)
        idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(seg) - 1)
        frac = (targets - cum[idx]) / np.where(lens[idx] == 0, 1.0, lens[idx])
        return points[idx] + frac[:, None] * seg[idx]

    la = float(np.hypot(*np.diff(curve_a, axis=0).T).sum()) if len(curve_a) > 1 else 0.0
    lb = float(np.hypot(*np.diff(curve_b, axis=0).T).sum()) if len(curve_b) > 1 else 0.0
    common = min(la, lb)
    samples = resample(truncate(curve_a, common), 1e-3)
    b = truncate(curve_b, common)
    if len(b) == 1:
        return float(np.hypot(*(samples - b[0]).T).max())
    return max(numpy_min_dist(samples, b))


def conjugacy_curves(chart, x0, f=F, w=W, bindings=A1, h=1e-3):
    """The two whole curves, the chart orbit pushed to the plane and the plane
    orbit, that `conjugacy_check` compares."""
    cf = blow_up_in_chart(f, w, chart)
    chart_traj = integrate(frame_chart(cf, bindings), x0, 1.0, h)
    embedded = [embed(cf.chart, cf.weights, (u, v)) for _, u, v in chart_traj.points]
    return embedded, integrate(frame_original(f, bindings), embedded[0], 1.0, h).coords()


@pytest.mark.parametrize("chart", list(ChartId))
@pytest.mark.parametrize("x0", [(0.3, 0.4), (0.05, -0.45), (0.45, 0.1)])
def test_hausdorff_defect_agrees_with_numpy(chart, x0):
    # math.hypot and np.hypot can differ in the last bit, and numpy sums the
    # total lengths pairwise where the running sum adds in order; the defect
    # moves by a few 1e-9 relative at most (2.3e-9 over 460 verify calls)
    a, b = conjugacy_curves(chart, x0)
    want = numpy_hausdorff(a, b)
    assert 0.0 < want < 1e-6
    assert abs(hausdorff_defect(a, b) - want) <= 1e-8 * want


CUBIC = lower_to_polynomials(parse_field_spec("var x y; dx/dt = x^2; dy/dt = y^3;"))  # inputs/weighted_cubic.vf
ZERO = VectorField(Poly.zero(("x", "y")), Poly.zero(("x", "y")), ("x", "y"))
PREFIX_FIELDS = {"demo": (F, W, A1), "weighted-cubic": (CUBIC, infer_weights(CUBIC), {}), "zero": (ZERO, Weights(1, 1, 0), {})}
# (0.3, 0.4) is a verify-like seed, on whose orbits the chart runs ahead; from
# (2.0, -0.5), where r > 1, the plane orbit is the longer one; from (0.45, 2.0)
# orbits leave the domain in most charts
PREFIX_SEEDS = [(0.3, 0.4), (2.0, -0.5), (0.45, 2.0)]


def defect_or_error(compute):
    try:
        return struct.pack("<d", compute())
    except DesingError as exc:
        return str(exc)


@pytest.mark.parametrize("h", [1e-3, 2e-3])
@pytest.mark.parametrize("x0", PREFIX_SEEDS)
@pytest.mark.parametrize("chart", list(ChartId))
@pytest.mark.parametrize("field", sorted(PREFIX_FIELDS))
def test_conjugacy_check_is_the_defect_of_the_whole_orbits(field, chart, x0, h):
    # `conjugacy_check` steps the chart orbit only until it is longer than
    # the plane orbit: the defect is that of the whole curves, bit for bit
    f, w, bindings = PREFIX_FIELDS[field]
    cf = blow_up_in_chart(f, w, chart)
    got = defect_or_error(lambda: conjugacy_check(f, cf, x0, bindings, 1.0, h))
    assert got == defect_or_error(lambda: hausdorff_defect(*conjugacy_curves(chart, x0, f, w, bindings, h)))


def test_prefix_cases_cover_both_orders_and_escapes():
    kinds = set()
    for field, chart, x0 in [(fd, c, x0) for fd in ("demo", "weighted-cubic") for c in ChartId for x0 in PREFIX_SEEDS]:
        f, w, bindings = PREFIX_FIELDS[field]
        cf = blow_up_in_chart(f, w, chart)
        chart_traj = integrate(frame_chart(cf, bindings), x0, 1.0, 1e-3)
        embedded, plane = conjugacy_curves(chart, x0, f, w, bindings)
        kinds.add("chart ahead" if _arc_lengths(embedded)[1][-1] > _arc_lengths(plane)[1][-1] else "plane ahead")
        kinds.add(chart_traj.termination)
    assert kinds == {"chart ahead", "plane ahead", "max-time", "left-domain"}


def test_a_comparison_beyond_the_sample_limit_is_refused():
    # curves of arc length 101 would take 101,001 samples
    a = [(0.0, 0.0), (101.0, 0.0)]
    with pytest.raises(DesingError, match="more than 100000 samples"):
        hausdorff_defect(a, a)
    assert hausdorff_defect([(0.0, 0.0), (99.0, 0.0)], a) < 1e-12


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([(0.0, 0.0), (1.0, -1.0)]) | st.tuples(finite, finite), min_size=1, max_size=40))
def test_arc_lengths_are_the_running_hypot_sum_bit_for_bit(points):
    lens, cum = [], [0.0]
    x0, y0 = points[0]
    for x1, y1 in points[1:]:
        length = math.hypot(x1 - x0, y1 - y0)
        lens.append(length)
        cum.append(cum[-1] + length)
        x0, y0 = x1, y1
    got_lens, got_cum = _arc_lengths(points)
    assert bits(got_lens) == bits(lens)
    assert bits(got_cum) == bits(cum)


def test_portrait_counts():
    ff = frame_chart(blow_up_in_chart(F, W, ChartId.K1), A1)
    grid = GridSpec(0.0, 1.0, 5, -1.0, 1.0, 5, t_end=0.2, step=1e-2)
    trajectories = list(sample_portrait(ff, grid))
    assert len(trajectories) == 50  # forward and backward per seed
    assert all(tr.frame == "K1" for tr in trajectories)


def test_portrait_empty_grid():
    ff = frame_original(F, A1)
    assert list(sample_portrait(ff, GridSpec(0, 1, 0, 0, 1, 5))) == []


def test_portrait_divisor_rows_stay():
    ff = frame_chart(blow_up_in_chart(F, W, ChartId.K1), A1)
    grid = GridSpec(0.0, 0.0, 1, -1.0, 1.0, 3, t_end=0.5, step=1e-2)
    for tr in list(sample_portrait(ff, grid)):
        assert max(abs(u) for _, u, _ in tr.points) < 1e-12


def test_polar_frame_integration():
    pf = desingularize_polar(polar_pushforward(F, SPHERE))
    ff = frame_polar(pf, A1)
    tr = integrate(ff, (0.3, 0.2), 1.0, 1e-2)
    assert tr.frame == "sphere"
    assert tr.termination == "max-time"
    assert all(v >= 0 for _, _, v in tr.points)  # radius guarded
