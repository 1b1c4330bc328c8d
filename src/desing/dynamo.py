"""Fixed-step numerics: integration, conjugacy and rescaling checks, portraits.

Everything here is deliberately plain: classic RK4 with a fixed step (no
adaptivity, so emitted trajectories are reproducible byte for byte), hard
domain guards instead of event detection, and curve comparison by discrete
one-sided Hausdorff distance after arc-length resampling, since the
desingularization only reparametrizes time and pointwise-in-t comparison
would be meaningless.

All of it is plain Python floats; curves are lists of (x, y) pairs.  The
curve comparison finds each sample's nearest segment with the expressions a
full scan over all segments would use, but skips blocks of 16 consecutive
segments, and the skip is exact.  The computed projection point `a + t*s`
(t clipped to [0, 1]) lies on the segment up to three roundings of at most
4 ulps of the block's largest coordinate M in all, and the segment lies in
the block's bounding box.  So with the box widened by 8 ulps of M, the
squared distance from the sample to the widened box is at most the squared
length of the computed difference vector, up to a few relative roundings on
either side.  A block is skipped only when that box distance exceeds
`best^2 * (1 + 1e-9) + DBL_MIN`, a margin far above those roundings (the
absolute term covers subnormal underflow), so no segment in it computes to
a distance below the current best: the minimum is the full scan's, bit for
bit, and the blocks only change how many segments are evaluated.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Mapping, Sequence

from .charts import ChartField, embed_points
from .errors import NonFiniteField
from .polar import PolarField
from .vectorfield import VectorField

MAX_COORD = 1e6

TERM_MAX_TIME = "max-time"
TERM_LEFT_DOMAIN = "left-domain"
TERM_STEP_UNDERFLOW = "step-underflow"


@dataclass
class Trajectory:
    frame: str
    points: "list[tuple[float, float, float]]"  # (t, u, v)
    termination: str

    def coords(self) -> "list[tuple[float, float]]":
        return [(u, v) for _, u, v in self.points]


@dataclass(frozen=True)
class FrameField:
    """A planar field's float function, tagged with its frame."""

    frame: str
    func: Callable  # (u, v) -> (du, dv)
    radial_index: "int | None" = None  # guard coordinate that must stay >= 0


def frame_original(f: VectorField, bindings: Mapping) -> FrameField:
    return FrameField("original", f.as_callable(bindings))


def frame_chart(cf: ChartField, bindings: Mapping) -> FrameField:
    return FrameField(cf.chart.value, cf.as_callable(bindings), radial_index=0)


def frame_polar(pf: PolarField, bindings: Mapping) -> FrameField:
    return FrameField(pf.model, pf.as_callable(bindings), radial_index=1)


@dataclass(frozen=True)
class GridSpec:
    u_min: float
    u_max: float
    nu: int
    v_min: float
    v_max: float
    nv: int
    t_end: float = 1.0
    step: float = 1e-2

    def seeds(self) -> "list[tuple[float, float]]":
        us = _linspace(self.u_min, self.u_max, self.nu)
        vs = _linspace(self.v_min, self.v_max, self.nv)
        return [(u, v) for u in us for v in vs]


def _linspace(start: float, stop: float, num: int) -> "list[float]":
    """`num` evenly spaced floats from start to stop, bit for bit those of
    numpy.linspace: i*step + start, or (i/div)*delta + start when the step
    underflows to zero, with stop written last."""
    delta = stop - start
    if num <= 1:
        return [0.0 * delta + start] * num
    div = num - 1
    step = delta / div
    if step == 0:
        return [(i / div) * delta + start for i in range(div)] + [stop]
    return [i * step + start for i in range(div)] + [stop]


def integrate(
    field: FrameField,
    x0: Sequence[float],
    t_end: float,
    h: float,
    backward: bool = False,
) -> Trajectory:
    """Classic RK4 with fixed step h, stopping at t_end, domain exit
    (radial < 0, |coordinate| > 1e6, or a stage evaluation overflowing) or
    step underflow.  With `backward` every stage and the update step by -h
    (t still counts up from 0): as negation commutes with float products and
    sums, the points are the negated field's, bit for bit."""
    if h <= 0:
        raise ValueError("step size must be positive")
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    func, radial_index = field.func, field.radial_index
    u, v = float(x0[0]), float(x0[1])
    if not (math.isfinite(u) and math.isfinite(v)):
        raise NonFiniteField(f"initial point {x0} is not finite")
    points = [(0.0, u, v)]
    # the state never holds -0.0, so the sign of a zero increment, the one bit
    # where -h * sum and h * (negated sum) differ, never shows
    u, v = u + 0.0, v + 0.0
    try:
        k1u, k1v = func(u, v)
    except OverflowError:
        # as for an overflow in a later step, the orbit leaves the domain
        return Trajectory(field.frame, points, TERM_LEFT_DOMAIN)
    if not (math.isfinite(k1u) and math.isfinite(k1v)):
        raise NonFiniteField(f"field is not finite at the initial point {x0}")

    t = 0.0
    termination = TERM_MAX_TIME
    while t < t_end:
        step = min(h, t_end - t)
        if t + step == t:
            # a full step that cannot advance t is an underflow; a vanishing
            # final partial step just means t_end is within rounding of t
            termination = TERM_STEP_UNDERFLOW if step == h else TERM_MAX_TIME
            break
        dt = -step if backward else step
        try:
            if t > 0.0:  # the first step's first stage is the seed's value
                k1u, k1v = func(u, v)
            k2u, k2v = func(u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
            k3u, k3v = func(u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
            k4u, k4v = func(u + dt * k3u, v + dt * k3v)
        except OverflowError:
            # float ** or cosh overflows when the orbit escapes within one step
            termination = TERM_LEFT_DOMAIN
            break
        nu = u + dt / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        nv = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (math.isfinite(nu) and math.isfinite(nv)):
            termination = TERM_LEFT_DOMAIN
            break
        if abs(nu) > MAX_COORD or abs(nv) > MAX_COORD:
            termination = TERM_LEFT_DOMAIN
            break
        if radial_index is not None and (nu, nv)[radial_index] < 0:
            termination = TERM_LEFT_DOMAIN
            break
        t += step
        u, v = nu, nv
        points.append((t, u, v))
    return Trajectory(field.frame, points, termination)


# -- curve comparison ----------------------------------------------------------------

_BLOCK = 16  # segments per bounding box in the nearest-segment search
_DBL_MIN = sys.float_info.min  # smallest normal float; covers subnormal roundings


def _arc_lengths(points) -> "tuple[list[float], list[float]]":
    """Segment lengths and running arc lengths (starting at 0.0) of a polyline."""
    lens = []
    cum = [0.0]
    total = 0.0
    x0, y0 = points[0]
    for x1, y1 in points[1:]:
        length = math.hypot(x1 - x0, y1 - y0)
        lens.append(length)
        total += length
        cum.append(total)
        x0, y0 = x1, y1
    return lens, cum


def _arc_truncate(points, lens, cum, length: float):
    """The polyline cut at arc length `length`, with its lengths as
    `_arc_lengths` would recompute them."""
    if cum[-1] <= length:
        return points, lens, cum
    i = bisect_right(cum, length) - 1  # below len(lens): cum[-1] > length
    frac = 0.0 if lens[i] == 0 else (length - cum[i]) / lens[i]
    (x0, y0), (x1, y1) = points[i], points[i + 1]
    last = (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))
    tail = math.hypot(last[0] - x0, last[1] - y0)
    return points[: i + 1] + [last], lens[:i] + [tail], cum[: i + 1] + [cum[i] + tail]


def _arc_resample(points, lens, cum, step: float) -> "list[tuple[float, float]]":
    """Points at arc lengths 0, step, 2*step, ... and the total length."""
    total = cum[-1]
    if total == 0.0:
        return points[:1]
    last = len(lens) - 1
    out = []
    for target in [i * step for i in range(math.ceil(total / step))] + [total]:
        i = min(bisect_right(cum, target) - 1, last)
        frac = (target - cum[i]) / (lens[i] or 1.0)
        (x0, y0), (x1, y1) = points[i], points[i + 1]
        out.append((x0 + frac * (x1 - x0), y0 + frac * (y1 - y0)))
    return out


def _segment_blocks(poly) -> list:
    """Per run of _BLOCK consecutive segments: the bounding box of their
    end points widened by 8 ulps of its largest coordinate, and the segments
    as (ax, ay, sx, sy, dd) with dd = |s|^2, or 1.0 where that is 0."""
    blocks = []
    for lo in range(0, len(poly) - 1, _BLOCK):
        pts = poly[lo : lo + _BLOCK + 1]
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
        x_min, x_max, y_min, y_max = min(xs), max(xs), min(ys), max(ys)
        pad = 8.0 * math.ulp(max(-x_min, x_max, -y_min, y_max))
        segs = []
        ax, ay = pts[0]
        for bx, by in pts[1:]:
            sx, sy = bx - ax, by - ay
            segs.append((ax, ay, sx, sy, sx * sx + sy * sy or 1.0))
            ax, ay = bx, by
        blocks.append((x_min - pad, x_max + pad, y_min - pad, y_max + pad, segs))
    return blocks


def _min_dist_to_polyline(samples, poly) -> "list[float]":
    """Each sample's distance to the nearest segment of `poly`.

    The distance to a segment is sqrt(dx*dx + dy*dy) of the sample minus its
    projection a + t*s, t = clip(((p - a) . s) / |s|^2, 0, 1).  The search
    starts at the block that held the previous sample's nearest segment and
    skips a block whose widened box is provably farther than the best so far
    (module docstring), so each minimum is the full scan's, bit for bit."""
    if len(poly) == 1:
        x0, y0 = poly[0]
        return [math.hypot(px - x0, py - y0) for px, py in samples]
    blocks = _segment_blocks(poly)
    start = 0
    out = []
    for px, py in samples:
        best = bound = math.inf
        for k in chain(range(start, len(blocks)), range(start)):
            x_lo, x_hi, y_lo, y_hi, segs = blocks[k]
            bx = x_lo - px if px < x_lo else (px - x_hi if px > x_hi else 0.0)
            by = y_lo - py if py < y_lo else (py - y_hi if py > y_hi else 0.0)
            if bx * bx + by * by > bound:
                continue
            for ax, ay, sx, sy, dd in segs:
                t = ((px - ax) * sx + (py - ay) * sy) / dd
                if t < 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                dx = px - (ax + t * sx)
                dy = py - (ay + t * sy)
                d = math.sqrt(dx * dx + dy * dy)
                if d < best:
                    best = d
                    start = k
            bound = best * best * (1.0 + 1e-9) + _DBL_MIN
        out.append(best)
    return out


def hausdorff_defect(curve_a, curve_b) -> float:
    """One-sided Hausdorff distance from A to B over the common arc length,
    sampled on A every 1e-3 of arc length.  Curves are sequences of (x, y)."""
    a_lens, a_cum = _arc_lengths(curve_a)
    b_lens, b_cum = _arc_lengths(curve_b)
    common = min(a_cum[-1], b_cum[-1])
    a = _arc_truncate(curve_a, a_lens, a_cum, common)
    b, _, _ = _arc_truncate(curve_b, b_lens, b_cum, common)
    samples = _arc_resample(*a, 1e-3)
    return max(_min_dist_to_polyline(samples, b))


# -- checks ---------------------------------------------------------------------------


def conjugacy_check(
    f: VectorField,
    cf: ChartField,
    x0_chart: Sequence[float],
    bindings: Mapping,
    t_end: float = 1.0,
    h: float = 1e-3,
) -> float:
    """Defect of the orbit correspondence between a chart and the plane.

    Integrates the desingularized chart field, pushes the polyline through
    the chart embedding, integrates the original field from the embedded
    start point, and compares the two curves as sets.  Away from the divisor
    the two fields differ only by the positive factor radial^k, so both
    polylines trace the same orbit and the defect measures numerics only.
    """
    if float(x0_chart[0]) <= 0:
        raise ValueError("conjugacy check needs a seed with positive radial coordinate")
    chart_traj = integrate(frame_chart(cf, bindings), x0_chart, t_end, h)
    embedded = embed_points(cf.chart, cf.weights, chart_traj.coords())
    plane_traj = integrate(frame_original(f, bindings), embedded[0], t_end, h)
    return hausdorff_defect(embedded, plane_traj.coords())


@dataclass
class RescalingResult:
    max_angle_defect: float
    max_ratio_defect: float
    checked: int


def rescaling_check(cf: ChartField, points: Sequence, bindings: Mapping) -> RescalingResult:
    """Verify raw = radial^k * desingularized pointwise off the divisor.

    At each sample the two vectors must be positively parallel (angle defect)
    with length ratio radial^k (relative ratio defect); samples where both
    vanish are skipped.  `ChartField.raw` is derived from `desing`, so this
    tests their float evaluators; the chart-pushforward check, through
    `Poly.substitute`, is the independent symbolic reference.
    """
    raw = cf.as_callable(bindings, desingularized=False)
    des = cf.as_callable(bindings, desingularized=True)
    k = cf.weights.k
    max_angle = 0.0
    max_ratio = 0.0
    checked = 0
    for r, w in points:
        if r <= 0:
            raise ValueError(f"sample point ({r}, {w}) is not off the divisor")
        vr = raw(r, w)
        vd = des(r, w)
        nr = math.hypot(*vr)
        nd = math.hypot(*vd)
        if nd == 0.0:
            continue
        cross = vr[0] * vd[1] - vr[1] * vd[0]
        dot = vr[0] * vd[0] + vr[1] * vd[1]
        max_angle = max(max_angle, abs(math.atan2(cross, dot)))
        expected = r**k
        max_ratio = max(max_ratio, abs(nr / nd - expected) / expected)
        checked += 1
    return RescalingResult(max_angle, max_ratio, checked)


def sample_portrait(field: FrameField, grid: GridSpec) -> "list[Trajectory]":
    """Forward and backward trajectories from every grid seed (fwd, then bwd,
    per seed, row-major over the grid)."""
    out = []
    for seed in grid.seeds():
        out.append(integrate(field, seed, grid.t_end, grid.step))
        out.append(integrate(field, seed, grid.t_end, grid.step, backward=True))
    return out


def observed_order(field: FrameField, x0, t_end: float, h: float) -> float:
    """Convergence order estimate from endpoint differences at h, h/2, h/4."""

    def endpoint(step):
        tr = integrate(field, x0, t_end, step)
        if tr.termination != TERM_MAX_TIME:
            raise ValueError("orbit left the domain; pick a tamer seed for the order test")
        _, u, v = tr.points[-1]
        return u, v

    (u1, v1), (u2, v2), (u3, v3) = endpoint(h), endpoint(h / 2), endpoint(h / 4)
    d12 = math.hypot(u1 - u2, v1 - v2)
    d23 = math.hypot(u2 - u3, v2 - v3)
    floor = 1e-13 * max(1.0, math.hypot(u3, v3))
    if d23 <= floor or d12 <= floor:
        return float("inf")  # truncation error below the rounding floor
    return math.log2(d12 / d23)
