"""Fixed-step numerics: integration, conjugacy and rescaling checks, portraits.

Everything here is deliberately plain: classic RK4 with a fixed step (no
adaptivity, so emitted trajectories are reproducible byte for byte), hard
domain guards instead of event detection, and curve comparison by discrete
one-sided Hausdorff distance after arc-length resampling, since the
desingularization only reparametrizes time and pointwise-in-t comparison
would be meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .charts import ChartField
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

    def coords(self) -> np.ndarray:
        return np.array([(u, v) for _, u, v in self.points], dtype=float)


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
        us = np.linspace(self.u_min, self.u_max, self.nu) if self.nu else []
        vs = np.linspace(self.v_min, self.v_max, self.nv) if self.nv else []
        return [(float(u), float(v)) for u in us for v in vs]


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


def _arc_truncate(points: np.ndarray, length: float) -> np.ndarray:
    seg = np.diff(points, axis=0)
    lens = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate(([0.0], np.cumsum(lens)))
    if cum[-1] <= length:
        return points
    i = int(np.searchsorted(cum, length, side="right") - 1)
    i = min(i, len(seg) - 1)
    rest = length - cum[i]
    frac = 0.0 if lens[i] == 0 else rest / lens[i]
    last = points[i] + frac * seg[i]
    return np.vstack([points[: i + 1], last])


def _arc_resample(points: np.ndarray, step: float) -> np.ndarray:
    seg = np.diff(points, axis=0)
    lens = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate(([0.0], np.cumsum(lens)))
    total = float(cum[-1])
    if total == 0.0:
        return points[:1]
    targets = np.arange(0.0, total, step)
    targets = np.append(targets, total)
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(seg) - 1)
    denom = np.where(lens[idx] == 0, 1.0, lens[idx])
    frac = (targets - cum[idx]) / denom
    return points[idx] + frac[:, None] * seg[idx]


def _min_dist_to_polyline(samples: np.ndarray, poly: np.ndarray) -> np.ndarray:
    if len(poly) == 1:
        d = samples - poly[0]
        return np.hypot(d[:, 0], d[:, 1])
    a = poly[:-1]
    seg = np.diff(poly, axis=0)
    dd = (seg * seg).sum(axis=1)
    dd = np.where(dd == 0, 1.0, dd)
    diff = samples[:, None, :] - a[None, :, :]
    t = np.clip((diff * seg[None, :, :]).sum(axis=2) / dd[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * seg[None, :, :]
    delta = samples[:, None, :] - proj
    return np.sqrt((delta * delta).sum(axis=2)).min(axis=1)


def hausdorff_defect(curve_a: np.ndarray, curve_b: np.ndarray, resample: float = 1e-3) -> float:
    """One-sided Hausdorff distance from A to B over the common arc length."""
    la = float(np.hypot(*np.diff(curve_a, axis=0).T).sum()) if len(curve_a) > 1 else 0.0
    lb = float(np.hypot(*np.diff(curve_b, axis=0).T).sum()) if len(curve_b) > 1 else 0.0
    common = min(la, lb)
    a = _arc_truncate(curve_a, common)
    b = _arc_truncate(curve_b, common)
    samples = _arc_resample(a, resample)
    return float(_min_dist_to_polyline(samples, b).max())


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
    embedded = np.array(
        [cf.embed((u, v)) for _, u, v in chart_traj.points], dtype=float
    )
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
    vanish are skipped.
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
        return np.array([u, v])

    e1 = endpoint(h)
    e2 = endpoint(h / 2)
    e3 = endpoint(h / 4)
    d12 = float(np.hypot(*(e1 - e2)))
    d23 = float(np.hypot(*(e2 - e3)))
    floor = 1e-13 * max(1.0, float(np.hypot(*e3)))
    if d23 <= floor or d12 <= floor:
        return float("inf")  # truncation error below the rounding floor
    return math.log2(d12 / d23)
