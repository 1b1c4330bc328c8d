"""Seeded input generators and op lists for the four benchmark workloads.

Every op is one `desing` command line.  Generators take the benchmark seed
and write `.vf` files into a work directory; desing only ever sees those
files.  Each op carries the data its oracle needs (see `oracles.py`), so the
oracle never asks desing for the answer.

Workloads (the names are referred to elsewhere, keep them stable):

- dense:    `analyze` (sphere model) on dense homogeneous fields, degree 6-24.
- small:    `analyze` / `weights` / `blowup` on degree <= 3 inputs.
- portrait: `portrait` over the original, K1..K4, sphere and hyperbolic-x frames.
- verify:   `verify` on the built-in demo field and on weighted_cubic.vf.

`probes(...)` returns the known-defect inputs, with their correct expected
outcome; run.py runs them after the timed phase of `small` and `portrait`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

WORKLOADS = ("dense", "small", "portrait", "verify")

# op_ms_p50 and op_ms_tail are taken over this many whole op cycles: about
# the most that every 20 s run reaches on a 2-vCPU VM whose speed drifts by
# 1.5x.  A fixed count keeps the tail's rank ("10 samples beyond") on the same
# ops; with "all whole cycles" the dense tail jumped between p61 and p74.
# Verify's 12 ranked samples put its op_ms_tail at p16.7, below its median:
# a verify op takes 1-2 s, so a run cannot rank more.
PERCENTILE_CYCLES = {"dense": 2, "small": 30, "portrait": 12, "verify": 4}

# A run ranks two cycles (34 ops).  Sorted by cost, the six degree-6 to 8
# fields fill ranks 1-12, four degree-12 fields ranks 13-20, four degree-16
# fields ranks 21-28 and the degree-18, 20 and 24 fields ranks 29-34.  So
# op_ms_p50 (ranks 17-18) sits inside the degree-12 block and op_ms_tail
# (rank 24, p70.6, 10 samples beyond) inside the degree-16 block.  Each comes
# from a block of four fields with all four coefficient sizes instead of
# from a single field or the gap between two degrees, which made them swing
# by 20% between seeds.
DENSE_DEGREES = (6, 6, 7, 7, 8, 8, 12, 12, 12, 12, 16, 16, 16, 16, 18, 20, 24)
DENSE_COEFF_BITS = (4, 12, 24, 32)


@dataclass
class Field:
    """A generated field as DSL right-hand sides (`^` for powers).

    `params` lists (name, positive) declarations; `bindings` the values the
    op binds with --param.  `weights` is the planted (alpha, beta, k).
    """

    f1: str
    f2: str
    params: "tuple[tuple[str, bool], ...]" = ()
    bindings: "dict[str, Fraction]" = field(default_factory=dict)
    weights: "tuple[int, int, int] | None" = None


@dataclass
class Op:
    key: str  # unique within a workload
    argv: "list[str]"
    check: str  # oracle name in oracles.CHECKS
    data: dict  # oracle input
    expect_rc: int = 0


# -- text rendering ----------------------------------------------------------------


def _monomial(c: Fraction, i: int, j: int) -> str:
    parts = [f"x^{i}" if i > 1 else "x"] if i else []
    parts += [f"y^{j}" if j > 1 else "y"] if j else []
    mag = abs(c)
    if not parts:
        return str(mag)
    if mag == 1:
        return "*".join(parts)
    return "*".join([str(mag)] + parts)


def poly_text(terms) -> str:
    """DSL text of a {(i, j): coefficient} map over x^i * y^j."""
    out = ""
    for (i, j), c in sorted(terms.items(), reverse=True):
        if c == 0:
            continue
        mono = _monomial(c, i, j)
        if not out:
            out = ("-" if c < 0 else "") + mono
        else:
            out += (" - " if c < 0 else " + ") + mono
    return out or "0"


def field_source(fld: Field) -> str:
    lines = [f"param {name}{' > 0' if positive else ''};" for name, positive in fld.params]
    lines += ["var x y;", f"dx/dt = {fld.f1};", f"dy/dt = {fld.f2};"]
    return "\n".join(lines) + "\n"


# -- dense homogeneous fields with a planted divisor polynomial ---------------------


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def dense_field(rng: random.Random, n: int, bits: int, with_param: bool) -> Field:
    """Degree-n homogeneous field whose divisor polynomial x*f2 - y*f1 is a
    product of 2-3 rational lines, real irrational quadratics and complex
    quadratics, all distinct.

    The factors are fixed per degree and the seed only mirrors them
    (x -> -x), so root isolation costs the same for every seed; the seed
    draws the `bits`-sized coefficients of f1, which set the chart fields and
    the Jacobians.  With `with_param`, p*x^n is added to f1 and p*x^(n-1)*y
    to f2, which leaves x*f2 - y*f1 unchanged.
    """
    shape = random.Random(f"dense-divisor:{n}")
    nlin = 2 if (n + 1) % 2 == 0 else 3
    while True:
        mags = shape.sample([1, 2, 3], nlin) if nlin == 3 else shape.sample([1, 2], 2)
        dens = shape.sample([1, 2, 3], nlin) if nlin == 3 else shape.sample([1, 3], 2)
        lines = [(m * shape.choice((-1, 1)), d) for m, d in zip(mags, dens)]
        if len({Fraction(a, d) for a, d in lines}) == nlin:
            break
    g = [1]  # coefficients of x^i * y^(deg - i), i ascending
    for a, d in lines:
        g = _pmul(g, [d, -a])  # d*y - a*x
    nquad = (n + 1 - nlin) // 2
    # y^2 - 2c*x*y + (c^2 - e)*x^2 has the irrational roots c +- sqrt(e); c^2 - e = +-1
    real_pool = [(s * c, e) for c in range(1, 7) for e in (c * c - 1, c * c + 1) for s in (1, -1) if e > 1]
    for c, e in shape.sample(real_pool, (nquad + 1) // 2):
        g = _pmul(g, [1, -2 * c, c * c - e])
    ncomplex = nquad // 2
    unit = shape.sample([(0, 1), (1, 1), (-1, 1)], min(ncomplex, 3))
    two = shape.sample([(1, 2), (-1, 2), (2, 2), (-2, 2), (0, 2)], max(0, ncomplex - 3))
    for u, v in unit + two:
        g = _pmul(g, [1, u, v])  # y^2 + u*x*y + v*x^2, no real root
    if rng.random() < 0.5:
        g = [c * (-1) ** i for i, c in enumerate(g)]
    f1 = [rng.randint(-(2**bits), 2**bits) for _ in range(n + 1)]  # x^i y^(n-i)
    f1[0] = -g[0]
    f2 = [g[i + 1] + (f1[i + 1] if i < n else 0) for i in range(n + 1)]
    fld = Field(
        f1=poly_text({(i, n - i): c for i, c in enumerate(f1)}),
        f2=poly_text({(i, n - i): c for i, c in enumerate(f2)}),
    )
    if with_param:
        fld.f1 += f" + p*x^{n}"
        fld.f2 += f" + p*x^{n - 1}*y"
        fld.params = (("p", False),)
        fld.bindings = {"p": Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))}
    return fld


# -- quasi-homogeneous low-degree fields with known weights --------------------------

_WEIGHT_TYPES = ((2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3))


def _rank2(rows) -> bool:
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            r, s = rows[a], rows[b]
            cross = (r[1] * s[2] - r[2] * s[1], r[2] * s[0] - r[0] * s[2], r[0] * s[1] - r[1] * s[0])
            if any(cross):
                return True
    return False


def _chart_divisor_polys(f1, f2, alpha: int, beta: int):
    """Coefficient maps of the four charts' divisor polynomials, up to a
    nonzero factor: alpha*f2(1, w) - beta*w*f1(1, w) in K1, and so on."""
    out = []
    for x_radial, sign in ((True, 1), (True, -1), (False, 1), (False, -1)):
        acc: "dict[int, int]" = {}
        if x_radial:
            for (i, j), c in f2.items():
                acc[j] = acc.get(j, 0) + alpha * c * sign**i
            for (i, j), c in f1.items():
                acc[j + 1] = acc.get(j + 1, 0) - sign * beta * c * sign**i
        else:
            for (i, j), c in f1.items():
                acc[i] = acc.get(i, 0) + beta * c * sign**j
            for (i, j), c in f2.items():
                acc[i + 1] = acc.get(i + 1, 0) - sign * alpha * c * sign**j
        out.append(acc)
    return out


def qh_field(rng: random.Random, slot: int) -> Field:
    """A degree <= 3 quasi-homogeneous field with a unique non-unit weight type.

    The weight type and monomials are fixed per slot and the seed draws the
    coefficients, so the op's cost does not swing between seeds."""
    shape = random.Random(f"qh-shape:{slot}")
    while True:
        alpha, beta = shape.choice(_WEIGHT_TYPES)
        k = shape.randint(1, 6)
        m1 = [(i, j) for i in range(4) for j in range(4) if i + j <= 3 and i * alpha + j * beta == alpha + k]
        m2 = [(i, j) for i in range(4) for j in range(4) if i + j <= 3 and i * alpha + j * beta == beta + k]
        rows = [(i - 1, j, -1) for i, j in m1] + [(i, j - 1, -1) for i, j in m2]
        if m1 and m2 and gcd(gcd(alpha, beta), k) == 1 and _rank2(rows):
            break
    while True:
        f1 = {m: rng.choice((-1, 1)) * rng.randint(1, 9) for m in m1}
        f2 = {m: rng.choice((-1, 1)) * rng.randint(1, 9) for m in m2}
        if all(any(acc.values()) for acc in _chart_divisor_polys(f1, f2, alpha, beta)):
            return Field(poly_text(f1), poly_text(f2), weights=(alpha, beta, k))


# -- workloads --------------------------------------------------------------------------


class Corpus:
    """Writes generated inputs under `root` and hands out output paths."""

    def __init__(self, root: Path, repo: Path):
        self.root = root
        self.repo = repo
        (root / "in").mkdir(parents=True, exist_ok=True)
        (root / "out").mkdir(parents=True, exist_ok=True)

    def write(self, name: str, fld: Field) -> str:
        path = self.root / "in" / f"{name}.vf"
        path.write_text(field_source(fld), encoding="utf-8")
        return str(path)

    def out(self, key: str, ext: str) -> str:
        return str(self.root / "out" / f"{key}.{ext}")

    def repo_input(self, name: str) -> str:
        path = self.repo / "inputs" / name
        if not path.is_file():
            raise FileNotFoundError(f"missing benchmark input {path}")
        return str(path)


def _params_argv(fld: Field) -> "list[str]":
    out = []
    for name, value in sorted(fld.bindings.items()):
        out += ["--param", f"{name}={value}"]
    return out


def quadratic_field(a: Fraction) -> Field:
    """inputs/quadratic.vf, as the oracle's own copy."""
    return Field("a*x^2 - 2*x*y", "y^2 - a*x*y", params=(("a", True),), bindings={"a": a})


WEIGHTED_CUBIC = Field("x^2", "y^3", weights=(2, 1, 2))


def dense_ops(rng: random.Random, corpus: Corpus) -> "list[Op]":
    ops = []
    for idx, n in enumerate(DENSE_DEGREES):
        fld = dense_field(rng, n, DENSE_COEFF_BITS[idx % len(DENSE_COEFF_BITS)], idx % 3 == 2)
        fmt = "json" if idx % 2 else "text"
        key = f"dense{idx}-d{n}"
        src = corpus.write(key, fld)
        out = corpus.out(key, fmt)
        argv = ["analyze", src, *_params_argv(fld), "--format", fmt, "-o", out]
        ops.append(Op(key, argv, "divisor_count", {"field": fld, "format": fmt, "out": out}))
    return ops


def small_ops(rng: random.Random, corpus: Corpus) -> "list[Op]":
    ops = []
    quad = corpus.repo_input("quadratic.vf")
    a_values = [
        Fraction(rng.randint(1, 14), 10),  # a < 3/2: two saddles on the x-hyperboloid
        Fraction(3, 2),
        Fraction(rng.randint(16, 40), 10),  # a > 3/2: one saddle
    ]
    models = ("sphere", "directional", "hyperbolic-x", "hyperbolic-y")
    for ai, a in enumerate(a_values):
        for mi, model in enumerate(models):
            fmt = "json" if (ai + mi) % 2 else "text"
            key = f"quad-a{ai}-{model}"
            out = corpus.out(key, fmt)
            argv = ["analyze", quad, "--param", f"a={a}", "--model", model, "--format", fmt, "-o", out]
            data = {"a": a, "field": quadratic_field(a), "model": model, "format": fmt, "out": out}
            ops.append(Op(key, argv, "quadratic_report", data))
    qf = quadratic_field(Fraction(1))
    ops.append(_weights_op(corpus, "quad-weights", quad, (1, 1, 1), "text"))
    ops.append(_blowup_op(corpus, "quad-blowup", quad, qf, (1, 1, 1), "directional", "text"))
    ops.append(_blowup_op(corpus, "quad-blowup-sphere", quad, qf, (1, 1, 1), "sphere", "json"))
    ops.append(_blowup_op(corpus, "quad-blowup-hyp-x", quad, qf, (1, 1, 1), "hyperbolic-x", "text"))
    cubic = corpus.repo_input("weighted_cubic.vf")
    ops.append(_analyze_qh_op(corpus, "cubic-analyze", cubic, WEIGHTED_CUBIC, "text"))
    ops.append(_weights_op(corpus, "cubic-weights", cubic, WEIGHTED_CUBIC.weights, "json"))
    ops.append(_blowup_op(corpus, "cubic-blowup", cubic, WEIGHTED_CUBIC, WEIGHTED_CUBIC.weights, "directional", "json"))
    for idx in range(5):
        fld = qh_field(rng, idx)
        key = f"qh{idx}"
        src = corpus.write(key, fld)
        fmt = "json" if idx % 2 else "text"
        ops.append(_analyze_qh_op(corpus, f"{key}-analyze", src, fld, fmt))
        ops.append(_weights_op(corpus, f"{key}-weights", src, fld.weights, fmt))
        ops.append(_blowup_op(corpus, f"{key}-blowup", src, fld, fld.weights, "directional", "text" if idx % 2 else "json"))
    return ops


def _weights_op(corpus, key, src, weights, fmt) -> Op:
    out = corpus.out(key, fmt)
    return Op(key, ["weights", src, "--format", fmt, "-o", out], "weights", {"weights": weights, "format": fmt, "out": out})


def _blowup_op(corpus, key, src, fld, weights, model, fmt) -> Op:
    out = corpus.out(key, fmt)
    argv = ["blowup", src, "--model", model, "--format", fmt, "-o", out]
    data = {"field": fld, "weights": weights, "model": model, "format": fmt, "out": out}
    return Op(key, argv, "blowup", data)


def _analyze_qh_op(corpus, key, src, fld, fmt) -> Op:
    out = corpus.out(key, fmt)
    argv = ["analyze", src, "--format", fmt, "-o", out]
    return Op(key, argv, "chart_counts", {"field": fld, "format": fmt, "out": out})


def _grid(rng: random.Random, u: "tuple[float, float]", v: "tuple[float, float]", nu: int, nv: int, jitter: float):
    """Grid text with both ranges shifted by a seeded amount up to `jitter`."""
    du, dv = rng.uniform(-jitter, jitter), rng.uniform(-jitter, jitter)
    return f"{u[0] + du:.4f}:{u[1] + du:.4f}:{nu},{v[0] + dv:.4f}:{v[1] + dv:.4f}:{nv}"


def portrait_ops(rng: random.Random, corpus: Corpus) -> "list[Op]":
    ops = []
    quad = corpus.repo_input("quadratic.vf")
    demo = quadratic_field(Fraction(1))
    # (frame, u range, v range, nu, nv, t_end, step); chart and plane frames
    # evaluate ~7x faster than the quotient-ring frames, so they get more
    # points.  Ops of ~0.1-0.3 s keep a run near 100 ops, which puts
    # op_ms_tail (10 samples beyond) inside the quotient-ring ops' cluster
    # rather than in the noise at its edge.
    plan = [
        ("original", (0.1, 0.5), (0.1, 0.5), 8, 8, 1.0, 0.01),
        # In K1, K2 (K3, K4) the chart fields' w' vanishes at w = 0 and at a
        # positive (negative) w0 with |w0| > 0.6, and w escapes in finite time
        # beyond it; starts strictly between stay there in both directions.
        ("K1", (0.1, 0.5), (0.1, 0.5), 8, 8, 1.0, 0.01),
        ("K2", (0.1, 0.5), (0.1, 0.5), 8, 8, 1.0, 0.01),
        ("K3", (0.1, 0.5), (-0.5, -0.1), 8, 8, 1.0, 0.01),
        ("K4", (0.1, 0.5), (-0.5, -0.1), 8, 8, 1.0, 0.01),
        ("sphere", (0.2, 2.8), (0.1, 0.4), 6, 4, 0.5, 0.01),
        ("hyperbolic-x", (0.15, 0.65), (0.1, 0.4), 6, 4, 0.5, 0.01),  # orbits stay between the two saddles
    ]
    for frame, u, v, nu, nv, t_end, step in plan:
        ops.append(_portrait_op(corpus, f"demo-{frame}", quad, demo, frame, _grid(rng, u, v, nu, nv, 0.05), t_end, step))
    dense = _portrait_dense_field(rng)
    src = corpus.write("portrait-dense", dense)
    near = [  # orbits of a cubic field escape fast; stay near the origin
        ("original", (0.05, 0.25), (-0.25, 0.25), 8, 8, 0.5, 0.01),
        ("sphere", (0.2, 2.8), (0.05, 0.2), 6, 4, 0.5, 0.01),
    ]
    for frame, u, v, nu, nv, t_end, step in near:
        ops.append(_portrait_op(corpus, f"dense3-{frame}", src, dense, frame, _grid(rng, u, v, nu, nv, 0.05), t_end, step))
    return ops


def _portrait_dense_field(rng: random.Random) -> Field:
    """A cubic homogeneous field with every coefficient in +-1, +-2, so the
    evaluators' term count, and with it the cost per step, is seed-independent."""
    f1 = {(i, 3 - i): rng.choice((-2, -1, 1, 2)) for i in range(4)}
    f2 = {(i, 3 - i): rng.choice((-2, -1, 1, 2)) for i in range(4)}
    return Field(poly_text(f1), poly_text(f2))


def _portrait_op(corpus, key, src, fld, frame, grid, t_end, step) -> Op:
    out = corpus.out(key, "csv")
    argv = ["portrait", src, *_params_argv(fld), "--frame", frame, f"--grid={grid}",
            "--t-end", repr(t_end), "--step", repr(step), "-o", out]
    data = {"field": fld, "frame": frame, "grid": grid, "t_end": t_end, "step": step, "out": out}
    return Op(key, argv, "portrait", data)


def verify_ops(rng: random.Random, corpus: Corpus) -> "list[Op]":
    """Property-check seeds 0 and 1 on the demo field and 0 on weighted_cubic,
    in seeded order.  Two demo runs per weighted_cubic run keep the median
    latency inside the demo cluster instead of on the gap between the inputs.

    The property-check seeds are the same for every benchmark seed: time and
    peak memory differ by up to 20% between them, and at about 12 ops a run
    drawing them per seed would swamp every bound."""
    cubic = corpus.repo_input("weighted_cubic.vf")
    runs = [("demo-s0", ["verify", "--seed", "0"]), ("demo-s1", ["verify", "--seed", "1"]),
            ("cubic-s0", ["verify", cubic, "--seed", "0"])]
    rng.shuffle(runs)
    ops = []
    for key, argv in runs:
        out = corpus.out(key, "txt")
        ops.append(Op(key, argv + ["-o", out], "verify", {"out": out}))
    return ops


GENERATORS = {"dense": dense_ops, "small": small_ops, "portrait": portrait_ops, "verify": verify_ops}


def generate(workload: str, seed: int, corpus: Corpus) -> "list[Op]":
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, corpus)


# -- known defects ------------------------------------------------------------------------


def probes(workload: str, corpus: Corpus) -> "list[Op]":
    """Known-defect inputs with their correct expected outcome."""
    ops = []
    if workload == "small":
        eps = Field("0", "y^2 - 1/10000000000*x*y")
        big = Field("0", "3*y^2 - 10000000000037*x*y")
        zero = Field("0", "0")
        for key, fld in (("defect-eps-merge", eps), ("defect-big-rational", big)):
            src = corpus.write(key, fld)
            out = corpus.out(key, "json")
            ops.append(Op(key, ["analyze", src, "--format", "json", "-o", out], "divisor_count",
                          {"field": fld, "format": "json", "out": out}))
        src = corpus.write("defect-zero", zero)
        for cmd in ("weights", "analyze"):
            key = f"defect-zero-{cmd}"
            ops.append(Op(key, [cmd, src, "-o", corpus.out(key, "txt")], "one_line_error", {}, expect_rc=1))
    elif workload == "portrait":
        quad = corpus.repo_input("quadratic.vf")
        ops.append(_portrait_op(corpus, "defect-hyperbolic-overflow", quad, quadratic_field(Fraction(1)),
                                "hyperbolic-x", "-1:1:4,0.1:1:3", 1.0, 0.005))
        rotation = Field("-y^3", "x^3")  # K1: w' = 1 + w^4, so w escapes in finite time
        src = corpus.write("defect-chart-overflow", rotation)
        ops.append(_portrait_op(corpus, "defect-chart-overflow", src, rotation, "K1",
                                "0.1:0.1:1,0.5:0.5:1", 2.0, 0.01))
        for op in ops:
            op.data["expect_escape"] = True
    return ops
