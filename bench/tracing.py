"""Spans and counters recorded from outside desing, for the traced run.

`Tracer.install()` replaces each layer's public functions with a timing
wrapper wherever callers look them up: every `desing.*` module attribute
bound to the function, or the class attribute for methods.  A wrapper
records a span (name, start, end, parent, op id) and per-op counters read
from the call's arguments and result.  `uninstall()` restores the originals.

A span's self time is its duration minus the durations of its direct
children.  So the self times of an op's spans add up to its root span
(`cli.main`) by construction, provided the spans nest: every span's parent
belongs to the same op and encloses it in time.  `span_check()` verifies that
nesting on the recorded spans and recomputes the sums from them.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (span name, module, attribute or "Class.method")
TARGETS = [
    ("dsl.parse", "desing.dsl", "parse_field_spec"),
    ("dsl.lower", "desing.dsl", "lower_to_polynomials"),
    ("weights.infer", "desing.weights", "infer_weights"),
    ("weights.verify", "desing.weights", "verify_weights"),
    ("poly.substitute", "desing.poly", "Poly.substitute"),
    ("poly.mul", "desing.poly", "Poly.__mul__"),
    ("poly.mul", "desing.poly", "Poly.__rmul__"),
    ("poly.div_exact", "desing.poly", "Poly.div_exact"),
    ("quotient.reduce", "desing.quotient", "reduce_poly"),
    ("quotient.eval_float", "desing.quotient", "QuotientPoly.eval_float"),
    ("charts.blow_up", "desing.charts", "blow_up_in_chart"),
    ("charts.compatibility", "desing.charts", "compatibility_defect"),
    ("charts.as_callable", "desing.charts", "ChartField.as_callable"),
    ("polar.pushforward", "desing.polar", "polar_pushforward"),
    ("polar.desingularize", "desing.polar", "desingularize_polar"),
    ("realroots.real_roots", "desing.realroots", "real_roots"),
    ("realroots.sturm_chain", "desing.realroots", "sturm_chain"),
    ("realroots.isolate", "desing.realroots", "isolate_squarefree"),
    ("realroots.refine", "desing.realroots", "refine"),
    ("realroots.refine_root", "desing.realroots", "refine_root"),
    ("realroots.rational_roots", "desing.realroots", "rational_roots"),
    ("equilibria.report", "desing.equilibria", "global_divisor_report"),
    ("equilibria.divisor_equilibria", "desing.equilibria", "divisor_equilibria"),
    ("equilibria.classify_exact", "desing.equilibria", "classify_exact"),
    ("equilibria.interval_equilibrium", "desing.equilibria", "_interval_equilibrium"),
    ("vectorfield.as_callable", "desing.vectorfield", "VectorField.as_callable"),
    ("dynamo.sample_portrait", "desing.dynamo", "sample_portrait"),
    ("dynamo.integrate", "desing.dynamo", "integrate"),
    ("dynamo.conjugacy", "desing.dynamo", "conjugacy_check"),
    ("dynamo.hausdorff", "desing.dynamo", "hausdorff_defect"),
]

ROOT = "cli.main"
KEEP_SPANS = 50_000  # raw spans kept for the trace file; aggregates cover every op


def _bits(chain) -> int:
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for p in chain for c in p),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)  # span name -> summed self time
        self.incl_s = defaultdict(float)  # span name -> summed duration
        self.calls = defaultdict(int)
        self.count = defaultdict(int)  # summed per-op counters
        self.peak = defaultdict(int)  # maxima over the run
        self.spans: "list[tuple]" = []
        self._stack: "list[list]" = []
        self._next_id = 0
        self._op_id = -1
        self._patched: "list[tuple]" = []
        self.names: "set[str]" = set()  # span names of the installed wrappers

    # -- span bookkeeping ------------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else None
        frame = [name, time.perf_counter(), 0.0, self._next_id, parent]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, span_id, parent = frame
        dur = end - start
        self.self_s[name] += dur - child
        self.incl_s[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((self._op_id, span_id, parent, name, start, end))

    def run_op(self, fn, *args):
        """Run one op under the root span; returns fn's result."""
        self._op_id += 1
        frame = self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    # -- wrappers ----------------------------------------------------------------------

    def _wrap(self, name, fn):
        if name.startswith("selfcheck."):
            observe = self._on_selfcheck
        else:
            observe = getattr(self, "_on_" + name.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_init(self, fn):
        count = self.count

        def init(*args, **kwargs):
            count["poly.init_calls"] += 1
            return fn(*args, **kwargs)

        return init

    def _patch_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "desing" and not modname.startswith("desing."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))

    def install(self):
        selfcheck = importlib.import_module("desing.selfcheck")
        targets = list(TARGETS) + [
            ("selfcheck." + attr[len("check_"):], "desing.selfcheck", attr)
            for attr in vars(selfcheck)
            if attr.startswith("check_")
        ]
        for name, modname, attr in targets:
            self.names.add(name)
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._patched.append((cls, meth, original))
            else:
                original = getattr(mod, attr)
                self._patch_everywhere(original, self._wrap(name, original))
        poly = importlib.import_module("desing.poly").Poly
        original = vars(poly)["__init__"]
        poly.__init__ = self._count_init(original)
        self._patched.append((poly, "__init__", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- counters read from arguments and results ---------------------------------------

    def _on_dsl_lower(self, args, f):
        self.count["dsl.terms_out"] += len(f.f1.terms) + len(f.f2.terms)

    def _on_poly_mul(self, args, res):
        if hasattr(res, "terms"):
            self.peak["poly.max_terms"] = max(self.peak["poly.max_terms"], len(res.terms))

    _on_poly_substitute = _on_poly_mul

    def _on_realroots_real_roots(self, args, roots):
        coeffs = list(args[0])
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.peak["realroots.max_degree"] = max(self.peak["realroots.max_degree"], len(coeffs) - 1)
        exact = sum(1 for r in roots if r.exact)
        self.count["realroots.roots_exact"] += exact
        self.count["realroots.roots_interval"] += len(roots) - exact

    def _on_realroots_sturm_chain(self, args, chain):
        self.peak["realroots.sturm_max_bits"] = max(self.peak["realroots.sturm_max_bits"], _bits(chain))

    def _on_equilibria_interval_equilibrium(self, args, eq):
        self.count["equilibria.interval_eqs"] += 1
        if not eq.exact and eq.classification == "non-hyperbolic":
            self.count["equilibria.interval_fallbacks"] += 1

    def _on_dynamo_integrate(self, args, traj):
        self.count["dynamo.rk4_steps"] += len(traj.points) - 1

    def _on_selfcheck(self, args, result):
        if not getattr(result, "passed", True):
            self.count["selfcheck.failed_checks"] += 1

    # -- per-op metrics -------------------------------------------------------------------

    def metrics(self, n_ops: int) -> "dict[str, float]":
        """Per-op self times (s), per-op call and counter means, run maxima."""
        n = max(n_ops, 1)
        out = {}
        for name in sorted(self.names):
            out[f"{name}_s"] = self.self_s.get(name, 0.0) / n
            out[f"{name}_calls"] = self.calls.get(name, 0) / n
        out["cli.self_s"] = self.self_s.get(ROOT, 0.0) / n
        out["realroots.refine_calls"] = self.calls.get("realroots.refine_root", 0) / n  # retries
        out["poly.init_calls"] = self.count.get("poly.init_calls", 0) / n
        for key in ("dsl.terms_out", "realroots.roots_exact", "realroots.roots_interval",
                    "equilibria.interval_eqs", "equilibria.interval_fallbacks", "dynamo.rk4_steps",
                    "selfcheck.failed_checks"):
            out[key] = self.count.get(key, 0) / n
        for key in ("poly.max_terms", "realroots.sturm_max_bits", "realroots.max_degree"):
            out[key] = float(self.peak.get(key, 0))
        ieq = self.count.get("equilibria.interval_eqs", 0)
        out["equilibria.interval_certified_ratio"] = (
            1.0 - self.count.get("equilibria.interval_fallbacks", 0) / ieq if ieq else 1.0
        )
        integ = self.incl_s.get("dynamo.integrate", 0.0)
        out["dynamo.rk4_steps_per_s"] = self.count.get("dynamo.rk4_steps", 0) / integ if integ else 0.0
        return out

    def span_check(self) -> "tuple[float, int]":
        """Recompute each recorded op's self-time sum from its raw spans.

        Returns (largest |sum of self times - root duration| / root duration,
        number of spans whose parent is missing, belongs to another op or
        does not enclose them).  Only ops whose root span was kept count;
        spans are kept in exit order, so such an op's spans are all kept."""
        roots = {s[0]: s[5] - s[4] for s in self.spans if s[2] is None and s[3] == ROOT}
        spans = [s for s in self.spans if s[0] in roots]
        by_id = {s[1]: s for s in spans}
        child_dur = defaultdict(float)
        bad = 0
        for op, _, parent, _, start, end in spans:
            if parent is None:
                continue
            up = by_id.get(parent)
            if up is None or up[0] != op or start < up[4] or end > up[5]:
                bad += 1
            child_dur[parent] += end - start
        sums = defaultdict(float)
        for op, span_id, _, _, start, end in spans:
            sums[op] += (end - start) - child_dur[span_id]
        err = max((abs(sums[op] - d) / d for op, d in roots.items() if d > 0), default=0.0)
        return err, bad
