"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with -s to see the lines as they pass; tolerances are pinned here and
nowhere else.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from desing.charts import ChartId, blow_up_in_chart, compatibility_defect
from desing.dynamo import conjugacy_check
from desing.equilibria import (
    CLASS_SADDLE,
    DERIVATION_NOTES,
    MODEL_HYPERBOLIC_X,
    global_divisor_report,
)
from desing.errors import SingularAngle
from desing.polar import (
    HYPERBOLA,
    SPHERE,
    bridge_alpha1,
    bridge_beta1,
    bridge_beta2,
    desingularize_polar,
    polar_pushforward,
)
from desing.poly import poly_vars
from desing.quotient import COS, RADIAL, SIN, QuotientPoly
from desing.selfcheck import (
    _SAFE_ANGULAR,
    check_bridge_conjugacy,
    check_hyperbolic_finite_difference,
    demo_system,
    run_all,
)
from desing.weights import Weights, infer_weights

F = demo_system()
W = Weights(1, 1, 1)
A1 = {"a": Fraction(1)}

a = poly_vars("a")[0]
c, s, r = poly_vars(COS, SIN, RADIAL)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPT-{number:02d} FAIL {description}")
        raise
    print(f"ACCEPT-{number:02d} PASS {description}")


def test_criterion_01_weight_inference():
    with criterion(1, "weight inference (1,1,1), exact, < 1 ms"):
        assert infer_weights(F) == Weights(1, 1, 1)
        best = min(
            timeit_once() for _ in range(10)
        )
        assert best < 1e-3, f"best inference time {best * 1e3:.3f} ms"


def timeit_once():
    t0 = time.perf_counter()
    infer_weights(F)
    return time.perf_counter() - t0


def test_criterion_02_chart_one_golden():
    with criterion(2, "first-chart raw and desingularized fields, term-for-term"):
        cf = blow_up_in_chart(F, W, ChartId.K1)
        r1, y1 = poly_vars("r1", "y1")
        assert cf.raw == (r1**2 * (a - 2 * y1), r1 * y1 * (3 * y1 - 2 * a))
        assert cf.desing == (r1 * (a - 2 * y1), y1 * (3 * y1 - 2 * a))


def test_criterion_03_spherical_golden():
    with criterion(3, "spherical polar field and desingularization, exact"):
        pf = polar_pushforward(F, SPHERE)
        assert pf.angular == QuotientPoly(SPHERE, r * (3 * c * s**2 - 2 * a * s * c**2))
        assert pf.radial == QuotientPoly(
            SPHERE, r**2 * (a * c - 2 * s - 2 * a * c * s**2 + 3 * s**3)
        )
        pd = desingularize_polar(pf)
        assert pd.angular == QuotientPoly(SPHERE, 3 * c * s**2 - 2 * a * s * c**2)
        assert pd.radial == QuotientPoly(
            SPHERE, r * (a * c - 2 * s - 2 * a * c * s**2 + 3 * s**3)
        )


def test_criterion_04_hyperbolic_polar():
    with criterion(4, "hyperbolic polar: exact angular, derived radial, FD at 1e-9, flagged"):
        hh = polar_pushforward(F, HYPERBOLA)
        assert hh.angular == QuotientPoly(HYPERBOLA, r * (3 * c * s**2 - 2 * a * s * c**2))
        derived = QuotientPoly(HYPERBOLA, r**2 * (a * c - 2 * s - 3 * s**3 + 2 * a * c * s**2))
        published = QuotientPoly(HYPERBOLA, r**2 * (a * c - 2 * s - 3 * s**3 - 2 * a * c * s**2))
        assert hh.radial == derived
        assert hh.radial != published
        fd = check_hyperbolic_finite_difference(F, A1, seed=1)
        assert fd.passed, fd.detail
        assert any(n["key"] == "hyperbolic-radial-sign" for n in DERIVATION_NOTES)
        from desing.cli import render_analysis_text

        text = render_analysis_text(global_divisor_report(F, W, A1, model=MODEL_HYPERBOLIC_X))
        assert "- 2*a*cosh(phi)*sinh(phi)^2" in text  # published variant shown
        assert "+ 2*a*cosh(phi)*sinh(phi)^2" in text  # derived variant shown


def test_criterion_05_global_analysis():
    with criterion(5, "six saddle equilibria at the expected angles, several parameters"):
        for av in (Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(10)):
            report = global_divisor_report(F, W, {"a": av})
            assert len(report.equilibria) == 6
            slope = math.atan(2 * float(av) / 3)
            expected = [0.0, slope, math.pi / 2, math.pi, math.pi + slope, 3 * math.pi / 2]
            for merged, want in zip(report.equilibria, expected):
                assert abs(merged.angle - want) < 1e-9
                assert merged.classification == CLASS_SADDLE


def test_criterion_06_exact_eigenvalues():
    with criterion(6, "exact eigenvalues in the first chart at a = 1"):
        cf = blow_up_in_chart(F, W, ChartId.K1)
        from desing.equilibria import divisor_equilibria

        eqs = divisor_equilibria(cf, A1)
        assert eqs[0].coords == (0, Fraction(0))
        assert set(eqs[0].eigenvalues_exact) == {Fraction(1), Fraction(-2)}
        assert eqs[1].coords == (0, Fraction(2, 3))
        assert set(eqs[1].eigenvalues_exact) == {Fraction(-1, 3), Fraction(2)}


def test_criterion_07_chart_compatibility():
    with criterion(7, "compatibility defect zero; nonzero for the published variant"):
        defect = compatibility_defect(F, W, ChartId.K1, ChartId.K2)
        assert defect[0].is_zero() and defect[1].is_zero()
        r2, x2 = poly_vars("r2", "x2")
        published = (r2 * (1 - a * x2), x2 * (2 * a * r2 - 3))
        bad = compatibility_defect(F, W, ChartId.K1, ChartId.K2, desing_to=published)
        assert not (bad[0].is_zero() and bad[1].is_zero())


def test_criterion_08_conjugacy():
    with criterion(8, "20 random conjugacy seeds: defect < 1e-6, decreasing under halving"):
        rng = random.Random(8)
        for _ in range(20):
            chart = rng.choice(list(ChartId))
            lo, hi = _SAFE_ANGULAR[chart]
            cf = blow_up_in_chart(F, W, chart)
            x0 = (rng.uniform(1e-6, 0.5), rng.uniform(lo, hi))
            defect = conjugacy_check(F, cf, x0, A1, t_end=1.0, h=1e-3)
            assert defect < 1e-6, f"{chart} {x0}: {defect}"
        cf = blow_up_in_chart(F, W, ChartId.K1)
        d1 = conjugacy_check(F, cf, (0.3, 0.4), A1, t_end=1.0, h=2e-3)
        d2 = conjugacy_check(F, cf, (0.3, 0.4), A1, t_end=1.0, h=1e-3)
        assert d2 <= d1 or d2 < 1e-9


def test_criterion_09_bridges():
    with criterion(9, "bridge pushforward at 1e-9; singular loci raise"):
        res = check_bridge_conjugacy(F, W, A1, seed=9)
        assert res.passed, res.detail
        with pytest.raises(SingularAngle):
            bridge_alpha1(math.pi / 2, 1.0)
        with pytest.raises(SingularAngle):
            bridge_alpha1(3 * math.pi / 2, 0.7)
        with pytest.raises(SingularAngle):
            bridge_beta2(0.0, 1.0)
        assert bridge_beta1(0.0, 3.0) == (3.0, 0.0)


def test_criterion_10_hyperbolic_coverage():
    with criterion(10, "x-hyperboloid: one equilibrium at a = 2, two saddles at a = 1"):
        rep2 = global_divisor_report(F, W, {"a": Fraction(2)}, model=MODEL_HYPERBOLIC_X)
        assert len(rep2.equilibria) == 1
        rep1 = global_divisor_report(F, W, A1, model=MODEL_HYPERBOLIC_X)
        assert len(rep1.equilibria) == 2
        assert all(m.classification == CLASS_SADDLE for m in rep1.equilibria)


def test_criterion_11_verify_suite_under_budget():
    with criterion(11, "verify suite passes with >= 100 random cases in < 60 s"):
        t0 = time.perf_counter()
        results = run_all(seed=0)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"verify took {elapsed:.1f} s"
        failed = [r for r in results if not r.passed]
        assert not failed, f"failing checks: {[(r.name, r.detail) for r in failed]}"
        by_name = {r.name: r for r in results}
        assert by_name["ring-axioms"].cases >= 100
        assert by_name["reduction-homomorphism"].cases >= 100
