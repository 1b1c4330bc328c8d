"""Exact blow-up desingularization of planar polynomial vector fields.

Pipeline: parse a vector-field description, infer the quasi-homogeneous
weights, blow the degenerate equilibrium up into a circle or hyperbola
(directional charts or polar form), desingularize exactly, then locate and
classify the equilibria that appear on the exceptional divisor.
"""

from .charts import ChartField, ChartId, blow_up_in_chart, compatibility_defect, transition
from .dsl import FieldSpec, lower_to_polynomials, parse_field_spec
from .dynamo import (
    FrameField,
    GridSpec,
    Trajectory,
    conjugacy_check,
    frame_chart,
    frame_original,
    frame_polar,
    integrate,
    sample_portrait,
)
from .equilibria import (
    Equilibrium,
    GlobalReport,
    divisor_equilibria,
    global_divisor_report,
)
from .errors import (
    AmbiguousWeights,
    DegenerateChart,
    DesingError,
    NameCollision,
    NonFiniteField,
    NotDivisible,
    NotQuasiHomogeneous,
    OutOfDomain,
    ParseError,
    SingularAngle,
    UnboundParameter,
)
from .polar import (
    Branch,
    PolarField,
    bridge_alpha1,
    bridge_beta1,
    bridge_beta2,
    desingularize_polar,
    polar_pushforward,
)
from .poly import Poly, poly_vars
from .quotient import QuotientPoly
from .vectorfield import Param, VectorField
from .weights import Weights, infer_weights, verify_weights

__version__ = "0.1.0"

__all__ = [
    "AmbiguousWeights",
    "Branch",
    "ChartField",
    "ChartId",
    "DegenerateChart",
    "DesingError",
    "NameCollision",
    "Equilibrium",
    "FieldSpec",
    "FrameField",
    "GlobalReport",
    "GridSpec",
    "NonFiniteField",
    "NotDivisible",
    "NotQuasiHomogeneous",
    "OutOfDomain",
    "Param",
    "ParseError",
    "PolarField",
    "Poly",
    "QuotientPoly",
    "SingularAngle",
    "Trajectory",
    "UnboundParameter",
    "VectorField",
    "Weights",
    "blow_up_in_chart",
    "bridge_alpha1",
    "bridge_beta1",
    "bridge_beta2",
    "compatibility_defect",
    "conjugacy_check",
    "desingularize_polar",
    "divisor_equilibria",
    "frame_chart",
    "frame_original",
    "frame_polar",
    "global_divisor_report",
    "infer_weights",
    "integrate",
    "lower_to_polynomials",
    "parse_field_spec",
    "polar_pushforward",
    "poly_vars",
    "sample_portrait",
    "transition",
    "verify_weights",
]
