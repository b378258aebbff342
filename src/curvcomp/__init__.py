"""Circumradius-comparison curvature bounds on finite metric spaces."""

__version__ = "0.1.0"  # above the imports, so that report can import it

from .certify import (
    CurvatureQuery,
    DefectReport,
    TriangleDefect,
    Verdict,
    certify,
    defect_profile,
    triangle_defect,
)
from .circumradius import (
    CandidatePolicy,
    CircumResult,
    discrete_circumradius,
    linf_circumcenter,
    lp_circumradius,
)
from .counterexamples import check_counterexample, counterexample_space, counterexample_triangle
from .generators import (
    GeneratorSpec,
    parse_generator_spec,
    sample_space,
)
from .hyperbolicity import (
    DeltaResult,
    delta_four_point,
    relaxed_npc_bound_check,
)
from .metricspace import (
    Embedding,
    FiniteMetricSpace,
    MetricValidationError,
    SideLengths,
    Triple,
    from_graph,
    load_space,
    validate_metric,
)
from .modelplane import (
    ComparisonTriangle,
    ModelPoint,
    comparison_triangle,
    euclidean_circumradius,
    model_circumradius,
)
