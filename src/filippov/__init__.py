"""Analysis of piecewise-smooth vector fields with a switching surface.

The package classifies points of a codimension-one discontinuity surface,
replaces the jump with a parametrized transition band, certifies sliding
and sewing behaviour through a scalar height function, rewrites the band
dynamics in slow-fast form via a blow-up of the surface, integrates both
the hybrid (Filippov) and regularized dynamics, and handles a pair of
transversally intersecting switching planes.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .blowup import Chart, ChartPoint, SlowFastSystem, e_chart_field, f_chart_field
from .cross import (
    CrossSystem,
    NonMonotoneTransitionError,
    StratifiedCurve,
    double_regularized_field,
    stratified_slide_curve,
    transition_zero,
)
from .dynamics import (
    Equilibrium,
    Event,
    EventKind,
    IntegratorStats,
    ManifoldPoint,
    ManifoldTrack,
    NoSlidingAtError,
    Trajectory,
    UnresolvedSingularityError,
    equilibria_on_manifold,
    hausdorff,
    integrate,
    integrate_filippov,
    track_manifold,
)
from .expr import (
    DomainError,
    Expr,
    ParseError,
    UnboundVariableError,
    differentiate,
    evaluate,
    parse,
    substitute,
    to_text,
)
from .regularize import (
    Biased,
    Custom,
    DegenerateInterval,
    HeightRoot,
    Overshoot,
    SlidingCertificate,
    Smoothstep,
    TransitionFunction,
    ValidationFailure,
    Verdict,
    certify,
    height_roots,
    make_transition,
    regularized_field,
    regularized_jacobian,
)
from .system import (
    NotSlidingError,
    PiecewiseSystem,
    SigmaClass,
    VectorFieldDef,
    classify_point,
    field_from_strings,
    filippov_sliding_field,
    system_from_strings,
)

__all__ = [
    "__version__",
    "Biased",
    "Chart",
    "ChartPoint",
    "CrossSystem",
    "Custom",
    "DegenerateInterval",
    "DomainError",
    "Equilibrium",
    "Event",
    "EventKind",
    "Expr",
    "HeightRoot",
    "IntegratorStats",
    "ManifoldPoint",
    "ManifoldTrack",
    "NonMonotoneTransitionError",
    "NoSlidingAtError",
    "NotSlidingError",
    "Overshoot",
    "ParseError",
    "PiecewiseSystem",
    "SigmaClass",
    "SlidingCertificate",
    "SlowFastSystem",
    "Smoothstep",
    "StratifiedCurve",
    "Trajectory",
    "TransitionFunction",
    "UnboundVariableError",
    "UnresolvedSingularityError",
    "ValidationFailure",
    "VectorFieldDef",
    "Verdict",
    "certify",
    "classify_point",
    "differentiate",
    "double_regularized_field",
    "e_chart_field",
    "equilibria_on_manifold",
    "evaluate",
    "f_chart_field",
    "field_from_strings",
    "filippov_sliding_field",
    "hausdorff",
    "height_roots",
    "integrate",
    "integrate_filippov",
    "make_transition",
    "parse",
    "regularized_field",
    "regularized_jacobian",
    "stratified_slide_curve",
    "substitute",
    "system_from_strings",
    "to_text",
    "track_manifold",
    "transition_zero",
]
