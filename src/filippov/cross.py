"""Double regularization across two transversal switching planes.

Four smooth fields on (x, y, z) are selected by the signs of x and y.  Two
transition functions phi and psi blend them with the product weights

    w_ab = (1 + a*phi(x/eps)) * (1 + b*psi(y/eta)) / 4,      a, b in {+, -},

a partition of unity that reduces to the plain one-surface blend on each
plane and recovers the quadrant field outside both bands.  For monotone
transitions with zeros t0 and u0 the line {x = eps*t0, y = eta*u0} plays
the role that the sliding manifold plays for a single surface.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .expr import DomainError
from .regularize import TransitionFunction, linspace
from .system import VectorFieldDef, _floats

if TYPE_CHECKING:
    import numpy as np

CROSS_COORDS = ("x", "y", "z")
Z_WINDOW = (0.0, 1.0)  # the z-range over which the curve is measured
CURVE_SAMPLES = 21  # points of Z_WINDOW where the curve is measured


class NonMonotoneTransitionError(Exception):
    def __init__(self, which: str, count: int, unresolved: int = 0):
        self.which = which
        self.count = count
        self.unresolved = unresolved
        super().__init__(
            f"transition {which} must have exactly one zero on [-1, 1], found {count}"
            + (f" plus {unresolved} interval(s) where it is not proven monotone" if unresolved else "")
        )


class CrossSystem:
    """Quadrant fields keyed by (sgn x, sgn y) plus the two transitions:
    phi switches across {x = 0} and psi across {y = 0}."""

    def __init__(self, fields: dict[tuple[int, int], VectorFieldDef],
                 phi: TransitionFunction, psi: TransitionFunction):
        keys = {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        if set(fields) != keys:
            raise ValueError(f"need the four quadrant fields {sorted(keys)}, got {sorted(fields)}")
        for key, fd in fields.items():
            if fd.coords != CROSS_COORDS:
                raise ValueError(f"field {key} must use coordinates {CROSS_COORDS}, got {fd.coords}")
        self.fields = fields
        self.phi = phi
        self.psi = psi


def double_regularized_field(
    cs: CrossSystem, eps: float, eta: float, point: Sequence[float]
) -> np.ndarray:
    """Blend of the four quadrant fields at a point of (x, y, z)."""
    if not eps > 0 or not eta > 0:
        raise ValueError(f"band widths must be positive, got eps={eps}, eta={eta}")
    return _floats(_blend(cs, eps, eta, cs.fields[1, 1]._point(point)))


def _blend(cs: CrossSystem, eps: float, eta: float, point: Sequence[float]) -> list[float]:
    """double_regularized_field on floats, at a point of three floats."""
    phi = cs.phi.value(point[0] / eps)
    psi = cs.psi.value(point[1] / eta)
    out = [0.0, 0.0, 0.0]
    for (sa, sb), fd in cs.fields.items():
        weight = 0.25 * (1.0 + sa * phi) * (1.0 + sb * psi)
        if weight != 0.0:
            out = [o + weight * v for o, v in zip(out, fd.values(point))]
    return out


def transition_zero(tf: TransitionFunction, which: str) -> float:
    """The unique zero of a transition on [-1, 1], from its level set at 0.

    Raises NonMonotoneTransitionError unless the level set holds exactly one
    zero and no cell: a piece where psi is not proven monotone may hold another.
    """
    zeros, cells = tf.level_set(0.0)
    if len(zeros) != 1 or cells:
        raise NonMonotoneTransitionError(which, len(zeros), len(cells))
    return zeros[0]


class StratifiedCurve(NamedTuple):
    """The distinguished line {x = eps*t0, y = eta*u0} and its diagnostics.

    residual_x/residual_y are the largest absolute transverse velocities of
    the blended field sampled along the curve over Z_WINDOW;
    hausdorff_to_axis is the curve's distance from the z-axis, which is
    sqrt(x^2 + y^2) since the curve runs parallel to it.
    """

    eps: float
    eta: float
    t0: float
    u0: float
    x: float
    y: float
    residual_x: float
    residual_y: float
    hausdorff_to_axis: float


def stratified_slide_curve(
    cs: CrossSystem,
    eps: float,
    eta: float,
) -> StratifiedCurve:
    """Locate the curve and measure its invariance defect at CURVE_SAMPLES
    points of Z_WINDOW.

    Requires both transitions to have a unique zero; raises
    NonMonotoneTransitionError otherwise.  A sample where the blended field
    is not finite raises DomainError, as max() would drop a NaN residual.
    """
    if not eps > 0 or not eta > 0:
        raise ValueError(f"band widths must be positive, got eps={eps}, eta={eta}")
    t0 = transition_zero(cs.phi, "phi")
    u0 = transition_zero(cs.psi, "psi")
    x = eps * t0
    y = eta * u0
    res_x = 0.0
    res_y = 0.0
    for z in linspace(Z_WINDOW[0], Z_WINDOW[1], CURVE_SAMPLES):
        v = _blend(cs, eps, eta, (x, y, z))
        if not all(map(math.isfinite, v)):
            raise DomainError(f"blended field {v} at (x, y, z) = {(x, y, z)} is not finite")
        res_x = max(res_x, abs(v[0]))
        res_y = max(res_y, abs(v[1]))
    return StratifiedCurve(
        eps=eps,
        eta=eta,
        t0=t0,
        u0=u0,
        x=x,
        y=y,
        residual_x=res_x,
        residual_y=res_y,
        hausdorff_to_axis=math.sqrt(x * x + y * y),
    )
