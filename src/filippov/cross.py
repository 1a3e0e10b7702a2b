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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .regularize import TransitionFunction
from .system import VectorFieldDef

CROSS_COORDS = ("x", "y", "z")
Z_WINDOW = (0.0, 1.0)  # the z-range over which the curve is measured
CURVE_SAMPLES = 21  # points of Z_WINDOW where the curve is measured


class NonMonotoneTransitionError(Exception):
    def __init__(self, which: str, count: int):
        self.which = which
        self.count = count
        super().__init__(
            f"transition {which} must have exactly one zero on [-1, 1], found {count}"
        )


@dataclass(frozen=True)
class CrossSystem:
    """Quadrant fields keyed by (sgn x, sgn y) plus the two transitions."""

    fields: dict[tuple[int, int], VectorFieldDef]
    phi: TransitionFunction  # switches across {x = 0}
    psi: TransitionFunction  # switches across {y = 0}

    def __post_init__(self):
        keys = {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        if set(self.fields) != keys:
            raise ValueError(f"need the four quadrant fields {sorted(keys)}, got {sorted(self.fields)}")
        for key, fd in self.fields.items():
            if fd.coords != CROSS_COORDS:
                raise ValueError(f"field {key} must use coordinates {CROSS_COORDS}, got {fd.coords}")


def double_regularized_field(
    cs: CrossSystem, eps: float, eta: float, point: Sequence[float]
) -> np.ndarray:
    """Blend of the four quadrant fields at a point of (x, y, z)."""
    if eps <= 0 or eta <= 0:
        raise ValueError(f"band widths must be positive, got eps={eps}, eta={eta}")
    pt = np.asarray(point, dtype=float)
    phi = cs.phi.value(pt[0] / eps)
    psi = cs.psi.value(pt[1] / eta)
    out = np.zeros(3)
    for (sa, sb), fd in cs.fields.items():
        weight = 0.25 * (1.0 + sa * phi) * (1.0 + sb * psi)
        if weight != 0.0:
            out += weight * fd.evaluate(pt)
    return out


def transition_zero(tf: TransitionFunction, which: str) -> float:
    """The unique zero of a transition on [-1, 1], its level set at 0.

    Raises NonMonotoneTransitionError unless there is exactly one.
    """
    zeros = tf.level_set(0.0)
    if len(zeros) != 1:
        raise NonMonotoneTransitionError(which, len(zeros))
    return zeros[0]


@dataclass(frozen=True)
class StratifiedCurve:
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
    NonMonotoneTransitionError otherwise.
    """
    if eps <= 0 or eta <= 0:
        raise ValueError(f"band widths must be positive, got eps={eps}, eta={eta}")
    t0 = transition_zero(cs.phi, "phi")
    u0 = transition_zero(cs.psi, "psi")
    x = eps * t0
    y = eta * u0
    res_x = 0.0
    res_y = 0.0
    for z in np.linspace(Z_WINDOW[0], Z_WINDOW[1], CURVE_SAMPLES):
        v = double_regularized_field(cs, eps, eta, (x, y, float(z)))
        res_x = max(res_x, abs(float(v[0])))
        res_y = max(res_y, abs(float(v[1])))
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
