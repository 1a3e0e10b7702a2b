"""Piecewise-smooth systems split by a codimension-one switching surface.

Everything works in an adapted chart: coordinates (x_1, ..., x_{n-1}, y)
with the switching surface Sigma = {y = 0}.  The last coordinate is always
the distinguished normal one.  A field's y-component controls how orbits
meet Sigma; the tangential components move points along it.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import expr as ex

CLASS_TOL = 1e-9  # min(|a_plus|, |a_minus|) at or below CLASS_TOL * max(...) is SigmaSingular


class SigmaClass(enum.Enum):
    SEWING = "Sewing"
    SLIDING = "Sliding"
    SIGMA_SINGULAR = "SigmaSingular"


class NotSlidingError(Exception):
    def __init__(self, point, verdict: SigmaClass):
        self.point = tuple(point)
        self.verdict = verdict
        super().__init__(f"point {self.point} classifies as {verdict.value}, not Sliding")


@dataclass(frozen=True)
class VectorFieldDef:
    """A smooth vector field given componentwise by expressions.

    ``coords`` are the chart coordinate names in order, the last being the
    normal coordinate y.  ``components[i]`` is the coefficient of
    d/d(coords[i]).
    """

    coords: tuple[str, ...]
    components: tuple[ex.Expr, ...]

    def __post_init__(self):
        if len(self.coords) != len(self.components):
            raise ValueError(
                f"{len(self.coords)} coordinates but {len(self.components)} components"
            )
        if len(self.coords) < 2:
            raise ValueError("need at least two coordinates (tangential + normal)")
        if len(set(self.coords)) != len(self.coords):
            raise ValueError(f"duplicate coordinate names in {self.coords}")
        allowed = set(self.coords)
        for name, comp in zip(self.coords, self.components):
            extra = ex.free_vars(comp) - allowed
            if extra:
                raise ValueError(
                    f"component for {name} uses unknown variables {sorted(extra)}"
                )

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _point(self, point: Sequence[float]) -> list[float]:
        pt = np.asarray(point, dtype=float)
        if pt.shape != (self.dim,):
            raise ValueError(f"expected point of dimension {self.dim}, got shape {pt.shape}")
        return pt.tolist()

    @cached_property
    def _components(self):
        return ex.compile(self.components, self.coords)

    def evaluate(self, point: Sequence[float]) -> np.ndarray:
        return np.array(self._components(*self._point(point)), dtype=float)

    def values(self, point: Sequence[float]) -> tuple[float, ...]:
        """evaluate(point) as a tuple of floats, at a chart point of dim
        floats (unchecked)."""
        return self._components(*point)

    @cached_property
    def _partials(self):
        # built on first use: the integrators need them, the grid commands do not
        return ex.compile([ex.differentiate(c, name) for c in self.components
                           for name in self.coords], self.coords)

    def jacobian(self, point: Sequence[float]) -> np.ndarray:
        """The matrix d(components[i])/d(coords[j]) at a chart point."""
        return np.array(self.jacobian_rows(self._point(point)), dtype=float)

    def jacobian_rows(self, point: Sequence[float]) -> list[tuple[float, ...]]:
        """The rows of jacobian(point) as tuples of floats, at a chart point
        of dim floats (unchecked)."""
        partials, n = self._partials(*point), self.dim
        return [partials[i:i + n] for i in range(0, n * n, n)]


def field_from_strings(coords: Sequence[str], components: Sequence[str]) -> VectorFieldDef:
    return VectorFieldDef(tuple(coords), tuple(ex.parse(c) for c in components))


@dataclass(frozen=True)
class PiecewiseSystem:
    """Two smooth fields glued along Sigma = {y = 0}.

    ``plus`` governs y > 0 and ``minus`` governs y < 0.  Both must share the
    same coordinate chart.
    """

    plus: VectorFieldDef
    minus: VectorFieldDef
    normal_traces: tuple[ex.Expr, ex.Expr] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.plus.coords != self.minus.coords:
            raise ValueError(
                f"field charts disagree: {self.plus.coords} vs {self.minus.coords}"
            )
        y = self.y_name
        traces = (
            ex.substitute(self.plus.components[-1], {y: 0.0}),
            ex.substitute(self.minus.components[-1], {y: 0.0}),
        )
        object.__setattr__(self, "normal_traces", traces)

    @property
    def coords(self) -> tuple[str, ...]:
        return self.plus.coords

    @property
    def dim(self) -> int:
        return self.plus.dim

    @property
    def y_name(self) -> str:
        return self.coords[-1]

    @property
    def x_names(self) -> tuple[str, ...]:
        return self.coords[:-1]

    def tangential(self, x: Sequence[float] | float) -> tuple[float, ...]:
        """Sigma coordinates as a checked tuple of floats; a bare number is a planar x."""
        xs = (float(x),) if isinstance(x, numbers.Real) else tuple(map(float, x))
        if len(xs) != self.dim - 1:
            raise ValueError(f"expected {self.dim - 1} tangential coordinates, got {len(xs)}")
        return xs

    @cached_property
    def _normal_traces(self):
        return ex.compile(self.normal_traces, self.x_names)

    def normal_components_on_sigma(self, x: Sequence[float] | float) -> tuple[float, float]:
        """(a_plus, a_minus) evaluated at (x, 0)."""
        return self._normal_traces(*self.tangential(x))


def system_from_strings(
    coords: Sequence[str], plus: Sequence[str], minus: Sequence[str]
) -> PiecewiseSystem:
    return PiecewiseSystem(field_from_strings(coords, plus), field_from_strings(coords, minus))


def _margin(a_plus: float, a_minus: float) -> float:
    """+-min(|a_plus|, |a_minus|) - CLASS_TOL * max(|a_plus|, |a_minus|), with
    + where the two components have opposite signs: positive exactly on
    Sliding, continuous, and unchanged in sign by positive rescaling."""
    small, big = sorted((abs(a_plus), abs(a_minus)))
    return (small if (a_plus > 0) != (a_minus > 0) else -small) - CLASS_TOL * big


def sliding_margin(system: PiecewiseSystem, x: Sequence[float] | float) -> float:
    """Positive exactly where classify_point says Sliding.

    Unlike the Filippov weight it has no pole at a_plus = a_minus, so a
    sliding orbit can bisect its exit on it.
    """
    return _margin(*system.normal_components_on_sigma(x))


def classify_point(system: PiecewiseSystem, x: Sequence[float] | float) -> SigmaClass:
    """Classify the Sigma point with tangential coordinates ``x``.

    The signs of the normal components decide: equal signs mean orbits sew
    straight through, opposite signs mean both fields point at the surface
    (or both away) and a sliding segment exists.  A component within
    CLASS_TOL of zero relative to the other is left as singular rather than
    forced into either class; the test is unchanged by positive rescaling
    of the fields.
    """
    a_plus, a_minus = system.normal_components_on_sigma(x)
    if _margin(a_plus, a_minus) > 0.0:
        return SigmaClass.SLIDING
    if _margin(a_plus, -a_minus) > 0.0:  # flipping a_minus swaps sewing and sliding
        return SigmaClass.SEWING
    return SigmaClass.SIGMA_SINGULAR


def _filippov_weight(system: PiecewiseSystem, x: Sequence[float] | float):
    """((x, 0), lam, a_minus - a_plus) for the Filippov weight
    lam = a_minus / (a_minus - a_plus), from one parse of x; None where
    a_plus = a_minus, the pole of the weight."""
    xs = system.tangential(x)
    a_plus, a_minus = system._normal_traces(*xs)
    denom = a_minus - a_plus
    return None if denom == 0.0 else (xs + (0.0,), a_minus / denom, denom)


def _combine(lam: float, plus: Sequence[float], minus: Sequence[float]) -> list[float]:
    """lam * plus + (1 - lam) * minus, componentwise on floats."""
    return [lam * p + (1.0 - lam) * m for p, m in zip(plus, minus)]


def filippov_tangent(
    system: PiecewiseSystem, x: Sequence[float] | float
) -> tuple[float, list[float]] | None:
    """(lam, the tangential components of lam * X_plus + (1 - lam) * X_minus)
    at (x, 0), on floats and with no class gate: the right-hand side of a
    slide.  lam is the Filippov weight.  None where a_plus = a_minus, the
    pole of the weight.
    """
    weight = _filippov_weight(system, x)
    if weight is None:
        return None
    point, lam, _ = weight
    return lam, _combine(lam, system.plus._components(*point)[:-1],
                         system.minus._components(*point)[:-1])


def filippov_jacobian(system: PiecewiseSystem, x: Sequence[float] | float) -> list[list[float]] | None:
    """d/dx of filippov_tangent at (x, 0), as rows of floats.

    With J the lam-combination of the field Jacobians at (x, 0), it is
    J + (X_plus - X_minus) (x) grad(lam) on the tangential rows and
    columns.  grad(lam) = (a_minus grad(a_plus) - a_plus grad(a_minus))
    / (a_minus - a_plus)^2 is the tangential part of J's last row over
    a_minus - a_plus.  None where filippov_tangent is None.
    """
    weight = _filippov_weight(system, x)
    if weight is None:
        return None
    point, lam, denom = weight
    plus, minus = system.plus, system.minus
    jac = [_combine(lam, rp, rm)
           for rp, rm in zip(plus.jacobian_rows(point), minus.jacobian_rows(point))]
    jump = [p - m for p, m in zip(plus._components(*point), minus._components(*point))]
    grad = [v / denom for v in jac[-1][:-1]]
    return [[v + d * g for v, g in zip(row, grad)] for row, d in zip(jac[:-1], jump)]


def filippov_sliding_field(
    system: PiecewiseSystem, x: Sequence[float] | float
) -> tuple[float, np.ndarray]:
    """Convex combination of the two fields tangent to Sigma at (x, 0).

    Returns (lam, lam * X_plus + (1 - lam) * X_minus) at points that
    classify as Sliding and raises NotSlidingError everywhere else.  The
    tangential components are those of filippov_tangent; the y-component
    is 0, since lam * a_plus + (1 - lam) * a_minus cancels exactly.
    """
    verdict = classify_point(system, x)
    if verdict != SigmaClass.SLIDING:
        raise NotSlidingError(system.tangential(x), verdict)
    lam, tangent = filippov_tangent(system, x)  # Sliding has a_plus != a_minus
    return lam, np.array(tangent + [0.0])
