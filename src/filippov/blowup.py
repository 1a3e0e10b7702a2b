"""Charts for the eps-blow-up of the switching band.

The regularized family X_eps on (x, y) with parameter eps is viewed on the
space (x, y, eps) and blown up along {y = 0, eps = 0}.  Two kinds of chart
cover the result:

* the central chart E: (x, ybar, epsbar) -> (x, y = epsbar*ybar, eps = epsbar),
  where the band becomes the strip |ybar| <= 1 and, after dividing by epsbar,
  the dynamics is the slow-fast system

      ybar' = alpha(x, ybar)        (fast)
      x_i'  = epsbar * beta_i        (slow)

  with alpha = (psi*(a_plus - a_minus) + (a_plus + a_minus)) / 2 equal to
  half the height function on the divisor epsbar = 0;

* the side charts F+/F-: (x, ytil, epstil) -> (x, y = +-ytil, eps = ytil*epstil),
  valid for 0 <= epstil <= 1, where the transition has saturated and the
  divided field extends smoothly to the divisor ytil = 0.

All fields returned here are the divided ones (the common factor epsbar,
respectively ytil, has been cancelled once).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .regularize import TransitionFunction, blend, height
from .system import PiecewiseSystem


class Chart(enum.Enum):
    E = "E"
    F_PLUS = "F+"
    F_MINUS = "F-"


@dataclass(frozen=True)
class ChartPoint:
    """A point in one of the blow-up charts.

    E carries (x, ybar, epsbar with epsbar >= 0); the F charts carry
    (x, ytil >= 0, epstil in [0, 1]).
    """

    chart: Chart
    x: tuple[float, ...]
    u: float  # ybar or ytil
    v: float  # epsbar or epstil

    def ambient(self) -> tuple[tuple[float, ...], float, float]:
        """(x, y, eps) under the chart map."""
        if self.chart == Chart.E:
            return self.x, self.v * self.u, self.v
        sign = 1.0 if self.chart == Chart.F_PLUS else -1.0
        return self.x, sign * self.u, self.u * self.v


def _e_blend(
    system: PiecewiseSystem,
    transition: TransitionFunction,
    x: Sequence[float] | float,
    ybar: float,
    epsbar: float,
) -> np.ndarray:
    """The regularized field at the ambient point of (x, ybar, epsbar) in E."""
    xs = system.tangential(x)
    return np.array(blend(system, transition.value(ybar, xs), xs + (epsbar * ybar,)))


def e_chart_field(
    system: PiecewiseSystem,
    transition: TransitionFunction,
    x: Sequence[float] | float,
    ybar: float,
    epsbar: float,
) -> np.ndarray:
    """Divided field in the central chart: components (ybar', x_1', ...).

    ybar' = alpha and x_i' = epsbar * beta_i where alpha, beta blend the two
    fields at the ambient point (x, epsbar*ybar) with weights from
    psi(x, ybar).  The chart has no eps-motion: epsbar is frozen, which is
    the fibration condition.
    """
    if epsbar < 0:
        raise ValueError(f"epsbar must be nonnegative, got {epsbar}")
    blended = _e_blend(system, transition, x, ybar, epsbar)
    return np.concatenate(([blended[-1]], epsbar * blended[:-1]))


def f_chart_field(
    system: PiecewiseSystem,
    transition: TransitionFunction,
    sign: int,
    x: Sequence[float] | float,
    ytil: float,
    epstil: float,
) -> np.ndarray:
    """Divided field in a side chart: components (ytil', epstil', x_1', ...).

    In F+ (sign=+1) the point sits at ambient y = ytil with eps = ytil*epstil,
    deep enough in the saturated zone that only X_plus matters:

        ytil' = ytil * a_plus,  epstil' = -epstil * a_plus,  x_i' = ytil * b_i,
        everything evaluated at (x, ytil).

    F- (sign=-1) mirrors this with X_minus at (x, -ytil) and flipped signs on
    the normal pair.  Valid for 0 <= epstil <= 1; beyond 1 the point leaves
    the saturated zone and the chart no longer represents X_eps.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if ytil < 0:
        raise ValueError(f"ytil must be nonnegative, got {ytil}")
    if not 0.0 <= epstil <= 1.0:
        raise ValueError(f"epstil must lie in [0, 1], got {epstil}")
    field_def = system.plus if sign > 0 else system.minus
    v = field_def.evaluate(np.array(system.tangential(x) + (sign * ytil,)))
    a = sign * v[-1]  # F- flips the normal pair; the negation is exact
    return np.concatenate(([ytil * a, -epstil * a], ytil * v[:-1]))


@dataclass(frozen=True)
class SlowFastSystem:
    """Slow-fast form of the regularized family in the central chart."""

    system: PiecewiseSystem
    transition: TransitionFunction

    def slow_manifold_residual(self, x: Sequence[float] | float, ybar: float) -> float:
        """Height function value; its zero set is the slow manifold."""
        return height(self.system, self.transition, x, ybar)[0]

    def manifold_slice(self, x: Sequence[float] | float):
        """Roots of the residual in ybar over [-1, 1] at fixed x (height_roots)."""
        # looked up at call time: bench/tracing.py counts calls at regularize.height_roots
        from .regularize import height_roots

        return height_roots(self.system, self.transition, x)

    def slow_flow(self, x: Sequence[float] | float, ybar: float) -> np.ndarray:
        """Slow velocities beta on the divisor; meaningful on the residual's zero set."""
        return _e_blend(self.system, self.transition, x, ybar, 0.0)[:-1]

    def fast_flow(self, x: Sequence[float] | float, ybar: float) -> float:
        """ybar' = alpha at frozen x on the divisor (equals half the height)."""
        return float(e_chart_field(self.system, self.transition, x, ybar, 0.0)[0])

