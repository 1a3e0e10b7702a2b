"""Transition-type regularization and sliding/sewing certificates.

A transition function psi(x, t) equals -1 for t <= -1 and +1 for t >= 1.
Feeding it t = y/eps blends the two halves of a piecewise system into one
smooth field

    X_eps = (1 + psi)/2 * X_plus + (1 - psi)/2 * X_minus,

which agrees with X_plus above the band |y| < eps and with X_minus below it.

Whether the band traps orbits is decided by the height function

    h(x, t) = psi(x, t) * (a_plus - a_minus) + (a_plus + a_minus),

with a_pm the normal field components frozen on the surface.  Where
a_plus != a_minus, h vanishes exactly where psi(x, t) = r with

    r = -(a_plus + a_minus)/(a_plus - a_minus) = 2*lam - 1,

lam being the Filippov weight.  So the zeros of h are a level set of psi,
which TransitionFunction.level_set returns: in closed form for smoothstep
and biased, and otherwise with monotone_zeros, one bisection per piece
where psi is monotone.  Those pieces are the two branches of overshoot,
and for a custom psi the cells of a t-grid whose samples where psi turns
have moved onto its critical points.  A preimage where psi' != 0
certifies a sliding band, no preimage certifies sewing, and everything else
(tangential preimages, or h = 0 identically) stays indeterminate.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .system import PiecewiseSystem

TRANSVERSALITY_TOL = 1e-8  # a root with |psi'| above this is transversal
ZERO_TOL = 1e-10  # |psi - r| at or below this is a preimage at a custom psi's break
GRID_CELLS = 512  # cells of the t-grid on [-1, 1] that a custom psi is sampled on
ROOT_BISECTION_TOL = 1e-14  # width at which monotone_breaks and monotone_zeros stop bisecting

_VALIDATION_T = (-1.0, -1.5, -10.0, 1.0, 1.5, 10.0)
_VALIDATION_X = (-1.0, -0.37, 0.0, 0.58, 1.0)


class ValidationFailure(Exception):
    """A transition function violates one of its defining constraints."""


def _cubic(t: float) -> float:
    return (3.0 * t - t ** 3) / 2.0


def _cubic_d(t: float) -> float:
    return (3.0 - 3.0 * t * t) / 2.0


def _cubic_level_set(r: float) -> list[float]:
    """The t in [-1, 1] with (3t - t^3)/2 = r: one for r in [-1, 1], else none.

    With t = 2 sin(a) the cubic is 3 sin(a) - 4 sin(a)^3 = sin(3a).  The
    band edges are returned as they are: the formula misses 1 by an ulp.
    """
    if not -1.0 <= r <= 1.0:
        return []
    return [r if abs(r) == 1.0 else 2.0 * math.sin(math.asin(r) / 3.0)]


def bisect_sign_change(
    f: Callable[[float], float], a: float, b: float, tol: float, fa: float | None = None
) -> float:
    """A point where f changes sign between a < b, to within tol.

    ``fa`` is f(a) when the caller already has it.  The search stops early
    at an exact zero or at a NaN value, and also when no float lies strictly
    between the ends, which ends it for any tol below the float spacing.
    """
    if fa is None:
        fa = f(a)
    while b - a > tol:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break
        fm = f(mid)
        if fm == 0.0 or math.isnan(fm):
            return mid
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def monotone_breaks(
    f: Callable[[float], float], slope: Callable[[float], float], ts: Sequence[float]
) -> tuple[list[float], list[float]]:
    """Breaks between which f is taken to be monotone, and f at them.

    These are the samples ts of f, except that a sample where the sampled
    values turn (stop rising and start falling, or the reverse) moves onto
    the critical point that bisecting ``slope`` finds in its two cells.
    Only turns closer together than a cell are missed.
    """
    breaks, values = list(ts), [f(t) for t in ts]
    rise = np.diff(values)
    for k in (np.flatnonzero(rise[:-1] * rise[1:] < 0.0) + 1).tolist():
        da = slope(ts[k - 1])
        if da * slope(ts[k + 1]) < 0.0:
            breaks[k] = bisect_sign_change(slope, ts[k - 1], ts[k + 1], ROOT_BISECTION_TOL, fa=da)
            values[k] = f(breaks[k])
    return breaks, values


def monotone_zeros(
    f: Callable[[float], float], breaks: Sequence[float], values: Sequence[float], tol: float
) -> list[float]:
    """The sorted zeros of f on [breaks[0], breaks[-1]].

    f is monotone between consecutive breaks, and values[k] = f(breaks[k]).
    A break whose value is within tol of 0 is a zero; a piece whose two ends
    lie beyond tol with opposite signs holds one zero, which bisection
    finds.  A NaN value is no zero, and a piece with a NaN end holds none.
    """
    vs = np.asarray(values, dtype=float)
    size = np.abs(vs)
    far = size > tol  # not the complement of the zero test: a NaN is neither
    hit = size <= tol  # a zero at the break, or below, a zero in the piece it starts
    hit[:-1] |= far[:-1] & far[1:] & (vs[:-1] * vs[1:] < 0.0)
    return [breaks[k] if abs(values[k]) <= tol else bisect_sign_change(
                f, breaks[k], breaks[k + 1], ROOT_BISECTION_TOL, fa=values[k])
            for k in np.flatnonzero(hit).tolist()]


class TransitionFunction:
    """Base class; concrete kinds implement value/deriv on the core interval."""

    def value(self, t: float, x: Sequence[float] = ()) -> float:
        if t < -1.0:
            return -1.0
        if t > 1.0:
            return 1.0
        return self._core(t, x)  # cores reach -1/+1 at the band edge

    def deriv_t(self, t: float, x: Sequence[float] = ()) -> float:
        if t <= -1.0 or t >= 1.0:
            return 0.0
        return self._core_d(t, x)

    def deriv_x(self, t: float, x: Sequence[float] = ()) -> list[float]:
        """The gradient of psi in the surface coordinates x."""
        return [0.0] * len(x)  # only a custom psi may depend on x

    def level_set(self, r: float, x: Sequence[float] = ()) -> list[float]:
        """The sorted t in [-1, 1] with psi(x, t) = r."""
        raise NotImplementedError

    def _core(self, t: float, x: Sequence[float]) -> float:
        raise NotImplementedError

    def _core_d(self, t: float, x: Sequence[float]) -> float:
        raise NotImplementedError


@dataclass
class Smoothstep(TransitionFunction):
    """Clamped cubic (3t - t^3)/2; odd, strictly increasing, zero at 0."""

    def _core(self, t, x):
        return _cubic(t)

    def _core_d(self, t, x):
        return _cubic_d(t)

    def level_set(self, r, x=()):
        return _cubic_level_set(r)


@dataclass
class Overshoot(TransitionFunction):
    """Cubic plus a calibrated bump c*(1-t^2)^2 whose interior max is ``m``.

    The bump keeps the boundary values and C1 matching intact.  The slope
    (1-t^2)(3/2 - 4ct) vanishes inside the band only at u = 3/(8c), so the
    peak equals m exactly when u is the root in (0, 1) of
    u^4 - 6u^2 + 8mu - 3 = 0; c comes from that root in closed form
    (Ferrari's resolvent).  Not monotone: that is the point.  psi rises
    from -1 to m on [-1, u] and falls from m to 1 on [u, 1].
    """

    m: float
    c: float = field(init=False)
    u: float = field(init=False)  # the peak, the only interior critical point

    def __post_init__(self):
        if not self.m > 1.0:
            raise ValidationFailure(f"overshoot max must exceed 1, got {self.m}")
        self.c = 3.0 / (8.0 * _overshoot_peak(self.m))
        self.u = 3.0 / (8.0 * self.c)
        # relative: one ulp of m exceeds any absolute bound once m is large;
        # written with `not` so that it also rejects the NaN peak the closed
        # form gives once (m - 1)(m + 1) overflows (m near 1.3e154)
        peak = self.value(self.u)
        if not abs(peak - self.m) <= 1e-12 * self.m:
            raise ValidationFailure(f"interior max {peak} differs from target {self.m}")

    def _core(self, t, x):
        s = 1.0 - t * t
        return _cubic(t) + self.c * s * s

    def _core_d(self, t, x):
        s = 1.0 - t * t
        return _cubic_d(t) - 4.0 * self.c * t * s

    def level_set(self, r, x=()):
        # psi is monotone on [-1, u] and on [u, 1], with exact values at the breaks
        return monotone_zeros(lambda t: self.value(t, x) - r, (-1.0, self.u, 1.0),
                              (-1.0 - r, self.m - r, 1.0 - r), 0.0)


def _overshoot_peak(m: float) -> float:
    """The root in (0, 1) of u^4 - 6u^2 + 8mu - 3, for m > 1.

    Completing the square turns the quartic into (u^2 + y)^2 = (su - 4m/s)^2
    with y = 2(m^2 - 1)^(1/3) - 1 and s^2 = 2y + 6; the wanted root is the
    positive one of u^2 + su - q with q = 4m/s - y.  Both q and the root are
    written without cancellation, using 16m^2 - y^2 s^2 = 6(y + 3).
    """
    y = 2.0 * ((m - 1.0) * (m + 1.0)) ** (1.0 / 3.0) - 1.0
    s = math.sqrt(2.0 * y + 6.0)
    q = 6.0 * (y + 3.0) / (s * (4.0 * m + y * s))
    return 2.0 * q / (s + math.sqrt(s * s + 4.0 * q))


@dataclass
class Biased(TransitionFunction):
    """Monotone transition whose unique zero sits at t0 in (-1, 1).

    Composes the cubic with the Moebius reparametrization
    w(t) = (t - t0)/(1 - t0*t), which fixes the endpoints, maps t0 to 0 and
    is strictly increasing on the interval.
    """

    t0: float

    def __post_init__(self):
        if not -1.0 < self.t0 < 1.0:
            raise ValidationFailure(f"bias point must lie in (-1, 1), got {self.t0}")

    def _w(self, t: float) -> float:
        return (t - self.t0) / (1.0 - self.t0 * t)

    def _core(self, t, x):
        return _cubic(self._w(t))

    def _core_d(self, t, x):
        w = self._w(t)
        dw = (1.0 - self.t0 * self.t0) / (1.0 - self.t0 * t) ** 2
        return _cubic_d(w) * dw

    def level_set(self, r, x=()):
        # the inverse of _w: w(t) is one of the cubic's level set
        return [(w + self.t0) / (1.0 + self.t0 * w) for w in _cubic_level_set(r)]


@dataclass
class Custom(TransitionFunction):
    """Transition given by an expression in (x_1, ..., x_{n-1}, t).

    The expression is only evaluated for t in [-1, 1]: outside the band
    the base class holds the value at -1/+1, and the boundary values are
    checked at construction.  The t-derivative is the symbolic derivative
    inside the band and 0 outside.
    """

    expression: ex.Expr
    x_names: tuple[str, ...] = ()

    def __post_init__(self):
        if isinstance(self.expression, str):
            self.expression = ex.parse(self.expression)
        if "t" in self.x_names:
            raise ValidationFailure("custom transition: coordinate 't' clashes with the variable t")
        extra = ex.free_vars(self.expression) - set(self.x_names) - {"t"}
        if extra:
            raise ValidationFailure(
                f"custom transition uses unknown variables {sorted(extra)}"
            )
        # a psi that uses no tangential coordinate is sampled once
        self._x_free = not ex.free_vars(self.expression) & set(self.x_names)
        self._breaks: tuple[list[float], list[float]] | None = None
        for x in itertools.product(_VALIDATION_X, repeat=len(self.x_names)):
            for t in _VALIDATION_T:
                want = -1.0 if t < 0 else 1.0
                got = self.value(t, x)
                if abs(got - want) > 1e-12:
                    raise ValidationFailure(
                        f"boundary value violated: psi({t}) = {got} at x = {x}, expected {want}"
                    )

    def level_set(self, r, x=()):
        """Bisection on the pieces where psi is monotone, between the breaks
        monotone_breaks puts on a grid of GRID_CELLS cells (the symbolic psi'
        locates the turns).  A break where |psi - r| <= ZERO_TOL is a preimage."""
        xs = tuple(x[:len(self.x_names)])
        psi = lambda t: self._core(t, xs)  # every t here lies in the band
        if self._breaks is not None:
            breaks, psis = self._breaks
        else:
            breaks, psis = monotone_breaks(
                psi, lambda t: self._core_d(t, xs),
                np.linspace(-1.0, 1.0, GRID_CELLS + 1).tolist())
            if self._x_free:
                self._breaks = breaks, psis
        return monotone_zeros(lambda t: psi(t) - r, breaks, np.subtract(psis, r), ZERO_TOL)

    # psi and its derivatives are compiled on first use, in (t, x_1, ...);
    # x beyond x_names is ignored
    @cached_property
    def _psi(self):
        return ex.compile((self.expression,), ("t",) + self.x_names)

    @cached_property
    def _dpsi_dt(self):
        return ex.compile((ex.differentiate(self.expression, "t"),), ("t",) + self.x_names)

    @cached_property
    def _dpsi_dx(self):
        # only the stiff integrator needs it
        return ex.compile([ex.differentiate(self.expression, name) for name in self.x_names],
                          ("t",) + self.x_names)

    def _core(self, t, x):
        return self._psi(t, *x[:len(self.x_names)])[0]

    def _core_d(self, t, x):
        return self._dpsi_dt(t, *x[:len(self.x_names)])[0]

    def deriv_x(self, t, x=()):
        if not -1.0 < t < 1.0:  # psi is constant outside the band
            return [0.0] * len(x)
        grad = list(self._dpsi_dx(t, *x[:len(self.x_names)]))
        return grad + [0.0] * (len(x) - len(grad))


def make_transition(kind: str, x_names: Sequence[str] = (), /, **params) -> TransitionFunction:
    """Build and validate a transition function.

    Kinds: ``smoothstep``; ``overshoot`` with ``m`` > 1; ``biased`` with
    ``t0`` in (-1, 1); ``custom`` with ``expr`` (text or tree), which may
    use the tangential coordinates ``x_names``.  Missing and unexpected
    parameters raise ValidationFailure.
    """
    kind = kind.lower()

    def take(name: str):
        if name not in params:
            raise ValidationFailure(f"{kind} transition needs {name!r}")
        return params.pop(name)

    if kind == "smoothstep":
        tf: TransitionFunction = Smoothstep()
    elif kind == "overshoot":
        tf = Overshoot(m=float(take("m")))
    elif kind == "biased":
        tf = Biased(t0=float(take("t0")))
    elif kind == "custom":
        tf = Custom(expression=take("expr"), x_names=tuple(x_names))
    else:
        raise ValidationFailure(f"unknown transition kind {kind!r}")
    if params:
        raise ValidationFailure(f"unexpected parameters for {kind}: {sorted(params)}")
    return tf


# ---------------------------------------------------------------------------
# regularized field

def _mix(psi: float, plus: Sequence[float], minus: Sequence[float]) -> list[float]:
    """(1 + psi)/2 * plus + (1 - psi)/2 * minus, componentwise on floats: the
    one formula of the psi-blend, for the fields and for their Jacobian rows."""
    wp, wm = 0.5 * (1.0 + psi), 0.5 * (1.0 - psi)
    return [wp * p + wm * m for p, m in zip(plus, minus)]


def blend(system: PiecewiseSystem, psi: float, point: Sequence[float]) -> list[float]:
    """(1 + psi)/2 * X_plus + (1 - psi)/2 * X_minus at a full chart point of
    floats (unchecked), as a list."""
    return _mix(psi, system.plus.values(point), system.minus.values(point))


def regularized_field(
    system: PiecewiseSystem,
    transition: TransitionFunction,
    eps: float,
    point: Sequence[float],
) -> list[float]:
    """The blended field at a full chart point (x..., y) of floats, as a list.

    It takes and returns what integrate's right-hand side does.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return blend(system, transition.value(point[-1] / eps, point[:-1]), point)


def regularized_jacobian(
    system: PiecewiseSystem,
    transition: TransitionFunction,
    eps: float,
    point: Sequence[float],
) -> list[list[float]]:
    """The Jacobian of regularized_field at a full chart point (x..., y) of
    floats, as a list of rows.

    The psi-blend of the two field Jacobians plus (X_plus - X_minus)/2 times
    the gradient of psi(x, y/eps): psi'(y/eps)/eps in the y column and, for a
    custom psi that uses x, d(psi)/dx in the x columns.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    t, xs = point[-1] / eps, point[:-1]
    psi = transition.value(t, xs)
    plus, minus = system.plus, system.minus
    rows = [_mix(psi, rp, rm)
            for rp, rm in zip(plus.jacobian_rows(point), minus.jacobian_rows(point))]
    grad = transition.deriv_x(t, xs) + [transition.deriv_t(t, xs) / eps]
    if not any(grad):  # outside the band
        return rows
    half_jump = [0.5 * (p - m) for p, m in zip(plus.values(point), minus.values(point))]
    return [[v + d * g for v, g in zip(row, grad)] for row, d in zip(rows, half_jump)]


# ---------------------------------------------------------------------------
# height function and certificates

def height(
    system: PiecewiseSystem,
    transition: TransitionFunction,
    x: Sequence[float] | float,
    t: float,
) -> tuple[float, float]:
    """(h, dh/dt) at surface point x and stretched coordinate t."""
    xs = system.tangential(x)
    a_plus, a_minus = system._normal_traces(*xs)
    diff = a_plus - a_minus
    return transition.value(t, xs) * diff + (a_plus + a_minus), transition.deriv_t(t, xs) * diff


@dataclass(frozen=True)
class HeightRoot:
    t: float
    dh_dt: float  # psi'(t) * (a_plus - a_minus)
    dpsi_dt: float  # psi'(t): the root is transversal when |psi'| > TRANSVERSALITY_TOL


@dataclass(frozen=True)
class DegenerateInterval:
    """h vanished identically between t_lo and t_hi (a_plus = a_minus = 0)."""

    t_lo: float
    t_hi: float


def height_roots(
    system: PiecewiseSystem,
    transition: TransitionFunction,
    x: Sequence[float] | float,
) -> list[HeightRoot | DegenerateInterval]:
    """Zeros of h(x, .) on [-1, 1].

    Where a_plus != a_minus they are the level set psi(x, .) = r with
    r = -(a_plus + a_minus)/(a_plus - a_minus) = 2*lam - 1.  Where
    a_plus = a_minus, h is the constant 2*a_plus: no zero, or a
    DegenerateInterval over the band if it is 0.
    """
    xs = system.tangential(x)
    a_plus, a_minus = system._normal_traces(*xs)
    if not (math.isfinite(a_plus) and math.isfinite(a_minus)):
        raise ex.DomainError(f"normal components {a_plus}, {a_minus} at x = {xs} are not finite")
    diff, tot = a_plus - a_minus, a_plus + a_minus
    if diff == 0.0:
        return [] if tot else [DegenerateInterval(-1.0, 1.0)]
    out: list[HeightRoot | DegenerateInterval] = []
    for t in transition.level_set(-tot / diff, xs):
        slope = transition.deriv_t(t, xs)
        out.append(HeightRoot(t, slope * diff, slope))
    return out


def most_transversal(found: Sequence[HeightRoot | DegenerateInterval]) -> HeightRoot | None:
    """The transversal root of ``found`` with the largest |psi'|, if any."""
    transversal = [
        r for r in found if isinstance(r, HeightRoot) and abs(r.dpsi_dt) > TRANSVERSALITY_TOL
    ]
    return max(transversal, key=lambda r: abs(r.dpsi_dt), default=None)


class Verdict(enum.Enum):
    SLIDING_CERTIFIED = "SlidingCertified"
    SEWING_CERTIFIED = "SewingCertified"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class SlidingCertificate:
    """Outcome of the height-function test at one surface point.

    ``witness`` is the most transversal root when sliding is certified.
    Indeterminate is a first-class outcome: tangential roots or a
    degenerate interval land here and are never coerced into a verdict.
    """

    verdict: Verdict
    roots: tuple[HeightRoot, ...]
    degenerate: tuple[DegenerateInterval, ...]
    witness: HeightRoot | None


def certify(
    system: PiecewiseSystem,
    transition: TransitionFunction,
    x: Sequence[float] | float,
) -> SlidingCertificate:
    """The height-function test at x.

    SlidingCertified when h(x, .) has a transversal zero in the band,
    SewingCertified when it has no zero there, Indeterminate otherwise.
    """
    found = height_roots(system, transition, x)
    roots = tuple(r for r in found if isinstance(r, HeightRoot))
    degenerate = tuple(r for r in found if isinstance(r, DegenerateInterval))
    witness = most_transversal(found)
    if witness is not None:
        verdict = Verdict.SLIDING_CERTIFIED
    elif not found:
        verdict = Verdict.SEWING_CERTIFIED
    else:
        verdict = Verdict.INDETERMINATE
    return SlidingCertificate(verdict, roots, degenerate, witness)
