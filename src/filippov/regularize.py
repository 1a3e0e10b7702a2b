"""Transition-type regularization and sliding/sewing certificates.

A transition function psi(x, t) equals -1 for t <= -1 and +1 for t >= 1.
Feeding it t = y/eps blends the two halves of a piecewise system into one
smooth field

    X_eps = (1 + psi)/2 * X_plus + (1 - psi)/2 * X_minus,

which agrees with X_plus above the band |y| < eps and with X_minus below it.
It and its Jacobian are generated per system, transition and eps as one
straight-line function each, which inlines psi's trees, both fields, their
partials and the blend (see regularized).

Whether the band traps orbits is decided by the height function

    h(x, t) = psi(x, t) * (a_plus - a_minus) + (a_plus + a_minus),

with a_pm the normal field components frozen on the surface.  Where
a_plus != a_minus, h vanishes exactly where psi(x, t) = r with

    r = -(a_plus + a_minus)/(a_plus - a_minus) = 2*lam - 1,

lam being the Filippov weight; on the surface the blend at psi = r is the
sliding field a slide steps, and both read r from system._sliding_level.
So the zeros of h are a level set of psi, which each kind's level_set
returns: in closed form for smoothstep and biased, else by monotone_zeros,
one zeroin (Brent's method) per monotone piece: overshoot's two branches,
or for a custom psi the pieces that interval enclosures of psi' and psi''
prove monotone on cells of the band, each halved at most MAX_CELL_DEPTH
times, MAX_CELLS cells at most, over a dyadic box of x proven once for all
its points, else over x's point box, the one box that keeps unproven cells
(see Custom).  A custom psi's call also returns the unproven pieces where
psi may take r, which it does not search: the whole band where psi or psi'
reads NaN at x.  A preimage within ZERO_TOL lies only at a custom psi's
break.  One where psi' != 0 certifies a sliding band, no preimage
certifies sewing, and everything else (tangential preimages, h = 0
identically, an unproven piece) is indeterminate.

zeroin is the one search for a bracketed sign change: psi - r, psi' at a
turn, g and its slope in dynamics.equilibria_on_manifold, the hybrid event
times (dynamics) and a margin at a verdict boundary (cli), which it runs to
the last float and, reading only ratios of values, keeps in place under a
positive rescaling of the fields, up to the rounding of the rescaled values.
"""

from __future__ import annotations

import enum
import itertools
import math
from functools import cache, cached_property, reduce
from typing import Callable, Container, NamedTuple, Sequence

from . import expr as ex
from . import system as system_module
from .interval import sign
from .system import PiecewiseSystem

TRANSVERSALITY_TOL = 1e-8  # a root with |psi'| above this is transversal
ZERO_TOL = 1e-10  # |psi - r| at or below this is a preimage at a custom psi's break
MAX_CELL_DEPTH = 20  # halvings of [-1, 1] after which a cell of a custom psi is unproven
MAX_CELLS = 256  # cells a custom psi's pieces test per box; the rest of the band is unproven
BOX_WIDTH = 2.0  # of a custom psi's depth-0 x-boxes; a power of 2, so that x // w and k*w are exact
MAX_BOX_DEPTH = 4  # halvings of an x-box, past which a custom psi's point is proven alone
ROOT_BISECTION_TOL = 1e-14  # bracket width at which zeroin stops for breaks and zeros

_VALIDATION_X = (-1.0, -0.37, 0.0, 0.58, 1.0)


class ValidationFailure(Exception):
    """A transition function violates one of its defining constraints."""


_tree = cache(ex.parse)  # the trees the built-in kinds are spelled with
_CUBIC = "(3*t - t^3)/2", "(3 - 3*t*t)/2"  # smoothstep's psi and psi'; the other kinds build on it


def _cubic_level_set(r: float) -> list[float]:
    """The t in [-1, 1] with (3t - t^3)/2 = r: one for r in [-1, 1], else none.

    With t = 2 sin(a) the cubic is 3 sin(a) - 4 sin(a)^3 = sin(3a).  The
    band edges are returned as they are: the formula misses 1 by an ulp.
    """
    if not -1.0 <= r <= 1.0:
        return []
    return [r if abs(r) == 1.0 else 2.0 * math.sin(math.asin(r) / 3.0)]


def linspace(a: float, b: float, n: int) -> list[float]:
    """n >= 2 floats from a to b, bit for bit numpy.linspace(a, b, n).tolist():
    i*step + a with step = (b - a)/(n - 1), or i/(n - 1)*(b - a) + a if step is 0."""
    span, div = b - a, n - 1
    step = span / div
    out = [i * step + a for i in range(n)] if step else [i / div * span + a for i in range(n)]
    return out[:-1] + [b]


def zeroin(
    f: Callable[[float], float], a: float, b: float, tol: float,
    fa: float | None = None, fb: float | None = None,
) -> float:
    """A zero of f between a < b, to within tol, by Brent's zeroin (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4).

    f(a) and f(b), or ``fa`` and ``fb`` if the caller has them, must be
    nonzero, not NaN and of opposite signs.  The bracket's end b is the
    one where |f| is least, c the other.  Each step is the secant or the
    inverse quadratic through b and the last one or two probes, written in
    ratios of f's values; it bisects instead where that point lies beyond
    three quarters of the way to c or the step is not under half the step
    before last.  So it is superlinear where f is smooth, and at worst
    takes about the square of bisection's count of probes.  Signs are
    compared, never multiplied.  The search stops early at an exact zero or
    a NaN value, and when no float lies strictly between b and c, which
    ends it for any tol below the float spacing: tol 0 runs it to the last
    float.  The result lies strictly inside (a, b), but for a bracket with
    no float inside.
    """
    lo, hi, half_tol = a, b, 0.5 * tol
    fa = f(a) if fa is None else fa
    fb = f(b) if fb is None else fb
    c, fc, d = a, fa, b - a  # c: the other end of the bracket; d: the last step
    e = d  # the step before it
    while True:
        if abs(fc) < abs(fb):  # b takes the end with the least |f|, a its last value
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        half = 0.5 * (c - b)
        if abs(half) <= half_tol:
            break
        if abs(e) >= half_tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # two points: the secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # three: inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0.0 else (-p, q)
            if 2.0 * p < 3.0 * half * q - abs(half_tol * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                e = d = half
        else:
            e = d = half
        a, fa = b, fb
        b += d if abs(d) > half_tol else half_tol if half > 0.0 else -half_tol
        if not min(a, c) < b < max(a, c):  # the step rounded onto an end: one float on
            b = math.nextafter(a, c)
            if b == c:  # no float between them
                b = a
                break
        fb = f(b)
        if not (fb < 0.0 or fb > 0.0):  # 0 or NaN
            return b
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            e = d = b - a
    if lo < b < hi:
        return b
    return c if lo < c < hi else 0.5 * (lo + hi)  # c: a probe, unless there was none


def monotone_breaks(
    f: Callable[[float], float], slope: Callable[[float], float], ts: Sequence[float]
) -> tuple[list[float], list[float]]:
    """Breaks between which f is taken to be monotone, and f at them.

    These are the ends of the samples ts and each sample where the sampled
    values of f stop strictly rising or falling: a turn, which moves onto
    the critical point that zeroin finds on ``slope`` in its two cells, a
    flat, or a NaN.  Only turns closer together than a cell are missed.
    """
    values = [f(t) for t in ts]
    breaks, out = [ts[0]], [values[0]]
    for k in range(1, len(ts) - 1):
        rises = sign(values[k] - values[k - 1]) * sign(values[k + 1] - values[k])
        if rises > 0.0:
            continue
        t, v = ts[k], values[k]
        if rises < 0.0:
            da = slope(ts[k - 1])
            db = slope(ts[k + 1])
            if sign(da) * sign(db) < 0.0:
                t = zeroin(slope, ts[k - 1], ts[k + 1], ROOT_BISECTION_TOL, fa=da, fb=db)
                v = f(t)
        breaks.append(t)
        out.append(v)
    return breaks + [ts[-1]], out + [values[-1]]


def monotone_zeros(
    f: Callable[[float], float], breaks: Sequence[float], values: Sequence[float], tol: float,
    skip: Container[int] = (),
) -> list[float]:
    """The sorted zeros of f on [breaks[0], breaks[-1]].

    f is monotone between consecutive breaks, and values[k] = f(breaks[k]).
    A break whose value is within tol of 0 is a zero; a piece whose two ends
    lie beyond tol with opposite signs holds one zero, which zeroin finds
    from the values at both ends.  A NaN value is no zero, and a piece with
    a NaN end holds none, nor does the piece from breaks[k] for each k in
    ``skip``.
    """
    out = []
    for k, (v, w) in enumerate(zip(values, [*values[1:], math.nan])):  # w: NaN past the end
        if abs(v) <= tol:
            out.append(breaks[k])
        elif abs(w) > tol and sign(v) * sign(w) < 0.0 and k not in skip:
            out.append(zeroin(f, breaks[k], breaks[k + 1], ROOT_BISECTION_TOL, fa=v, fb=w))
    return out


class TransitionFunction:
    """Base class.  A kind spells psi and psi' = d(psi)/dt on the band as
    the trees ``expression`` and ``derivative`` in t and ``x_names``, which
    the base class compiles with x bound by position (and any x beyond
    x_names ignored) and holds at -1/+1 and 0 outside the band.  Each
    kind's level_set says where psi takes a level, unproven cells included."""

    x_names: tuple[str, ...] = ()
    _regularized = None, None, None  # (system, eps, (field, jacobian)) of regularized()

    @cached_property
    def gradient(self) -> tuple[ex.Expr, ...]:
        """The trees of d(psi)/dx_j on the band, one for each of x_names."""
        return tuple(ex.differentiate(self.expression, name) for name in self.x_names)

    @cached_property
    def _psi(self):
        return self._compiled([self.expression], "{}")

    @cached_property
    def _dpsi_dt(self):
        return self._compiled([self.derivative], "{}")

    @cached_property
    def _dpsi_dx(self):
        return self._compiled(self.gradient, "[{}]")

    def _compiled(self, trees, returned: str, bounds: bool = False):
        """The trees as a function of a float t and x=() (x binding x_names by
        position) that returns their values in the format ``returned``; with
        ``bounds``, of the ends lo, hi of a t-cell and x=() of (lo, hi) pairs,
        an x-box, returning the bounds lo, hi of each tree over the cell times
        the box (expr.Emitter.enclose)."""
        emitter, n = ex.Emitter(self.x_names), len(self.x_names)
        if bounds:
            params = ["lo", "hi", "x=()"]
            boxes = {name: (f"{slot}l", f"{slot}h") for name, slot in emitter.slots.items()}
            pairs = "".join(f"({lo}, {hi}), " for lo, hi in boxes.values())
            head = [f"{pairs}= x[:{n}]"] if n else []
            values = [*itertools.chain(*emitter.enclose(trees, {"t": ("lo", "hi"), **boxes}))]
        else:
            head = emitter.unpack(f"x[:{n}]") if n else []
            params, values = ["t", "x=()"], emitter.emit(trees, {"t": "t", **emitter.slots})
        return emitter.function(params, [*head, *emitter.body,
                                         f"return {returned.format(', '.join(values))}"])

    def value(self, t: float, x: Sequence[float] = ()) -> float:
        if t < -1.0:
            return -1.0
        if t > 1.0:
            return 1.0
        return self._psi(float(t), x)  # psi reaches -1/+1 at the band edge

    def deriv_t(self, t: float, x: Sequence[float] = ()) -> float:
        if t <= -1.0 or t >= 1.0:
            return 0.0
        return self._dpsi_dt(float(t), x)

    def deriv_x(self, t: float, x: Sequence[float] = ()) -> list[float]:
        """The gradient of psi in the surface coordinates x."""
        if t <= -1.0 or t >= 1.0:  # psi is constant outside the band, as for deriv_t
            return [0.0] * len(x)
        grad = self._dpsi_dx(float(t), x)
        return grad + [0.0] * (len(x) - len(grad))

    def level_set(self, r: float, x: Sequence[float] = ()) -> tuple[list[float],
                                                                    list[tuple[float, float]]]:
        """The sorted t in [-1, 1] with psi(x, t) = r, and the cells
        (t_lo, t_hi): the unproven pieces where psi may take r, in which none
        is sought.  Each kind gives its own."""
        raise NotImplementedError

    def range_ends(self, x: Sequence[float] = ()) -> tuple[float, float]:
        """The least and greatest level psi(x, .) may take on the band, the
        hull level_set tests r against: -1 and 1 for a monotone psi."""
        return -1.0, 1.0


class Smoothstep(TransitionFunction):
    """Clamped cubic (3t - t^3)/2; odd, strictly increasing, zero at 0."""

    def __init__(self):
        self.expression, self.derivative = map(_tree, _CUBIC)

    def level_set(self, r, x=()):
        return _cubic_level_set(r), []


class Overshoot(TransitionFunction):
    """Cubic plus a calibrated bump c*(1-t^2)^2 whose interior max is ``m``.

    The bump keeps the boundary values and C1 matching intact.  The slope
    (1-t^2)(3/2 - 4ct) vanishes inside the band only at u = 3/(8c), so the
    peak equals m exactly when u is the root in (0, 1) of
    u^4 - 6u^2 + 8mu - 3 = 0; c comes from that root in closed form
    (Ferrari's resolvent).  Not monotone: that is the point.  psi rises
    from -1 to m on [-1, u] and falls from m to 1 on [u, 1].
    """

    def __init__(self, m: float):
        if not m > 1.0:
            raise ValidationFailure(f"overshoot max must exceed 1, got {m}")
        self.m = m
        self.c = 3.0 / (8.0 * _overshoot_peak(m))
        self.u = 3.0 / (8.0 * self.c)  # the peak, the only interior critical point
        cubic, slope = map(_tree, _CUBIC)
        bump, bump_slope = (ex.substitute(_tree(text), {"c": self.c, "s": _tree("1 - t*t")})
                            for text in ("c*s*s", "4*c*t*s"))
        self.expression, self.derivative = ex.add(cubic, bump), ex.sub(slope, bump_slope)
        # relative: one ulp of m exceeds any absolute bound once m is large;
        # written with `not` so that it also rejects the NaN peak the closed
        # form gives once (m - 1)(m + 1) overflows (m near 1.3e154)
        peak = self.value(self.u)
        if not abs(peak - self.m) <= 1e-12 * self.m:
            raise ValidationFailure(f"interior max {peak} differs from target {self.m}")

    def level_set(self, r, x=()):
        # psi is monotone on [-1, u] and on [u, 1], with exact values at the breaks
        return monotone_zeros(lambda t: self._psi(t, x) - r, (-1.0, self.u, 1.0),
                              (-1.0 - r, self.m - r, 1.0 - r), 0.0), []

    def range_ends(self, x=()):
        return -1.0, self.m


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


class Biased(TransitionFunction):
    """Monotone transition whose unique zero sits at t0 in (-1, 1).

    Composes the cubic with the Moebius reparametrization
    w(t) = (t - t0)/(1 - t0*t), which fixes the endpoints, maps t0 to 0 and
    is strictly increasing on the interval; psi' is the cubic's slope at w
    times w'(t) = (1 - t0^2)/(1 - t0*t)^2.
    """

    def __init__(self, t0: float):
        if not -1.0 < t0 < 1.0:
            raise ValidationFailure(f"bias point must lie in (-1, 1), got {t0}")
        self.t0 = t0
        w, dw = (ex.substitute(_tree(text), {"t0": t0})
                 for text in ("(t - t0)/(1 - t0*t)", "(1 - t0*t0)/(1 - t0*t)^2"))
        cubic, slope = (ex.substitute(_tree(text), {"t": w}) for text in _CUBIC)
        self.expression, self.derivative = cubic, ex.mul(slope, dw)

    def level_set(self, r, x=()):
        # the inverse of w: w(t) is one of the cubic's level set
        return [(w + self.t0) / (1.0 + self.t0 * w) for w in _cubic_level_set(r)], []


class Custom(TransitionFunction):
    """Transition given by an expression in (x_1, ..., x_{n-1}, t), whose
    boundary values psi(-1) = -1 and psi(1) = 1 are checked at construction;
    psi' is its symbolic t-derivative.

    Its pieces are proven monotone by interval enclosures of psi' and psi''
    (expr.Emitter.enclose) over cells of the band times a box of x, from
    [-1, 1] on.  A cell where psi' >= 0 or psi' <= 0 throughout is
    monotone: non-strict, as a C1 psi has psi' = 0 at the band ends.  A cell
    where psi'' excludes 0 holds one turn at most at each x of the box,
    where psi'(x, .) changes sign between the cell's ends, which zeroin
    finds on psi'.  Both tests read the trees' derivatives, in which sgn's
    is 0, so a jump of psi or psi' at a zero of a sgn argument (abs
    differentiates to sgn) is kept out by a guard (_guarded).  Any other
    cell is halved, and one left after MAX_CELL_DEPTH halvings is unproven,
    as is the rest of the band once MAX_CELLS cells of the box are tested.
    x takes the cells of the shallowest dyadic box about it that holds
    (_box_cells), proven once for all its points, and else those of its own
    point box: a dyadic box (lo < hi) fails at its first unproven cell, a
    point box keeps them.  Adjacent cells of one direction merge at x, and
    adjacent unproven ones, so the breaks are the band ends, the turns and
    the ends of unproven pieces.  Where psi(x, .) is NaN at a break or
    psi'(x, .) at an end of a turn cell, the band is one unproven piece at
    x, whatever the box.  The pieces of a psi that uses no x are found once.
    """

    def __init__(self, expression: ex.Expr | str, x_names: tuple[str, ...] = ()):
        self.expression = ex.parse(expression) if isinstance(expression, str) else expression
        self.x_names = x_names
        self.derivative = ex.differentiate(self.expression, "t")
        if "t" in self.x_names:
            raise ValidationFailure("custom transition: coordinate 't' clashes with the variable t")
        names = ex.free_vars(self.expression)
        extra = names - set(self.x_names) - {"t"}
        if extra:
            raise ValidationFailure(f"custom transition uses unknown variables {sorted(extra)}")
        self._x_free = not names & set(self.x_names)
        self._boxes: dict[tuple, list | None] = {}  # by _box_cells' key
        for x in itertools.product(_VALIDATION_X, repeat=len(self.x_names)):
            for t in (-1.0, 1.0):  # value holds these beyond the band
                try:
                    got = self.value(t, x)
                except ex.DomainError as exc:
                    raise ValidationFailure(f"psi({t}) undefined at x = {x}: {exc}") from exc
                if not abs(got - t) <= 1e-12:  # a NaN psi fails too
                    raise ValidationFailure(
                        f"boundary value violated: psi({t}) = {got} at x = {x}, expected {t}"
                    )

    @cached_property
    def _slope_bounds(self):
        # psi' jumps where psi does and psi'' where psi' does, which their
        # trees miss, as sgn differentiates to 0: guards keep both tests off
        # a cell that may hold such a jump
        curvature = ex.differentiate(self.derivative, "t")
        return self._compiled([_guarded(self.derivative, self.expression),
                               _guarded(curvature, self.expression, self.derivative)], "{}",
                              bounds=True)

    @cached_property
    def _psi_bounds(self):
        return self._compiled([self.expression], "{}", bounds=True)

    def _cells(self, box):
        """The t-cells of [-1, 1] over ``box``, a (lo, hi) pair per
        coordinate, in order, as (lo, hi, way): way is the sign of psi' on a
        monotone cell (0 if flat), _TURN where psi' is monotone, or None on
        an unproven cell.  A dyadic box (lo < hi) fails at its first
        unproven cell, with the result None; a point box (not lo < hi, so
        also at a NaN or infinite x) keeps them, adjacent ones merged, and
        the band past MAX_CELLS is one of them."""
        point = not any(lo < hi for lo, hi in box)
        out, cells, budget = [], [(-1.0, 1.0, MAX_CELL_DEPTH)], MAX_CELLS
        while cells:
            lo, hi, left = cells.pop()  # a stack, leftmost last, with halvings left
            if not budget:
                way, hi, left = None, 1.0, 0
                cells.clear()
            else:
                budget -= 1
                d1_lo, d1_hi, d2_lo, d2_hi = self._slope_bounds(lo, hi, box)
                if d1_lo >= 0.0 or d1_hi <= 0.0:
                    way = sign(d1_hi) if d1_lo >= 0.0 else sign(d1_lo)
                else:
                    way = _TURN if d2_lo > 0.0 or d2_hi < 0.0 else None
            if way is None and left:
                mid = 0.5 * (lo + hi)
                cells += [(mid, hi, left - 1), (lo, mid, left - 1)]
            elif way is None and not point:
                return None
            elif way is None and out and out[-1][2] is None:  # extend that cell
                out[-1] = out[-1][0], hi, None
            else:
                out.append((lo, hi, way))
        return out

    def _box_cells(self, x):
        """The cells of the shallowest dyadic x-box about x that holds, or
        None.  At depth 0 to MAX_BOX_DEPTH, with w = BOX_WIDTH/2^depth, the
        box is the product of the [k*w, (k + 1)*w] with k = x_i // w, which
        is proven once and kept by (depth, k...), failed or not, so the
        cells depend on x alone.  The search ends at a box that leaves x
        out: k is NaN at a NaN or infinite x_i, and inf where x_i/w
        overflows."""
        xs = x[:len(self.x_names)]
        for depth in range(MAX_BOX_DEPTH + 1):
            w = math.ldexp(BOX_WIDTH, -depth)
            key = depth, *(v // w for v in xs)
            box = [(k * w, k * w + w) for k in key[1:]]
            if not all(lo <= v <= hi for v, (lo, hi) in zip(xs, box)):
                return None
            if key not in self._boxes:
                self._boxes[key] = self._cells(box)
            if self._boxes[key] is not None:
                return self._boxes[key]
        return None

    def level_set(self, r, x=()):
        """By monotone_zeros on _pieces(x), a break within ZERO_TOL of r a zero."""
        breaks, values, unproven = self._pieces(x)
        psi = self._psi
        zeros = monotone_zeros(lambda t: psi(t, x) - r, breaks, [v - r for v in values],
                               ZERO_TOL, unproven)
        return zeros, [(breaks[k], breaks[k + 1]) for k, (lo, hi) in unproven.items()
                       if not (lo > r or hi < r)]  # NaN bounds hold r too

    def range_ends(self, x=()):
        # over the break values and unproven-piece bounds; a NaN one rules out no level
        _, values, unproven = self._pieces(x)
        levels = [*values, *itertools.chain(*unproven.values())]
        return (math.nan,) * 2 if any(map(math.isnan, levels)) else (min(levels), max(levels))

    def _pieces(self, x):
        """Breaks from -1 to 1, psi at them, and the unproven pieces: psi(x, .)
        is monotone between consecutive breaks, but for the piece from
        breaks[k] for each key k, whose value is bounds of psi on it."""
        if self._x_free:
            return self._x_free_pieces
        return self._assembled(self._box_cells(x), x)

    @cached_property
    def _x_free_pieces(self):  # psi uses no x, so its pieces at any x serve every x
        return self._assembled(None, (0.0,) * len(self.x_names))

    def _assembled(self, cells, x):
        """The pieces of psi(x, .) on ``cells`` of a box that holds x, or on
        those of x's point box if cells is None, with bounds of psi over the
        point box on each unproven piece.  The turns are where zeroin finds
        psi' change sign in a turn cell; adjacent cells of one direction
        merge.  The NaN rule (see Custom) makes the band one piece."""
        box = [(v, v) for v in map(float, x[:len(self.x_names)])]
        psi, dpsi = self._psi, self._dpsi_dt
        breaks, values, unproven = [-1.0], [psi(-1.0, x)], {}
        way = 0  # the sign of psi' on the piece open at breaks[-1], 0 while it is flat
        nan = False  # a NaN psi' at x; a NaN psi at a break counts alike

        def close(t):
            breaks.append(t)
            values.append(psi(t, x))

        for lo, hi, run in self._cells(box) if cells is None else cells:
            if run is None:
                if breaks[-1] != lo:
                    close(lo)
                close(hi)
                unproven[len(breaks) - 2] = None
                way = 0
                continue
            runs = [(hi, run)]
            if run is _TURN:
                s_lo, s_hi = dpsi(lo, x), dpsi(hi, x)
                if sign(s_lo) * sign(s_hi) < 0.0:
                    turn = zeroin(lambda t: dpsi(t, x), lo, hi, ROOT_BISECTION_TOL,
                                  fa=s_lo, fb=s_hi)
                    runs = [(turn, sign(s_lo)), (hi, sign(s_hi))]
                elif math.isnan(s_lo + s_hi):
                    nan = True
                    break
                else:
                    runs = [(hi, sign(s_lo + s_hi))]
            for end, run in runs:
                if run and way and run != way:
                    close(lo)
                way, lo = run or way, end
        if breaks[-1] != 1.0:
            close(1.0)
        if nan or any(map(math.isnan, values)):
            breaks, values, unproven = [-1.0, 1.0], [values[0], values[-1]], {0: None}
        for k in unproven:
            unproven[k] = self._psi_bounds(breaks[k], breaks[k + 1], box)
        return breaks, values, unproven


_TURN = "turn"  # the way of a t-cell on which psi' is monotone, so psi has one turn at most


def _guarded(e: ex.Expr, *sources: ex.Expr) -> ex.Expr:
    """e plus 0/u for each argument u of a sgn in ``sources`` that depends
    on t, where the sgn jumps.  Over a cell where every such u keeps one
    sign the enclosure of 0/u is 0, and elsewhere (-inf, inf)."""
    def arguments(e):
        if isinstance(e, ex.Op):
            for a in e.args:
                yield from arguments(a)
            if e.op == "sgn" and "t" in ex.free_vars(e.args[0]):
                yield e.args[0]

    jumps = dict.fromkeys(u for source in sources for u in arguments(source))
    return reduce(lambda acc, u: ex.add(acc, ex.div(ex.Const(0.0), u)), jumps, e)


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

def regularized(system: PiecewiseSystem, transition: TransitionFunction, eps: float):
    """The regularized field and its Jacobian at band width eps: generated
    functions of (time, state), state a full chart point (x..., y) of
    floats, as integrate takes them.  The transition keeps the last pair."""
    kept = transition._regularized
    if kept[0] is not system or kept[1] != eps:  # a NaN eps too
        if not eps > 0:
            raise ValueError(f"eps must be positive, got {eps}")
        kept = transition._regularized = system, eps, tuple(
            system_module._blend_function(system, jacobian, transition, eps)
            for jacobian in (False, True))
    return kept[2]


def regularized_field(
    system: PiecewiseSystem,
    transition: TransitionFunction,
    eps: float,
    point: Sequence[float],
) -> list[float]:
    """The blended field at a full chart point (x..., y) of floats, as a list.

    It takes and returns what integrate's right-hand side does.
    """
    return regularized(system, transition, eps)[0](0.0, point)


def regularized_jacobian(
    system: PiecewiseSystem,
    transition: TransitionFunction,
    eps: float,
    point: Sequence[float],
) -> list[list[float]]:
    """The Jacobian of regularized_field at a full chart point (x..., y) of
    floats, as a list of rows.

    The psi-blend of the two field Jacobians plus (X_plus - X_minus)/2 times
    the gradient of psi(x, y/eps), 0 outside the one band -1 < y/eps < 1 (a
    NaN inside) of deriv_t and deriv_x: psi'(y/eps)/eps in the y column and,
    for a custom psi that uses x, d(psi)/dx in the x columns.
    """
    return regularized(system, transition, eps)[1](0.0, point)


# ---------------------------------------------------------------------------
# height function and certificates

def certificate_margin(system: PiecewiseSystem, transition: TransitionFunction,
                       x: Sequence[float] | float) -> float:
    """Positive exactly where r lies strictly inside psi's range, the ends L
    of range_ends at x: +-min(|h_lo|, |h_hi|), + where the two differ in sign,
    h_L = (1 + L)*a_plus + (1 - L)*a_minus being h at psi = L.  Continuous,
    with no pole at a_plus = a_minus; it refuses what height_roots refuses."""
    xs, a_plus, a_minus, _ = system_module._sliding_level(system, x)
    h_lo, h_hi = ((1.0 + end) * a_plus + (1.0 - end) * a_minus for end in transition.range_ends(xs))
    small = min(abs(h_lo), abs(h_hi))
    return small if (h_lo > 0.0) != (h_hi > 0.0) else -small


def height(
    system: PiecewiseSystem,
    transition: TransitionFunction,
    x: Sequence[float] | float,
    t: float,
) -> tuple[float, float]:
    """(h, dh/dt) at surface point x and stretched coordinate t."""
    xs, a_plus, a_minus, _ = system_module._sliding_level(system, x)
    diff = a_plus - a_minus
    return transition.value(t, xs) * diff + (a_plus + a_minus), transition.deriv_t(t, xs) * diff


class HeightRoot(NamedTuple):
    t: float
    dh_dt: float  # psi'(t) * (a_plus - a_minus)
    dpsi_dt: float  # psi'(t): the root is transversal when |psi'| > TRANSVERSALITY_TOL


class DegenerateInterval(NamedTuple):
    """h vanished identically between t_lo and t_hi (a_plus = a_minus = 0)."""

    t_lo: float
    t_hi: float


class UnresolvedInterval(NamedTuple):
    """psi is not proven monotone between t_lo and t_hi and may take the
    level there, so h may vanish in it (see Custom)."""

    t_lo: float
    t_hi: float


Found = HeightRoot | DegenerateInterval | UnresolvedInterval


def height_roots(
    system: PiecewiseSystem,
    transition: TransitionFunction,
    x: Sequence[float] | float,
) -> list[Found]:
    """Zeros of h(x, .) on [-1, 1].

    Where a_plus != a_minus they are the level set psi(x, .) = r, r the
    level of system._sliding_level, which a slide steps the blend at,
    followed by an UnresolvedInterval for each cell where psi is not proven
    monotone and may take the level.  Where a_plus = a_minus, h is the
    constant 2*a_plus: no zero, or a DegenerateInterval over the band if it
    is 0.  A point whose x or a_pm are not finite raises DomainError
    (system._sliding_level).
    """
    xs, a_plus, a_minus, r = system_module._sliding_level(system, x)
    if r is None:
        return [DegenerateInterval(-1.0, 1.0)] if a_plus == 0.0 else []
    diff = a_plus - a_minus
    zeros, cells = transition.level_set(r, xs)
    out: list[Found] = []
    for t in zeros:
        slope = transition.deriv_t(t, xs)
        out.append(HeightRoot(t, slope * diff, slope))
    return out + [UnresolvedInterval(*cell) for cell in cells] if cells else out


def most_transversal(found: Sequence[Found]) -> HeightRoot | None:
    """The transversal root of ``found`` with the largest |psi'|, if any
    (the first of equals)."""
    best, most = None, TRANSVERSALITY_TOL
    for r in found:
        if isinstance(r, HeightRoot) and abs(r.dpsi_dt) > most:
            best, most = r, abs(r.dpsi_dt)
    return best


class Verdict(enum.Enum):
    SLIDING_CERTIFIED = "SlidingCertified"
    SEWING_CERTIFIED = "SewingCertified"
    INDETERMINATE = "Indeterminate"


class SlidingCertificate(NamedTuple):
    """Outcome of the height-function test at one surface point.

    ``witness`` is the most transversal root when sliding is certified.
    Indeterminate is a first-class outcome: tangential roots, a degenerate
    interval or an unresolved one land here and are never coerced into a
    verdict.
    """

    verdict: Verdict
    roots: tuple[HeightRoot, ...]
    degenerate: tuple[DegenerateInterval, ...]
    witness: HeightRoot | None
    unresolved: tuple[UnresolvedInterval, ...] = ()


def certify(
    system: PiecewiseSystem,
    transition: TransitionFunction,
    x: Sequence[float] | float,
) -> SlidingCertificate:
    """The height-function test at x.

    SlidingCertified when h(x, .) has a transversal zero in the band,
    SewingCertified when it has no zero there and no unresolved interval,
    Indeterminate otherwise.
    """
    found = height_roots(system, transition, x)
    roots = tuple([r for r in found if isinstance(r, HeightRoot)])
    rest = tuple(found[len(roots):])  # the unresolved cells, or one degenerate interval
    degenerate = rest if rest and isinstance(rest[0], DegenerateInterval) else ()
    unresolved = () if degenerate else rest
    witness = most_transversal(roots)
    if witness is not None:
        verdict = Verdict.SLIDING_CERTIFIED
    elif not found:
        verdict = Verdict.SEWING_CERTIFIED
    else:
        verdict = Verdict.INDETERMINATE
    return SlidingCertificate(verdict, roots, degenerate, witness, unresolved)
