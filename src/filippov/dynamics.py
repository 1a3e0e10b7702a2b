"""Numerical integration of smooth, regularized and hybrid dynamics.

integrate() steps an autonomous field with RODAS4, a linearly implicit
Rosenbrock pair (Hairer & Wanner, Solving ODEs II, section IV.7) that
solves one linear system per stage with the caller's exact Jacobian.  The
regularized field is stiff: inside the band its fast rate is about
psi'(a_plus - a_minus)/(2 eps), and an explicit pair's stability caps the
step near eps, so its step count grows like 1/eps.  RODAS4 is L-stable,
and its step count does not depend on eps.  The smooth segments and slides
of the hybrid integrator are not stiff, and RODAS4 steps them too: on the
benchmark's hybrid orbits it takes fewer steps and right-hand-side
evaluations than an explicit Dormand-Prince 5(4) pair.

The stage algebra runs on Python lists of floats, one code path for every
dimension: the systems are 2- or 3-dimensional, and numpy's per-call
overhead on such arrays cost more than the arithmetic.  Each attempt
factors I/(h gamma) - J once by an in-place LU with partial pivoting and
solves its six stages by forward and back substitution; a zero or
non-finite pivot rejects the step.  Trajectories are numpy arrays, built
once when the integration ends.

Node derivatives are recorded, so trajectories interpolate with cubic
Hermite polynomials between accepted steps; event location bisects on that
interpolant, evaluated on the floats of the step's two nodes.

The hybrid integrator follows one smooth field until the orbit reaches the
switching surface, classifies the hit, and either sews through, enters a
sliding segment driven by the Filippov combination, or stops on an
unresolvable singular hit.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import expr as ex
from .regularize import (
    HeightRoot,
    TransitionFunction,
    bisect_sign_change,
    blend,
    certify,
    height_roots,
    monotone_breaks,
    monotone_zeros,
    most_transversal,
)
from .system import (
    PiecewiseSystem,
    SigmaClass,
    classify_point,
    filippov_jacobian,
    filippov_tangent,
    sliding_margin,
)

ABS_TOL = 1e-9  # step control scales each error component by ABS_TOL + REL_TOL*|y|
REL_TOL = 1e-7
MIN_STEP = 1e-13
EVENT_TIME_TOL = 1e-12
MAX_EVENTS = 10_000
MAX_STEPS = 1_000_000  # step attempts, accepted or rejected, per integrate call
EQ_SAMPLES = 601  # x-grid on which equilibria_on_manifold samples g
EQ_TOL = 1e-9  # a sample or critical point of g with |g| at or below this is a zero
# |y| below this counts as sitting on the surface; crossings are only
# recognized once the orbit clears the band, which keeps tangential exits
# from retriggering
SURFACE_BAND = 1e-12


class EventKind(enum.Enum):
    SIGMA_HIT = "SigmaHit"
    SLIDE_ENTRY = "SlideEntry"
    SLIDE_EXIT = "SlideExit"
    STEP_FAILURE = "StepFailure"


@dataclass(frozen=True)
class Event:
    time: float
    state: np.ndarray
    kind: EventKind


class UnresolvedSingularityError(Exception):
    """The orbit reached a singular surface point with no exit rule."""

    def __init__(self, time: float, state: np.ndarray, trajectory: "Trajectory | None"):
        self.time = time
        self.state = np.asarray(state, dtype=float)
        self.trajectory = trajectory
        super().__init__(
            f"singular surface point at t = {time}: state {self.state.tolist()}"
        )


class NoSlidingAtError(Exception):
    def __init__(self, x: float, reason: str):
        self.x = x
        self.reason = reason
        super().__init__(f"no certified sliding at x = {x}: {reason}")


@dataclass
class IntegratorStats:
    """What an integration did.  Counters only: no artifact writes them."""

    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    jac_evals: int = 0
    min_step: float = math.inf  # smallest accepted step

    def add(self, other: "IntegratorStats") -> None:
        self.accepted += other.accepted
        self.rejected += other.rejected
        self.rhs_evals += other.rhs_evals
        self.jac_evals += other.jac_evals
        self.min_step = min(self.min_step, other.min_step)


@dataclass
class Trajectory:
    """Accepted integration nodes plus node derivatives and events."""

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    events: list[Event] = field(default_factory=list)
    stats: IntegratorStats = field(default_factory=IntegratorStats)

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def sample(self, t: float) -> np.ndarray:
        """Cubic Hermite interpolation between the bracketing nodes.

        At event corners the stored node derivative is the left limit, so
        samples taken just past a corner smooth the kink over one interval.
        """
        ts = self.times
        if not ts[0] <= t <= ts[-1]:
            raise ValueError(f"t = {t} outside [{ts[0]}, {ts[-1]}]")
        k = int(np.searchsorted(ts, t, side="right") - 1)
        if k >= len(ts) - 1:
            return self.states[-1].copy()
        t0, h = float(ts[k]), float(ts[k + 1] - ts[k])
        if h == 0.0:
            return self.states[k].copy()
        w0, w1, w2, w3 = _hermite_weights((t - t0) / h, h)
        return (w0 * self.states[k] + w1 * self.derivs[k]
                + w2 * self.states[k + 1] + w3 * self.derivs[k + 1])


def _hermite_weights(s: float, h: float) -> tuple[float, float, float, float]:
    """The weights of y0, f0, y1 and f1 in the cubic Hermite interpolant of
    a step of length h through (y0, f0) and (y1, f1), at s = (t - t0)/h."""
    s2, s3 = s * s, s * s * s
    return 2 * s3 - 3 * s2 + 1, (s3 - 2 * s2 + s) * h, -2 * s3 + 3 * s2, (s3 - s2) * h


# RODAS4 in the form of Hairer & Wanner's rodas.f: stage i solves
#   (I/(h gamma) - J) k_i = f(t + c_i h, y + sum_j a_ij k_j) + sum_j (c_ij/h) k_j
# for the increment k_i.  The method is stiffly accurate: the last two
# stage points are the order-3 and order-4 solutions, and k_6 is their
# difference, the error estimate.  The fields are autonomous, so the
# h d_i df/dt terms of the tableau are left out.  Stages 2 to 6, one
# (c_i, a_i, c_i.) row each.
_RO_GAMMA = 0.25
_RO_STAGES = (
    (0.386, (1.544,), (-5.6688,)),
    (0.21, (0.9466785280815826, 0.2557011698983284),
     (-2.430093356833875, -0.2063599157091915)),
    (0.63, (3.314825187068521, 2.896124015972201, 0.9986419139977817),
     (-0.1073529058151375, -9.594562251023355, -20.47028614809616)),
    (1.0, (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950),
     (7.496443313967647, -10.24680431464352, -33.99990352819905, 11.70890893206160)),
    (1.0, (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.6878860361058950, 1.0),
     (8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136,
      -6.058818238834054)),
)


class _Recorder:
    """Nodes and events of a trajectory under construction.

    push keeps the sequences it is given, which nothing changes afterwards;
    build turns them into the arrays of a Trajectory.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.times: list[float] = []
        self.states: list[Sequence[float]] = []
        self.derivs: list[Sequence[float]] = []
        self.events: list[Event] = []
        self.stats = IntegratorStats()

    def push(self, t, y, f):
        self.times.append(t)
        self.states.append(y)
        self.derivs.append(f)

    def event(self, t, y, kind: EventKind):
        self.events.append(Event(t, np.array(y, dtype=float), kind))

    def build(self) -> Trajectory:
        return Trajectory(
            np.array(self.times, dtype=float), np.array(self.states, dtype=float),
            np.array(self.derivs, dtype=float), self.events, self.stats,
        )


def _rms(values, scales) -> float:
    """The root mean square of values[i] / scales[i]."""
    total = 0.0
    for v, s in zip(values, scales):
        q = v / s
        total += q * q
    return math.sqrt(total / len(scales))


def _initial_step(f, t0, y0, f0, t_end):
    scale = [ABS_TOL + REL_TOL * abs(v) for v in y0]
    d0, d1 = _rms(y0, scale), _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(t_end - t0))
    if h0 == 0.0:
        return 0.0
    f1 = f(t0 + h0, [v + h0 * d for v, d in zip(y0, f0)])
    d2 = _rms([b - a for a, b in zip(f0, f1)], scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, abs(t_end - t0))


def _error_norm(delta, y, y_new) -> float:
    """RMS of delta, each component scaled by ABS_TOL + REL_TOL*|y|."""
    return _rms(delta, [ABS_TOL + REL_TOL * max(abs(a), abs(b)) for a, b in zip(y, y_new)])


def _lu(m: list[list[float]]) -> list[int] | None:
    """Factor the square matrix m in place by Gaussian elimination with
    partial pivoting.

    Afterwards m holds U on and above its diagonal and the multipliers of
    the unit lower triangle L below it.  The returned order names, for each
    row of the factors, the row of the original matrix it came from: L U is
    the original matrix with its rows taken in that order.  None where a
    pivot is 0 or not finite: the matrix is singular, or holds an inf or
    NaN.
    """
    n = len(m)
    order = list(range(n))
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if abs(m[i][k]) > abs(m[p][k]):
                p = i
        pivot = m[p][k]
        if pivot == 0.0 or not math.isfinite(pivot):
            return None
        if p != k:
            m[k], m[p] = m[p], m[k]
            order[k], order[p] = order[p], order[k]
        top = m[k]
        for i in range(k + 1, n):
            row = m[i]
            factor = row[k] = row[k] / pivot
            for j in range(k + 1, n):
                row[j] -= factor * top[j]
    return order


def _lu_solve(lu: list[list[float]], order: list[int], b: Sequence[float]) -> list[float]:
    """The x with A x = b, from the factors and the row order _lu left of A."""
    x = [b[i] for i in order]
    n = len(x)
    for i in range(1, n):  # L has a unit diagonal
        row, v = lu[i], x[i]
        for j in range(i):
            v -= row[j] * x[j]
        x[i] = v
    for i in range(n - 1, -1, -1):
        row, v = lu[i], x[i]
        for j in range(i + 1, n):
            v -= row[j] * x[j]
        x[i] = v / row[i]
    return x


def _rodas(fn, jac, dim: int, stats: IntegratorStats):
    """One RODAS4 step: (y_new, error) from (t, y, f(y), h), on floats.

    The Jacobian is evaluated once per node and kept through rejections;
    each attempt factors I/(h gamma) - J once and solves its six stages
    with the factors.  A zero or non-finite pivot, or a non-finite stage,
    reports an infinite error, so the step is rejected and h shrinks.
    """
    t_jac, jrows = None, None

    def step(t, y, f0, h):
        nonlocal t_jac, jrows
        if t_jac != t:
            t_jac, jrows = t, jac(t, y)
            stats.jac_evals += 1
        diag = 1.0 / (h * _RO_GAMMA)
        lu = [[-v for v in row] for row in jrows]
        for i in range(dim):
            lu[i][i] += diag
        order = _lu(lu)
        if order is None:
            return y, math.inf
        k = _lu_solve(lu, order, f0)
        ks = [k]
        for c, a, cc in _RO_STAGES:
            # a non-finite increment would reach fn in the next stage point
            if not all(map(math.isfinite, k)):
                return y, math.inf
            cols = list(zip(*ks))  # the increments so far, one tuple per component
            yi = [v + sum(map(operator.mul, a, col)) for v, col in zip(y, cols)]
            fi = fn(t + c * h, yi)
            k = _lu_solve(lu, order, [v + sum(map(operator.mul, cc, col)) / h
                                      for v, col in zip(fi, cols)])
            ks.append(k)
        y_new = [v + d for v, d in zip(yi, k)]
        return y_new, _error_norm(k, y, y_new)

    return step


def integrate(
    fn: Callable[[float, list[float]], Sequence[float]],
    x0: Sequence[float],
    t_span: tuple[float, float],
    stop: Callable[..., bool] | None = None,
    *,
    jac: Callable[[float, list[float]], Sequence[Sequence[float]]],
) -> Trajectory:
    """Integrate x' = fn(t, x) over t_span, forward in time.

    Steps with RODAS4.  fn(t, x) gets the state as a list of floats and
    returns x' as a new sequence of floats, which the trajectory keeps as
    the node derivative; it must be autonomous: the stages
    leave out the d(fn)/dt terms.  jac(t, x) gives the exact Jacobian
    d(fn)/dx of the stage solves as its rows; it is evaluated once per
    node a step starts from.  Returns the accepted steps; a StepFailure
    event ends the trajectory early if the adaptive controller underflows
    its minimum step or MAX_STEPS runs out before t_end.  The optional
    stop(t0, x0, f0, t1, x1, f1) sees each accepted step as the two nodes
    and node derivatives of its cubic Hermite interpolant, and ends the run
    after the first step where it is true, whose end is then the last node
    of the trajectory.  An UnresolvedSingularityError or DomainError raised
    by fn, jac or stop leaves with the nodes accepted before it as its
    trajectory.
    """
    t0, t_end = float(t_span[0]), float(t_span[1])
    if t_end < t0:
        raise ValueError(f"t_span must be increasing, got {t_span}")
    y = [float(v) for v in x0]
    t = t0
    rec = _Recorder(len(y))
    stats = rec.stats

    def rhs(tt, yy):
        stats.rhs_evals += 1
        return fn(tt, yy)

    fcur = rhs(t, y)
    rec.push(t, y, fcur)
    if t_end == t0:
        return rec.build()

    step = _rodas(rhs, jac, len(y), stats)
    try:
        h = _initial_step(rhs, t, y, fcur, t_end)
        for _ in range(MAX_STEPS):
            if t >= t_end:
                break
            h = min(h, t_end - t)
            if h < MIN_STEP:
                rec.event(t, y, EventKind.STEP_FAILURE)
                break
            y_new, err = step(t, y, fcur, h)
            if err <= 1.0:
                stats.accepted += 1
                stats.min_step = min(stats.min_step, h)
                start = t, y, fcur
                # a step cut at the end lands on t_end: t + (t_end - t) can
                # miss it by an ulp, leaving a gap below MIN_STEP
                t = t_end if h >= t_end - t else t + h
                y = y_new
                fcur = rhs(t, y)
                rec.push(t, y, fcur)
                if stop is not None and stop(*start, t, y, fcur):
                    break
            else:
                stats.rejected += 1
            # the elementary rule for an order-4 error estimate, on accepted
            # and rejected steps alike; on the stiff fold orbits a PI history
            # term took 30-60% more steps
            h *= min(5.0, max(0.2, 0.9 * (err + 1e-16) ** -0.25))
        else:
            if t < t_end:  # MAX_STEPS ran out
                rec.event(t, y, EventKind.STEP_FAILURE)
    except (UnresolvedSingularityError, ex.DomainError) as exc:
        exc.trajectory = rec.build()
        raise
    return rec.build()


# ---------------------------------------------------------------------------
# hybrid (Filippov) integration

def integrate_filippov(
    system: PiecewiseSystem,
    x0: Sequence[float],
    t_span: tuple[float, float],
) -> Trajectory:
    """Hybrid orbit of the piecewise system with event bookkeeping.

    A segment ends at the first step whose dense interpolant leaves the
    band on the far side of the surface, at its end node or in between
    (see _far_side).  The hit is located by bisection on the interpolant to
    1e-12 in time and recorded as SigmaHit.  Sliding hits enter the Filippov
    combination (SlideEntry) and leave it (SlideExit) where the class test
    stops saying Sliding, along the field whose normal component is the
    smaller there; orbits that merely sew continue on the other side.
    A singular hit raises UnresolvedSingularityError, and a field outside
    its domain DomainError; either leaves with the orbit up to its last
    node, ended by a StepFailure event, as its trajectory.
    """
    state = np.asarray(x0, dtype=float).copy()
    t, t_end = float(t_span[0]), float(t_span[1])
    if t_end < t:
        raise ValueError(f"t_span must be increasing, got {t_span}")
    if len(state) != system.dim:
        raise ValueError(
            f"state dimension {len(state)} does not match system dimension {system.dim}"
        )
    orbit = _Recorder(system.dim)
    exit_side = 0  # the field a slide exit leaves along, for the next segment
    try:
        for _ in range(MAX_EVENTS):
            if t >= t_end - EVENT_TIME_TOL:
                break
            region, exit_side = exit_side, 0
            if not region and abs(state[-1]) <= SURFACE_BAND:
                verdict = classify_point(system, state[:-1])
                if verdict == SigmaClass.SLIDING:
                    orbit.event(t, state, EventKind.SLIDE_ENTRY)
                    t, state, exit_side = _slide(system, orbit, t, state, t_end)
                    if not exit_side:
                        break  # reached t_end (or failed) while sliding
                    continue
                if verdict == SigmaClass.SIGMA_SINGULAR:
                    raise UnresolvedSingularityError(t, state, None)
                a_plus, _ = system.normal_components_on_sigma(state[:-1])
                region = 1 if a_plus > 0 else -1
            elif not region:
                region = 1 if state[-1] > 0 else -1

            field_def = system.plus if region > 0 else system.minus
            fn = lambda tt, s: field_def.values(s)
            seg = integrate(fn, state, (t, t_end),
                            stop=lambda *step: _far_side(region, *step) is not None,
                            jac=lambda tt, s: field_def.jacobian_rows(s))
            # the stop rule ended the segment iff it holds on its last step
            t_far = None if len(seg.times) < 2 else _far_side(
                region, seg.times[-2], seg.states[-2], seg.derivs[-2],
                seg.times[-1], seg.states[-1], seg.derivs[-1])
            if t_far is None:
                _append(orbit, seg)
                break  # reached t_end, or failed

            target = 0.0
            if abs(seg.states[-2][-1]) <= SURFACE_BAND:
                # launched from the surface; cut where the orbit clears the band
                target = -region * SURFACE_BAND / 2.0
            t = _locate(seg, lambda tt, s: float(s[-1]) - target, t_far)
            state = seg.sample(t)
            state[-1] = 0.0
            _append(orbit, seg, upto=-1)
            orbit.push(t, state, fn(t, state))
            orbit.event(t, state, EventKind.SIGMA_HIT)
            if classify_point(system, state[:-1]) == SigmaClass.SIGMA_SINGULAR:
                raise UnresolvedSingularityError(t, state, None)
            # Sliding: the loop re-enters through the surface branch above.
            # Sewing: the surface branch picks the receiving side from a_plus.
        else:
            if t < t_end - EVENT_TIME_TOL:  # max_events ran out
                orbit.event(t, state, EventKind.STEP_FAILURE)
    except (UnresolvedSingularityError, ex.DomainError) as exc:
        # end the orbit at its last node with a StepFailure, and leave with it
        if exc.trajectory is not None:  # the nodes integrate accepted before the error
            _append(orbit, exc.trajectory)
        if orbit.times:
            t, state = orbit.times[-1], orbit.states[-1]
        orbit.event(t, state, EventKind.STEP_FAILURE)
        exc.trajectory = _close(orbit, t, state)
        raise
    return _close(orbit, t, state)


def _slide(system, orbit, t, state, t_end):
    """Integrate the sliding flow from a surface state that classifies Sliding.

    Returns (t, state, exit_side): exit_side is +1/-1 when the slide reached
    the edge of the class band, where sliding_margin falls to 0 and
    classify_point stops saying Sliding, else 0.  The orbit leaves along
    X_plus when |a_plus| <= |a_minus| there, and along X_minus otherwise.
    The margin has no pole, so the exit is never bisected onto the pole
    a_plus = a_minus of the Filippov weight; a right-hand side evaluated on
    that pole raises UnresolvedSingularityError with the slide's nodes up
    to it.
    """
    margin = lambda tt, x: sliding_margin(system, x)

    def fn(tt: float, x: list[float]) -> list[float]:
        # the Filippov combination without the class gate: a step may end
        # past the band edge, which the stop rule then locates
        combo = filippov_tangent(system, x)
        if combo is None:
            raise UnresolvedSingularityError(tt, np.append(x, 0.0), None)
        return combo[1]

    # fn has been evaluated at every node jac sees, so jac never meets the pole
    seg = integrate(fn, state[:-1], (t, t_end),
                    stop=lambda t0, x0, f0, t1, x1, f1: margin(t1, x1) <= 0.0,
                    jac=lambda tt, x: filippov_jacobian(system, x))
    if margin(seg.final_time, seg.final_state) > 0.0:
        _append(orbit, seg)
        return seg.final_time, np.append(seg.final_state, 0.0), 0
    t = _locate(seg, margin)
    state = np.append(seg.sample(t), 0.0)
    a_plus, a_minus = system.normal_components_on_sigma(state[:-1])
    exit_side = 1 if abs(a_plus) <= abs(a_minus) else -1
    _append(orbit, seg, upto=-1)
    orbit.push(t, state, (system.plus if exit_side > 0 else system.minus).evaluate(state))
    orbit.event(t, state, EventKind.SLIDE_EXIT)
    return t, state, exit_side


def _append(orbit: _Recorder, seg: Trajectory, upto: int | None = None) -> None:
    """Join the nodes seg[:upto], the events and the counters of seg to the orbit.

    A first node repeating the orbit's last one is dropped; a sliding
    segment, integrated in the tangential coordinates, is lifted onto y = 0.
    """
    start = 1 if orbit.times and seg.times[0] == orbit.times[-1] else 0
    times, states, derivs = (a[start:upto] for a in (seg.times, seg.states, seg.derivs))
    if states.shape[1] < orbit.dim:
        states = np.hstack([states, np.zeros((len(times), 1))])
        derivs = np.hstack([derivs, np.zeros((len(times), 1))])
    orbit.times.extend(times)
    orbit.states.extend(states)
    orbit.derivs.extend(derivs)
    for e in seg.events:
        state = np.append(e.state, 0.0) if e.state.size < orbit.dim else e.state
        orbit.event(e.time, state, e.kind)
    orbit.stats.add(seg.stats)


def _locate(
    seg: Trajectory, g: Callable[[float, np.ndarray], float], t_hi: float | None = None
) -> float:
    """A time where g(t, seg.sample(t)) changes sign, in the last step of
    seg or, given t_hi, between its start and t_hi.

    The probes evaluate the last step's interpolant on its four nodes as
    floats, with the weights and sums of Trajectory.sample.
    """
    t0, t1 = float(seg.times[-2]), float(seg.times[-1])
    h = t1 - t0
    nodes = list(zip(*(a.tolist() for a in (
        seg.states[-2], seg.derivs[-2], seg.states[-1], seg.derivs[-1]))))

    def probe(tt: float) -> float:
        w0, w1, w2, w3 = _hermite_weights((tt - t0) / h, h)
        return g(tt, [w0 * y0 + w1 * f0 + w2 * y1 + w3 * f1 for y0, f0, y1, f1 in nodes])

    return bisect_sign_change(probe, t0, t1 if t_hi is None else float(t_hi), EVENT_TIME_TOL)


def _far_side(region, t0, y0, f0, t1, y1, f1) -> float | None:
    """Where the step's interpolant first lies beyond the band on the far
    side of the surface from ``region``, or None if it stays on this side.

    The step's end node is tested first, then the interior extrema of the
    cubic Hermite y-interpolant in time order: the roots in (0, 1) of its
    derivative, a quadratic in s = (t - t0)/(t1 - t0).  A step can be
    long enough for y to dip through the surface and come back between
    two nodes, and the extremum then marks the far side.
    """
    beyond = lambda v: v * region < 0 and abs(v) > SURFACE_BAND
    if beyond(y1[-1]):
        return t1
    h = t1 - t0
    p0, p1, d0, d1 = float(y0[-1]), float(y1[-1]), h * float(f0[-1]), h * float(f1[-1])
    # the derivative a s^2 + b s + c of the interpolant in s
    a = 3.0 * (2.0 * (p0 - p1) + d0 + d1)
    b = -2.0 * (3.0 * (p0 - p1) + 2.0 * d0 + d1)
    c = d0
    if a == 0.0:
        roots = [-c / b] if b != 0.0 else []
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return None
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = [q / a, c / q] if q != 0.0 else []  # q = 0: a double root at s = 0
    for s in sorted(roots):
        if 0.0 < s < 1.0:
            w0, w1, w2, w3 = _hermite_weights(s, h)
            if beyond(w0 * p0 + w1 * float(f0[-1]) + w2 * p1 + w3 * float(f1[-1])):
                return t0 + s * h
    return None


def _close(orbit: _Recorder, t: float, state: np.ndarray) -> Trajectory:
    if not orbit.times:  # nothing was integrated: the orbit is its start
        orbit.push(t, state, np.zeros(orbit.dim))
    return orbit.build()


# ---------------------------------------------------------------------------
# invariant manifold tracking and measurements

@dataclass(frozen=True)
class ManifoldPoint:
    x: float
    t: float
    y: float
    dh_dt: float


@dataclass(frozen=True)
class ManifoldTrack:
    """Sampled invariant manifold {(x, eps * t_x)} with exclusions."""

    eps: float
    points: tuple[ManifoldPoint, ...]
    excluded: tuple[tuple[float, str], ...]

    def as_array(self) -> np.ndarray:
        return np.array([[p.x, p.y] for p in self.points])


def track_manifold(
    system: PiecewiseSystem,
    transition: TransitionFunction,
    epsilons: Sequence[float],
    x_grid: Sequence[float],
) -> tuple[ManifoldTrack, ...]:
    """Sampled sliding manifold over a grid of surface points, one track per
    band width in ``epsilons``.

    The witness of certify at x, the most transversal root t_x of the
    height function, places the manifold point (x, eps * t_x).  t_x does
    not depend on eps, so each x is certified once for all tracks.  Grid
    points without a witness are excluded with a reason; if the whole grid
    fails, NoSlidingAtError is raised for the first point.
    """
    if not all(eps > 0 for eps in epsilons):
        raise ValueError(f"epsilons must be positive, got {list(epsilons)}")
    witnesses: list[tuple[float, HeightRoot]] = []
    excluded: list[tuple[float, str]] = []
    for x in x_grid:
        x = float(x)
        cert = certify(system, transition, x)
        if cert.witness is not None:
            witnesses.append((x, cert.witness))
        elif cert.degenerate:
            excluded.append((x, "height function degenerates"))
        elif cert.roots:
            excluded.append((x, "only tangential roots"))
        else:
            excluded.append((x, "no root: not a sliding point"))
    if not witnesses:
        raise NoSlidingAtError(*excluded[0])
    return tuple(
        ManifoldTrack(eps, tuple(ManifoldPoint(x, w.t, eps * w.t, w.dh_dt) for x, w in witnesses),
                      tuple(excluded))
        for eps in epsilons
    )


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between finite point sets (rows are points)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.size == 0 or b.size == 0:
        raise ValueError("hausdorff distance of an empty set is undefined")
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


@dataclass(frozen=True)
class Equilibrium:
    x: float
    stability: int  # -1 stable, +1 unstable, 0 degenerate


def equilibria_on_manifold(
    system: PiecewiseSystem,
    transition: TransitionFunction,
    eps: float,
    x_range: tuple[float, float],
) -> list[Equilibrium]:
    """Equilibria of the flow restricted to the sliding manifold (planar case).

    The restricted velocity g(x) is the tangential component of the
    regularized field evaluated on the manifold point (x, eps * t_x),
    sampled at EQ_SAMPLES points of x_range.  Each sample where the sampled
    values turn moves onto a critical point of g, found by bisecting a
    secant slope, so that g is monotone between the samples: a sample with
    |g| <= EQ_TOL is a zero, a tangential one included, and a piece whose
    ends differ in sign holds one, found by bisection.  No zero is sought
    across a point where g is undefined (no transversal root, so no
    manifold).  Stability is the sign of g' at the zero.
    """
    if system.dim != 2:
        raise ValueError("equilibria tracking is implemented for planar systems only")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    lo, hi = float(x_range[0]), float(x_range[1])

    def g(x: float) -> float:
        root = most_transversal(height_roots(system, transition, x))
        if root is None:
            return math.nan
        return blend(system, transition.value(root.t, (x,)), (x, eps * root.t))[0]

    delta = (hi - lo) / (EQ_SAMPLES - 1) / 2.0

    def secant_slope(x: float) -> float:
        return g(min(x + delta, hi)) - g(max(x - delta, lo))

    def stability_of(x: float) -> int:
        d = secant_slope(x) / (2.0 * delta)
        if abs(d) <= 1e-6:
            return 0
        return 1 if d > 0 else -1

    xs, gs = monotone_breaks(g, secant_slope, np.linspace(lo, hi, EQ_SAMPLES).tolist())
    return [Equilibrium(x, stability_of(x)) for x in monotone_zeros(g, xs, gs, EQ_TOL)]
