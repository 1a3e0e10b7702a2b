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

The stage algebra runs on Python floats: the states have 1 to 3
components (slides step the tangential ones), and numpy's per-call
overhead on such arrays cost more than the arithmetic.  Each attempt
factors I/(h gamma) - J once by an LU with partial pivoting and solves its
six stages by forward and back substitution; a zero or non-finite pivot
rejects the step.  The attempt is straight-line code, generated from the
tableau once per dimension on first use: the LU, every stage sum,
substitution and finite check, and the error norm, are written out per
component, so no list, zip or call is paid per stage.  Its stage sums add
left to right, as sum() did on floats before Python 3.12 compensated its
rounding, so the steps do not depend on the interpreter version.  A
trajectory keeps the float lists it recorded and builds arrays on first use.

Node derivatives are recorded, so trajectories interpolate with cubic
Hermite polynomials between accepted steps; an event is located by zeroin
on that interpolant, evaluated on the floats of the step's two nodes, to
the float where the event function's sign flips.

The hybrid integrator follows one smooth field until the orbit reaches the
switching surface, classifies the hit, and either sews through, enters a
sliding segment, or stops on an unresolvable singular hit.  A slide steps
the generated psi-blend on the surface at psi = r = 2*lam - 1, where it is
tangent to the surface, with the blend's Jacobian.  Segments and slides
step straight into the one Trajectory the orbit returns, which lifts a
slide's nodes onto y = 0; the end node of the step that reaches an event
gives way to the located event node.
"""

from __future__ import annotations

import enum
import functools
import math
import types
from typing import Callable, NamedTuple, Sequence

from . import blowup, expr as ex
from .regularize import (
    HeightRoot,
    SlidingCertificate,
    TransitionFunction,
    height_roots,
    linspace,
    monotone_breaks,
    monotone_zeros,
    most_transversal,
    zeroin,
)
from .system import (
    PiecewiseSystem,
    SigmaClass,
    _floats,
    classify_point,
    filippov_jacobian,
    filippov_tangent,
    sliding_margin,
)

ABS_TOL = 1e-9  # step control scales each error component by ABS_TOL + REL_TOL*|y|
REL_TOL = 1e-7
MIN_STEP = 1e-13
EVENT_TIME_TOL = 1e-12  # only ends a hybrid orbit: one this close to t_end has reached it
MAX_EVENTS = 10_000
MAX_STEPS = 1_000_000  # step attempts, accepted or rejected, per integrate call, segment or slide
EQ_SAMPLES = 601  # x-grid on which equilibria_on_manifold samples g
EQ_TOL = 1e-9  # a break of g (see monotone_breaks) with |g| at or below this is a zero
# |y| below this counts as sitting on the surface; crossings are only
# recognized once the orbit clears the band, which keeps tangential exits
# from retriggering
SURFACE_BAND = 1e-12


class EventKind(enum.Enum):
    SIGMA_HIT = "SigmaHit"
    SLIDE_ENTRY = "SlideEntry"
    SLIDE_EXIT = "SlideExit"
    STEP_FAILURE = "StepFailure"


class Event(NamedTuple):
    time: float
    state: tuple[float, ...]
    kind: EventKind


class UnresolvedSingularityError(Exception):
    """At (time, state) the orbit hit a singular surface point with no exit
    rule, or a slide's step from there tried x = ``pole``, where a_plus = a_minus.
    The integrator sets ``trajectory`` to the orbit up to there."""

    def __init__(self, time: float, state: Sequence[float], pole: Sequence[float] | None = None):
        self.time = time
        self.state = tuple(map(float, state))
        self.trajectory: Trajectory | None = None
        where = f"at t = {time}: state {list(self.state)}"
        super().__init__(f"singular surface point {where}" if pole is None else
                         f"slide stopped {where}: the Filippov weight has a pole "
                         f"(a_plus = a_minus) at the stage x = {list(pole)} it tried")


class NoSlidingAtError(Exception):
    def __init__(self, x: float, reason: str):
        self.x = x
        self.reason = reason
        super().__init__(f"no certified sliding at x = {x}: {reason}")


class IntegratorStats:
    """What an integration did.  Counters only: no artifact writes them."""

    def __init__(self):
        self.accepted = 0
        self.rejected = 0
        self.rhs_evals = 0
        self.jac_evals = 0
        self.min_step = math.inf  # smallest accepted step


class Trajectory:
    """Accepted integration nodes plus node derivatives, events and
    counters, in the float lists the integrator recorded them in.

    An integrator records into the Trajectory it returns: _push keeps the
    sequences it is given, which nothing changes afterwards, and a node or
    event one component short, a slide's, is lifted onto y = 0.  An orbit
    ends in _close, or in _fail where an error stops it.  While it is
    recorded only the node lists are read: the arrays are built on first use.
    """

    def __init__(self, dim: int):
        self._dim = dim
        self.node_times: list[float] = []
        self.node_states: list[Sequence[float]] = []
        self.node_derivs: list[Sequence[float]] = []
        self.events: list[Event] = []
        self.stats = IntegratorStats()

    # the nodes as float arrays, built on first use
    times = functools.cached_property(lambda self: _floats(self.node_times))
    states = functools.cached_property(lambda self: _floats(self.node_states))
    derivs = functools.cached_property(lambda self: _floats(self.node_derivs))

    def _push(self, t, y, f):
        if len(y) < self._dim:
            y, f = [*y, 0.0], [*f, 0.0]
        self.node_times.append(t)
        self.node_states.append(y)
        self.node_derivs.append(f)

    def _event(self, t, y, kind: EventKind, f=None):
        """Record an event at (t, y).  With the derivative f, the node
        (t, y, f) first replaces the last node, the end of the step that
        reached the event."""
        if len(y) < self._dim:
            y = [*y, 0.0]
        if f is not None:
            self.node_times[-1], self.node_states[-1], self.node_derivs[-1] = t, y, f
        self.events.append(Event(t, tuple(y), kind))

    def _close(self, t, y) -> Trajectory:
        """The trajectory; the start (t, y) is its one node if nothing was
        recorded."""
        if not self.node_times:
            self._push(t, y, [0.0] * self._dim)
        return self

    def _fail(self, exc: Exception, t, y) -> None:
        """End the orbit with a StepFailure at its last node, or at the start
        (t, y) if it has none, and attach it to exc as its trajectory."""
        if self.node_times:
            t, y = self.node_times[-1], self.node_states[-1]
        self._event(t, y, EventKind.STEP_FAILURE)
        exc.trajectory = self._close(t, y)


def _hermite(s: float, h: float, y0: float, f0: float, y1: float, f1: float) -> float:
    """The cubic Hermite interpolant of a step of length h through (y0, f0)
    and (y1, f1), at s = (t - t0)/h."""
    s2, s3 = s * s, s * s * s
    return ((2 * s3 - 3 * s2 + 1) * y0 + (s3 - 2 * s2 + s) * h * f0
            + (-2 * s3 + 3 * s2) * y1 + (s3 - s2) * h * f1)


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


def _rodas(fn, jac, dim: int, stats: IntegratorStats):
    """One RODAS4 step: (y_new, error) from (t, y, f(y), h), on floats.

    The Jacobian is evaluated once per node and kept through rejections;
    each attempt factors I/(h gamma) - J once by LU with partial pivoting
    and solves its six stages with the factors.  A zero or non-finite
    pivot, or a non-finite stage, reports an infinite error, so the step is
    rejected and h shrinks.  It is straight-line code for dim, see _rodas_code.
    """
    return types.FunctionType(_rodas_code(dim), globals(), "rodas")(fn, jac, stats)


@functools.lru_cache(maxsize=None)  # one code object per state dimension in use
def _rodas_code(dim: int) -> types.CodeType:
    """The code of rodas(fn, jac, stats), which returns the step of _rodas
    for states of dim components, written out per component and stage.

    The LU of I/(h gamma) - J is Gaussian elimination on u{i}_{j}: per
    column the first row of largest |entry| pivots, its whole row and row
    order o{i} swap into place, and the rows below are eliminated in row,
    then column order.  Each stage solve takes b's entries in the order o,
    then substitutes forward through L and back through U, each row's
    products subtracted in column order.  A stage sum sum(a_j * k_j) is
    0.0 + a_1*k_1 + a_2*k_2 + ..., left to right, which is what sum()
    computes on floats before Python 3.12 (from 3.12 it compensates the
    rounding).  The tableau enters as repr literals, which read back as the
    same floats.  The error norm is written out too, with ABS_TOL and
    REL_TOL read as module globals when the step runs.
    """
    comps = range(dim)

    def tup(names) -> str:
        return "(" + "".join(f"{v}, " for v in names) + ")"

    def solve(s: int, b: str) -> list[str]:
        # k_s = (I/(h gamma) - J)^-1 b: permute, then L and U
        k = [f"k{s}_{i}" for i in comps]
        lines = [f"{tup(k)} = {tup(f'{b}[o{i}]' for i in comps)}"]
        for i in comps[1:]:
            lines.append(f"{k[i]} = {k[i]}" + "".join(f" - u{i}_{j} * {k[j]}" for j in range(i)))
        for i in reversed(comps):
            rest = "".join(f" - u{i}_{j} * {k[j]}" for j in range(i + 1, dim))
            lines.append(f"{k[i]} = ({k[i]}{rest}) / u{i}_{i}")
        return lines

    def combo(coeffs, i: int) -> str:
        return "(0.0" + "".join(f" + {a!r} * k{j}_{i}" for j, a in enumerate(coeffs, 1)) + ")"

    row = lambda i: tup([*(f"u{i}_{j}" for j in comps), f"o{i}"])
    body = [
        "if t_jac != t:",
        "    t_jac, jrows = t, jac(t, y)",
        "    stats.jac_evals += 1",
        f"diag = 1.0 / (h * {_RO_GAMMA!r})",
        f"{tup(tup(f'j{i}_{j}' for j in comps) for i in comps)} = jrows",
        *(f"{row(i)} = {tup([*(f'-j{i}_{j}' + ' + diag' * (i == j) for j in comps), i])}"
          for i in comps),
    ]
    for k in comps:
        below = range(k + 1, dim)
        if below:  # the first row of largest |entry| pivots; a NaN is never larger
            body.append(f"p, a = {k}, abs(u{k}_{k})")
        body += [f"if abs(u{i}_{k}) > a: p, a = {i}, abs(u{i}_{k})" for i in below]
        body += [f"if p == {i}: {row(k)}, {row(i)} = {row(i)}, {row(k)}" for i in below]
        body.append(f"if u{k}_{k} == 0.0 or not isfinite(u{k}_{k}): return y, math.inf")
        for i in below:
            body += [f"u{i}_{k} = u{i}_{k} / u{k}_{k}",
                     *(f"u{i}_{j} = u{i}_{j} - u{i}_{k} * u{k}_{j}" for j in below)]
    body += [f"{tup(f'y{i}' for i in comps)} = y", *solve(1, "f0")]
    for s, (c, a, cc) in enumerate(_RO_STAGES, 2):
        prev = [f"k{s - 1}_{i}" for i in comps]
        body += [
            # a non-finite increment would reach fn in the next stage point
            "if not (" + " and ".join(f"isfinite({k})" for k in prev) + "):",
            "    return y, math.inf",
            *(f"p{i} = y{i} + {combo(a, i)}" for i in comps),
            f"{tup(f'g{i}' for i in comps)} = fn(t + {c!r} * h, [{', '.join(f'p{i}' for i in comps)}])",
            f"b = {tup(f'g{i} + {combo(cc, i)} / h' for i in comps)}",
            *solve(s, "b"),
        ]
    last = len(_RO_STAGES) + 1
    body += [f"n{i} = p{i} + k{last}_{i}" for i in comps]
    for i in comps:
        # the error norm: the RMS of k_6, each component scaled by
        # ABS_TOL + REL_TOL*max(|y_i|, |y_new_i|); max keeps its first
        # argument unless the second is larger, as the builtin does
        body += [
            f"a, b = abs(y{i}), abs(n{i})",
            f"q{i} = k{last}_{i} / (ABS_TOL + REL_TOL * (b if b > a else a))",
        ]
    body += [
        # summed as _rms does, from 0.0 and left to right
        "total = 0.0" + "".join(f" + q{i} * q{i}" for i in comps),
        f"return [{', '.join(f'n{i}' for i in comps)}], math.sqrt(total / {dim})",
    ]
    source = "\n".join([
        "def rodas(fn, jac, stats):",
        "    isfinite = math.isfinite",
        "    t_jac = jrows = None",
        "    def step(t, y, f0, h):",
        "        nonlocal t_jac, jrows",
        *(f"        {line}" for line in body),
        "    return step",
    ])
    scope: dict[str, object] = {}
    exec(compile(source, f"<filippov.dynamics._rodas_code({dim})>", "exec"), {}, scope)
    return scope["rodas"].__code__


def integrate(
    fn: Callable[[float, list[float]], Sequence[float]],
    x0: Sequence[float],
    t_span: tuple[float, float],
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
    its minimum step or MAX_STEPS runs out before t_end.  An
    UnresolvedSingularityError or DomainError raised by fn or jac leaves
    with the nodes accepted before it, ended by a StepFailure event, as its
    trajectory: the start x0 alone if fn raised it at the first node.
    """
    t0, t_end = float(t_span[0]), float(t_span[1])
    if not -math.inf < t0 <= t_end < math.inf:  # NaN fails it too
        raise ValueError(f"t_span must be finite and increasing, got {t_span}")
    y = [float(v) for v in x0]
    if not y:
        raise ValueError("x0 is empty: there is no state to integrate")
    traj = Trajectory(len(y))
    try:
        _run(traj, fn, y, t0, t_end, None, jac)
    except (UnresolvedSingularityError, ex.DomainError) as exc:
        traj._fail(exc, t0, y)
        raise
    return traj._close(t0, y)


def _run(traj: Trajectory, fn, y: list[float], t: float, t_end: float, stop, jac) -> tuple | None:
    """Step x' = fn(t, x) from (t, y) towards t_end into traj, as integrate
    describes, and stop early when asked; the step (t0, y0, f0, t1, y1, f1)
    on which stop fired followed by the time stop returned, or None.

    stop(t0, y0, f0, t1, y1, f1), unless None, sees each accepted step as
    the two nodes and node derivatives of its cubic Hermite interpolant, and
    returns a time in (t0, t1] by which the event function it watches has
    changed sign, or None.  The run ends after the first step where it
    returns a time, whose end is then traj's last node.

    The first node is skipped when traj's last node already lies at t, where
    a run continues an orbit; the counters add up in traj.stats.
    """
    stats = traj.stats

    def rhs(tt, yy):
        stats.rhs_evals += 1
        return fn(tt, yy)

    fcur = rhs(t, y)
    if not traj.node_times or traj.node_times[-1] != t:
        traj._push(t, y, fcur)
    if t_end == t:
        return None
    step = _rodas(rhs, jac, len(y), stats)
    h = _initial_step(rhs, t, y, fcur, t_end)
    for _ in range(MAX_STEPS):
        if t >= t_end:
            return None
        h = min(h, t_end - t)
        if h < MIN_STEP:
            traj._event(t, y, EventKind.STEP_FAILURE)
            return None
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
            traj._push(t, y, fcur)
            if stop is not None and (t_hi := stop(*start, t, y, fcur)) is not None:
                return (*start, t, y, fcur, t_hi)
        else:
            stats.rejected += 1
        # the elementary rule for an order-4 error estimate, on accepted
        # and rejected steps alike; on the stiff fold orbits a PI history
        # term took 30-60% more steps
        h *= min(5.0, max(0.2, 0.9 * (err + 1e-16) ** -0.25))
    if t < t_end:  # MAX_STEPS ran out
        traj._event(t, y, EventKind.STEP_FAILURE)
    return None


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
    (see _far_side); the hit is located before that time on the
    interpolant, to the last float (see _locate), and recorded as SigmaHit.
    The start and each hit on the surface are classified once, at the top
    of the loop: Sliding enters the Filippov combination (SlideEntry) and
    leaves it (SlideExit) where the class test stops saying Sliding, along
    the field whose normal component is the smaller there; Sewing goes on
    along the field a_plus points into; SigmaSingular raises
    UnresolvedSingularityError, and a field outside its domain or a start,
    hit or slide stage with non-finite a_pm DomainError; either leaves
    with the orbit up to its last node, ended by a StepFailure event, as
    its trajectory.  A hit within EVENT_TIME_TOL of t_end, or on
    the last of MAX_EVENTS, ends the orbit unclassified.
    """
    state = [float(v) for v in x0]
    t, t_end = float(t_span[0]), float(t_span[1])
    if not -math.inf < t <= t_end < math.inf:  # NaN fails it too
        raise ValueError(f"t_span must be finite and increasing, got {t_span}")
    if len(state) != system.dim:
        raise ValueError(
            f"state dimension {len(state)} does not match system dimension {system.dim}"
        )
    orbit = Trajectory(system.dim)
    region = 0  # the field the next segment follows; 0: the surface branch decides
    try:
        for _ in range(MAX_EVENTS):
            if t >= t_end - EVENT_TIME_TOL:
                break
            if not region and abs(state[-1]) <= SURFACE_BAND:
                verdict = classify_point(system, state[:-1])
                if verdict == SigmaClass.SLIDING:
                    orbit._event(t, state, EventKind.SLIDE_ENTRY)
                    exit_ = _slide(system, orbit, t, state, t_end)
                    if exit_ is None:
                        break  # reached t_end (or failed) while sliding
                    t, state, region = exit_
                    continue
                if verdict == SigmaClass.SIGMA_SINGULAR:
                    raise UnresolvedSingularityError(t, state)
                a_plus, _ = system.normal_components_on_sigma(state[:-1])
                region = 1 if a_plus > 0 else -1
            elif not region:
                region = 1 if state[-1] > 0 else -1

            field_def = system.plus if region > 0 else system.minus
            fn = lambda tt, s: field_def.values(s)
            step = _run(orbit, fn, state, t, t_end, functools.partial(_far_side, region),
                        lambda tt, s: field_def.jacobian_rows(s))
            if step is None:
                break  # reached t_end, or failed

            target = 0.0
            if abs(step[1][-1]) <= SURFACE_BAND:
                # launched from the surface; cut where the orbit clears the band
                target = -region * SURFACE_BAND / 2.0
            t, state = _locate(lambda tt, s: s[-1] - target, *step)
            state[-1] = 0.0
            orbit._event(t, state, EventKind.SIGMA_HIT, fn(t, state))
            region = 0  # the surface branch classifies the hit
        else:
            if t < t_end - EVENT_TIME_TOL:  # MAX_EVENTS ran out
                orbit._event(t, state, EventKind.STEP_FAILURE)
    except (UnresolvedSingularityError, ex.DomainError) as exc:
        orbit._fail(exc, t, state)
        raise
    return orbit._close(t, state)


def _slide(system, orbit, t, state, t_end):
    """Integrate the sliding flow into the orbit from a Sliding surface state.

    Returns (t, state, side) at the edge of the class band, where
    sliding_margin falls to 0 and classify_point stops saying Sliding, or
    None if the slide reaches t_end or fails first.  The orbit leaves along
    side: X_plus (+1) when |a_plus| <= |a_minus| there, else X_minus (-1).
    The margin has no pole, so the exit is never located on the pole
    a_plus = a_minus of the Filippov weight; a right-hand side evaluated on
    that pole raises UnresolvedSingularityError at the orbit's last node,
    and one where a_pm are not finite DomainError, naming that stage x.
    """
    margin = lambda tt, x: sliding_margin(system, x)

    def fn(tt: float, x: list[float]) -> list[float]:
        # the blend at psi = r without the class gate: a step may end past
        # the band edge, which the stop rule then locates
        combo = filippov_tangent(system, x)
        if combo is None:  # the slide's first x is Sliding, so the orbit has a node by now
            raise UnresolvedSingularityError(orbit.node_times[-1], orbit.node_states[-1], x)
        return combo[1]

    # fn has been evaluated at every node jac sees, so jac never meets the pole
    step = _run(orbit, fn, state[:-1], t, t_end,
                lambda t0, x0, f0, t1, x1, f1: t1 if margin(t1, x1) <= 0.0 else None,
                lambda tt, x: filippov_jacobian(system, x))
    if step is None:
        return None
    t, x = _locate(margin, *step)
    state = x + [0.0]
    a_plus, a_minus = system.normal_components_on_sigma(x)
    side = 1 if abs(a_plus) <= abs(a_minus) else -1
    exit_field = system.plus if side > 0 else system.minus
    orbit._event(t, state, EventKind.SLIDE_EXIT, exit_field.values(state))
    return t, state, side


def _locate(
    g: Callable[[float, list[float]], float], t0, y0, f0, t1, y1, f1, t_hi: float
) -> tuple[float, list[float]]:
    """(t, x(t)) where g(t, x(t)) changes sign on the interpolant x of the
    step (t0, y0, f0) -> (t1, y1, f1), between t0 and the stop rule's t_hi.

    g is nonzero at t0.  zeroin runs to the last float, so t is a float
    beside the flip; where g is exactly 0 at t_hi (a stop rule on
    ``<= 0.0``), t is t_hi.
    """
    h = t1 - t0
    nodes = list(zip(y0, f0, y1, f1))
    at = lambda tt: [_hermite((tt - t0) / h, h, *node) for node in nodes]
    f = lambda tt: g(tt, at(tt))
    f_hi = f(t_hi)
    t = t_hi if f_hi == 0.0 else zeroin(f, t0, t_hi, 0.0, fb=f_hi)
    return t, at(t)


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
    p0, p1, d0, d1 = y0[-1], y1[-1], h * f0[-1], h * f1[-1]
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
            if beyond(_hermite(s, h, p0, f0[-1], p1, f1[-1])):
                return t0 + s * h
    return None


# ---------------------------------------------------------------------------
# invariant manifold tracking

class ManifoldPoint(NamedTuple):
    x: float
    t: float
    y: float
    dh_dt: float


class ManifoldTrack(NamedTuple):
    """Sampled invariant manifold {(x, eps * t_x)} with exclusions."""

    eps: float
    points: tuple[ManifoldPoint, ...]
    excluded: tuple[tuple[float, str], ...]


def track_manifold(
    epsilons: Sequence[float],
    certified: Sequence[tuple[float, SlidingCertificate]],
) -> tuple[ManifoldTrack, ...]:
    """Sampled sliding manifold over the pairs (x, certify(system, transition,
    x)) of ``certified``, one track per band width in ``epsilons``.

    The witness, the most transversal root t_x of the height function,
    places the manifold point (x, eps * t_x); t_x does not depend on eps, so
    one certificate serves every track.  Points without a witness are
    excluded with a reason; if none has one, NoSlidingAtError names the first.
    """
    if not all(eps > 0 for eps in epsilons):
        raise ValueError(f"epsilons must be positive, got {list(epsilons)}")
    if not certified:
        raise ValueError("certified is empty: there is no point to track")
    witnesses: list[tuple[float, HeightRoot]] = []
    excluded: list[tuple[float, str]] = []
    for x, cert in certified:
        if cert.witness is not None:
            witnesses.append((x, cert.witness))
        elif cert.degenerate:
            excluded.append((x, "height function degenerates"))
        elif cert.unresolved:
            excluded.append((x, "psi not proven monotone"))
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


class Equilibrium(NamedTuple):
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
    sampled at EQ_SAMPLES points of x_range.  g is taken to be monotone
    between the breaks of monotone_breaks: the ends of x_range, the
    critical points of g (found by zeroin on a secant slope from each
    sample where the sampled values turn), and the samples on a flat or
    beside a point where g is undefined (no transversal root, so no
    manifold).  A break with |g| <= EQ_TOL is a zero, a tangential one
    included; a piece whose ends differ in sign holds one, found by
    zeroin; and no zero is sought across an undefined point.  Stability
    is the sign of g' at the zero.
    """
    if system.dim != 2:
        raise ValueError("equilibria tracking is implemented for planar systems only")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    lo, hi = float(x_range[0]), float(x_range[1])
    if not -math.inf < lo < hi < math.inf:  # NaN fails it too
        raise ValueError(f"x_range must be finite and increasing, got {x_range}")

    def g(x: float) -> float:
        root = most_transversal(height_roots(system, transition, x))
        if root is None:
            return math.nan
        return blowup._e_blend(system, transition, x, root.t, eps)[0]

    delta = (hi - lo) / (EQ_SAMPLES - 1) / 2.0

    def secant_slope(x: float) -> float:
        return g(min(x + delta, hi)) - g(max(x - delta, lo))

    def stability_of(x: float) -> int:
        d = secant_slope(x) / (2.0 * delta)
        if abs(d) <= 1e-6:
            return 0
        return 1 if d > 0 else -1

    xs, gs = monotone_breaks(g, secant_slope, linspace(lo, hi, EQ_SAMPLES))
    return [Equilibrium(x, stability_of(x)) for x in monotone_zeros(g, xs, gs, EQ_TOL)]
