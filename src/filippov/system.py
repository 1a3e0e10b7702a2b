"""Piecewise-smooth systems split by a codimension-one switching surface.

Everything works in an adapted chart: coordinates (x_1, ..., x_{n-1}, y)
with the switching surface Sigma = {y = 0}.  The last coordinate is always
the distinguished normal one.  A field's y-component controls how orbits
meet Sigma; the tangential components move points along it.
"""

from __future__ import annotations

import enum
import math
import numbers
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from . import expr as ex

if TYPE_CHECKING:
    import numpy as np

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


def _floats(rows: Sequence) -> np.ndarray:
    """rows as a float array, the one form the library returns arrays in and
    checks array arguments by (VectorFieldDef._point).  This is the
    library's one runtime import of numpy, on first use: the command line
    runs on floats."""
    import numpy as np
    return np.array(rows, dtype=float)


class VectorFieldDef:
    """A smooth vector field given componentwise by expressions.

    ``coords`` are the chart coordinate names in order, the last being the
    normal coordinate y, and ``dim`` is their number: the chart is fixed
    when the field is built.  ``components[i]`` is the coefficient of
    d/d(coords[i]).
    """

    def __init__(self, coords: tuple[str, ...], components: tuple[ex.Expr, ...]):
        self.coords = coords
        self.components = components
        self.dim = len(coords)
        if len(coords) != len(components):
            raise ValueError(f"{len(coords)} coordinates but {len(components)} components")
        if len(coords) < 2:
            raise ValueError("need at least two coordinates (tangential + normal)")
        if len(set(coords)) != len(coords):
            raise ValueError(f"duplicate coordinate names in {coords}")
        allowed = set(coords)
        for name, comp in zip(coords, components):
            extra = ex.free_vars(comp) - allowed
            if extra:
                raise ValueError(
                    f"component for {name} uses unknown variables {sorted(extra)}"
                )

    def _point(self, point: Sequence[float]) -> list[float]:
        pt = _floats(point)
        if pt.shape != (self.dim,):
            raise ValueError(f"expected point of dimension {self.dim}, got shape {pt.shape}")
        return pt.tolist()

    @cached_property
    def _components(self):
        return ex.compile(self.components, self.coords)

    def evaluate(self, point: Sequence[float]) -> np.ndarray:
        return _floats(self._components(*self._point(point)))

    def values(self, point: Sequence[float]) -> tuple[float, ...]:
        """evaluate(point) as a tuple of floats, at a chart point of dim
        floats (unchecked)."""
        return self._components(*point)

    @cached_property
    def _partial_trees(self) -> tuple[ex.Expr, ...]:
        """d(components[i])/d(coords[j]), row by row."""
        return tuple(ex.differentiate(c, name) for c in self.components for name in self.coords)

    @cached_property
    def _partials(self):
        # built on first use: the integrators need them, the grid commands do not
        return ex.compile(self._partial_trees, self.coords)

    def jacobian(self, point: Sequence[float]) -> np.ndarray:
        """The matrix d(components[i])/d(coords[j]) at a chart point."""
        return _floats(self.jacobian_rows(self._point(point)))

    def jacobian_rows(self, point: Sequence[float]) -> list[tuple[float, ...]]:
        """The rows of jacobian(point) as tuples of floats, at a chart point
        of dim floats (unchecked)."""
        partials, n = self._partials(*point), self.dim
        return [partials[i:i + n] for i in range(0, n * n, n)]


def field_from_strings(coords: Sequence[str], components: Sequence[str]) -> VectorFieldDef:
    return VectorFieldDef(tuple(coords), tuple(ex.parse(c) for c in components))


class PiecewiseSystem:
    """Two smooth fields glued along Sigma = {y = 0}.

    ``plus`` governs y > 0 and ``minus`` governs y < 0.  Both must share the
    same coordinate chart, which is fixed when the system is built:
    ``coords``, ``dim``, the tangential ``x_names`` and the normal
    ``y_name`` are plus's.  ``normal_traces`` are their y-components at y = 0.
    """

    def __init__(self, plus: VectorFieldDef, minus: VectorFieldDef):
        if plus.coords != minus.coords:
            raise ValueError(f"field charts disagree: {plus.coords} vs {minus.coords}")
        self.plus = plus
        self.minus = minus
        self.coords = plus.coords
        self.dim = plus.dim
        self.x_names = plus.coords[:-1]
        self.y_name = plus.coords[-1]
        self.normal_traces = (
            ex.substitute(plus.components[-1], {self.y_name: 0.0}),
            ex.substitute(minus.components[-1], {self.y_name: 0.0}),
        )

    def tangential(self, x: Sequence[float] | float) -> tuple[float, ...]:
        """Sigma coordinates as a checked tuple of floats; a bare number is a planar x."""
        # float and int first: numbers.Real is an ABC, whose check is slow
        real = type(x) is float or type(x) is int or isinstance(x, numbers.Real)
        xs = (float(x),) if real else tuple(map(float, x))
        if len(xs) != self.dim - 1:
            raise ValueError(f"expected {self.dim - 1} tangential coordinates, got {len(xs)}")
        return xs

    @cached_property
    def _normal_traces(self):
        return ex.compile(self.normal_traces, self.x_names)

    def normal_components_on_sigma(self, x: Sequence[float] | float) -> tuple[float, float]:
        """(a_plus, a_minus) evaluated at (x, 0), as _sliding_level reads them."""
        return _sliding_level(self, x)[1:3]

    # the psi-blend at a given psi and its Jacobian, built on first use
    @cached_property
    def _blend(self):
        return _blend_function(self, jacobian=False)

    @cached_property
    def _blend_jacobian(self):
        return _blend_function(self, jacobian=True)


def _blend_function(system: PiecewiseSystem, jacobian: bool, transition=None,
                    eps: float | None = None):
    """The psi-blend (1 + psi)/2 * X_plus + (1 - psi)/2 * X_minus as one
    straight-line function of floats, with the fields inlined by expr's
    emitter:

    - field(psi, *point) returns the blended components as a list;
    - jacobian(psi, *grad, *point) returns the rows of the blended field
      Jacobians, plus d_i * grad[j] in row i and column j with d the half
      jump (X_plus - X_minus)/2, unless every entry of grad is 0 (a signed
      zero entry then stays as the blend left it).

    Given a transition and a band width eps, either takes (time, state)
    and inlines psi and grad at t = y/eps from the transition's trees, as
    its value, deriv_x and deriv_t/eps give them, all of grad in their one
    band (a NaN t inside).  This one formula of the blend, every entry
    wp*p + wm*m with wp = 0.5*(1.0 + psi) and wm = 0.5*(1.0 - psi), is also
    a slide's at psi = r (filippov_tangent).

    Where an operation raises, the emitter's fallback walks the trees in
    emission order (psi's only where their band branch ran): psi, the
    partials, psi's gradient, the values, plus before minus each time: the
    order of the calls the function stands for.  A value can fail only
    where grad is nonzero, since otherwise it is never computed.  The
    source depends only on the trees' shapes (eps and a kind's parameters
    are constants), so same-shaped systems share one code object.
    """
    n = system.dim
    emitter = ex.Emitter(system.coords)
    point = emitter.params
    grad = [f"g{j}" for j in range(n)]

    def listed(items) -> str:
        return f"[{', '.join(items)}]"

    def blended(plus_trees, minus_trees) -> list[str]:
        plus, minus = emitter.emit(plus_trees), emitter.emit(minus_trees)
        return [f"wp * {p} + wm * {m}" for p, m in zip(plus, minus)]

    def band(inside: str, t: str, trees, names: Sequence[str], outside: str) -> list[str]:
        # if inside: bind t, the name the trees read t from in this branch,
        # and assign their values to names; else assign them outside
        done = len(emitter.body)
        values = emitter.emit(trees, {"t": t, **dict(zip(transition.x_names, point[:-1]))})
        lines = [f"{t} = t", *emitter.body[done:], *map("{} = {}".format, names, values)]
        del emitter.body[done:]
        return [f"if {inside}:", *(f"    {line}" for line in lines),
                "else:", *(f"    {name} = {outside}" for name in names)]

    if transition is None:
        params, body = ["psi", *grad, *point] if jacobian else ["psi", *point], []
    else:  # the band test of value; that of deriv_x and deriv_t follows
        params, c_eps = ["time", "state"], emitter.constant(float(eps))
        body = [*emitter.unpack("state"), f"t = {point[-1]} / {c_eps}",
                *band("not (t < -1.0 or t > 1.0)", "tv", [transition.expression], ["psi"],
                      "-1.0 if t < -1.0 else 1.0")]
    weights = ["wp = 0.5 * (1.0 + psi)", "wm = 0.5 * (1.0 - psi)"]
    if not jacobian:
        entries = blended(system.plus.components, system.minus.components)
        return emitter.function(params, [*body, *emitter.body, *weights,
                                         f"return {listed(entries)}"])
    entries = blended(system.plus._partial_trees, system.minus._partial_trees)
    rows = [entries[i * n:(i + 1) * n] for i in range(n)]
    body += [*emitter.body, *weights]
    if transition is not None:
        gradient = [*transition.gradient, *[ex.Const(0.0)] * n][:n - 1]  # 0 past x_names
        body += [*band("not (t <= -1.0 or t >= 1.0)", "tg", [*gradient, transition.derivative],
                       grad, "0.0"), f"{grad[-1]} = {grad[-1]} / {c_eps}"]
    done = len(emitter.body)
    body += [f"if not ({' or '.join(grad)}):", f"    return {listed(map(listed, rows))}"]
    plus, minus = emitter.emit(system.plus.components), emitter.emit(system.minus.components)
    body += emitter.body[done:]
    body += [f"d{i} = 0.5 * ({p} - {m})" for i, (p, m) in enumerate(zip(plus, minus))]
    body.append("return " + listed(listed(f"{v} + d{i} * {g}" for v, g in zip(row, grad))
                                   for i, row in enumerate(rows)))
    return emitter.function(params, body)


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
    sliding orbit can locate its exit on it.
    """
    return _margin(*_sliding_level(system, x)[1:3])


def classify_point(system: PiecewiseSystem, x: Sequence[float] | float) -> SigmaClass:
    """Classify the Sigma point with tangential coordinates ``x``.

    The signs of the normal components decide: equal signs mean orbits sew
    straight through, opposite signs mean both fields point at the surface
    (or both away) and a sliding segment exists.  A component within
    CLASS_TOL of zero relative to the other is left as singular rather than
    forced into either class; the test is unchanged by positive rescaling
    of the fields.  A point _sliding_level refuses raises DomainError.
    """
    _, a_plus, a_minus, _ = _sliding_level(system, x)
    if _margin(a_plus, a_minus) > 0.0:
        return SigmaClass.SLIDING
    if _margin(a_plus, -a_minus) > 0.0:  # flipping a_minus swaps sewing and sliding
        return SigmaClass.SEWING
    return SigmaClass.SIGMA_SINGULAR


def _sliding_level(system: PiecewiseSystem, x: Sequence[float] | float):
    """(x, a_plus, a_minus, r) from one parse of x, with x the checked tuple
    of floats, a_pm the normal components at (x, 0) and r the level
    -(a_plus + a_minus)/(a_plus - a_minus) = 2*lam - 1 of psi that the
    certificate, a slide's field and its Jacobian share; r is None where
    a_plus = a_minus, its pole.  It is the one reader of a surface point,
    and refuses one whose x or a_pm are not finite by DomainError."""
    xs = system.tangential(x)
    a_plus, a_minus = system._normal_traces(*xs)
    if not all(map(math.isfinite, xs)):
        raise ex.DomainError(f"tangential coordinates {xs} are not finite")
    if not (math.isfinite(a_plus) and math.isfinite(a_minus)):
        raise ex.DomainError(f"normal components {a_plus}, {a_minus} at x = {xs} are not finite")
    diff = a_plus - a_minus
    return xs, a_plus, a_minus, None if diff == 0.0 else -(a_plus + a_minus) / diff


def filippov_tangent(
    system: PiecewiseSystem, x: Sequence[float] | float
) -> tuple[float, list[float]] | None:
    """(lam, the tangential components of the psi-blend at psi = r) at
    (x, 0), on floats and with no class gate: the right-hand side of a
    slide.  At r = 2*lam - 1, the level height_roots solves psi = r for,
    the blend is tangent to Sigma, and lam = (1 + r)/2 is the Filippov
    weight it gives X_plus.  None where a_plus = a_minus, the pole of r.
    """
    xs, _, _, r = _sliding_level(system, x)
    if r is None:
        return None
    return 0.5 * (1.0 + r), system._blend(r, *xs, 0.0)[:-1]


def filippov_jacobian(system: PiecewiseSystem, x: Sequence[float] | float) -> list[list[float]] | None:
    """d/dx of filippov_tangent at (x, 0), as rows of floats.

    The tangential rows and columns of the blend Jacobian at psi = r with
    the gradient of r = 2*lam - 1.  That is 2 grad(lam), and grad(lam) is
    the tangential part of the last row of the blended field Jacobians
    over a_minus - a_plus.  None where filippov_tangent is None.
    """
    xs, a_plus, a_minus, r = _sliding_level(system, x)
    if r is None:
        return None
    point, denom = (*xs, 0.0), a_minus - a_plus
    normal = system._blend_jacobian(r, *[0.0] * system.dim, *point)[-1]
    grad = [2.0 * v / denom for v in normal[:-1]]
    return [row[:-1] for row in system._blend_jacobian(r, *grad, 0.0, *point)[:-1]]


def filippov_sliding_field(
    system: PiecewiseSystem, x: Sequence[float] | float
) -> tuple[float, np.ndarray]:
    """Convex combination of the two fields tangent to Sigma at (x, 0).

    Returns (lam, lam * X_plus + (1 - lam) * X_minus) at points that
    classify as Sliding and raises NotSlidingError everywhere else.  lam
    and the tangential components are filippov_tangent's; the y-component
    is 0, since lam * a_plus + (1 - lam) * a_minus cancels exactly.
    """
    verdict = classify_point(system, x)
    if verdict != SigmaClass.SLIDING:
        raise NotSlidingError(system.tangential(x), verdict)
    lam, tangent = filippov_tangent(system, x)  # Sliding has a_plus != a_minus
    return lam, _floats(tangent + [0.0])
