"""Property test: the generated regularized field and Jacobian against the
formulas they replace, bit for bit.

The reference keeps each transition's hand-written psi and psi' (the cubic,
the Moebius map of biased, the bump of overshoot), a custom psi's compiled
trees, the clamps of value, deriv_t and deriv_x, and the chains
value -> _blend and (value, deriv_x, deriv_t/eps) -> _blend_jacobian.
Every entry is compared by float.hex, an error by its type and message.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from filippov import expr as ex
from filippov.expr import DomainError
from filippov.regularize import make_transition, regularized_field, regularized_jacobian
from filippov.system import system_from_strings


def cubic(t):
    return (3.0 * t - t ** 3) / 2.0


def cubic_d(t):
    return (3.0 - 3.0 * t * t) / 2.0


class Reference:
    """psi, psi' and d(psi)/dx of one transition, as written before they
    became expression trees."""

    def __init__(self, kind, param, x_names):
        self.x_names = x_names
        if kind == "smoothstep":
            self.core = lambda t, x: cubic(t)
            self.core_d = lambda t, x: cubic_d(t)
        elif kind == "biased":
            w = lambda t: (t - param) / (1.0 - param * t)
            self.core = lambda t, x: cubic(w(t))
            self.core_d = lambda t, x: cubic_d(w(t)) * ((1.0 - param * param) / (1.0 - param * t) ** 2)
        elif kind == "overshoot":
            c = make_transition("overshoot", m=param).c
            self.core = lambda t, x: cubic(t) + c * (1.0 - t * t) * (1.0 - t * t)
            self.core_d = lambda t, x: cubic_d(t) - 4.0 * c * t * (1.0 - t * t)
        else:
            names = ("t",) + x_names
            tree = ex.parse(param)
            psi = ex.compile((tree,), names)
            dpsi = ex.compile((ex.differentiate(tree, "t"),), names)
            self.dpsi_dx = ex.compile([ex.differentiate(tree, n) for n in x_names], names)
            self.core = lambda t, x: psi(t, *x[:len(x_names)])[0]
            self.core_d = lambda t, x: dpsi(t, *x[:len(x_names)])[0]

    def value(self, t, x):
        if t < -1.0:
            return -1.0
        if t > 1.0:
            return 1.0
        return self.core(t, x)

    def deriv_t(self, t, x):
        if t <= -1.0 or t >= 1.0:
            return 0.0
        return self.core_d(t, x)

    def deriv_x(self, t, x):
        if not self.x_names or t <= -1.0 or t >= 1.0:
            return [0.0] * len(x)
        grad = list(self.dpsi_dx(t, *x[:len(self.x_names)]))
        return grad + [0.0] * (len(x) - len(grad))

    def field(self, system, eps, point):
        return system._blend(self.value(point[-1] / eps, point[:-1]), *point)

    def jacobian(self, system, eps, point):
        t, xs = point[-1] / eps, point[:-1]
        psi = self.value(t, xs)
        try:
            grad = self.deriv_x(t, xs) + [self.deriv_t(t, xs) / eps]
        except (DomainError, ArithmeticError, ValueError):
            system.plus.jacobian_rows(point)
            system.minus.jacobian_rows(point)
            raise
        return system._blend_jacobian(psi, *grad, *point)


# at |x| = 1e10 and beyond, 1e300*x*x overflows to inf and inf - inf is NaN:
# the half jump d is not finite, and so are the field and its partials
SYSTEMS = {
    "smooth": system_from_strings(("x", "y"), ("x*y + sin(y)", "2*x - y^2"),
                                  ("1 + x^2", "exp(-x)*(2 + y)")),
    "overflowing": system_from_strings(("x", "y"), ("1e300*x*x", "1e300*x*x - 1e300*x*x + y"),
                                       ("x", "1 - y")),
    "3d": system_from_strings(("x", "u", "y"), ("u*y - sin(x)", "x + y^2", "cos(u) - 1.5"),
                              ("1 + x*u", "exp(-y)*x", "2 + tanh(x - y)")),
}
# kind -> its parameter: t0, m, or the expression of a custom psi, which
# uses x or not
KINDS = {
    "smoothstep": st.none(),
    "biased": st.floats(-0.95, 0.95),
    "overshoot": st.floats(1.01, 20.0),
    "custom": st.just("(3*t - t^3)/2 + 0.4*(1 - t^2)^2"),
    "custom_x": st.just("(3*t - t^3)/2 + x*(1 - t^2)^2/4"),
}
# y/eps inside the band, outside it, on its edges; y = +-0.0
STRETCHED = st.one_of(st.floats(-0.999, 0.999), st.floats(1.001, 50.0), st.floats(-50.0, -1.001),
                      st.sampled_from([1.0, -1.0, 0.0, -0.0]))
X = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([1e10, -1e10, 1e155]))


def outcome(call):
    """The hex of every entry of call(), or the type and message it raised."""
    try:
        value = call()
    except (DomainError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    rows = value if isinstance(value[0], list) else [value]
    return [[float.hex(v) for v in row] for row in rows]


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    param = draw(KINDS[kind])
    system = draw(st.sampled_from(sorted(SYSTEMS)))
    return kind, param, system, draw(st.floats(1e-4, 0.2)), draw(X), draw(STRETCHED)


def check(kind, param, system_name, eps, x, s):
    system = SYSTEMS[system_name]
    x_names = system.x_names if kind == "custom_x" else ()
    kind = kind.removesuffix("_x")
    params = {"smoothstep": {}, "biased": {"t0": param}, "overshoot": {"m": param}}.get(
        kind, {"expr": param})
    transition = make_transition(kind, x_names, **params)
    reference = Reference(kind, param, x_names)
    y = s if s == 0.0 else (math.copysign(eps, s) if abs(s) == 1.0 else s * eps)
    point = [x] + [0.7 - x] * (system.dim - 2) + [y]
    assert outcome(lambda: regularized_field(system, transition, eps, point)) == outcome(
        lambda: reference.field(system, eps, point)), point
    assert outcome(lambda: regularized_jacobian(system, transition, eps, point)) == outcome(
        lambda: reference.jacobian(system, eps, point)), point


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(case=cases())
# in the band with a half jump that is not finite: d * 0.0 is NaN in x columns
@example(case=("smoothstep", None, "overflowing", 0.1, 1e10, 0.5))
@example(case=("overshoot", 2.0, "overflowing", 0.01, -1e10, -0.3))
@example(case=("biased", 0.3, "overflowing", 0.001, 1e155, 0.9))
def test_generated_regularized_field_is_the_reference_bit_for_bit(case):
    check(*case)
