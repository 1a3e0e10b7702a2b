import math
import random

import numpy as np
import pytest

from filippov.expr import DomainError
from filippov import regularize
from filippov.regularize import (
    Biased,
    Custom,
    DegenerateInterval,
    HeightRoot,
    Overshoot,
    Smoothstep,
    TransitionFunction,
    UnresolvedInterval,
    ValidationFailure,
    Verdict,
    bisect_sign_change,
    certify,
    height,
    height_roots,
    linspace,
    make_transition,
    monotone_breaks,
    monotone_zeros,
    most_transversal,
    regularized_field,
    regularized_jacobian,
    zeroin,
)
from filippov.system import SigmaClass, classify_point, system_from_strings

from filippov.blowup import e_chart_field, f_chart_field
from filippov.cross import (
    NonMonotoneTransitionError,
    double_regularized_field,
    stratified_slide_curve,
    transition_zero,
)
from filippov.dynamics import NoSlidingAtError, equilibria_on_manifold, track_manifold
from test_cross import attracting_cross


def fold():
    return system_from_strings(("x", "y"), ("1", "2*x"), ("1", "2"))


def cubic_inverse(v):
    # the unique t in [-1, 1] with (3t - t^3)/2 = v
    return 2.0 * math.sin(math.asin(v) / 3.0)


# ---------------------------------------------------------------------------
# transition functions


def test_smoothstep_values():
    s = Smoothstep()
    assert s.value(0.0) == 0.0
    assert s.value(0.5) == 0.6875
    assert s.value(-0.5) == -0.6875
    assert s.deriv_t(0.0) == 1.5
    # clamped outside the band, derivative zero there
    for t in (1.0, 1.5, 42.0):
        assert s.value(t) == 1.0
        assert s.value(-t) == -1.0
        assert s.deriv_t(t) == 0.0


def test_smoothstep_is_odd_and_monotone():
    s = Smoothstep()
    ts = np.linspace(-1, 1, 201)
    for t in ts:
        assert s.value(float(t)) == pytest.approx(-s.value(float(-t)), abs=1e-15)
    vals = [s.value(float(t)) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_overshoot_peak_calibration():
    for m in (1.2, 2.0, 3.5):
        ov = Overshoot(m)
        ts = np.linspace(-1, 1, 4001)
        k = int(np.argmax([ov.value(float(t)) for t in ts]))
        # refine the peak location: the slope changes sign across it
        a, b = float(ts[k - 1]), float(ts[k + 1])
        for _ in range(60):
            mid = 0.5 * (a + b)
            if ov.deriv_t(mid) > 0:
                a = mid
            else:
                b = mid
        assert ov.value(0.5 * (a + b)) == pytest.approx(m, abs=1e-8)
        assert ov.value(1.0) == 1.0
        assert ov.value(-1.0) == -1.0
    # calibration is deterministic
    assert Overshoot(2.0).c == Overshoot(2.0).c


def test_overshoot_validates_large_peaks():
    # the peak check is relative: an absolute 1e-8 lies below one ulp of m
    # once m exceeds about 7e7, which rejected m = 1e8
    for m in (1e8, 1e12):
        ov = make_transition("overshoot", m=m)
        assert abs(ov.value(3.0 / (8.0 * ov.c)) - m) <= 1e-12 * m
    # m^2 overflows in the closed form: a NaN peak is rejected, not accepted
    with pytest.raises(ValidationFailure, match="interior max nan"):
        make_transition("overshoot", m=1e200)


def test_overshoot_built_directly_rejects_a_nan_peak():
    # make_transition's checks are not needed: construction itself refuses
    # the c = nan the overflowing closed form gives
    with pytest.raises(ValidationFailure, match="interior max nan"):
        Overshoot(1e200)
    assert Overshoot(1e12).c > 0.0


def test_overshoot_calibration_cannot_be_bypassed():
    with pytest.raises(TypeError):
        Overshoot(2.0, c=1.0)


def test_overshoot_requires_m_above_one():
    with pytest.raises(ValidationFailure):
        Overshoot(1.0)
    with pytest.raises(ValidationFailure):
        Overshoot(0.5)


def test_biased_zero_location():
    for t0 in (-0.5, 0.0, 0.7):
        b = Biased(t0)
        assert b.value(t0) == pytest.approx(0.0, abs=1e-15)
        assert b.value(1.0) == 1.0
        assert b.value(-1.0) == -1.0
        vals = [b.value(float(t)) for t in np.linspace(-1, 1, 301)]
        assert all(y > x for x, y in zip(vals, vals[1:]))
    with pytest.raises(ValidationFailure):
        Biased(1.0)
    with pytest.raises(ValidationFailure):
        Biased(-1.5)


def test_custom_transition():
    c = Custom("t*(3 - t^2)/2 + 0.1*x*(1 - t^2)", ("x",))
    assert c.value(0.5, (0.0,)) == 0.6875
    assert c.value(0.5, (1.0,)) == pytest.approx(0.6875 + 0.075)
    # clamping forces constancy outside the band for any x
    assert c.value(3.0, (0.3,)) == 1.0
    assert c.value(-3.0, (0.3,)) == -1.0
    # symbolic t-derivative
    assert c.deriv_t(0.0, (0.0,)) == pytest.approx(1.5)
    assert c.deriv_t(2.0, (0.0,)) == 0.0


def test_make_transition_validates():
    assert isinstance(make_transition("smoothstep"), Smoothstep)
    assert make_transition("overshoot", m=2.0).m == 2.0
    assert make_transition("biased", t0=0.25).t0 == 0.25
    tf = make_transition("custom", expr="t*(3 - t^2)/2")
    assert tf.value(0.5) == 0.6875
    with pytest.raises(ValidationFailure):
        make_transition("nope")
    with pytest.raises(ValidationFailure):
        make_transition("smoothstep", m=2.0)
    with pytest.raises(ValidationFailure, match="needs 'm'"):
        make_transition("overshoot")
    # custom expressions that miss the boundary values are rejected
    with pytest.raises(ValidationFailure):
        make_transition("custom", expr="t/2")
    with pytest.raises(ValidationFailure):
        make_transition("custom", expr="t^2")
    with pytest.raises(ValidationFailure):
        make_transition("custom", expr="t + q")


def test_custom_checks_its_own_band_edges():
    # built directly, psi = t^2 would jump at the lower band edge: psi(-1) = 1,
    # while the clamp holds psi = -1 below it
    with pytest.raises(ValidationFailure, match=r"psi\(-1.0\) = 1.0"):
        Custom("t^2")
    with pytest.raises(ValidationFailure, match=r"at x = \(-1.0,\)"):
        Custom("(3*t - t^3)/2 + x", ("x",))
    # NaN fails every comparison, so a psi that is NaN everywhere passed the
    # check; sqrt(t) raised DomainError out of the constructor
    with pytest.raises(ValidationFailure, match=r"psi\(-1.0\) = nan"):
        Custom("(3*t - t^3)/2 + 1e200*t*1e200 - 1e200*t*1e200")
    with pytest.raises(ValidationFailure,
                       match=r"psi\(-1.0\) undefined at x = \(-1.0,\): sqrt of negative value -1.0"):
        Custom("sqrt(t)", ("x",))


def test_custom_transition_messages():
    # a coordinate named t would be overwritten by the stretched variable
    with pytest.raises(ValidationFailure, match="coordinate 't' clashes"):
        make_transition("custom", ("t",), expr="(3*t - t^3)/2")
    # boundary violations name the point in plain floats
    with pytest.raises(ValidationFailure) as err:
        make_transition("custom", ("x",), expr="(3*t - t^3)/2 + x")
    assert "at x = (-1.0,)" in str(err.value)
    assert "np." not in str(err.value)


# ---------------------------------------------------------------------------
# regularized field


def test_regularized_field_matches_sides_outside_band():
    sys = fold()
    tf = Smoothstep()
    eps = 0.1
    for x in (-0.7, 0.3):
        up = regularized_field(sys, tf, eps, (x, 0.2))
        assert np.array_equal(up, sys.plus.evaluate((x, 0.2)))
        down = regularized_field(sys, tf, eps, (x, -0.15))
        assert np.array_equal(down, sys.minus.evaluate((x, -0.15)))


def test_regularized_field_blends_inside_band():
    sys = fold()
    tf = Smoothstep()
    v = regularized_field(sys, tf, 0.1, (0.5, 0.05))
    psi = tf.value(0.5)
    expect = 0.5 * (1 + psi) * sys.plus.evaluate((0.5, 0.05)) + 0.5 * (
        1 - psi
    ) * sys.minus.evaluate((0.5, 0.05))
    assert np.allclose(v, expect)
    with pytest.raises(ValueError):
        regularized_field(sys, tf, 0.0, (0.5, 0.0))
    with pytest.raises(ValueError):
        regularized_field(sys, tf, -0.1, (0.5, 0.0))


JACOBIAN_FIELDS = system_from_strings(
    ("x", "y"), ("x*y + sin(y)", "2*x - y^2"), ("1 + x^2", "exp(-x)*(2 + y)")
)


@pytest.mark.parametrize("transition", [
    Smoothstep(),
    Biased(0.3),
    Overshoot(2.0),
    Custom("(3*t - t^3)/2 + x*(1 - t^2)^2/4", ("x",)),  # depends on x inside the band
], ids=["smoothstep", "biased", "overshoot", "custom_x"])
@pytest.mark.parametrize("t", [-3.0, -0.6, 0.05, 0.45, 0.93, 2.5])  # y/eps, in and out of the band
def test_regularized_jacobian_matches_central_differences(transition, t):
    eps = 1e-3
    for x in (-0.8, 0.3, 0.9):
        point = np.array([x, eps * t])
        jac = np.array(regularized_jacobian(JACOBIAN_FIELDS, transition, eps, point))
        for j in range(2):
            # steps well inside the band: psi is only C1 at its edges
            step = 1e-6 * (eps if j == 1 else 1.0)
            e = np.zeros(2)
            e[j] = step
            fd = (np.array(regularized_field(JACOBIAN_FIELDS, transition, eps, point + e))
                  - np.array(regularized_field(JACOBIAN_FIELDS, transition, eps, point - e))) / (2 * step)
            assert np.allclose(jac[:, j], fd, rtol=1e-6, atol=1e-6), (x, j, jac[:, j], fd)
    with pytest.raises(ValueError):
        regularized_jacobian(JACOBIAN_FIELDS, transition, 0.0, (0.0, 0.0))


FIELDS_3D = system_from_strings(
    ("x1", "x2", "y"),
    ("x2*y - sin(x1)", "x1 + y^2", "cos(x2) - 1.5"),
    ("1 + x1*x2", "exp(-y)*x1", "2 + tanh(x1 - y)"),
)
FLOAT_PATH_CASES = {
    "2d-smoothstep": (JACOBIAN_FIELDS, Smoothstep()),
    "2d-overshoot": (JACOBIAN_FIELDS, Overshoot(2.0)),
    "2d-custom_x": (JACOBIAN_FIELDS, Custom("(3*t - t^3)/2 + x*(1 - t^2)^2/4", ("x",))),
    "3d-smoothstep": (FIELDS_3D, Smoothstep()),
    "3d-overshoot": (FIELDS_3D, Overshoot(2.0)),
    "3d-custom_x": (FIELDS_3D, Custom("(3*t - t^3)/2 + x1*x2*(1 - t^2)^2/4", ("x1", "x2"))),
}


def _array_field(system, transition, eps, point):
    # the blend on numpy arrays, as the field was computed before it ran on floats
    pt = np.asarray(point, dtype=float)
    psi = transition.value(pt[-1] / eps, pt[:-1])
    return (0.5 * (1.0 + psi) * system.plus.evaluate(pt)
            + 0.5 * (1.0 - psi) * system.minus.evaluate(pt))


def _array_jacobian(system, transition, eps, point):
    pt = np.asarray(point, dtype=float)
    t, xs = pt[-1] / eps, pt[:-1]
    psi = transition.value(t, xs)
    jac = (0.5 * (1.0 + psi) * system.plus.jacobian(pt)
           + 0.5 * (1.0 - psi) * system.minus.jacobian(pt))
    grad = np.append(transition.deriv_x(t, xs), transition.deriv_t(t, xs) / eps)
    if grad.any():
        jac += np.outer(0.5 * (system.plus.evaluate(pt) - system.minus.evaluate(pt)), grad)
    return jac


@pytest.mark.parametrize("name", sorted(FLOAT_PATH_CASES))
def test_float_field_and_jacobian_match_the_array_blend_bit_for_bit(name):
    system, transition = FLOAT_PATH_CASES[name]
    eps = 1e-3
    # y/eps, in and out of the band, on its edges and at y = +-0.0
    for t in (-3.0, -1.0, -0.6, -0.0, 0.0, 0.05, 0.45, 0.93, 1.0, 2.5):
        for x in (-0.8, 0.3, 0.9):
            point = [x] + [0.7 - x] * (system.dim - 2) + [eps * t]
            want = _array_field(system, transition, eps, point)
            got = regularized_field(system, transition, eps, point)
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == want.tobytes(), (point, got, want)
            want = _array_jacobian(system, transition, eps, point)
            rows = regularized_jacobian(system, transition, eps, point)
            assert len(rows) == system.dim
            assert all(type(v) is float for row in rows for v in row)
            assert np.array(rows).tobytes() == want.tobytes(), (point, rows, want)


def _first_error(*calls):
    """The message of the DomainError that the first failing call raises."""
    with pytest.raises(DomainError) as err:
        for call in calls:
            call()
    return str(err.value)


@pytest.mark.parametrize("plus, minus, want", [
    ("1", "sqrt(x)", "sqrt of negative value -1.0"),  # only the minus field fails
    ("1/(x + 1)", "sqrt(x)", "division by zero"),  # both fail, plus first
], ids=["minus_only", "plus_first"])
def test_generated_field_raises_the_per_field_error(plus, minus, want):
    system = system_from_strings(("x", "y"), ("1", plus), ("1", minus))
    point = [-1.0, 0.001]
    per_field = _first_error(lambda: system.plus.values(point), lambda: system.minus.values(point))
    assert per_field == want
    assert _first_error(lambda: regularized_field(system, Smoothstep(), 0.01, point)) == want
    assert _first_error(lambda: system._blend(0.25, *point)) == want
    assert _first_error(lambda: regularized_jacobian(system, Smoothstep(), 0.01, point)) == want


def test_generated_jacobian_raises_the_partials_error_first():
    # at x = 1e-200 on the surface the minus partial -x^-2 overflows while
    # the plus value sgn(1/y) divides by zero; the partials come first
    system = system_from_strings(("x", "y"), ("1", "sgn(1/y)"), ("1", "x^-1"))
    point = [1e-200, 0.0]
    want = "overflow in 1e-200^-2"
    assert _first_error(lambda: system.plus.jacobian_rows(point),
                        lambda: system.minus.jacobian_rows(point),
                        lambda: system.plus.values(point)) == want
    assert _first_error(lambda: regularized_jacobian(system, Smoothstep(), 0.01, point)) == want
    field_error = _first_error(lambda: regularized_field(system, Smoothstep(), 0.01, point))
    assert field_error == "division by zero"


def test_generated_jacobian_skips_the_values_outside_the_band():
    # above the band psi is constant, so the Jacobian needs no value, and
    # the plus value that divides by zero at y = 0.5 is never computed
    system = system_from_strings(("x", "y"), ("x*y", "sgn(1/(y - 0.5))"), ("1", "x^2"))
    point = [0.3, 0.5]
    assert regularized_jacobian(system, Smoothstep(), 0.01, point) == [
        [1.0 * v + 0.0 * m for v, m in zip(rp, rm)]
        for rp, rm in zip(system.plus.jacobian_rows(point), system.minus.jacobian_rows(point))]
    field_error = _first_error(lambda: regularized_field(system, Smoothstep(), 0.01, point))
    assert field_error == "division by zero"


def test_generated_jacobian_keeps_the_partials_before_a_failing_psi_gradient():
    # d(psi)/dx divides by zero at x = 0, and the plus partials fail there
    # too; the field Jacobians come first, so their error is the one raised
    psi = Custom("(3*t - t^3)/2 + (1 - t^2)^2*sqrt(abs(x))^3/8", ("x",))
    system = system_from_strings(("x", "y"), ("1", "sqrt(x - 1)"), ("1", "1"))
    point = [0.0, 0.001]
    assert _first_error(lambda: psi.deriv_x(0.1, [0.0])) == "division by zero"
    want = "sqrt of negative value -1.0"
    assert _first_error(lambda: system.plus.jacobian_rows(point)) == want
    assert _first_error(lambda: regularized_jacobian(system, psi, 0.01, point)) == want


# sqrt(1 - x) is undefined past x = 1; the first psi is undefined outside
# the band, the second past x = 2, and its x-derivative divides by zero there
SQRT_FOLD = system_from_strings(("x", "y"), ("1", "sqrt(1 - x)"), ("1", "1"))
PSI_SQRT_T = "(3*t - t^3)/2 + 0.1*(1 - t^2)*sqrt(1 - t^2)"
PSI_SQRT_X = "(3*t - t^3)/2 + 0.1*(1 - t^2)*sqrt(2 - x)"


@pytest.mark.parametrize("psi, x, ts, want", [
    # psi is not evaluated outside the band, not even by the error path
    # (at t = 5 it would fail with -24.0): the field's error, everywhere
    (PSI_SQRT_T, 1.5, (5.0, -5.0, 0.5, -0.5, 1.0, -1.0), "-0.5"),
    # psi's error in the band and at its edges, the field's outside it
    (PSI_SQRT_X, 2.5, (0.5, -0.5, 1.0, -1.0), "-0.5"),
    (PSI_SQRT_X, 2.5, (5.0, -5.0), "-1.5"),
    # psi is defined at x = 2: the field's error, and in the Jacobian the
    # field Jacobian's, which comes before psi_x divides by zero
    (PSI_SQRT_X, 2.0, (0.5, -0.5, 1.0, -1.0, 5.0), "-1.0"),
], ids=["psi_undefined_outside_band", "psi_fails_in_band", "field_fails_outside_band",
        "field_jacobian_before_psi_gradient"])
def test_errors_come_in_the_order_of_the_calls(psi, x, ts, want):
    transition = Custom(psi, ("x",))
    for t in ts:
        for entry in (regularized_field, regularized_jacobian):
            with pytest.raises(DomainError) as err:
                entry(SQRT_FOLD, transition, 0.1, [x, 0.1 * t])  # y/eps is t exactly
            assert type(err.value) is DomainError
            assert str(err.value) == f"sqrt of negative value {want}", (entry.__name__, t)


def test_same_shaped_systems_share_the_generated_code():
    a = system_from_strings(("x", "y"), ("1.5", "2*x - y"), ("1", "exp(-3*y)"))
    b = system_from_strings(("u", "v"), ("-4", "0.5*u - v"), ("7", "exp(-0.25*v)"))
    assert b._blend.__code__ is a._blend.__code__
    assert b._blend_jacobian.__code__ is a._blend_jacobian.__code__
    point, psi = [0.3, -0.2], 0.25
    for system in (a, b):
        want = [0.5 * (1.0 + psi) * p + 0.5 * (1.0 - psi) * m
                for p, m in zip(system.plus.values(point), system.minus.values(point))]
        assert system._blend(psi, *point) == want


# ---------------------------------------------------------------------------
# height function


def test_height_fold():
    sys = fold()
    tf = Smoothstep()
    # a_plus = 2x, a_minus = 2: h = psi*(2x - 2) + (2x + 2)
    for x, t in ((-0.5, 0.2), (0.3, -0.7), (0.0, 1.0)):
        h, dh = height(sys, tf, x, t)
        assert h == pytest.approx(tf.value(t) * (2 * x - 2) + (2 * x + 2))
        assert dh == pytest.approx(tf.deriv_t(t) * (2 * x - 2))


def test_height_function_coefficients():
    # at x = -0.5: a_plus - a_minus = -3 and a_plus + a_minus = 1
    assert height(fold(), Smoothstep(), -0.5, 1.0)[0] == -2.0
    assert height(fold(), Smoothstep(), -0.5, -1.0)[0] == 4.0


def test_height_function_checks_dimension():
    # too many components were silently dropped, too few escaped as an
    # unbound variable; classify_point already rejected both
    with pytest.raises(ValueError, match="expected 1 tangential"):
        certify(fold(), Smoothstep(), (0.5, 7.0))
    sys3 = system_from_strings(("x1", "x2", "y"), ("1", "0", "x1"), ("1", "0", "x2"))
    with pytest.raises(ValueError, match="expected 2 tangential"):
        certify(sys3, Smoothstep(), (0.5,))
    with pytest.raises(ValueError, match="expected 2 tangential"):
        height_roots(sys3, Smoothstep(), 0.5)


def test_height_roots_fold_sliding():
    roots = height_roots(fold(), Smoothstep(), -0.5)
    assert len(roots) == 1
    (root,) = roots
    assert isinstance(root, HeightRoot)
    # h = 0 iff psi(t) = (x + 1)/(1 - x) = 1/3
    assert root.t == pytest.approx(cubic_inverse(1.0 / 3.0), abs=1e-11)
    assert root.dh_dt == pytest.approx(-3.0 * (3 - 3 * root.t ** 2) / 2, rel=1e-9)


def test_height_roots_fold_tangency():
    # at the graze the single zero sits on the band edge with zero slope
    roots = height_roots(fold(), Smoothstep(), 0.0)
    assert len(roots) == 1
    assert roots[0] == HeightRoot(1.0, -0.0, 0.0)


def test_height_roots_fold_sewing():
    assert height_roots(fold(), Smoothstep(), 0.5) == []


def test_height_roots_degenerate():
    # both normal components vanish identically at x = 0
    sys = system_from_strings(("x", "y"), ("1", "x"), ("1", "x"))
    found = height_roots(sys, Smoothstep(), 0.0)
    assert found == [DegenerateInterval(-1.0, 1.0)]


def test_height_roots_overshoot_extra_zeros():
    # the level (x+1)/(1-x) = 1.5 exceeds 1, so a monotone transition never
    # reaches it, but the overshoot crosses it on the way up and down
    sys = fold()
    ov = Overshoot(2.0)
    roots = height_roots(sys, ov, 0.2)
    assert len(roots) == 2
    assert all(isinstance(r, HeightRoot) for r in roots)
    level = (0.2 + 1) / (1 - 0.2)
    for r in roots:
        assert ov.value(r.t) == pytest.approx(level, abs=1e-9)
    # up-crossing then down-crossing: opposite slopes of h
    assert roots[0].dh_dt < 0 < roots[1].dh_dt
    assert height_roots(sys, Smoothstep(), 0.2) == []


def test_certify_fold():
    sys = fold()
    tf = Smoothstep()
    cert = certify(sys, tf, -0.5)
    assert cert.verdict == Verdict.SLIDING_CERTIFIED
    assert cert.witness is not None
    assert cert.witness.t == pytest.approx(cubic_inverse(1.0 / 3.0), abs=1e-11)

    cert = certify(sys, tf, 0.5)
    assert cert.verdict == Verdict.SEWING_CERTIFIED
    assert cert.roots == ()
    # the level r = (x + 1)/(1 - x) = 3 lies above the range [-1, 1] of psi
    assert tf.level_set(3.0) == ([], [])

    cert = certify(sys, tf, 0.0)
    assert cert.verdict == Verdict.INDETERMINATE
    assert cert.witness is None


def test_certify_degenerate_is_indeterminate():
    sys = system_from_strings(("x", "y"), ("1", "x"), ("1", "x"))
    cert = certify(sys, Smoothstep(), 0.0)
    assert cert.verdict == Verdict.INDETERMINATE
    assert cert.degenerate == (DegenerateInterval(-1.0, 1.0),)


def test_certify_overshoot_widens_sliding():
    # classification says sewing for 0 < x < 1/3 but the overshooting band
    # still traps orbits there
    sys = fold()
    ov = Overshoot(2.0)
    assert classify_point(sys, 0.2) == SigmaClass.SEWING
    assert certify(sys, ov, 0.2).verdict == Verdict.SLIDING_CERTIFIED
    assert certify(sys, ov, 0.4).verdict == Verdict.SEWING_CERTIFIED
    assert certify(sys, Smoothstep(), 0.2).verdict == Verdict.SEWING_CERTIFIED


def test_certificate_matches_classification_for_monotone():
    # for strictly monotone transitions the certificate and the sign test
    # agree wherever both are decisive
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(50):
        c = rng.uniform(-2, 2, size=8)
        sys = system_from_strings(
            ("x", "y"),
            ("1", f"{c[0]:.6f} + {c[1]:.6f}*x + {c[2]:.6f}*x^2 + {c[3]:.6f}*y"),
            ("1", f"{c[4]:.6f} + {c[5]:.6f}*x + {c[6]:.6f}*x^2 + {c[7]:.6f}*y"),
        )
        tf = Biased(float(rng.uniform(-0.8, 0.8)))
        for x in rng.uniform(-2, 2, size=20):
            ap, am = sys.normal_components_on_sigma(float(x))
            if abs(ap * am) < 1e-6 or abs(ap - am) < 1e-6:
                continue  # margin cases are allowed to stay indeterminate
            verdict = certify(sys, tf, float(x)).verdict
            checked += 1
            if ap * am < 0:
                assert verdict == Verdict.SLIDING_CERTIFIED
            else:
                assert verdict == Verdict.SEWING_CERTIFIED
    assert checked > 500


def test_certificate_invariant_under_positive_rescale():
    # multiplying both sides by one positive function changes time, not
    # orbits: verdicts and root locations survive
    rng = np.random.default_rng(17)
    base = fold()
    same = system_from_strings(
        ("x", "y"),
        ("(1 + x^2)*1", "(1 + x^2)*(2*x)"),
        ("(1 + x^2)*1", "(1 + x^2)*2"),
    )
    # a per-side rescale reparametrizes the band, moving roots in t, but the
    # sliding/sewing character is still the same
    sides = system_from_strings(
        ("x", "y"),
        ("(1 + x^2)*1", "(1 + x^2)*(2*x)"),
        ("2*1", "2*2"),
    )
    tf = Smoothstep()
    for x in rng.uniform(-1, 1, size=40):
        a = certify(base, tf, float(x))
        b = certify(same, tf, float(x))
        c = certify(sides, tf, float(x))
        assert a.verdict == b.verdict == c.verdict
        assert len(a.roots) == len(b.roots)
        for ra, rb in zip(a.roots, b.roots):
            assert ra.t == pytest.approx(rb.t, abs=1e-10)


def test_custom_transition_shifts_roots_with_x():
    # an x-dependent transition moves the root as the surface point moves
    tf = Custom("t*(3 - t^2)/2 + 0.3*x*(1 - t^2)", ("x",))
    sys = system_from_strings(("x", "y"), ("1", "-1"), ("1", "1"))
    # h = -2*psi(x, t): root where psi vanishes
    r0 = height_roots(sys, tf, 0.0)
    r1 = height_roots(sys, tf, 1.0)
    assert len(r0) == len(r1) == 1
    assert r0[0].t == pytest.approx(0.0, abs=1e-11)
    assert r1[0].t != pytest.approx(0.0, abs=1e-3)
    assert tf.value(r1[0].t, (1.0,)) == pytest.approx(0.0, abs=1e-11)


# ---------------------------------------------------------------------------
# level sets of psi


def test_level_set_exact_values():
    # a kind proven monotone in closed form has no unproven cell
    assert Smoothstep().level_set(0.0) == ([0.0], [])
    for t0 in (-0.5, 0.25, 0.3, 0.7):
        # cross.transition_zero hands this value on as the invariant line
        assert Biased(t0).level_set(0.0) == ([t0], [])
    # the band edges come back as they are: the closed form misses 1 by an ulp
    for tf in (Smoothstep(), Biased(0.3), Biased(-0.8)):
        assert tf.level_set(1.0) == ([1.0], [])
        assert tf.level_set(-1.0) == ([-1.0], [])
        assert tf.level_set(1.0 + 1e-15) == ([], []) == tf.level_set(-1.0 - 1e-15)
    ov = Overshoot(2.0)
    assert ov.level_set(-1.0) == ([-1.0], [])
    (rising, edge), cells = ov.level_set(1.0)
    assert -1.0 < rising < ov.u and edge == 1.0 and cells == []
    assert ov.value(rising) == pytest.approx(1.0, abs=1e-12)
    assert ov.level_set(2.0 + 1e-12) == ([], [])


@pytest.mark.parametrize("m", [1.5, 2.0, 4.0])
def test_overshoot_peak_level_is_a_tangency(m):
    ov = Overshoot(m)
    assert ov.level_set(m) == ([ov.u], [])
    # a_plus = m - 1 and a_minus = m + 1 put the level r = -(a+ + a-)/(a+ - a-) at m
    sys = system_from_strings(("x", "y"), ("1", f"{m - 1.0!r}"), ("1", f"{m + 1.0!r}"))
    cert = certify(sys, ov, 0.0)
    assert cert.verdict == Verdict.INDETERMINATE
    assert [r.t for r in cert.roots] == [ov.u]


def test_overshoot_just_below_its_boundary_slides():
    # the level 2 - 4.5e-9 sits just under the peak, where the two preimages
    # lie 1e-4 apart: a grid of 512 cells saw neither and said sewing
    cert = certify(fold(), Overshoot(2.0), 1.0 / 3.0 - 1e-9)
    assert cert.verdict == Verdict.SLIDING_CERTIFIED
    assert len(cert.roots) == 2
    for root in cert.roots:
        assert root.t == pytest.approx(0.2028, abs=1e-3)
    assert cert.roots[0].dh_dt < 0 < cert.roots[1].dh_dt


def test_custom_level_set_scans_like_the_closed_form():
    # the same cubic as a custom expression goes through its proven pieces
    cubic = Custom("(3*t - t^3)/2")
    for r in (-1.0, -0.6, 0.0, 1.0 / 3.0, 0.95, 1.0, 1.2):
        (got, cells), (want, _) = cubic.level_set(r), Smoothstep().level_set(r)
        assert len(got) == len(want) and cells == []
        assert got == pytest.approx(want, abs=1e-12)


def overshoot_as_custom(ov: Overshoot) -> Custom:
    return Custom(f"(3*t - t^3)/2 + {ov.c!r}*(1 - t^2)^2", ("x",))


def test_custom_level_set_finds_two_preimages_in_one_cell():
    # the two preimages near the peak lie 7e-5 apart, inside one cell of the
    # 512-cell grid: the scan of psi - r saw no sign change and said sewing
    ov = Overshoot(2.0)
    x = 1.0 / 3.0 - 1e-9
    cert = certify(fold(), overshoot_as_custom(ov), x)
    want = certify(fold(), ov, x)
    assert cert.verdict == want.verdict == Verdict.SLIDING_CERTIFIED
    assert len(cert.roots) == len(want.roots) == 2
    for got, exact in zip(cert.roots, want.roots):
        assert got.t == pytest.approx(exact.t, abs=1e-12)


def test_a_sample_near_the_level_is_no_preimage():
    # t^7 lies within ZERO_TOL of 0 on |t| < 0.037, and 19 samples of the
    # grid there each counted as a preimage, transversal ones among them:
    # SlidingCertified at t = -0.0352.  Its only zero, t = 0, is tangential
    tf = Custom("t^7")
    assert tf.level_set(0.0) == ([0.0], [])
    sys = system_from_strings(("x", "y"), ("1", "1"), ("1", "-1"))  # r = 0
    cert = certify(sys, tf, 0.0)
    assert cert.verdict == Verdict.INDETERMINATE
    assert [r.t for r in cert.roots] == [0.0]


def linspace_cases():
    """(a, b, n) with a < b: fixed and random counts over random finite ends
    of every scale, and spans of a few subnormals, whose step is 0."""
    rng = random.Random(21)
    ends = [(-1.0, 1.0), (0.0, 1.0)]
    for _ in range(40):
        scale = 10.0 ** rng.randint(-300, 300)
        a, b = sorted(rng.uniform(-scale, scale) for _ in range(2))
        ends.append((a, b) if a < b else (a, math.nextafter(a, math.inf)))
    cases = [(a, b, n) for a, b in ends for n in (2, 3, 11, 21, 201, 513)]
    cases += [(a, b, rng.randint(2, 10 ** 4)) for a, b in ends]
    tiny = 5e-324
    cases += [(k * tiny, (k + m) * tiny, n) for k in (-3, 0, 7) for m in (1, 2, 5) for n in (11, 201)]
    return cases


def test_linspace_is_numpys_bit_for_bit():
    cases = linspace_cases()
    assert sum((b - a) / (n - 1) == 0.0 for a, b, n in cases) == 18  # the underflow branch
    for a, b, n in cases:
        assert [*map(float.hex, linspace(a, b, n))] == [*map(float.hex, np.linspace(a, b, n))]


def test_breaks_of_a_custom_psi_are_its_ends_and_critical_points():
    ov = Overshoot(2.0)
    tf = overshoot_as_custom(ov)
    breaks, values = monotone_breaks(
        lambda t: tf.value(t, (0.0,)), lambda t: tf.deriv_t(t, (0.0,)),
        np.linspace(-1.0, 1.0, 513).tolist())
    assert len(breaks) == 3
    assert breaks[0] == -1.0 and breaks[2] == 1.0
    assert breaks[1] == pytest.approx(ov.u, abs=1e-12)
    assert values == pytest.approx([-1.0, 2.0, 1.0], abs=1e-12)


def test_flats_and_nans_are_breaks():
    ts = [float(k) for k in range(10)]
    table = [-3.0, -2.0, -1.0, -1.0, -1.0, 0.5, math.nan, 2.0, 3.0, 4.0]
    f = lambda t: float(np.interp(t, ts, table))

    def slope(t):
        raise AssertionError("no turn to locate")

    breaks, values = monotone_breaks(f, slope, ts)
    # the flat run 2..4, the NaN at 6 and the samples beside it, and the ends
    assert breaks == [0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0]
    assert values[:5] == [-3.0, -1.0, -1.0, -1.0, 0.5] and math.isnan(values[5])
    level = lambda r: monotone_zeros(lambda t: f(t) - r, breaks, [v - r for v in values], 0.0)
    assert level(-1.0) == [2.0, 3.0, 4.0]
    assert level(-2.5) == [0.5]
    # 1 lies between f(5) and f(7), across the NaN: no zero is sought there
    assert level(1.0) == []
    assert level(3.5) == [8.5]


def test_zeroin_stops_where_bisection_does():
    # an exact zero: the first probe of either, the secant and the midpoint
    for search in (zeroin, bisect_sign_change):
        assert search(lambda t: t - 0.5, 0.0, 1.0, 1e-14) == 0.5
    # a NaN probe is returned
    f = lambda t: t - 0.3 if t < 0.5 else math.nan
    t = zeroin(f, 0.0, 1.0, 1e-14, fa=-0.3, fb=0.01)
    assert 0.5 <= t < 1.0 and math.isnan(f(t))
    assert bisect_sign_change(lambda t: t - 0.3 if t < 0.75 else math.nan, 0.5, 1.0, 1e-14) == 0.75

    def never(t):
        raise AssertionError("a bracket narrower than tol needs no probe")

    assert zeroin(never, 0.0, 1e-15, 1e-14, fa=-1.0, fb=1.0) == 5e-16  # its midpoint
    # signs are compared, not multiplied: these products underflow to 0
    assert abs(zeroin(lambda t: 1e-200 * (t - 0.3), 0.0, 1.0, 1e-14) - 0.3) <= 1e-14


def test_zeroin_returns_a_probe_not_the_bracket_end():
    # the zero 1e-15 is closer to a = 0 than tol: Brent's zeroin ends with
    # the end a, where |f| is least, and the probe 5e-15 beside it
    t = zeroin(lambda t: t + t * t - 1e-15, 0.0, 1.0, 1e-14)
    assert t == 5e-15


def test_level_with_equal_normal_components():
    # a_plus = a_minus: h is the constant a_plus + a_minus, however small
    tiny = system_from_strings(("x", "y"), ("1", "1e-11"), ("1", "1e-11"))
    assert height_roots(tiny, Smoothstep(), 0.0) == []
    assert certify(tiny, Smoothstep(), 0.0).verdict == Verdict.SEWING_CERTIFIED
    assert classify_point(tiny, 0.0) == SigmaClass.SEWING


@pytest.mark.parametrize("scale", [10.0 ** k for k in range(-12, 13, 3)])
@pytest.mark.parametrize("tf", [Smoothstep(), Biased(0.3), Overshoot(2.0)],
                         ids=["smoothstep", "biased", "overshoot"])
def test_verdicts_survive_rescaling_the_fields(scale, tf):
    # a positive factor changes time, not orbits; absolute thresholds on h
    # and on a_plus * a_minus used to flip these verdicts at small scales
    k = repr(scale)
    sys = system_from_strings(("x", "y"), (f"{k}*1", f"{k}*(2*x)"), (f"{k}*1", f"{k}*2"))
    assert classify_point(sys, -0.5) == SigmaClass.SLIDING
    assert certify(sys, tf, -0.5).verdict == Verdict.SLIDING_CERTIFIED
    assert classify_point(sys, 0.5) == SigmaClass.SEWING
    assert certify(sys, tf, 0.5).verdict == Verdict.SEWING_CERTIFIED


def _psi_evaluations(monkeypatch, tf, run) -> int:
    """Evaluations of psi while run() goes: value calls and direct calls of
    the compiled psi, a call made from inside value counting once, and for
    a custom psi the calls of its enclosures too."""
    count = depth = 0

    def counting(method):
        def wrapper(*args, **kwargs):
            nonlocal count, depth
            count += depth == 0
            depth += 1
            try:
                return method(*args, **kwargs)
            finally:
                depth -= 1
        return wrapper

    monkeypatch.setattr(TransitionFunction, "value", counting(TransitionFunction.value))
    names = ["_psi", "_slope_bounds", "_psi_bounds"] if isinstance(tf, Custom) else ["_psi"]
    for name in names:
        monkeypatch.setattr(tf, name, counting(getattr(tf, name)))
    run()
    return count


@pytest.mark.parametrize("tf", [Smoothstep(), Biased(0.3), Overshoot(2.0)],
                         ids=["smoothstep", "biased", "overshoot"])
def test_certify_does_not_scan_built_in_transitions(monkeypatch, tf):
    # a t-grid scan costs 513 evaluations per point; the level set costs none
    # in closed form and two zeroin searches at most for the overshoot
    for x in (-0.9, -0.5, 0.0, 0.2, 1.0 / 3.0 - 1e-9, 0.5):
        assert _psi_evaluations(monkeypatch, tf, lambda: certify(fold(), tf, x)) <= 100


def test_overshoot_certify_costs_at_most_ten_psi_evaluations_per_root(monkeypatch):
    # zeroin on the two monotone branches; bisecting each to 1e-14 took 46.7
    # evaluations per root on this fold (7849 for 168 roots), zeroin 7.2
    tf, xs = Overshoot(2.0), linspace(-1.0, 1.0, 201)
    evaluations = _psi_evaluations(monkeypatch, tf, lambda: [certify(fold(), tf, x) for x in xs])
    roots = sum(len(certify(fold(), tf, x).roots) for x in xs)
    assert roots == 168
    assert evaluations <= 10 * roots


def test_tangential_reads_every_real_number_type_alike():
    # float and int skip the slow numbers.Real check; bool and numpy's
    # numbers still pass it
    system = fold()
    for x in (1.0, 1, True, np.float64(1.0), np.int64(1), (1.0,), [1], np.array([1.0])):
        got = system.tangential(x)
        assert got == (1.0,) and type(got[0]) is float, x
    for x in ((), (1.0, 2.0), np.array([1.0, 2.0])):
        with pytest.raises(ValueError, match="expected 1 tangential coordinates, got"):
            system.tangential(x)
    with pytest.raises(ValueError, match="expected 2 tangential coordinates, got 1"):
        system_from_strings(("x1", "x2", "y"), ("1", "0", "x1"), ("1", "0", "x2")).tangential(1)


def test_certify_of_an_x_dependent_custom_transition_is_cheap(monkeypatch):
    # a 513-node scan of psi per point is gone: a few enclosures prove the
    # pieces, and one zeroin search finds the root
    tf = Custom("tanh(3*t)/tanh(3) + 0.2*x*(1 - t^2)", ("x",))
    verdicts = set()
    for x in (-1.0, -0.9, -0.5, 0.0, 0.2, 0.5, 1.0):
        assert _psi_evaluations(monkeypatch, tf, lambda: certify(fold(), tf, x)) <= 100
        verdicts.add(certify(fold(), tf, x).verdict)
    assert Verdict.SLIDING_CERTIFIED in verdicts and Verdict.SEWING_CERTIFIED in verdicts


def test_an_x_free_custom_transition_is_pieced_once(monkeypatch):
    # the pieces do not depend on r or x: a second certify only runs zeroin
    tf = Custom("(3*t - t^3)/2 + 0.8*(1 - t^2)^2", ("x",))
    calls, bounds = [], tf._slope_bounds
    monkeypatch.setattr(tf, "_slope_bounds", lambda *a: calls.append(a) or bounds(*a))
    assert certify(fold(), tf, -0.5).verdict == Verdict.SLIDING_CERTIFIED
    first = len(calls)
    assert first > 0
    pieces = tf._pieces((-0.5,))
    for x in (-0.9, -0.5, 0.2, 0.45, 0.5):
        certify(fold(), tf, x)
        assert tf._pieces((x,)) is pieces
        assert _psi_evaluations(monkeypatch, tf, lambda: certify(fold(), tf, x)) <= 100
    assert len(calls) == first


def level_system(r: float):
    # a_plus = r - 1 and a_minus = r + 1 put the level of psi at r
    return system_from_strings(("x", "y"), ("1", repr(r - 1.0)), ("1", repr(r + 1.0)))


SPIKE = "(3*t - t^3)/2 + 0.8*exp(-((t - 0.3)*10000)^2)"


def test_a_spike_between_grid_nodes_slides():
    # psi peaks at 1.2365 within 1e-4 of t = 0.3, between two nodes of a
    # 513-node scan, which saw no turn and certified sewing at r = 1.1
    tf = Custom(SPIKE)
    cert = certify(level_system(1.1), tf, 0.0)
    assert cert.verdict == Verdict.SLIDING_CERTIFIED
    assert [round(r.t, 5) for r in cert.roots] == [0.29996, 0.30004]
    assert cert.roots[0].dpsi_dt > 0 > cert.roots[1].dpsi_dt
    for root in cert.roots:  # found to 1e-14 where psi' is near 5740
        assert tf.value(root.t) == pytest.approx(1.1, abs=1e-10)
    assert cert.unresolved == ()


def test_an_unproven_cell_never_yields_a_verdict(monkeypatch):
    # three halvings leave the spike's cell [0.25, 0.5] unproven
    monkeypatch.setattr(regularize, "MAX_CELL_DEPTH", 3)
    tf = Custom(SPIKE)
    cert = certify(level_system(1.1), tf, 0.0)
    assert cert.verdict == Verdict.INDETERMINATE
    assert cert.roots == () and cert.unresolved == (UnresolvedInterval(0.25, 0.5),)
    # a transversal root in a proven piece still certifies sliding
    cert = certify(level_system(0.35), tf, 0.0)
    assert cert.verdict == Verdict.SLIDING_CERTIFIED
    assert cert.witness.t == pytest.approx(cubic_inverse(0.35), abs=1e-12)
    assert cert.unresolved == (UnresolvedInterval(0.25, 0.5),)
    # a level psi cannot take in the cell leaves it out
    assert certify(level_system(-0.5), tf, 0.0).unresolved == ()
    with pytest.raises(NoSlidingAtError, match="psi not proven monotone"):
        track_manifold([0.1], [(x, certify(level_system(1.1), tf, x)) for x in [0.0]])
    # two halvings leave [0, 0.5], which may hold a second zero
    monkeypatch.setattr(regularize, "MAX_CELL_DEPTH", 2)
    tf = Custom(SPIKE)
    with pytest.raises(NonMonotoneTransitionError) as err:
        transition_zero(tf, "psi")
    assert (err.value.count, err.value.unresolved) == (1, 1)
    monkeypatch.undo()
    assert transition_zero(Custom(SPIKE), "psi") == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("psi, system, x, kinds", [
    (lambda: Overshoot(2.0), fold, 0.2, (2, 0, 0)),
    (lambda: Overshoot(2.0), fold, -0.5, (1, 0, 0)),
    (lambda: Custom(SPIKE), lambda: level_system(1.1), 0.0, (0, 0, 1)),
    (lambda: Custom(SPIKE), lambda: level_system(0.35), 0.0, (1, 0, 1)),
    (Smoothstep, lambda: system_from_strings(("x", "y"), ("1", "x"), ("1", "x")), 0.0, (0, 1, 0)),
    (Smoothstep, fold, 0.5, (0, 0, 0)),
], ids=["overshoot-two-roots", "overshoot-one-root", "custom-unresolved",
        "custom-root-and-unresolved", "degenerate", "sewing"])
def test_certificate_is_height_roots_split_by_kind(monkeypatch, psi, system, x, kinds):
    # certify splits height_roots' list by kind, (roots, degenerate,
    # unresolved) counted in kinds, and the witness is most_transversal's
    monkeypatch.setattr(regularize, "MAX_CELL_DEPTH", 3)  # leaves the spike's cell unproven
    tf, system = psi(), system()
    found = height_roots(system, tf, x)
    cert = certify(system, tf, x)
    assert cert.witness == most_transversal(found)
    assert cert.roots == tuple(r for r in found if isinstance(r, HeightRoot))
    assert cert.degenerate == tuple(r for r in found if isinstance(r, DegenerateInterval))
    assert cert.unresolved == tuple(r for r in found if isinstance(r, UnresolvedInterval))
    assert (len(cert.roots), len(cert.degenerate), len(cert.unresolved)) == kinds
    assert sum(kinds) == len(found)


def test_a_jump_of_psi_is_no_root():
    # psi jumps from 0.2545 to 0.6185 at t = 0.3 and never takes 0.45.  sgn
    # differentiates to 0, so no enclosure of psi' saw the jump, and
    # bisection returned it as a transversal root
    tf = Custom("(3*t - t^3)/2 + 0.2*(1 - t^2)*sgn(t - 0.3)")
    cert = certify(level_system(0.45), tf, 0.0)
    assert cert.verdict == Verdict.INDETERMINATE and cert.roots == ()
    (cell,) = cert.unresolved
    assert cell.t_lo < 0.3 < cell.t_hi and cell.t_hi - cell.t_lo < 1e-5
    # away from the jump psi is proven monotone
    cert = certify(level_system(0.0), tf, 0.0)
    assert cert.verdict == Verdict.SLIDING_CERTIFIED and cert.unresolved == ()
    assert tf.value(cert.witness.t) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("text", [
    "(3*t - t^3)/2 + 0.1*(1 - t^2)/(t - t + 1e-9)",  # t - t encloses to 0 until a cell is 1e-9 wide
    "(3*t - t^3)/2 + 0.01*(1 - t^2)*sin(1000000*t)",
])
def test_the_cells_tested_at_one_x_are_bounded(monkeypatch, text):
    # enclosures that never narrow would halve every cell MAX_CELL_DEPTH
    # times, about 2^20 cells at one x; past MAX_CELLS the rest of the band
    # is one unproven piece
    tf = Custom(text)
    calls = []
    for name in ("_slope_bounds", "_psi_bounds"):
        bounds = getattr(tf, name)
        monkeypatch.setattr(tf, name, lambda *a, bounds=bounds: calls.append(a) or bounds(*a))
    cert = certify(level_system(0.3), tf, 0.0)
    assert cert.verdict == Verdict.INDETERMINATE
    assert cert.unresolved[-1].t_hi == 1.0
    # one enclosure of psi' and psi'' per cell, one of psi per unproven piece
    assert len(calls) <= regularize.MAX_CELLS + len(tf._pieces(())[2])


@pytest.mark.parametrize("text", [
    "(3*t - t^3)/2 + 0.1*(1 + x^2)*(1 - t^2)/(t - t + 1e-9)",
    "(3*t - t^3)/2 + 0.01*(1 + x^2)*(1 - t^2)*sin(1000000*t)",
])
def test_the_cells_tested_at_one_x_are_bounded_for_an_x_dependent_psi(monkeypatch, text):
    # every dyadic box about x fails, at its first unproven cell or past
    # MAX_CELLS, and is kept as failed; x's own point box tests MAX_CELLS
    tf = Custom(text, ("x",))
    calls = {"_slope_bounds": [], "_psi_bounds": []}
    for name, kept in calls.items():
        bounds = getattr(tf, name)
        monkeypatch.setattr(tf, name, lambda *a, bounds=bounds, kept=kept: kept.append(a) or bounds(*a))
    cert = certify(level_system(0.3), tf, 0.3)
    assert cert.verdict == Verdict.INDETERMINATE
    assert cert.unresolved[-1].t_hi == 1.0
    assert list(tf._boxes.values()) == [None] * (regularize.MAX_BOX_DEPTH + 1)
    assert len(calls["_slope_bounds"]) <= (regularize.MAX_BOX_DEPTH + 2) * regularize.MAX_CELLS
    # one enclosure of psi per unproven piece
    unproven = len(calls["_psi_bounds"])
    assert unproven == len(tf._point_pieces((0.3,))[2])
    # a second point in the same boxes tests only its own
    del calls["_slope_bounds"][:]
    certify(level_system(0.3), tf, 0.35)
    assert len(calls["_slope_bounds"]) <= regularize.MAX_CELLS


BUMPX = "(3*t - t^3)/2 + 0.8*(1 + x^2)*(1 - t^2)^2"


def test_a_custom_psi_is_proven_once_per_x_box(monkeypatch):
    # the pieces proven afresh at each point tested 2,626 cells on this
    # fold, 13 a point; the boxes [-2, 0] and [0, 2] hold for every x
    tf = Custom(BUMPX, ("x",))
    calls, bounds = [], tf._slope_bounds
    monkeypatch.setattr(tf, "_slope_bounds", lambda *a: calls.append(a) or bounds(*a))
    certs = [certify(fold(), tf, x) for x in linspace(-1.0, 1.0, 201)]
    assert len(calls) <= 2626 // 10
    assert sorted(tf._boxes) == [(0, -1), (0, 0)]
    verdicts = [c.verdict for c in certs]
    assert verdicts.count(Verdict.SLIDING_CERTIFIED) == 107
    assert verdicts.count(Verdict.SEWING_CERTIFIED) == 94


@pytest.mark.parametrize("text", [BUMPX, "(3*t - t^3)/2 + (x - 0.3)*(1 - t^2)^2"],
                         ids=["bumpx", "boxes-fail"])
def test_a_custom_certificate_does_not_depend_on_the_order_of_the_points(text):
    # the second psi's boxes fail at depths 0 to 4 about some x, whose
    # points fall back to their own proof
    xs = linspace(-1.3, 1.3, 201)
    tf = Custom(text, ("x",))
    forward = [certify(fold(), tf, x) for x in xs]
    tf = Custom(text, ("x",))
    backward = [certify(fold(), tf, x) for x in reversed(xs)]
    assert forward == backward[::-1]


@pytest.mark.parametrize("psi", [
    lambda: Custom(BUMPX, ("x",)),
    lambda: Custom("tanh(3*t)/tanh(3) + 0.2*x*(1 - t^2)", ("x",)),
    Smoothstep,
], ids=["bumpx", "tanhx", "smoothstep"])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_a_non_finite_tangential_point_is_refused(psi, x):
    # interval.mul read a NaN end as 0, so the enclosures at x = NaN came
    # back finite: certify said sewing there for both custom psi, and
    # sliding for smoothstep
    sewing = system_from_strings(("x", "y"), ("1", "-1"), ("1", "1"))
    with pytest.raises(DomainError, match="tangential coordinates .* are not finite"):
        certify(sewing, psi(), x)


def test_a_nan_slope_at_x_in_a_turn_cell_leaves_the_box_for_x_alone():
    # the enclosures take the product 0*inf for 0, but past |x| = 1.2
    # x*1.5e307*10 overflows, and then psi and psi' are NaN at x: the box
    # [0, 2] holds, with turn cells whose ends x = 1.25 cannot sign
    tf = Custom("(3*t - t^3)/2 + 0.8*(1 - t^2)^2*(1 + (sgn(x*x + 1) - 1)*(x*1.5e307*10))",
                ("x",))
    x = (1.25,)
    breaks, _, unproven = tf._pieces(x)
    assert list(tf._boxes) == [(0, 0)]
    assert any(way == regularize._TURN for lo, hi, way in tf._boxes[0, 0])
    want, _, unproven_alone = tf._point_pieces(x)
    assert breaks == want and unproven == unproven_alone and unproven
    assert tf._pieces((0.5,))[2] == {}


def test_the_level_set_at_a_non_finite_x_is_found_at_x_alone():
    # no box is kept, and at a NaN x no enclosure bounds anything
    tf = Custom(BUMPX, ("x",))
    assert tf.level_set(0.0, (math.nan,)) == ([], [(-1.0, 1.0)])
    for x in (math.inf, -math.inf):
        breaks, _, unproven = tf._pieces((x,))
        assert (breaks, unproven) == tf._point_pieces((x,))[::2]
    assert tf._boxes == {}


def test_level_of_non_finite_components_is_an_error():
    # r = nan lies in no range, which must not read as a sewing certificate;
    # both normal components overflow at x = 0.5 (the parser refuses the
    # constant 1e308*10)
    sys = system_from_strings(("x", "y"), ("1", "x*1e308*10"), ("1", "x*1e308*20"))
    with pytest.raises(DomainError, match="not finite"):
        certify(sys, Smoothstep(), 0.5)


@pytest.mark.parametrize("entry", [
    lambda s: regularized_field(s, Smoothstep(), math.nan, [0.1, 0.0]),
    lambda s: regularized_jacobian(s, Smoothstep(), math.nan, [0.1, 0.0]),
    lambda s: equilibria_on_manifold(s, Smoothstep(), math.nan, (-1.0, 1.0)),
    lambda s: e_chart_field(s, Smoothstep(), -0.5, 0.0, math.nan),
    lambda s: f_chart_field(s, Smoothstep(), 1, -0.5, math.nan, 0.5),
    lambda s: double_regularized_field(attracting_cross(), math.nan, 0.1, (0.0, 0.0, 0.0)),
    lambda s: stratified_slide_curve(attracting_cross(), 0.1, math.nan),
], ids=["regularized_field", "regularized_jacobian", "equilibria_on_manifold", "e_chart_field",
        "f_chart_field", "double_regularized_field", "stratified_slide_curve"])
def test_a_nan_band_width_is_refused(entry):
    # NaN fails every comparison, so each of these passed an "eps <= 0"
    # check: the fields came back NaN, equilibria_on_manifold found none,
    # and stratified_slide_curve reported residual_y = max(0.0, nan) = 0.0
    with pytest.raises(ValueError, match="must be (positive|nonnegative), got"):
        entry(fold())
