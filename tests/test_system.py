import math
import os
from sys import setprofile

import numpy as np
import pytest

from filippov.expr import Const, DomainError, evaluate, parse
from filippov.regularize import Smoothstep, certificate_margin, height, height_roots
from filippov.system import (
    NotSlidingError,
    PiecewiseSystem,
    SigmaClass,
    VectorFieldDef,
    classify_point,
    field_from_strings,
    filippov_jacobian,
    filippov_sliding_field,
    filippov_tangent,
    sliding_margin,
    system_from_strings,
)


def fold():
    # upper field grazes the surface at x = 0, lower field always pushes up
    return system_from_strings(("x", "y"), ("1", "2*x"), ("1", "2"))


def random_system(rng, dim=2):
    """Random polynomial fields of degree <= 2 in an adapted chart."""
    names = tuple(f"x{i}" for i in range(1, dim)) + ("y",)

    def poly():
        c = rng.uniform(-2, 2, size=1 + 2 * dim)
        terms = [f"{c[0]:.6f}"]
        for i, n in enumerate(names):
            terms.append(f"{c[1 + 2 * i]:.6f}*{n}")
            terms.append(f"{c[2 + 2 * i]:.6f}*{n}^2")
        return " + ".join(terms)

    plus = tuple(poly() for _ in names)
    minus = tuple(poly() for _ in names)
    return system_from_strings(names, plus, minus)


def test_field_validation():
    with pytest.raises(ValueError):
        VectorFieldDef(("x", "y"), (parse("1"),))
    with pytest.raises(ValueError):
        VectorFieldDef(("x",), (parse("1"),))
    with pytest.raises(ValueError):
        VectorFieldDef(("x", "x"), (parse("1"), parse("1")))
    with pytest.raises(ValueError) as err:
        field_from_strings(("x", "y"), ("z + 1", "0"))
    assert "z" in str(err.value)


def test_field_evaluate():
    f = field_from_strings(("x", "y"), ("x + y", "x*y"))
    assert np.allclose(f.evaluate((2.0, 3.0)), [5.0, 6.0])
    with pytest.raises(ValueError):
        f.evaluate((1.0, 2.0, 3.0))


def test_field_jacobian():
    f = field_from_strings(("x", "y"), ("x*y + sin(y)", "x^2 - 3*y"))
    assert "_partials" not in f.__dict__  # built on first use, not at construction
    jac = f.jacobian((2.0, 0.5))
    assert np.allclose(jac, [[0.5, 2.0 + np.cos(0.5)], [4.0, -3.0]], rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        f.jacobian((1.0, 2.0, 3.0))


def test_system_chart_agreement():
    a = field_from_strings(("x", "y"), ("1", "1"))
    b = field_from_strings(("u", "y"), ("1", "1"))
    with pytest.raises(ValueError):
        PiecewiseSystem(a, b)


def test_normal_traces_drop_y():
    sys = system_from_strings(("x", "y"), ("1", "x + y^2"), ("1", "y - 3"))
    ap, am = sys.normal_components_on_sigma(2.0)
    assert ap == 2.0
    assert am == -3.0
    assert sys.normal_traces[1] == Const(-3.0)


def test_classify_fold():
    sys = fold()
    assert classify_point(sys, -0.5) == SigmaClass.SLIDING
    assert classify_point(sys, 0.5) == SigmaClass.SEWING
    assert classify_point(sys, 0.0) == SigmaClass.SIGMA_SINGULAR
    # the relative band around the graze: |a+| = 2|x| against a- = 2
    assert classify_point(sys, 0.99e-9) == SigmaClass.SIGMA_SINGULAR
    assert classify_point(sys, -0.99e-9) == SigmaClass.SIGMA_SINGULAR
    assert classify_point(sys, 1.01e-9) == SigmaClass.SEWING
    assert classify_point(sys, -1.01e-9) == SigmaClass.SLIDING


def nan_trace():
    # inf*x - inf*x is NaN at every x but 0, so a_plus is NaN there
    return system_from_strings(("x", "y"), ("1", "1e300*x*1e300 - 1e300*x*1e300 + 1"), ("1", "2"))


@pytest.mark.parametrize("x, error", [
    (0.5, r"normal components nan, 2.0 at x = \(0.5,\) are not finite"),
    (math.nan, r"tangential coordinates \(nan,\) are not finite"),
])
def test_classify_refuses_what_certify_refuses(x, error):
    # classify_point called such a point SigmaSingular where height_roots
    # refused it, so classify wrote a row for a point certify exits 1 on;
    # every reader of a_pm refuses it, a slide's margin and right-hand side
    # as well
    sys = nan_trace()
    for judge in (lambda: classify_point(sys, x), lambda: height_roots(sys, Smoothstep(), x),
                  lambda: sliding_margin(sys, x), lambda: certificate_margin(sys, Smoothstep(), x),
                  lambda: height(sys, Smoothstep(), x, 0.0),
                  lambda: filippov_tangent(sys, x), lambda: filippov_jacobian(sys, x),
                  lambda: sys.normal_components_on_sigma(x)):
        with pytest.raises(DomainError, match=error):
            judge()


def test_classify_matches_sign_product():
    rng = np.random.default_rng(3)
    for _ in range(40):
        sys = random_system(rng)
        for _ in range(25):
            x = float(rng.uniform(-2, 2))
            ap, am = sys.normal_components_on_sigma(x)
            got = classify_point(sys, x)
            if abs(ap * am) <= 1e-9:
                assert got == SigmaClass.SIGMA_SINGULAR
            elif ap * am > 0:
                assert got == SigmaClass.SEWING
            else:
                assert got == SigmaClass.SLIDING


def test_sliding_field_fold():
    lam, v = filippov_sliding_field(fold(), -0.5)
    assert lam == pytest.approx(2.0 / 3.0)
    assert v[0] == pytest.approx(1.0)
    assert v[1] == 0.0  # exactly, by construction


def test_sliding_field_rejects_non_sliding():
    with pytest.raises(NotSlidingError) as err:
        filippov_sliding_field(fold(), 0.5)
    assert err.value.verdict == SigmaClass.SEWING
    with pytest.raises(NotSlidingError):
        filippov_sliding_field(fold(), 0.0)


def test_sliding_field_tangency_and_convexity():
    rng = np.random.default_rng(11)
    found = 0
    while found < 60:
        sys = random_system(rng, dim=rng.integers(2, 4))
        x = rng.uniform(-2, 2, size=sys.dim - 1)
        if classify_point(sys, x) != SigmaClass.SLIDING:
            continue
        found += 1
        lam, v = filippov_sliding_field(sys, x)
        assert 0.0 < lam < 1.0
        assert v[-1] == 0.0
        point = tuple(x) + (0.0,)
        expect = lam * sys.plus.evaluate(point) + (1 - lam) * sys.minus.evaluate(point)
        assert np.allclose(v[:-1], expect[:-1], atol=1e-12)


def test_sliding_matches_normal_average_form():
    # the tangential sliding velocity equals the average of the one-sided
    # tangential components corrected by the normal imbalance
    rng = np.random.default_rng(13)
    found = 0
    while found < 60:
        sys = random_system(rng)
        x = float(rng.uniform(-2, 2))
        if classify_point(sys, x) != SigmaClass.SLIDING:
            continue
        found += 1
        ap, am = sys.normal_components_on_sigma(x)
        point = (x, 0.0)
        bp = sys.plus.evaluate(point)[0]
        bm = sys.minus.evaluate(point)[0]
        psi_star = -(ap + am) / (ap - am)
        expect = 0.5 * ((bp + bm) + psi_star * (bp - bm))
        _, v = filippov_sliding_field(sys, x)
        assert v[0] == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_three_dimensional_chart():
    sys = system_from_strings(
        ("x1", "x2", "y"), ("x2", "-x1", "x1 - 1"), ("0", "0", "1")
    )
    assert sys.x_names == ("x1", "x2")
    assert sys.y_name == "y"
    assert classify_point(sys, (0.0, 5.0)) == SigmaClass.SLIDING
    assert classify_point(sys, (2.0, 5.0)) == SigmaClass.SEWING
    lam, v = filippov_sliding_field(sys, (0.0, 3.0))
    # a_plus = -1, a_minus = 1 so lam = 1/2
    assert lam == pytest.approx(0.5)
    assert np.allclose(v, [1.5, 0.0, 0.0])


# systems for the slide Jacobian: an x-dependent fold, the rotation of the
# 3-D golden case, whose weight is constant, and a 3-D chart whose weight
# depends on x1
JACOBIAN_CASES = {
    "fold_x": (system_from_strings(("x", "y"), ("1", "-1 + x^2*sin(x)"), ("1.5", "2*cos(x)")),
               [(-1.0,), (-0.3,), (0.4,), (1.0,)]),
    "rotation_3d": (system_from_strings(("x1", "x2", "y"), ("-x2", "x1", "-1"), ("-x2", "x1", "1")),
                    [(1.0, 0.0), (-0.6, 0.8), (0.3, -2.0)]),
    "chart_3d": (system_from_strings(("x1", "x2", "y"), ("x2", "-x1", "x1 - 1"),
                                     ("0", "x1*x2", "1 + x2^2")),
                 [(0.0, 5.0), (0.5, -1.0), (-2.0, 0.3)]),
}


@pytest.mark.parametrize("name", sorted(JACOBIAN_CASES))
def test_filippov_jacobian_matches_central_differences(name):
    sys, points = JACOBIAN_CASES[name]
    step = 1e-6
    for x in points:
        jac = np.array(filippov_jacobian(sys, x))
        assert jac.shape == (len(x), len(x))
        for j in range(len(x)):
            hi, lo = list(x), list(x)
            hi[j] += step
            lo[j] -= step
            column = np.array(filippov_tangent(sys, hi)[1]) - np.array(filippov_tangent(sys, lo)[1])
            assert jac[:, j] == pytest.approx(column / (2 * step), rel=1e-6, abs=1e-9)


def test_slide_field_is_the_blend_at_the_height_level():
    # a slide steps the generated blend at psi = r, the level whose preimage
    # height_roots looks for; at x = -0.93 on fold_x the old
    # lam-combination rounds the field differently
    levels = []

    class Recording(Smoothstep):
        def level_set(self, r, x=()):
            levels.append(r)
            return super().level_set(r, x)

    for name, (sys, points) in sorted(JACOBIAN_CASES.items()):
        for x in points + ([(-0.93,)] if name == "fold_x" else []):
            levels.clear()
            height_roots(sys, Recording(), x)
            [r] = levels
            lam, tangent = filippov_tangent(sys, x)
            assert tangent == sys._blend(r, *x, 0.0)[:-1], (name, x)
            assert lam == 0.5 * (1.0 + r)


def test_filippov_jacobian_is_none_on_the_pole():
    sys = system_from_strings(("x", "y"), ("1", "x"), ("2", "-x"))
    assert filippov_tangent(sys, 0.0) is None
    assert filippov_jacobian(sys, 0.0) is None


@pytest.mark.parametrize("trace, error", [
    ("y^-1 + x", "zero raised to negative power -1"),
    ("sqrt(y - 1) + x", "sqrt of negative value -1.0"),
    ("exp(1000 + y) + x", "overflow in exp(1000.0)"),
    ("1/y + x", "division by zero"),
])
def test_an_undefined_constant_in_a_normal_trace_fails_per_point(trace, error):
    # y = 0 folds the trace to a constant that is not defined; it is kept as
    # a tree, so the system builds and each evaluation raises, as for 1/y
    sys = system_from_strings(("x", "y"), ("1", trace), ("1", "2"))
    with pytest.raises(DomainError) as err:
        classify_point(sys, 0.5)
    assert str(err.value) == error


def test_surface_coordinate_is_parsed_once_per_call(monkeypatch):
    calls = 0
    tangential = PiecewiseSystem.tangential

    def counting(self, x):
        nonlocal calls
        calls += 1
        return tangential(self, x)

    monkeypatch.setattr(PiecewiseSystem, "tangential", counting)
    sys = fold()
    for fn in (lambda: filippov_tangent(sys, -0.5), lambda: filippov_jacobian(sys, -0.5),
               lambda: height_roots(sys, Smoothstep(), -0.5), lambda: sliding_margin(sys, -0.5),
               lambda: classify_point(sys, -0.5),
               lambda: certificate_margin(sys, Smoothstep(), -0.5),
               lambda: height(sys, Smoothstep(), -0.5, 0.0),
               lambda: sys.normal_components_on_sigma(-0.5)):
        calls = 0
        fn()
        assert calls == 1


@pytest.mark.parametrize("read", [classify_point, sliding_margin])
def test_a_read_of_sigma_enters_no_property(read):
    # the chart is data set at construction: after a warm-up read, which
    # compiles the normal traces, a read enters the reader, _sliding_level,
    # tangential, the compiled traces and _margin (once at a sliding point)
    system = fold()
    read(system, -0.5)
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append((os.path.basename(frame.f_code.co_filename), frame.f_code.co_name))

    setprofile(profile)
    try:
        read(system, -0.5)
    finally:
        setprofile(None)
    assert entered == [("system.py", read.__name__), ("system.py", "_sliding_level"),
                       ("system.py", "tangential"), ("<filippov.expr.compile>", "compiled"),
                       ("system.py", "_margin")]
