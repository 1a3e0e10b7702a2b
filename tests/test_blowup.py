import numpy as np
import pytest

from filippov.blowup import Chart, ChartPoint, SlowFastSystem, e_chart_field, f_chart_field
from filippov.regularize import HeightRoot, Smoothstep, height, regularized_field
from filippov.system import SigmaClass, classify_point, filippov_sliding_field, system_from_strings

from test_system import random_system


def fold():
    return system_from_strings(("x", "y"), ("1", "2*x"), ("1", "2"))


def test_chart_point_ambient():
    p = ChartPoint(Chart.E, (0.3,), u=-0.5, v=0.1)
    assert p.ambient() == ((0.3,), -0.05, 0.1)
    p = ChartPoint(Chart.F_PLUS, (0.3,), u=0.2, v=0.5)
    assert p.ambient() == ((0.3,), 0.2, 0.1)
    p = ChartPoint(Chart.F_MINUS, (0.3,), u=0.2, v=0.5)
    assert p.ambient() == ((0.3,), -0.2, 0.1)


def test_e_chart_domain():
    sys = fold()
    tf = Smoothstep()
    with pytest.raises(ValueError):
        e_chart_field(sys, tf, 0.0, 0.0, -0.1)
    with pytest.raises(ValueError):
        e_chart_field(sys, tf, (0.0, 1.0), 0.0, 0.1)


def test_f_chart_domain():
    sys = fold()
    tf = Smoothstep()
    with pytest.raises(ValueError):
        f_chart_field(sys, tf, 0, 0.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        f_chart_field(sys, tf, 1, 0.0, -0.1, 0.5)
    with pytest.raises(ValueError):
        f_chart_field(sys, tf, 1, 0.0, 0.1, 1.5)


def test_f_chart_constant_normals():
    # fields (1, -1) above and (1, 1) below: both side charts reduce to
    # ytil' = -ytil, epstil' = epstil, x' = ytil
    sys = system_from_strings(("x", "y"), ("1", "-1"), ("1", "1"))
    tf = Smoothstep()
    for sign in (1, -1):
        v = f_chart_field(sys, tf, sign, 0.3, 0.2, 0.5)
        assert np.allclose(v, [-0.2, 0.5, 0.2])


def test_divisor_alpha_is_half_height():
    # on the divisor the fast component is half the height function
    rng = np.random.default_rng(29)
    tf = Smoothstep()
    count = 0
    for _ in range(40):
        sys = random_system(rng)
        for _ in range(25):
            x = float(rng.uniform(-2, 2))
            ybar = float(rng.uniform(-1.2, 1.2))
            alpha = e_chart_field(sys, tf, x, ybar, 0.0)[0]
            h, _ = height(sys, tf, x, ybar)
            assert alpha == pytest.approx(0.5 * h, rel=1e-12, abs=1e-12)
            count += 1
    assert count == 1000


def test_divisor_slow_components_vanish():
    sys = fold()
    v = e_chart_field(sys, Smoothstep(), -0.5, 0.3, 0.0)
    assert v[1:] == pytest.approx(0.0)


def test_e_chart_conjugate_to_regularized_field():
    # for epsbar > 0 the divided chart field is the pull-back of the
    # regularized field times epsbar
    rng = np.random.default_rng(31)
    tf = Smoothstep()
    checked = 0
    while checked < 200:
        sys = random_system(rng)
        x = float(rng.uniform(-2, 2))
        ybar = float(rng.uniform(-1.5, 1.5))
        epsbar = float(rng.uniform(0.01, 0.5))
        got = e_chart_field(sys, tf, x, ybar, epsbar)
        amb = regularized_field(sys, tf, epsbar, (x, epsbar * ybar))
        # chart rates: ybar' = y'/epsbar, x' unchanged; divided = epsbar * that
        assert got[0] == pytest.approx(amb[1], rel=1e-10, abs=1e-10)
        assert got[1] == pytest.approx(epsbar * amb[0], rel=1e-10, abs=1e-10)
        checked += 1


def test_f_charts_conjugate_to_regularized_field():
    # in the saturated zone y = +-ytil with eps = ytil*epstil the ambient
    # field is one-sided; the chart rates follow from the coordinate change
    rng = np.random.default_rng(37)
    tf = Smoothstep()
    for sign in (1, -1):
        checked = 0
        while checked < 200:
            sys = random_system(rng)
            x = float(rng.uniform(-2, 2))
            ytil = float(rng.uniform(0.05, 1.0))
            epstil = float(rng.uniform(0.05, 1.0))
            eps = ytil * epstil
            amb = regularized_field(sys, tf, eps, (x, sign * ytil))
            one_sided = (sys.plus if sign == 1 else sys.minus).evaluate((x, sign * ytil))
            assert np.allclose(amb, one_sided)  # psi saturated
            got = f_chart_field(sys, tf, sign, x, ytil, epstil)
            # ytil' = sign*y', epstil' = -epstil*ytil'/ytil, x' = amb_x;
            # divided by multiplying through with ytil
            ytil_rate = sign * amb[1]
            assert got[0] == pytest.approx(ytil * ytil_rate, rel=1e-10, abs=1e-12)
            assert got[1] == pytest.approx(-epstil * ytil_rate, rel=1e-10, abs=1e-12)
            assert got[2] == pytest.approx(ytil * amb[0], rel=1e-10, abs=1e-12)
            checked += 1


def test_slow_flow_matches_sliding_velocity():
    # on the slow manifold the slow flow is the convex sliding combination
    rng = np.random.default_rng(41)
    tf = Smoothstep()
    found = 0
    while found < 50:
        sys = random_system(rng)
        x = float(rng.uniform(-2, 2))
        if classify_point(sys, x) != SigmaClass.SLIDING:
            continue
        sf = SlowFastSystem(sys, tf)
        roots = [r for r in sf.manifold_slice(x) if isinstance(r, HeightRoot)]
        if not roots:
            continue
        found += 1
        _, v = filippov_sliding_field(sys, x)
        for r in roots:
            slow = sf.slow_flow(x, r.t)
            assert slow[0] == pytest.approx(v[0], rel=1e-9, abs=1e-9)


def test_fast_flow_and_residual():
    sys = fold()
    sf = SlowFastSystem(sys, Smoothstep())
    for x, ybar in ((-0.5, 0.3), (0.7, -0.9)):
        h, _ = height(sys, Smoothstep(), x, ybar)
        assert sf.fast_flow(x, ybar) == pytest.approx(0.5 * h)
        assert sf.slow_manifold_residual(x, ybar) == pytest.approx(h)
    (root,) = sf.manifold_slice(-0.5)
    assert abs(sf.slow_manifold_residual(-0.5, root.t)) < 1e-11
