import math

import numpy as np
import pytest

from filippov.cross import (
    Z_WINDOW,
    CrossSystem,
    NonMonotoneTransitionError,
    double_regularized_field,
    stratified_slide_curve,
    transition_zero,
)
from filippov.expr import parse
from filippov.regularize import Biased, Custom, Overshoot, Smoothstep
from filippov.system import VectorFieldDef

COORDS = ("x", "y", "z")


def quadrant_fields(**by_name):
    """Build the four fields from strings keyed pp/pm/mp/mm."""
    keys = {"pp": (1, 1), "pm": (1, -1), "mp": (-1, 1), "mm": (-1, -1)}
    return {
        keys[name]: VectorFieldDef(COORDS, tuple(parse(c) for c in comps))
        for name, comps in by_name.items()
    }


def attracting_cross(phi=None, psi=None):
    # each quadrant field points at the origin of the (x, y) plane
    fields = quadrant_fields(
        pp=("-1", "-1", "1"),
        pm=("-1", "1", "1"),
        mp=("1", "-1", "1"),
        mm=("1", "1", "1"),
    )
    return CrossSystem(fields, phi or Smoothstep(), psi or Smoothstep())


def test_cross_system_validation():
    fields = quadrant_fields(
        pp=("-1", "-1", "1"),
        pm=("-1", "1", "1"),
        mp=("1", "-1", "1"),
    )
    with pytest.raises(ValueError):
        CrossSystem({**fields}, Smoothstep(), Smoothstep())
    bad = VectorFieldDef(("a", "b", "c"), tuple(parse(s) for s in ("1", "1", "1")))
    full = quadrant_fields(
        pp=("-1", "-1", "1"),
        pm=("-1", "1", "1"),
        mp=("1", "-1", "1"),
        mm=("1", "1", "1"),
    )
    full[(1, 1)] = bad
    with pytest.raises(ValueError):
        CrossSystem(full, Smoothstep(), Smoothstep())


def test_weights_partition_of_unity():
    # blending four copies of one field returns that field, anywhere
    f = ("y + z", "x - z", "x*y")
    cs = CrossSystem(
        quadrant_fields(pp=f, pm=f, mp=f, mm=f), Smoothstep(), Biased(0.3)
    )
    rng = np.random.default_rng(43)
    base = VectorFieldDef(COORDS, tuple(parse(c) for c in f))
    for _ in range(50):
        pt = rng.uniform(-1, 1, size=3)
        got = double_regularized_field(cs, 0.2, 0.1, pt)
        assert np.allclose(got, base.evaluate(pt), atol=1e-13)


def test_recovers_quadrant_fields_outside_bands():
    cs = attracting_cross()
    eps, eta = 0.1, 0.05
    for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        pt = (sx * 0.5, sy * 0.5, 0.3)
        got = double_regularized_field(cs, eps, eta, pt)
        assert np.array_equal(got, cs.fields[(sx, sy)].evaluate(pt))


def test_single_surface_blend_on_one_band():
    # outside the y-band the double blend degenerates to the x-blend of the
    # two fields on that side of {y = 0}
    cs = attracting_cross()
    eps, eta = 0.1, 0.05
    pt = (0.03, 0.5, 0.0)  # inside the x-band, above the y-band
    phi = Smoothstep().value(pt[0] / eps)
    expect = 0.5 * (1 + phi) * cs.fields[(1, 1)].evaluate(pt) + 0.5 * (
        1 - phi
    ) * cs.fields[(-1, 1)].evaluate(pt)
    got = double_regularized_field(cs, eps, eta, pt)
    assert np.allclose(got, expect, atol=1e-14)


def test_band_width_validation():
    cs = attracting_cross()
    with pytest.raises(ValueError):
        double_regularized_field(cs, 0.0, 0.1, (0, 0, 0))
    with pytest.raises(ValueError):
        stratified_slide_curve(cs, 0.1, -0.1)


def test_transition_zero_exact_kinds():
    assert transition_zero(Smoothstep(), "phi") == 0.0
    assert transition_zero(Biased(0.25), "phi") == 0.25
    assert transition_zero(Biased(-0.5), "psi") == -0.5


def test_transition_zero_scanned():
    # a custom monotone transition goes through the scanning path
    tf = Custom("t*(3 - t^2)/2")
    assert transition_zero(tf, "phi") == pytest.approx(0.0, abs=1e-12)
    # the overshoot is non-monotone but still crosses zero only once; its
    # positive bump pushes the zero left of the origin
    ov = Overshoot(2.0)
    z = transition_zero(ov, "phi")
    assert z < 0.0
    assert ov.value(z) == pytest.approx(0.0, abs=1e-12)


def test_transition_zero_rejects_multiple():
    # Chebyshev cubic: fixes the endpoints but crosses zero three times
    tf = Custom("4*t^3 - 3*t")
    with pytest.raises(NonMonotoneTransitionError) as err:
        transition_zero(tf, "phi")
    assert err.value.count == 3
    cs = attracting_cross(phi=tf)
    with pytest.raises(NonMonotoneTransitionError):
        stratified_slide_curve(cs, 0.1, 0.1)


def test_stratified_curve_symmetric():
    cs = attracting_cross(psi=Biased(0.25))
    curve = stratified_slide_curve(cs, 0.1, 0.05)
    assert curve.t0 == 0.0
    assert curve.u0 == 0.25
    assert curve.x == 0.0
    assert curve.y == pytest.approx(0.0125)
    # transition values vanish exactly on the curve, so the transverse
    # velocities cancel exactly for the symmetric cross
    assert curve.residual_x == 0.0
    assert curve.residual_y == 0.0
    assert curve.hausdorff_to_axis == pytest.approx(
        math.hypot(curve.x, curve.y), abs=1e-15
    )


def test_stratified_curve_residual_measures_defect():
    # unbalance one quadrant: the average transverse velocity is -1/4
    fields = quadrant_fields(
        pp=("-2", "-1", "1"),
        pm=("-1", "1", "1"),
        mp=("1", "-1", "1"),
        mm=("1", "1", "1"),
    )
    cs = CrossSystem(fields, Smoothstep(), Smoothstep())
    curve = stratified_slide_curve(cs, 0.1, 0.1)
    assert curve.residual_x == pytest.approx(0.25)
    assert curve.residual_y == 0.0


def test_stratified_curve_z_dependence():
    # transverse defect varies along z; the maximum over Z_WINDOW counts,
    # which this field reaches at the window's far end
    fields = quadrant_fields(
        pp=("z", "-1", "1"),
        pm=("z", "1", "1"),
        mp=("z", "-1", "1"),
        mm=("z", "1", "1"),
    )
    cs = CrossSystem(fields, Smoothstep(), Smoothstep())
    curve = stratified_slide_curve(cs, 0.1, 0.1)
    assert curve.residual_x == pytest.approx(Z_WINDOW[1])


def test_band_scaling_shrinks_distance():
    cs = attracting_cross(phi=Biased(0.5), psi=Biased(-0.5))
    pairs = [(0.1, 0.05), (0.05, 0.025), (0.025, 0.0125)]
    dists = [stratified_slide_curve(cs, e, n).hausdorff_to_axis for e, n in pairs]
    assert dists[0] > dists[1] > dists[2]
    assert dists[1] / dists[0] == pytest.approx(0.5)
    assert dists[2] / dists[1] == pytest.approx(0.5)
    # the offset is exactly the scaled zero locations
    for (e, n), d in zip(pairs, dists):
        assert d == pytest.approx(math.hypot(e * 0.5, n * 0.5))
