"""Property tests: the closed-form level sets of the built-in transitions
against a dense sign scan refined by scipy's brentq (a test-only oracle),
and a custom psi's level sets against the built-in transition it spells."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
brentq = pytest.importorskip("scipy.optimize").brentq
from hypothesis import assume, given, settings, strategies as st

from filippov.regularize import Biased, Custom, Overshoot, Smoothstep

SCAN_NODES = 4001


def scanned_level_set(tf, r):
    f = lambda t: tf.value(t) - r
    ts = np.linspace(-1.0, 1.0, SCAN_NODES)
    fs = [f(float(t)) for t in ts]
    out = []
    for k in range(SCAN_NODES):
        if fs[k] == 0.0:
            out.append(float(ts[k]))
        elif k + 1 < SCAN_NODES and fs[k] * fs[k + 1] < 0.0:
            out.append(brentq(f, float(ts[k]), float(ts[k + 1]), xtol=1e-15))
    return out


def check(tf, r):
    got = tf.level_set(r)
    want = scanned_level_set(tf, r)
    assert len(got) == len(want), (got, want)
    assert got == sorted(got)
    # near a band edge or the overshoot's peak psi' is small and a preimage
    # is only defined to about the square root of the rounding error: for
    # biased(-0.9) at r = 1 - 2^-53 every t within 1.6e-7 of the root has
    # psi(t) within an ulp of r
    assert got == pytest.approx(want, abs=1e-6)
    for t in got:
        assert -1.0 <= t <= 1.0
        assert abs(tf.value(t) - r) <= 1e-12


LEVELS = st.floats(-1.5, 1.5)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(r=LEVELS)
def test_smoothstep_level_set(r):
    check(Smoothstep(), r)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(t0=st.floats(-0.9, 0.9), r=LEVELS)
def test_biased_level_set(t0, r):
    check(Biased(t0), r)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(m=st.floats(1.05, 10.0), s=st.floats(0.0, 1.0))
def test_overshoot_level_set(m, s):
    # r from [-1.5, m + 0.5]; the scan resolves two preimages near the peak
    # only when r is not within 1e-4 m of it
    r = -1.5 + s * (m + 2.0)
    assume(abs(r - m) > 1e-4 * m)
    check(Overshoot(m), r)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(m=st.floats(1.05, 10.0), s=st.floats(0.0, 1.0), near_peak=st.booleans(),
       e=st.floats(-8.9, -1.0))
def test_custom_overshoot_level_set(m, s, near_peak, e):
    # r from [-1.5, m + 0.5], or 10^e below the peak, where both preimages
    # can fall in one cell of the grid.  psi' vanishes where psi takes the
    # levels m (the peak), -1 and 1 (the band edges); within ZERO_TOL of
    # those levels the custom psi takes that critical point itself as the
    # preimage, by design
    r = m - 10.0 ** e if near_peak else -1.5 + s * (m + 2.0)
    assume(min(abs(r - m), abs(r - 1.0), abs(r + 1.0)) > 1e-9)
    ov = Overshoot(m)
    got = Custom(f"(3*t - t^3)/2 + {ov.c!r}*(1 - t^2)^2").level_set(r)
    want = ov.level_set(r)
    assert len(got) == len(want), (got, want)
    assert got == pytest.approx(want, abs=1e-10)
