"""Property tests: the closed-form level sets of the built-in transitions
against a dense sign scan refined by scipy's brentq (a test-only oracle),
a custom psi's level sets against the built-in transition it spells, a
custom psi's level sets and certificates against the scan, and the zeroin
they are found by against brentq."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
brentq = pytest.importorskip("scipy.optimize").brentq
from hypothesis import assume, event, given, settings, strategies as st

from filippov.regularize import (
    ROOT_BISECTION_TOL,
    Biased,
    Custom,
    Overshoot,
    Smoothstep,
    Verdict,
    certify,
    zeroin,
)
from filippov.system import system_from_strings

SCAN_NODES = 4001


def scanned_level_set(psi, r):
    f = lambda t: psi(t) - r
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
    got, cells = tf.level_set(r)
    want = scanned_level_set(tf.value, r)
    assert len(got) == len(want), (got, want)
    assert cells == []
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
    got, cells = Custom(f"(3*t - t^3)/2 + {ov.c!r}*(1 - t^2)^2").level_set(r)
    want, _ = ov.level_set(r)
    assert len(got) == len(want), (got, want)
    assert cells == []
    assert got == pytest.approx(want, abs=1e-10)


# custom psi against the scan: families that keep psi(-1) = -1 and
# psi(1) = 1, with and without the tangential coordinate x
FAMILIES = {
    "polynomial": "(3*t - t^3)/2 + ({a} + {b}*t{x})*(1 - t^2)^2",
    "exp": "(3*t - t^3)/2 + ({a}{x})*(1 - t^2)*exp({b}*t)",
    "tanh": "tanh({k}*t)/tanh({k}) + ({a} + {b}*t{x})*(1 - t^2)",
}


def level_system(r):
    # a_plus = r - 1 and a_minus = r + 1 put the level of psi at r
    return system_from_strings(("x", "y"), ("1", repr(r - 1.0)), ("1", repr(r + 1.0)))


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(family=st.sampled_from(sorted(FAMILIES)), a=st.floats(-1.5, 1.5), b=st.floats(-3.0, 3.0),
       k=st.floats(0.3, 4.0), c=st.sampled_from([0.0, 0.5, -1.2]), x=st.floats(-1.0, 1.0),
       u=st.floats(-1.0, 1.0), d=st.floats(-0.2, 0.2))
def test_custom_certificates_agree_with_the_scan(family, a, b, k, c, x, u, d):
    text = FAMILIES[family].format(a=repr(a), b=repr(b), k=repr(k), x=f" + {c!r}*x" if c else "")
    tf = Custom(text, ("x",))
    at = (x,)
    psi = lambda t: tf.value(t, at)
    values = [psi(float(t)) for t in np.linspace(-1.0, 1.0, SCAN_NODES)]
    r = psi(u) + d
    # the scan resolves every preimage of a level 1e-3 away from each value
    # psi takes where the samples turn, the band ends included
    turns = [values[0], values[-1]] + [
        values[j] for j in range(1, SCAN_NODES - 1)
        if (values[j] - values[j - 1]) * (values[j + 1] - values[j]) <= 0.0]
    assume(min(abs(r - v) for v in turns) > 1e-3)
    agrees_with_the_scan(tf, x, r)


def agrees_with_the_scan(tf, x, r):
    want = scanned_level_set(lambda t: tf.value(t, (x,)), r)
    got, cells = tf.level_set(r, (x,))
    assert got == pytest.approx(want, abs=1e-9) and cells == []
    cert = certify(level_system(r), tf, x)
    event(f"{cert.verdict.value}, {len(want)} preimages")
    assert cert.unresolved == ()
    if cert.verdict == Verdict.SLIDING_CERTIFIED:
        assert any(abs(t - cert.witness.t) <= 1e-9 for t in want)
    elif cert.verdict == Verdict.SEWING_CERTIFIED:
        assert want == []


# psi' = (3 - 3t^2)/2 + A*(sgn(t - s) + s) with A = a + c*x jumps by 2A at
# the kink s, which psi'' does not see: abs differentiates to sgn and sgn to
# 0.  A is set so that psi' is e just left or right of s, so that for e < 0
# psi dips or peaks beside the kink.  On each side psi' vanishes where
# t^2 = 1 + 2A(s -+ 1)/3, so these, s and the band ends break psi into
# monotone pieces, and brentq finds each preimage exactly.
KINK = "(3*t - t^3)/2 + ({a}{x})*(abs(t - {s}) + {s}*t - 1)"


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(s=st.floats(-0.8, 0.8), e=st.floats(-0.1, 0.1), left=st.booleans(),
       c=st.sampled_from([0.0, 0.5]), x=st.floats(-1.0, 1.0), f=st.floats(-0.5, 1.5))
def test_custom_certificates_agree_with_exact_preimages_at_a_kink(s, e, left, c, x, f):
    slope = (3.0 - 3.0 * s * s) / 2.0
    big_a = (e - slope) / (s - 1.0) if left else (e - slope) / (s + 1.0)
    tf = Custom(KINK.format(a=repr(big_a - c * x), s=repr(s), x=f" + {c!r}*x" if c else ""),
                ("x",))
    psi = lambda t: tf.value(t, (x,))
    breaks = [-1.0, s, 1.0]
    for side, lo, hi in ((-1.0, -1.0, s), (1.0, s, 1.0)):
        q = 1.0 + 2.0 * big_a * (s + side) / 3.0
        breaks += [t for t in (-math.sqrt(max(q, 0.0)), math.sqrt(max(q, 0.0))) if lo < t < hi]
    breaks.sort()
    # levels from psi at the kink to psi at the break next to it, and beyond
    k = breaks.index(s)
    near = min(breaks[k - 1], breaks[k + 1], key=lambda t: abs(t - s))
    r = psi(s) + f * (psi(near) - psi(s))
    assume(min(abs(r - psi(t)) for t in breaks) > 1e-9)
    want = [brentq(lambda t: psi(t) - r, lo, hi, xtol=1e-15)
            for lo, hi in zip(breaks, breaks[1:]) if (psi(lo) - r) * (psi(hi) - r) < 0.0]
    # only a cell holding the kink may stay unproven, and no preimage in it is sought
    got, cells = tf.level_set(r, (x,))
    assert all(lo <= s <= hi and hi - lo < 1e-5 for lo, hi in cells)
    kept = [t for t in want if not any(lo < t < hi for lo, hi in cells)]
    assert got == pytest.approx(kept, abs=1e-6)
    cert = certify(level_system(r), tf, x)
    event(f"{cert.verdict.value}, {len(want)} preimages, {len(cells)} unproven")
    if cert.verdict == Verdict.SLIDING_CERTIFIED:
        assert any(abs(t - cert.witness.t) <= 1e-6 for t in want)
    elif cert.verdict == Verdict.SEWING_CERTIFIED:
        assert want == [] and cells == []


@pytest.mark.parametrize("text, kink", [
    ("(3*t - t^3)/2 + 2*(abs(t - 0.3) + 0.3*t - 1)", 0.3),
    ("(3*t - t^3)/2 - 2*(abs(t + 0.3) - 0.3*t - 1)", -0.3),  # -psi(-t): a hidden maximum
])
def test_a_kink_hides_no_turn(text, kink):
    # psi' is +0.006 and +3.7 at the ends of the cell [0.25, 0.5] and psi''
    # is about [-1.5, -0.75] on it, but psi' jumps at the kink 0.3 and is
    # negative on (0.258, 0.3), where psi dips by 7e-4: a cell holding the
    # kink is never taken as monotone (the mirror image likewise)
    tf = Custom(text)
    turn = brentq(tf.deriv_t, *sorted((0.2 * kink / 0.3, 0.29 * kink / 0.3)))
    ends = sorted((tf.value(kink), tf.value(turn)))
    assert ends[1] - ends[0] == pytest.approx(7.1e-4, abs=1e-5)
    for f in (0.1, 0.5, 0.9):
        r = ends[0] + f * (ends[1] - ends[0])
        want = scanned_level_set(tf.value, r)
        assert len(want) == 4
        got, cells = tf.level_set(r)
        assert got == pytest.approx(want, abs=1e-9) and cells == []
        assert certify(level_system(r), tf, 0.0).verdict == Verdict.SLIDING_CERTIFIED


# monotone brackets on which the slope stays within a factor of 14 of its
# largest value.  A flatter stretch costs more: 13 to 16 evaluations for
# tanh(s*t) with s near 20, a cubic with a slope of 0.1 at its root, or a
# level next to a flat end of the bracket (about as many as brentq's)
BRACKETS = {
    "cubic": (lambda p, t: (0.5 + 1.5 * p) * t + 2.0 * (1.0 - p) * t ** 3, -1.0, 1.0),
    "quartic": (lambda p, t: t + (0.05 + 0.95 * p) * t ** 4, -0.6, 0.6),
    "tanh": (lambda p, t: math.tanh((0.5 + 1.5 * p) * t), -1.0, 1.0),
}


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(sorted(BRACKETS)), p=st.floats(0.0, 1.0), u=st.floats(0.01, 0.99),
       rising=st.booleans())
def test_zeroin_agrees_with_brentq(kind, p, u, rising):
    shape, a, b = BRACKETS[kind]
    lo, hi = shape(p, a), shape(p, b)
    r = lo + u * (hi - lo)  # a level strictly between the ends' values
    f = (lambda t: shape(p, t) - r) if rising else (lambda t: r - shape(p, t))
    calls = []
    t = zeroin(lambda t: calls.append(t) or f(t), a, b, ROOT_BISECTION_TOL, fa=f(a), fb=f(b))
    want = brentq(f, a, b, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
    assert abs(t - want) <= ROOT_BISECTION_TOL
    assert a < t < b or f(t) == 0.0
    assert len(calls) <= 12
