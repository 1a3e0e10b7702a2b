"""Property test: the classifier and the certificate agree on the same
surface point, over random planar polynomial systems under positive
rescalings of either field, for all four transition kinds.

- Where classify_point says Sliding, certify never says SewingCertified.
- For the monotone smoothstep and biased transitions, certify says
  SlidingCertified at Sliding points and SewingCertified at Sewing points.
- For overshoot(m), whose psi reaches m, a Sewing point is SlidingCertified
  exactly where its level r lies in (1, m); points within LEVEL_GAP of
  r = 1 or r = m, where a root is nearly tangential, are left out.

And over random folds on a grid, the certificate margin and the boundary
estimates of certificates.json agree with certify:

- certificate_margin is positive at every SlidingCertified grid point and
  negative at every SewingCertified one;
- certify STEP_OFF left and right of each estimate between two adjacent
  decided grid rows gives those rows' verdicts; an estimate across
  undecided rows, a probe past a row, and for a custom psi a probe whose
  level lies within ZERO_TOL of a range end (certify may read a preimage at
  a break there) are left out.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, event, given, settings, strategies as st

from filippov import cli
from filippov.config import RunParams, SystemConfig
from filippov.regularize import (ZERO_TOL, Biased, Custom, Overshoot, Smoothstep, Verdict,
                                 certificate_margin, certify, linspace)
from filippov.system import SigmaClass, classify_point, system_from_strings

LEVEL_GAP = 1e-6  # |r - 1| and |r - m| above this, far past CLASS_TOL and TRANSVERSALITY_TOL
STEP_OFF = 1e-9  # certify is probed this far from an estimate, relative to 1 + |x|

COEFF = st.floats(-2.0, 2.0)
SCALE = st.floats(1e-3, 1e3)
CUSTOM = (
    "(3*t - t^3)/2",
    "(3*t - t^3)/2 + 0.6*(1 - t^2)^2",  # overshoots to about 1.3
    "tanh(3*t)/tanh(3) + 0.2*x*(1 - t^2)",  # depends on x
)


def polynomial(c, scale: float) -> str:
    """scale times c0 + c1 x + c2 x^2 + c3 y + c4 x y."""
    return f"{scale!r}*({c[0]!r} + {c[1]!r}*x + {c[2]!r}*x^2 + {c[3]!r}*y + {c[4]!r}*x*y)"


def transition(kind: str, param: float, variant: int):
    if kind == "smoothstep":
        return Smoothstep()
    if kind == "biased":
        return Biased(0.9 * param)
    if kind == "overshoot":
        return Overshoot(1.1 + 4.0 * abs(param))
    return Custom(CUSTOM[variant], ("x",))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(["smoothstep", "biased", "overshoot", "custom"]),
       param=st.floats(-1.0, 1.0), variant=st.integers(0, len(CUSTOM) - 1),
       plus=st.lists(COEFF, min_size=5, max_size=5), minus=st.lists(COEFF, min_size=5, max_size=5),
       scales=st.tuples(SCALE, SCALE), x=st.floats(-2.0, 2.0))
def test_classify_and_certify_agree(kind, param, variant, plus, minus, scales, x):
    system = system_from_strings(("x", "y"), ("1", polynomial(plus, scales[0])),
                                 ("1", polynomial(minus, scales[1])))
    verdict = classify_point(system, x)
    assume(verdict != SigmaClass.SIGMA_SINGULAR)
    tf = transition(kind, param, variant)
    got = certify(system, tf, x).verdict
    event(f"{kind}: {verdict.value} -> {got.value}")
    if verdict == SigmaClass.SLIDING:
        assert got != Verdict.SEWING_CERTIFIED
    if kind in ("smoothstep", "biased"):
        assert got == (Verdict.SLIDING_CERTIFIED if verdict == SigmaClass.SLIDING
                       else Verdict.SEWING_CERTIFIED)
    elif kind == "overshoot" and verdict == SigmaClass.SEWING:
        a_plus, a_minus = system.normal_components_on_sigma(x)
        # a_plus = a_minus leaves h the constant 2 a_plus, with no level to reach
        r = -(a_plus + a_minus) / (a_plus - a_minus) if a_plus != a_minus else math.inf
        assume(abs(r - 1.0) > LEVEL_GAP and abs(r - tf.m) > LEVEL_GAP)
        assert got == (Verdict.SLIDING_CERTIFIED if 1.0 < r < tf.m else Verdict.SEWING_CERTIFIED)


def level_gap(system, tf, x: float) -> float:
    """|r - L| at x for the end L of psi's range nearest the level r:
    certificate_margin over |a_plus - a_minus|, inf where they are equal."""
    a_plus, a_minus = system.normal_components_on_sigma(x)
    if a_plus == a_minus:
        return math.inf
    return abs(certificate_margin(system, tf, x) / (a_plus - a_minus))


CACHED_CUSTOM = [Custom(text, ("x",)) for text in CUSTOM]  # each proves its x-boxes once


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(["smoothstep", "biased", "overshoot", "custom"]),
       param=st.floats(-1.0, 1.0), variant=st.integers(0, len(CUSTOM) - 1),
       plus=st.lists(COEFF, min_size=5, max_size=5), minus=st.lists(COEFF, min_size=5, max_size=5),
       scales=st.tuples(SCALE, SCALE))
def test_certificate_margin_and_boundaries_agree_with_certify(kind, param, variant, plus, minus,
                                                              scales):
    system = system_from_strings(("x", "y"), ("1", polynomial(plus, scales[0])),
                                 ("1", polynomial(minus, scales[1])))
    tf = CACHED_CUSTOM[variant] if kind == "custom" else transition(kind, param, variant)
    certified = [(x, certify(system, tf, x)) for x in linspace(-2.0, 2.0, 21)]
    with tempfile.TemporaryDirectory() as tmp:
        cli._write_certificates(SystemConfig(system, tf, None, RunParams(), ""), Path(tmp), certified)
        estimates = json.loads((Path(tmp) / "certificates.json").read_text())["boundary_estimates"]
    for x, cert in certified:
        margin = certificate_margin(system, tf, x)
        if cert.verdict == Verdict.SLIDING_CERTIFIED:
            assert margin > 0.0, (x, margin)
        elif cert.verdict == Verdict.SEWING_CERTIFIED:
            assert margin < 0.0, (x, margin)
    for estimate in estimates:
        # the grid row left of the estimate and the next; across undecided rows, skipped
        k = max(i for i, (x, _) in enumerate(certified) if x < estimate)
        (xa, a), (xb, b) = certified[k:k + 2]
        if Verdict.INDETERMINATE in (a.verdict, b.verdict):
            event("across undecided rows")
            continue
        step = STEP_OFF * (1.0 + abs(estimate))
        probes = estimate - step, estimate + step
        if not xa < probes[0] < probes[1] < xb:
            event("probe past a grid row")
            continue
        # within ZERO_TOL of a range end, a custom psi's certify may read a
        # preimage at a break
        if kind == "custom" and min(level_gap(system, tf, x) for x in probes) <= ZERO_TOL:
            event("probe within ZERO_TOL of a range end")
            continue
        event(f"{kind}: boundary")
        sides = tuple(certify(system, tf, x).verdict for x in probes)
        assert sides == (a.verdict, b.verdict), (estimate, sides)
