"""End-to-end acceptance checks.

Each test prints one `[acceptance] <name>: PASS/FAIL` line on the real
terminal (capture disabled) and then asserts, so the summary survives any
pytest output mode.
"""

import json
import math

import numpy as np
import pytest

from filippov import (
    Biased,
    EventKind,
    Overshoot,
    SigmaClass,
    Smoothstep,
    Verdict,
    certify,
    classify_point,
    e_chart_field,
    equilibria_on_manifold,
    f_chart_field,
    filippov_sliding_field,
    integrate_filippov,
    regularized_field,
    system_from_strings,
    track_manifold,
)
from filippov.cli import run_command
from filippov.regularize import height
from test_cross import attracting_cross
from test_system import random_system


@pytest.fixture
def report(capsys):
    def _report(name, ok):
        with capsys.disabled():
            print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
        assert ok, name

    return _report


def fold():
    return system_from_strings(("x", "y"), ("1", "2*x"), ("1", "2"))


def test_fold_classification_split(report):
    sys = fold()
    xs = np.linspace(-1, 1, 201)
    labels = [classify_point(sys, float(x)) for x in xs]
    ok = all(
        lab == SigmaClass.SLIDING for x, lab in zip(xs, labels) if x < 0
    ) and all(lab == SigmaClass.SEWING for x, lab in zip(xs, labels) if x > 0)
    report("classification splits the fold at the tangency", ok)


def test_monotone_certificates_match_sign_test(report):
    rng = np.random.default_rng(101)
    tf = Smoothstep()
    checked = 0
    disagreements = 0
    for _ in range(50):
        sys = random_system(rng)
        for _ in range(100):
            x = float(rng.uniform(-2, 2))
            ap, am = sys.normal_components_on_sigma(x)
            if abs(ap * am) < 1e-6 or abs(ap - am) < 1e-6:
                continue
            checked += 1
            expected = (
                Verdict.SLIDING_CERTIFIED if ap * am < 0 else Verdict.SEWING_CERTIFIED
            )
            if certify(sys, tf, x).verdict is not expected:
                disagreements += 1
    ok = disagreements == 0 and checked >= 4000
    report("monotone certificates agree with the sign test", ok)


def test_overshoot_moves_the_certified_boundary(report):
    sys = fold()

    def boundary(tf, lo, hi):
        # certified sliding at lo, certified sewing at hi; the height curve
        # crosses tangentially at the boundary
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if certify(sys, tf, mid).verdict is Verdict.SLIDING_CERTIFIED:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    ok = True
    for m in (2.0, 4.0):
        got = boundary(Overshoot(m), 0.05, 0.9)
        ok = ok and abs(got - (m - 1.0) / (m + 1.0)) < 1e-6
    ok = ok and abs(boundary(Smoothstep(), -0.5, 0.5)) < 1e-6
    report("overshoot boundary sits at (m-1)/(m+1)", ok)


def test_sliding_field_equals_slow_flow(report):
    rng = np.random.default_rng(41)
    ok = True
    found = 0
    while found < 50:
        sys = random_system(rng)
        x = float(rng.uniform(-2, 2))
        if classify_point(sys, x) != SigmaClass.SLIDING:
            continue
        found += 1
        ap, am = sys.normal_components_on_sigma(x)
        bp = sys.plus.evaluate((x, 0.0))[0]
        bm = sys.minus.evaluate((x, 0.0))[0]
        psi_star = -(ap + am) / (ap - am)
        slow = 0.5 * ((bp + bm) + psi_star * (bp - bm))
        _, v = filippov_sliding_field(sys, x)
        ok = ok and abs(v[0] - slow) < 1e-9 and v[1] == 0.0
    report("sliding velocity equals the slow flow", ok)


def test_fast_component_is_half_the_height(report):
    rng = np.random.default_rng(29)
    tf = Smoothstep()
    ok = True
    for _ in range(1000):
        sys = random_system(rng)
        x = float(rng.uniform(-2, 2))
        ybar = float(rng.uniform(-1.2, 1.2))
        alpha = e_chart_field(sys, tf, x, ybar, 0.0)[0]
        h, _ = height(sys, tf, x, ybar)
        scale = max(1.0, abs(h))
        ok = ok and abs(alpha - 0.5 * h) <= 1e-12 * scale
    report("divisor fast component is half the height", ok)


def test_chart_fields_push_forward(report):
    rng = np.random.default_rng(31)
    tf = Smoothstep()
    ok = True

    def close(a, b):
        return abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))

    for _ in range(200):
        sys = random_system(rng)
        x = float(rng.uniform(-2, 2))
        ybar = float(rng.uniform(-1.5, 1.5))
        epsbar = float(rng.uniform(0.01, 0.5))
        got = e_chart_field(sys, tf, x, ybar, epsbar)
        amb = regularized_field(sys, tf, epsbar, (x, epsbar * ybar))
        ok = ok and close(got[0], amb[1]) and close(got[1], epsbar * amb[0])

    for sign in (1, -1):
        for _ in range(200):
            sys = random_system(rng)
            x = float(rng.uniform(-2, 2))
            ytil = float(rng.uniform(0.05, 1.0))
            epstil = float(rng.uniform(0.05, 1.0))
            amb = regularized_field(sys, tf, ytil * epstil, (x, sign * ytil))
            got = f_chart_field(sys, sign, x, ytil, epstil)
            rate = sign * amb[1]
            ok = (
                ok
                and close(got[0], ytil * rate)
                and close(got[1], -epstil * rate)
                and close(got[2], ytil * amb[0])
            )
    report("chart fields push forward to the regularized field", ok)


def test_manifold_distance_halves_with_epsilon(report):
    sys = fold()
    tf = Smoothstep()
    xs = np.linspace(-1.0, -0.2, 81)
    dists = []
    for eps in (0.1, 0.05, 0.025):
        track = track_manifold((eps,), [(x, certify(sys, tf, x)) for x in xs])[0]
        dists.append(max(abs(p.y) for p in track.points))
    ratios = [b / a for a, b in zip(dists, dists[1:])]
    ok = dists[0] > dists[1] > dists[2] > 0 and all(
        abs(r - 0.5) <= 0.025 for r in ratios
    )
    report("manifold distance halves with the band width", ok)


def test_hybrid_orbit_lands_on_the_surface(report):
    sys = system_from_strings(("x", "y"), ("1", "-1"), ("1", "1"))
    traj = integrate_filippov(sys, (0.0, 1.0), (0.0, 2.0))
    kinds = [e.kind for e in traj.events]
    final = traj.states[-1]
    ok = (
        kinds == [EventKind.SIGMA_HIT, EventKind.SLIDE_ENTRY]
        and traj.times[-1] == pytest.approx(2.0, abs=1e-12)
        and abs(final[0] - 2.0) < 1e-9
        and final[1] == 0.0
    )
    report("captured orbit reaches (2, 0) at t = 2", ok)


def test_equilibrium_count_follows_the_offset(report):
    sys = system_from_strings(("x", "y"), ("x^2 + y", "-1"), ("x^2 + y", "1"))
    eps = 0.02

    two = equilibria_on_manifold(sys, Biased(-0.5), eps, (-1.0, 1.0))
    one = equilibria_on_manifold(sys, Biased(0.0), eps, (-1.0, 1.0))
    none = equilibria_on_manifold(sys, Biased(0.5), eps, (-1.0, 1.0))

    ok = len(two) == 2 and len(one) == 1 and len(none) == 0
    if ok:
        lo, hi = sorted(two, key=lambda e: e.x)
        ok = (
            abs(lo.x + 0.1) < 1e-9
            and abs(hi.x - 0.1) < 1e-9
            and lo.stability == -1
            and hi.stability == 1
        )
    report("offset transition gives 2 / 1 / 0 equilibria", ok)


def test_stratified_curve_stays_invariant(report):
    from filippov import stratified_slide_curve

    cs = attracting_cross(phi=Biased(0.25), psi=Biased(-0.5))
    ok = True
    for eps, eta in ((0.1, 0.1), (0.05, 0.1), (0.025, 0.05)):
        curve = stratified_slide_curve(cs, eps, eta)
        bound = math.hypot(eps * curve.t0, eta * curve.u0)
        ok = (
            ok
            and curve.residual_x <= 1e-12
            and curve.residual_y <= 1e-12
            and curve.hausdorff_to_axis <= bound + 1e-12
        )
    report("doubly regularized curve is invariant near the axis", ok)


def test_repeat_runs_are_byte_identical(report, tmp_path):
    cfg = tmp_path / "fold.cfg"
    cfg.write_text(
        "[system]\ncoords = x, y\nx_plus = 1, 2*x\nx_minus = 1, 2\n"
        "\n[transition]\nkind = overshoot\nm = 2\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_command(["certify", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "certificates.json").read_bytes())
    ok = outs[0] == outs[1] and json.loads(outs[0])
    report("repeated certify runs are byte-identical", bool(ok))
