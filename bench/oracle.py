"""Closed-form checks of the artifacts one job wrote.

A job fails when its exit code differs from the closed form's expectation
(every generated config is valid and has an answer, so 0), when it raises,
or when an artifact disagrees with the closed form.  `Indeterminate` is
accepted anywhere; a definite verdict must match the closed form except in
a band of relative width 1e-9 around an exact boundary.

Findings come in two grades.  `fail` records a wrong answer.  `broken`
records a breach of the command line contract itself: an exception that
escaped run_command, exit code 2 on a generated (valid) config, or a
missing or unreadable artifact.  Only `broken` makes a run incorrect, so
numerical defects show up as failed jobs rather than as an invalid run.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from cases import Cross, Fold, Orbit, regularized_limit

BAND = 1e-9  # relative width of the ambiguous band around a boundary
ROOT_TOL = 1e-7  # |h| at a reported root, relative to |a+| + |a-|
BOUNDARY_TOL = 1e-6  # refined boundary estimates against the closed form
SINGULAR_WINDOW = 1e-6  # SigmaSingular is accepted this close to x0
ORBIT_TOL = 1e-6


class Findings:
    def __init__(self) -> None:
        self.tags: Counter[str] = Counter()
        self.broken = False

    def fail(self, tag: str) -> None:
        self.tags[tag] += 1

    def broke(self, tag: str) -> None:
        self.broken = True
        self.tags[tag] += 1

    @property
    def failed(self) -> bool:
        return bool(self.tags)


def load_json(path: Path, found: Findings):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        found.broke(f"artifact.{path.name}")
        return None


def read_text(path: Path, found: Findings):
    try:
        return path.read_text()
    except OSError:
        found.broke(f"artifact.{path.name}")
        return None


def _scale(fold: Fold, x: float) -> float:
    return abs(float(fold.p(x))) + abs(float(fold.q(x))) + 1e-300


def _check_root(fold: Fold, x: float, t: float, dh_dt: float | None, found: Findings, what: str) -> None:
    h, dh = fold.height(x, t)
    scale = _scale(fold, x)
    if not abs(float(h)) <= ROOT_TOL * scale:
        found.fail(f"{what}.not_a_root")
    elif dh_dt is not None and not abs(dh_dt - float(dh)) <= 1e-6 * scale:
        found.fail(f"{what}.slope")


def true_boundaries(fold: Fold, lo: float, hi: float) -> list[float]:
    """Roots of the certification margin on [lo, hi]: scan, then bisect."""
    xs = np.linspace(lo, hi, 4001)
    vals = fold.margin(xs)
    out = []
    for k in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)):
        a, b, fa = float(xs[k]), float(xs[k + 1]), float(vals[k])
        for _ in range(100 if fa else 0):
            mid = 0.5 * (a + b)
            if fold.margin(mid) * fa > 0.0:
                a = mid
            else:
                b = mid
        out.append(a if not fa else 0.5 * (a + b))
    return out


def _check_boundaries(estimates, truth: list[float], found: Findings, what: str) -> None:
    for est in estimates:
        if not truth or min(abs(est - b) for b in truth) > BOUNDARY_TOL:
            found.fail(f"{what}.boundary")


def check_classification(report, fold: Fold, found: Findings, tally: Counter) -> None:
    for row in report["grid"]:
        x, verdict = row["x"], row["verdict"]
        tally[f"classify.{verdict}"] += 1
        p = float(fold.p(x))
        if verdict == "SigmaSingular":
            if abs(x - fold.x0) > SINGULAR_WINDOW:
                found.fail("classify.singular_off_tangency")
        elif verdict != ("Sliding" if p < 0 else "Sewing") and p != 0.0:
            found.fail("classify.verdict")
    truth = [fold.x0]
    _check_boundaries(report["boundary_estimates"], truth, found, "classify")


def check_certificates(report, fold: Fold, grid, found: Findings, tally: Counter) -> None:
    for row in report["grid"]:
        x, verdict = row["x"], row["verdict"]
        tally[f"certify.{verdict}"] += 1
        for root in row["roots"]:
            _check_root(fold, x, root["t"], root["dh_dt"], found, "certify")
        margin = fold.margin(x) / _scale(fold, x)
        if verdict == "SlidingCertified" and margin < -BAND:
            found.fail("certify.sliding_where_sewing")
        elif verdict == "SewingCertified" and margin > BAND:
            found.fail("certify.sewing_where_sliding")
    truth = true_boundaries(fold, grid[0], grid[1])
    _check_boundaries(report["boundary_estimates"], truth, found, "certify")


def check_manifold(report, fold: Fold, epsilons, found: Findings) -> None:
    tracks = report["tracks"]
    if [t["epsilon"] for t in tracks] != list(epsilons):
        found.fail("manifold.epsilons")
    for track in tracks:
        eps = track["epsilon"]
        ys = [abs(p["y"]) for p in track["points"]]
        for pt in track["points"]:
            _check_root(fold, pt["x"], pt["t"], pt["dh_dt"], found, "manifold")
            if pt["y"] != eps * pt["t"]:
                found.fail("manifold.y")
            if fold.margin(pt["x"]) / _scale(fold, pt["x"]) < -BAND:
                found.fail("manifold.point_where_sewing")
        for x, reason in ((e["x"], e["reason"]) for e in track["excluded"]):
            if reason.startswith("no root") and fold.margin(x) / _scale(fold, x) > BAND:
                found.fail("manifold.missed_sliding")
        if ys and abs(track["hausdorff_to_sigma"] - max(ys)) > 1e-15:
            found.fail("manifold.hausdorff")


def check_slowfast(text: str, fold: Fold, grid, found: Findings) -> None:
    rows = [line.split(",") for line in text.splitlines()[1:]]
    xs = np.linspace(*grid)
    with_root = set()
    for x, theta, _, chart in rows:
        if chart == "E":
            x, theta = float(x), float(theta)
            with_root.add(x)
            _check_root(fold, x, math.cos(theta) / math.sin(theta), None, found, "slowfast")
    if sum(1 for r in rows if r[3] in ("F+", "F-")) != 44:
        found.fail("slowfast.side_charts")
    for x in xs:
        x = float(x)
        if x not in with_root and fold.margin(x) / _scale(fold, x) > BAND:
            found.fail("slowfast.missed_sliding")


def check_trajectory(text: str, orbit: Orbit, mode: str, eps: float, found: Findings,
                     events: Counter) -> None:
    rows = [line.split(",") for line in text.splitlines()[1:]]
    last = rows[-1]
    t, x, y = float(last[0]), float(last[1]), float(last[2])
    kinds = [r[3] for r in rows if r[3]]
    for cell in kinds:
        for kind in cell.split(";"):
            events[kind] += 1
    if abs(t - orbit.t_end) > 1e-12 * orbit.t_end:
        found.fail(f"{mode}.stopped_short")
        return
    if mode == "filippov":
        want, tol = orbit.end, ORBIT_TOL
        if kinds != orbit.events:
            found.fail(f"filippov.{orbit.name}.events")
    else:
        want = regularized_limit(orbit)
        if orbit.fold.psi.is_bump():
            # a transition with an interior peak makes the orbit leave
            # through a fold of the critical manifold, which delays the exit
            # by O(eps^(2/3)); up to 0.85 eps^(2/3) is seen
            tol = ORBIT_TOL + 3.0 * eps ** (2.0 / 3.0)
        else:
            # monotone transitions: O(eps) error, up to 1.0 eps is seen
            tol = ORBIT_TOL + 1.25 * eps
        if kinds:
            found.fail("regularized.events")
    if abs(x - want[0]) > ORBIT_TOL * (1 + abs(want[0])) or abs(y - want[1]) > tol:
        found.fail(f"{mode}.{orbit.name}.end_point")


def check_cross(report, cross: Cross, epsilons, found: Findings) -> None:
    pairs = report["pairs"]
    # without etas in the config the CLI pairs each epsilon with itself
    if [(p["epsilon"], p["eta"]) for p in pairs] != [(e, e) for e in epsilons]:
        found.fail("cross.pairs")
    for p in pairs:
        if p["t0"] != cross.t0 or p["u0"] != cross.u0:
            found.fail("cross.zeros")
        if p["x"] != p["epsilon"] * cross.t0 or p["y"] != p["eta"] * cross.u0:
            found.fail("cross.line")
        if max(p["residual_x"], p["residual_y"]) > 1e-12:
            found.fail("cross.residual")
        if abs(p["hausdorff_to_axis"] - math.hypot(p["x"], p["y"])) > 1e-12:
            found.fail("cross.hausdorff")
