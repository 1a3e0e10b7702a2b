"""Command line front end.

Subcommands: classify, certify, slow-fast, manifold, integrate, cross, all,
one entry each in COMMANDS, which builds the parser and dispatches.  Each
takes --config and --out and writes its artifacts under the output
directory.  Every other flag is the [run] key of the same meaning (--grid
is grid, --from x0, --tspan t_span, --epsilon epsilons, --mode mode): its
text goes to load_config, which checks it as it checks the file's value
and lets it replace that value.  Exit codes: 0 success, 1 computation
failed, 2 bad configuration or usage.

Artifacts are deterministic: floats are rendered with shortest round-trip
precision and no timestamps or machine identifiers are embedded, so a rerun
on the same config is byte-identical.  The JSON reports carry the tool
version, the sha256 of the config file and the tolerances used; grid rows
are {x, verdict, roots: [{t, dh_dt}]} and refined boundary locations land
in boundary_estimates.  Trajectory CSV columns are t, the tangential
coordinates, y, event.  Blow-up plot data columns are x, theta, r, chart.
The reported distances are closed forms: a manifold point (x, eps*t) lies
over the surface point (x, 0), so hausdorff_to_sigma is max |y|, and the
cross curve runs parallel to the z-axis, so hausdorff_to_axis is
sqrt(x^2 + y^2).
Grid points are evaluated one after another in a single thread.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .blowup import SlowFastSystem
from .config import ConfigError, SystemConfig, grid_points, load_config
from .cross import NonMonotoneTransitionError, stratified_slide_curve
from .expr import DomainError
from .dynamics import (
    NoSlidingAtError,
    Trajectory,
    UnresolvedSingularityError,
    integrate,
    integrate_filippov,
    track_manifold,
)
from .regularize import (
    TRANSVERSALITY_TOL,
    ZERO_TOL,
    HeightRoot,
    ValidationFailure,
    Verdict,
    bisect_sign_change,
    certify,
    linspace,
    regularized,
    regularized_field,  # not called here: bench/tracing.py counts calls under this name
)
from .system import CLASS_TOL, NotSlidingError, SigmaClass, classify_point

BOUNDARY_BISECTION_TOL = 1e-12  # width at which a refined verdict boundary stops bisecting


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _report_skeleton(cfg: SystemConfig) -> dict:
    return {
        "version": __version__,
        "config_sha256": cfg.sha256,
        "tolerances": {
            "class_tol": CLASS_TOL,
            "transversality_tol": TRANSVERSALITY_TOL,
            "zero_tol": ZERO_TOL,
        },
    }


def _require_system(cfg: SystemConfig):
    if cfg.system is None:
        raise ConfigError("this command needs a [system] section")
    return cfg.system


def _require_planar(cfg: SystemConfig):
    system = _require_system(cfg)
    if system.dim != 2:
        raise ConfigError("the surface grid is planar-only, but this system has "
                          f"{system.dim - 1} tangential coordinates")
    return system


def _write_verdict_report(cfg: SystemConfig, path: Path,
                          judge: Callable[[float], tuple[str, list[dict]]],
                          sliding: str, sewing: str) -> None:
    """Grid rows {x, verdict, roots} from ``judge(x) -> (verdict, roots)``,
    plus the refined boundaries between sliding and sewing runs.

    Runs of the two decided labels may be separated by up to two undecided
    grid points; the flip inside the gap is then refined by bisection on
    judge(x)[0] == sliding.
    """
    rows = [(x, *judge(x)) for x in grid_points(cfg.run.grid)]
    report = _report_skeleton(cfg)
    report["grid"] = [{"x": x, "verdict": v, "roots": roots} for x, v, roots in rows]
    side = lambda x: 1.0 if judge(x)[0] == sliding else -1.0
    decided = [(i, x, v) for i, (x, v, _) in enumerate(rows) if v in (sliding, sewing)]
    report["boundary_estimates"] = [
        bisect_sign_change(side, xa, xb, BOUNDARY_BISECTION_TOL, fa=1.0 if va == sliding else -1.0)
        for (i, xa, va), (j, xb, vb) in zip(decided, decided[1:])
        if va != vb and j - i <= 3
    ]
    _write_json(path, report)


def _cmd_classify(cfg: SystemConfig, out: Path) -> None:
    system = _require_planar(cfg)
    judge = lambda x: (classify_point(system, x).value, [])
    _write_verdict_report(cfg, out / "classification.json", judge,
                          SigmaClass.SLIDING.value, SigmaClass.SEWING.value)


def _cmd_certify(cfg: SystemConfig, out: Path) -> None:
    system = _require_planar(cfg)

    def judge(x: float) -> tuple[str, list[dict]]:
        cert = certify(system, cfg.transition, x)
        return cert.verdict.value, [{"t": r.t, "dh_dt": r.dh_dt} for r in cert.roots]

    _write_verdict_report(cfg, out / "certificates.json", judge,
                          Verdict.SLIDING_CERTIFIED.value, Verdict.SEWING_CERTIFIED.value)


def _trajectory_csv(path: Path, coords: Sequence[str], traj: Trajectory) -> None:
    header = ["t", *coords, "event"]
    events: dict[float, list[str]] = {}
    for e in traj.events:
        events.setdefault(float(e.time), []).append(e.kind.value)
    lines = [",".join(header)]
    for t, state in zip(traj.node_times, traj.node_states):
        lines.append(",".join([repr(float(t)), *(repr(float(v)) for v in state),
                               ";".join(events.get(t, []))]))
    path.write_text("\n".join(lines) + "\n")


def _cmd_integrate(cfg: SystemConfig, out: Path) -> None:
    system = _require_system(cfg)
    run = cfg.run
    if run.x0 is None:
        raise ConfigError("integrate needs an initial state: set x0 in [run] or pass --from")
    if run.mode == "filippov":
        traj = integrate_filippov(system, run.x0, run.t_span)
    else:
        fn, jac = regularized(system, cfg.transition, run.epsilons[0])
        traj = integrate(fn, run.x0, run.t_span, jac=jac)
    _trajectory_csv(out / "trajectory.csv", system.coords, traj)


def _cmd_slowfast(cfg: SystemConfig, out: Path) -> None:
    """Polar-cylinder plot data: the slow manifold on the divisor from the
    central chart, plus the saturation arcs from the side charts."""
    system = _require_planar(cfg)
    sf = SlowFastSystem(system, cfg.transition)
    xs = grid_points(cfg.run.grid)
    lines = ["x,theta,r,chart"]
    for x in xs:
        for root in sf.manifold_slice(x):
            if isinstance(root, HeightRoot):
                theta = math.atan2(1.0, root.t)
                lines.append(f"{repr(x)},{repr(theta)},0.0,E")
    for x in (xs[0], xs[-1]):
        for epstil in linspace(0.0, 1.0, 11):
            lines.append(f"{repr(x)},{repr(math.atan2(epstil, 1.0))},0.0,F+")
            lines.append(f"{repr(x)},{repr(math.atan2(epstil, -1.0))},0.0,F-")
    (out / "slowfast.csv").write_text("\n".join(lines) + "\n")


def _cmd_manifold(cfg: SystemConfig, out: Path) -> None:
    system = _require_planar(cfg)
    xs = grid_points(cfg.run.grid)
    report = _report_skeleton(cfg)
    report["tracks"] = []
    for track in track_manifold(system, cfg.transition, cfg.run.epsilons, xs):
        report["tracks"].append({
            "epsilon": track.eps,
            "hausdorff_to_sigma": max(abs(p.y) for p in track.points),
            "points": [
                {"x": p.x, "t": p.t, "y": p.y, "dh_dt": p.dh_dt} for p in track.points
            ],
            "excluded": [{"x": x, "reason": reason} for x, reason in track.excluded],
        })
    _write_json(out / "manifold.json", report)


def _cmd_cross(cfg: SystemConfig, out: Path) -> None:
    if cfg.cross is None:
        raise ConfigError("this command needs a [cross] section")
    epsilons = cfg.run.epsilons
    etas = cfg.run.etas or epsilons  # load_config checked the lengths
    report = _report_skeleton(cfg)
    report["pairs"] = []
    for eps, eta in zip(epsilons, etas):
        curve = stratified_slide_curve(cfg.cross, eps, eta)
        report["pairs"].append({
            "epsilon": eps,
            "eta": eta,
            "t0": curve.t0,
            "u0": curve.u0,
            "x": curve.x,
            "y": curve.y,
            "residual_x": curve.residual_x,
            "residual_y": curve.residual_y,
            "hausdorff_to_axis": curve.hausdorff_to_axis,
        })
    _write_json(out / "cross.json", report)


def _cmd_all(cfg: SystemConfig, out: Path) -> None:
    if cfg.system is not None and cfg.system.dim == 2:
        _cmd_classify(cfg, out)
        _cmd_certify(cfg, out)
        _cmd_slowfast(cfg, out)
        try:
            _cmd_manifold(cfg, out)
        except NoSlidingAtError:
            pass  # nothing to track is fine for the combined run
    if cfg.system is not None and cfg.run.x0 is not None:
        _cmd_integrate(cfg, out)
    if cfg.cross is not None:
        _cmd_cross(cfg, out)


# name: (help, command, takes --grid)
COMMANDS: dict[str, tuple[str, Callable[[SystemConfig, Path], None], bool]] = {
    "classify": ("classify surface points", _cmd_classify, True),
    "certify": ("sliding/sewing certificates over a grid", _cmd_certify, True),
    "slow-fast": ("blow-up plot data", _cmd_slowfast, True),
    "manifold": ("track the sliding manifold", _cmd_manifold, True),
    "integrate": ("integrate an orbit", _cmd_integrate, False),
    "cross": ("stratified curve for a double switching", _cmd_cross, False),
    "all": ("all artifacts the config supports", _cmd_all, True),
}


@functools.cache  # built on the first command, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filippov",
        description="piecewise-smooth vector field analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the dest of every flag past --out is its [run] key
    for name, (help_text, _, takes_grid) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        if takes_grid:
            p.add_argument("--grid", help="surface grid lo:hi:count (overrides [run] grid)")
        if name == "integrate":
            p.add_argument("--from", dest="x0", help="initial state, comma separated")
            p.add_argument("--tspan", dest="t_span", help="time window 'start,end'")
            p.add_argument("--mode", help="filippov or regularized")
            p.add_argument("--epsilon", dest="epsilons", help="band width for regularized mode")
    return parser


def run_command(argv: Sequence[str]) -> int:
    """Entry point used by tests and by main(); returns the exit code."""
    try:
        flags = vars(_build_parser().parse_args(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        command, config, out = flags.pop("command"), flags.pop("config"), Path(flags.pop("out"))
        cfg = load_config(config, flags)
        out.mkdir(parents=True, exist_ok=True)
        COMMANDS[command][1](cfg, out)
    except (
        UnresolvedSingularityError,
        NoSlidingAtError,
        NotSlidingError,
        NonMonotoneTransitionError,
        DomainError,
    ) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValidationFailure, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
