"""Command line front end.

Subcommands: classify, certify, slow-fast, integrate, manifold, cross, all.
Each takes --config and --out and writes its artifacts under the output
directory.  Exit codes: 0 success, 1 computation failed, 2 bad
configuration or usage.

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

import numpy as np

from . import __version__
from .blowup import SlowFastSystem
from .config import ConfigError, SystemConfig, grid_points, load_config, parse_grid
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
    regularized_field,
    regularized_jacobian,
)
from .system import CLASS_TOL, NotSlidingError, SigmaClass, classify_point


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


def _write_verdict_report(cfg: SystemConfig, path: Path, grid,
                          judge: Callable[[float], tuple[str, list[dict]]],
                          sliding: str, sewing: str) -> None:
    """Grid rows {x, verdict, roots} from ``judge(x) -> (verdict, roots)``,
    plus the refined boundaries between sliding and sewing runs.

    Runs of the two decided labels may be separated by up to two undecided
    grid points; the flip inside the gap is then refined by bisection on
    judge(x)[0] == sliding.
    """
    rows = [(float(x), *judge(float(x))) for x in grid_points(grid)]
    report = _report_skeleton(cfg)
    report["grid"] = [{"x": x, "verdict": v, "roots": roots} for x, v, roots in rows]
    side = lambda x: 1.0 if judge(x)[0] == sliding else -1.0
    decided = [(i, x, v) for i, (x, v, _) in enumerate(rows) if v in (sliding, sewing)]
    report["boundary_estimates"] = [
        bisect_sign_change(side, xa, xb, 1e-12, fa=1.0 if va == sliding else -1.0)
        for (i, xa, va), (j, xb, vb) in zip(decided, decided[1:])
        if va != vb and j - i <= 3
    ]
    _write_json(path, report)


def _cmd_classify(cfg: SystemConfig, out: Path, grid) -> int:
    system = _require_planar(cfg)
    judge = lambda x: (classify_point(system, x).value, [])
    _write_verdict_report(cfg, out / "classification.json", grid, judge,
                          SigmaClass.SLIDING.value, SigmaClass.SEWING.value)
    return 0


def _cmd_certify(cfg: SystemConfig, out: Path, grid) -> int:
    system = _require_planar(cfg)

    def judge(x: float) -> tuple[str, list[dict]]:
        cert = certify(system, cfg.transition, x)
        return cert.verdict.value, [{"t": r.t, "dh_dt": r.dh_dt} for r in cert.roots]

    _write_verdict_report(cfg, out / "certificates.json", grid, judge,
                          Verdict.SLIDING_CERTIFIED.value, Verdict.SEWING_CERTIFIED.value)
    return 0


def _finite(flag: str, values: list[float]) -> tuple[float, ...]:
    """The numbers given to a command line flag; NaN and inf are refused."""
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{flag} needs finite numbers, got {values}")
    return tuple(values)


def _trajectory_csv(path: Path, coords: Sequence[str], traj: Trajectory) -> None:
    header = ["t", *coords, "event"]
    events: dict[float, list[str]] = {}
    for e in traj.events:
        events.setdefault(float(e.time), []).append(e.kind.value)
    lines = [",".join(header)]
    for t, state in zip(traj.times, traj.states):
        row = [repr(float(t))] + [repr(float(v)) for v in state]
        row.append(";".join(events.get(float(t), [])))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _cmd_integrate(cfg: SystemConfig, out: Path, x0, t_span, mode: str, eps: float | None) -> int:
    system = _require_system(cfg)
    if x0 is None:
        raise ConfigError("integrate needs an initial state: set x0 in [run] or pass --from")
    if len(x0) != system.dim:
        raise ConfigError(f"the initial state needs {system.dim} components, got {len(x0)}")
    if mode == "filippov":
        traj = integrate_filippov(system, x0, t_span)
    else:
        e = eps if eps is not None else cfg.run.epsilons[0]
        fn = lambda t, s: regularized_field(system, cfg.transition, e, s)
        jac = lambda t, s: regularized_jacobian(system, cfg.transition, e, s)
        traj = integrate(fn, x0, t_span, jac=jac)
    _trajectory_csv(out / "trajectory.csv", system.coords, traj)
    return 0


def _cmd_slowfast(cfg: SystemConfig, out: Path, grid) -> int:
    """Polar-cylinder plot data: the slow manifold on the divisor from the
    central chart, plus the saturation arcs from the side charts."""
    system = _require_planar(cfg)
    sf = SlowFastSystem(system, cfg.transition)
    xs = grid_points(grid)
    lines = ["x,theta,r,chart"]
    for x in xs:
        for root in sf.manifold_slice(float(x)):
            if isinstance(root, HeightRoot):
                theta = math.atan2(1.0, root.t)
                lines.append(f"{repr(float(x))},{repr(theta)},0.0,E")
    for x in (float(xs[0]), float(xs[-1])):
        for epstil in np.linspace(0.0, 1.0, 11):
            lines.append(f"{repr(x)},{repr(math.atan2(float(epstil), 1.0))},0.0,F+")
            lines.append(f"{repr(x)},{repr(math.atan2(float(epstil), -1.0))},0.0,F-")
    (out / "slowfast.csv").write_text("\n".join(lines) + "\n")
    return 0


def _cmd_manifold(cfg: SystemConfig, out: Path, grid) -> int:
    system = _require_planar(cfg)
    xs = grid_points(grid)
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
    return 0


def _cmd_cross(cfg: SystemConfig, out: Path) -> int:
    if cfg.cross is None:
        raise ConfigError("this command needs a [cross] section")
    epsilons = cfg.run.epsilons
    etas = cfg.run.etas or epsilons
    if len(etas) != len(epsilons):
        raise ConfigError("epsilons and etas must have the same length")
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
    return 0


@functools.cache  # built on the first command, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filippov",
        description="piecewise-smooth vector field analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--out", default=".", help="output directory (default: current)")

    def with_grid(p):
        common(p)
        p.add_argument("--grid", help="surface grid lo:hi:count (overrides [run] grid)")

    with_grid(sub.add_parser("classify", help="classify surface points"))
    with_grid(sub.add_parser("certify", help="sliding/sewing certificates over a grid"))
    with_grid(sub.add_parser("slow-fast", help="blow-up plot data"))
    with_grid(sub.add_parser("manifold", help="track the sliding manifold"))
    p_int = sub.add_parser("integrate", help="integrate an orbit")
    common(p_int)
    p_int.add_argument("--from", dest="x0", help="initial state, comma separated")
    p_int.add_argument("--tspan", help="time window 'start,end'")
    p_int.add_argument("--mode", choices=("filippov", "regularized"))
    p_int.add_argument("--epsilon", type=float, help="band width for regularized mode")
    common(sub.add_parser("cross", help="stratified curve for a double switching"))
    with_grid(sub.add_parser("all", help="all artifacts the config supports"))
    return parser


def run_command(argv: Sequence[str]) -> int:
    """Entry point used by tests and by main(); returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        grid = cfg.run.grid
        if getattr(args, "grid", None):
            grid = parse_grid(args.grid)

        if args.command == "classify":
            return _cmd_classify(cfg, out, grid)
        if args.command == "certify":
            return _cmd_certify(cfg, out, grid)
        if args.command == "slow-fast":
            return _cmd_slowfast(cfg, out, grid)
        if args.command == "manifold":
            return _cmd_manifold(cfg, out, grid)
        if args.command == "cross":
            return _cmd_cross(cfg, out)
        if args.command == "integrate":
            x0 = cfg.run.x0
            if args.x0:
                x0 = _finite("--from", [float(v) for v in args.x0.split(",")])
            t_span = cfg.run.t_span
            if args.tspan:
                parts = _finite("--tspan", [float(v) for v in args.tspan.split(",")])
                if len(parts) != 2:
                    raise ConfigError("--tspan needs 'start,end'")
                t_span = (parts[0], parts[1])
            if args.epsilon is not None:
                _finite("--epsilon", [args.epsilon])
            mode = args.mode or cfg.run.mode
            return _cmd_integrate(cfg, out, x0, t_span, mode, args.epsilon)
        if args.command == "all":
            rc = 0
            if cfg.system is not None and cfg.system.dim == 2:
                rc = _cmd_classify(cfg, out, grid)
                rc = rc or _cmd_certify(cfg, out, grid)
                rc = rc or _cmd_slowfast(cfg, out, grid)
                try:
                    rc = rc or _cmd_manifold(cfg, out, grid)
                except NoSlidingAtError:
                    pass  # nothing to track is fine for the combined run
            if cfg.system is not None and cfg.run.x0 is not None:
                rc = rc or _cmd_integrate(
                    cfg, out, cfg.run.x0, cfg.run.t_span, cfg.run.mode, None
                )
            if cfg.cross is not None:
                rc = rc or _cmd_cross(cfg, out)
            return rc
        raise ConfigError(f"unknown command {args.command!r}")
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


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
