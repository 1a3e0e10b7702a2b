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
Grid points are evaluated one after another in a single thread, and each is
certified once per run: certificates.json, slowfast.csv (the roots) and
manifold.json (the witnesses) read one list of (x, certificate) pairs.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

from . import __version__
from .config import ConfigError, SystemConfig, grid_points, load_config
from .cross import NonMonotoneTransitionError, stratified_slide_curve
from .expr import DomainError
from .dynamics import (
    ManifoldPoint,
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
    SlidingCertificate,
    ValidationFailure,
    Verdict,
    certificate_margin,
    certify,
    linspace,
    regularized,
    regularized_field,  # not called here: bench/tracing.py counts calls under this name
    zeroin,
)
from .system import CLASS_TOL, NotSlidingError, SigmaClass, classify_point, sliding_margin

Certified = list[tuple[float, SlidingCertificate]]  # grid points with their certificates


def _float(value: float) -> str:
    """A float as json.dumps writes it."""
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


class _Rows(NamedTuple):
    """A list of rows of one shape, which _json writes a row at a time by
    ``encode(row, inner)``, inner being the line break and indent of the
    row's line."""

    encode: Callable[[Any, str], str]
    rows: Sequence


def _grid_row(row: tuple[float, str, Sequence[HeightRoot]], inner: str) -> str:
    """{x, verdict, roots: [{t, dh_dt}]} of a row (x, verdict, roots)."""
    x, verdict, roots = row
    key = inner + "  "
    deep = key + "    "
    listed = ",".join(f'{key}  {{{deep}"t": {_float(r.t)},{deep}"dh_dt": {_float(r.dh_dt)}{key}  }}'
                      for r in roots)
    return (f'{{{key}"x": {_float(x)},{key}"verdict": {encode_basestring_ascii(verdict)},'
            f'{key}"roots": {f"[{listed}{key}]" if roots else "[]"}{inner}}}')


def _point_row(p: ManifoldPoint, inner: str) -> str:
    """{x, t, y, dh_dt} of a manifold point."""
    key = inner + "  "
    return (f'{{{key}"x": {_float(p.x)},{key}"t": {_float(p.t)},{key}"y": {_float(p.y)},'
            f'{key}"dh_dt": {_float(p.dh_dt)}{inner}}}')


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for the dicts with str
    keys, lists, tuples, str, float, int, bool and None of a report, and
    for _Rows as the list of the dicts its rows stand for, without the
    pure-Python encoder that indent selects in json; ``indent`` is the line
    break and indent of the value's line."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        return _float(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{inner}{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
    elif type(value) is _Rows:
        items = [inner + value.encode(row, inner) for row in value.rows]
    elif isinstance(value, (list, tuple)):
        items = [inner + _json(v, inner) for v in value]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    brackets = "{}" if isinstance(value, dict) else "[]"
    return f"{brackets[0]}{','.join(items)}{indent}{brackets[1]}" if items else brackets


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(_json(payload) + "\n")


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
                          rows: list[tuple[float, str, Sequence[HeightRoot]]],
                          margin: Callable[[float], float], sliding: str, sewing: str) -> None:
    """Grid rows {x, verdict, roots} from ``rows`` of (x, verdict, roots),
    plus the refined boundaries between sliding and sewing runs.

    Runs of the two decided labels may be separated by up to two undecided
    grid points; the flip inside the gap is then the zero of margin(x),
    positive where the verdict at x is sliding and negative where it is
    sewing, which zeroin runs to the last float.  The bracket's signs are
    the two grid verdicts', so its ends cost no margin call.
    """
    report = _report_skeleton(cfg)
    report["grid"] = _Rows(_grid_row, rows)
    decided = [(i, x, 1.0 if v == sliding else -1.0)
               for i, (x, v, _) in enumerate(rows) if v in (sliding, sewing)]
    report["boundary_estimates"] = [
        zeroin(margin, xa, xb, 0.0, fa=sa, fb=sb)
        for (i, xa, sa), (j, xb, sb) in zip(decided, decided[1:])
        if sa != sb and j - i <= 3
    ]
    _write_json(path, report)


def _cmd_classify(cfg: SystemConfig, out: Path) -> None:
    system = _require_planar(cfg)
    rows = [(x, classify_point(system, x).value, []) for x in grid_points(cfg.run.grid)]
    _write_verdict_report(cfg, out / "classification.json", rows,
                          functools.partial(sliding_margin, system),
                          SigmaClass.SLIDING.value, SigmaClass.SEWING.value)


def _certify_grid(cfg: SystemConfig) -> Certified:
    """Each grid point with its certificate, the one the grid artifacts read."""
    system = _require_planar(cfg)
    return [(x, certify(system, cfg.transition, x)) for x in grid_points(cfg.run.grid)]


def _write_certificates(cfg: SystemConfig, out: Path, certified: Certified) -> None:
    rows = [(x, cert.verdict.value, cert.roots) for x, cert in certified]
    _write_verdict_report(cfg, out / "certificates.json", rows,
                          functools.partial(certificate_margin, cfg.system, cfg.transition),
                          Verdict.SLIDING_CERTIFIED.value, Verdict.SEWING_CERTIFIED.value)


def _trajectory_csv(path: Path, coords: Sequence[str], traj: Trajectory) -> None:
    events: dict[float, list[str]] = {}
    for e in traj.events:
        events.setdefault(e.time, []).append(e.kind.value)
    lines = [",".join(["t", *coords, "event"])]
    for t, state in zip(traj.node_times, traj.node_states):
        lines.append(",".join([repr(t), *map(repr, state), ";".join(events.get(t, []))]))
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


def _write_slowfast(cfg: SystemConfig, out: Path, certified: Certified) -> None:
    """Polar-cylinder plot data: the slow manifold on the divisor at the
    certificates' roots, plus the saturation arcs from the side charts."""
    lines = ["x,theta,r,chart"]
    for x, cert in certified:
        for root in cert.roots:
            lines.append(f"{repr(x)},{repr(math.atan2(1.0, root.t))},0.0,E")
    for x in (certified[0][0], certified[-1][0]):
        for epstil in linspace(0.0, 1.0, 11):
            lines.append(f"{repr(x)},{repr(math.atan2(epstil, 1.0))},0.0,F+")
            lines.append(f"{repr(x)},{repr(math.atan2(epstil, -1.0))},0.0,F-")
    (out / "slowfast.csv").write_text("\n".join(lines) + "\n")


def _write_manifold(cfg: SystemConfig, out: Path, certified: Certified) -> None:
    report = _report_skeleton(cfg)
    report["tracks"] = []
    for track in track_manifold(cfg.run.epsilons, certified):
        report["tracks"].append({
            "epsilon": track.eps,
            "hausdorff_to_sigma": max(abs(p.y) for p in track.points),
            "points": _Rows(_point_row, track.points),
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
        row = stratified_slide_curve(cfg.cross, eps, eta)._asdict()
        report["pairs"].append({"epsilon": row.pop("eps"), **row})
    _write_json(out / "cross.json", report)


def _cmd_all(cfg: SystemConfig, out: Path) -> None:
    if cfg.system is not None and cfg.system.dim == 2:
        _cmd_classify(cfg, out)
        certified = _certify_grid(cfg)
        _write_certificates(cfg, out, certified)
        _write_slowfast(cfg, out, certified)
        try:
            _write_manifold(cfg, out, certified)
        except NoSlidingAtError:
            pass  # nothing to track is fine for the combined run
    if cfg.system is not None and cfg.run.x0 is not None:
        _cmd_integrate(cfg, out)
    if cfg.cross is not None:
        _cmd_cross(cfg, out)


def _on_certified(write: Callable[[SystemConfig, Path, Certified], None]):
    """The command that certifies the grid and writes one artifact from it."""
    return lambda cfg, out: write(cfg, out, _certify_grid(cfg))


# name: (help, command, takes --grid)
COMMANDS: dict[str, tuple[str, Callable[[SystemConfig, Path], None], bool]] = {
    "classify": ("classify surface points", _cmd_classify, True),
    "certify": ("sliding/sewing certificates over a grid", _on_certified(_write_certificates), True),
    "slow-fast": ("blow-up plot data", _on_certified(_write_slowfast), True),
    "manifold": ("track the sliding manifold", _on_certified(_write_manifold), True),
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
