"""Line-oriented configuration files for the command line tool.

Format: ``key = value`` lines grouped under ``[section]`` headers, with
``#`` comments and blank lines ignored.  Sections: ``[system]`` (required
unless ``[cross]`` is present), ``[transition]``, ``[run]``, ``[cross]``.

Example::

    [system]
    coords = x, y
    sigma = y
    x_plus = 1, (x+1)+(x-1)
    x_minus = 1, (x+1)-(x-1)

    [transition]
    kind = overshoot
    m = 2

    [run]
    grid = -1:1:201
    epsilons = 0.1, 0.05, 0.025

A surface given as ``y - g(x)`` is normalized away at load time: the load
rewrites the fields into the adapted chart where the surface is the zero
set of the last coordinate.  That change of variables substitutes
y <- y + g(x) into every component and corrects the normal component by
the drift of g, so downstream code only ever sees the flat surface.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import expr as ex
from .cross import CROSS_COORDS, CrossSystem
from .regularize import TransitionFunction, ValidationFailure, make_transition
from .system import PiecewiseSystem, VectorFieldDef


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


@dataclass
class RunParams:
    grid: tuple[float, float, int] = (-1.0, 1.0, 201)
    epsilons: tuple[float, ...] = (0.1,)
    etas: tuple[float, ...] = ()
    t_span: tuple[float, float] = (0.0, 1.0)
    x0: tuple[float, ...] | None = None
    mode: str = "filippov"


@dataclass
class SystemConfig:
    system: PiecewiseSystem | None
    transition: TransitionFunction
    cross: CrossSystem | None
    run: RunParams
    sha256: str


def _parse_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in ("system", "transition", "run", "cross"):
                raise ConfigError(f"unknown section [{current}]", lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", lineno)
        sections[current][key] = (value.strip(), lineno)
    return sections


def _floats(value: str, lineno: int) -> tuple[float, ...]:
    try:
        vals = tuple(float(v.strip()) for v in value.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {value!r}", lineno) from exc
    if not vals:
        raise ConfigError("expected at least one number, got an empty list", lineno)
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"expected finite numbers, got {value!r}", lineno)
    return vals


def parse_grid(value: str, lineno: int | None = None) -> tuple[float, float, int]:
    """Parse ``lo:hi:count``; ``lineno`` locates errors in a config file."""
    parts = value.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected grid as lo:hi:count, got {value!r}", lineno)
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"expected grid as lo:hi:count, got {value!r}", lineno) from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"grid bounds must be finite, got {value!r}", lineno)
    if count < 2 or hi <= lo:
        raise ConfigError(f"grid needs hi > lo and count >= 2, got {value!r}", lineno)
    return lo, hi, count


def _number(value: str, lineno: int, key: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}", lineno) from exc


def _parse_expr(text: str, lineno: int, what: str) -> ex.Expr:
    try:
        return ex.parse(text)
    except ex.ParseError as exc:
        raise ConfigError(f"{what}: {exc}", lineno) from exc


def _components(value: str, lineno: int, what: str, count: int) -> tuple[ex.Expr, ...]:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != count:
        raise ConfigError(f"{what} needs {count} comma-separated components, got {len(parts)}", lineno)
    return tuple(_parse_expr(p, lineno, what) for p in parts)


def _normalize_surface(
    coords: tuple[str, ...], sigma_text: str, lineno: int,
    components: tuple[ex.Expr, ...],
) -> tuple[ex.Expr, ...]:
    """Rewrite components into the chart where the surface is {y = 0}.

    Accepts the bare normal coordinate or ``y - g(x)`` with g free of y.
    The new normal velocity is a - sum_i dg/dx_i * b_i, everything
    expressed through the shifted y.
    """
    y = coords[-1]
    sigma = _parse_expr(sigma_text, lineno, "sigma")
    if sigma == ex.Var(y):
        return components
    if not (isinstance(sigma, ex.Binary) and sigma.op == "-" and sigma.left == ex.Var(y)):
        raise ConfigError(
            f"sigma must be {y!r} or '{y} - g(...)' in the tangential coordinates", lineno
        )
    g = sigma.right
    extra = ex.free_vars(g) - set(coords[:-1])
    if extra:
        raise ConfigError(f"sigma offset may not involve {sorted(extra)}", lineno)
    shift = {y: ex.add(ex.Var(y), g)}
    shifted = tuple(ex.substitute(c, shift) for c in components)
    normal = shifted[-1]
    for name, comp in zip(coords[:-1], shifted[:-1]):
        normal = ex.sub(normal, ex.mul(ex.differentiate(g, name), comp))
    return shifted[:-1] + (normal,)


def _build_system(sec: dict[str, tuple[str, int]]) -> PiecewiseSystem:
    for key, (_, lineno) in sec.items():
        if key not in ("coords", "sigma", "x_plus", "x_minus"):
            raise ConfigError(f"unknown [system] key {key!r}", lineno)
    if "coords" not in sec:
        raise ConfigError("[system] is missing 'coords'")
    coords_text, lineno = sec["coords"]
    coords = tuple(c.strip() for c in coords_text.split(",") if c.strip())
    if len(coords) < 2:
        raise ConfigError("need at least two coordinates", lineno)
    fields = {}
    for key in ("x_plus", "x_minus"):
        if key not in sec:
            raise ConfigError(f"[system] is missing {key!r}")
        value, vline = sec[key]
        comps = _components(value, vline, key, len(coords))
        sigma_text, sline = sec.get("sigma", (coords[-1], 0))
        comps = _normalize_surface(coords, sigma_text, sline, comps)
        try:
            fields[key] = VectorFieldDef(coords, comps)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}", vline) from exc
    try:
        return PiecewiseSystem(fields["x_plus"], fields["x_minus"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_transition(
    sec: dict[str, tuple[str, int]], prefix: str = "", x_names: tuple[str, ...] = ()
) -> TransitionFunction:
    """Transition from the keys ``<prefix>kind``, ``<prefix>m``, ... of a section.

    make_transition checks the kind and its parameters; its errors are
    reported at the kind line, or at the first parameter when the kind is
    left at its default.
    """
    kind, line = sec.get(prefix + "kind", ("smoothstep", None))
    params: dict = {}
    for key, (value, lineno) in sec.items():
        if not key.startswith(prefix) or key == prefix + "kind":
            continue
        name = key[len(prefix):]
        if name == "expr":
            params[name] = _parse_expr(value, lineno, key)
        else:
            params[name] = _number(value, lineno, key)
        line = line or lineno
    try:
        return make_transition(kind, x_names, **params)
    except ValidationFailure as exc:
        raise ConfigError(f"{prefix.replace('_', ' ')}transition: {exc}", line) from exc


def _build_cross(sec: dict[str, tuple[str, int]]) -> CrossSystem:
    keys = {"x_pp": (1, 1), "x_pm": (1, -1), "x_mp": (-1, 1), "x_mm": (-1, -1)}
    for key, (_, lineno) in sec.items():
        # phi_* and psi_* keys are checked by make_transition
        if key not in keys and not key.startswith(("phi_", "psi_")):
            raise ConfigError(f"unknown [cross] key {key!r}", lineno)
    fields = {}
    for key, signs in keys.items():
        if key not in sec:
            raise ConfigError(f"[cross] is missing {key!r}")
        value, lineno = sec[key]
        comps = _components(value, lineno, key, 3)
        try:
            fields[signs] = VectorFieldDef(CROSS_COORDS, comps)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}", lineno) from exc

    return CrossSystem(
        fields=fields,
        phi=_build_transition(sec, "phi_"),
        psi=_build_transition(sec, "psi_"),
    )


def _build_run(sec: dict[str, tuple[str, int]]) -> RunParams:
    run = RunParams()
    for key, (value, lineno) in sec.items():
        if key == "grid":
            run.grid = parse_grid(value, lineno)
        elif key == "epsilons":
            run.epsilons = _floats(value, lineno)
            if any(e <= 0 for e in run.epsilons):
                raise ConfigError("epsilons must be positive", lineno)
        elif key == "etas":
            run.etas = _floats(value, lineno)
            if any(e <= 0 for e in run.etas):
                raise ConfigError("etas must be positive", lineno)
        elif key == "t_span":
            vals = _floats(value, lineno)
            if len(vals) != 2 or vals[1] <= vals[0]:
                raise ConfigError(f"t_span needs 'start, end' with end > start, got {value!r}", lineno)
            run.t_span = (vals[0], vals[1])
        elif key == "x0":
            run.x0 = _floats(value, lineno)
        elif key == "mode":
            if value not in ("filippov", "regularized"):
                raise ConfigError(f"mode must be 'filippov' or 'regularized', got {value!r}", lineno)
            run.mode = value
        else:
            raise ConfigError(f"unknown [run] key {key!r}", lineno)
    return run


def load_config(path: str | Path) -> SystemConfig:
    """Parse and validate a configuration file.

    Raises ConfigError with the offending line number on any problem.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    text = data.decode("utf-8", errors="replace")
    sections = _parse_sections(text)

    system = _build_system(sections["system"]) if "system" in sections else None
    cross = _build_cross(sections["cross"]) if "cross" in sections else None
    if system is None and cross is None:
        raise ConfigError("config needs a [system] or [cross] section")
    x_names = system.x_names if system is not None else ()
    transition = _build_transition(sections.get("transition", {}), x_names=x_names)
    run = _build_run(sections.get("run", {}))
    if system is not None and run.x0 is not None and len(run.x0) != system.dim:
        raise ConfigError(f"x0 needs {system.dim} components, got {len(run.x0)}")
    return SystemConfig(
        system=system,
        transition=transition,
        cross=cross,
        run=run,
        sha256=hashlib.sha256(data).hexdigest(),
    )


def grid_points(grid: tuple[float, float, int]) -> np.ndarray:
    lo, hi, count = grid
    return np.linspace(lo, hi, count)
