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

import math
from pathlib import Path

from . import expr as ex
from .cross import CROSS_COORDS, CrossSystem
from .regularize import TransitionFunction, ValidationFailure, linspace, make_transition
from .system import PiecewiseSystem, VectorFieldDef


class ConfigError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class RunParams:
    """The [run] values: these defaults, then the file's and the flags' (see _build_run)."""

    def __init__(self):
        self.grid: tuple[float, float, int] = (-1.0, 1.0, 201)
        self.epsilons: tuple[float, ...] = (0.1,)
        self.etas: tuple[float, ...] = ()
        self.t_span: tuple[float, float] = (0.0, 1.0)
        self.x0: tuple[float, ...] | None = None
        self.mode = "filippov"


class SystemConfig:
    def __init__(self, system: PiecewiseSystem | None, transition: TransitionFunction,
                 cross: CrossSystem | None, run: RunParams, sha256: str):
        self.system = system
        self.transition = transition
        self.cross = cross
        self.run = run
        self.sha256 = sha256


def _parse_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()  # no value can hold a '#'
        if not line:
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


def _ascii(text: str, convert):
    """convert(text), for text in ASCII without '_': float and int also
    read other scripts' digits and '_' separators, so '١' would be 1.0."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return convert(text)


def _floats(value: str, lineno: int | None) -> tuple[float, ...]:
    items = [v.strip() for v in value.split(",")]
    if not any(items):
        raise ConfigError("expected at least one number, got an empty list", lineno)
    try:  # an empty item among numbers is refused here too
        vals = tuple(_ascii(v, float) for v in items)
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {value!r}", lineno) from exc
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"expected finite numbers, got {value!r}", lineno)
    return vals


def _grid(value: str, lineno: int | None) -> tuple[float, float, int]:
    """Parse ``lo:hi:count``."""
    parts = value.split(":")
    if len(parts) != 3:
        raise ConfigError(f"expected grid as lo:hi:count, got {value!r}", lineno)
    try:
        lo, hi, count = _ascii(parts[0], float), _ascii(parts[1], float), _ascii(parts[2], int)
    except ValueError as exc:
        raise ConfigError(f"expected grid as lo:hi:count, got {value!r}", lineno) from exc
    if not math.isfinite(hi - lo):  # a bound or the span that is not finite: inf and NaN points
        raise ConfigError(f"grid bounds must be finite, as must hi - lo, got {value!r}", lineno)
    if count < 2 or hi <= lo:
        raise ConfigError(f"grid needs hi > lo and count >= 2, got {value!r}", lineno)
    return lo, hi, count


def _number(value: str, lineno: int, key: str) -> float:
    try:
        return _ascii(value, float)
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


def _surface_chart(coords: tuple[str, ...], sigma_text: str,
                   lineno: int) -> tuple[dict[str, ex.Expr], list[ex.Expr]] | None:
    """The change into the chart where the surface is {y = 0}, as the shift
    y <- y + g(x) and the slopes dg/dx_i, or None where sigma is y itself.

    Accepts the bare normal coordinate or ``y - g(x)`` with g free of y.
    """
    y = coords[-1]
    sigma = _parse_expr(sigma_text, lineno, "sigma")
    if sigma == ex.Var(y):
        return None
    if not (isinstance(sigma, ex.Op) and sigma.op == "-" and sigma.args[0] == ex.Var(y)):
        raise ConfigError(
            f"sigma must be {y!r} or '{y} - g(...)' in the tangential coordinates", lineno
        )
    g = sigma.args[1]
    extra = ex.free_vars(g) - set(coords[:-1])
    if extra:
        raise ConfigError(f"sigma offset may not involve {sorted(extra)}", lineno)
    return {y: ex.add(ex.Var(y), g)}, [ex.differentiate(g, name) for name in coords[:-1]]


def _build_system(sec: dict[str, tuple[str, int]]) -> PiecewiseSystem:
    """The two fields in the chart of sigma, which is parsed once for both:
    each component is shifted, and the new normal velocity is
    a - sum_i dg/dx_i * b_i, everything expressed through the shifted y."""
    for key, (_, lineno) in sec.items():
        if key not in ("coords", "sigma", "x_plus", "x_minus"):
            raise ConfigError(f"unknown [system] key {key!r}", lineno)
    if "coords" not in sec:
        raise ConfigError("[system] is missing 'coords'")
    coords_text, lineno = sec["coords"]
    coords = tuple(c.strip() for c in coords_text.split(",") if c.strip())
    if len(coords) < 2:
        raise ConfigError("need at least two coordinates", lineno)
    for name in coords:  # a name is what the parser reads as one variable
        if _parse_expr(name, lineno, f"coordinate {name!r}") != ex.Var(name):
            raise ConfigError(f"coordinate {name!r} is not a variable name", lineno)
    chart = _surface_chart(coords, *sec.get("sigma", (coords[-1], lineno)))
    fields = []
    for key in ("x_plus", "x_minus"):
        if key not in sec:
            raise ConfigError(f"[system] is missing {key!r}")
        value, vline = sec[key]
        comps = _components(value, vline, key, len(coords))
        if chart is not None:
            shift, slopes = chart
            *tangent, normal = (ex.substitute(c, shift) for c in comps)
            for slope, comp in zip(slopes, tangent):
                normal = ex.sub(normal, ex.mul(slope, comp))
            comps = (*tangent, normal)
        try:
            fields.append(VectorFieldDef(coords, comps))
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}", vline) from exc
    return PiecewiseSystem(*fields)  # both fields share coords


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


def _build_run(sec: dict[str, tuple[str, int | None]], run: RunParams) -> RunParams:
    """run with the values of sec set on it, each checked."""
    for key, (value, lineno) in sec.items():
        if key == "grid":
            run.grid = _grid(value, lineno)
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
                raise ConfigError("t_span must be increasing: 'start, end' with end > start, "
                                  f"got {value!r}", lineno)
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


def load_config(path: str | Path, flags: dict[str, str | None] | None = None) -> SystemConfig:
    """Parse and validate a configuration file.

    ``flags`` maps [run] keys to command line text, None where a flag was
    not given; each value is checked as the file's would be and replaces
    it.  Raises ConfigError with the offending line number on any problem
    in the file (a flag has none).
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
    in_file = sections.get("run", {})
    in_flags = {k: (v, None) for k, v in (flags or {}).items() if v is not None}
    run = _build_run(in_flags, _build_run(in_file, RunParams()))
    line = {k: lineno for k, (_, lineno) in {**in_file, **in_flags}.items()}
    if system is not None and run.x0 is not None and len(run.x0) != system.dim:
        raise ConfigError(f"x0 needs {system.dim} components, got {len(run.x0)}", line["x0"])
    if run.etas and len(run.etas) != len(run.epsilons):
        raise ConfigError(f"epsilons and etas must have the same length, got {len(run.epsilons)} "
                          f"and {len(run.etas)}", line["etas"])
    import hashlib  # here: loading OpenSSL costs filippov.cli more than the one digest
    return SystemConfig(
        system=system,
        transition=transition,
        cross=cross,
        run=run,
        sha256=hashlib.sha256(data).hexdigest(),
    )


def grid_points(grid: tuple[float, float, int]) -> list[float]:
    return linspace(*grid)
