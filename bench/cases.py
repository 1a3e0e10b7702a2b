"""Seeded input families with closed-form answers.

Every generated config belongs to a family whose verdicts, boundaries and
orbit end points are known in closed form, so the oracle never compares
against the library's own output bytes.

Fold family (tangential coordinate x, normal coordinate y): the normal
traces on the surface are

    a+(x) = s * k * (x - x0) * w+(x),    a-(x) = s * k' * w-(x),

with k, k', s > 0 and positive weights w+-.  Classification is sliding for
x < x0 and sewing for x > x0.  A transition whose interior maximum is m
certifies sliding exactly where a+ < a- (m - 1)/(m + 1); monotone
transitions have m = 1 and reduce to the sign test.  A curved surface
sigma = y - g(x) is generated so that the adapted-chart traces are the ones
above: the raw normal components are g'(x) * (tangential component) + a+-,
plus a multiple of sigma.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field

import numpy as np

HALF_PI = 1.5707963267948966


def fmt(v: float) -> str:
    """Shortest round-trip literal, parenthesized when negative."""
    text = repr(float(v))
    return f"({text})" if v < 0 else text


def cubic(t):
    return (3.0 * t - t ** 3) / 2.0


def bump_peak(c):
    """Interior maximum of (3t - t^3)/2 + c (1 - t^2)^2 on [-1, 1].

    The derivative is (1 - t^2)(3/2 - 4 c t), so the peak sits at
    t* = 3/(8c) when c > 3/8 and at the band edge (value 1) otherwise.
    """
    c = np.maximum(c, 0.375)
    t = 0.375 / c
    return cubic(t) + c * (1.0 - t * t) ** 2


@functools.lru_cache(maxsize=None)
def bump_for_peak(m: float) -> float:
    """Inverse of bump_peak on c > 3/8 (bump_peak is increasing there)."""
    lo, hi = 0.375, 1.0
    while bump_peak(hi) < m:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bump_peak(mid) < m:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# transitions: config text plus closed-form value, t-derivative and peak

@dataclass
class Psi:
    kind: str  # smoothstep | biased | overshoot | custom
    variant: str = ""  # custom template: bump | bumpx | tanhx | sin
    param: float = 0.0

    def config(self) -> str:
        if self.kind == "smoothstep":
            return "[transition]\nkind = smoothstep\n"
        if self.kind == "biased":
            return f"[transition]\nkind = biased\nt0 = {self.param!r}\n"
        if self.kind == "overshoot":
            return f"[transition]\nkind = overshoot\nm = {self.param!r}\n"
        return f"[transition]\nkind = custom\nexpr = {self.expression()}\n"

    def expression(self) -> str:
        c = fmt(self.param)
        if self.variant == "bump":
            return f"(3*t - t^3)/2 + {c}*(1 - t^2)^2"
        if self.variant == "bumpx":
            return f"(3*t - t^3)/2 + {c}*(1 + x^2)*(1 - t^2)^2"
        if self.variant == "tanhx":
            return f"tanh({c}*(1 + 0.5*x^2)*t)/tanh({c}*(1 + 0.5*x^2))"
        if self.variant == "sin":
            return f"sin({HALF_PI!r}*t)"
        raise ValueError(self.variant)

    def _bump(self, x):
        if self.kind == "overshoot":
            return bump_for_peak(self.param)
        return self.param * (1.0 + x * x) if self.variant == "bumpx" else self.param

    def is_bump(self) -> bool:
        """Bump templates; every bump drawn here (parameter above 3/8) has
        an interior peak above 1."""
        return self.kind == "overshoot" or self.variant in ("bump", "bumpx")

    def value(self, t, x: float):
        t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
        if self.kind == "smoothstep":
            return cubic(t)
        if self.kind == "biased":
            return cubic((t - self.param) / (1.0 - self.param * t))
        if self.is_bump():
            return cubic(t) + self._bump(x) * (1.0 - t * t) ** 2
        if self.variant == "tanhx":
            a = self.param * (1.0 + 0.5 * x * x)
            return np.tanh(a * t) / math.tanh(a)
        return np.sin(HALF_PI * t)

    def deriv(self, t, x: float):
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) < 1.0
        t = np.clip(t, -1.0, 1.0)
        if self.kind == "smoothstep":
            d = 1.5 * (1.0 - t * t)
        elif self.kind == "biased":
            t0 = self.param
            w = (t - t0) / (1.0 - t0 * t)
            d = 1.5 * (1.0 - w * w) * (1.0 - t0 * t0) / (1.0 - t0 * t) ** 2
        elif self.is_bump():
            d = (1.0 - t * t) * (1.5 - 4.0 * self._bump(x) * t)
        elif self.variant == "tanhx":
            a = self.param * (1.0 + 0.5 * x * x)
            d = a * (1.0 - np.tanh(a * t) ** 2) / math.tanh(a)
        else:
            d = HALF_PI * np.cos(HALF_PI * t)
        return np.where(inside, d, 0.0)

    def peak(self, x):
        """Interior maximum over t at x (scalar or array); 1 when monotone."""
        return bump_peak(self._bump(x)) if self.is_bump() else np.ones_like(x, dtype=float)


PSI_RANGES = {
    "biased": (-0.6, 0.6), "overshoot": (1.5, 4.0),
    "bump": (0.5, 2.0), "bumpx": (0.4, 1.2), "tanhx": (0.5, 3.0), "sin": (0.0, 0.0),
}
# Narrow ranges for the stiff regularized orbits, whose step counts grow
# quickly with the overshoot height and the transition's steepness.
PSI_NARROW = {
    "biased": (-0.3, 0.3), "overshoot": (1.9, 2.1),
    "bump": (0.9, 1.0), "bumpx": (0.6, 0.65), "tanhx": (1.5, 1.7), "sin": (0.0, 0.0),
}


def draw_psi(rng: random.Random, kind: str, variant: str = "", narrow: bool = False) -> Psi:
    """Transition of the given kind; custom ones use template `variant`."""
    if kind == "smoothstep":
        return Psi("smoothstep")
    lo, hi = (PSI_NARROW if narrow else PSI_RANGES)[variant or kind]
    return Psi(kind, variant, round(rng.uniform(lo, hi), 6))


# ---------------------------------------------------------------------------
# fold family for the grid commands

WEIGHTS = {
    "one": ("1", lambda x: np.ones_like(x)),
    "quad": ("(1 + 0.5*x^2)", lambda x: 1.0 + 0.5 * x * x),
    "exp": ("exp(0.3*x)", lambda x: np.exp(0.3 * x)),
    "sin": ("(2 + sin(x))", lambda x: 2.0 + np.sin(x)),
}


@dataclass
class Fold:
    s: float
    k: float
    kq: float
    x0: float
    psi: Psi
    transcendental: bool = False
    curved: bool = False
    g: tuple[float, float] = (0.0, 0.0)
    # unit weights, tangential speed exactly s and no sigma term: the orbit
    # families need x(t) = x_start + s t and y-independent normal components
    pure: bool = False

    @property
    def weights(self) -> tuple[str, str]:
        if self.pure:
            return "one", "one"
        return ("exp", "sin") if self.transcendental else ("one", "quad")

    def p(self, x):
        x = np.asarray(x, dtype=float)
        return self.s * self.k * (x - self.x0) * WEIGHTS[self.weights[0]][1](x)

    def q(self, x):
        x = np.asarray(x, dtype=float)
        return self.s * self.kq * WEIGHTS[self.weights[1]][1](x)

    def margin(self, x):
        """Positive where the transition certifies sliding, negative where
        sewing; x may be a scalar or an array."""
        x = np.asarray(x, dtype=float)
        m = self.psi.peak(x)
        return self.q(x) * (m - 1.0) / (m + 1.0) - self.p(x)

    def height(self, x: float, t):
        p, q = float(self.p(x)), float(self.q(x))
        return self.psi.value(t, x) * (p - q) + (p + q), self.psi.deriv(t, x) * (p - q)

    def _surface(self) -> tuple[str, str]:
        a, b = self.g
        if self.transcendental:
            return f"{fmt(a)}*sin(x)", f"{fmt(a)}*cos(x)"
        return f"{fmt(a)}*x + {fmt(b)}*x^2", f"{fmt(a)} + 2*{fmt(b)}*x"

    def system(self) -> str:
        s = fmt(self.s)
        wp, wm = (WEIGHTS[w][0] for w in self.weights)
        normals = (f"{s}*{fmt(self.k)}*(x - {fmt(self.x0)})*{wp}", f"{s}*{fmt(self.kq)}*{wm}")
        if self.pure:
            tangents = (s, s)
            extra = ("", "")
        elif self.transcendental:
            tangents = (f"{s}*(cos(y) + 0.5*tanh(x))", f"{s}*(1.5 + sin(x + y))")
            extra = ("exp(-x^2)", "(-0.5)*cos(x)")
        else:
            tangents = (f"{s}*(1 + 0.2*x - 0.1*y)", f"{s}*(1.2 - 0.1*x^2 + 0.3*y)")
            extra = ("0.3*x", "(-0.4)")
        lines = ["[system]", "coords = x, y"]
        sigma = "y"
        if self.curved:
            g, dg = self._surface()
            sigma = f"y - ({g})"
            lines.append(f"sigma = {sigma}")
        comps = []
        for tan, nor, ext in zip(tangents, normals, extra):
            y_comp = nor
            if self.curved:
                y_comp = f"({dg})*{tan} + {nor}"
            if ext:
                y_comp += f" + ({sigma})*{s}*{ext}"
            comps.append(f"{tan}, {y_comp}")
        lines.append(f"x_plus = {comps[0]}")
        lines.append(f"x_minus = {comps[1]}")
        return "\n".join(lines) + "\n"

    def config(self, grid: tuple[float, float, int], epsilons) -> str:
        lo, hi, n = grid
        eps = ", ".join(repr(e) for e in epsilons)
        return (
            self.system() + "\n" + self.psi.config()
            + f"\n[run]\ngrid = {lo!r}:{hi!r}:{n}\nepsilons = {eps}\n"
        )


def draw_scale(rng: random.Random, stratum: int, strata: int) -> float:
    """Log-uniform positive rescaling on [1e-5, 10]; `stratum` of `strata`
    equal slices, so a group of jobs covers the whole range."""
    u = (stratum + rng.random()) / strata
    return float(f"{10.0 ** (-5.0 + 6.0 * u):.6g}")


def draw_fold(rng: random.Random, psi: Psi, scale: float, transcendental: bool, curved: bool) -> Fold:
    return Fold(
        s=scale,
        k=round(rng.uniform(1.0, 4.0), 6),
        kq=round(rng.uniform(0.3, 2.0), 6),
        x0=round(rng.uniform(-0.5, 0.2), 6),
        psi=psi,
        transcendental=transcendental,
        curved=curved,
        g=(round(rng.uniform(-0.4, 0.4), 6), round(rng.uniform(-0.3, 0.3), 6)),
    )


def draw_grid(rng: random.Random, count: tuple[int, int]) -> tuple[float, float, int]:
    return (round(rng.uniform(-1.3, -1.0), 6), round(rng.uniform(1.0, 1.3), 6),
            rng.randint(*count))


# ---------------------------------------------------------------------------
# orbit families

@dataclass
class Orbit:
    """An initial value problem with a closed-form end point and events."""

    name: str  # fold | capture | sewing
    system_text: str
    x0: tuple[float, float]
    t_end: float
    end: tuple[float, float]
    events: list[str] = field(default_factory=list)  # hybrid event rows in order
    fold: Fold | None = None  # set for fold orbits, whose end point depends on the transition


def fold_orbit(rng: random.Random, psi: Psi, scale: float, narrow: bool = False) -> Orbit:
    """Fold orbit from above: hit, slide to the certified boundary, leave upward.

    With tangential speed s the orbit has x(t) = x_start + s t.  Above the
    surface y' = s k (x - x0).  In the eps -> 0 limit the regularized orbit
    slides until the certified boundary xb (x0 for monotone transitions),
    then follows the upper field, so y_end = k ((x_e - x0)^2 - (xb - x0)^2)/2.
    The hybrid orbit leaves at x0 (xb = x0).  `narrow` keeps the slopes and
    the time span near the fold x' = 1, y' = 2x | 2 from (-1, 0.5) over
    [0, 1.5], so that the step counts of stiff orbits vary little.
    """
    k_range, kq_range, y0_range, span_range = (
        ((1.9, 2.1), (1.9, 2.1), (0.23, 0.27), (1.48, 1.52)) if narrow
        else ((1.0, 3.0), (0.5, 2.0), (0.1, 0.4), (1.35, 1.65)))
    fold = Fold(
        s=scale, k=round(rng.uniform(*k_range), 6), kq=round(rng.uniform(*kq_range), 6),
        x0=round(rng.uniform(-0.3, 0.3), 6), psi=psi, pure=True,
    )
    y0 = round(fold.k * rng.uniform(*y0_range), 6)
    span = round(rng.uniform(*span_range), 6)
    start = (fold.x0 - 1.0, y0)
    x_end = start[0] + span
    hybrid_y = fold.k * (x_end - fold.x0) ** 2 / 2.0
    return Orbit(
        "fold", fold.system(), start, span / scale, (x_end, hybrid_y),
        ["SigmaHit;SlideEntry", "SlideExit"], fold,
    )


def regularized_limit(orbit: Orbit) -> tuple[float, float]:
    fold = orbit.fold
    x_end = orbit.end[0]
    xb = certified_boundary(fold)
    if x_end <= xb:
        return x_end, 0.0
    return x_end, fold.k * ((x_end - fold.x0) ** 2 - (xb - fold.x0) ** 2) / 2.0


def certified_boundary(fold: Fold) -> float:
    """First root of the certification margin right of the fold x0, or
    x0 + 3 when the margin stays positive that far."""
    lo, hi = fold.x0, fold.x0 + 0.01
    while fold.margin(hi) > 0.0:
        if hi - fold.x0 > 3.0:
            return fold.x0 + 3.0
        lo, hi = hi, hi + 0.01
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if fold.margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def capture_orbit(rng: random.Random, scale: float) -> Orbit:
    """Both fields push toward the surface: one hit, then sliding to t_end."""
    b = round(rng.uniform(0.5, 1.5), 6)
    c_up, c_down = round(rng.uniform(0.5, 2.0), 6), round(rng.uniform(0.5, 2.0), 6)
    s = fmt(scale)
    text = (f"[system]\ncoords = x, y\nx_plus = {s}*{fmt(b)}, {s}*{fmt(-c_up)}\n"
            f"x_minus = {s}*{fmt(b)}, {s}*{fmt(c_down)}\n")
    start = (round(rng.uniform(-1.0, 1.0), 6), round(rng.uniform(0.3, 1.0), 6))
    span = round(start[1] / c_up + rng.uniform(0.5, 1.5), 6)
    return Orbit("capture", text, start, span / scale, (start[0] + b * span, 0.0),
                 ["SigmaHit;SlideEntry"])


def sewing_orbit(rng: random.Random, scale: float) -> Orbit:
    """Both fields point upward: the orbit crosses the surface once."""
    b = round(rng.uniform(0.5, 1.5), 6)
    d_up, d_down = round(rng.uniform(0.5, 2.0), 6), round(rng.uniform(0.5, 2.0), 6)
    s = fmt(scale)
    text = (f"[system]\ncoords = x, y\nx_plus = {s}*{fmt(b)}, {s}*{fmt(d_up)}\n"
            f"x_minus = {s}*{fmt(b)}, {s}*{fmt(d_down)}\n")
    start = (round(rng.uniform(-1.0, 1.0), 6), -round(rng.uniform(0.3, 1.0), 6))
    hit = -start[1] / d_down
    span = round(hit + rng.uniform(0.5, 1.5), 6)
    return Orbit("sewing", text, start, span / scale,
                 (start[0] + b * span, d_up * (span - hit)), ["SigmaHit"])


def orbit_config(orbit: Orbit, mode: str, eps: float) -> str:
    psi = orbit.fold.psi.config() if orbit.fold else ""
    x0 = ", ".join(repr(v) for v in orbit.x0)
    return (orbit.system_text + "\n" + psi + f"\n[run]\nx0 = {x0}\nt_span = 0, {orbit.t_end!r}\n"
            f"mode = {mode}\nepsilons = {eps!r}\n")


# ---------------------------------------------------------------------------
# double switching

@dataclass
class Cross:
    """Symmetric attracting quadrant fields: the line (eps t0, eta u0) is invariant."""

    s: float
    alpha: float
    beta: float
    t0: float
    u0: float

    def section(self) -> str:
        s, a, b = fmt(self.s), fmt(self.alpha), fmt(self.beta)
        lines = ["[cross]"]
        for key, sx, sy, z in (("x_pp", -1, -1, 1.0), ("x_pm", -1, 1, 0.5),
                               ("x_mp", 1, -1, 1.5), ("x_mm", 1, 1, 1.0)):
            lines.append(f"{key} = {s}*{'-' if sx < 0 else ''}{a}, "
                         f"{s}*{'-' if sy < 0 else ''}{b}, {s}*{z!r}")
        for prefix, zero in (("phi", self.t0), ("psi", self.u0)):
            if zero == 0.0:
                lines.append(f"{prefix}_kind = smoothstep")
            else:
                lines.append(f"{prefix}_kind = biased\n{prefix}_t0 = {zero!r}")
        return "\n".join(lines) + "\n"


def draw_cross(rng: random.Random, scale: float) -> Cross:
    def zero() -> float:
        return 0.0 if rng.random() < 0.25 else round(rng.uniform(-0.6, 0.6), 6)

    return Cross(scale, round(rng.uniform(0.5, 2.0), 6), round(rng.uniform(0.5, 2.0), 6),
                 zero(), zero())
