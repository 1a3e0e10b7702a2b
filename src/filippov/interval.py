"""Interval rules for the enclosures of expr.Emitter.enclose.

Each rule maps the bounds of its operands to bounds (lo, hi) of every value
the operation takes over them (Moore, Kearfott & Cloud, Introduction to
Interval Analysis, SIAM 2009).  A bound is rounded outward: one float for
the correctly rounded + - * / and sqrt, LIBM_ULPS ulps for libm's exp,
tanh, sin, cos and integer powers.  No rule raises: a divisor that holds 0,
a factor with a NaN end or a sqrt argument below 0 gives (-inf, inf), and
an overflow an infinite bound.  The rows of expr._OPS name them.
"""

from __future__ import annotations

import math

LIBM_ULPS = 4  # twice the largest error glibc documents for exp, tanh, sin, cos and pow
_INF = math.inf
_MAX = 1.7976931348623157e308
_next = math.nextafter


def _outward(lo: float, hi: float) -> tuple[float, float]:
    """Nonzero bounds moved one float outward.  A sum or difference that
    rounds to 0 is exact, and so is sqrt's."""
    return (_next(lo, -_INF) if lo else lo), (_next(hi, _INF) if hi else hi)


def _libm(lo: float, hi: float) -> tuple[float, float]:
    """Bounds moved LIBM_ULPS ulps outward, and finite where an overflow
    made them infinite on the wrong side."""
    lo, hi = min(lo, _MAX), max(hi, -_MAX)
    return lo - LIBM_ULPS * math.ulp(lo), hi + LIBM_ULPS * math.ulp(hi)


def add(al, ah, bl, bh):
    return _outward(al + bl, ah + bh)


def sub(al, ah, bl, bh):
    return add(al, ah, -bh, -bl)


def neg(al, ah):
    return -ah, -al


def mul(al, ah, bl, bh):
    """The extreme products of the ends, picked by the operands' signs."""
    if not (al <= ah and bl <= bh):  # a NaN end, which bounds nothing
        return -_INF, _INF
    if al >= 0.0:
        lo, hi = (al * bl, ah * bh) if bl >= 0.0 else (ah * bl, al * bh) if bh <= 0.0 else (
            ah * bl, ah * bh)
    elif ah <= 0.0:
        lo, hi = (al * bh, ah * bl) if bl >= 0.0 else (ah * bh, al * bl) if bh <= 0.0 else (
            al * bh, al * bl)
    elif bl >= 0.0:
        lo, hi = al * bh, ah * bh
    elif bh <= 0.0:
        lo, hi = ah * bl, al * bl
    else:
        lo, hi = min(al * bh, ah * bl), max(al * bl, ah * bh)
    # 0 * inf, where inf bounds finite values, is 0.  A product that rounds
    # to 0 is exact but for an underflow, which the signs rule out unless a
    # product of the other sign exists
    if lo or al < 0.0 < bh or bl < 0.0 < ah:
        lo = _next(lo, -_INF) if lo == lo else 0.0
    if hi or al < 0.0 and bl < 0.0 or ah > 0.0 and bh > 0.0:
        hi = _next(hi, _INF) if hi == hi else 0.0
    return lo, hi


def div(al, ah, bl, bh):
    if not (bl > 0.0 or bh < 0.0):  # NaN too
        return -_INF, _INF
    return mul(al, ah, *_outward(1.0 / bh, 1.0 / bl))


def _raise(v: float, n: int) -> float:
    try:
        return v ** n
    except OverflowError:
        return -_INF if v < 0.0 and n % 2 else _INF


def power(al, ah, n, _):
    """[al, ah]^n for the bounds (n, n) of an integer: monotone for odd n, in |v| for even n."""
    if n == 0:
        return 1.0, 1.0
    if n < 0:
        return div(1.0, 1.0, *power(al, ah, -n, -n))
    if n % 2 == 0:
        al, ah = (0.0 if al <= 0.0 <= ah else min(abs(al), abs(ah))), max(abs(al), abs(ah))
        if n == 2:
            return mul(al, ah, al, ah)
    lo, hi = _libm(_raise(al, n), _raise(ah, n))
    # 0^n is exact; an even power is never negative
    return (0.0 if al == 0.0 or n % 2 == 0 and lo < 0.0 else lo), (0.0 if ah == 0.0 else hi)


def _monotone(f, floor: float, ceiling: float):
    """The rule of a rising libm function f with values in [floor, ceiling]."""

    def bounds(al, ah):
        lo, hi = _libm(f(al), f(ah))
        return max(lo, floor), min(hi, ceiling)
    return bounds


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return _INF


def _wave(f, crest: float):
    """The rule of sin or cos, f, whose maxima lie at crest + 2k*pi and
    minima half a turn on: f at the ends, and +-1 where an extremum may lie
    within a slack that covers the rounding of locating it."""

    def bounds(al, ah):
        if not (-1e8 < al and ah < 1e8 and ah - al < 2.0 * math.pi):  # NaN too
            return -1.0, 1.0
        lo, hi = _libm(*sorted((f(al), f(ah))))
        slack = 1e-12 * (1.0 + abs(al) + abs(ah))
        for phase, extreme in ((crest, 1.0), (crest + math.pi, -1.0)):
            k = math.ceil((al - slack - phase) / (2.0 * math.pi))
            if phase + k * (2.0 * math.pi) <= ah + slack:
                lo, hi = min(lo, extreme), max(hi, extreme)
        return max(lo, -1.0), min(hi, 1.0)
    return bounds


def sqrt(al, ah):
    return (-_INF, _INF) if al < 0.0 else _outward(math.sqrt(al), math.sqrt(ah))


def sign(v: float) -> float:
    """The float sign function, sgn's in the language: 1.0, -1.0, or 0.0 at
    0 and NaN.  Rising, so sgn's rule is sign at the ends."""
    return 1.0 if v > 0.0 else -1.0 if v < 0.0 else 0.0


def sgn(al, ah):
    return sign(al), sign(ah)


def absolute(al, ah):
    if al >= 0.0:
        return al, ah
    return (-ah, -al) if ah <= 0.0 else (0.0, max(-al, ah))


sin = _wave(math.sin, math.pi / 2)
cos = _wave(math.cos, 0.0)
exp = _monotone(_exp, 0.0, _INF)
tanh = _monotone(math.tanh, -1.0, 1.0)
