"""Property test: a slide's field and Jacobian, the generated psi-blend at
psi = r = 2*lam - 1, against the Filippov lam-combination written out by
hand, over random planar and 3-D polynomial systems at Sliding points."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from filippov.system import (
    SigmaClass,
    classify_point,
    filippov_jacobian,
    filippov_tangent,
    system_from_strings,
)

REL = 1e-13  # norm-wise, relative to the size of the terms


def lam_combination(system, xs):
    """The slide by the Filippov weight lam = a_minus/(a_minus - a_plus):
    the tangential components of lam X_plus + (1 - lam) X_minus, and its
    Jacobian J_lam + (X_plus - X_minus) (x) grad(lam), with grad(lam) the
    tangential part of J_lam's last row over a_minus - a_plus.  Each comes
    with the size of its terms."""
    point = (*xs, 0.0)
    a_plus, a_minus = system.normal_components_on_sigma(xs)
    denom = a_minus - a_plus
    lam = a_minus / denom
    plus, minus = system.plus.values(point), system.minus.values(point)
    jp, jm = system.plus.jacobian_rows(point), system.minus.jacobian_rows(point)
    combine = lambda p, m: [lam * u + (1.0 - lam) * v for u, v in zip(p, m)]
    jac = [combine(rp, rm) for rp, rm in zip(jp, jm)]
    grad = [v / denom for v in jac[-1][:-1]]
    rows = [[v + (p - m) * g for v, g in zip(row, grad)]
            for row, p, m in zip(jac[:-1], plus, minus)]
    size = max(map(abs, plus + minus))
    jump = max(abs(p - m) for p, m in zip(plus, minus))
    jac_size = max(abs(v) for row in jp + jm for v in row) * (1.0 + jump / abs(denom))
    return combine(plus, minus)[:-1], size, rows, jac_size


def polynomial(coeffs, names):
    """c0 + sum of c_i*n + c_j*n^2 over the names, plus c*n0*n1."""
    terms = [repr(coeffs[0])]
    for i, n in enumerate(names):
        terms += [f"{coeffs[1 + 2 * i]!r}*{n}", f"{coeffs[2 + 2 * i]!r}*{n}^2"]
    terms.append(f"{coeffs[-1]!r}*{names[0]}*{names[1]}")
    return " + ".join(terms)


COEFFS = st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(dim=st.sampled_from([2, 3]), fields=st.lists(COEFFS, min_size=6, max_size=6),
       x=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
def test_slide_matches_the_lam_combination(dim, fields, x):
    names = ("x1", "x2", "y")[3 - dim:]
    system = system_from_strings(names, [polynomial(c, names) for c in fields[:dim]],
                                 [polynomial(c, names) for c in fields[3:3 + dim]])
    xs = tuple(x[:dim - 1])
    assume(classify_point(system, xs) == SigmaClass.SLIDING)
    want, size, want_rows, jac_size = lam_combination(system, xs)
    _, got = filippov_tangent(system, xs)
    rows = filippov_jacobian(system, xs)
    assert len(got) == len(want) and [len(row) for row in rows] == [len(row) for row in want_rows]
    assert max(abs(g - w) for g, w in zip(got, want)) <= REL * size
    assert max(abs(g - w) for row, want_row in zip(rows, want_rows)
               for g, w in zip(row, want_row)) <= REL * jac_size
