"""Property test: integrate on the fields that are not stiff, random
autonomous linear systems x' = A x, against scipy's matrix exponential (a
test-only oracle)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
expm = pytest.importorskip("scipy.linalg").expm
from hypothesis import given, settings, strategies as st

from filippov.dynamics import integrate


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    dim=st.sampled_from([2, 3]),
    entries=st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9),
    start=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    t_end=st.floats(0.1, 2.0),
)
def test_linear_systems_match_the_matrix_exponential(dim, entries, start, t_end):
    a = np.array(entries[: dim * dim]).reshape(dim, dim)
    x0 = np.array(start[:dim])
    traj = integrate(lambda t, x: a @ x, x0, (0.0, t_end), jac=lambda t, x: a)
    assert traj.final_time == t_end and not traj.events
    want = expm(a * t_end) @ x0
    assert np.max(np.abs(traj.final_state - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))
