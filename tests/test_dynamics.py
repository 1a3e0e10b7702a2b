import math

import numpy as np
import pytest

from filippov import dynamics
from filippov.dynamics import (
    EVENT_TIME_TOL,
    Equilibrium,
    Event,
    EventKind,
    IntegratorStats,
    NoSlidingAtError,
    UnresolvedSingularityError,
    equilibria_on_manifold,
    integrate,
    integrate_filippov,
    track_manifold,
)
from filippov.cli import run_command
from filippov.config import load_config
from filippov.expr import DomainError
from filippov.regularize import (
    Biased,
    Smoothstep,
    certify,
    make_transition,
    regularized,
    regularized_field,
    regularized_jacobian,
    zeroin,
)
from filippov.system import CLASS_TOL, SigmaClass, classify_point, system_from_strings


def fold():
    return system_from_strings(("x", "y"), ("1", "2*x"), ("1", "2"))


# ---------------------------------------------------------------------------
# smooth integration


def oscillator():
    """x'' = -x as a first-order field and its Jacobian."""
    return (lambda t, y: np.array([y[1], -y[0]]),
            lambda t, y: np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_harmonic_oscillator_energy():
    fn, jac = oscillator()
    traj = integrate(fn, (1.0, 0.0), (0.0, 2 * math.pi), jac=jac)
    energy = 0.5 * (traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2)
    assert np.max(np.abs(energy - 0.5)) < 1e-7
    assert np.linalg.norm(traj.states[-1] - [1.0, 0.0]) < 1e-7


def test_exponential_accuracy():
    traj = integrate(lambda t, y: y, (1.0,), (0.0, 1.0), jac=lambda t, y: [[1.0]])
    assert traj.states[-1][0] == pytest.approx(math.e, rel=1e-8)


def test_dense_output():
    # events are located on the cubic Hermite interpolant of each step's nodes
    fn, jac = oscillator()
    traj = integrate(fn, (1.0, 0.0), (0.0, math.pi), jac=jac)
    ts = traj.node_times
    for k in range(len(ts) - 1):
        h = ts[k + 1] - ts[k]
        nodes = list(zip(traj.node_states[k], traj.node_derivs[k],
                         traj.node_states[k + 1], traj.node_derivs[k + 1]))
        for s in (0.25, 0.5, 0.75):
            got = [dynamics._hermite(s, h, *node) for node in nodes]
            assert got[0] == pytest.approx(math.cos(ts[k] + s * h), abs=1e-6)
            assert got[1] == pytest.approx(-math.sin(ts[k] + s * h), abs=1e-6)


def test_span_validation():
    fn, jac = (lambda t, y: y), (lambda t, y: [[1.0]])
    with pytest.raises(ValueError):
        integrate(fn, (1.0,), (1.0, 0.0), jac=jac)
    # degenerate span returns the single initial node
    traj = integrate(fn, (1.0,), (0.5, 0.5), jac=jac)
    assert len(traj.times) == 1
    assert traj.node_times[-1] == 0.5


def test_step_failure_near_blowup():
    # y' = y^2 from 1 explodes at t = 1; the controller gives up cleanly
    traj = integrate(lambda t, y: np.asarray(y) ** 2, (1.0,), (0.0, 2.0),
                     jac=lambda t, y: [[2.0 * y[0]]])
    assert traj.events
    assert traj.events[-1].kind == EventKind.STEP_FAILURE
    assert traj.node_times[-1] < 2.0
    assert traj.node_times[-1] == pytest.approx(1.0, abs=1e-3)


def test_step_failure_when_max_steps_runs_out(monkeypatch):
    fn, jac = (lambda t, y: -np.asarray(y)), (lambda t, y: [[-1.0]])
    monkeypatch.setattr(dynamics, "MAX_STEPS", 5)
    traj = integrate(fn, (1.0,), (0.0, 10.0), jac=jac)
    assert traj.node_times[-1] < 1.0
    assert [e.kind for e in traj.events] == [EventKind.STEP_FAILURE]
    assert traj.events[0].time == traj.node_times[-1]
    # a budget that suffices leaves no event
    monkeypatch.undo()
    assert not integrate(fn, (1.0,), (0.0, 10.0), jac=jac).events


@pytest.mark.parametrize("t_span", [(0.0, math.nan), (0.0, math.inf), (math.nan, 1.0),
                                    (-math.inf, 1.0), (1.0, 0.0)],
                         ids=["nan_end", "inf_end", "nan_start", "inf_start", "reversed"])
def test_integrators_refuse_a_span_that_is_not_finite_and_increasing(t_span, monkeypatch):
    # t_end = NaN passed `t_end < t0`, and both integrators spent their whole
    # step budget on it, with no StepFailure at the end
    monkeypatch.setattr(dynamics, "MAX_STEPS", 200)
    with pytest.raises(ValueError, match="t_span must be finite and increasing"):
        integrate(lambda t, y: [-y[0]], (1.0,), t_span, jac=lambda t, y: [[-1.0]])
    with pytest.raises(ValueError, match="t_span must be finite and increasing"):
        integrate_filippov(fold(), (-1.0, 0.5), t_span)


def test_integrate_refuses_an_empty_state():
    # the first step's norm divided by the dimension 0: ZeroDivisionError
    with pytest.raises(ValueError, match="^x0 is empty: there is no state to integrate$"):
        integrate(lambda t, y: [], [], (0.0, 1.0), jac=lambda t, y: [])


@pytest.mark.parametrize("t_span", [
    (0.587851162064913, 6.630109559562878),  # t + (t_end - t) falls an ulp short
    (0.8814913579141315, 7.194978862342071),  # and here an ulp past
])
def test_last_step_lands_on_t_end(t_span):
    # the last node must be t_end itself: an ulp short, the gap left is
    # below MIN_STEP and would end the run with a StepFailure
    traj = integrate(lambda t, y: np.ones(1), (0.0,), t_span, jac=lambda t, y: [[0.0]])
    assert traj.events == []
    assert traj.node_times[-1] == t_span[1]
    assert traj.states[-1][0] == pytest.approx(t_span[1] - t_span[0], rel=1e-12)


def test_stats_count_the_work():
    fn, jac = oscillator()
    traj = integrate(fn, (1.0, 0.0), (0.0, 2 * math.pi), jac=jac)
    st = traj.stats
    assert st.accepted == len(traj.times) - 1
    assert st.min_step == pytest.approx(np.diff(traj.times).min(), rel=1e-12)
    # one start evaluation and one initial-step probe, then per attempt
    # five stages, plus the node derivative once accepted
    assert st.rhs_evals == 2 + 5 * (st.accepted + st.rejected) + st.accepted
    assert st.jac_evals == st.accepted  # one per node a step starts from
    assert np.linalg.norm(traj.states[-1] - [1.0, 0.0]) < 1e-6


def _singular_first_attempt(counted):
    # y' = 1e-10 makes the first trial step the whole span, h = 1, where
    # I/(h gamma) - J = 4 - 4 = 0: that attempt calls no stage
    traj = integrate(counted(lambda t, y: [1e-10]), [1.0], (0.0, 1.0), jac=lambda t, y: [[4.0]])
    st = traj.stats  # every other attempt calls all five stages
    assert st.rhs_evals == 2 + 5 * (st.accepted + st.rejected - 1) + st.accepted
    return traj


def _non_finite_stage(counted):
    # y' = 1 up to y = 0.3 and inf past it: the attempts whose later stage
    # points pass 0.3 return at the first non-finite increment
    traj = integrate(counted(lambda t, y: [1.0 if y[0] < 0.3 else math.inf]), [0.0],
                     (0.0, 1.0), jac=lambda t, y: [[0.0]])
    st = traj.stats
    assert st.rhs_evals < 2 + 5 * (st.accepted + st.rejected) + st.accepted
    return traj


def _domain_error_mid_attempt(counted):
    # y' = 1 with the field undefined past y = 0.5: a stage point gets there
    # before a node does, so fn raises in the middle of an attempt
    def field(t, y):
        if y[0] > 0.5:
            raise DomainError("past 0.5")
        return [1.0]

    with pytest.raises(DomainError) as err:
        integrate(counted(field), [0.0], (0.0, 1.0), jac=lambda t, y: [[0.0]])
    traj = err.value.trajectory
    st = traj.stats
    # the call that raised is the 1st to 5th stage of its attempt, not a node's
    assert 1 <= st.rhs_evals - (2 + 5 * (st.accepted + st.rejected) + st.accepted) <= 5
    return traj


@pytest.mark.parametrize("run", [_singular_first_attempt, _non_finite_stage,
                                 _domain_error_mid_attempt])
def test_rhs_evals_is_the_number_of_calls_of_fn(run):
    calls = []

    def counted(field):
        def fn(t, y):
            calls.append(t)
            return field(t, y)
        return fn

    assert run(counted).stats.rhs_evals == len(calls)


def test_stop_ends_at_first_accepted_node_where_true():
    # y' = 2 + cos(4 s) with the clock s' = 1: the oscillating rate keeps
    # the steps short, so y passes 2 between nodes
    fn = lambda t, y: np.array([2.0 + math.cos(4.0 * y[1]), 1.0])
    jac = lambda t, y: np.array([[0.0, -4.0 * math.sin(4.0 * y[1])], [0.0, 0.0]])
    full = integrate(fn, (0.0, 0.0), (0.0, 10.0), jac=jac)
    seen = []

    def stop(t0, y0, f0, t, y, f):
        seen.append((t0, y0[0], f0[0], t, y[0], f[0]))
        return t if y[0] > 2.0 else None

    traj = dynamics.Trajectory(2)
    dynamics._run(traj, fn, [0.0, 0.0], 0.0, 10.0, stop, jac)
    first = int(np.argmax(full.states[:, 0] > 2.0))
    assert np.array_equal(traj.times, full.times[: first + 1])
    assert traj.states[-1][0] > 2.0 >= traj.states[-2, 0]
    assert traj.events == []
    # asked once per accepted step, with the nodes and derivatives at its two ends
    nodes = list(zip(traj.times.tolist(), traj.states[:, 0].tolist(), traj.derivs[:, 0].tolist()))
    assert seen == [a + b for a, b in zip(nodes, nodes[1:])]


def test_bisection_stops_when_floats_run_out():
    # near t = 1e4 adjacent floats are 1.8e-12 apart, wider than a 1e-12
    # tolerance, and f vanishes at no float, so only the no-float-between
    # rule ends the search; events run zeroin with tol 0, which only it ends
    for tol in (EVENT_TIME_TOL, 0.0):
        calls = [0]

        def f(t):
            calls[0] += 1
            if calls[0] > 200:
                raise RuntimeError(f"zeroin to {tol} does not terminate")
            return (t - 1e4) - 0.3

        t = zeroin(f, 1e4, 1e4 + 1.0, tol)
        assert abs(t - 10000.3) <= 2e-12


def test_bisection_compares_signs_not_products():
    # fa * fm underflowed to 0 below about 1e-162, which read as no sign
    # change, and the search ran to b = 1; run to the last float, as events
    # are, the search ends beside 0.3
    t = zeroin(lambda t: 1e-200 * (t - 0.3), 0.0, 1.0, 0.0)
    assert abs(t - 0.3) <= math.ulp(0.3)


@pytest.mark.parametrize("y0", [[1.0], [0.5, 1.0]], ids=["integrate", "integrate_filippov"])
def test_an_infinite_start_derivative_fails_at_the_start(y0):
    # d1 = inf makes the first trial step h0 = 0; the start is then all
    # that is computed, and dividing the second difference by h0 is skipped
    if len(y0) == 1:
        traj = integrate(lambda t, y: [math.inf], y0, (0.0, 1.0), jac=lambda t, y: [[0.0]])
    else:  # x*1e308*10 overflows to inf at x = 0.5
        sys = system_from_strings(("x", "y"), ("x*1e308*10", "-1"), ("1", "1"))
        traj = integrate_filippov(sys, y0, (0.0, 1.0))
    assert traj.times.tolist() == [0.0]
    assert traj.states[-1].tolist() == y0
    assert [(e.kind, e.time) for e in traj.events] == [(EventKind.STEP_FAILURE, 0.0)]


# ---------------------------------------------------------------------------
# the stiff regularized flow

# name: (kind, parameters) of the transitions the fold orbits are run with
FOLD_TRANSITIONS = {
    "smoothstep": ("smoothstep", {}),
    "biased": ("biased", {"t0": 0.3}),
    "overshoot": ("overshoot", {"m": 2}),
    "custom_x": ("custom", {"expr": "(3*t - t^3)/2 + x*(1 - t^2)^2/4"}),
}
EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4)


def fold_config(tmp_path, name):
    kind, params = FOLD_TRANSITIONS[name]
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text("[system]\ncoords = x, y\nx_plus = 1, 2*x\nx_minus = 1, 2\n"
                   f"\n[transition]\nkind = {kind}\n"
                   + "".join(f"{k} = {v}\n" for k, v in params.items()))
    return cfg


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("name", sorted(FOLD_TRANSITIONS))
def test_regularized_orbit_matches_radau_reference(name, eps, tmp_path):
    # the CLI orbit from (-1, 0.5) over [0, 1.5] against a tight implicit
    # reference.  Every end point lies within 2e-7 of it; with the step
    # tolerances loosened to REL_TOL = 1e-2, ABS_TOL = 1e-4 every one
    # misses by more than 3e-6
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    cfg = fold_config(tmp_path, name)
    out = tmp_path / "out"
    assert run_command(["integrate", "--config", str(cfg), "--out", str(out), "--from=-1,0.5",
                        "--tspan", "0,1.5", "--mode", "regularized", "--epsilon", repr(eps)]) == 0
    last = (out / "trajectory.csv").read_text().splitlines()[-1].split(",")
    assert float(last[0]) == 1.5
    got = np.array([float(last[1]), float(last[2])])
    c = load_config(str(cfg))
    ref = solve_ivp(lambda t, s: regularized_field(c.system, c.transition, eps, s), (0.0, 1.5),
                    [-1.0, 0.5], method="Radau", rtol=1e-10, atol=1e-12)
    assert ref.success
    assert np.max(np.abs(got - ref.y[:, -1])) <= 1e-6


@pytest.mark.parametrize("name", sorted(FOLD_TRANSITIONS))
def test_stiff_step_count_does_not_grow_with_1_over_eps(name):
    sys = fold()
    kind, params = FOLD_TRANSITIONS[name]
    tf = make_transition(kind, ("x",), **params)
    steps = {}
    for eps in (1e-1, 1e-4):
        traj = integrate(lambda t, s: regularized_field(sys, tf, eps, s), (-1.0, 0.5), (0.0, 1.5),
                         jac=lambda t, s: regularized_jacobian(sys, tf, eps, s))
        assert traj.node_times[-1] == 1.5 and not traj.events
        steps[eps] = traj.stats.accepted
    # an explicit Dormand-Prince 5(4) pair took 85 and 3715 steps on the smoothstep orbit
    assert steps[1e-4] <= 3 * steps[1e-1]


def test_singular_stage_solve_rejects_the_step():
    # a repelling band: both fields point away from the surface, so the fast
    # eigenvalue psi'(0)/eps = 1.5/0.375 = 4 is positive.  On y = 0 the
    # orbit stays put, and at h = 1 the stage matrix I/(h/4) - J is exactly
    # singular; the step reports an infinite error, so it is rejected
    sys = system_from_strings(("x", "y"), ("1", "1"), ("1", "-1"))
    tf, eps = Smoothstep(), 0.375
    fn = lambda t, s: regularized_field(sys, tf, eps, s)
    jac = lambda t, s: regularized_jacobian(sys, tf, eps, s)
    origin = np.zeros(2)
    step = dynamics._rodas(fn, jac, 2, IntegratorStats())
    y_new, err = step(0.0, origin, fn(0.0, origin), 1.0)
    assert err == math.inf and np.array_equal(y_new, origin)
    traj = integrate(fn, origin, (0.0, 10.0), jac=jac)
    assert traj.events == []
    assert traj.node_times[-1] == 10.0
    assert np.allclose(traj.states[-1], [10.0, 0.0], rtol=0, atol=1e-12)


def test_regularized_orbit_leaving_the_field_domain_keeps_message_and_nodes(tmp_path, capsys):
    # sqrt(1 - x) leaves its domain as the orbit passes x = 1; a stage
    # point there raises the message the per-field tree walk gives, and the
    # 40 nodes accepted before it stay on the error
    sys = system_from_strings(("x", "y"), ("1", "sqrt(1 - x)"), ("1", "1"))
    tf, eps = Smoothstep(), 0.01
    want = "sqrt of negative value -0.00014673594448111338"
    with pytest.raises(DomainError) as err:
        integrate(lambda t, s: regularized_field(sys, tf, eps, s), (0.0, 0.5), (0.0, 2.0),
                  jac=lambda t, s: regularized_jacobian(sys, tf, eps, s))
    assert str(err.value) == want
    traj = err.value.trajectory
    assert len(traj.times) == 40 and traj.stats.accepted == 39
    assert traj.node_times[-1] == 0.99891217967064
    assert traj.states[-1].tolist() == [0.9989121796706389, 1.166642744719711]

    cfg = tmp_path / "sqrt.cfg"
    cfg.write_text("[system]\ncoords = x, y\nx_plus = 1, sqrt(1 - x)\nx_minus = 1, 1\n"
                   "\n[transition]\nkind = smoothstep\n")
    assert run_command(["integrate", "--config", str(cfg), "--out", str(tmp_path / "out"),
                        "--mode", "regularized", "--epsilon", "0.01", "--from", "0,0.5",
                        "--tspan", "0,2"]) == 1
    assert capsys.readouterr().err == f"computation failed: {want}\n"


def test_non_finite_stage_solve_ends_in_step_failure():
    traj = integrate(lambda t, y: -np.asarray(y), (1.0,), (0.0, 1.0), jac=lambda t, y: [[math.nan]])
    assert [e.kind for e in traj.events] == [EventKind.STEP_FAILURE]
    assert traj.node_times[-1] == 0.0
    assert traj.stats.accepted == 0 and traj.stats.rejected > 0


# ---------------------------------------------------------------------------
# the reference stage solves: LU with partial pivoting, against numpy.linalg.solve


def _lu(m: list[list[float]]) -> list[int] | None:
    """Factor the square matrix m in place by Gaussian elimination with
    partial pivoting.

    Afterwards m holds U on and above its diagonal and the multipliers of
    the unit lower triangle L below it.  The returned order names, for each
    row of the factors, the row of the original matrix it came from: L U is
    the original matrix with its rows taken in that order.  None where a
    pivot is 0 or not finite: the matrix is singular, or holds an inf or
    NaN.
    """
    n = len(m)
    order = list(range(n))
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if abs(m[i][k]) > abs(m[p][k]):
                p = i
        pivot = m[p][k]
        if pivot == 0.0 or not math.isfinite(pivot):
            return None
        if p != k:
            m[k], m[p] = m[p], m[k]
            order[k], order[p] = order[p], order[k]
        top = m[k]
        for i in range(k + 1, n):
            row = m[i]
            factor = row[k] = row[k] / pivot
            for j in range(k + 1, n):
                row[j] -= factor * top[j]
    return order


def _lu_solve(lu: list[list[float]], order: list[int], b) -> list[float]:
    """The x with A x = b, from the factors and the row order _lu left of
    A: the reference the generated step's LU and substitutions are checked
    against."""
    x = [b[i] for i in order]
    n = len(x)
    for i in range(1, n):  # L has a unit diagonal
        row, v = lu[i], x[i]
        for j in range(i):
            v -= row[j] * x[j]
        x[i] = v
    for i in range(n - 1, -1, -1):
        row, v = lu[i], x[i]
        for j in range(i + 1, n):
            v -= row[j] * x[j]
        x[i] = v / row[i]
    return x


def _solve(matrix, b):
    lu = [[float(v) for v in row] for row in matrix]
    order = _lu(lu)
    return None if order is None else _lu_solve(lu, order, b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lu_solve_matches_numpy_solve(n):
    rng = np.random.default_rng(40 + n)
    solved = 0
    while solved < 200:
        a = rng.uniform(-2.0, 2.0, (n, n))
        if np.linalg.cond(a) > 100.0:  # well-conditioned systems only
            continue
        b = rng.uniform(-2.0, 2.0, n)
        got = _solve(a.tolist(), b.tolist())
        assert all(type(v) is float for v in got)
        want = np.linalg.solve(a, b)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12), (a, b, got, want)
        solved += 1


def test_lu_exchanges_rows():
    # a zero leading entry: elimination without row exchange divides by 0
    assert _solve([[0.0, 1.0], [1.0, 0.0]], [2.0, 3.0]) == [3.0, 2.0]
    # a tiny leading entry: without row exchange the multiplier 1e20 swamps
    # the second row and x[0] comes out 0
    got = _solve([[1e-20, 1.0], [1.0, 1.0]], [1.0, 2.0])
    assert got == pytest.approx(np.linalg.solve([[1e-20, 1.0], [1.0, 1.0]], [1.0, 2.0]), rel=1e-15)
    assert got == pytest.approx([1.0, 1.0], rel=1e-15)


@pytest.mark.parametrize("matrix", [
    [[0.0]],
    [[1.0, 2.0], [2.0, 4.0]],
    [[2.0, 1.0, 0.0], [4.0, 2.0, 0.0], [1.0, 1.0, 1.0]],
    [[1.0, math.nan], [0.0, 1.0]],
    [[math.inf, 0.0], [0.0, 1.0]],
], ids=["singular_1x1", "singular_2x2", "singular_3x3", "nan", "inf"])
def test_lu_refuses_singular_and_non_finite_matrices(matrix):
    assert _lu([row[:] for row in matrix]) is None


@pytest.mark.parametrize("jac_rows", [
    [[4.0]],  # I/(h gamma) - J = 0 at h = 1
    [[3.0, -2.0], [-2.0, 0.0]],  # I/(h gamma) - J = [[1, 2], [2, 4]]
    [[math.nan, 0.0], [0.0, 0.0]],
], ids=["singular_1x1", "singular_2x2", "nan"])
def test_unsolvable_stage_matrix_rejects_the_step(jac_rows):
    n = len(jac_rows)
    calls = []

    def fn(t, y):
        calls.append(t)
        return [0.0] * n

    step = dynamics._rodas(fn, lambda t, y: jac_rows, n, IntegratorStats())
    y = [1.0] * n
    y_new, err = step(0.0, y, [0.5] * n, 1.0)
    assert err == math.inf and y_new == y
    assert calls == []  # no stage was evaluated


# ---------------------------------------------------------------------------
# the generated step, against the RODAS4 attempt written with lists


def _stage_lu(jrows, h):
    """The stage matrix I/(h gamma) - J, factored in place by _lu, and the
    order _lu returns."""
    lu = [[-v for v in row] for row in jrows]
    for i in range(len(lu)):
        lu[i][i] += 1.0 / (h * dynamics._RO_GAMMA)
    return lu, _lu(lu)


def _reference_step(fn, jrows, t, y, f0, h):
    """One RODAS4 attempt from _lu, _lu_solve and the tableau, every stage
    sum accumulated left to right from 0.0."""
    n = len(y)
    lu, order = _stage_lu(jrows, h)
    if order is None:
        return y, math.inf
    ks = [_lu_solve(lu, order, f0)]
    for c, a, cc in dynamics._RO_STAGES:
        if not all(math.isfinite(v) for v in ks[-1]):
            return y, math.inf
        point = []
        for i in range(n):
            acc = 0.0
            for coef, k in zip(a, ks):
                acc = acc + coef * k[i]
            point.append(y[i] + acc)
        fi = fn(t + c * h, point)
        b = []
        for i in range(n):
            acc = 0.0
            for coef, k in zip(cc, ks):
                acc = acc + coef * k[i]
            b.append(fi[i] + acc / h)
        ks.append(_lu_solve(lu, order, b))
    y_new = [p + d for p, d in zip(point, ks[-1])]
    scales = [dynamics.ABS_TOL + dynamics.REL_TOL * max(abs(a), abs(b)) for a, b in zip(y, y_new)]
    return y_new, dynamics._rms(ks[-1], scales)


def _random_field(rng, n):
    """x' = b + M x + x*x per component, from seeded coefficients."""
    b = rng.uniform(-1.0, 1.0, n).tolist()
    m = rng.uniform(-3.0, 3.0, (n, n)).tolist()

    def fn(t, y):
        out = []
        for i in range(n):
            v = b[i] + y[i] * y[i]
            for j in range(n):
                v = v + m[i][j] * y[j]
            out.append(v)
        return out

    return fn


def _both_steps(fn, jrows, t, y, f0, h):
    """(generated, reference) results, each with the times fn was called at."""
    calls = ([], [])

    def traced(i):
        def f(tt, yy):
            calls[i].append(tt)
            return fn(tt, yy)
        return f

    step = dynamics._rodas(traced(0), lambda tt, yy: jrows, len(y), IntegratorStats())
    got = step(t, y, f0, h)
    want = _reference_step(traced(1), jrows, t, y, f0, h)
    return (got, calls[0]), (want, calls[1])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generated_step_is_bit_identical_to_the_list_step(n):
    rng = np.random.default_rng(150 + n)
    for _ in range(300):
        fn = _random_field(rng, n)
        t = float(rng.uniform(-5.0, 5.0))
        y = rng.uniform(-2.0, 2.0, n).tolist()
        h = float(10.0 ** rng.uniform(-6.0, 0.0))
        jrows = (rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.uniform(-2.0, 6.0)).tolist()
        (got, got_calls), (want, want_calls) = _both_steps(fn, jrows, t, y, fn(t, y), h)
        assert got == want, (t, y, h, jrows)
        assert all(type(v) is float for v in got[0])
        assert got_calls == want_calls and len(got_calls) == 5


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("case", ["singular", "nan_jacobian", "overflow"])
def test_generated_step_rejects_as_the_list_step(n, case):
    fn = _random_field(np.random.default_rng(160 + n), n)
    y, h = [0.5] * n, 0.5
    jrows = [[0.0] * n for _ in range(n)]
    f0 = fn(0.0, y)
    if case == "singular":  # I/(h gamma) - J = 0
        for i in range(n):
            jrows[i][i] = 1.0 / (h * dynamics._RO_GAMMA)
    elif case == "nan_jacobian":
        jrows[-1][0] = math.nan
    else:  # the first stage point squares past the largest float
        f0 = [1e200] * n
    (got, got_calls), (want, want_calls) = _both_steps(fn, jrows, 0.0, y, f0, h)
    assert got == want == (y, math.inf)
    assert got_calls == want_calls
    assert len(got_calls) == (1 if case == "overflow" else 0)


# stage matrices I/(h gamma) - J at h = 4, where I/(h gamma) = I, and the
# row order _lu leaves of them (None: it refuses the matrix)
PIVOT_CASES = {
    "exchange_in_column_0": ([[1.0, 2.0], [3.0, 4.0]], [1, 0]),
    "exchange_in_column_1": ([[4.0, 1.0, 1.0], [1.0, 1.0, 2.0], [2.0, 3.0, 1.0]], [0, 2, 1]),
    "tie_with_the_diagonal": ([[-2.0, 1.0], [2.0, 3.0]], [0, 1]),  # the diagonal row wins
    # rows 1 and 2 tie in column 0; row 1, the first, pivots
    "tie_below_the_diagonal": ([[1.0, 1.0, 0.0], [3.0, 1.0, 1.0], [-3.0, 2.0, 1.0]], [1, 2, 0]),
    "nan_below_the_diagonal": ([[1.0, 0.0], [math.nan, 1.0]], None),  # never pivots
    "inf_below_the_diagonal": ([[1.0, 0.0], [math.inf, 1.0]], None),  # pivots, and is refused
}


@pytest.mark.parametrize("name", PIVOT_CASES)
def test_generated_step_pivots_as_the_list_step(name):
    matrix, order = PIVOT_CASES[name]
    n, h = len(matrix), 4.0
    jrows = [[float(i == j) - v for j, v in enumerate(row)] for i, row in enumerate(matrix)]
    assert _stage_lu(jrows, h)[1] == order
    fn = _random_field(np.random.default_rng(170 + n), n)
    y = [0.25] * n
    (got, got_calls), (want, want_calls) = _both_steps(fn, jrows, 0.0, y, fn(0.0, y), h)
    assert got == want and got_calls == want_calls
    if order is None:
        assert got == (y, math.inf) and got_calls == []
    else:
        assert math.isfinite(got[1]) and len(got_calls) == 5


# ---------------------------------------------------------------------------
# hybrid integration


def test_hybrid_crossing_then_slide():
    # constant normals: fall onto the surface at t = 1, then slide to x = 2
    sys = system_from_strings(("x", "y"), ("1", "-1"), ("1", "1"))
    traj = integrate_filippov(sys, (0.0, 1.0), (0.0, 2.0))
    assert np.allclose(traj.states[-1], [2.0, 0.0], atol=1e-9)
    assert traj.node_times[-1] == pytest.approx(2.0, abs=1e-12)
    kinds = [e.kind for e in traj.events]
    assert kinds == [EventKind.SIGMA_HIT, EventKind.SLIDE_ENTRY]
    for e in traj.events:
        assert e.time == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(e.state, [1.0, 0.0], atol=1e-9)
    # the slide keeps y pinned to zero at every recorded node
    on_slide = traj.times >= traj.events[-1].time
    assert np.all(traj.states[on_slide, 1] == 0.0)


def test_hybrid_sewing_passes_through():
    sys = system_from_strings(("x", "y"), ("1", "1"), ("2", "1"))
    traj = integrate_filippov(sys, (0.0, -0.5), (0.0, 1.0))
    kinds = [e.kind for e in traj.events]
    assert kinds == [EventKind.SIGMA_HIT]
    hit = traj.events[0]
    assert hit.time == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(hit.state, [1.0, 0.0], atol=1e-9)
    assert np.allclose(traj.states[-1], [1.5, 0.5], atol=1e-9)


def test_hybrid_slide_exit():
    # sliding on the fold pushes x toward the graze where the upper weight
    # saturates; the orbit then leaves along the upper field
    traj = integrate_filippov(fold(), (-0.5, 0.0), (0.0, 1.0))
    kinds = [e.kind for e in traj.events]
    assert kinds == [EventKind.SLIDE_ENTRY, EventKind.SLIDE_EXIT]
    entry, exit_ = traj.events
    assert entry.time == 0.0
    assert exit_.time == pytest.approx(0.5, abs=1e-6)
    assert exit_.state[0] == pytest.approx(0.0, abs=1e-6)
    # ballistic arc afterwards: x = t - 1/2, y = (t - 1/2)^2
    assert traj.states[-1][0] == pytest.approx(0.5, abs=1e-6)
    assert traj.states[-1][1] == pytest.approx(0.25, abs=1e-6)


def test_a_slide_exit_does_not_move_under_a_rescaling_of_the_normal_components():
    # a+ = s*2.627636*(x - 0.269307) and a- = s*1.074824: lambda, and so the
    # slide and its exit at the fold x = 0.269307, do not depend on s > 0.
    # The exit's bisection multiplied two sliding margins of order s, which
    # underflowed to 0 at s = 1e-170 and 1e-300: the exit moved to t = 1
    exits = []
    for s in (1.0, 1e-100, 1e-170, 1e-300):
        sys = system_from_strings(("x", "y"), ("1", f"{s!r}*2.627636*(x - 0.269307)"),
                                  ("1", f"{s!r}*1.074824"))
        traj = integrate_filippov(sys, (-0.5, 0.0), (0.0, 1.0))
        assert [e.kind for e in traj.events] == [EventKind.SLIDE_ENTRY, EventKind.SLIDE_EXIT]
        exit_ = traj.events[1]
        assert exit_.state[0] == pytest.approx(0.269307, abs=1e-8)
        exits.append(exit_.state[0])
        # the ballistic arc after the exit: y = s*2.627636*(x - 0.269307)^2/2
        assert traj.states[-1][1] == pytest.approx(0.06992042206182 * s, rel=1e-12)
        assert np.all(np.diff(traj.times) > 0.0)
    assert max(exits) - min(exits) <= 1e-15


@pytest.mark.parametrize("x0, kinds", [
    ((-1.0, 0.5), [EventKind.STEP_FAILURE]),  # runs out before the hit
    ((-1.0, 0.0), [EventKind.SLIDE_ENTRY, EventKind.STEP_FAILURE]),  # out while sliding
])
def test_hybrid_step_budget_ends_with_step_failure(x0, kinds, monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 2)
    traj = integrate_filippov(fold(), x0, (0.0, 2.0))
    assert [e.kind for e in traj.events] == kinds
    assert traj.node_times[-1] < 2.0
    assert traj.events[-1].time == traj.node_times[-1]
    assert np.array_equal(traj.events[-1].state, traj.states[-1])


def test_hybrid_event_budget_ends_with_step_failure(monkeypatch):
    # the orbit hits the surface, then slides and leaves: two passes of the
    # event loop, which spend its budget well before t_end
    monkeypatch.setattr(dynamics, "MAX_EVENTS", 2)
    traj = integrate_filippov(fold(), (-1.0, 0.5), (0.0, 1.5))
    assert [e.kind for e in traj.events] == [EventKind.SIGMA_HIT, EventKind.SLIDE_ENTRY,
                                             EventKind.SLIDE_EXIT, EventKind.STEP_FAILURE]
    exit_, failure = traj.events[-2:]
    assert failure.time == exit_.time == traj.node_times[-1] < 1.5
    assert failure.state == exit_.state == tuple(traj.states[-1])


def test_slide_ends_on_t_end():
    # a bench capture orbit whose one long sliding step fell two ulps short
    # of t_end and ended in a StepFailure
    t_end = 15.901125650404408
    traj = integrate_filippov(capture(), (-0.763908, 0.355908), (0.0, t_end))
    assert [e.kind for e in traj.events] == [EventKind.SIGMA_HIT, EventKind.SLIDE_ENTRY]
    assert traj.node_times[-1] == t_end
    assert traj.states[-1] == pytest.approx([-0.763908 + 0.077644 * 0.958932 * t_end, 0.0],
                                             abs=1e-12)


def test_hybrid_starts_on_surface_sewing():
    sys = system_from_strings(("x", "y"), ("1", "2"), ("1", "1"))
    traj = integrate_filippov(sys, (0.0, 0.0), (0.0, 1.0))
    assert traj.events == []
    assert np.allclose(traj.states[-1], [1.0, 2.0], atol=1e-9)


def test_hybrid_singular_hit():
    # the lower normal component vanishes exactly where the orbit lands
    sys = system_from_strings(("x", "y"), ("1", "-1"), ("1", "x"))
    with pytest.raises(UnresolvedSingularityError) as err:
        integrate_filippov(sys, (-0.5, 0.5), (0.0, 2.0))
    assert err.value.time == pytest.approx(0.5, abs=1e-9)
    assert err.value.state[0] == pytest.approx(0.0, abs=1e-9)
    partial = err.value.trajectory
    assert partial.node_times[-1] == pytest.approx(0.5, abs=1e-9)
    kinds = [e.kind for e in partial.events]
    assert kinds == [EventKind.SIGMA_HIT, EventKind.STEP_FAILURE]


def test_a_slide_onto_the_pole_of_the_weight_stops_at_its_last_node():
    # a_plus = a_minus at x = 0.5, where sgn(0.5 - x) flips to -1: a RODAS
    # stage of the slide tried x = 0.5727, which classifies Sewing, and the
    # error reported that stage as a singular point the orbit reached, while
    # the trajectory ended at t = 0.3752
    sys = system_from_strings(("x", "y"), ("1", "-1"), ("1", "sgn(0.5 - x)"))
    with pytest.raises(UnresolvedSingularityError) as err:
        integrate_filippov(sys, (0.0, 0.3), (0.0, 2.0))
    traj = err.value.trajectory
    assert [e.kind for e in traj.events] == [
        EventKind.SIGMA_HIT, EventKind.SLIDE_ENTRY, EventKind.STEP_FAILURE]
    assert err.value.time == traj.node_times[-1] == traj.events[-1].time
    assert err.value.state == tuple(traj.states[-1]) == traj.events[-1].state
    assert 0.3 < err.value.time < 0.5
    assert classify_point(sys, err.value.state[:-1]) == SigmaClass.SLIDING
    message = str(err.value)
    assert message.startswith(f"slide stopped at t = {err.value.time}: ")
    assert "the Filippov weight has a pole (a_plus = a_minus) at the stage x = [0.5727" in message
    # with a continuous a_minus the slide leaves at x = 0.5, where a_minus = 0
    sys = system_from_strings(("x", "y"), ("1", "-1"), ("1", "0.5 - x"))
    traj = integrate_filippov(sys, (0.0, 0.3), (0.0, 2.0))
    assert [e.kind for e in traj.events] == [
        EventKind.SIGMA_HIT, EventKind.SLIDE_ENTRY, EventKind.SLIDE_EXIT]
    assert traj.events[-1].state[0] == pytest.approx(0.5, abs=1e-8)


def test_a_segment_launched_from_the_surface_is_cut_beyond_the_band():
    # the orbit sews through x = -1e-7, where a_plus = -x > 0, and X_plus
    # turns it back at x = 0: y = (x0^2 - x^2)/2 from the first hit's x0,
    # back at 0 near x = 1e-7.  The segment launched from the surface ends
    # where y clears the band, -SURFACE_BAND/2, so the re-hit comes later
    # than that, at x = 1.005e-6, and the orbit slides from there
    sys = system_from_strings(("x", "y"), ("1", "-x"), ("1", "1"))
    traj = integrate_filippov(sys, (-0.5000001, -0.5), (0.0, 0.6))
    first, second, entry = traj.events
    assert [e.kind for e in traj.events] == [
        EventKind.SIGMA_HIT, EventKind.SIGMA_HIT, EventKind.SLIDE_ENTRY]
    assert first.time == pytest.approx(0.5, abs=1e-9)
    assert first.time < second.time == entry.time < first.time + 1e-5
    assert 0.0 < second.state[0] < 2e-6
    assert traj.states[-1].tolist() == pytest.approx([0.0999999, 0.0], abs=1e-9)


def test_a_zero_length_span_is_the_start_alone():
    sys = system_from_strings(("x", "y"), ("1", "-x"), ("1", "1"))
    traj = integrate_filippov(sys, (-0.5000001, -0.5), (1.0, 1.0))
    assert traj.node_times == [1.0] and traj.node_states == [[-0.5000001, -0.5]]
    assert traj.events == []


def test_hybrid_singular_start():
    sys = system_from_strings(("x", "y"), ("1", "0"), ("1", "1"))
    with pytest.raises(UnresolvedSingularityError) as err:
        integrate_filippov(sys, (0.0, 0.0), (0.0, 1.0))
    assert err.value.time == 0.0
    assert err.value.trajectory.events[-1].kind == EventKind.STEP_FAILURE


def test_hybrid_span_validation():
    with pytest.raises(ValueError, match="increasing"):
        integrate_filippov(fold(), (0.0, 1.0), (2.0, 1.0))


def test_hybrid_dimension_check():
    with pytest.raises(ValueError):
        integrate_filippov(fold(), (0.0, 0.0, 0.0), (0.0, 1.0))


def test_hybrid_three_dimensional_slide():
    # rotation in the surface plane while both fields press onto it
    sys = system_from_strings(
        ("x1", "x2", "y"), ("-x2", "x1", "-1"), ("-x2", "x1", "1")
    )
    traj = integrate_filippov(sys, (1.0, 0.0, 0.0), (0.0, math.pi))
    assert [e.kind for e in traj.events] == [EventKind.SLIDE_ENTRY]
    assert np.allclose(traj.states[-1], [-1.0, 0.0, 0.0], atol=1e-6)
    assert np.all(traj.states[:, 2] == 0.0)


def _failed_partial(error, sys, x0, t_span):
    with pytest.raises(error) as err:
        integrate_filippov(sys, x0, t_span)
    return err.value.trajectory


def _singular_partial(sys, x0, t_span):
    return _failed_partial(UnresolvedSingularityError, sys, x0, t_span)


def _with_step_budget(steps, sys, x0, t_span):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "MAX_STEPS", steps)
        return integrate_filippov(sys, x0, t_span)


HYBRID_ORBITS = {
    "crossing_then_slide": lambda: integrate_filippov(
        system_from_strings(("x", "y"), ("1", "-1"), ("1", "1")), (0.0, 1.0), (0.0, 2.0)),
    "sewing": lambda: integrate_filippov(
        system_from_strings(("x", "y"), ("1", "1"), ("2", "1")), (0.0, -0.5), (0.0, 1.0)),
    "slide_exit": lambda: integrate_filippov(fold(), (-0.5, 0.0), (0.0, 1.0)),
    "hit_slide_exit": lambda: integrate_filippov(fold(), (-1.0, 0.5), (0.0, 1.5)),
    "budget_before_hit": lambda: _with_step_budget(2, fold(), (-1.0, 0.5), (0.0, 2.0)),
    "budget_while_sliding": lambda: _with_step_budget(3, fold(), (-1.0, 0.0), (0.0, 2.0)),
    "starts_on_surface": lambda: integrate_filippov(
        system_from_strings(("x", "y"), ("1", "2"), ("1", "1")), (0.0, 0.0), (0.0, 1.0)),
    "three_dimensional_slide": lambda: integrate_filippov(
        system_from_strings(("x1", "x2", "y"), ("-x2", "x1", "-1"), ("-x2", "x1", "1")),
        (1.0, 0.0, 0.0), (0.0, math.pi)),
    "singular_partial": lambda: _singular_partial(
        system_from_strings(("x", "y"), ("1", "-1"), ("1", "x")), (-0.5, 0.5), (0.0, 2.0)),
    "singular_start": lambda: _singular_partial(
        system_from_strings(("x", "y"), ("1", "0"), ("1", "1")), (0.0, 0.0), (0.0, 1.0)),
    "saturated_slide_entry": lambda: _singular_partial(
        saturated_weight(), (0.0, 1.0), (0.0, 1.0)),
    "slide_toward_the_pole": lambda: integrate_filippov(
        pole_beyond_fold(), (-0.730693, 0.37356), (0.0, 16972.055779620172)),
    "slide_past_the_fold": lambda: integrate_filippov(
        steep_fold(), (-1.257586, 0.693241), (0.0, 62.75512313868072)),
    "slide_to_t_end": lambda: integrate_filippov(
        capture(), (-0.763908, 0.355908), (0.0, 15.901125650404408)),
    "dip_between_nodes": lambda: integrate_filippov(
        shallow_fold(), (-1.248522, 1.152954), (0.0, 767.467)),
    "domain_error": lambda: _failed_partial(
        DomainError, system_from_strings(("x", "y"), ("1", "sqrt(1 - x)"), ("1", "1")),
        (0.0, 1.0), (0.0, 2.0)),
    "nan_trace_start": lambda: _failed_partial(DomainError, nan_trace(), (0.5, 0.0), (0.0, 2.0)),
    "nan_trace_hit": lambda: _failed_partial(DomainError, nan_trace(), (0.5, -1.0), (0.0, 2.0)),
    "nan_trace_slide": lambda: _failed_partial(
        DomainError, nan_trace_beyond_half(), (0.0, 0.0), (0.0, 2.0)),
}


def nan_trace():
    # inf*x - inf*x makes a_plus NaN at every surface point but x = 0
    return system_from_strings(("x", "y"), ("1", "1e300*x*1e300 - 1e300*x*1e300 + 1"), ("1", "2"))


def nan_trace_beyond_half():
    # a_plus = -1 + b - b with b = inf*(x - 0.5 + |x - 0.5|) is -1 up to
    # x = 0.5 and NaN past it, so a slide from x = 0 runs into the NaN
    b = "1e300*(x - 0.5 + abs(x - 0.5))*1e300"
    return system_from_strings(("x", "y"), ("1", f"-1 + {b} - {b}"), ("1", "1"))


def capture():
    # constant fields pressing onto the surface: the orbit falls onto it and slides
    return system_from_strings(
        ("x", "y"),
        ("0.077644*0.958932", "0.077644*(-1.149512)"),
        ("0.077644*0.958932", "0.077644*1.548051"),
    )


def saturated_weight():
    # the weight 1e-5/(1e-5 + 1e6) is all but 0, and the relative class band
    # calls the point singular, since |a-| is 1e-11 |a+|
    return system_from_strings(("x", "y"), ("1", "-1e6"), ("1", "1e-5"))


def pole_beyond_fold():
    # the fold at x = 0.269307 lies before the pole a_plus = a_minus at 0.678354
    return system_from_strings(
        ("x", "y"),
        ("8.82186e-05", "8.82186e-05*2.627636*(x - 0.269307)*1"),
        ("8.82186e-05", "8.82186e-05*1.074824*1"),
    )


def steep_fold():
    # fold at x = -0.257586, pole at -0.032538: the last sliding step
    # overshoots the fold, and the weight changes sign through the pole
    return system_from_strings(
        ("x", "y"),
        ("0.0256337*1", "0.0256337*2.666149*(x + 0.257586)"),
        ("0.0256337*1", "0.0256337*0.60001"),
    )


def shallow_fold():
    # polynomial fields: the step grows fivefold per step, and one step
    # from y = 0.204 to y = 0.110 passes over the dip of the exact orbit
    # to y = -0.317
    return system_from_strings(
        ("x", "y"),
        ("0.00200522*1", "0.00200522*2.94085*(x + 0.248522)"),
        ("0.00200522*1", "0.00200522*0.925704"),
    )


def _assert_exits_at_fold(traj, fold_x, t_end):
    assert [e.kind for e in traj.events] == [
        EventKind.SIGMA_HIT, EventKind.SLIDE_ENTRY, EventKind.SLIDE_EXIT]
    entry, exit_ = traj.events[1], traj.events[2]
    assert exit_.state[0] == pytest.approx(fold_x, abs=1e-8)
    assert exit_.state[1] == 0.0
    assert np.all(traj.states[(traj.times >= entry.time) & (traj.times <= exit_.time), 1] == 0.0)
    assert traj.node_times[-1] == t_end
    # one Jacobian per node a step starts from, on segments and slides alike
    assert traj.stats.accepted > 0 and traj.stats.jac_evals == traj.stats.accepted


def test_slide_toward_the_weight_pole_exits_at_its_fold():
    # this slide used to step past the fold toward the pole and fail there;
    # the exit is now the edge of the class band, which has no pole
    t_end = 16972.055779620172
    traj = integrate_filippov(pole_beyond_fold(), (-0.730693, 0.37356), (0.0, t_end))
    _assert_exits_at_fold(traj, 0.269307, t_end)


def test_slide_exit_is_not_bisected_onto_the_weight_pole():
    # the weight's exit was bisected on lam - (1 - 1e-10) over a last step
    # that ends past the pole, where lam changes sign through infinity, and
    # converged on the pole x = -0.0325386 instead of the fold
    t_end = 62.75512313868072
    traj = integrate_filippov(steep_fold(), (-1.257586, 0.693241), (0.0, t_end))
    _assert_exits_at_fold(traj, -0.257586, t_end)
    # after the exit the orbit follows X_plus: y = k/2 (x - fold)^2
    x, y = traj.states[-1]
    assert y == pytest.approx(0.5 * 2.666149 * (x + 0.257586) ** 2, rel=1e-6)


def test_crossing_between_two_nodes_is_found():
    # no node of the step lay beyond the surface, so the orbit recorded no
    # event and ended at y = 0.1096 on X_plus, the wrong side of its slide
    t_end = 767.467
    traj = integrate_filippov(shallow_fold(), (-1.248522, 1.152954), (0.0, t_end))
    _assert_exits_at_fold(traj, -0.248522, t_end)
    # x moves at 0.00200522 on both fields; after the fold exit y = k/2 (x - fold)^2
    x_end = -1.248522 + 0.00200522 * t_end
    assert traj.states[-1][0] == pytest.approx(x_end, abs=1e-6)
    assert traj.states[-1][1] == pytest.approx(0.5 * 2.94085 * (x_end + 0.248522) ** 2, abs=1e-6)


def test_integrate_error_carries_its_accepted_nodes():
    def fn(t, y):
        if t > 1.0:
            raise UnresolvedSingularityError(t, y)
        return -np.asarray(y)

    with pytest.raises(UnresolvedSingularityError) as err:
        integrate(fn, [1.0], (0.0, 5.0), jac=lambda t, y: [[-1.0]])
    traj = err.value.trajectory
    assert traj.times[0] == 0.0 and 0.0 < traj.node_times[-1] <= 1.0 < err.value.time
    assert len(traj.times) > 2 and np.all(np.diff(traj.times) > 0)
    assert traj.states[-1][0] == pytest.approx(math.exp(-traj.node_times[-1]), rel=1e-6)
    # it stops short of t_end, so a StepFailure at its last node ends it
    assert [(e.time, e.kind) for e in traj.events] == [(traj.node_times[-1], EventKind.STEP_FAILURE)]

    # an error at the first node leaves the start alone, ended the same way
    def fails(t, y):
        raise DomainError("no value at the start")

    with pytest.raises(DomainError) as err:
        integrate(fails, [1.0], (0.0, 5.0), jac=lambda t, y: [[-1.0]])
    traj = err.value.trajectory
    assert traj.node_times == [0.0] and traj.node_states == [[1.0]]
    assert traj.events == [Event(0.0, (1.0,), EventKind.STEP_FAILURE)]


def test_domain_error_keeps_the_orbit_before_it(tmp_path):
    # y' = sqrt(1 - x) leaves its domain at x = 1, i.e. at t = 1: the error
    # used to leave with no nodes
    sys = system_from_strings(("x", "y"), ("1", "sqrt(1 - x)"), ("1", "1"))
    with pytest.raises(DomainError, match="sqrt of negative value") as err:
        integrate_filippov(sys, (0.0, 1.0), (0.0, 2.0))
    traj = err.value.trajectory
    assert [e.kind for e in traj.events] == [EventKind.STEP_FAILURE]
    assert traj.events[0].time == traj.node_times[-1]
    assert np.array_equal(traj.events[0].state, traj.states[-1])
    assert len(traj.times) > 2 and 0.5 < traj.node_times[-1] <= 1.0
    x, y = traj.states.T
    assert np.allclose(x, traj.times, rtol=0, atol=1e-12)
    assert np.allclose(y, 1.0 + (1.0 - (1.0 - x) ** 1.5) / 1.5, rtol=0, atol=1e-6)
    # the command still fails with exit code 1
    cfg = tmp_path / "sqrt.cfg"
    cfg.write_text("[system]\ncoords = x, y\nx_plus = 1, sqrt(1 - x)\nx_minus = 1, 1\n"
                   "\n[run]\nx0 = 0, 1\nt_span = 0, 2\n")
    assert run_command(["integrate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1


def test_saturated_slide_entry_fails():
    # used to enter and leave the slide at one time until max_events ran out;
    # the hit now classifies SigmaSingular, so the orbit fails before entering
    with pytest.raises(UnresolvedSingularityError) as err:
        integrate_filippov(saturated_weight(), (0.0, 1.0), (0.0, 1.0))
    traj = err.value.trajectory
    assert [e.kind for e in traj.events] == [EventKind.SIGMA_HIT, EventKind.STEP_FAILURE]
    assert err.value.time == traj.node_times[-1]
    assert traj.states[-1][-1] == 0.0


@pytest.mark.parametrize("name", sorted(HYBRID_ORBITS))
def test_hybrid_orbit_invariants(name):
    # trajectory.csv writes an event on the row of its node, so an event off
    # the nodes would be dropped from the artifact
    traj = HYBRID_ORBITS[name]()
    assert len(traj.times) >= 1
    assert np.all(np.diff(traj.times) > 0)
    node = {float(t): k for k, t in enumerate(traj.times)}
    for e in traj.events:
        assert float(e.time) in node
        assert np.array_equal(e.state, traj.states[node[float(e.time)]])
    # a StepFailure ends the orbit: at most one, the last event, at the last node
    failures = [e for e in traj.events if e.kind == EventKind.STEP_FAILURE]
    assert len(failures) <= 1
    if failures:
        assert traj.events[-1] is failures[0]
        assert failures[0].time == traj.node_times[-1]


@pytest.mark.parametrize("name", sorted(
    set(HYBRID_ORBITS) - {"domain_error", "nan_trace_slide"}))
def test_hybrid_orbit_counts_each_run_once(name):
    # one IntegratorStats counts the whole orbit.  A run, a segment or a
    # slide, starts at the orbit's start and after each SigmaHit and
    # SlideExit the orbit goes on from; it costs 2 right-hand sides (its
    # first node and the initial step's probe), 6 per accepted step and 5
    # per rejected one, and a Jacobian per node a step starts from.  The
    # DomainError orbits left out fail inside an attempt, which counts up to
    # the failing evaluation.
    traj = HYBRID_ORBITS[name]()
    starts = [traj.times[0]] + [
        e.time for e in traj.events if e.kind in (EventKind.SIGMA_HIT, EventKind.SLIDE_EXIT)]
    runs = sum(t < traj.node_times[-1] for t in starts)
    stats = traj.stats
    assert stats.jac_evals == stats.accepted
    assert stats.rhs_evals == 2 * runs + 6 * stats.accepted + 5 * stats.rejected


@pytest.mark.parametrize("orbit, kinds", [
    ("nan_trace_start", [EventKind.STEP_FAILURE]),
    ("nan_trace_hit", [EventKind.SIGMA_HIT, EventKind.STEP_FAILURE]),
    ("nan_trace_slide", [EventKind.SLIDE_ENTRY, EventKind.STEP_FAILURE]),
])
def test_a_surface_point_with_non_finite_normal_components_is_a_domain_error(orbit, kinds):
    # classify_point called the start, and the hit near x = 1, SigmaSingular
    # where certify refuses such a point: the orbit raised
    # UnresolvedSingularityError, and now the DomainError certify raises
    traj = HYBRID_ORBITS[orbit]()
    assert [e.kind for e in traj.events] == kinds
    assert traj.node_states[-1][-1] == 0.0


def test_a_slide_refuses_non_finite_normal_components_as_a_start_does():
    # the slide's margin and right-hand side read NaN past x = 0.5, where the
    # orbit spent 33 rejected attempts to end in a StepFailure and no error;
    # its right-hand side now refuses the first stage there, and the orbit
    # ends at its last node before it
    traj = HYBRID_ORBITS["nan_trace_slide"]()
    assert traj.node_states[-1][0] < 0.5 and traj.stats.rejected == 0


@pytest.mark.parametrize("orbit", ["hit_slide_exit", "domain_error"])
def test_hybrid_orbit_builds_one_trajectory(monkeypatch, orbit):
    # segments and slides step into the orbit's Trajectory: each used to
    # build a Trajectory of its own, which the orbit read back into lists
    built = []
    init = dynamics.Trajectory.__init__
    monkeypatch.setattr(dynamics.Trajectory, "__init__",
                        lambda traj, dim: built.append(traj) or init(traj, dim))
    traj = HYBRID_ORBITS[orbit]()
    assert traj.events and len(built) == 1


def test_hybrid_events_are_located_in_few_probes(monkeypatch):
    # bisecting each event to 1e-12 took 81 probes of the event functions
    # for this orbit's SigmaHit and SlideExit; zeroin on the step's cubic
    # takes a few per event, though it runs to the last float
    probes = []
    locate = dynamics._locate
    monkeypatch.setattr(dynamics, "_locate", lambda g, *step: locate(
        lambda t, x: probes.append(t) or g(t, x), *step))
    traj = HYBRID_ORBITS["hit_slide_exit"]()
    assert [e.kind for e in traj.events] == [
        EventKind.SIGMA_HIT, EventKind.SLIDE_ENTRY, EventKind.SLIDE_EXIT]
    assert len(probes) <= 16


def test_an_event_function_zero_at_the_step_end_locates_the_end():
    # a slide's stop rule fires on margin <= 0, so the margin can be exactly
    # 0 at the step's end, which is then the event; bisection stopped about
    # 1e-12 short of it
    step = 0.0, [1.0], [-1.0], 1.0, [0.0], [-1.0]  # x = 1 - t
    assert dynamics._locate(lambda t, x: x[0], *step, 1.0) == (1.0, [0.0])
    # g is 0 at t_hi = 0.5 as well as beyond it
    assert dynamics._locate(lambda t, x: max(x[0] - 0.5, 0.0), *step, 0.5) == (0.5, [0.5])


def test_a_sigma_hit_is_classified_once(monkeypatch):
    # the hit was classified right after it was recorded, for a singular
    # verdict the loop's surface branch reaches again one pass later
    calls = []
    classify = dynamics.classify_point
    monkeypatch.setattr(dynamics, "classify_point",
                        lambda system, x: calls.append(list(x)) or classify(system, x))
    traj = HYBRID_ORBITS["hit_slide_exit"]()
    hit = traj.events[0]
    assert hit.kind == EventKind.SIGMA_HIT
    assert calls == [list(hit.state[:-1])]


def test_the_far_side_is_found_once_per_segment_step(monkeypatch):
    # the stop rule's time bounds the hit's bracket; the step that held the
    # hit was asked for its far side a second time to find the bracket again
    steps = []
    far_side = dynamics._far_side
    monkeypatch.setattr(dynamics, "_far_side",
                        lambda region, t0, *rest: steps.append(t0) or far_side(region, t0, *rest))
    traj = HYBRID_ORBITS["hit_slide_exit"]()
    hit, _, exit_ = traj.events
    # the located event node takes the place of its step's end node
    segment_steps = (np.count_nonzero(traj.times <= hit.time) - 1
                     + np.count_nonzero(traj.times >= exit_.time) - 1)
    assert len(steps) == len(set(steps)) == segment_steps


def test_a_singular_hit_at_t_end_ends_the_orbit():
    # a- = 1000 x vanishes where the orbit lands, at t = 0.5: a hit within
    # EVENT_TIME_TOL of t_end has reached it and is not classified, while
    # one before t_end is singular
    sys = system_from_strings(("x", "y"), ("1", "-1000"), ("1", "1000*x"))
    traj = integrate_filippov(sys, (-0.5, 500.0), (0.0, 0.5 + 5e-13))
    assert [e.kind for e in traj.events] == [EventKind.SIGMA_HIT]
    assert traj.node_times[-1] == traj.events[0].time == pytest.approx(0.5, abs=1e-15)
    assert classify_point(sys, traj.states[-1][:-1]) == SigmaClass.SIGMA_SINGULAR
    with pytest.raises(UnresolvedSingularityError) as err:
        integrate_filippov(sys, (-0.5, 500.0), (0.0, 1.0))
    assert [e.kind for e in err.value.trajectory.events] == [
        EventKind.SIGMA_HIT, EventKind.STEP_FAILURE]
    assert err.value.time == pytest.approx(0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# manifold tracking


def test_track_manifold_fold():
    xs = np.linspace(-1.0, -0.1, 10)
    track = track_manifold((0.1,), [(x, certify(fold(), Smoothstep(), x)) for x in xs])[0]
    assert len(track.points) == 10
    assert track.excluded == ()
    for p in track.points:
        assert p.y == pytest.approx(0.1 * p.t)
        # root of psi(t) = (x+1)/(1-x)
        level = (p.x + 1) / (1 - p.x)
        assert Smoothstep().value(p.t) == pytest.approx(level, abs=1e-9)


def test_track_manifold_t_independent_of_eps():
    xs = np.linspace(-1.0, -0.1, 7)
    a = track_manifold((0.1,), [(x, certify(fold(), Smoothstep(), x)) for x in xs])[0]
    b = track_manifold((0.05,), [(x, certify(fold(), Smoothstep(), x)) for x in xs])[0]
    for pa, pb in zip(a.points, b.points):
        assert pa.t == pb.t
        assert pa.y == pytest.approx(2.0 * pb.y)


def test_track_manifold_exclusions():
    xs = [-0.5, 0.0, 0.5]
    track = track_manifold((0.1,), [(x, certify(fold(), Smoothstep(), x)) for x in xs])[0]
    assert [p.x for p in track.points] == [-0.5]
    reasons = dict(track.excluded)
    assert reasons[0.0] == "only tangential roots"
    assert reasons[0.5] == "no root: not a sliding point"

    with pytest.raises(NoSlidingAtError) as err:
        track_manifold((0.1,), [(x, certify(fold(), Smoothstep(), x)) for x in [0.4, 0.6]])
    assert err.value.x == 0.4

    with pytest.raises(ValueError):
        track_manifold((0.0,), [(x, certify(fold(), Smoothstep(), x)) for x in xs])


def test_track_manifold_refuses_no_points():
    # with no point, there was no first exclusion to name: IndexError
    with pytest.raises(ValueError, match="^certified is empty: there is no point to track$"):
        track_manifold((0.1,), [])


def test_track_manifold_degenerate_reason():
    # both normal components vanish at x = 0 but the system slides elsewhere
    sys = system_from_strings(("x", "y"), ("1", "-x^2"), ("1", "x^2"))
    track = track_manifold((0.1,), [(x, certify(sys, Smoothstep(), x)) for x in [-0.5, 0.0]])[0]
    assert [p.x for p in track.points] == [-0.5]
    assert dict(track.excluded)[0.0] == "height function degenerates"


# ---------------------------------------------------------------------------
# equilibria on the sliding manifold


def trichotomy_system():
    return system_from_strings(("x", "y"), ("x^2 + y", "-1"), ("x^2 + y", "1"))


def test_equilibria_two():
    eqs = equilibria_on_manifold(trichotomy_system(), Biased(-0.5), 0.02, (-1.0, 1.0))
    assert len(eqs) == 2
    assert eqs[0].x == pytest.approx(-0.1, abs=1e-9)
    assert eqs[0].stability == -1
    assert eqs[1].x == pytest.approx(0.1, abs=1e-9)
    assert eqs[1].stability == 1


def test_equilibria_one_degenerate():
    eqs = equilibria_on_manifold(trichotomy_system(), Biased(0.0), 0.02, (-1.0, 1.0))
    assert len(eqs) == 1
    assert eqs[0].x == pytest.approx(0.0, abs=1e-6)
    assert eqs[0].stability == 0


def test_equilibria_none():
    eqs = equilibria_on_manifold(trichotomy_system(), Biased(0.5), 0.02, (-1.0, 1.0))
    assert eqs == []


def gap_system(tangential="x"):
    # sliding for |x| > 0.5 and sewing across the gap |x| < 0.5, where the
    # manifold, and so g, is undefined
    return system_from_strings(("x", "y"), (tangential, "-1"), (tangential, "x^2 - 0.25"))


def test_no_equilibrium_across_a_sewing_gap():
    # g = x changes sign across the gap, but not on the manifold
    assert equilibria_on_manifold(gap_system(), Smoothstep(), 0.05, (-1.0, 1.0)) == []


def test_equilibrium_beside_a_sewing_gap():
    eqs = equilibria_on_manifold(gap_system("x - 0.8"), Smoothstep(), 0.05, (-1.0, 1.0))
    assert len(eqs) == 1
    assert eqs[0].x == pytest.approx(0.8, abs=1e-12)
    assert eqs[0].stability == 1


def test_equilibria_search_cost(monkeypatch):
    # one g sample per grid point, plus one zeroin per turn and per zero
    # (640, 612 and 610 calls); the three passes and the secant-slope scan
    # of every sample took 1800, and bisection for each zero 784
    calls = 0
    height_roots = dynamics.height_roots

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return height_roots(*args, **kwargs)

    monkeypatch.setattr(dynamics, "height_roots", counting)
    for t0 in (-0.5, 0.0, 0.5):
        calls = 0
        equilibria_on_manifold(trichotomy_system(), Biased(t0), 0.02, (-1.0, 1.0))
        assert calls <= 700


def test_equilibria_validation():
    sys3 = system_from_strings(("x1", "x2", "y"), ("1", "0", "-1"), ("1", "0", "1"))
    with pytest.raises(ValueError):
        equilibria_on_manifold(sys3, Smoothstep(), 0.1, (-1.0, 1.0))
    with pytest.raises(ValueError):
        equilibria_on_manifold(trichotomy_system(), Smoothstep(), -0.1, (-1.0, 1.0))


@pytest.mark.parametrize("x_range", [(1.0, -1.0), (0.5, 0.5), (math.nan, 1.0),
                                     (-1.0, math.inf)],
                         ids=["reversed", "empty", "nan_start", "inf_end"])
def test_equilibria_refuse_a_range_that_is_not_finite_and_increasing(x_range):
    # the reversed range (1, -1) returned x = 0.5 and x = -0.5, both with
    # stability 0, where the equilibria lie at -0.1 and 0.1
    with pytest.raises(ValueError, match="x_range must be finite and increasing"):
        equilibria_on_manifold(trichotomy_system(), Biased(-0.5), 0.02, x_range)


def test_the_regularized_slide_leaves_the_fold_late_where_fenichel_stops():
    # a_plus = x^2 - 0.25 vanishes at x = 0.5, where h_1 = 2 a_plus does: the
    # root of h runs into the band end t = 1, psi' = 0 there, and the slow
    # manifold loses normal hyperbolicity.  Past that fold the regularized
    # orbit stays near Sigma a delay that falls like eps^(2/3) (Krupa &
    # Szmolyan, SIAM J. Math. Anal. 33, 2001), so each halving of eps shrinks
    # it by a ratio that tends to 2^(2/3) = 1.587 from above
    system = system_from_strings(("x", "y"), ("1", "x^2 - 0.25 - y"), ("1", "2 + x"))
    delays = []
    for eps in (0.02 / 2**k for k in range(6)):
        fn, jac = regularized(system, Smoothstep(), eps)
        orbit = integrate(fn, [-0.4, 0.0], (0.0, 1.5), jac=jac)
        # the first node past y = eps, beyond the fold at x = 0.5
        delays.append(next(x for x, y in orbit.node_states if y > eps) - 0.5)
    assert delays == pytest.approx([0.0780, 0.0478, 0.0291, 0.0179, 0.0110, 0.0068], abs=1e-4)
    ratios = [a / b for a, b in zip(delays, delays[1:])]
    assert all(1.55 <= q <= 1.70 for q in ratios), ratios
    # the hybrid orbit leaves where sliding_margin falls to 0, |a_plus| =
    # CLASS_TOL * |a_minus|, 2.5e-9 before the fold: its limit has no delay
    hybrid = integrate_filippov(system, [-0.4, 0.0], (0.0, 1.5))
    kinds = [(e.kind, e.time) for e in hybrid.events]
    assert kinds == [(EventKind.SLIDE_ENTRY, 0.0), (EventKind.SLIDE_EXIT, 0.8999999975000008)]
    assert 0.9 - kinds[1][1] == pytest.approx(CLASS_TOL * 2.5, rel=1e-6)
