import math

import numpy as np
import pytest

from filippov import dynamics
from filippov.dynamics import (
    EVENT_TIME_TOL,
    Equilibrium,
    EventKind,
    IntegratorStats,
    NoSlidingAtError,
    UnresolvedSingularityError,
    equilibria_on_manifold,
    hausdorff,
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
    bisect_sign_change,
    make_transition,
    regularized_field,
    regularized_jacobian,
)
from filippov.system import system_from_strings


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
    assert np.linalg.norm(traj.final_state - [1.0, 0.0]) < 1e-7


def test_exponential_accuracy():
    traj = integrate(lambda t, y: y, (1.0,), (0.0, 1.0), jac=lambda t, y: [[1.0]])
    assert traj.final_state[0] == pytest.approx(math.e, rel=1e-8)


def test_dense_output():
    fn, jac = oscillator()
    traj = integrate(fn, (1.0, 0.0), (0.0, math.pi), jac=jac)
    for t in np.linspace(0, math.pi, 37):
        got = traj.sample(float(t))
        assert got[0] == pytest.approx(math.cos(t), abs=1e-6)
        assert got[1] == pytest.approx(-math.sin(t), abs=1e-6)
    assert np.array_equal(traj.sample(traj.final_time), traj.final_state)
    with pytest.raises(ValueError):
        traj.sample(-0.1)
    with pytest.raises(ValueError):
        traj.sample(math.pi + 0.1)


def test_span_validation():
    fn, jac = (lambda t, y: y), (lambda t, y: [[1.0]])
    with pytest.raises(ValueError):
        integrate(fn, (1.0,), (1.0, 0.0), jac=jac)
    # degenerate span returns the single initial node
    traj = integrate(fn, (1.0,), (0.5, 0.5), jac=jac)
    assert len(traj.times) == 1
    assert traj.final_time == 0.5


def test_step_failure_near_blowup():
    # y' = y^2 from 1 explodes at t = 1; the controller gives up cleanly
    traj = integrate(lambda t, y: np.asarray(y) ** 2, (1.0,), (0.0, 2.0),
                     jac=lambda t, y: [[2.0 * y[0]]])
    assert traj.events
    assert traj.events[-1].kind == EventKind.STEP_FAILURE
    assert traj.final_time < 2.0
    assert traj.final_time == pytest.approx(1.0, abs=1e-3)


def test_step_failure_when_max_steps_runs_out(monkeypatch):
    fn, jac = (lambda t, y: -np.asarray(y)), (lambda t, y: [[-1.0]])
    monkeypatch.setattr(dynamics, "MAX_STEPS", 5)
    traj = integrate(fn, (1.0,), (0.0, 10.0), jac=jac)
    assert traj.final_time < 1.0
    assert [e.kind for e in traj.events] == [EventKind.STEP_FAILURE]
    assert traj.events[0].time == traj.final_time
    # a budget that suffices leaves no event
    monkeypatch.undo()
    assert not integrate(fn, (1.0,), (0.0, 10.0), jac=jac).events


@pytest.mark.parametrize("t_span", [
    (0.587851162064913, 6.630109559562878),  # t + (t_end - t) falls an ulp short
    (0.8814913579141315, 7.194978862342071),  # and here an ulp past
])
def test_last_step_lands_on_t_end(t_span):
    # the last node must be t_end itself: an ulp short, the gap left is
    # below MIN_STEP and would end the run with a StepFailure
    traj = integrate(lambda t, y: np.ones(1), (0.0,), t_span, jac=lambda t, y: [[0.0]])
    assert traj.events == []
    assert traj.final_time == t_span[1]
    assert traj.final_state[0] == pytest.approx(t_span[1] - t_span[0], rel=1e-12)


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
    assert np.linalg.norm(traj.final_state - [1.0, 0.0]) < 1e-6


def test_stop_ends_at_first_accepted_node_where_true():
    # y' = 2 + cos(4 s) with the clock s' = 1: the oscillating rate keeps
    # the steps short, so y passes 2 between nodes
    fn = lambda t, y: np.array([2.0 + math.cos(4.0 * y[1]), 1.0])
    jac = lambda t, y: np.array([[0.0, -4.0 * math.sin(4.0 * y[1])], [0.0, 0.0]])
    full = integrate(fn, (0.0, 0.0), (0.0, 10.0), jac=jac)
    seen = []

    def stop(t0, y0, f0, t, y, f):
        seen.append((t0, y0[0], f0[0], t, y[0], f[0]))
        return y[0] > 2.0

    traj = integrate(fn, (0.0, 0.0), (0.0, 10.0), stop=stop, jac=jac)
    first = int(np.argmax(full.states[:, 0] > 2.0))
    assert np.array_equal(traj.times, full.times[: first + 1])
    assert traj.final_state[0] > 2.0 >= traj.states[-2, 0]
    assert traj.events == []
    # asked once per accepted step, with the nodes and derivatives at its two ends
    nodes = list(zip(traj.times.tolist(), traj.states[:, 0].tolist(), traj.derivs[:, 0].tolist()))
    assert seen == [a + b for a, b in zip(nodes, nodes[1:])]


def test_bisection_stops_when_floats_run_out():
    # near t = 1e4 adjacent floats are 1.8e-12 apart, wider than the 1e-12
    # event tolerance, and f vanishes at no float, so only the
    # no-float-between rule ends the search
    calls = [0]

    def f(t):
        calls[0] += 1
        if calls[0] > 200:
            raise RuntimeError("bisection does not terminate")
        return (t - 1e4) - 0.3

    t = bisect_sign_change(f, 1e4, 1e4 + 1.0, EVENT_TIME_TOL)
    assert abs(t - 10000.3) <= 2e-12


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
        assert traj.final_time == 1.5 and not traj.events
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
    assert traj.final_time == 10.0
    assert np.allclose(traj.final_state, [10.0, 0.0], rtol=0, atol=1e-12)


def test_non_finite_stage_solve_ends_in_step_failure():
    traj = integrate(lambda t, y: -np.asarray(y), (1.0,), (0.0, 1.0), jac=lambda t, y: [[math.nan]])
    assert [e.kind for e in traj.events] == [EventKind.STEP_FAILURE]
    assert traj.final_time == 0.0
    assert traj.stats.accepted == 0 and traj.stats.rejected > 0


# ---------------------------------------------------------------------------
# the stage solves: LU with partial pivoting, against numpy.linalg.solve


def _lu_solve(matrix, b):
    lu = [[float(v) for v in row] for row in matrix]
    order = dynamics._lu(lu)
    return None if order is None else dynamics._lu_solve(lu, order, b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lu_solve_matches_numpy_solve(n):
    rng = np.random.default_rng(40 + n)
    solved = 0
    while solved < 200:
        a = rng.uniform(-2.0, 2.0, (n, n))
        if np.linalg.cond(a) > 100.0:  # well-conditioned systems only
            continue
        b = rng.uniform(-2.0, 2.0, n)
        got = _lu_solve(a.tolist(), b.tolist())
        assert all(type(v) is float for v in got)
        want = np.linalg.solve(a, b)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12), (a, b, got, want)
        solved += 1


def test_lu_exchanges_rows():
    # a zero leading entry: elimination without row exchange divides by 0
    assert _lu_solve([[0.0, 1.0], [1.0, 0.0]], [2.0, 3.0]) == [3.0, 2.0]
    # a tiny leading entry: without row exchange the multiplier 1e20 swamps
    # the second row and x[0] comes out 0
    got = _lu_solve([[1e-20, 1.0], [1.0, 1.0]], [1.0, 2.0])
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
    assert dynamics._lu([row[:] for row in matrix]) is None


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
# hybrid integration


def test_hybrid_crossing_then_slide():
    # constant normals: fall onto the surface at t = 1, then slide to x = 2
    sys = system_from_strings(("x", "y"), ("1", "-1"), ("1", "1"))
    traj = integrate_filippov(sys, (0.0, 1.0), (0.0, 2.0))
    assert np.allclose(traj.final_state, [2.0, 0.0], atol=1e-9)
    assert traj.final_time == pytest.approx(2.0, abs=1e-12)
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
    assert np.allclose(traj.final_state, [1.5, 0.5], atol=1e-9)


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
    assert traj.final_state[0] == pytest.approx(0.5, abs=1e-6)
    assert traj.final_state[1] == pytest.approx(0.25, abs=1e-6)


@pytest.mark.parametrize("x0, kinds", [
    ((-1.0, 0.5), [EventKind.STEP_FAILURE]),  # runs out before the hit
    ((-1.0, 0.0), [EventKind.SLIDE_ENTRY, EventKind.STEP_FAILURE]),  # out while sliding
])
def test_hybrid_step_budget_ends_with_step_failure(x0, kinds, monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 2)
    traj = integrate_filippov(fold(), x0, (0.0, 2.0))
    assert [e.kind for e in traj.events] == kinds
    assert traj.final_time < 2.0
    assert traj.events[-1].time == traj.final_time
    assert np.array_equal(traj.events[-1].state, traj.final_state)


def test_slide_ends_on_t_end():
    # a bench capture orbit whose one long sliding step fell two ulps short
    # of t_end and ended in a StepFailure
    t_end = 15.901125650404408
    traj = integrate_filippov(capture(), (-0.763908, 0.355908), (0.0, t_end))
    assert [e.kind for e in traj.events] == [EventKind.SIGMA_HIT, EventKind.SLIDE_ENTRY]
    assert traj.final_time == t_end
    assert traj.final_state == pytest.approx([-0.763908 + 0.077644 * 0.958932 * t_end, 0.0],
                                             abs=1e-12)


def test_hybrid_starts_on_surface_sewing():
    sys = system_from_strings(("x", "y"), ("1", "2"), ("1", "1"))
    traj = integrate_filippov(sys, (0.0, 0.0), (0.0, 1.0))
    assert traj.events == []
    assert np.allclose(traj.final_state, [1.0, 2.0], atol=1e-9)


def test_hybrid_singular_hit():
    # the lower normal component vanishes exactly where the orbit lands
    sys = system_from_strings(("x", "y"), ("1", "-1"), ("1", "x"))
    with pytest.raises(UnresolvedSingularityError) as err:
        integrate_filippov(sys, (-0.5, 0.5), (0.0, 2.0))
    assert err.value.time == pytest.approx(0.5, abs=1e-9)
    assert err.value.state[0] == pytest.approx(0.0, abs=1e-9)
    partial = err.value.trajectory
    assert partial.final_time == pytest.approx(0.5, abs=1e-9)
    kinds = [e.kind for e in partial.events]
    assert kinds == [EventKind.SIGMA_HIT, EventKind.STEP_FAILURE]


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
    assert np.allclose(traj.final_state, [-1.0, 0.0, 0.0], atol=1e-6)
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
}


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
    assert traj.final_time == t_end
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
    x, y = traj.final_state
    assert y == pytest.approx(0.5 * 2.666149 * (x + 0.257586) ** 2, rel=1e-6)


def test_crossing_between_two_nodes_is_found():
    # no node of the step lay beyond the surface, so the orbit recorded no
    # event and ended at y = 0.1096 on X_plus, the wrong side of its slide
    t_end = 767.467
    traj = integrate_filippov(shallow_fold(), (-1.248522, 1.152954), (0.0, t_end))
    _assert_exits_at_fold(traj, -0.248522, t_end)
    # x moves at 0.00200522 on both fields; after the fold exit y = k/2 (x - fold)^2
    x_end = -1.248522 + 0.00200522 * t_end
    assert traj.final_state[0] == pytest.approx(x_end, abs=1e-6)
    assert traj.final_state[1] == pytest.approx(0.5 * 2.94085 * (x_end + 0.248522) ** 2, abs=1e-6)


def test_integrate_error_carries_its_accepted_nodes():
    def fn(t, y):
        if t > 1.0:
            raise UnresolvedSingularityError(t, y, None)
        return -np.asarray(y)

    with pytest.raises(UnresolvedSingularityError) as err:
        integrate(fn, [1.0], (0.0, 5.0), jac=lambda t, y: [[-1.0]])
    traj = err.value.trajectory
    assert traj.times[0] == 0.0 and 0.0 < traj.final_time <= 1.0 < err.value.time
    assert len(traj.times) > 2 and np.all(np.diff(traj.times) > 0)
    assert traj.final_state[0] == pytest.approx(math.exp(-traj.final_time), rel=1e-6)


def test_domain_error_keeps_the_orbit_before_it(tmp_path):
    # y' = sqrt(1 - x) leaves its domain at x = 1, i.e. at t = 1: the error
    # used to leave with no nodes
    sys = system_from_strings(("x", "y"), ("1", "sqrt(1 - x)"), ("1", "1"))
    with pytest.raises(DomainError, match="sqrt of negative value") as err:
        integrate_filippov(sys, (0.0, 1.0), (0.0, 2.0))
    traj = err.value.trajectory
    assert [e.kind for e in traj.events] == [EventKind.STEP_FAILURE]
    assert traj.events[0].time == traj.final_time
    assert np.array_equal(traj.events[0].state, traj.final_state)
    assert len(traj.times) > 2 and 0.5 < traj.final_time <= 1.0
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
    assert err.value.time == traj.final_time
    assert traj.final_state[-1] == 0.0


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
        assert failures[0].time == traj.final_time


# ---------------------------------------------------------------------------
# manifold tracking


def test_track_manifold_fold():
    xs = np.linspace(-1.0, -0.1, 10)
    track = track_manifold(fold(), Smoothstep(), (0.1,), xs)[0]
    assert len(track.points) == 10
    assert track.excluded == ()
    for p in track.points:
        assert p.y == pytest.approx(0.1 * p.t)
        # root of psi(t) = (x+1)/(1-x)
        level = (p.x + 1) / (1 - p.x)
        assert Smoothstep().value(p.t) == pytest.approx(level, abs=1e-9)


def test_track_manifold_t_independent_of_eps():
    xs = np.linspace(-1.0, -0.1, 7)
    a = track_manifold(fold(), Smoothstep(), (0.1,), xs)[0]
    b = track_manifold(fold(), Smoothstep(), (0.05,), xs)[0]
    for pa, pb in zip(a.points, b.points):
        assert pa.t == pb.t
        assert pa.y == pytest.approx(2.0 * pb.y)


def test_track_manifold_exclusions():
    xs = [-0.5, 0.0, 0.5]
    track = track_manifold(fold(), Smoothstep(), (0.1,), xs)[0]
    assert [p.x for p in track.points] == [-0.5]
    reasons = dict(track.excluded)
    assert reasons[0.0] == "only tangential roots"
    assert reasons[0.5] == "no root: not a sliding point"

    with pytest.raises(NoSlidingAtError) as err:
        track_manifold(fold(), Smoothstep(), (0.1,), [0.4, 0.6])
    assert err.value.x == 0.4

    with pytest.raises(ValueError):
        track_manifold(fold(), Smoothstep(), (0.0,), xs)


def test_track_manifold_degenerate_reason():
    # both normal components vanish at x = 0 but the system slides elsewhere
    sys = system_from_strings(("x", "y"), ("1", "-x^2"), ("1", "x^2"))
    track = track_manifold(sys, Smoothstep(), (0.1,), [-0.5, 0.0])[0]
    assert [p.x for p in track.points] == [-0.5]
    assert dict(track.excluded)[0.0] == "height function degenerates"


def test_hausdorff():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.5]])
    assert hausdorff(a, b) == pytest.approx(math.sqrt(1.25))
    assert hausdorff(b, a) == hausdorff(a, b)
    assert hausdorff(a, a) == 0.0
    # 1-d inputs promote to single-coordinate points
    assert hausdorff(np.array([0.0, 1.0]), np.array([0.0])) == 1.0
    with pytest.raises(ValueError):
        hausdorff(np.zeros((0, 2)), b)


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
    # one g sample per grid point, plus one bisection per turn and per zero;
    # the three passes and the secant-slope scan of every sample took 1800
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
        assert calls <= 800


def test_equilibria_validation():
    sys3 = system_from_strings(("x1", "x2", "y"), ("1", "0", "-1"), ("1", "0", "1"))
    with pytest.raises(ValueError):
        equilibria_on_manifold(sys3, Smoothstep(), 0.1, (-1.0, 1.0))
    with pytest.raises(ValueError):
        equilibria_on_manifold(trichotomy_system(), Smoothstep(), -0.1, (-1.0, 1.0))
