"""Per-layer tracing from outside the library.

Wrappers are installed at the names callers look functions up under (for
example filippov.cli.certify, filippov.config.make_transition and both
filippov.regularize.height_roots and filippov.dynamics.height_roots), so no
library file changes.  Spans record name, start, end, parent span and job
id and stay in memory until the run ends.  Tiny hot functions
(TransitionFunction.value, expr.evaluate, ...) are counted, not spanned.

Integrator accounting: steps are the accepted steps of each returned
Trajectory; rhs_evals counts calls of the right-hand side handed to
integrate; attempts are computed from the Dormand-Prince 5(4) rule of one
start evaluation, one initial-step probe and six new evaluations per
attempted step, so they are labelled as computed, not observed.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable

import filippov.blowup as blowup
import filippov.cli as cli
import filippov.config as config
import filippov.dynamics as dynamics
import filippov.expr as expr
import filippov.regularize as regularize
import filippov.system as system

# (owner, attribute, layer name); one layer may sit behind several names
SPANNED = [
    (cli, "load_config", "config.load_config"),
    (config, "make_transition", "regularize.make_transition"),
    (cli, "certify", "regularize.certify"),
    (regularize, "height_roots", "regularize.height_roots"),
    (dynamics, "height_roots", "regularize.height_roots"),
    (cli, "classify_point", "system.classify_point"),
    (dynamics, "classify_point", "system.classify_point"),
    (blowup.SlowFastSystem, "manifold_slice", "blowup.SlowFastSystem.manifold_slice"),
    (cli, "integrate_filippov", "dynamics.integrate_filippov"),
    (cli, "track_manifold", "dynamics.track_manifold"),
    (cli, "stratified_slide_curve", "cross.stratified_slide_curve"),
]
INTEGRATE = [(cli, "integrate"), (dynamics, "integrate")]
COUNTED = [
    (regularize.TransitionFunction, "value", "regularize.TransitionFunction.value"),
    (regularize.TransitionFunction, "deriv_t", "regularize.TransitionFunction.deriv_t"),
    (expr, "evaluate", "expr.evaluate"),
    (system.VectorFieldDef, "evaluate", "system.VectorFieldDef.evaluate"),
    (cli, "regularized_field", "regularize.regularized_field"),
]
EVENT_KINDS = ("SigmaHit", "SlideEntry", "SlideExit", "StepFailure")


class Tracer:
    """Collects spans and counters while installed; restores on uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, parent, job
        self._stack: list[int] = []
        self.job = -1
        self.calls: Counter[str] = Counter()
        self.integrator: Counter[str] = Counter()
        self.events: Counter[str] = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self.discarded: set[int] = set()

    # -- spans --------------------------------------------------------------

    def begin_job(self, job: int) -> None:
        # a job stopped by its time limit may leave a span open
        self._stack.clear()
        self.job = job

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.job))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent, job = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, job)

    def spanned(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _integrate(self, fn: Callable) -> Callable:
        name = "dynamics.integrate"

        def wrapper(rhs, *args, **kwargs):
            evals = [0]

            def counting_rhs(t, x):
                evals[0] += 1
                return rhs(t, x)

            self.calls[name] += 1
            index = self.open(name)
            try:
                traj = fn(counting_rhs, *args, **kwargs)
                self.integrator["steps"] += len(traj.times) - 1
                return traj
            finally:
                self.close(index)
                self.integrator["rhs_evals"] += evals[0]
                self.integrator["attempts"] += max(evals[0] - 2, 0) / 6.0

        return wrapper

    def _integrate_filippov(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            try:
                traj = fn(*args, **kwargs)
            except dynamics.UnresolvedSingularityError as exc:
                self.events.update(e.kind.value for e in exc.trajectory.events)
                raise
            self.events.update(e.kind.value for e in traj.events)
            return traj

        return self.spanned("dynamics.integrate_filippov", wrapper)

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr: str, new: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, counters: bool = True) -> None:
        """Wrap every layer; without counters only the spans are installed,
        which keeps their timings free of per-call counting overhead."""
        for owner, attr, name in SPANNED:
            fn = getattr(owner, attr)
            if attr == "integrate_filippov":
                self._replace(owner, attr, self._integrate_filippov(fn))
            else:
                self._replace(owner, attr, self.spanned(name, fn))
        for owner, attr in INTEGRATE:
            self._replace(owner, attr, self._integrate(getattr(owner, attr)))
        if counters:
            for owner, attr, name in COUNTED:
                self._replace(owner, attr, self.counted(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def snapshot(self) -> tuple[Counter, Counter, Counter]:
        return Counter(self.calls), Counter(self.integrator), Counter(self.events)

    def discard_job(self, snapshot: tuple[Counter, Counter, Counter]) -> None:
        """Drop the counts of a job that was stopped midway, whose counts
        depend on when it was stopped; its spans stay in the dump but are
        left out of busy and self times."""
        for counter, saved in zip((self.calls, self.integrator, self.events), snapshot):
            counter.clear()  # in place: the counting wrappers hold self.calls
            counter.update(saved)
        self.discarded.add(self.job)

    def busy_and_self(self) -> tuple[Counter, Counter]:
        busy: Counter[str] = Counter()
        child: Counter[int] = Counter()
        kept = [(i, span) for i, span in enumerate(self.spans) if span[4] not in self.discarded]
        for _, (name, start, end, parent, _) in kept:
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: Counter[str] = Counter()
        for index, (name, start, end, _, _) in kept:
            own[name] += (end - start) - child[index]
        return busy, own

    @staticmethod
    def spanned_layers() -> list[str]:
        return sorted({name for _, _, name in SPANNED} | {"dynamics.integrate"})

    @staticmethod
    def counted_layers() -> list[str]:
        return [name for _, _, name in COUNTED]

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "job"],
            "spans": self.spans,
            "discarded_jobs": sorted(self.discarded),
        }
