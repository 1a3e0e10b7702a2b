"""Seeded job streams for the two workloads.

A job is one call to filippov.cli.run_command(argv) on a generated config.
Jobs come in rounds.  A round has a fixed composition (which commands,
transition kinds, surfaces and field types, one each per stratum), and its
continuous parameters and positive field rescalings are drawn from the
seed.  Runs always end on a round boundary, so every run measures the same
mix of work and only the drawn parameters differ between seeds.

grid_sweep   certify, classify, slow-fast and manifold over grids of about
             200 surface points (70 for custom transitions, whose expression
             trees cost five times more per point); all four transition
             kinds, flat and curved surfaces, polynomial and transcendental
             fields.  The regularize and expr layers do nearly all the work;
             the integrator none.
             One `cross` job per round covers the double-switching layer.
orbit_sweep  integrate --mode regularized at eps = 1e-1 .. 1e-4 on fold
             orbits that reach the sliding region, plus --mode filippov
             orbits with capture, slide-exit and sewing crossings.  The
             integrator does the work; height_roots is never called.  The
             regularized orbits make the tail and most of the time; the
             median is a hybrid orbit.

Every job loads a freshly generated config, so transition construction
(overshoot calibration) is paid per job on both workloads.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import cases
import oracle
from cases import Cross, Fold, Orbit

KINDS = ("smoothstep", "overshoot", "biased", "custom")
GRID_COMMANDS = ("certify", "classify", "slow-fast", "manifold")
ORBIT_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4)
CUSTOM_VARIANTS = ("bump", "bumpx", "tanhx", "sin")
ARTIFACTS = {
    "classify": ("classification.json",),
    "certify": ("certificates.json",),
    "slow-fast": ("slowfast.csv",),
    "manifold": ("manifold.json",),
    "integrate": ("trajectory.csv",),
    "cross": ("cross.json",),
}


@dataclass
class Job:
    label: str
    command: str
    config: str
    fold: Fold | None = None
    grid: tuple[float, float, int] | None = None
    epsilons: tuple[float, ...] = ()
    orbit: Orbit | None = None
    mode: str = ""
    cross: Cross | None = None
    extra_argv: list[str] = field(default_factory=list)
    limit_s: float = 60.0  # a job still running after this is stopped and fails

    def argv(self, config_path: Path, out: Path) -> list[str]:
        return [self.command, "--config", str(config_path), "--out", str(out), *self.extra_argv]

    def artifacts(self) -> tuple[str, ...]:
        return ARTIFACTS[self.command]


def check(job: Job, out: Path, rc: int, found: oracle.Findings, tally: Counter, events: Counter) -> None:
    """Run every closed-form check that applies to the job's artifacts."""
    if rc == 2 or rc not in (0, 1):
        found.broke(f"exit.{rc}")
        return
    if rc != 0:
        found.fail(f"exit.{job.label}")
        return
    for name in job.artifacts():
        if not (out / name).exists():
            found.broke(f"artifact.{name}")
            return
    try:
        _check_artifacts(job, out, found, tally, events)
    except (KeyError, IndexError, TypeError, ValueError):
        found.broke("artifact.schema")


def _check_artifacts(job: Job, out: Path, found, tally, events) -> None:
    names = job.artifacts()
    if "classification.json" in names:
        report = oracle.load_json(out / "classification.json", found)
        if report is not None:
            oracle.check_classification(report, job.fold, found, tally)
    if "certificates.json" in names:
        report = oracle.load_json(out / "certificates.json", found)
        if report is not None:
            oracle.check_certificates(report, job.fold, job.grid, found, tally)
    if "manifold.json" in names:
        report = oracle.load_json(out / "manifold.json", found)
        if report is not None:
            oracle.check_manifold(report, job.fold, job.epsilons, found)
    if "slowfast.csv" in names:
        text = oracle.read_text(out / "slowfast.csv", found)
        if text is not None:
            oracle.check_slowfast(text, job.fold, job.grid, found)
    if "trajectory.csv" in names:
        text = oracle.read_text(out / "trajectory.csv", found)
        if text is not None:
            eps = job.epsilons[0] if job.epsilons else 0.0
            oracle.check_trajectory(text, job.orbit, job.mode, eps, found, events)
    if "cross.json" in names:
        report = oracle.load_json(out / "cross.json", found)
        if report is not None:
            oracle.check_cross(report, job.cross, job.epsilons, found)


def _rng(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_no}")


def _scales(rng: random.Random, count: int) -> list[float]:
    strata = list(range(count))
    rng.shuffle(strata)
    return [cases.draw_scale(rng, k, count) for k in strata]


def custom_variant(slot: int, round_no: int) -> str:
    return CUSTOM_VARIANTS[(slot + round_no) % len(CUSTOM_VARIANTS)]


def grid_round(seed: int, round_no: int) -> list[Job]:
    """17 jobs: every (kind, command) pair once, then one `cross` job.
    Within each kind and each command, the four grid jobs cover flat/curved
    x polynomial/transcendental.  The custom template of each command
    cycles with the round number, so every run of n rounds has the same mix
    (the templates' costs differ up to threefold; a mix drawn per seed would
    add to the spread between seeds)."""
    rng = _rng("grid_sweep", seed, round_no)
    scales = _scales(rng, len(KINDS) * len(GRID_COMMANDS))
    jobs = []
    for i, kind in enumerate(KINDS):
        for j, command in enumerate(GRID_COMMANDS):
            transcendental = (i + j) % 2 == 1
            curved = (i + j // 2) % 2 == 1
            psi = cases.draw_psi(rng, kind, custom_variant(j, round_no) if kind == "custom" else "")
            fold = cases.draw_fold(rng, psi, scales[4 * i + j], transcendental, curved)
            # a custom transition costs about five times more per point
            # (expression trees); a third of the points keeps those jobs from
            # dominating the round
            grid = cases.draw_grid(rng, (61, 81) if kind == "custom" else (181, 221))
            eps = round(rng.uniform(0.05, 0.2), 6)
            epsilons = (eps, eps / 2)
            label = f"{command}.{psi.variant or kind}"
            jobs.append(Job(label, command, fold.config(grid, epsilons), fold=fold,
                            grid=grid, epsilons=epsilons))
    cross = cases.draw_cross(rng, cases.draw_scale(rng, 0, 1))
    epsilons = (round(rng.uniform(0.05, 0.2), 6), round(rng.uniform(0.02, 0.05), 6))
    text = cross.section() + "\n[run]\nepsilons = " + ", ".join(map(repr, epsilons)) + "\n"
    jobs.append(Job("cross", "cross", text, epsilons=epsilons, cross=cross))
    return jobs


def orbit_round(seed: int, round_no: int) -> list[Job]:
    """20 regularized fold orbits (every kind at every eps, smoothstep and
    biased three times at eps = 1e-4) and 30 hybrid orbits (ten each of
    slide-exit, capture and sewing).  The custom template cycles with the
    round number, so every run of n rounds has the same mix.  The
    regularized orbit times form a staircase (each kind is about twice as
    slow per decade of eps), so a median among them would jump between
    steps as the number of timed-out hybrid orbits varies; with 30 hybrid
    orbits (milliseconds each, about a sixth stopped by the time limit) the
    median lies well inside the hybrid class.  The tail lies inside the
    smoothstep and biased orbits at eps = 1e-4 (0.5-0.9 s each, six a
    round, so that the tail is the middle of many similar jobs rather than
    one of a few); only the overshoot and bump orbits at 1e-4 are
    slower."""
    rng = _rng("orbit_sweep", seed, round_no)
    scales = iter(_scales(rng, 20))
    variant = custom_variant(0, round_no)
    jobs = []
    for kind in KINDS:
        for eps in ORBIT_EPSILONS:
            repeats = 3 if eps == 1e-4 and kind in ("smoothstep", "biased") else 1
            for _ in range(repeats):
                psi = cases.draw_psi(rng, kind, variant if kind == "custom" else "", narrow=True)
                orbit = cases.fold_orbit(rng, psi, next(scales), narrow=True)
                jobs.append(_orbit_job(f"regularized.{kind}", orbit, "regularized", eps))
    scales = iter(_scales(rng, 30))
    for _ in range(10):
        for make in (lambda s: cases.fold_orbit(rng, cases.Psi("smoothstep"), s),
                     lambda s: cases.capture_orbit(rng, s),
                     lambda s: cases.sewing_orbit(rng, s)):
            orbit = make(next(scales))
            jobs.append(_orbit_job(f"filippov.{orbit.name}", orbit, "filippov", 0.1))
    return jobs


def _orbit_job(label: str, orbit: Orbit, mode: str, eps: float) -> Job:
    extra = ["--mode", mode]
    if mode == "regularized":
        extra += ["--epsilon", repr(eps)]
    # hybrid orbits take milliseconds; event bisection can fail to terminate
    # at large times, so they get a short limit
    return Job(label, "integrate", cases.orbit_config(orbit, mode, eps), fold=orbit.fold,
               epsilons=(eps,), orbit=orbit, mode=mode, extra_argv=extra,
               limit_s=0.25 if mode == "filippov" else 60.0)


ROUNDS: dict[str, Callable[[int, int], list[Job]]] = {
    "grid_sweep": grid_round,
    "orbit_sweep": orbit_round,
}
