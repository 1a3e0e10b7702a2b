"""Repository benchmark: closed-loop CLI jobs over seeded configs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload grid_sweep --seed 1 --seconds 50 --trace 0

One caller in one process runs jobs back to back; a job is one call to
filippov.cli.run_command(argv) on a config generated from the seed (config
load, computation and artifact writing).  Every job's artifacts are checked
against closed-form answers.  jobs_per_s and the job_s percentiles describe
the wall time inside run_command; writing configs and checking artifacts
between jobs is not counted.  The library comes from ./src of the checkout;
without it the benchmark exits with code 2.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
a fixed job list once untraced and once with per-layer wrappers installed
(see tracing.py) and reports the per-layer metrics, the tracing overhead and
the baseline table (fixed fold configs).  Both print one JSON object as the
last line of standard output; the full report, with run provenance, lands
in .bench_work/results/ and the spans of a traced run in .bench_work/spans/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 11
# --seconds sets the work, not a deadline.  A run does whole rounds, so
# every run of a workload does the same mix of work: as many as fit in
# --seconds at the nominal wall time of one round (its jobs plus their
# checks; the median over 10-seed runs on the reference machine, 2 cores and
# Python 3.11), after RESERVE_SECONDS for the warm-up job and the set-up
# samples, and at least enough for 10 jobs beyond the tail.
#
# job_s.tail is the time of the completed job that has TAIL_BEYOND jobs per
# round slower than it, so its rank counts from the top and does not move
# with the number of cheap jobs stopped by their time limit; the report
# gives the percentile of the completed jobs that the rank stands for.  The
# rank sits inside a dense class of jobs (a thin top of the distribution
# moves with a single slow job): overshoot and custom grid jobs on
# grid_sweep, the smoothstep and biased orbits at eps = 1e-4 on orbit_sweep
# (above them lie only the overshoot orbit and the bump custom orbits at
# 1e-4, about 1.5 a round, and the rank is about the middle of the 6.5 a
# round below them).
RESERVE_SECONDS = 5.0
ROUND_SECONDS = {"grid_sweep": 5.8, "orbit_sweep": 10.5}
TAIL_BEYOND = {"grid_sweep": 2.5, "orbit_sweep": 4.75}


def metric_units(section: str) -> dict[str, str]:
    """Names and units of the end_to_end or per_layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def provenance(seed: int, threads: str | None) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "filippov").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        revision = proc.stdout.strip() or None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "FILIPPOV_THREADS": threads,
    }


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import filippov.cli."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import filippov.cli; print(time.perf_counter() - t)"
    )
    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first compiles bytecode and is dropped
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, check=True)
        if i:
            samples.append(float(proc.stdout))
    print("setup samples: " + " ".join(f"{v:.4f}" for v in samples))
    return statistics.median(samples)


class JobTimeout(BaseException):
    """Raised in the main thread when a job exceeds its limit."""


def _on_alarm(signum, frame):
    raise JobTimeout


class Runner:
    """Runs jobs in a closed loop and checks each one's artifacts.

    A job that exceeds its limit is stopped by SIGALRM and counted as
    attempted and failed; it is left out of the timing statistics, which
    describe completed jobs.
    """

    def __init__(self, run_command, work: Path) -> None:
        self.run_command = run_command
        self.work = work
        self.count = 0
        self.attempted = 0
        self.timed_out = False
        self.times: list[float] = []
        self.labels: list[str] = []
        self.failed = 0
        self.broken = False
        self.tags: Counter[str] = Counter()
        self.tally: Counter[str] = Counter()
        self.events: Counter[str] = Counter()
        self.artifact_bytes = 0

    def reset(self) -> None:
        self.attempted = 0
        self.times.clear()
        self.labels.clear()
        self.failed = 0
        self.tags.clear()
        self.tally.clear()
        self.events.clear()
        self.artifact_bytes = 0

    def absorb(self, other: "Runner") -> None:
        self.attempted += other.attempted
        self.times += other.times
        self.labels += other.labels
        self.failed += other.failed
        self.broken |= other.broken
        self.tags.update(other.tags)

    def run(self, job, before=None) -> None:
        self.count += 1
        cfg = self.work / f"job{self.count}.cfg"
        cfg.write_text(job.config)
        out = self.work / f"out{self.count}"
        gc.collect()
        if before is not None:
            before()
        found = oracle.Findings()
        self.attempted += 1
        rc = None
        signal.signal(signal.SIGALRM, _on_alarm)
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, job.limit_s)
            rc = self.run_command(job.argv(cfg, out))
        except JobTimeout:
            found.fail("timeout")
        except Exception as exc:  # the CLI maps every failure to an exit code
            found.broke(f"raised.{type(exc).__name__}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        if rc is not None:
            workloads.check(job, out, rc, found, self.tally, self.events)
        if out.exists():
            self.artifact_bytes += sum(p.stat().st_size for p in out.iterdir())
            shutil.rmtree(out)
        cfg.unlink()
        self.timed_out = "timeout" in found.tags
        if not self.timed_out:
            self.times.append(elapsed)
            self.labels.append(job.label)
        self.failed += found.failed
        self.broken |= found.broken
        self.tags.update(f"{job.label}:{tag}" for tag in found.tags)


def run_measured(workload: str, seed: int, seconds: float, runner: Runner) -> dict:
    make_round = workloads.ROUNDS[workload]
    per_round = TAIL_BEYOND[workload]
    runner.run(make_round(seed, 0)[0])  # first-call effects; not measured
    runner.reset()
    rounds = max(math.ceil(10 / per_round),
                 int((seconds - RESERVE_SECONDS) / ROUND_SECONDS[workload]))
    round_walls = []
    for round_no in range(rounds):
        start = time.perf_counter()
        for job in make_round(seed, round_no):
            runner.run(job)
        round_walls.append(time.perf_counter() - start)
    times = runner.times
    beyond = round(per_round * rounds)
    return {
        "rounds": rounds,
        "round_wall_s": round_walls,
        "jobs_per_s": len(times) / sum(times),
        "job_s.p50": statistics.median(times),
        "job_s.tail": sorted(times, reverse=True)[beyond],
        "tail_percentile": 100.0 * (1.0 - beyond / len(times)),
        "jobs": len(times),
        "jobs_beyond_tail": beyond,
    }


def baseline_table(run_command, work: Path) -> dict:
    """The ROADMAP baseline measurements on the fixed fold x' = 1, y' = 2x | 2.

    Timings come from spans alone (no call counters installed); the step
    counts are the accepted steps of regularized smoothstep orbits from
    (-1, 0.5) over [0, 1.5].
    """
    import tracing

    fold = "[system]\ncoords = x, y\nx_plus = 1, 2*x\nx_minus = 1, 2\n\n"
    configs = {
        "smoothstep": fold + "[transition]\nkind = smoothstep\n",
        "custom": fold + "[transition]\nkind = custom\nexpr = (3*t - t^3)/2\n",
        "overshoot2": fold + "[transition]\nkind = overshoot\nm = 2\n",
    }
    out = {}
    for name, text in configs.items():
        cfg = work / f"{name}.cfg"
        cfg.write_text(text)
        tracer = tracing.Tracer()
        tracer.install(counters=False)
        try:
            run_command(["certify", "--config", str(cfg), "--out", str(work / name), "--grid=-1:1:201"])
        finally:
            tracer.uninstall()
        busy, _ = tracer.busy_and_self()
        if name == "overshoot2":
            out["baseline.overshoot2_construct_s"] = busy["regularize.make_transition"]
        else:
            calls = tracer.calls["regularize.certify"]
            out[f"baseline.certify_per_point_s.{name}"] = busy["regularize.certify"] / calls
    for eps in ("1e-1", "1e-2", "1e-3", "1e-4"):
        tracer = tracing.Tracer()
        tracer.install(counters=False)
        try:
            run_command(["integrate", "--config", str(work / "smoothstep.cfg"), "--out",
                         str(work / "orbit"), "--from=-1,0.5", "--tspan", "0,1.5",
                         "--mode", "regularized", "--epsilon", eps])
        finally:
            tracer.uninstall()
        out[f"baseline.fold_steps.eps_{eps}"] = tracer.integrator["steps"]
    return out


def run_traced(workload: str, seed: int, runner: Runner, work: Path) -> tuple[dict, dict]:
    import tracing  # imports filippov, so only after main() put ./src on the path

    make_round = workloads.ROUNDS[workload]
    jobs = make_round(seed, 0)
    runner.run(jobs[0])  # warm-up
    runner.reset()
    for job in jobs:
        runner.run(job)
    untraced = len(runner.times) / sum(runner.times)

    tracer = tracing.Tracer()
    traced_runner = Runner(runner.run_command, work)

    def start_job() -> None:
        tracer.begin_job(traced_runner.count)

    tracer.install()
    try:
        for job in jobs:
            snapshot = tracer.snapshot()
            traced_runner.run(job, before=start_job)
            if traced_runner.timed_out:
                tracer.discard_job(snapshot)
    finally:
        tracer.uninstall()
    traced = len(traced_runner.times) / sum(traced_runner.times)
    runner.absorb(traced_runner)

    busy, own = tracer.busy_and_self()
    calls = tracer.calls
    values: dict[str, object] = {
        "cli.run_command.busy_s": sum(traced_runner.times),
        "cli.artifact_bytes": traced_runner.artifact_bytes,
        "trace.jobs": len(jobs),
        "trace.jobs_per_s.untraced": untraced,
        "trace.jobs_per_s.traced": traced,
        "trace.overhead": untraced / traced,
    }
    for layer in tracer.counted_layers():
        values[f"{layer}.calls"] = calls[layer] or "unobserved"
    for layer in tracer.spanned_layers():
        values[f"{layer}.calls"] = calls[layer] or "unobserved"
        values[f"{layer}.busy_s"] = busy[layer] if calls[layer] else "unobserved"
        values[f"{layer}.self_s"] = own[layer] if calls[layer] else "unobserved"
    observed_integrate = calls["dynamics.integrate"] > 0
    for key in ("steps", "rhs_evals", "attempts"):
        values[f"dynamics.integrate.{key}"] = tracer.integrator[key] if observed_integrate else "unobserved"
    values["dynamics.integrate.accept_ratio"] = (
        tracer.integrator["steps"] / tracer.integrator["attempts"]
        if tracer.integrator["attempts"] else "unobserved")
    for kind in tracing.EVENT_KINDS:
        values[f"dynamics.integrate_filippov.events.{kind}"] = (
            tracer.events[kind] if calls["dynamics.integrate_filippov"] else "unobserved")
    verdicts = {k: v for k, v in traced_runner.tally.items() if k.startswith("certify.")}
    decided = verdicts.get("certify.SlidingCertified", 0) + verdicts.get("certify.SewingCertified", 0)
    values["regularize.certify.decided_ratio"] = (
        decided / sum(verdicts.values()) if verdicts else "unobserved")
    values.update(baseline_table(runner.run_command, work))

    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    (spans_dir / f"{workload}-seed{seed}.json").write_text(json.dumps(tracer.dump()))
    detail = {"verdicts": dict(traced_runner.tally), "events": dict(tracer.events),
              "calls": dict(calls)}
    return values, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    if not (SRC / "filippov" / "cli.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    threads = os.environ.pop("FILIPPOV_THREADS", None)  # the benchmark runs single-threaded
    import filippov.cli

    if Path(filippov.cli.__file__).resolve().parent != SRC / "filippov":
        print(f"error: imported filippov from {filippov.cli.__file__}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(filippov.cli.run_command, work)
    report = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(args.seed, threads)}
    try:
        if args.trace:
            units = metric_units("per_layer")
            values, detail = run_traced(args.workload, args.seed, runner, work)
            report.update(detail)
            unobserved = sorted(k for k, v in values.items() if v == "unobserved")
            values["trace.unobserved"] = len(unobserved)
            report["per_layer"] = values
            report["unobserved"] = unobserved
            # the result line carries numbers only; unobserved layers read 0
            # there and are named in the report and the line above it
            metrics = {name: {"value": values[name] if values[name] != "unobserved" else 0,
                              "unit": unit} for name, unit in units.items()}
            print("unobserved: " + (", ".join(unobserved) or "none"))
        else:
            measured = run_measured(args.workload, args.seed, args.seconds, runner)
            measured["setup_s"] = measure_setup()
            measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            report["measured"] = measured
            print(f"job_s.tail: p{measured['tail_percentile']:.1f} of {measured['jobs']} completed "
                  f"jobs, {measured['jobs_beyond_tail']} beyond")
            metrics = {name: {"value": measured[name], "unit": unit}
                       for name, unit in metric_units("end_to_end").items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = runner.attempted
    report.update({
        "attempted": attempted,
        "failed": runner.failed,
        "failed_frac": runner.failed / attempted,
        "failures": dict(sorted(runner.tags.items())),
        "verdicts": report.get("verdicts", dict(runner.tally)),
        "events": report.get("events", dict(runner.events)),  # from trajectory.csv when untraced
        "job_times": [[label, t] for label, t in zip(runner.labels, runner.times)],
        "run_wall_s": time.perf_counter() - began,
    })
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=2) + "\n")
    print("provenance: " + json.dumps(report["provenance"]))
    print(f"run wall time: {report['run_wall_s']:.1f} s")
    print(f"failed_frac: {report['failed_frac']:.4f} ({runner.failed}/{attempted} jobs)")
    for tag, count in report["failures"].items():
        print(f"  failure {tag}: {count}")
    print(json.dumps({"correct": not runner.broken, "attempted": attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
