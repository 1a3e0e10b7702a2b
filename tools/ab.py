"""Time two source trees against each other on the benchmark's jobs, in
alternating pairs of fresh interpreters.

Usage, from the root of a checkout:

    python3 tools/ab.py PARENT CHANGE --workload orbit_sweep \
        --seeds 7 8 --rounds 0 1 2 3 --pairs 10 --best-of 5

PARENT and CHANGE are each a ``src`` directory or a git revision of this
checkout.  Each is exported into a temporary directory first, a revision
by ``git archive`` and a directory without its ``__pycache__``, and every
process runs with PYTHONDONTWRITEBYTECODE=1, so both sides compile their
modules alike.  The jobs are those tools/artifact_diff.py runs for the
workload, seeds and rounds (bench/workloads.py's, from this checkout, for
both sides).

Each pair runs one fresh interpreter per side, the parent first in even
pairs and the change first in odd ones.  A process measures:

- setup_s: the import of filippov.cli, timed as bench/run.py's
  measure_setup times it, before anything else is imported;
- the jobs through filippov.cli.run_command, one warm-up pass and then the
  best of --best-of passes, the one with the least summed job time; from
  it jobs_per_s, job_s.p50, job_s.tail (the rank of bench/run.py's
  TAIL_BEYOND per round) and load_config_s, the summed time of
  cli.load_config, wrapped from outside;
- peak_rss_mb, the process's peak resident set at the end.

The report gives per metric the two medians over the pairs, the parent's
interquartile range as a % of its median, the change in %, and the pairs
in which the change did better.  It measures and gates nothing: the exit
status is 0 once every process has reported.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
BENCH = ROOT / "bench"
# metric -> whether higher is better, and how a value prints
METRICS = {
    "setup_s": (False, lambda v: f"{v * 1e3:.2f} ms"),
    "jobs_per_s": (True, lambda v: f"{v:.1f}"),
    "job_s.p50": (False, lambda v: f"{v * 1e3:.3f} ms"),
    "job_s.tail": (False, lambda v: f"{v * 1e3:.3f} ms"),
    "load_config_s": (False, lambda v: f"{v * 1e3:.2f} ms"),
    "peak_rss_mb": (False, lambda v: f"{v:.2f} MB"),
}
# bench/run.py's measure_setup, then this module's measure with the rest of argv
MEASURE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import filippov.cli; setup = time.perf_counter() - t; "
    "sys.path.insert(0, sys.argv[2]); import ab; ab.measure(setup, sys.argv[3:])"
)


def export(side: str, dest: Path) -> Path:
    """The src directory of side, a src directory or a git revision of
    this checkout, exported to dest/src."""
    out = dest / "src"
    if Path(side).is_dir():
        shutil.copytree(side, out, ignore=shutil.ignore_patterns("__pycache__"))
    else:
        done = subprocess.run(["git", "archive", "--format=tar", side, "src"], cwd=ROOT,
                              capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
            tar.extractall(dest, filter="data")
    if not (out / "filippov" / "cli.py").is_file():
        raise SystemExit(f"error: {side} holds no filippov package")
    return out


def measure(setup: float, argv: list[str]) -> None:
    """In a fresh interpreter that has just imported filippov.cli: run the
    jobs as the module docstring describes and print the metrics as JSON."""
    import gc
    import resource
    import time

    import artifact_diff
    bench_run = _bench_run()
    from filippov import cli

    workload, best_of = argv[0], int(argv[1])
    seeds, rounds = json.loads(argv[2]), json.loads(argv[3])
    load_config = cli.load_config
    load_config_s = 0.0

    def timed_load_config(*args, **kwargs):
        nonlocal load_config_s
        start = time.perf_counter()
        try:
            return load_config(*args, **kwargs)
        finally:
            load_config_s += time.perf_counter() - start

    cli.load_config = timed_load_config
    named = artifact_diff.jobs(workload, seeds, rounds)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def one_pass() -> tuple[list[float], float, int]:
            nonlocal load_config_s
            times, failed = [], 0
            load_config_s = 0.0
            for name, job in named:
                cfg, out = work / f"{name}.cfg", work / name
                cfg.write_text(job.config)
                gc.collect()
                start = time.perf_counter()
                rc = cli.run_command(job.argv(cfg, out))
                times.append(time.perf_counter() - start)
                failed += rc != 0
                shutil.rmtree(out, ignore_errors=True)
                cfg.unlink()
            return times, load_config_s, failed

        one_pass()  # warm-up
        times, config_s, failed = min((one_pass() for _ in range(best_of)),
                                      key=lambda done: sum(done[0]))
    beyond = round(bench_run.TAIL_BEYOND[workload] * len(seeds) * len(rounds))
    print(json.dumps({
        "setup_s": setup,
        "jobs_per_s": len(times) / sum(times),
        "job_s.p50": statistics.median(times),
        "job_s.tail": sorted(times, reverse=True)[beyond],
        "load_config_s": config_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": len(times),
        "failed": failed,
    }))


def _bench_run():
    """bench/run.py as a module, for its TAIL_BEYOND, with bench/ on the path."""
    sys.path.insert(0, str(BENCH))
    import run

    return run


def run_side(src: Path, args: argparse.Namespace, cwd: Path) -> dict:
    cmd = [sys.executable, "-c", MEASURE, str(src), str(TOOLS), args.workload,
           str(args.best_of), json.dumps(args.seeds), json.dumps(args.rounds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"error: the process measuring {src} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def table(parent: list[dict], change: list[dict]) -> list[str]:
    """The report's lines: one table row per metric."""
    lines = ["| metric | parent (IQR) | change | change | wins |", "|---|---|---|---|---|"]
    for name, (higher, show) in METRICS.items():
        a, b = [run[name] for run in parent], [run[name] for run in change]
        mid_a, mid_b = statistics.median(a), statistics.median(b)
        q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive") if len(a) > 1 else (0, 0, 0)
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        lines.append(f"| `{name}` | {show(mid_a)} ({100.0 * (q3 - q1) / mid_a:.1f}%) | "
                     f"{show(mid_b)} | {100.0 * (mid_b - mid_a) / mid_a:+.1f}% | "
                     f"{wins}/{len(a)} |")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="a src directory or a git revision")
    parser.add_argument("change", help="a src directory or a git revision")
    parser.add_argument("--workload", required=True, choices=sorted(_bench_run().TAIL_BEYOND))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--rounds", type=int, nargs="+", default=[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--best-of", type=int, default=5)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.best_of < 1:
        parser.error("--pairs and --best-of must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        sides = [export(side, work / name) for side, name in ((args.parent, "parent"),
                                                               (args.change, "change"))]
        runs: list[list[dict]] = [[], []]
        for pair in range(args.pairs):
            for k in (0, 1) if pair % 2 == 0 else (1, 0):
                runs[k].append(run_side(sides[k], args, work))
    jobs = runs[0][0]["jobs"]
    print(f"{args.workload}, seeds {args.seeds}, rounds {args.rounds}: {jobs} jobs, "
          f"{args.pairs} pairs, best of {args.best_of}")
    failed = [sum(run["failed"] for run in side) for side in runs]
    if any(failed):
        print(f"jobs that exited non-zero, over all best passes: parent {failed[0]}, "
              f"change {failed[1]}")
    print("\n".join(table(*runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
