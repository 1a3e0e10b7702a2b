"""Compare the artifacts two source trees write for the same benchmark jobs.

Usage, from the root of a checkout:

    python3 tools/artifact_diff.py OLD_SRC NEW_SRC --workload grid_sweep \
        --seeds 911 912 913 --rounds 0 1 2 3

The jobs are the ones bench/workloads.py generates for each seed and
round.  No bench job fails, so ``--workload errors`` runs this tool's own
list instead, ERROR_JOBS, whose jobs fail on purpose and write their error
messages to stderr (it takes no seeds or rounds):

    python3 tools/artifact_diff.py OLD_SRC NEW_SRC --workload errors

Each tree runs all of the jobs in its own Python subprocess, with that
tree's ``src`` first on the path, through filippov.cli.run_command.  The
report then lists:

- how many artifacts are byte-identical, and each one that is not;
- how many jobs ran, and in how many the exit code and stderr are alike;
- per JSON key (list positions dropped, so ``grid[].roots[].t``) or CSV
  column, how many numbers changed among those the differing artifacts
  hold, and the largest |change|;
- flags for every other difference: a changed string, list length, key
  set, type, CSV header or row count, a missing artifact, an exit code,
  the text a job wrote to stderr (its error message, say).

The exit status is 0 when everything is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
JOB_LIMIT_S = 60.0  # a job still running after this is stopped, its exit code "timeout"

FOLD = "[system]\ncoords = x, y\nx_plus = 1, 2*x\nx_minus = 1, 2\n"
# y = 0 leaves 1/0 in the normal trace, which fails at every surface point
TRACE_POLE = FOLD.replace("2*x", "1/y + x")
NAN_PSI = "[transition]\nkind = custom\nexpr = (3*t - t^3)/2 + 1e200*t*1e200 - 1e200*t*1e200\n"
CROSS = ("[cross]\nx_pp = -1, -1, 1\nx_pm = -1, 1, 1\nx_mp = 1, -1, 1\nx_mm = 1, 1, 1\n"
         "phi_kind = biased\nphi_t0 = 0.25\npsi_kind = biased\npsi_t0 = -0.5\n")
# sqrt(1 - x) is undefined once the orbit passes x = 1
SQRT_ORBIT = ("[system]\ncoords = x, y\nx_plus = 1, sqrt(1 - x)\nx_minus = 1, 1\n"
              "[run]\nx0 = 0, 1\nt_span = 0, 2\n")
# (label, the exit code it is built to reach, command and flags, config):
# for each command one job that fails in the computation (exit 1) and one
# that is refused as configured (exit 2)
ERROR_JOBS = [
    ("classify-trace-pole", 1, ["classify"], TRACE_POLE),
    # sin(inf) at x = -1 and 1: libm's domain error, a DomainError like sqrt(-1)'s
    ("classify-sin-of-infinity", 1, ["classify"],
     FOLD.replace("2*x", "2*x + sin(1e308*x*x*10)") + "[run]\ngrid = -1:1:5\n"),
    ("classify-bad-constant", 2, ["classify"], FOLD.replace("2*x", "1e999*x")),
    ("classify-coordinate-not-a-name", 2, ["classify"], FOLD.replace("x, y", "x, 2")),
    ("classify-coordinate-two-words", 2, ["classify"], FOLD.replace("x, y", "x, y z")),
    # a literal float() cannot read and an exponent int() cannot: trees whose
    # parser does not bound what it scans exit 2 on their ValueError
    ("classify-dot-exponent", 2, ["classify"], FOLD.replace("2*x", ".e1")),
    ("classify-exponent-5000-digits", 2, ["classify"], FOLD.replace("2*x", "x^" + "9" * 5000)),
    ("certify-trace-pole", 1, ["certify"], TRACE_POLE),
    ("certify-nan-psi", 2, ["certify"], FOLD + NAN_PSI),
    ("slow-fast-trace-pole", 1, ["slow-fast"], TRACE_POLE),
    ("slow-fast-not-planar", 2, ["slow-fast"],
     "[system]\ncoords = x1, x2, y\nx_plus = -x2, x1, -1\nx_minus = -x2, x1, 1\n"),
    ("manifold-no-sliding", 1, ["manifold"], FOLD.replace("2*x", "1")),
    ("manifold-nan-epsilon", 2, ["manifold"], FOLD + "[run]\nepsilons = nan\n"),
    # the orbit hits the surface where a_minus = x vanishes
    ("integrate-singular-hit", 1, ["integrate"], "[system]\ncoords = x, y\nx_plus = 1, -1\n"
     "x_minus = 1, x\n[run]\nx0 = -0.5, 0.5\nt_span = 0, 2\n"),
    ("integrate-no-x0", 2, ["integrate"], FOLD),
    ("integrate-regularized-sqrt", 1, ["integrate", "--mode", "regularized"], SQRT_ORBIT),
    ("integrate-regularized-zero-epsilon", 2, ["integrate", "--mode", "regularized",
                                               "--epsilon", "0"], SQRT_ORBIT),
    # psi is undefined for |t| > 1, where it is never evaluated: the field fails first
    ("integrate-regularized-psi-undefined-outside-band", 1,
     ["integrate", "--mode", "regularized", "--epsilon", "0.1"],
     SQRT_ORBIT + "[transition]\nkind = custom\n"
     "expr = (3*t - t^3)/2 + 0.1*(1 - t^2)*sqrt(1 - t^2)\n"),
    ("cross-three-zeros", 1, ["cross"], CROSS.replace(
        "phi_kind = biased\nphi_t0 = 0.25", "phi_kind = custom\nphi_expr = (5*t^3 - 3*t)/2")),
    ("cross-no-section", 2, ["cross"], FOLD),
    ("all-trace-pole", 1, ["all"], TRACE_POLE),
    ("all-zero-divisor", 2, ["all"], FOLD.replace("2*x", "x/0")),
]


# ---------------------------------------------------------------------------
# running the jobs (in a subprocess per tree)

class _JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _JobTimeout


def emit(src: Path, out: Path, workload: str, seeds: list[int], rounds: list[int]) -> None:
    """Run every job with the library in src; artifacts land in
    out/<job>/, and each job's exit code and stderr in out/manifest.json."""
    sys.path[:0] = [str(src), str(BENCH)]
    import workloads
    from filippov.cli import run_command

    if workload == "errors":
        jobs = [(label, workloads.Job(label, argv[0], config, extra_argv=argv[1:]))
                for label, _, argv, config in ERROR_JOBS]
    else:
        jobs = [(f"{seed}-{round_no}-{index:02d}-{job.label}", job)
                for seed in seeds for round_no in rounds
                for index, job in enumerate(workloads.ROUNDS[workload](seed, round_no))]
    manifest = {}
    signal.signal(signal.SIGALRM, _on_alarm)
    for name, job in jobs:
        cfg = out / f"{name}.cfg"
        cfg.write_text(job.config)
        err = io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
        try:
            with contextlib.redirect_stderr(err):
                rc = run_command(job.argv(cfg, out / name))
        except _JobTimeout:
            rc = "timeout"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        cfg.unlink()
        manifest[name] = {"exit": rc, "stderr": err.getvalue()}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))


def run_side(src: Path, out: Path, args: argparse.Namespace) -> dict:
    out.mkdir(parents=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--emit", str(src), str(out),
           "--workload", args.workload, "--rounds", *map(str, args.rounds)]
    if args.seeds:
        cmd += ["--seeds", *map(str, args.seeds)]
    # no bytecode is written into either tree
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(cmd, check=True, env=env, cwd=out)
    return json.loads((out / "manifest.json").read_text())


# ---------------------------------------------------------------------------
# comparing

class Tally:
    """Per field: numbers compared and changed, the largest |change|, and
    flags for differences that are not numbers."""

    def __init__(self) -> None:
        self.compared: dict[str, int] = defaultdict(int)
        self.changed: dict[str, int] = defaultdict(int)
        self.largest: dict[str, float] = defaultdict(float)
        self.flags: dict[str, int] = defaultdict(int)

    def number(self, field: str, a: float, b: float) -> None:
        self.compared[field] += 1
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        self.changed[field] += 1
        self.largest[field] = max(self.largest[field], abs(b - a))

    def flag(self, what: str) -> None:
        self.flags[what] += 1


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_json(a, b, field: str, tally: Tally) -> None:
    if _is_number(a) and _is_number(b):
        tally.number(field, float(a), float(b))
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            tally.flag(f"{field}: keys {sorted(a)} -> {sorted(b)}")
        for key in a.keys() & b.keys():
            compare_json(a[key], b[key], field + key if field.endswith(":") else f"{field}.{key}",
                         tally)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            tally.flag(f"{field}: list length")
        for x, y in zip(a, b):
            compare_json(x, y, f"{field}[]", tally)
    elif type(a) is not type(b):
        tally.flag(f"{field}: type {type(a).__name__} -> {type(b).__name__}")
    elif a != b:
        tally.flag(f"{field}: string" if isinstance(a, str) else f"{field}: value")


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def compare_csv(a: str, b: str, name: str, tally: Tally) -> None:
    rows_a, rows_b = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    head_a, head_b = rows_a[0] if rows_a else [], rows_b[0] if rows_b else []
    if head_a != head_b:
        tally.flag(f"{name}: header")
    if len(rows_a) != len(rows_b):
        tally.flag(f"{name}: row count")
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        if len(row_a) != len(row_b):
            tally.flag(f"{name}: row length")
        for k, (x, y) in enumerate(zip(row_a, row_b)):
            column = f"{name}:{head_a[k] if k < len(head_a) else k}"
            fx, fy = _float(x), _float(y)
            if fx is not None and fy is not None:
                tally.number(column, fx, fy)
            elif x != y:
                tally.flag(f"{column}: string")


def _artifacts(directory: Path) -> set[str]:
    return {p.name for p in directory.iterdir()} if directory.is_dir() else set()


def compare(old: Path, new: Path, old_jobs: dict, new_jobs: dict) -> tuple[int, list[str], Tally]:
    """The identical artifact count, the differing artifacts, and the tally
    over them; old_jobs and new_jobs are the two manifests."""
    tally, differing, identical = Tally(), [], 0
    for job in sorted(old_jobs.keys() | new_jobs.keys()):
        a, b = old_jobs.get(job, {}), new_jobs.get(job, {})
        for key, what in (("exit", "exit code"), ("stderr", "stderr")):
            if a.get(key) != b.get(key):
                tally.flag(f"{what} of {job}: {a.get(key)!r} -> {b.get(key)!r}")
        names_a, names_b = _artifacts(old / job), _artifacts(new / job)
        for name in sorted(names_a ^ names_b):
            tally.flag(f"{job}/{name}: only in {'old' if name in names_a else 'new'}")
        for name in sorted(names_a & names_b):
            a, b = (old / job / name).read_bytes(), (new / job / name).read_bytes()
            if a == b:
                identical += 1
                continue
            differing.append(f"{job}/{name}")
            if name.endswith(".json"):
                compare_json(json.loads(a), json.loads(b), f"{name}:", tally)
            elif name.endswith(".csv"):
                compare_csv(a.decode(), b.decode(), name, tally)
            else:
                tally.flag(f"{job}/{name}: bytes")
    return identical, differing, tally


def report(identical: int, differing: list[str], tally: Tally, old_jobs: dict,
           new_jobs: dict) -> str:
    jobs = old_jobs.keys() | new_jobs.keys()
    alike = sum(old_jobs.get(job) == new_jobs.get(job) for job in jobs)
    lines = [f"identical: {identical} of {identical + len(differing)} artifacts",
             f"jobs: {len(jobs)}, exit code and stderr identical in {alike}"]
    lines += [f"differs: {name}" for name in differing]
    if tally.changed:
        width = max(map(len, tally.changed))
        lines.append(f"{'field':<{width}}  {'changed':>7} of {'numbers':<7}  largest |change|")
        for field in sorted(tally.changed):
            lines.append(f"{field:<{width}}  {tally.changed[field]:>7} of "
                         f"{tally.compared[field]:<7}  {tally.largest[field]:.3g}")
    lines += [f"flag: {what} (x{count})" for what, count in sorted(tally.flags.items())]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="the src directory of the old tree")
    parser.add_argument("new", type=Path, help="the src directory of the new tree")
    parser.add_argument("--workload", required=True,
                        choices=("grid_sweep", "orbit_sweep", "errors"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[])
    parser.add_argument("--rounds", type=int, nargs="+", default=[0])
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seeds and args.workload != "errors":
        parser.error(f"--seeds is required for --workload {args.workload}")
    if args.emit:  # the subprocess for one tree: old is its src, new its output
        emit(args.old.resolve(), args.new.resolve(), args.workload, args.seeds, args.rounds)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        old_jobs = run_side(args.old.resolve(), work / "old", args)
        new_jobs = run_side(args.new.resolve(), work / "new", args)
        identical, differing, tally = compare(work / "old", work / "new", old_jobs, new_jobs)
    print(report(identical, differing, tally, old_jobs, new_jobs))
    return 0 if not differing and not tally.flags else 1


if __name__ == "__main__":
    sys.exit(main())
