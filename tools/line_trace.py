"""Run pytest, or the benchmark's jobs, under a line tracer and list the
library statements that did not run.

Usage, from the root of a checkout (the arguments go to pytest as they are):

    python3 tools/line_trace.py -q tests/
    python3 tools/line_trace.py -q tests/test_expr.py -k parse

or, for the jobs of one or more of tools/artifact_diff.py's workloads,
run in this process through filippov.cli.run_command as that tool runs
them (their artifacts go to a temporary directory): the jobs
bench/workloads.py generates for each seed and round of grid_sweep and
orbit_sweep, the GOLDEN cases of tests/test_golden.py (golden) and the
ERROR_JOBS (errors), which take no seeds or rounds:

    python3 tools/line_trace.py --workload grid_sweep orbit_sweep golden errors \
        --seeds 7 8 --rounds 0 1 2 3

While pytest or the jobs run, sys.settrace records every line executed in
the files of src/filippov/ (the tree next to this script, put first on the
path).
The report then lists, per module, each statement that compiles to code
and none of whose lines ran: a compound statement (if, for, def, ...) by
its header, a simple one by all of its lines.  Docstrings and the body of
``if TYPE_CHECKING:`` are left out, as they are never meant to run.  Only
code run in this process and its main thread is seen: a subprocess a test
starts is not traced.  Nor is the code the library generates as it runs,
such as the RODAS4 attempt of dynamics._rodas_code with its pivoting LU,
whose row exchanges the pivot_* cases of tests/test_golden.py pin.

The exit status is pytest's; with --workload, 1 if a job exited with
another code than it is built to (0, or the one ERROR_JOBS gives it),
else 0.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import tempfile
import types
from pathlib import Path
from typing import Callable, TypeVar

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "filippov"
T = TypeVar("T")


def statements(source: str, filename: str) -> list[tuple[int, int]]:
    """The (first, last) lines of each statement of a module that compiles
    to code, in line order: a compound statement's header, from its first
    decorator to the line before its body, or a simple statement whole."""
    tree = ast.parse(source, filename)
    coded, codes = set(), [compile(tree, filename, "exec", dont_inherit=True)]
    while codes:
        code = codes.pop()
        coded.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    skipped = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            skipped.add(id(body[0]))
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            skipped.update(id(n) for stmt in node.body for n in ast.walk(stmt))
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in skipped:
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        if any(line in coded for line in range(first, last + 1)):
            spans.append((first, last))
    return sorted(spans)


def traced(call: Callable[[], T], enter_for: Callable[[str], Callable | None]) -> T:
    """What ``call()`` returns, run under sys.settrace.  enter_for(filename),
    asked once per code filename, gives None to leave that file's frames
    untraced, or a function called with each of its frames as the frame is
    entered, which returns the frame's local trace function."""
    enters = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in enters:
            enters[name] = enter_for(name)
        enter = enters[name]
        return None if enter is None else enter(frame)

    sys.settrace(on_call)
    try:
        return call()
    finally:
        sys.settrace(None)


def lines_ran(call: Callable[[], int]) -> tuple[int, dict[Path, set[int]]]:
    """What ``call()`` returns, and the lines of each module of the package
    that ran meanwhile."""
    ran = {path: set() for path in sorted(PACKAGE.glob("*.py"))}
    by_name = {os.path.realpath(path): lines for path, lines in ran.items()}

    def enter_for(name):
        lines = by_name.get(os.path.realpath(name))
        if lines is None:
            return None

        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace
        return lambda frame: trace

    sys.path.insert(0, str(PACKAGE.parent))
    return traced(call, enter_for), ran


def run(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit status on ``args``, and the lines that ran (see lines_ran)."""
    import pytest

    return lines_ran(lambda: int(pytest.main(args)))


def run_workloads(names: list[str], seeds: list[int], rounds: list[int]
                  ) -> tuple[int, dict[Path, set[int]]]:
    """1 if one of the workloads' jobs exited with another code than it is
    built to, else 0, and the lines that ran (see lines_ran)."""
    import artifact_diff

    expected = {label: code for label, code, _, _ in artifact_diff.ERROR_JOBS}

    def jobs() -> int:
        failed = False
        for name in names:
            with tempfile.TemporaryDirectory() as tmp:
                artifact_diff.emit(PACKAGE.parent, Path(tmp), name, seeds, rounds)
                manifest = json.loads((Path(tmp) / "manifest.json").read_text())
            failed |= any(job["exit"] != (expected[label] if name == "errors" else 0)
                          for label, job in manifest.items())
        return int(failed)

    return lines_ran(jobs)


def report(ran: dict[Path, set[int]]) -> list[str]:
    """Per module, a count of its statements that did not run, then each as
    'line: its first source line'."""
    out, missed_total, total = [], 0, 0
    for path, lines in ran.items():
        source = path.read_text()
        text = source.splitlines()
        spans = statements(source, str(path))
        missed = [first for first, last in spans
                  if not any(line in lines for line in range(first, last + 1))]
        out.append(f"{path.relative_to(ROOT)}: {len(missed)} of {len(spans)} statements not run")
        out += [f"  {first}: {text[first - 1].strip()}" for first in missed]
        missed_total, total = missed_total + len(missed), total + len(spans)
    out.append(f"{missed_total} of {total} statements of {PACKAGE.relative_to(ROOT)}/ not run")
    return out


def main() -> int:
    argv = sys.argv[1:]
    if argv[:1] == ["--workload"]:
        import artifact_diff

        parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
        parser.add_argument("--workload", nargs="+", required=True,
                            choices=artifact_diff.WORKLOADS)
        parser.add_argument("--seeds", type=int, nargs="+", default=[])
        parser.add_argument("--rounds", type=int, nargs="+", default=[0])
        args = parser.parse_args(argv)
        seeded = [name for name in args.workload if name in ("grid_sweep", "orbit_sweep")]
        if seeded and not args.seeds:
            parser.error(f"--seeds is required for --workload {seeded[0]}")
        status, ran = run_workloads(args.workload, args.seeds, args.rounds)
    else:
        status, ran = run(argv)
    print("\n".join(report(ran)))
    return status


if __name__ == "__main__":
    sys.exit(main())
