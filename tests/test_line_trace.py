"""tools/line_trace.py: the statements it reports on one small test file."""

import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import line_trace  # noqa: E402


def _line_of(module: str, text: str) -> int:
    lines = (ROOT / "src" / "filippov" / module).read_text().splitlines()
    return [k for k, line in enumerate(lines, 1) if line.strip() == text][0]


def test_statements_leave_out_docstrings_and_type_checking_imports():
    source = ('"""Module."""\nif TYPE_CHECKING:\n    import numpy\n\n\n'
              '@dec\ndef f(a,\n      b):\n    """Doc."""\n    return (a +\n            b)\n')
    assert line_trace.statements(source, "m.py") == [(2, 2), (6, 8), (10, 11)]


def test_a_small_test_file_reports_what_it_did_not_run(tmp_path):
    test = tmp_path / "test_small.py"
    test.write_text("from filippov import interval\n\n\n"
                    "def test_sign():\n    assert interval.sign(2.0) == 1.0\n")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "line_trace.py"), "-q",
                           "-p", "no:cacheprovider", str(test)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 5.0
    assert done.returncode == 0, done.stderr
    report = done.stdout.splitlines()
    header = next(line for line in report if line.startswith("src/filippov/interval.py: "))
    missed = []
    for line in report[report.index(header) + 1:]:  # "  line: source", up to the next module
        if not line.startswith("  "):
            break
        missed.append(int(line.split(":")[0]))
    ran = _line_of("interval.py", "return 1.0 if v > 0.0 else -1.0 if v < 0.0 else 0.0")
    assert ran not in missed  # sign's body
    assert _line_of("interval.py", "return sign(al), sign(ah)") in missed  # sgn's
    assert report[-1].endswith("statements of src/filippov/ not run")


def test_a_grid_sweep_round_reports_what_its_jobs_did_not_run():
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "line_trace.py"),
                           "--workload", "grid_sweep", "--seeds", "7", "--rounds", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 10.0
    assert done.returncode == 0, done.stderr  # every job exited 0
    report = done.stdout.splitlines()
    # the grid commands certify points, and no job integrates a hybrid orbit
    certify = _line_of("regularize.py", "found = height_roots(system, transition, x)")
    assert f"  {certify}: found = height_roots(system, transition, x)" not in report
    hybrid = _line_of("dynamics.py", "orbit = Trajectory(system.dim)")
    assert f"  {hybrid}: orbit = Trajectory(system.dim)" in report
    assert report[-1].endswith("statements of src/filippov/ not run")


def test_the_golden_cases_run_the_combined_command():
    # no bench job runs `all`; the GOLDEN cases of tests/test_golden.py do
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "line_trace.py"),
                           "--workload", "golden"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 10.0
    assert done.returncode == 0, done.stderr  # every case exited 0
    report = done.stdout.splitlines()
    for text in ("certified = _certify_grid(cfg)", "_write_certificates(cfg, out, certified)",
                 "_cmd_cross(cfg, out)"):
        assert f"  {_line_of('cli.py', text)}: {text}" not in report
    assert report[-1].endswith("statements of src/filippov/ not run")
