"""tools/artifact_diff.py: the field tally and an end-to-end run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import artifact_diff  # noqa: E402
from filippov.cli import COMMANDS  # noqa: E402
from test_golden import GOLDEN  # noqa: E402


def test_json_numbers_are_tallied_per_key_and_the_rest_is_flagged():
    tally = artifact_diff.Tally()
    old = {"grid": [{"x": 1.0, "verdict": "Sliding", "roots": [{"t": 0.5}]},
                    {"x": 2.0, "verdict": "Sewing", "roots": []}]}
    new = {"grid": [{"x": 1.0, "verdict": "Sliding", "roots": [{"t": 0.5 + 1e-15}]},
                    {"x": 2.0, "verdict": "Sliding", "roots": [{"t": 0.1}]}]}
    artifact_diff.compare_json(old, new, "a.json:", tally)
    assert dict(tally.changed) == {"a.json:grid[].roots[].t": 1}
    assert tally.compared["a.json:grid[].x"] == 2
    assert tally.largest["a.json:grid[].roots[].t"] == (0.5 + 1e-15) - 0.5
    assert set(tally.flags) == {"a.json:grid[].verdict: string", "a.json:grid[].roots: list length"}


def test_csv_columns_are_tallied_and_row_counts_flagged():
    tally = artifact_diff.Tally()
    artifact_diff.compare_csv("x,theta,chart\n0,1.5,E\n1,2.5,E\n", "x,theta,chart\n0,1.25,E\n",
                              "s.csv", tally)
    assert dict(tally.changed) == {"s.csv:theta": 1}
    assert tally.largest["s.csv:theta"] == 0.25
    assert set(tally.flags) == {"s.csv: row count"}


def test_exit_codes_and_stderr_are_compared_per_job(tmp_path):
    # same exit code and artifacts, another error message: the job is flagged
    for side in ("old", "new"):
        (tmp_path / side / "job").mkdir(parents=True)
        (tmp_path / side / "job" / "a.json").write_text("{}")
    old = {"job": {"exit": 1, "stderr": "computation failed: division by zero\n"},
           "same": {"exit": 0, "stderr": ""}}
    new = {"job": {"exit": 1, "stderr": "computation failed: sqrt of negative value -1.0\n"},
           "same": {"exit": 0, "stderr": ""}}
    identical, differing, tally = artifact_diff.compare(tmp_path / "old", tmp_path / "new",
                                                        old, new)
    assert (identical, differing) == (1, [])
    assert list(tally.flags) == ["stderr of job: 'computation failed: division by zero\\n' -> "
                                 "'computation failed: sqrt of negative value -1.0\\n'"]
    new["job"]["exit"] = 2
    tally = artifact_diff.compare(tmp_path / "old", tmp_path / "new", old, new)[2]
    assert sorted(tally.flags)[0] == "exit code of job: 1 -> 2"
    assert len(tally.flags) == 2


def test_a_tree_against_itself_is_identical():
    # one grid_sweep round: 17 jobs, one artifact each, every exit code alike
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_diff.py"), src, src,
         "--workload", "grid_sweep", "--seeds", "3"],
        capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout == ("identical: 17 of 17 artifacts\n"
                          "jobs: 17, exit code and stderr identical in 17\n")


def test_the_error_jobs_fail_as_built_and_compare_identical(tmp_path):
    # every command has a job that exits 1 and one that exits 2, each with its
    # message on stderr; no bench job fails, so only these compare error paths
    assert {(argv[0], code) for _, code, argv, _ in artifact_diff.ERROR_JOBS} == {
        (name, code) for name in COMMANDS for code in (1, 2)}
    tool, src = str(ROOT / "tools" / "artifact_diff.py"), str(ROOT / "src")
    subprocess.run([sys.executable, tool, "--emit", src, str(tmp_path), "--workload", "errors"],
                   check=True, cwd=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for label, code, _, _ in artifact_diff.ERROR_JOBS:
        prefix = "computation failed: " if code == 1 else "error: "
        assert manifest[label]["exit"] == code and manifest[label]["stderr"].startswith(prefix)
    run = subprocess.run([sys.executable, tool, src, src, "--workload", "errors"],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    jobs = len(artifact_diff.ERROR_JOBS)
    assert run.stdout == ("identical: 0 of 0 artifacts\n"
                          f"jobs: {jobs}, exit code and stderr identical in {jobs}\n")


def test_the_golden_cases_are_a_workload():
    # the configs tests/test_golden.py pins, one job per case, with its
    # command and flags; every digest it records is one artifact here
    cases = artifact_diff.golden_cases()
    assert sorted(cases) == sorted(GOLDEN)
    jobs, artifacts = len(cases), sum(map(len, GOLDEN.values()))
    assert cases["regularized"][1] == ["integrate", "--mode", "regularized", "--epsilon", "0.1",
                                       "--from=-1,1"]
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_diff.py"), src, src, "--workload", "golden"],
        capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout == (f"identical: {artifacts} of {artifacts} artifacts\n"
                          f"jobs: {jobs}, exit code and stderr identical in {jobs}\n")
