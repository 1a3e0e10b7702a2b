"""tools/ab.py: one pair on one grid_sweep round, a revision's export, the
table's arithmetic, and the count on one round."""

import argparse
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import ab  # noqa: E402


def test_one_pair_reports_every_metric():
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "src", "src",
                           "--workload", "grid_sweep", "--seeds", "3", "--pairs", "1",
                           "--best-of", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert time.perf_counter() - start < 20.0
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # the round's 17 jobs, as tools/artifact_diff.py runs them; none failed
    assert lines[0] == "grid_sweep, seeds [3], rounds [0]: 17 jobs, 1 pairs, best of 1"
    rows = [line.split(" | ") for line in lines[3:]]
    assert [row[0] for row in rows] == [f"| `{name}`" for name in ab.METRICS]
    assert all(row[-1] in ("0/1 |", "1/1 |") for row in rows)


def test_a_revision_is_exported_with_its_package(tmp_path):
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    src = ab.export("HEAD", tmp_path)
    assert (src / "filippov" / "cli.py").is_file() and not list(tmp_path.glob("*/tests"))


def test_the_table_reads_medians_iqr_and_wins():
    parent = [dict.fromkeys(ab.METRICS, v) for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [dict.fromkeys(ab.METRICS, v) for v in (2.0, 2.0, 2.0, 2.0, 2.0)]
    rows = ab.table(parent, change)[2:]
    # median 3 and quartiles 2 and 4; the change is lower in 3 of 5 pairs,
    # higher in 1, which is a win for jobs_per_s alone
    assert rows[0] == "| `setup_s` | 3000.00 ms (66.7%) | 2000.00 ms | -33.3% | 3/5 |"
    assert rows[1] == "| `jobs_per_s` | 3.0 (66.7%) | 2.0 | -33.3% | 1/5 |"


def _row(report: list[str], name: str) -> list[str]:
    """The cells of a --count report's row for name, past the name: the
    bytecodes of parent, change and their difference, then the calls."""
    line = next(line for line in report if line.startswith(f"| {name} |"))
    return [cell.strip() for cell in line.strip("|").split("|")][1:]


def test_the_count_repeats_and_sees_one_extra_call(tmp_path):
    # a copy of src whose one reader of a surface point makes one more call
    patched = tmp_path / "patched"
    shutil.copytree(ROOT / "src", patched, ignore=shutil.ignore_patterns("__pycache__"))
    system = patched / "filippov" / "system.py"
    read = "    xs = system.tangential(x)\n"
    assert read in system.read_text()
    system.write_text(system.read_text().replace(read, read + "    _margin(1.0, 1.0)\n"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "src", str(patched),
                           "--workload", "grid_sweep", "--seeds", "3", "--count"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = done.stdout.splitlines()
    assert report[0] == "grid_sweep, seeds [3], rounds [0]: 17 jobs, one traced pass per side"
    total = _row(report, "total")
    # the copy counts more bytecodes and calls, all of them in system.py
    assert total[2].startswith("+") and total[2] != "+0"
    assert total[5].startswith("+") and total[5] != "+0"
    system_py = _row(report, "`filippov/system.py`")
    assert (system_py[2], system_py[5]) == (total[2], total[5])
    # a third fresh process on src counts what the report's parent did
    args = argparse.Namespace(workload="grid_sweep", seeds=[3], rounds=[0], best_of=1, count=True)
    again = ab.run_side(ab.export(str(ROOT / "src"), tmp_path / "again"), args, tmp_path)
    same = _row(ab.count_tables(again, again), "total")
    assert (same[0], same[3]) == (total[0], total[3])
    assert time.perf_counter() - start < 30.0
