"""tools/ab.py: one pair on one grid_sweep round, a revision's export, and
the table's arithmetic."""

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
