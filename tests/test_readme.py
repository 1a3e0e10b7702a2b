"""The README's library quick start runs and shows what its comments say."""

import ast
import re
from pathlib import Path

import numpy as np

from filippov import SigmaClass, Verdict
from filippov.cli import run_command
from filippov.config import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def run(source: str) -> tuple[list, dict]:
    """Execute source statement by statement; the values of its bare
    expression statements in order, and the names it binds."""
    names: dict = {}
    values = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), names))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), names)
    return values, names


def test_library_quick_start_shows_what_it_says():
    values, names = run(quick_start())
    sliding, smooth, overshoot, end_state, kinds, manifold_points = values
    assert sliding is SigmaClass.SLIDING
    assert smooth.verdict is Verdict.SLIDING_CERTIFIED and smooth.roots
    assert overshoot.verdict is Verdict.SLIDING_CERTIFIED
    assert np.allclose(end_state, [2.0, 0.0])
    assert kinds == ["SigmaHit", "SlideEntry"]
    wide, narrow = names["wide"], names["narrow"]
    assert (wide.eps, narrow.eps) == (0.1, 0.05)
    assert manifold_points == [(p.x, p.y) for p in narrow.points] != []
    assert all(p.y == narrow.eps * p.t for p in narrow.points)


def config_example() -> str:
    section = README.read_text().split("### Config format", 1)[1]
    return re.search(r"```ini\n(.*?)```", section, re.S).group(1)


def test_config_example_runs_every_command_it_supports(tmp_path):
    # its values carry trailing '#' comments, which used to be read as
    # part of the value
    path = tmp_path / "example.cfg"
    path.write_text(config_example())
    cfg = load_config(path)
    assert cfg.system.coords == ("x", "y") and cfg.run.mode == "filippov"
    assert cfg.run.grid == (-1.0, 1.0, 201) and cfg.run.x0 == (0.0, 1.0)
    out = tmp_path / "out"
    assert run_command(["all", "--config", str(path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "certificates.json", "classification.json", "manifold.json", "slowfast.csv",
        "trajectory.csv"]
