"""The README's library quick start runs and shows what its comments say."""

import ast
import re
from pathlib import Path

import numpy as np

from filippov import SigmaClass, Verdict

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
