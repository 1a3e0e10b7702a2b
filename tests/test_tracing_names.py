"""Every name the benchmark's tracer wraps must exist where it looks.

bench/tracing.py replaces functions at the names callers look them up
under; a name that moves or disappears would leave a layer silently
untraced.  This only imports the tracer, it installs nothing.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
TARGETS = [entry[:2] for entry in tracing.SPANNED + tracing.INTEGRATE + tracing.COUNTED]


@pytest.mark.parametrize(
    "owner, attr", TARGETS, ids=[f"{o.__name__}.{a}" for o, a in TARGETS]
)
def test_traced_name_is_defined_on_its_owner(owner, attr):
    assert attr in owner.__dict__
