"""expr.compile against the tree walker it replaces on the hot paths.

The compiled function must return evaluate's floats bit for bit, raise
what evaluate raises, read its values from the right slots whatever the
coordinates are called, and share one code object per tree shape.
"""

import builtins
import math
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import filippov.expr as ex
from filippov.dynamics import integrate, integrate_filippov
from filippov.expr import FUNCTIONS, Binary, Const, DomainError, Pow, Unary, Var, parse
from filippov.regularize import Custom, certify, regularized_field, regularized_jacobian
from filippov.system import system_from_strings

# names a generated function uses for its own slots and helpers
NAMES = ("x", "y", "v0", "v1", "c0", "walk", "f_sin")

LEAVES = st.one_of(
    st.sampled_from(NAMES).map(Var),
    st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, 1.0, 1000.0])).map(Const),
)
TREES = st.recursive(
    LEAVES,
    lambda sub: st.one_of(
        st.builds(Unary, st.sampled_from(("neg",) + FUNCTIONS), sub),
        st.builds(Binary, st.sampled_from(("+", "-", "*", "/")), sub, sub),
        st.builds(Pow, sub, st.integers(-3, 4)),
    ),
    max_leaves=12,
)
SPECIAL = (0.0, -0.0, 1.0, -3.0, 1e200, math.inf, -math.inf, math.nan)
# numpy scalars too: evaluate takes float() of every value it reads
VALUES = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(SPECIAL)).flatmap(
    lambda v: st.sampled_from([v, np.float64(v)]))


def outcome(run):
    """The type and bits of each value run() returns, or the type and text of what it raises."""
    try:
        return "returned", tuple((type(v), struct.pack("<d", v)) for v in run())
    except Exception as exc:
        return "raised", type(exc), str(exc)


def walked(trees, names, values):
    bindings = dict(zip(names, values))
    return tuple(ex.evaluate(e, bindings) for e in trees)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(trees=st.lists(TREES, min_size=1, max_size=3), names=st.permutations(NAMES),
       data=st.data())
def test_compile_agrees_with_evaluate(trees, names, data):
    values = data.draw(st.tuples(*[VALUES] * len(names)))
    fn = ex.compile(trees, names)
    assert outcome(lambda: fn(*values)) == outcome(lambda: walked(trees, names, values))


@pytest.mark.parametrize("op", ("neg",) + FUNCTIONS)
def test_compile_agrees_on_special_values(op):
    trees = [Unary(op, Var("x")), Pow(Unary(op, Var("x")), -1)]
    for value in SPECIAL:
        fn = ex.compile(trees, ["x"])
        assert outcome(lambda: fn(value)) == outcome(lambda: walked(trees, ["x"], [value]))


@pytest.mark.parametrize("text, value, error", [
    ("1/x", 0.0, DomainError),
    ("1/(x - x)", 2.0, DomainError),
    ("x^-2", 0.0, DomainError),
    ("sqrt(x)", -1.0, DomainError),
    ("exp(x)", 1000.0, DomainError),
    ("x^3", 1e200, DomainError),
    ("sin(x)", math.inf, ValueError),  # a bare ValueError escapes the tree walk too
])
def test_compile_raises_what_evaluate_raises(text, value, error):
    tree = parse(f"2 + {text}")
    with pytest.raises(error) as walk_error:
        ex.evaluate(tree, {"x": value})
    with pytest.raises(error) as compiled_error:
        ex.compile([tree], ["x"])(value)
    assert type(compiled_error.value) is type(walk_error.value)
    assert str(compiled_error.value) == str(walk_error.value)


@pytest.mark.parametrize("first, second", [("sqrt(x - 1)", "1/x"), ("1/x", "sqrt(x - 1)")])
def test_a_generated_function_raises_the_error_of_the_first_emitted_tree(first, second):
    # both trees fail at x = 0, each with its own message; the fallback
    # walks them in the order they were emitted, one emit() call each
    emitter = ex.Emitter(["x"])
    (a,), (b,) = emitter.emit([parse(first)]), emitter.emit([parse(second)])
    fn = emitter.function(emitter.params, [*emitter.body, f"return ({a}, {b})"])
    with pytest.raises(DomainError) as walk_error:
        ex.evaluate(parse(first), {"x": 0.0})
    with pytest.raises(DomainError) as compiled_error:
        fn(0.0)
    assert str(compiled_error.value) == str(walk_error.value)
    assert fn(2.0) == walked([parse(first), parse(second)], ["x"], [2.0])


def test_coordinates_named_like_generated_slots():
    names = ("v1", "v0", "c0", "walk", "f_sin")
    trees = [parse("v1 - 2*v0"), parse("c0/walk + f_sin^2"), parse("sin(f_sin)*v0")]
    values = (1.0, 2.0, 3.0, 5.0, 7.0)
    got = ex.compile(trees, names)(*values)
    assert got == walked(trees, names, values) == (-3.0, 3.0 / 5.0 + 49.0, math.sin(7.0) * 2.0)


def test_a_shared_subtree_is_computed_once(monkeypatch):
    # differentiation and substitution reuse subtree objects; an equal tree
    # that is a separate object is computed again
    calls = []
    monkeypatch.setitem(ex._NAMESPACE, "f_sqrt", lambda v: calls.append(v) or math.sqrt(v))
    s = parse("sqrt(x) + 1")
    fn = ex.compile([ex.mul(s, s), parse("sqrt(x) + 1")], ["x"])
    assert fn(4.0) == (9.0, 3.0)
    assert calls == [4.0, 4.0]


def test_extra_positional_argument_overwrites_no_constant():
    fn = ex.compile([parse("3*x")], ["x"])
    assert fn(2.0) == (6.0,)
    with pytest.raises(TypeError):
        fn(2.0, 100.0)


def test_unbound_variable_is_reported_when_compiling():
    with pytest.raises(ex.UnboundVariableError):
        ex.compile([parse("x + q")], ["x"])


def test_generated_code_holds_no_config_text():
    a = ex.compile([parse("gamma*sin(omega) + 2.718^3")], ["omega", "gamma"])
    b = ex.compile([parse("beta*sin(kappa) + 4.5^7")], ["kappa", "beta"])
    code = a.__code__
    assert b.__code__ is code  # same shape, one code object
    text = code.co_varnames + code.co_names
    assert not {"gamma", "omega", "beta", "kappa"} & set(text)
    assert not [c for c in code.co_consts if isinstance(c, (int, float)) and c not in (0, 1)]
    assert a(0.5, 2.0) == (2.0 * math.sin(0.5) + 2.718 ** 3,)


def test_same_shape_with_other_constants_reuses_the_code_object(monkeypatch):
    compiled = []
    real = builtins.compile
    monkeypatch.setattr(builtins, "compile", lambda *a, **k: compiled.append(a) or real(*a, **k))
    shape = "{}*tanh(z/{}) - z^3 + exp(-{}*z)"
    first = ex.compile([parse(shape.format(1.25, 7.5, 0.5))], ["z"])
    before, calls = ex._code.cache_info(), len(compiled)
    second = ex.compile([parse(shape.format(3.0, 0.25, 2.0))], ["z"])
    assert ex._code.cache_info().hits == before.hits + 1
    assert len(compiled) == calls  # Python's compiler is not called again
    assert second.__code__ is first.__code__
    assert second(0.3) == (3.0 * math.tanh(0.3 / 0.25) - 0.3 ** 3 + math.exp(-2.0 * 0.3),)


def test_hot_paths_walk_no_trees(monkeypatch):
    walks = []
    real = ex.evaluate
    monkeypatch.setattr(ex, "evaluate", lambda e, b: walks.append(e) or real(e, b))

    fold = system_from_strings(("x", "y"), ("1", "2*x"), ("1", "2"))
    psi = Custom("(3*t - t^3)/2 + x*(1 - t^2)^2/4", ("x",))  # depends on x
    for x in np.linspace(-0.9, 0.3, 7):
        certify(fold, psi, float(x))
    eps = 1e-3
    integrate(lambda t, p: regularized_field(fold, psi, eps, p), (-0.5, 0.2), (0.0, 1.0),
              jac=lambda t, p: regularized_jacobian(fold, psi, eps, p))
    integrate_filippov(fold, (-1.0, 0.5), (0.0, 1.5))
    assert walks == []

    # the error path does walk the tree, so the counter does see walks
    with pytest.raises(DomainError):
        ex.compile([parse("1/x")], ["x"])(0.0)
    assert walks
