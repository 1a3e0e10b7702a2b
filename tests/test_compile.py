"""expr.compile against the tree walker it replaces on the hot paths.

The compiled function must return evaluate's floats bit for bit, raise
what evaluate raises, read its values from the right slots whatever the
coordinates are called, and share one code object per tree shape.
"""

import builtins
import math
import struct
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import filippov.expr as ex
from filippov.dynamics import integrate, integrate_filippov
from filippov.expr import FUNCTIONS, Const, DomainError, Op, Var, parse
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
        st.builds(lambda op, a: Op(op, (a,)), st.sampled_from(("neg",) + FUNCTIONS), sub),
        st.builds(lambda op, a, b: Op(op, (a, b)), st.sampled_from(("+", "-", "*", "/")), sub, sub),
        st.builds(lambda a, n: Op("^", (a, Const(n))), sub, st.integers(-3, 4)),
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


def enclosure(trees, names):
    """Emitter.enclose's function of the bounds a0, b0, a1, b1, ... of names,
    returning the bounds of each tree, flat."""
    emitter = ex.Emitter(names)
    slots = {name: (f"a{i}", f"b{i}") for i, name in enumerate(names)}
    bounds = emitter.enclose(trees, slots)
    params = [code for pair in slots.values() for code in pair]
    return emitter.function(params, [*emitter.body, f"return ({', '.join(sum(bounds, ()))},)"])


ENDS = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e200, -1e200]))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(trees=st.lists(TREES, min_size=1, max_size=2), data=st.data())
def test_an_enclosure_holds_every_value_its_box_gives(trees, data):
    # every value evaluate computes at a point of the box, and so every
    # value of a node, lies within the node's enclosure, by induction over
    # the operations, and so does the exact value where it is rational; the
    # enclosure itself never raises
    box = [sorted(data.draw(st.tuples(ENDS, ENDS))) for _ in NAMES]
    bounds = enclosure(trees, NAMES)(*[end for lo_hi in box for end in lo_hi])
    for _ in range(4):
        point = [data.draw(st.floats(lo, hi) if lo < hi else st.just(lo)) for lo, hi in box]
        for k, tree in enumerate(trees):
            try:
                value = ex.evaluate(tree, dict(zip(NAMES, point)))
            except (DomainError, ValueError):
                continue
            if not math.isnan(value):
                assert bounds[2 * k] <= value <= bounds[2 * k + 1], (str(tree), box, point)
            real = exact(tree, dict(zip(NAMES, map(Fraction, point))))
            if real is not None and math.isfinite(bounds[2 * k]) and math.isfinite(bounds[2 * k + 1]):
                assert Fraction(bounds[2 * k]) <= real <= Fraction(bounds[2 * k + 1]), str(tree)


# the operations exact() computes, None where one is undefined
RATIONAL = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b else None, "^": lambda a, n: None if a == 0 and n < 0 else a ** n,
    "neg": lambda a: -a, "abs": abs, "sgn": lambda a: Fraction((a > 0) - (a < 0)),
}


def exact(e, point):
    """The value of a tree of + - * /, powers, neg, abs and sgn in rational
    arithmetic, or None where it is undefined or uses another function."""
    if isinstance(e, Const):
        return Fraction(e.value)
    if isinstance(e, Var):
        return point[e.name]
    values = [exact(a, point) for a in e.args]
    if None in values or e.op not in RATIONAL:
        return None
    return RATIONAL[e.op](*values)


@pytest.mark.parametrize("text, box, want", [
    ("1/x", (-1.0, 2.0), (-math.inf, math.inf)),  # a divisor that holds 0
    ("sqrt(x)", (-1e-300, 4.0), (-math.inf, math.inf)),  # an argument below 0
    ("exp(x)", (0.0, 1000.0), (1.0, math.inf)),  # an overflow
    ("x^3", (-1e200, 0.0), (-math.inf, 0.0)),
    ("sin(x)", (-1.0, math.inf), (-1.0, 1.0)),
    ("3*x^2 - 3*x^2", (0.0, 0.0), (0.0, 0.0)),  # exact zeros stay
    ("x*x", (-2.0, 3.0), (-6.0, 9.0)),  # the same variable, bounded twice
])
def test_enclosures_of_edge_cases(text, box, want):
    lo, hi = enclosure([parse(text)], ["x"])(*box)
    assert lo <= want[0] and hi >= want[1]
    assert lo == pytest.approx(want[0], rel=1e-12) and hi == pytest.approx(want[1], rel=1e-12)


def test_an_enclosure_of_a_known_shape_compiles_nothing(monkeypatch):
    compiled = []
    real = builtins.compile
    monkeypatch.setattr(builtins, "compile", lambda *a, **k: compiled.append(a) or real(*a, **k))
    shape = "tanh({}*(1 + 0.5*x^2)*t)/tanh({}*(1 + 0.5*x^2))"
    Custom(shape.format(1.25, 1.25), ("x",)).level_set(0.5, (0.3,))
    calls = len(compiled)
    tf = Custom(shape.format(2.5, 2.5), ("x",))
    zeros, cells = tf.level_set(0.5, (0.3,))
    assert zeros == pytest.approx([math.atanh(0.5 * math.tanh(2.6125)) / 2.6125]) and cells == []
    assert len(compiled) == calls


@pytest.mark.parametrize("op", ("neg",) + FUNCTIONS)
def test_compile_agrees_on_special_values(op):
    trees = [Op(op, (Var("x"),)), Op("^", (Op(op, (Var("x"),)), Const(-1)))]
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
    ("sin(x)", math.inf, DomainError),
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
