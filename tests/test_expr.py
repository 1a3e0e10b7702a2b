import math

import numpy as np
import pytest

import filippov.expr as ex
from filippov.expr import (
    MAX_DEPTH,
    Binary,
    Const,
    DomainError,
    ParseError,
    Pow,
    UnboundVariableError,
    Unary,
    Var,
    differentiate,
    evaluate,
    free_vars,
    parse,
    substitute,
    to_text,
)


def test_parse_precedence():
    assert parse("2*x+1") == Binary("+", Binary("*", Const(2.0), Var("x")), Const(1.0))
    # subtraction associates left
    assert parse("a-b-c") == Binary("-", Binary("-", Var("a"), Var("b")), Var("c"))
    # exponent binds before unary minus
    assert parse("-x^2") == Unary("neg", Pow(Var("x"), 2))
    assert parse("(-x)^2") == Pow(Unary("neg", Var("x")), 2)
    assert parse("2*x^3") == Binary("*", Const(2.0), Pow(Var("x"), 3))


def test_parse_numbers():
    assert parse("1.5") == Const(1.5)
    assert parse(".5") == Const(0.5)
    assert parse("1e3") == Const(1000.0)
    assert parse("1.25e-2") == Const(0.0125)
    assert evaluate(parse("2*eps"), {"eps": 0.5}) == 1.0


def test_parse_functions_and_folding():
    assert parse("sin(0)") == Const(0.0)
    assert parse("x^0") == Const(1.0)
    assert parse("x^1") == Var("x")
    assert parse("0*sin(x)") == Const(0.0)
    assert parse("1*x + 0") == Var("x")
    assert parse("sqrt(4)") == Const(2.0)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse("sin(x")
    assert err.value.offset == 6
    assert err.value.expected == "')'"
    assert err.value.found == "end of input"

    with pytest.raises(ParseError) as err:
        parse("2*")
    assert err.value.offset == 3

    with pytest.raises(ParseError) as err:
        parse("x^y")
    assert err.value.expected == "integer exponent"

    with pytest.raises(ParseError):
        parse("2eps")  # no implicit multiplication

    with pytest.raises(ParseError) as err:
        parse("foo(x)")
    assert "sin" in err.value.expected


@pytest.mark.parametrize("text, offset, expected, found", [
    ("2\u00b2", 2, "end of input", "'\u00b2'"),  # superscript two after a number
    ("x^\u00b2", 3, "integer exponent", "'\u00b2'"),
    ("\u0661+1", 1, "number, identifier or '('", "'\u0661'"),  # Arabic-Indic one
], ids=["superscript-after-number", "superscript-exponent", "arabic-indic-digit"])
def test_numbers_are_ascii_digits(text, offset, expected, found):
    # str.isdigit took these: the first escaped as a float() ValueError, the
    # second as an int() ValueError, and the third parsed as 2
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.offset, err.value.expected, err.value.found) == (offset, expected, found)


@pytest.mark.parametrize("text, offset", [(".e1", 1), ("2*.E+5", 3), ("(.e3)", 2)])
def test_a_literal_float_cannot_read_is_a_syntax_error(text, offset):
    # a '.' with no digit, before an exponent: float() refused the literal
    # and its ValueError escaped the parser
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.offset, err.value.expected, err.value.found) == (offset, "number", "'.'")


@pytest.mark.parametrize("text, offset, digits", [
    ("x^" + "9" * 5000, 3, 5000),  # int() refused it: a bare ValueError
    ("x^" + "9" * 400, 3, 400),  # parsed, and float() of it overflowed in differentiate
    ("2*x^ -1" + "0" * 15, 6, 16),
], ids=["5000-digits", "400-digits", "16-digits"])
def test_an_exponent_has_at_most_max_exponent_digits(text, offset, digits):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.offset, err.value.expected, err.value.found) == (
        offset, f"at most {ex.MAX_EXPONENT_DIGITS} exponent digits", str(digits))


def test_an_exponent_within_the_bound_is_exact():
    # leading zeros are not digits of the bound, however many int() would refuse
    largest = 10 ** ex.MAX_EXPONENT_DIGITS - 1
    assert parse(f"x^{largest}") == Pow(Var("x"), largest)
    assert parse("x^-" + "0" * 5000 + "3") == Pow(Var("x"), -3)
    assert differentiate(parse(f"x^{largest}"), "x") == Binary(
        "*", Const(float(largest)), Pow(Var("x"), largest - 1))


def test_the_scan_patterns_take_the_characters_the_grammar_names():
    # a name's characters are str.isalnum() or '_', and a number's digits
    # are ASCII; the offsets of every syntax error rest on both
    text = "".join(chr(cp) for cp in range(0x110000) if not 0xD800 <= cp <= 0xDFFF)
    named = {c for run in ex._NAME.findall(text) for c in run}
    assert named ^ {c for c in text if c.isalnum() or c == "_"} == set()
    for c in (c for c in text if c.isdigit() and not "0" <= c <= "9"):
        assert not ex._NUMBER.match(c) and not ex._EXPONENT.match(c), hex(ord(c))


@pytest.mark.parametrize("text, offset, expected, found", [
    ("1e999*x", 1, "a finite constant", "inf"),
    ("1e200*1e200*x", 6, "a finite constant", "inf"),
    ("0*1e999 + x", 3, "a finite constant", "inf"),
    ("exp(1000)*x", 1, "a defined constant", "overflow in exp(1000.0)"),
    ("sqrt(-1)*x", 1, "a defined constant", "sqrt of negative value -1.0"),
    ("x + 1e300/1e-300", 10, "a finite constant", "inf"),
    ("-(1e200)^2", 9, "a defined constant", "overflow in 1e+200^2"),
    ("1/0 + x", 2, "a nonzero divisor", "0.0"),
    ("x/0", 2, "a nonzero divisor", "0.0"),
    ("x/(1 - 1)", 2, "a nonzero divisor", "0.0"),
    ("x/(0*y)", 2, "a nonzero divisor", "0.0"),
    ("x/-0", 2, "a nonzero divisor", "-0.0"),
], ids=["literal", "product", "nan", "exp", "sqrt", "quotient", "power",
        "zero_quotient", "zero_divisor", "zero_difference", "zero_product", "negative_zero"])
def test_constants_that_are_not_finite_or_defined_are_syntax_errors(text, offset, expected, found):
    # the first three loaded as an inf or NaN constant, and the DomainError
    # of the next two escaped the parser
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.offset, err.value.expected, err.value.found) == (offset, expected, found)


def test_a_zero_divisor_built_by_substitution_stays_a_tree():
    # the normal trace of a field 1/y puts y = 0: the config loads, and the
    # division fails only when the trace is evaluated
    trace = substitute(parse("1/y"), {"y": 0.0})
    assert trace == Binary("/", Const(1.0), Const(0.0))
    with pytest.raises(DomainError, match="division by zero"):
        evaluate(trace, {})


@pytest.mark.parametrize("text, tree, error", [
    ("y^-1", Pow(Const(0.0), -1), "zero raised to negative power -1"),
    ("sqrt(y - 1)", Unary("sqrt", Const(-1.0)), "sqrt of negative value -1.0"),
    ("exp(1000 + y)", Unary("exp", Const(1000.0)), "overflow in exp(1000.0)"),
], ids=["power", "sqrt", "exp"])
def test_an_undefined_constant_built_by_substitution_stays_a_tree(text, tree, error):
    # as for 1/y: folding raised DomainError inside substitute, and a config
    # with such a normal trace failed to load
    trace = substitute(parse(text), {"y": 0.0})
    assert trace == tree
    for evaluated in (lambda: evaluate(trace, {}), ex.compile([trace], ())):
        with pytest.raises(DomainError) as err:
            evaluated()
        assert str(err.value) == error


def nested(depth: int) -> str:
    """sin applied depth times to x: depth calls and depth operations deep."""
    return "sin(" * depth + "x" + ")" * depth


def chain(depth: int) -> str:
    """x + x - x ...: depth operations deep, in no parentheses."""
    return "x" + "".join(" + x" if k % 2 == 0 else " - x" for k in range(depth))


def test_depth_limit():
    for text in (nested(MAX_DEPTH), chain(MAX_DEPTH), "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH):
        parse(text)
    for text, offset, expected in [
        (nested(MAX_DEPTH + 1), 4 * MAX_DEPTH + 4, "nested parentheses and calls"),
        ("(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1), MAX_DEPTH + 1,
         "nested parentheses and calls"),
        (chain(MAX_DEPTH + 1), 4 * MAX_DEPTH + 3, "nested operations"),
        # the unary minus is an operation too
        ("-(" + chain(MAX_DEPTH) + ")", 1, "nested operations"),
        # these escaped as a RecursionError, from the parser and from free_vars
        ("(" * 250 + "x" + ")" * 250, MAX_DEPTH + 1, "nested parentheses and calls"),
        (chain(999), 4 * MAX_DEPTH + 3, "nested operations"),
    ]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset
        assert err.value.expected == f"at most {MAX_DEPTH} {expected}"


def test_evaluate_basics():
    e = parse("x^2 + 2*x*y - 1/z")
    assert evaluate(e, {"x": 2.0, "y": 3.0, "z": 4.0}) == pytest.approx(4 + 12 - 0.25)
    assert evaluate(parse("sgn(x)"), {"x": -3.0}) == -1.0
    assert evaluate(parse("sgn(x)"), {"x": 0.0}) == 0.0
    assert evaluate(parse("abs(x)"), {"x": -3.0}) == 3.0
    assert evaluate(parse("tanh(x)"), {"x": 0.7}) == pytest.approx(math.tanh(0.7))


def test_evaluate_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("1/x"), {"x": 0.0})
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x)"), {"x": -1.0})
    with pytest.raises(DomainError):
        evaluate(parse("x^-1"), {"x": 0.0})
    with pytest.raises(UnboundVariableError):
        evaluate(parse("x + q"), {"x": 1.0})


def test_pow_conventions():
    assert evaluate(parse("x^-2"), {"x": 2.0}) == 0.25
    # 0^0 folds to 1 at parse time already
    assert parse("0^0") == Const(1.0)


def test_differentiate_structural():
    assert differentiate(parse("x^2 + y"), "x") == parse("2*x")
    assert differentiate(parse("sin(x)"), "y") == Const(0.0)
    assert differentiate(parse("x*y"), "x") == Var("y")
    assert differentiate(parse("exp(2*x)"), "x") == parse("exp(2*x)*2")


def test_differentiate_numerically():
    rng = np.random.default_rng(7)
    cases = [
        "x^3 - 2*x*y + y^2",
        "sin(x)*cos(y)",
        "exp(x/2) + tanh(x*y)",
        "sqrt(x^2 + 1)",
        "(x + y)/(1 + x^2)",
    ]
    h = 1e-6
    for text in cases:
        e = parse(text)
        dx = differentiate(e, "x")
        for _ in range(20):
            x, y = rng.uniform(-2, 2, size=2)
            fd = (
                evaluate(e, {"x": x + h, "y": y}) - evaluate(e, {"x": x - h, "y": y})
            ) / (2 * h)
            assert evaluate(dx, {"x": x, "y": y}) == pytest.approx(fd, abs=1e-5)


def central_difference(e, name, point, h=1e-6):
    up, down = dict(point), dict(point)
    up[name] += h
    down[name] -= h
    return (evaluate(e, up) - evaluate(e, down)) / (2 * h)


# every table row, applied to operands that stay off kinks and poles for
# x, y in [0.5, 1.5]: sqrt and the divisor keep a positive argument, abs
# and sgn see both signs away from 0
ROW_TREES = [(f"function {name}", tree)
             for name in ex._FUNCTIONS
             for tree in [Unary(name, parse("x*y + x"))]
             + ([Unary(name, parse("-x*y - x"))] if name != "sqrt" else [])] + [
    (f"operator {symbol}", Binary(symbol, parse("sin(x) + 2*y"), parse("x*y + 1")))
    for symbol in ex._OPERATORS]


@pytest.mark.parametrize("row, tree", ROW_TREES, ids=[f"{row} {tree}" for row, tree in ROW_TREES])
def test_each_derivative_rule_agrees_with_central_differences(row, tree):
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, y = rng.uniform(0.5, 1.5, size=2)
        point = {"x": float(x), "y": float(y)}
        for name in ("x", "y"):
            want = central_difference(tree, name, point)
            got = evaluate(differentiate(tree, name), point)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6), (row, name, point)


def test_substitute():
    e = parse("x^2 + y")
    assert substitute(e, {"y": 0.0}) == Pow(Var("x"), 2)
    shifted = substitute(e, {"x": parse("x + 1")})
    assert evaluate(shifted, {"x": 1.0, "y": 0.0}) == 4.0
    # substitution folds constants through
    assert substitute(parse("x*y"), {"x": 0.0}) == Const(0.0)


def test_free_vars():
    assert free_vars(parse("x^2 + y*sin(z)")) == frozenset({"x", "y", "z"})
    assert free_vars(parse("3.5")) == frozenset()


def test_print_parse_round_trip():
    texts = [
        "x^2 + y",
        "-x^2",
        "-(x + y)",
        "a - (b - c)",
        "a - b - c",
        "x*(y + z)",
        "a/(b*c)",
        "sin(x)^2",
        "2*x^3 - 1/(1 + x^2)",
        "-(x*y)",
        "x^-2",
        "abs(x - 1)*sgn(y)",
    ]
    for text in texts:
        e = parse(text)
        assert parse(to_text(e)) == e


def test_print_parse_round_trip_random_trees():
    # random canonical trees (built through the folding constructors, the
    # only way trees are ever made) must survive printing
    from filippov.expr import add, call, div, mul, neg, powi, sub

    rng = np.random.default_rng(21)

    def build(depth):
        if depth == 0:
            return Var("xyz"[rng.integers(3)]) if rng.random() < 0.7 else Const(
                round(float(rng.uniform(-3, 3)), 3)
            )
        pick = rng.integers(6)
        if pick == 0:
            return neg(build(depth - 1))
        if pick == 1:
            fn = ("sin", "cos", "exp", "tanh", "abs")[rng.integers(5)]
            return call(fn, build(depth - 1))
        if pick == 2:
            return powi(build(depth - 1), int(rng.integers(2, 5)))
        op = (add, sub, mul, div)[rng.integers(4)]
        return op(build(depth - 1), build(depth - 1))

    for _ in range(300):
        e = build(4)
        assert parse(to_text(e)) == e


def test_a_factor_with_a_nan_end_bounds_nothing():
    # a NaN product was taken for 0 * inf and read as 0, so a product of
    # NaN factors came back as the finite (0, 0)
    nan, inf = math.nan, math.inf
    mul = ex._NAMESPACE["i_mul"]
    for a, b in (((nan, nan), (1.0, 1.0)), ((1.0, 1.0), (nan, nan)), ((nan, 1.0), (2.0, 3.0)),
                 ((-1.0, nan), (-inf, inf)), ((0.0, 0.0), (nan, 2.0))):
        assert mul(*a, *b) == (-inf, inf), (a, b)
    # 0 * inf, where inf bounds finite values, is still 0
    assert mul(0.0, 0.0, 1.0, inf) == (0.0, 0.0)
    assert mul(-inf, 0.0, 0.0, 0.0) == (0.0, 0.0)


# every interval rule against the exact operation at the ends of its
# operands and between them: rational arithmetic for + - * /, powers, neg,
# abs and sgn, squares for sqrt, and mpmath at 50 digits for the libm
# functions (test-only oracles)
mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
from fractions import Fraction

from hypothesis import given, settings, strategies as st

ENDS = st.one_of(st.floats(-10.0, 10.0), st.floats(-800.0, 800.0),
                 st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, 1e300, -1e300]))
BOXES = st.tuples(ENDS, ENDS).map(sorted)
EXACT = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if b else None,
    "neg": lambda a: -a, "abs": abs, "sgn": lambda a: Fraction((a > 0) - (a < 0)),
}


def points(box, data):
    lo, hi = box
    return [lo, hi] + ([data.draw(st.floats(lo, hi))] if lo < hi else [])


def holds(bounds, value) -> bool:
    """Whether (lo, hi) bounds an exact Fraction or mpf value."""
    lo, hi = bounds
    return (lo == -math.inf or lo <= value) and (hi == math.inf or value <= hi)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(a=BOXES, b=BOXES, n=st.integers(-4, 5), data=st.data())
def test_each_interval_rule_bounds_the_exact_operation(a, b, n, data):
    pa, pb = points(a, data), points(b, data)
    for symbol, row in ex._OPERATORS.items():
        bounds = row[3](*a, *b)
        for u in pa:
            for v in pb:
                value = EXACT[symbol](Fraction(u), Fraction(v))
                assert value is None or holds(bounds, value), (symbol, a, b, bounds, u, v)
    pow_bounds = ex._NAMESPACE["i_pow"](*a, n)
    neg_bounds = ex._NAMESPACE["i_neg"](*a)
    for u in pa:
        exact = Fraction(u)
        assert exact == 0 and n < 0 or holds(pow_bounds, exact ** n), (a, n, pow_bounds, u)
        assert holds(neg_bounds, -exact)
        for name, row in ex._FUNCTIONS.items():
            bounds = row[2](*a)
            assert not (math.isnan(bounds[0]) or math.isnan(bounds[1]))
            if name in EXACT:
                assert holds(bounds, EXACT[name](exact)), (name, a, bounds, u)
            elif name == "sqrt":
                assert u < 0 or ((bounds[0] <= 0 or Fraction(bounds[0]) ** 2 <= exact)
                                 and (bounds[1] == math.inf or Fraction(bounds[1]) ** 2 >= exact))
            else:
                with mpmath.workdps(50):
                    value = getattr(mpmath, name)(mpmath.mpf(u))
                    assert holds(bounds, value), (name, a, bounds, u)
