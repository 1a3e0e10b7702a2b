"""Small symbolic expression language for vector field components.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-')? atom ('^' integer)?
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

Recognized functions: sin, cos, exp, tanh, sqrt, abs, sgn.  Any other
identifier is a variable.  Exponents are integer literals only.

Trees are immutable and compare structurally.  The only rewriting ever
applied is constant folding (including the neutral-element cases 0 + e,
1 * e, 0 * e, e^0, e^1), which keeps derivative output readable without
turning this into a simplifier.

Compilation
-----------
evaluate() walks a tree node by node.  The hot callers (field components,
their Jacobians, the normal traces, a custom transition and its
derivatives) instead call compile(exprs, names) once and then the function
it returns, one straight-line Python function of positional floats that
returns the tuple of evaluate(e, bindings) for every tree:

- **Bit for bit.** It runs the same float operations in the same order:
  the math module's sin, cos, exp, tanh and sqrt, abs, sgn, ** with the
  integer exponent, and the four arithmetic operators, after float() of
  each variable it reads.
- **Errors unchanged.** Where a Python operation raises ArithmeticError or
  ValueError (division by zero, 0^-2, sqrt(-1), overflow, sin(inf)), the
  function evaluates the trees again with evaluate() on the same values,
  which raises the DomainError, or lets the bare exception escape, exactly
  as a tree walk does.
- **Cached by shape.** No name or number from the trees enters the
  generated source: variables are the positional slots v0, v1, ... in the
  order of ``names``, constants and exponents are the keyword-only
  arguments c0, c1, ... (so an extra positional argument is a TypeError,
  not a constant overwritten), and functions come from a fixed namespace.
  The source depends only on the shape of the trees, and its code object
  is kept in a bounded LRU cache, so the same shape with other constants
  costs no call of Python's compiler.
"""

from __future__ import annotations

import builtins
import functools
import math
import types
from dataclasses import dataclass
from typing import Callable, Sequence

Bindings = dict[str, float]

FUNCTIONS = ("sin", "cos", "exp", "tanh", "sqrt", "abs", "sgn")


class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Syntax error with a 1-based byte offset into the source text."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"syntax error at offset {offset}: expected {expected}, found {found}")


class UnboundVariableError(ExprError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable {name!r}")


class DomainError(ExprError):
    # an integrator that meets the error attaches the nodes it computed
    trajectory = None


@dataclass(frozen=True)
class Expr:
    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'neg' or a function name
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # '+', '-', '*', '/'
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


# ---------------------------------------------------------------------------
# smart constructors (constant folding only)

def const(v: float) -> Const:
    return Const(float(v))


def var(name: str) -> Var:
    return Var(name)


def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    return Unary("neg", e)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Binary("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return neg(b)
    return Binary("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0.0:
            return Const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(0.0)
        if b.value == 1.0:
            return a
    return Binary("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    if isinstance(b, Const) and b.value == 1.0:
        return a
    return Binary("/", a, b)


def powi(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return Const(_pow_value(base.value, exponent))
    return Pow(base, exponent)


def call(fn: str, arg: Expr) -> Expr:
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function {fn!r}")
    if isinstance(arg, Const):
        return Const(_apply_function(fn, arg.value))
    return Unary(fn, arg)


# ---------------------------------------------------------------------------
# parsing

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0  # 0-based index into text

    def error(self, expected: str) -> ParseError:
        if self.pos >= len(self.text):
            found = "end of input"
        else:
            found = repr(self.text[self.pos])
        # offsets are reported 1-based
        return ParseError(self.pos + 1, expected, found)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str) -> None:
        if not self.take(ch):
            raise self.error(f"'{ch}'")

    def parse(self) -> Expr:
        e = self.parse_expr()
        self.skip_ws()
        if self.pos < len(self.text):
            raise self.error("end of input")
        return e

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                e = add(e, self.parse_term())
            elif c == "-":
                self.pos += 1
                e = sub(e, self.parse_term())
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                e = mul(e, self.parse_factor())
            elif c == "/":
                self.pos += 1
                e = div(e, self.parse_factor())
            else:
                return e

    def parse_factor(self) -> Expr:
        negate = self.take("-")
        e = self.parse_atom()
        if self.take("^"):
            e = powi(e, self.parse_integer())
        return neg(e) if negate else e

    def parse_integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            raise self.error("integer exponent")
        return int(self.text[start:self.pos])

    def parse_atom(self) -> Expr:
        c = self.peek()
        if c == "(":
            self.pos += 1
            e = self.parse_expr()
            self.expect(")")
            return e
        if c.isdigit() or c == ".":
            return self.parse_number()
        if c.isalpha() or c == "_":
            name = self.parse_ident()
            if self.take("("):
                if name not in FUNCTIONS:
                    raise ParseError(self.pos, f"one of {', '.join(FUNCTIONS)}", repr(name))
                arg = self.parse_expr()
                self.expect(")")
                return call(name, arg)
            return Var(name)
        raise self.error("number, identifier or '('")

    def parse_ident(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    def parse_number(self) -> Const:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # 'e' belongs to a following identifier, not this literal
        text = self.text[start:self.pos]
        if text == "." or not text:
            self.pos = start
            raise self.error("number")
        return Const(float(text))


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises ParseError with a 1-based offset and a description of what was
    expected at that position.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation

def _sgn(v: float) -> float:
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


def _apply_function(fn: str, v: float) -> float:
    try:
        if fn == "sin":
            return math.sin(v)
        if fn == "cos":
            return math.cos(v)
        if fn == "exp":
            return math.exp(v)
        if fn == "tanh":
            return math.tanh(v)
        if fn == "sqrt":
            if v < 0.0:
                raise DomainError(f"sqrt of negative value {v}")
            return math.sqrt(v)
        if fn == "abs":
            return abs(v)
        if fn == "sgn":
            return _sgn(v)
    except OverflowError as exc:
        raise DomainError(f"overflow in {fn}({v})") from exc
    raise ValueError(f"unknown function {fn!r}")


def _pow_value(base: float, exponent: int) -> float:
    if base == 0.0 and exponent < 0:
        raise DomainError(f"zero raised to negative power {exponent}")
    if base == 0.0 and exponent == 0:
        return 1.0
    try:
        return base ** exponent
    except OverflowError as exc:
        raise DomainError(f"overflow in {base}^{exponent}") from exc


def evaluate(e: Expr, bindings: Bindings) -> float:
    """Evaluate ``e`` at the given variable values.

    Division by zero and sqrt of a negative raise DomainError rather than
    producing NaN or infinity.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return float(bindings[e.name])
        except KeyError:
            raise UnboundVariableError(e.name) from None
    if isinstance(e, Unary):
        v = evaluate(e.arg, bindings)
        if e.op == "neg":
            return -v
        return _apply_function(e.op, v)
    if isinstance(e, Binary):
        a = evaluate(e.left, bindings)
        b = evaluate(e.right, bindings)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                raise DomainError("division by zero")
            return a / b
        raise ValueError(f"unknown operator {e.op!r}")
    if isinstance(e, Pow):
        return _pow_value(evaluate(e.base, bindings), e.exponent)
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# compilation

COMPILE_CACHE_SIZE = 256  # code objects kept, one per distinct tree shape

# the functions generated code may call; nothing else is looked up by name
_NAMESPACE = {
    "f_sin": math.sin, "f_cos": math.cos, "f_exp": math.exp, "f_tanh": math.tanh,
    "f_sqrt": math.sqrt, "f_abs": abs, "f_sgn": _sgn,
}


def compile(exprs: Sequence[Expr], names: Sequence[str]) -> Callable[..., tuple[float, ...]]:
    """A function f(*values) equal to tuple(evaluate(e, bindings) for e in exprs).

    ``bindings`` maps names[i] to values[i]; every variable of ``exprs``
    must be one of ``names`` (UnboundVariableError otherwise, raised here).
    See the module docstring for what the function guarantees.
    """
    exprs = tuple(exprs)
    names = tuple(names)
    slots = {name: f"v{i}" for i, name in enumerate(names)}
    consts: list[float | int] = []
    body: list[str] = []
    read: dict[str, None] = {}  # slots in order of first use

    def const_slot(value) -> str:
        consts.append(value)
        return f"c{len(consts) - 1}"

    def emit(e: Expr) -> str:
        if isinstance(e, Const):
            return const_slot(e.value)
        if isinstance(e, Var):
            if e.name not in slots:
                raise UnboundVariableError(e.name)
            read[slots[e.name]] = None
            return slots[e.name]
        if isinstance(e, Unary):
            a = emit(e.arg)
            if e.op == "neg":
                rhs = f"-{a}"
            elif e.op in FUNCTIONS:
                rhs = f"f_{e.op}({a})"
            else:
                raise ValueError(f"unknown function {e.op!r}")
        elif isinstance(e, Binary):
            if e.op not in ("+", "-", "*", "/"):
                raise ValueError(f"unknown operator {e.op!r}")
            a = emit(e.left)
            rhs = f"{a} {e.op} {emit(e.right)}"
        elif isinstance(e, Pow):
            rhs = f"{emit(e.base)} ** {const_slot(e.exponent)}"
        else:
            raise TypeError(f"not an expression: {e!r}")
        body.append(f"r{len(body)} = {rhs}")
        return f"r{len(body) - 1}"

    results = [emit(e) for e in exprs]
    params = [f"v{i}" for i in range(len(names))]
    keywords = [f"c{k}" for k in range(len(consts))] + ["walk"]
    lines = [
        f"def compiled({', '.join(params + ['*'] + keywords)}):",
        "    try:",
        *(f"        {v} = float({v})" for v in read),
        *(f"        {line}" for line in body),
        f"        return ({''.join(r + ', ' for r in results)})",
        "    except (ArithmeticError, ValueError):",
        f"        return walk({', '.join(params)})",
    ]

    def walk(*values):
        bindings = dict(zip(names, values))
        return tuple(evaluate(e, bindings) for e in exprs)

    fn = types.FunctionType(_code("\n".join(lines)), _NAMESPACE, "compiled")
    fn.__kwdefaults__ = dict(zip(keywords, consts + [walk]))
    return fn


@functools.lru_cache(maxsize=COMPILE_CACHE_SIZE)
def _code(source: str) -> types.CodeType:
    """The code object of the one function that ``source`` defines."""
    scope: dict[str, object] = {}
    exec(builtins.compile(source, "<filippov.expr.compile>", "exec"), {}, scope)
    return scope["compiled"].__code__


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e: Expr, name: str) -> Expr:
    """Symbolic partial derivative of ``e`` with respect to ``name``.

    sgn differentiates to 0 and abs to sgn (both taken as 0 at the kink);
    results feed numerical classification, where the convention is harmless
    on the measure-zero set it affects.
    """
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0) if e.name == name else Const(0.0)
    if isinstance(e, Unary):
        d = differentiate(e.arg, name)
        if e.op == "neg":
            return neg(d)
        if e.op == "sin":
            return mul(call("cos", e.arg), d)
        if e.op == "cos":
            return neg(mul(call("sin", e.arg), d))
        if e.op == "exp":
            return mul(call("exp", e.arg), d)
        if e.op == "tanh":
            return mul(sub(Const(1.0), powi(call("tanh", e.arg), 2)), d)
        if e.op == "sqrt":
            return div(d, mul(Const(2.0), call("sqrt", e.arg)))
        if e.op == "abs":
            return mul(call("sgn", e.arg), d)
        if e.op == "sgn":
            return Const(0.0)
        raise ValueError(f"unknown function {e.op!r}")
    if isinstance(e, Binary):
        da = differentiate(e.left, name)
        db = differentiate(e.right, name)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.right), mul(e.left, db))
        if e.op == "/":
            return div(sub(mul(da, e.right), mul(e.left, db)), powi(e.right, 2))
        raise ValueError(f"unknown operator {e.op!r}")
    if isinstance(e, Pow):
        inner = differentiate(e.base, name)
        return mul(mul(Const(float(e.exponent)), powi(e.base, e.exponent - 1)), inner)
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# substitution, free variables, printing

def substitute(e: Expr, mapping: dict[str, Expr | float]) -> Expr:
    """Replace variables by expressions (or numbers), folding constants."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        if e.name in mapping:
            r = mapping[e.name]
            return const(r) if isinstance(r, (int, float)) else r
        return e
    if isinstance(e, Unary):
        a = substitute(e.arg, mapping)
        return neg(a) if e.op == "neg" else call(e.op, a)
    if isinstance(e, Binary):
        a = substitute(e.left, mapping)
        b = substitute(e.right, mapping)
        return {"+": add, "-": sub, "*": mul, "/": div}[e.op](a, b)
    if isinstance(e, Pow):
        return powi(substitute(e.base, mapping), e.exponent)
    raise TypeError(f"not an expression: {e!r}")


def free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Unary):
        return free_vars(e.arg)
    if isinstance(e, Binary):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Pow):
        return free_vars(e.base)
    raise TypeError(f"not an expression: {e!r}")


def _fmt_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


# precedence levels used by the printer; parenthesization is chosen so that
# parse(to_text(e)) == e for every tree
_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_NEG = 1.5
_LEVEL_POW = 3
_LEVEL_ATOM = 4


def _level(e: Expr) -> float:
    if isinstance(e, Binary):
        return _LEVEL_ADD if e.op in "+-" else _LEVEL_MUL
    if isinstance(e, Unary) and e.op == "neg":
        return _LEVEL_NEG
    if isinstance(e, Pow):
        return _LEVEL_POW
    if isinstance(e, Const) and e.value < 0:
        return _LEVEL_NEG
    return _LEVEL_ATOM


def _wrap(e: Expr, minimum: float) -> str:
    s = to_text(e)
    return f"({s})" if _level(e) < minimum else s


def to_text(e: Expr) -> str:
    """Render a tree to source text that parses back to an equal tree."""
    if isinstance(e, Const):
        return _fmt_float(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return "-" + _wrap(e.arg, _LEVEL_POW)
        return f"{e.op}({to_text(e.arg)})"
    if isinstance(e, Binary):
        if e.op in "+-":
            left = _wrap(e.left, _LEVEL_ADD)
            right = _wrap(e.right, _LEVEL_MUL if e.op == "-" else _LEVEL_ADD + 0.25)
            return f"{left} {e.op} {right}"
        left = _wrap(e.left, _LEVEL_MUL)
        right = _wrap(e.right, _LEVEL_MUL + 0.25)
        return f"{left}{e.op}{right}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _LEVEL_ATOM)}^{e.exponent}"
    raise TypeError(f"not an expression: {e!r}")
