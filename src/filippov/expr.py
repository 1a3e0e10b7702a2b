"""Small symbolic expression language for vector field components.

Grammar (whitespace insignificant)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := ('-')? atom ('^' integer)?
    atom    := number | ident | ident '(' expr ')' | '(' expr ')'
    number  := ([0-9]+ ('.' [0-9]*)? | '.' [0-9]+) ([eE] [+-]? [0-9]+)?
    integer := '-'? [0-9]+
    ident   := (letter | '_') (letter | digit | '_')*

Digits of numbers and exponents are ASCII; a name's letters and digits are
those of str.isalnum(), in any script.  A number has no sign ('-' is the
unary operator), and an exponent at most MAX_EXPONENT_DIGITS digits after
its leading zeros.  Recognized functions: sin, cos, exp, tanh, sqrt, abs,
sgn.  Any other identifier is a variable.

Trees are immutable and compare structurally.  The only rewriting ever
applied is constant folding (including the neutral-element cases 0 + e,
1 * e, 0 * e, e^0, e^1), which keeps derivative output readable without
turning this into a simplifier.  The parser refuses a constant that is not
finite or not defined (1e999, 1e200*1e200, exp(1000), sqrt(-1)), a
divisor that folds to zero (1/0, x/(1 - 1)), and parentheses, calls or
operations nested more than MAX_DEPTH deep, which the recursive tree walks
below could not follow.

Compilation
-----------
evaluate() walks a tree node by node.  The hot callers (field components,
their Jacobians, the normal traces) instead call compile(exprs, names)
once and then the function it returns, one straight-line Python function
of positional floats that returns the tuple of evaluate(e, bindings) for
every tree:

- **Bit for bit.** It runs the same float operations in the same order:
  the math module's sin, cos, exp, tanh and sqrt, abs, sgn, ** with the
  integer exponent, and the four arithmetic operators, after float() of
  each variable it reads.  An operation whose tree object recurs in the
  trees, as differentiation and substitution share subtrees, is computed
  once: the same operations on the same values.
- **Errors unchanged.** Emitter.function gives every generated function
  one fallback: where an operation raises ArithmeticError or ValueError
  (division by zero, 0^-2, sqrt(-1), overflow, sin(inf)), it walks the
  trees it inlines with evaluate(), in emission order, on the same values,
  all but those of a branch that did not run.
  evaluate() raises a DomainError wherever the generated code raises, so
  the error is the tree walk's.
- **Cached by shape.** No name or number from the trees enters the
  generated source: variables are the positional slots v0, v1, ... in the
  order of ``names``, constants and exponents are the variables c0, c1,
  ... of the function's closure (so no argument can overwrite one), and
  functions come from a fixed namespace.  The source depends only on the
  shape of the trees and the subtrees they share, and its code object is
  kept in a bounded LRU cache, so the same shape with other constants
  costs no call of Python's compiler.

The code comes from Emitter, which other generators share: a transition's
psi and derivatives, and the regularized field, which inlines psi, both
fields and their partials (system._blend_function).  Emitter.enclose emits
interval code instead, cached the same way: bounds of each tree over a box
of its variables, by the rules of the interval module, which round every
bound outward; a custom transition proves its monotone pieces with them.

A tree's inner nodes are all Op(op, args), and each operation is defined
once, in its row of _OPS: negation, + - * /, ^ and the seven functions.
evaluate, differentiate, substitute, free_vars, the parser, the printer,
the interval rules, the generated code and its namespace all read the row.
"""

from __future__ import annotations

import builtins
import contextlib
import functools
import math
import operator
import re
import types
from typing import Callable, NamedTuple, Sequence

from . import interval

Bindings = dict[str, float]

MAX_DEPTH = 100  # nested parentheses and calls, and operations in a parsed tree
MAX_EXPONENT_DIGITS = 15  # of an integer exponent: any 15-digit integer is a float exactly


class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Syntax error with a 1-based offset, in characters, into the source text."""

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


class Expr:
    """A tree node.  Nodes are immutable and equal where their types and
    fields are, so they hash by value."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: expression trees are immutable")

    def __str__(self) -> str:
        return to_text(self)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", value)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Op(Expr):
    """The operation of the row _OPS[op] on the trees ``args``; the exponent
    of '^' is a Const that holds an int."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, args: tuple[Expr, ...]):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)


# ---------------------------------------------------------------------------
# smart constructors (constant folding only); div, powi and call keep a
# constant they cannot fold (1/0, 0^-1, sqrt(-1), exp(1000)) as a tree,
# which raises where it is evaluated

def const(v: float) -> Const:
    return Const(float(v))


def neg(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    return Op("neg", (e,))


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Op("+", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return neg(b)
    return Op("-", (a, b))


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
    return Op("*", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    if isinstance(b, Const) and b.value == 1.0:
        return a
    return Op("/", (a, b))


def powi(base: Expr, exponent: Const) -> Expr:  # the exponent holds an int
    if exponent.value == 0:
        return Const(1.0)
    if exponent.value == 1:
        return base
    if isinstance(base, Const):
        with contextlib.suppress(DomainError):
            return Const(_pow_value(base.value, exponent.value))
    return Op("^", (base, exponent))


def call(fn: str, arg: Expr) -> Expr:
    if fn not in FUNCTIONS:  # an unknown name is an error even on a variable
        raise ValueError(f"unknown function {fn!r}")
    if isinstance(arg, Const):
        with contextlib.suppress(DomainError):
            return Const(_OPS[fn].value(arg.value))
    return Op(fn, (arg,))


# ---------------------------------------------------------------------------
# the operations of the language, one row each

def _divide(a: float, b: float) -> float:
    if b == 0.0:
        raise DomainError("division by zero")
    return a / b


def _pow_value(base: float, exponent: int) -> float:
    if base == 0.0 and exponent < 0:
        raise DomainError(f"zero raised to negative power {exponent}")
    try:
        return base ** exponent
    except OverflowError as exc:
        raise DomainError(f"overflow in {base}^{exponent}") from exc


def _checked(fn: str, function: Callable[[float], float]) -> Callable[[float], float]:
    """The value of the language's function ``fn``: function's, and a
    DomainError where fn is undefined or overflows."""

    def value(v: float) -> float:
        if fn == "sqrt" and v < 0.0:
            raise DomainError(f"sqrt of negative value {v}")
        try:
            return function(v)
        except OverflowError as exc:
            raise DomainError(f"overflow in {fn}({v})") from exc
        except ValueError as exc:  # libm's domain error, as of sin(inf)
            raise DomainError(f"{fn} undefined at {v}") from exc
    return value


# precedence levels of the printer; parenthesization is chosen so that
# parse(to_text(e)) == e for every tree
_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_NEG = 1.5
_LEVEL_POW = 3
_LEVEL_ATOM = 4


class _Row(NamedTuple):
    """One operation.  Each field takes the operands in order: their trees,
    values, bounds, code names or text."""

    make: Callable[..., Expr]  # the folding constructor
    value: Callable[..., float]  # a DomainError where undefined
    deriv: Callable[..., Expr]  # of the operands, then of their derivatives
    bounds: Callable[..., tuple[float, float]]  # the interval rule
    rule: str  # generated code calls bounds as i_<rule>, and function as f_<rule>
    code: str  # generated code
    text: str  # source text
    levels: tuple[float, ...]  # its precedence, then the least each operand is printed at bare
    function: Callable[[float], float] | None = None  # a function's value, unchecked


def _function(fn: str, function: Callable[[float], float], deriv, bounds) -> _Row:
    """The row of the function fn, whose generated code calls function."""
    return _Row(functools.partial(call, fn), _checked(fn, function), deriv, bounds, fn,
                f"f_{fn}({{}})", f"{fn}({{}})", (_LEVEL_ATOM, 0), function)


# the exponent of ^ is printed bare; abs differentiates to sgn and sgn to 0,
# both taken as 0 at the kink
_OPS = {
    "neg": _Row(neg, operator.neg, lambda a, da: neg(da), interval.neg, "neg",
                "-{}", "-{}", (_LEVEL_NEG, _LEVEL_POW)),
    "+": _Row(add, operator.add, lambda a, b, da, db: add(da, db), interval.add, "add",
              "{} + {}", "{} + {}", (_LEVEL_ADD, _LEVEL_ADD, _LEVEL_ADD + 0.25)),
    "-": _Row(sub, operator.sub, lambda a, b, da, db: sub(da, db), interval.sub, "sub",
              "{} - {}", "{} - {}", (_LEVEL_ADD, _LEVEL_ADD, _LEVEL_MUL)),
    "*": _Row(mul, operator.mul, lambda a, b, da, db: add(mul(da, b), mul(a, db)),
              interval.mul, "mul", "{} * {}", "{}*{}", (_LEVEL_MUL, _LEVEL_MUL, _LEVEL_MUL + 0.25)),
    "/": _Row(div, _divide, lambda a, b, da, db: div(sub(mul(da, b), mul(a, db)), powi(b, Const(2))),
              interval.div, "div", "{} / {}", "{}/{}", (_LEVEL_MUL, _LEVEL_MUL, _LEVEL_MUL + 0.25)),
    "^": _Row(powi, _pow_value,
              lambda a, n, da, dn: mul(mul(Const(float(n.value)), powi(a, Const(n.value - 1))), da),
              interval.power, "pow", "{} ** {}", "{}^{}", (_LEVEL_POW, _LEVEL_ATOM, 0)),
    "sin": _function("sin", math.sin, lambda a, da: mul(call("cos", a), da), interval.sin),
    "cos": _function("cos", math.cos, lambda a, da: neg(mul(call("sin", a), da)), interval.cos),
    "exp": _function("exp", math.exp, lambda a, da: mul(call("exp", a), da), interval.exp),
    "tanh": _function("tanh", math.tanh,
                      lambda a, da: mul(sub(Const(1.0), powi(call("tanh", a), Const(2))), da),
                      interval.tanh),
    "sqrt": _function("sqrt", math.sqrt, lambda a, da: div(da, mul(Const(2.0), call("sqrt", a))),
                      interval.sqrt),
    "abs": _function("abs", abs, lambda a, da: mul(call("sgn", a), da), interval.absolute),
    "sgn": _function("sgn", interval.sign, lambda a, da: Const(0.0), interval.sgn),
}
FUNCTIONS = tuple(op for op, row in _OPS.items() if row.function)
_PRECEDENCE = (("+", "-"), ("*", "/"))  # the binary operators, loosest first

# the tokens the parser scans: [0-9], as str.isdigit and \d take digits of other
# scripts that float() and int() refuse or read; \w is str.isalnum() or '_'
_NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_EXPONENT = re.compile(r"-?[0-9]+")
_NAME = re.compile(r"\w+")


# ---------------------------------------------------------------------------
# parsing

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0  # 0-based index into text
        self.nesting = 0  # parentheses and calls open at pos
        # the operations below each node, keyed by id; the node is kept so
        # that its id is not reused
        self.depths: dict[int, tuple[Expr, int]] = {}

    def error(self, expected: str) -> ParseError:
        if self.pos >= len(self.text):
            found = "end of input"
        else:
            found = repr(self.text[self.pos])
        # offsets are reported 1-based
        return ParseError(self.pos + 1, expected, found)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def scan(self, pattern: re.Pattern, expected: str) -> str:
        """The text pattern matches after any whitespace, consumed."""
        self.peek()
        if not (m := pattern.match(self.text, self.pos)):
            raise self.error(expected)
        self.pos = m.end()
        return m.group()

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self) -> Expr:
        e = self.parse_expr()
        if self.peek():
            raise self.error("end of input")
        return e

    def node(self, offset: int, make: Callable[..., Expr], *args) -> Expr:
        """make(*args), a smart constructor, refused at the 1-based offset
        when it divides by a constant zero, when its constants do not fold
        (make keeps them as a tree) or fold to a number that is not finite,
        or when the tree grows more than MAX_DEPTH operations deep."""
        if make is div and isinstance(args[1], Const) and args[1].value == 0.0:
            raise ParseError(offset, "a nonzero divisor", repr(args[1].value))
        e = make(*args)
        if isinstance(e, Const):
            return self.leaf(offset, e)
        if all(isinstance(a, Const) for a in args):
            try:
                evaluate(e, {})
            except DomainError as exc:
                raise ParseError(offset, "a defined constant", str(exc)) from exc
        if id(e) not in self.depths:  # else make returned one of args
            depth = 1 + max(self.depths[id(a)][1] for a in args)
            if depth > MAX_DEPTH:
                raise ParseError(offset, f"at most {MAX_DEPTH} nested operations", str(depth))
            self.depths[id(e)] = e, depth
        return e

    def leaf(self, offset: int, e: Const | Var) -> Expr:
        if isinstance(e, Const) and not math.isfinite(e.value):
            raise ParseError(offset, "a finite constant", repr(e.value))
        self.depths[id(e)] = e, 0
        return e

    def parse_expr(self, level: int = 0) -> Expr:
        """Operands joined left to right by the operators of
        _PRECEDENCE[level]; an operand binds tighter: a term, or a factor."""
        if level == len(_PRECEDENCE):
            return self.parse_factor()
        e = self.parse_expr(level + 1)
        while (c := self.peek()) in _PRECEDENCE[level]:
            self.pos += 1  # now the operator's 1-based offset
            e = self.node(self.pos, _OPS[c].make, e, self.parse_expr(level + 1))
        return e

    def parse_factor(self) -> Expr:
        negate = self.take("-")
        start = self.pos
        e = self.parse_atom()
        if self.take("^"):
            e = self.node(self.pos, powi, e, self.parse_exponent())
        return self.node(start, neg, e) if negate else e

    def parse_exponent(self) -> Expr:
        text = self.scan(_EXPONENT, "integer exponent")
        offset = self.pos - len(text) + 1
        if (digits := len(text.lstrip("-0"))) > MAX_EXPONENT_DIGITS:  # leading zeros do not count
            raise ParseError(offset, f"at most {MAX_EXPONENT_DIGITS} exponent digits", str(digits))
        # exact; int() refuses more than 4,300 digits, zeros included
        return self.leaf(offset, Const(int(float(text))))

    def parse_nested(self) -> Expr:
        """The expression after an opening parenthesis, and its ')'."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(self.pos, f"at most {MAX_DEPTH} nested parentheses and calls",
                             str(self.nesting))
        e = self.parse_expr()
        if not self.take(")"):
            raise self.error("')'")
        self.nesting -= 1
        return e

    def parse_atom(self) -> Expr:
        c = self.peek()
        start = self.pos + 1
        if c == "(":
            self.pos += 1
            return self.parse_nested()
        if "0" <= c <= "9" or c == ".":
            return self.leaf(start, Const(float(self.scan(_NUMBER, "number"))))
        if c.isalpha() or c == "_":
            name = self.scan(_NAME, "identifier")
            if self.take("("):
                if name not in FUNCTIONS:
                    raise ParseError(self.pos, f"one of {', '.join(FUNCTIONS)}", repr(name))
                return self.node(start, _OPS[name].make, self.parse_nested())
            return self.leaf(start, Var(name))
        raise self.error("number, identifier or '('")


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises ParseError with a 1-based offset and a description of what was
    expected at that position.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation

def evaluate(e: Expr, bindings: Bindings) -> float:
    """Evaluate ``e`` at the given variable values.

    Division by zero, sqrt of a negative, an overflow of ^ or a function
    (10^2000, exp(1000)) and a function outside its domain (sin(inf)) raise
    DomainError; + - * / follow IEEE 754 (1e200*z*1e200 is inf at z = 1e200).
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return float(bindings[e.name])
        except KeyError:
            raise UnboundVariableError(e.name) from None
    if isinstance(e, Op):
        return _OPS[e.op].value(*[evaluate(a, bindings) for a in e.args])
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# compilation

COMPILE_CACHE_SIZE = 256  # code objects kept, one per distinct tree shape

# the functions generated code may call; nothing else is looked up by name:
# the f_<rule> of each function, and the interval rule i_<rule> of each row
_NAMESPACE = {
    **{f"f_{row.rule}": row.function for row in _OPS.values() if row.function},
    **{f"i_{row.rule}": row.bounds for row in _OPS.values()},
}


class Emitter:
    """Straight-line code for expression trees over the positional slots
    v0, v1, ... of ``names``, for every generator that inlines trees.

    emit(exprs) appends to ``body`` the lines that compute each tree, each
    operation object once, and returns the names that hold their values:
    r0, r1, ... for operations, the slot of a bare variable, and c0, c1, ...
    for numbers and exponents, whose values collect in ``consts``.  The
    line before a slot's first use converts it with float().  Several
    emit() calls share slots and constants, so one function can inline
    several sets of trees, each read from the slots or from the code names
    of its own ``slots``.  The trees are kept in the order they were
    emitted, for the fallback of function().
    """

    def __init__(self, names: Sequence[str]):
        self.params = [f"v{i}" for i in range(len(names))]
        self.slots = dict(zip(names, self.params))
        self.consts: list[float | int] = []
        self.body: list[str] = []
        self._groups: list[tuple[tuple[Expr, ...], dict[str, str]]] = []
        self._unconverted = set(self.params)
        self._results = 0

    def emit(self, exprs: Sequence[Expr], slots: dict[str, str] | None = None) -> list[str]:
        exprs, slots = tuple(exprs), self.slots if slots is None else slots
        self._groups.append((exprs, slots))
        self._shared: dict[int, str] = {}  # the name of each operation object emitted
        return [self._emit(e, slots) for e in exprs]

    def enclose(self, exprs: Sequence[Expr], slots: dict[str, tuple[str, str]]) -> list[tuple[str, str]]:
        """Like emit, for interval code: lines that bound each tree over a
        box by the interval rules i_<name> of _NAMESPACE, and the code names
        (lo, hi) of each tree's bounds; ``slots`` maps each variable to the
        code names of its bounds.  The lines never raise."""
        self._shared = {}
        return [self._enclose(e, slots) for e in exprs]

    def unpack(self, sequence: str) -> list[str]:
        """Lines that unpack ``sequence`` into the slots as floats."""
        self._unconverted.clear()
        return [f"{''.join(v + ', ' for v in self.params)}= {sequence}",
                *(f"{v} = float({v})" for v in self.params)]

    def constant(self, value) -> str:
        self.consts.append(value)
        return f"c{len(self.consts) - 1}"

    def _emit(self, e: Expr, slots: dict[str, str]) -> str:
        if isinstance(e, Const):
            return self.constant(e.value)
        if isinstance(e, Var):
            if e.name not in slots:
                raise UnboundVariableError(e.name)
            slot = slots[e.name]
            if slot in self._unconverted:
                self._unconverted.remove(slot)
                self.body.append(f"{slot} = float({slot})")
            return slot
        if id(e) in self._shared:
            return self._shared[id(e)]
        if not isinstance(e, Op):
            raise TypeError(f"not an expression: {e!r}")
        rhs = _OPS[e.op].code.format(*[self._emit(a, slots) for a in e.args])
        name = f"r{self._results}"
        self._results += 1
        self.body.append(f"{name} = {rhs}")
        self._shared[id(e)] = name
        return name

    def _enclose(self, e: Expr, slots: dict[str, tuple[str, str]]) -> tuple[str, str]:
        if isinstance(e, Const):
            return (self.constant(e.value),) * 2
        if isinstance(e, Var):
            if e.name not in slots:
                raise UnboundVariableError(e.name)
            return slots[e.name]
        if id(e) in self._shared:
            return self._shared[id(e)]
        if not isinstance(e, Op):
            raise TypeError(f"not an expression: {e!r}")
        args = ", ".join(end for a in e.args for end in self._enclose(a, slots))
        name = f"l{self._results}", f"h{self._results}"
        self._results += 1
        self.body.append(f"{name[0]}, {name[1]} = i_{_OPS[e.op].rule}({args})")
        self._shared[id(e)] = name
        return name

    def function(self, params: Sequence[str], lines: Sequence[str]) -> Callable:
        """The function compiled(*params) with body ``lines``, in which c0,
        c1, ... are the constants, read from its closure.  Where the body
        raises ArithmeticError or ValueError, fallback walks the emitted
        trees with evaluate, in emission order, on the values their code
        names hold, so that the tree walk's error is raised (the body's own,
        should the walk pass).  It skips a set of trees one of whose code
        names is unbound, as in a branch that did not run.  The code object
        comes from a cache keyed by the source, so same shapes share one."""
        groups = tuple(self._groups)

        def walk(scope: dict):
            for trees, slots in groups:
                if all(code in scope for code in slots.values()):  # else not run
                    for e in trees:
                        evaluate(e, {name: scope[code] for name, code in slots.items()})

        closure = [f"c{k}" for k in range(len(self.consts))] + ["fallback"]
        source = "\n".join([f"def bind({', '.join(closure)}):",
                            f"    def compiled({', '.join(params)}):",
                            "        try:",
                            *(f"            {line}" for line in lines),
                            "        except (ArithmeticError, ValueError):",
                            "            fallback(locals())",
                            "            raise",
                            "    return compiled"])
        return types.FunctionType(_code(source), _NAMESPACE, "bind")(*self.consts, walk)


def compile(exprs: Sequence[Expr], names: Sequence[str]) -> Callable[..., tuple[float, ...]]:
    """A function f(*values) equal to tuple(evaluate(e, bindings) for e in exprs).

    ``bindings`` maps names[i] to values[i]; every variable of ``exprs``
    must be one of ``names`` (UnboundVariableError otherwise, raised here).
    See the module docstring for what the function guarantees.
    """
    emitter = Emitter(names)
    results = emitter.emit(exprs)
    return emitter.function(emitter.params,
                            [*emitter.body, f"return ({''.join(r + ', ' for r in results)})"])


@functools.lru_cache(maxsize=COMPILE_CACHE_SIZE)
def _code(source: str) -> types.CodeType:
    """The code object of the one function, bind, that ``source`` defines."""
    scope: dict[str, object] = {}
    exec(builtins.compile(source, "<filippov.expr.compile>", "exec"), {}, scope)
    return scope["bind"].__code__


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e: Expr, name: str) -> Expr:
    """Symbolic partial derivative of ``e`` with respect to ``name``, by the
    rules of _OPS.

    sgn differentiates to 0 and abs to sgn (both taken as 0 at the kink);
    results feed numerical classification, where the convention is harmless
    on the measure-zero set it affects.
    """
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0) if e.name == name else Const(0.0)
    if isinstance(e, Op):
        return _OPS[e.op].deriv(*e.args, *[differentiate(a, name) for a in e.args])
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
    if isinstance(e, Op):
        # one operand or two, passed to make directly: a list or map of them
        # per node made substitution, most of a config's load after parsing,
        # about a third slower
        make, args = _OPS[e.op].make, e.args
        if len(args) == 1:
            return make(substitute(args[0], mapping))
        return make(substitute(args[0], mapping), substitute(args[1], mapping))
    raise TypeError(f"not an expression: {e!r}")


def free_vars(e: Expr) -> frozenset[str]:
    names, stack = set(), [e]
    while stack:
        e = stack.pop()
        if isinstance(e, Op):
            stack.extend(e.args)
        elif isinstance(e, Var):
            names.add(e.name)
        elif not isinstance(e, Const):
            raise TypeError(f"not an expression: {e!r}")
    return frozenset(names)


def _fmt_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _level(e: Expr) -> float:
    if isinstance(e, Op):
        return _OPS[e.op].levels[0]
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
    if isinstance(e, Op):
        row = _OPS[e.op]
        return row.text.format(*map(_wrap, e.args, row.levels[1:]))
    raise TypeError(f"not an expression: {e!r}")
