"""Arithmetic expressions in the single variable x.

Used for coefficient functions, initial conditions, and manufactured
solutions given as strings in run configurations.

Grammar (standard precedence; ^ binds tightest and is right-associative):

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'x' | NAME '(' expr ')' | '(' expr ')'

NAME is one of: exp, sin, cos, tanh, sqrt, abs.  Trees are immutable,
evaluation is deterministic, and non-finite intermediate results raise
instead of propagating.

`evaluate` walks the tree and is the reference.  `compile` turns a tree into
one straight-line Python function that runs the same float operations in
the same order and falls back to the walk on any failure, so both return
the same bits and raise the same errors.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "NonFiniteResultError",
    "parse",
    "evaluate",
    "compile",
    "to_source",
    "sample",
]

FUNCTIONS = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "tanh": math.tanh,
    "sqrt": math.sqrt,
    "abs": abs,
}


class ExprError(ValueError):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"syntax error at offset {offset}: expected {expected}")


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        known = ", ".join(sorted(FUNCTIONS))
        super().__init__(
            f"unknown identifier {name!r} at offset {offset} (known: x, {known})"
        )


class NonFiniteResultError(ExprError):
    """Raised when a subexpression evaluates to inf or nan."""

    def __init__(self, source: str, x: float):
        self.source = source
        self.x = x
        super().__init__(f"non-finite result from {source!r} at x={x!r}")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = "+-*/^()"


def _tokenize(source: str):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUM_RE.match(source, pos)
        if m:
            tokens.append(("num", m.group(), pos))
            pos = m.end()
            continue
        m = _NAME_RE.match(source, pos)
        if m:
            tokens.append(("name", m.group(), pos))
            pos = m.end()
            continue
        if ch in _OPS:
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ExprSyntaxError(pos, "a number, name, operator, or parenthesis")
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ExprSyntaxError(offset, f"'{op}'")

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ExprSyntaxError(offset, "a finite numeric literal")
            return Num(value)
        if kind == "name":
            if text == "x":
                return Var()
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            raise UnknownIdentifierError(text, offset)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(offset, "a number, 'x', a function name, or '('")


def parse(source: str) -> Expr:
    """Parse source text into an expression tree.

    Raises ExprSyntaxError (with byte offset) or UnknownIdentifierError.
    """
    if not source or source.isspace():
        raise ExprSyntaxError(0, "a non-empty expression")
    parser = _Parser(_tokenize(source))
    node = parser.expr()
    kind, _, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(offset, "end of input")
    return node


def evaluate(e: Expr, x: float) -> float:
    """Evaluate e at the point x.

    Overflow, division by zero, and domain errors raise
    NonFiniteResultError carrying the offending subexpression.  An operator
    or function the language does not have (only a hand-built tree can
    hold one) raises ExprError, as `compile` does.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return float(x)
    if isinstance(e, Neg):
        return -evaluate(e.operand, x)
    if isinstance(e, BinOp):
        if e.op not in _OPERATORS:
            raise ExprError(f"cannot evaluate operator {e.op!r}")
        a = evaluate(e.left, x)
        b = evaluate(e.right, x)
        try:
            if e.op == "+":
                r = a + b
            elif e.op == "-":
                r = a - b
            elif e.op == "*":
                r = a * b
            elif e.op == "/":
                r = a / b
            else:
                r = math.pow(a, b)
        except (OverflowError, ZeroDivisionError, ValueError):
            raise NonFiniteResultError(to_source(e), x) from None
        if not math.isfinite(r):
            raise NonFiniteResultError(to_source(e), x)
        return r
    if isinstance(e, Call):
        if e.func not in FUNCTIONS:
            raise ExprError(f"cannot evaluate function {e.func!r}")
        a = evaluate(e.arg, x)
        try:
            r = FUNCTIONS[e.func](a)
        except (OverflowError, ValueError):
            raise NonFiniteResultError(to_source(e), x) from None
        if not math.isfinite(r):
            raise NonFiniteResultError(to_source(e), x)
        return float(r)
    raise TypeError(f"not an Expr node: {e!r}")


_PREC_ATOM = 5


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[e.op]
    if isinstance(e, Neg):
        return 3
    return _PREC_ATOM


def to_source(e: Expr) -> str:
    """Canonical printer; parse(to_source(t)) reproduces the tree t."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Neg):
        s = to_source(e.operand)
        if _prec(e.operand) < 3:
            s = f"({s})"
        return "-" + s
    if isinstance(e, Call):
        return f"{e.func}({to_source(e.arg)})"
    if isinstance(e, BinOp):
        p = _prec(e)
        ls = to_source(e.left)
        rs = to_source(e.right)
        if e.op == "^":
            # right-associative: parenthesize an operator left operand;
            # the right side admits a bare unary chain
            if _prec(e.left) <= p:
                ls = f"({ls})"
            if _prec(e.right) < 3:
                rs = f"({rs})"
        else:
            if _prec(e.left) < p:
                ls = f"({ls})"
            if _prec(e.right) <= p:
                rs = f"({rs})"
        return f"{ls}{e.op}{rs}"
    raise TypeError(f"not an Expr node: {e!r}")


_OPERATORS = {"+": "{} + {}", "-": "{} - {}", "*": "{} * {}", "/": "{} / {}",
              "^": "pow({}, {})"}
_COMPILED: dict = {}
_COMPILED_MAX = 1024


def compile(e: Expr):
    """A function x -> evaluate(e, x), bitwise equal, raising the same errors.

    The generated source holds only generated names (x, xf, vK, cK), the
    operators + - * /, the helpers pow, isfinite, float, walk and errors,
    and the names of FUNCTIONS; literals are bound as constants, never
    formatted into it.  An operator outside + - * / ^ or a function outside
    FUNCTIONS is an ExprError here.  A tree without x is evaluated once
    instead.  Results are cached by the tree's repr, which, unlike tree
    equality, tells 0.0 from -0.0 and 1 from 1.0.
    """
    key = repr(e)
    f = _COMPILED.get(key)
    if f is None:
        if len(_COMPILED) >= _COMPILED_MAX:
            _COMPILED.clear()
        f = _COMPILED[key] = _build(e)
    return f


def _build(e: Expr):
    def walk(x):
        return evaluate(e, x)

    gen = _Codegen()
    result = gen.emit(e)
    if not gen.uses_x:  # constant: no code generation
        try:
            value = walk(0.0)
        except NonFiniteResultError:
            return walk
        return lambda x: value
    # The finite checks run after the last operation.  That is the same
    # decision as checking each node: an operation on a non-finite operand
    # either raises or yields a node that is itself checked, and on any
    # failure the walk runs and raises at the first bad node.
    body = "".join(f"        {line}\n" for line in gen.lines)
    ok = " and ".join(f"isfinite({v})" for v in gen.checked) or "True"
    src = ("def f(x):\n    try:\n        xf = float(x)\n" + body
           + f"        if {ok}:\n            return {result}\n"
           "    except errors:\n"
           "        pass\n    return walk(x)\n")
    namespace = {"__builtins__": {}, "float": float, "isfinite": math.isfinite,
                 "pow": math.pow, "walk": walk,
                 "errors": (ArithmeticError, ValueError, TypeError),
                 **FUNCTIONS, **gen.consts}
    exec(src, namespace)
    return namespace["f"]


class _Codegen:
    """Straight-line statements for a tree, operands before operators."""

    def __init__(self):
        self.lines: list[str] = []
        self.checked: list[str] = []  # BinOp and Call results, as evaluate checks
        self.consts: dict = {}
        self.uses_x = False

    def _assign(self, expr: str) -> str:
        name = f"v{len(self.lines)}"
        self.lines.append(f"{name} = {expr}")
        return name

    def emit(self, e: Expr) -> str:
        """Append the statements computing e; return the name that holds it."""
        if isinstance(e, Num):
            name = f"c{len(self.consts)}"
            self.consts[name] = e.value
            return name
        if isinstance(e, Var):
            self.uses_x = True
            return "xf"
        if isinstance(e, Neg):
            return self._assign(f"-{self.emit(e.operand)}")
        if isinstance(e, BinOp):
            if e.op not in _OPERATORS:
                raise ExprError(f"cannot compile operator {e.op!r}")
            a = self.emit(e.left)
            b = self.emit(e.right)
            name = self._assign(_OPERATORS[e.op].format(a, b))
        elif isinstance(e, Call):
            if e.func not in FUNCTIONS:
                raise ExprError(f"cannot compile function {e.func!r}")
            name = self._assign(f"float({e.func}({self.emit(e.arg)}))")
        else:
            raise TypeError(f"not an Expr node: {e!r}")
        self.checked.append(name)
        return name


def sample(e: Expr, xs) -> np.ndarray:
    """Evaluate e at every point of xs; raises on any non-finite value."""
    f = compile(e)
    return np.array([f(float(v)) for v in np.asarray(xs).ravel().tolist()])
