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

`evaluate` walks the tree at one point and is the reference.  `sample`
walks it once over an array of points, with the same float operations per
point, and falls back to `evaluate` point by point on any failure, so both
return the same bits and raise the same errors.
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
    hold one) raises ExprError.
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


_OPERATORS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
              "^": np.frompyfunc(math.pow, 2, 1)}
_ELEMENTWISE = {name: np.frompyfunc(f, 1, 1) for name, f in FUNCTIONS.items()}


def sample(e: Expr, xs) -> np.ndarray:
    """evaluate(e, x) at every point x of xs, raveled, as a new array.

    One walk of the tree over the whole array: + - * / and negation are
    float64 ufuncs, which round each element as the Python float operation
    does, and the functions and pow run per element.  When a node raises,
    or a BinOp or Call node holds a non-finite value, `evaluate` runs point
    by point in xs order instead, so the bits and the error (type, source
    and x) are those of the first failing point.  So does a hand-built tree
    with an int literal or an operator or function the language lacks.
    """
    pts = np.asarray(xs, dtype=float).ravel()
    try:
        with np.errstate(all="ignore"):
            return np.array(np.broadcast_to(_sample_tree(e, pts), pts.shape))
    except (ArithmeticError, LookupError, TypeError, ValueError):
        return np.array([evaluate(e, x) for x in pts.tolist()])


def _sample_tree(e: Expr, pts: np.ndarray):
    """e over pts, an array, or a value for a tree without x; raises where
    `evaluate` would at some point, and on a literal that is not a float,
    whose type `evaluate` keeps."""
    if isinstance(e, Num):
        if not isinstance(e.value, float):
            raise TypeError
        return e.value
    if isinstance(e, Var):
        return pts
    if isinstance(e, Neg):
        return np.negative(_sample_tree(e.operand, pts))
    if isinstance(e, BinOp):
        r = _OPERATORS[e.op](_sample_tree(e.left, pts), _sample_tree(e.right, pts))
    elif isinstance(e, Call):
        r = _ELEMENTWISE[e.func](_sample_tree(e.arg, pts))
    else:
        raise TypeError
    r = np.asarray(r, dtype=float)
    if not np.isfinite(r).all():
        raise FloatingPointError
    return r
