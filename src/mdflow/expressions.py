"""Arithmetic expressions of t for the run-configuration file.

Grammar: numbers, the variable t, + - * / ^ with the usual precedence
(^ binds tightest, right associative), parentheses, unary minus, and the
functions sin, cos, exp.  Expressions are ASCII.  They are parsed by
Python's own parser with ^ read as **, and only the nodes of this grammar
are kept; the result is a tuple tree.  One walk of that tree gives a
value and, when asked, its exact time derivative (forward
differentiation), so motions built from a config get analytic time
derivatives.  The power rule takes the exponent as a constant, so an
exponent must be free of t.  A value that is not a finite real number,
such as 1/0 or (-1)^0.5, is an EvaluationError.
"""

from __future__ import annotations

import ast
import math
import re
import warnings


class ExpressionError(ValueError):
    """Malformed expression; the message names the offending piece."""


class EvaluationError(FloatingPointError):
    """A well-formed expression has no finite real value at some time,
    e.g. 1/t at t = 0 or exp(t) past overflow."""


# each function with its derivative
_FUNCTIONS = {"sin": (math.sin, math.cos), "cos": (math.cos, lambda v: -math.sin(v)),
              "exp": (math.exp, math.exp)}
_BINARY = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div", ast.Pow: "pow"}
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
# an integer literal, not the exponent of a float
_INTEGER = re.compile(r"(?<![\w.])(?<![eE][+-])(\d+)(?![\w.])")


def parse(text: str):
    """Parse to a tuple tree; raises ExpressionError naming the fault."""
    if not text.strip():
        raise ExpressionError("empty expression")
    for c in text:
        if not (c.isascii() and (c.isalnum() or c.isspace() or c in "+-*/^().")):
            raise ExpressionError(f"unexpected character {c!r} in {text!r}")
    if "**" in text:
        raise ExpressionError(f"'**' in {text!r}: write powers with ^")
    # Each integer becomes a float literal, so Python neither refuses its
    # leading zeros nor caps its digits; each whitespace run becomes a space.
    src = _INTEGER.sub(r"\1e0", " ".join(text.split())).replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # e.g. "1if": a SyntaxError, not noise
            return _convert(ast.parse(src, mode="eval").body, src)
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):
        raise ExpressionError(f"expression {text!r} is nested too deeply") from None


def _convert(node, src: str):
    if isinstance(node, ast.Constant):
        piece = src[node.col_offset:node.end_col_offset]
        if _NUMBER.fullmatch(piece):
            return ("num", float(piece))
    elif isinstance(node, ast.Name) and node.id == "t":
        return ("t",)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return ("neg", _convert(node.operand, src))
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return (_BINARY[type(node.op)], _convert(node.left, src), _convert(node.right, src))
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in _FUNCTIONS and len(node.args) == 1):
        return ("call", node.func.id, _convert(node.args[0], src))
    piece = re.sub(r"(\d)e0\b", r"\1", src[node.col_offset:node.end_col_offset])
    piece = piece.replace("**", "^")
    raise ExpressionError(f"{piece!r} is not an expression of the grammar")


def evaluate(node, t: float, dot: bool = False):
    """The value of the tree at t or, with dot, the pair (value, d/dt)."""
    value, derivative = _forward(node, t, dot)
    return (value, derivative) if dot else value


def _forward(node, t: float, dot: bool):
    """(value, d/dt) of a tree in one walk, d/dt None unless dot.  Each rule
    keeps its written order (d(ab) = da*b + a*db), whose bits tests pin."""
    kind = node[0]
    if kind == "num":
        return node[1], 0.0
    if kind == "t":
        return t, 1.0
    a, da = _forward(node[-1] if kind == "call" else node[1], t, dot)
    if kind == "neg":
        return -a, -da if dot else None
    if kind == "call":
        f, df = _FUNCTIONS[node[1]]
        return f(a), df(a) * da if dot else None
    b, db = _forward(node[2], t, dot and kind != "pow")   # an exponent's is never needed
    if kind == "add":
        return a + b, da + db if dot else None
    if kind == "sub":
        return a - b, da - db if dot else None
    if kind == "mul":
        return a * b, da * b + a * db if dot else None
    if kind == "div":
        return a / b, (da * b - a * db) / (b * b) if dot else None
    if kind == "pow":
        value = a ** b
        if isinstance(value, complex):
            raise ValueError(f"({a!r})^{b!r} is not a real number")
        return value, b * a ** (b - 1.0) * da if dot else None
    raise AssertionError(f"unknown node {kind}")


def _nodes(node):
    yield node
    for child in node[1:]:
        if isinstance(child, tuple):
            yield from _nodes(child)


class TimeFunction:
    """Compiled scalar function of t with its analytic derivative.

    Evaluation either returns a finite float or raises EvaluationError."""

    def __init__(self, text: str):
        self.text = text
        try:
            self.ast = parse(text)
            if any(n[0] == "pow" and ("t",) in _nodes(n[2]) for n in _nodes(self.ast)):
                raise ExpressionError("exponent must be constant to differentiate")
        except RecursionError:
            raise ExpressionError(f"expression {text!r} is nested too deeply") from None

    def __call__(self, t: float) -> float:
        return self._value(t, False)

    def dot(self, t: float) -> float:
        return self._value(t, True)

    def _value(self, t: float, dot: bool) -> float:
        what = "the derivative of " if dot else ""
        try:
            value = evaluate(self.ast, t, True)[1] if dot else evaluate(self.ast, t)
        except (ArithmeticError, ValueError, RecursionError) as exc:
            raise EvaluationError(
                f"{what}{self.text!r} cannot be evaluated at t = {t!r}: {exc}") from None
        if not math.isfinite(value):
            raise EvaluationError(f"{what}{self.text!r} is {value!r} at t = {t!r}")
        return value

    def __repr__(self):
        return f"TimeFunction({self.text!r})"
