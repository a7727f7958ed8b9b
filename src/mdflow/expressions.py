"""Arithmetic expressions of t for the run-configuration file.

Grammar: numbers, the variable t, + - * / ^ with the usual precedence
(^ binds tightest, right associative), parentheses, unary minus, and the
functions sin, cos, exp.  Expressions are ASCII.  They are parsed by
Python's own parser with ^ read as **, and only the nodes of this grammar
are kept; the result is a tuple tree.  Expressions are differentiated
symbolically so motions built from a config get analytic time
derivatives; exponents must be constant for that reason.
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


_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
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


def evaluate(node, t: float) -> float:
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "t":
        return t
    if kind == "neg":
        return -evaluate(node[1], t)
    if kind == "add":
        return evaluate(node[1], t) + evaluate(node[2], t)
    if kind == "sub":
        return evaluate(node[1], t) - evaluate(node[2], t)
    if kind == "mul":
        return evaluate(node[1], t) * evaluate(node[2], t)
    if kind == "div":
        return evaluate(node[1], t) / evaluate(node[2], t)
    if kind == "pow":
        return evaluate(node[1], t) ** evaluate(node[2], t)
    if kind == "call":
        return _FUNCTIONS[node[1]](evaluate(node[2], t))
    raise AssertionError(f"unknown node {kind}")


def _is_constant(node) -> bool:
    kind = node[0]
    if kind == "num":
        return True
    if kind == "t":
        return False
    if kind in ("neg",):
        return _is_constant(node[1])
    if kind in ("add", "sub", "mul", "div", "pow"):
        return _is_constant(node[1]) and _is_constant(node[2])
    if kind == "call":
        return _is_constant(node[2])
    raise AssertionError(f"unknown node {kind}")


def derivative(node):
    """Symbolic d/dt; exponents must be constant."""
    kind = node[0]
    if kind == "num":
        return ("num", 0.0)
    if kind == "t":
        return ("num", 1.0)
    if kind == "neg":
        return ("neg", derivative(node[1]))
    if kind == "add":
        return ("add", derivative(node[1]), derivative(node[2]))
    if kind == "sub":
        return ("sub", derivative(node[1]), derivative(node[2]))
    if kind == "mul":
        return ("add",
                ("mul", derivative(node[1]), node[2]),
                ("mul", node[1], derivative(node[2])))
    if kind == "div":
        return ("div",
                ("sub",
                 ("mul", derivative(node[1]), node[2]),
                 ("mul", node[1], derivative(node[2]))),
                ("mul", node[2], node[2]))
    if kind == "pow":
        if not _is_constant(node[2]):
            raise ExpressionError("exponent must be constant to differentiate")
        expo = node[2]
        return ("mul",
                ("mul", expo, ("pow", node[1], ("sub", expo, ("num", 1.0)))),
                derivative(node[1]))
    if kind == "call":
        name, arg = node[1], node[2]
        inner = derivative(arg)
        if name == "sin":
            return ("mul", ("call", "cos", arg), inner)
        if name == "cos":
            return ("neg", ("mul", ("call", "sin", arg), inner))
        if name == "exp":
            return ("mul", ("call", "exp", arg), inner)
    raise AssertionError(f"unknown node {kind}")


class TimeFunction:
    """Compiled scalar function of t with its analytic derivative.

    Evaluation either returns a finite float or raises EvaluationError."""

    def __init__(self, text: str):
        self.text = text
        try:
            self.ast = parse(text)
            self.dast = derivative(self.ast)
        except RecursionError:
            raise ExpressionError(f"expression {text!r} is nested too deeply") from None

    def __call__(self, t: float) -> float:
        return self._value(self.ast, t, "")

    def dot(self, t: float) -> float:
        return self._value(self.dast, t, "the derivative of ")

    def _value(self, node, t: float, what: str) -> float:
        try:
            value = evaluate(node, t)
        except (ArithmeticError, ValueError, RecursionError) as exc:
            raise EvaluationError(
                f"{what}{self.text!r} cannot be evaluated at t = {t!r}: {exc}") from None
        if isinstance(value, complex) or not math.isfinite(value):
            raise EvaluationError(f"{what}{self.text!r} is {value!r} at t = {t!r}")
        return value

    def __repr__(self):
        return f"TimeFunction({self.text!r})"
