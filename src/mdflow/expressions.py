"""Arithmetic expressions of t for the run-configuration file.

Grammar: numbers, the variable t, + - * / ^ with the usual precedence
(^ binds tightest, right associative), parentheses, unary minus, and the
functions sin, cos, exp.  Expressions are differentiated symbolically so
motions built from a config get analytic time derivatives; exponents must
be constant for that reason.
"""

from __future__ import annotations

import math


class ExpressionError(ValueError):
    """Malformed expression, with the offending position in the message."""


class EvaluationError(FloatingPointError):
    """A well-formed expression has no finite real value at some time,
    e.g. 1/t at t = 0 or exp(t) past overflow."""


_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append((c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_e = False
            while j < n and (text[j].isdigit() or text[j] == "."
                             or text[j] in "eE"
                             or (seen_e and text[j] in "+-" and text[j - 1] in "eE")):
                if text[j] in "eE":
                    seen_e = True
                j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionError(f"bad number {text[i:j]!r} at column {i + 1}") from None
            tokens.append(("num", i, value))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            name = text[i:j]
            if name == "t":
                tokens.append(("t", i))
            elif name in _FUNCTIONS:
                tokens.append(("func", i, name))
            else:
                raise ExpressionError(f"unknown name {name!r} at column {i + 1}")
            i = j
            continue
        raise ExpressionError(f"unexpected character {c!r} at column {i + 1}")
    tokens.append(("end", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExpressionError(
                f"expected {kind!r} at column {tok[1] + 1} of {self.text!r}")
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionError(f"trailing input at column {tok[1] + 1}")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def factor(self):
        # exponentiation binds tighter than unary minus: -t^2 = -(t^2)
        if self.peek()[0] == "-":
            self.next()
            return ("neg", self.factor())
        base = self.primary()
        if self.peek()[0] == "^":
            self.next()
            expo = self.factor()  # right associative
            return ("pow", base, expo)
        return base

    def primary(self):
        tok = self.next()
        kind = tok[0]
        if kind == "num":
            return ("num", tok[2])
        if kind == "t":
            return ("t",)
        if kind == "func":
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return ("call", tok[2], arg)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExpressionError(f"unexpected token at column {tok[1] + 1} of {self.text!r}")


def parse(text: str):
    """Parse to an AST; raises ExpressionError with a column position."""
    if not text.strip():
        raise ExpressionError("empty expression")
    return _Parser(text).parse()


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
