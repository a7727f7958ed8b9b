import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdflow.expressions import (
    EvaluationError,
    ExpressionError,
    TimeFunction,
    evaluate,
    parse,
)


@pytest.mark.parametrize("text,t,value", [
    ("0.2*t", 1.5, 0.3),
    ("1 + 2*3", 0.0, 7.0),
    ("2^3^2", 0.0, 512.0),            # right associative
    ("-t^2", 2.0, -4.0),              # unary minus binds looser than ^
    ("sin(t)*cos(t)", 0.9, math.sin(0.9) * math.cos(0.9)),
    ("exp(-t/2)", 1.0, math.exp(-0.5)),
    ("1e-3*t + 2.5E2", 2.0, 0.002 + 250.0),
    ("(1+t)*(1-t)", 0.5, 0.75),
])
def test_evaluate(text, t, value):
    assert evaluate(parse(text), t) == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize("text,t,dvalue", [
    ("0.2*t", 3.0, 0.2),
    ("t^3", 2.0, 12.0),
    ("sin(2*t)", 0.4, 2 * math.cos(0.8)),
    ("cos(t)^2", 0.3, -2 * math.cos(0.3) * math.sin(0.3)),
    ("t/(1+t)", 1.0, 0.25),
    ("exp(t^2)", 0.5, math.exp(0.25)),
])
def test_derivative(text, t, dvalue):
    assert TimeFunction(text).dot(t) == pytest.approx(dvalue, rel=1e-12)


@pytest.mark.parametrize("bad", [
    "", "2 +", "tan(t)", "x + 1", "(t", "3..5", "t t", "sin t", "^2",
])
def test_rejects_malformed(bad):
    with pytest.raises(ExpressionError):
        parse(bad)


@pytest.mark.parametrize("text,t", [
    ("1/t", 0.0),               # division by zero
    ("exp(1000*t)", 1.0),       # overflow
    ("1e308*10*t", 1.0),        # silent overflow to inf
    ("(t - 1)^0.5", 0.0),       # complex power
    ("sin(1e308*10*t)", 1.0),   # math domain error
    ("t^0.5", 0.0),             # finite value, derivative divides by zero
])
def test_no_finite_value_raises_evaluation_error(text, t):
    fn = TimeFunction(text)
    with pytest.raises(EvaluationError, match=r"t = "):
        fn(t)
        fn.dot(t)
    assert issubclass(EvaluationError, FloatingPointError)


def test_nonconstant_exponent_rejected_at_derivative():
    fn = parse("t^t")
    assert evaluate(fn, 2.0) == 4.0
    with pytest.raises(ExpressionError, match="constant"):
        TimeFunction("t^t").dot(1.0)


@given(st.floats(-2.0, 2.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_derivative_matches_finite_difference(t):
    fn = TimeFunction("sin(3*t) + 0.5*cos(t)^2 - t^3/6 + exp(t/4)")
    h = 1e-6
    fd = (fn(t + h) - fn(t - h)) / (2 * h)
    assert fn.dot(t) == pytest.approx(fd, rel=1e-6, abs=1e-7)


@given(st.integers(-5, 5), st.integers(1, 4), st.floats(0.1, 1.9))
@settings(max_examples=50, deadline=None)
def test_polynomial_roundtrip(c, p, t):
    fn = TimeFunction(f"{c}*t^{p}")
    assert fn(t) == pytest.approx(c * t ** p, rel=1e-13)
    assert fn.dot(t) == pytest.approx(c * p * t ** (p - 1), rel=1e-12)
