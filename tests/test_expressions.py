import math
import warnings

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
    ("t^(0^0.5)", 2.0, 0.0),           # the exponent's own derivative divides by zero
])
def test_derivative(text, t, dvalue):
    assert TimeFunction(text).dot(t) == pytest.approx(dvalue, rel=1e-12)


# float.hex of values and derivatives as a symbolic derivative tree gave
# them: the packaged motions, a seeded workload phase, one composite per rule.
@pytest.mark.parametrize("text,t,value,dvalue", [
    ("t", 0.0, "0x0.0p+0", "0x1.0000000000000p+0"),
    ("t", 0.37, "0x1.7ae147ae147aep-2", "0x1.0000000000000p+0"),
    ("t", 1.9, "0x1.e666666666666p+0", "0x1.0000000000000p+0"),
    ("0", 0.0, "0x0.0p+0", "0x0.0p+0"),
    ("0", 0.37, "0x0.0p+0", "0x0.0p+0"),
    ("0", 1.9, "0x0.0p+0", "0x0.0p+0"),
    ("0.2*t", 0.0, "0x0.0p+0", "0x1.999999999999ap-3"),
    ("0.2*t", 0.37, "0x1.2f1a9fbe76c8bp-4", "0x1.999999999999ap-3"),
    ("0.2*t", 1.9, "0x1.851eb851eb852p-2", "0x1.999999999999ap-3"),
    ("t + 0.1373", 0.0, "0x1.1930be0ded289p-3", "0x1.0000000000000p+0"),
    ("t + 0.1373", 0.37, "0x1.03bcd35a85879p-1", "0x1.0000000000000p+0"),
    ("t + 0.1373", 1.9, "0x1.04c63f141205cp+1", "0x1.0000000000000p+0"),
    ("sin(3*t) + 0.5*cos(t)^2 - t^3/6 + exp(t/4)", 0.0,
     "0x1.8000000000000p+0", "0x1.a000000000000p+1"),
    ("sin(3*t) + 0.5*cos(t)^2 - t^3/6 + exp(t/4)", 0.37,
     "0x1.359ace4d8c556p+1", "0x1.33ded4b64c48bp+0"),
    ("sin(3*t) + 0.5*cos(t)^2 - t^3/6 + exp(t/4)", 1.9,
     "-0x1.13163ce1df4a0p-5", "0x1.6835cb912848ap+0"),
    ("t/(1+t)", 0.0, "0x0.0p+0", "0x1.0000000000000p+0"),
    ("t/(1+t)", 0.37, "0x1.148e03bcbadc8p-2", "0x1.10ca4d1e282e9p-1"),
    ("t/(1+t)", 1.9, "0x1.4f72c234f72c2p-1", "0x1.e70a0b9132d5bp-4"),
    ("-(2*t)^3", 0.0, "-0x0.0p+0", "-0x0.0p+0"),
    ("-(2*t)^3", 0.37, "-0x1.9ef30a4e379b7p-2", "-0x1.a48e8a71de69ap+1"),
    ("-(2*t)^3", 1.9, "-0x1.b6f9db22d0e55p+5", "-0x1.5a8f5c28f5c29p+6"),
])
def test_value_and_derivative_bits(text, t, value, dvalue):
    fn = TimeFunction(text)
    assert (fn(t).hex(), fn.dot(t).hex()) == (value, dvalue)


@pytest.mark.parametrize("bad", [
    "", "2 +", "tan(t)", "x + 1", "(t", "3..5", "t t", "sin t", "^2",
    # Python forms outside the grammar
    "2**3", "+t", "1_0", "0x1F", "1j", "True", "t, t", "sin(x=t)", "t if t else 1", "sin",
    "1if t else 2", "sin()", "sin(^t)",
    "\uff54", "\u0661", "t\0",            # fullwidth t, Arabic-Indic one, NUL
    "(" * 300 + "t" + ")" * 300, "-" * 5000 + "t", "+".join(["t"] * 5000), "2^" * 3000 + "t",
])
def test_rejects_malformed(bad):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ExpressionError):
            parse(bad)
    assert not caught


@pytest.mark.parametrize("text,tree", [
    ("01", ("num", 1.0)),                       # leading zeros, refused by Python
    ("t-010", ("sub", ("t",), ("num", 10.0))),
    ("\f t", ("t",)),                           # any ASCII whitespace
    ("1e400", ("num", math.inf)),
    ("1e-05", ("num", 1e-05)),                   # the exponent's zero is not an integer
    ("1" * 5000, ("num", math.inf)),             # beyond Python's integer digit cap
])
def test_parse_tree(text, tree):
    assert parse(text) == tree


def _render(node):
    """Fully parenthesised source of a tuple tree."""
    kind = node[0]
    if kind == "num":
        return node[2]
    if kind == "t":
        return "t"
    if kind == "neg":
        return f"(-{_render(node[1])})"
    if kind == "call":
        return f"{node[1]}({_render(node[2])})"
    op = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}[kind]
    return f"({_render(node[1])}{op}{_render(node[2])})"


def _strip(node):
    """The tree parse returns: number leaves without their source text."""
    if node[0] == "num":
        return node[:2]
    return tuple(_strip(c) if isinstance(c, tuple) else c for c in node)


_LEAVES = st.one_of(
    st.just(("t",)),
    st.floats(0.0, allow_infinity=False).map(lambda v: ("num", v, repr(v))),
    st.integers(0, 10 ** 400).map(lambda v: ("num", float(repr(v)), repr(v))),
)
_TREES = st.recursive(_LEAVES, lambda sub: st.one_of(
    sub.map(lambda a: ("neg", a)),
    st.tuples(st.sampled_from(["add", "sub", "mul", "div", "pow"]), sub, sub),
    st.tuples(st.just("call"), st.sampled_from(["sin", "cos", "exp"]), sub),
), max_leaves=20)


@given(_TREES)
@settings(max_examples=300, deadline=None)
def test_parse_roundtrip(tree):
    assert parse(_render(tree)) == _strip(tree)


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
