import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speedlab import build_field, evaluate_expression, mean_and_symmetry, refine_field
from speedlab.errors import EvalError, ParseError

from conftest import field


def test_constant_expression_all_ones():
    f = build_field("1", 1.0, 1.0, 4, 4)
    assert np.all(f.values == 1.0)


def test_time_sine_sample_value():
    f = build_field("1 + 0.5*sin(2*pi*t)", 1.0, 1.0, 64, 2)
    j = 16  # t = 0.25
    assert f.values[j, 0] == pytest.approx(1.5, abs=1e-15)


def test_cosine_mean_is_zero_to_machine_precision():
    f = build_field("cos(2*pi*x)", 1.0, 1.0, 2, 64)
    mean, _ = mean_and_symmetry(f)
    assert abs(mean) < 1e-14


@pytest.mark.parametrize("expr,expected", [
    ("2 + 3*2^2", 14.0),
    ("2^3^2", 512.0),           # right-associative power
    ("-2^2", 4.0),              # unary minus binds before the power chain
    ("2^-1", 0.5),
    ("6/3/2", 1.0),             # left-associative division
    ("1 - 2 - 3", -4.0),
    ("pi", math.pi),
    ("e", math.e),
    ("exp(1)", math.e),
    ("abs(0-3.5)", 3.5),
    ("sin(pi/2)", 1.0),
    ("cos(0)", 1.0),
    ("1.5e2", 150.0),
    (".5 + 2.", 2.5),
    (" ( 1+ 2 ) *3 ", 9.0),
    pytest.param("1" + "+0" * 500, 1.0, id="500-term-left-deep-sum"),
    # a flat chain is folded as it is read, so its length meets no recursion
    pytest.param("1" + "+0" * 3000, 1.0, id="3000-term-left-deep-sum"),
])
def test_grammar_values(expr, expected):
    assert float(evaluate_expression(expr, 0.0, 0.0)) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("expr", [
    "1 +", "sin(", "(1", "foo(2)", "2 $", "", "x x",
    pytest.param("(" * 300 + "1" + ")" * 300, id="300-nested-parentheses"),
])
def test_parse_errors_carry_position(expr):
    with pytest.raises(ParseError):
        evaluate_expression(expr, 0.0, 0.0)


def test_eval_error_on_nonfinite():
    with pytest.raises(EvalError):
        build_field("1/x", 1.0, 1.0, 4, 4)  # x = 0 at the first node
    with pytest.raises(EvalError):
        build_field("(0-1)^0.5", 1.0, 1.0, 4, 4)


# grammar trees rendered as text: finite literals, variables, constants and
# every production of unary minus, function call, parentheses and binary op
_ATOMS = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(lambda v: repr(abs(v))),
    st.sampled_from(["t", "x", "pi", "e"]))


def _productions(inner):
    return st.one_of(
        inner.map(lambda a: f"-{a}"),
        st.builds(lambda f, a: f"{f}({a})", st.sampled_from(["sin", "cos", "exp", "abs"]), inner),
        inner.map(lambda a: f"({a})"),
        st.builds(lambda a, op, b: f"{a}{op}{b}", inner, st.sampled_from("+-*/^"), inner))


# constant divisions by zero are evaluated in float64, so they give inf or nan
# and an EvalError, as a grid node does, never a ZeroDivisionError
@example("1/0")
@example("0/0")
@example("1/(1-1)")
@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.recursive(_ATOMS, _productions, max_leaves=12))
def test_generated_expressions_give_finite_samples_or_a_documented_error(text):
    t = np.linspace(0.0, 1.0, 6)[:, None]
    x = np.linspace(0.0, 1.0, 5)[None, :]
    try:
        values = evaluate_expression(text, t, x)
    except (EvalError, ParseError):
        return
    assert values.shape == (6, 5)
    assert np.all(np.isfinite(values))


def test_mean_and_symmetry_examples():
    mean, rep = mean_and_symmetry(field("3", nt=8, nx=8))
    assert mean == 3.0
    assert rep.even_in_x and rep.x_independent

    mean, rep = mean_and_symmetry(field("1 + 0.5*sin(2*pi*t)", nt=64, nx=4))
    assert mean == pytest.approx(1.0, abs=1e-14)
    assert rep.even_in_x and rep.x_independent

    mean, rep = mean_and_symmetry(field("cos(2*pi*x)", nt=4, nx=64))
    assert abs(mean) < 1e-14
    assert rep.even_in_x and not rep.x_independent


def test_mean_invariant_under_reflection():
    # same multiset of samples; only the summation order differs
    f = field("1 + 0.4*sin(2*pi*x) + 0.2*cos(2*pi*t)", nt=16, nx=32)
    m1, _ = mean_and_symmetry(f)
    reflected = type(f)(f.omega, f.ell, f.values[:, (-np.arange(f.nx)) % f.nx])
    m2, _ = mean_and_symmetry(reflected)
    assert abs(m1 - m2) <= 1e-15 * max(1.0, abs(m1))


@pytest.mark.parametrize("k", [1, 2, 5, 15])
def test_pure_fourier_modes_average_to_zero(k):
    # periodic trapezoid rule is exact for modes below the Nyquist index
    fx = field(f"sin(2*pi*{k}*x)", nt=2, nx=64)
    ft = field(f"cos(2*pi*{k}*t)", nt=64, nx=2)
    assert abs(fx.values.mean()) < 1e-12
    assert abs(ft.values.mean()) < 1e-12


def test_field_arithmetic_and_grid_guard():
    a = field("1 + x", nt=4, nx=8)
    b = field("2*t", nt=4, nx=8)
    np.testing.assert_allclose((a + b).values, a.values + b.values)
    np.testing.assert_allclose((a - 0.5).values, a.values - 0.5)
    np.testing.assert_allclose((2.0 * a).values, 2.0 * a.values)
    np.testing.assert_allclose((1.0 - a).values, 1.0 - a.values)
    other = field("1", nt=8, nx=8)
    with pytest.raises(ValueError):
        _ = a + other
    # a composed field carries no expression, so it cannot be resampled
    composed = a + b
    assert composed.expr is None
    with pytest.raises(ValueError):
        refine_field(composed)


def test_refine_field_resamples_exactly():
    f = field("sin(2*pi*x)*cos(2*pi*t)", nt=8, nx=8)
    g = refine_field(f)
    assert g.nt == 16 and g.nx == 16
    np.testing.assert_allclose(g.values[::2, ::2], f.values, atol=1e-15)
    bare = f * 1.0  # arithmetic drops the expression
    with pytest.raises(ValueError):
        refine_field(bare)


def test_evaluate_interpolates_and_hits_nodes_exactly():
    f = field("1 + 0.5*sin(2*pi*t) + 0.25*cos(2*pi*x)", nt=32, nx=32)
    t = 5 * (1.0 / 32)
    x = np.arange(32) * (1.0 / 32)
    np.testing.assert_allclose(f.evaluate(t, x), f.values[5], atol=1e-15)
    # periodic wrap
    np.testing.assert_allclose(f.evaluate(t + 3.0, x + 2.0), f.values[5], atol=1e-12)
