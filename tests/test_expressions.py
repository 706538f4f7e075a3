import numpy as np
import pytest

from symrec.expressions import CoeffExpr, ExpressionError, parse_coeff


def test_constants_and_arithmetic():
    assert parse_coeff("2")(0.0) == 2.0
    assert parse_coeff("1 + 2*3")(5.0) == 7.0
    assert parse_coeff("2*(1 + 3)")(0.0) == 8.0
    assert parse_coeff("-1.5e-2")(0.0) == -0.015
    assert parse_coeff("4 - 1 - 1")(0.0) == 2.0


def test_variable_and_functions():
    x = np.linspace(-2, 2, 11)
    expr = parse_coeff("1 + 0.5*sin(x) - 0.25*cos(2*x) + exp(-x**2)")
    expected = 1 + 0.5 * np.sin(x) - 0.25 * np.cos(2 * x) + np.exp(-(x ** 2))
    np.testing.assert_allclose(expr(x), expected, rtol=1e-14)


def test_powers():
    x = np.linspace(0.1, 3, 7)
    np.testing.assert_allclose(parse_coeff("x^2")(x), x ** 2)
    np.testing.assert_allclose(parse_coeff("x**3")(x), x ** 3)
    np.testing.assert_allclose(parse_coeff("(1 + x)**-1")(x), 1 / (1 + x))
    np.testing.assert_allclose(parse_coeff("((1 + x)^2)^-1.5 * 2^3")(x), (1 + x) ** -3 * 8)
    # every power, nested ones too, goes through np.power: inf, not OverflowError
    nested = CoeffExpr("(10^400)^0.5 * (2^-1)^1")
    assert nested(0.0) == np.inf


@pytest.mark.parametrize(
    "bad",
    [
        "", "1 +", "foo(x)", "x x", "sin x", "(1 + 2", "x ** y", "1 / 2",
        # Python syntax outside the grammar
        "+x", "x**+2", "x**2**3", "x**(1+1)", "True", "1j", "sin(x, 1)", "sin(x=1)",
        "x.real", "x[0]", "lambda: 1", "x if x else 1", "x < 1", '__import__("os")',
    ],
)
def test_rejects_malformed(bad):
    with pytest.raises(ExpressionError):
        parse_coeff(bad)
