import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from symrec.measurement_recovery import TabulatedCoeff
from symrec.splines import evaluate, not_a_knot


def _close(a, b, rel=1e-13):
    return np.max(np.abs(a - b)) <= rel * max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("n", [4, 5, 33, 16384])
@pytest.mark.parametrize("kind", ["real", "complex", "cardinals"])
def test_matches_scipy_cubic_spline(n, kind, rng):
    x = np.sort(rng.uniform(-1.0, 1.0, n))
    if kind == "real":
        y = rng.standard_normal(n)
    elif kind == "complex":
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:  # the np.eye data of the cardinal splines, one column per point
        y = np.eye(n) if n <= 64 else np.eye(n)[:, :: n // 16]
    shuffle = rng.permutation(n)
    breaks, coefs = not_a_knot(x[shuffle], y[shuffle])

    ref = CubicSpline(x, y)
    np.testing.assert_array_equal(breaks, ref.x)
    assert coefs.shape == ref.c.shape
    assert _close(coefs, ref.c)
    at = np.concatenate([x, rng.uniform(-1.2, 1.2, 200)])
    assert _close(evaluate(breaks, coefs, at), ref(at))


def test_tabulated_coeff_reads_the_helper(rng):
    x = np.array([0.5, -0.5, 0.25, 0.0, -0.25])
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    coeff = TabulatedCoeff(x, v)
    order = np.argsort(x)
    ref = CubicSpline(x[order], v[order])
    at = np.linspace(-0.75, 0.75, 31)
    assert _close(coeff(at), ref(np.clip(at, -0.5, 0.5)))
    # clipped beyond the hull
    assert coeff(np.array([9.0]))[0] == pytest.approx(v[0], rel=1e-13)


@pytest.mark.parametrize(
    "x",
    [
        [0.0, 1.0, 2.0],                # fewer than 4 points
        [0.0, 1.0, 1.0, 2.0],           # a repeated point
        [2.0, 0.0, 1.0, 0.0, 3.0],      # a repeated point, unsorted
        [0.0, 1.0, np.nan, 2.0],
    ],
)
def test_bad_grid_raises_value_error(x):
    with pytest.raises(ValueError, match="splines:"):
        not_a_knot(x, np.ones(len(x)))


def test_nonfinite_data_raises_value_error():
    with pytest.raises(ValueError, match="finite"):
        not_a_knot([0.0, 1.0, 2.0, 3.0], [0.0, np.inf, 1.0, 2.0])
