"""Not-a-knot cubic interpolation, without ``scipy.interpolate``.

``not_a_knot`` is ``scipy.interpolate.CubicSpline``'s default branch for
four or more points: the same tridiagonal system for the slopes, with the
same not-a-knot edge rows, solved by one ``scipy.linalg.solve_banded`` call.
It returns the breaks and the piecewise coefficients in ``PPoly`` layout:
on interval m, the value at d = x - breaks[m] is
sum_q coefs[3 - q, m] d^q.  Trailing axes of the data carry through, so
one call interpolates many data vectors on one grid.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def not_a_knot(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Breaks and coefficients of the not-a-knot cubic through (x, y[i]).

    The grid need not be sorted; it must hold at least four distinct,
    finite points, and the data must be finite.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    y = y.astype(complex if np.iscomplexobj(y) else float)
    if x.ndim != 1 or x.size < 4 or y.ndim < 1 or y.shape[0] != x.size:
        raise ValueError(
            "splines: need a 1-d grid of at least 4 points with one datum each"
        )
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("splines: grid and data must be finite")
    order = np.argsort(x, kind="stable")
    x, y = x[order], y[order]
    dx = np.diff(x)
    if np.any(dx <= 0.0):
        raise ValueError("splines: grid points must be distinct")

    n = x.size
    dxr = dx.reshape(dx.shape + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    ab = np.zeros((3, n))
    b = np.empty(y.shape, dtype=y.dtype)
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    # not-a-knot: the third derivative is continuous at x[1] and x[-2]
    d = x[2] - x[0]
    ab[1, 0] = dx[1]
    ab[0, 1] = d
    b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    ab[1, -1] = dx[-2]
    ab[-1, -2] = d
    b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
    s = scipy.linalg.solve_banded(
        (1, 1), ab, b.reshape(n, -1), overwrite_ab=True, overwrite_b=True,
        check_finite=False,
    ).reshape(b.shape)

    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    coefs = np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))
    return x, coefs


def evaluate(breaks: np.ndarray, coefs: np.ndarray, x) -> np.ndarray:
    """The piecewise cubic at x (shape x.shape plus the data's trailing
    axes); the end pieces extend beyond the breaks."""
    x = np.asarray(x, dtype=float)
    m = np.clip(np.searchsorted(breaks, x, side="right") - 1, 0, breaks.size - 2)
    d = (x - breaks[m]).reshape(x.shape + (1,) * (coefs.ndim - 2))
    c = coefs[:, m]
    # the sum order of scipy's PPoly, lowest power first
    return c[3] + c[2] * d + c[1] * (d * d) + c[0] * (d * d * d)
