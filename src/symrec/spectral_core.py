"""Band-limited function representation and quadrature.

Functions are carried by their Fourier samples on a bounded frequency
window with a uniform midpoint grid (exact for wave packets, whose
transforms are compactly supported).  Inner products are midpoint
quadratures; the Fourier convention is the unitary one,

    fhat(xi) = (2*pi)^(-d/2) * integral exp(-i*xi*x) f(x) dx,

so that the L2 norms of a function and its transform coincide.

Two patches on incommensurate grids are integrated by resampling the
second onto the first grid: exactly when the patch carries an analytic
sampler, otherwise by truncated-sinc (band-limited) interpolation with
a kernel half-width of 8 samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError

TWO_PI = 2.0 * np.pi

#: Half-width, in samples, of the truncated interpolation kernel.
SINC_HALF_WIDTH = 8


@dataclass(frozen=True)
class JapaneseBracketWeight:
    """Sobolev weight (1 + |xi|^2)^beta."""

    beta: float = 0.0

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        if self.beta == 0.0:
            return np.ones_like(np.asarray(xi, dtype=float))
        return (1.0 + np.asarray(xi, dtype=float) ** 2) ** self.beta


@dataclass(frozen=True)
class FrequencyWindow:
    """Uniform midpoint grid on [center - half_width, center + half_width].

    Grid points are xi_n = center - half_width + (n + 1/2) * dxi for
    n = 0 .. num_points - 1 with dxi = 2 * half_width / num_points.
    """

    center: float
    half_width: float
    num_points: int

    def __post_init__(self):
        if self.num_points < 2:
            raise ValueError("spectral_core: window needs num_points >= 2")
        if not (self.half_width > 0.0):
            raise ValueError("spectral_core: window half_width must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.num_points

    @property
    def start(self) -> float:
        return self.center - self.half_width

    @property
    def stop(self) -> float:
        return self.center + self.half_width

    def grid(self) -> np.ndarray:
        return self.start + (np.arange(self.num_points) + 0.5) * self.spacing


@dataclass(frozen=True)
class SpectralPatch:
    """Fourier samples of a function on a bounded window.

    ``sampler``, when present, evaluates the underlying transform at
    arbitrary frequencies and makes cross-grid integration exact.
    """

    window: FrequencyWindow
    values: np.ndarray
    dim: int = 1
    sampler: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.window.num_points,):
            raise ValueError("spectral_core: values length must match the window grid")
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("spectral_core: patch values must be finite")
        object.__setattr__(self, "values", values)


def l2_norm(patch: SpectralPatch) -> float:
    return float(np.sqrt(max(inner_product_l2(patch, patch).real, 0.0)))


def _aligned_shift(f: SpectralPatch, g: SpectralPatch) -> Optional[int]:
    """Integer grid offset of g relative to f, or None if incommensurate."""
    df, dg = f.window.spacing, g.window.spacing
    if abs(df - dg) > 1e-12 * max(df, dg):
        return None
    first_f = f.window.start + 0.5 * df
    first_g = g.window.start + 0.5 * dg
    shift = (first_g - first_f) / df
    rounded = round(shift)
    if abs(shift - rounded) > 1e-9:
        return None
    return int(rounded)


def _resample_values(g: SpectralPatch, xi: np.ndarray) -> np.ndarray:
    """Values of g at frequencies xi, zero outside g's window."""
    if g.sampler is not None:
        out = np.asarray(g.sampler(xi), dtype=complex)
        inside = (xi > g.window.start) & (xi < g.window.stop)
        return np.where(inside, out, 0.0)

    dxi = g.window.spacing
    u = (xi - (g.window.start + 0.5 * dxi)) / dxi
    offsets = np.arange(-SINC_HALF_WIDTH, SINC_HALF_WIDTH + 1)
    base = np.floor(u).astype(int)
    idx = base[:, None] + offsets[None, :]
    valid = (idx >= 0) & (idx < g.window.num_points)
    kernel = np.sinc(u[:, None] - idx)
    vals = np.where(valid, g.values[np.clip(idx, 0, g.window.num_points - 1)], 0.0)
    out = np.sum(kernel * vals, axis=1)
    inside = (xi > g.window.start) & (xi < g.window.stop)
    return np.where(inside, out, 0.0)


def inner_product_sobolev(
    f: SpectralPatch, g: SpectralPatch, weight: JapaneseBracketWeight
) -> complex:
    """(f|g)_beta = integral (1+|xi|^2)^beta conj(fhat) ghat dxi.

    Conjugate-linear in the first argument.  Each patch is treated as zero
    outside its window; disjoint windows give exactly zero.
    """
    if f.dim != g.dim:
        raise ValueError("spectral_core: patches have mismatched dim")
    lo = max(f.window.start, g.window.start)
    hi = min(f.window.stop, g.window.stop)
    if lo >= hi:
        return 0.0 + 0.0j

    shift = _aligned_shift(f, g)
    if shift is not None:
        # Both grids are sub-grids of one lattice; g's point j is f's point
        # j + shift, so f indices [max(0, shift), min(Nf, Ng + shift)) overlap.
        a = max(0, shift)
        b = min(f.window.num_points, g.window.num_points + shift)
        if b <= a:
            return 0.0 + 0.0j
        xi = f.window.grid()[a:b]
        fv = f.values[a:b]
        gv = g.values[a - shift : b - shift]
        acc = np.conj(fv) * gv
        if weight.beta != 0.0:
            acc = acc * weight(xi)
        return complex(np.sum(acc) * f.window.spacing)

    xi = f.window.grid()
    mask = (xi > lo) & (xi < hi)
    if not np.any(mask):
        return 0.0 + 0.0j
    xi = xi[mask]
    gv = _resample_values(g, xi)
    acc = np.conj(f.values[mask]) * gv
    if weight.beta != 0.0:
        acc = acc * weight(xi)
    return complex(np.sum(acc) * f.window.spacing)


_L2 = JapaneseBracketWeight(0.0)


def inner_product_l2(f: SpectralPatch, g: SpectralPatch) -> complex:
    return inner_product_sobolev(f, g, _L2)


def evaluate_physical(
    f: SpectralPatch, x: np.ndarray, chunk: int = 1024
) -> np.ndarray:
    """Evaluate f at physical points: (2*pi)^(-1/2) sum exp(i*x*xi) fhat dxi."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError("spectral_core: evaluation points must be finite")
    xi = f.window.grid()
    w = f.values * f.window.spacing / np.sqrt(TWO_PI)
    out = np.empty(x.shape, dtype=complex)
    for i in range(0, x.size, chunk):
        block = x[i : i + chunk]
        out[i : i + chunk] = np.exp(1j * np.outer(block, xi)) @ w
    return out


def physical_norm(f: SpectralPatch, x: np.ndarray) -> float:
    """Midpoint L2 norm of f on a uniform physical grid (Plancherel check)."""
    x = np.asarray(x, dtype=float)
    dx = x[1] - x[0]
    vals = evaluate_physical(f, x)
    return float(np.sqrt(np.sum(np.abs(vals) ** 2) * dx))


def require_tail_small(
    envelope: np.ndarray, tol: float, context: str
) -> None:
    """Signal when quadrature-domain truncation leaves a visible tail."""
    peak = float(np.max(np.abs(envelope)))
    if peak == 0.0:
        return
    edge = max(abs(envelope[0]), abs(envelope[-1])) / peak
    if edge > tol:
        raise NumericalError(
            f"{context}: truncation tail {edge:.2e} exceeds tolerance {tol:.1e}"
        )
