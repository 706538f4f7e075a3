"""Independent reference quadratures for the tests.

Functions are carried by their Fourier samples on a bounded frequency
window with a uniform midpoint grid (exact for wave packets, whose
transforms are compactly supported).  Inner products are midpoint
quadratures; the Fourier convention is the unitary one,

    fhat(xi) = (2*pi)^(-d/2) * integral exp(-i*xi*x) f(x) dx,

so that the L2 norms of a function and its transform coincide.  Two
patches are integrated on a shared lattice, or by resampling the second
onto the first grid through its analytic sampler.

None of this is on the package's measurement path: it certifies the
packet quadratures (``packet_quadratic_form``), the packet norms and the
overlap decay by an independent route, the generic nested quadrature
(f|Pf) on a physical grid among them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.integrate import simpson

from symrec.errors import NumericalError
from symrec.noise_engine import JapaneseBracketWeight
from symrec.symbols import SymbolExpansion
from symrec.wave_packets import (
    _CHI_SCAN_MAX, _CHI_SCAN_POINTS, TWO_PI, WavePacketFamily, lattice_spacing_for,
)


@lru_cache(maxsize=None)
def support_radius_and_chi0(profile) -> tuple:
    """The profile's support radius and chi(0), both from ``_chi_exact`` on
    the profile's coarse radius scan: the radius is one scan step past the
    last point where |chi| exceeds 1e-10 chi(0)."""
    scan = np.linspace(0.0, _CHI_SCAN_MAX, _CHI_SCAN_POINTS)
    chi = profile._chi_exact(scan)
    last = np.nonzero(np.abs(chi) > 1e-10 * abs(chi[0]))[0][-1]
    return float(scan[last]) + scan[1], float(chi[0])


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
            raise ValueError("reference_quadrature: window needs num_points >= 2")
        if not (self.half_width > 0.0):
            raise ValueError("reference_quadrature: window half_width must be positive")

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
    sampler: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.window.num_points,):
            raise ValueError("reference_quadrature: values length must match the window grid")
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("reference_quadrature: patch values must be finite")
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
    if g.sampler is None:
        raise ValueError(
            "reference_quadrature: a patch off the shared lattice needs a sampler"
        )
    out = np.asarray(g.sampler(xi), dtype=complex)
    inside = (xi > g.window.start) & (xi < g.window.stop)
    return np.where(inside, out, 0.0)


def inner_product_sobolev(
    f: SpectralPatch, g: SpectralPatch, weight: JapaneseBracketWeight
) -> complex:
    """(f|g)_beta = integral (1+|xi|^2)^beta conj(fhat) ghat dxi.

    Conjugate-linear in the first argument.  Each patch is treated as zero
    outside its window; disjoint windows give exactly zero.
    """
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
        raise ValueError("reference_quadrature: evaluation points must be finite")
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


# ---------------------------------------------------------------------------
# Packets
# ---------------------------------------------------------------------------


def spectrum(family: WavePacketFamily, t: float, xi: np.ndarray) -> np.ndarray:
    """Transform values: t^(-1/2) exp(-i*xi*x0) chi_hat((xi - t^lam*xi0)/t)."""
    xi = np.asarray(xi, dtype=float)
    envelope = family.profile.chi_hat((xi - family.center(t)) / t)
    return t ** -0.5 * np.exp(-1j * xi * family.x0) * envelope


def make_packet(
    family: WavePacketFamily,
    t: float,
    num_points: int = 256,
    lattice_spacing: float | None = None,
) -> SpectralPatch:
    """Spectral patch of the packet f_t.

    Without ``lattice_spacing`` the window is exactly
    [t^lam*xi0 - t, t^lam*xi0 + t] with ``num_points`` samples.  With it,
    the window snaps outward to the global midpoint lattice so that all
    patches in one node set share a single grid.
    """
    if t < 1.0:
        raise ValueError("reference_quadrature: packet scale t must be >= 1")
    center = family.center(t)
    if lattice_spacing is None:
        window = FrequencyWindow(center, float(t), num_points)
    else:
        d = float(lattice_spacing)
        k_lo = int(np.floor((center - t) / d - 0.5))
        k_hi = int(np.ceil((center + t) / d - 0.5))
        n = k_hi - k_lo + 1
        start = k_lo * d
        window = FrequencyWindow(start + 0.5 * n * d, 0.5 * n * d, n)
    values = spectrum(family, t, window.grid())
    return SpectralPatch(window, values, sampler=lambda xi: spectrum(family, t, xi))


def brute_force_overlap(family, t, s, n=400_001):
    """Physical-space quadrature of integral conj(f_t) f_s dx."""
    prof = family.profile
    radius = support_radius_and_chi0(prof)[0] / min(t, s)
    x = np.linspace(family.x0 - radius, family.x0 + radius, n)
    rel = x - family.x0
    phase = np.exp(1j * (s ** family.lam - t ** family.lam) * rel * family.xi0)
    integrand = (
        np.sqrt(t * s) * prof.chi(t * rel) * prof.chi(s * rel) * phase
    )
    return complex(simpson(integrand, x=x))


@dataclass(frozen=True)
class OverlapTable:
    t_values: np.ndarray
    s_values: np.ndarray
    overlaps: np.ndarray          # |(f_t|f_s)| on the (t, s) grid
    separations: np.ndarray       # |t^lam - s^lam|
    envelope_constant: float      # C with |(f_t|f_s)| <= C / (1 + sep/T)


def packet_overlap_decay(
    family: WavePacketFamily, T: float, grid_points: int = 9
) -> OverlapTable:
    """Tabulate |(f_t|f_s)| on [T, 2T]^2 and fit the decay envelope."""
    if not (T > 2.0 ** (1.0 / (family.lam - 1.0))):
        raise ValueError("reference_quadrature: need T > 2^(1/(lambda-1)) for overlap decay")
    ts = np.linspace(T, 2.0 * T, grid_points)
    spacing = lattice_spacing_for(ts)
    patches = [make_packet(family, t, lattice_spacing=spacing) for t in ts]
    overlaps = np.empty((grid_points, grid_points))
    for i, p in enumerate(patches):
        for j, q in enumerate(patches):
            overlaps[i, j] = abs(inner_product_l2(p, q))
    sep = np.abs(
        ts[:, None] ** family.lam - ts[None, :] ** family.lam
    )
    envelope_constant = float(np.max(overlaps * (1.0 + sep / T)))
    return OverlapTable(ts, ts, overlaps, sep, envelope_constant)


# ---------------------------------------------------------------------------
# Generic quadratic forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhysicalGrid:
    """Uniform midpoint grid in physical space for the outer x-quadrature."""

    center: float
    half_width: float
    num_points: int = 2048

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.num_points

    def points(self) -> np.ndarray:
        return (
            self.center
            - self.half_width
            + (np.arange(self.num_points) + 0.5) * self.spacing
        )

    @classmethod
    def for_packet(cls, family: WavePacketFamily, t: float) -> "PhysicalGrid":
        return cls(family.x0, support_radius_and_chi0(family.profile)[0] / t)


def quadratic_form(f: SpectralPatch, P, x_grid: PhysicalGrid) -> complex:
    """(f|Pf) by nested midpoint quadrature: the symbol's xi-part applied in
    frequency, the coefficient and the pairing with f on the physical grid.
    The packet must have decayed to 1e-6 of its peak at the grid's ends."""
    x = x_grid.points()
    fx = evaluate_physical(f, x)
    require_tail_small(fx, 1e-6, "reference_quadrature: quadratic_form x-grid")
    total = 0.0 + 0.0j
    xi = f.window.grid()
    for term in P.terms if isinstance(P, SymbolExpansion) else (P,):
        weighted = SpectralPatch(f.window, f.values * term.spectral_factor(xi))
        action = evaluate_physical(weighted, x)
        cvals = np.asarray(term.coefficient(x))
        total += np.sum(np.conj(fx) * cvals * action) * x_grid.spacing
    return complex(total)
