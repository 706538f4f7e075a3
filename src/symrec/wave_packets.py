"""Wave-packet states and their shared cutoff profile.

A packet concentrates at x0 on scale 1/t while oscillating at frequency
t^lambda * xi0 with lambda > 1.  Its transform is supported on the window
|xi - t^lambda*xi0| < t, so its samples on a frequency lattice covering
that window carry it exactly.  The profile fixes one smooth, radial, compactly supported bump for
the transform: equal to a constant b on |xi| <= 1/2, vanishing for
|xi| >= 1, with a smooth exponential partition bridge between, normalized
to unit L2 norm.  At the default sharpness its derived constants come from
the generated ``default_profile`` module; any other sharpness computes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import default_profile, splines

TWO_PI = 2.0 * np.pi

_CHI_CACHE_POINTS = 2 ** 14
_CHI_SCAN_POINTS = 8192
_GAUSS_POINTS = 384
_CHI_SCAN_MAX = 400.0
_ETA_POINTS = 256
_Y_POINTS = 512
# Array entries per block of every blocked pass (kernel tiles, oracle draws,
# packet quadratures, spline moments, continuum slabs, the profile's cosine
# table); bounds their memory: 0.5 MB per float64 array.
BLOCK_ENTRIES = 2 ** 16


def block_rows(row_entries: int) -> int:
    """Rows of ``row_entries`` entries each that fit one block, one at least."""
    return max(1, BLOCK_ENTRIES // row_entries)


def bridge_sigma(r: np.ndarray, sharpness: float = 1.0) -> np.ndarray:
    """Radial cutoff shape: 1 on [0, 1/2], 0 on [1, inf), smooth between.

    Between, a C-infinity ramp in u = 2 (1 - r): a / (a + b) with
    a = exp(-s/u) and b = exp(-s/(1 - u)).  There 0 < u < 1 exactly, since
    1 - r and 1 - u are exact (Sterbenz), so neither exponent divides by 0.
    """
    out = np.array(r, dtype=float)  # |r|, then sigma, in one array
    np.abs(out, out=out)
    mid = (out > 0.5) & (out < 1.0)
    u = (1.0 - out[mid]) / 0.5
    out[...] = out <= 0.5
    a = np.exp(-sharpness / u)
    out[mid] = a / (a + np.exp(-sharpness / (1.0 - u)))
    return out


def sharpness_ok(sharpness: float) -> bool:
    """Whether ``bridge_sigma`` is defined at this sharpness: it is positive,
    and a + b >= exp(-2 * sharpness) does not underflow to 0, which it does
    from about 372.5667 on and makes the bridge 0/0."""
    return sharpness > 0.0 and math.exp(-2.0 * sharpness) > 0.0


class PacketProfile:
    """Shared cutoff data: normalization, tabulated physical profile, and
    the fixed unit-scale grids used by packet quadratures.

    Built once per sharpness and reused read-only by every packet.
    """

    def __init__(self, sharpness: float = 1.0):
        if not sharpness_ok(sharpness):
            raise ValueError(
                "wave_packets: bridge sharpness must be positive and keep "
                f"exp(-2 * sharpness) > 0 (below 372.5667), got {sharpness!r}"
            )
        self.sharpness = float(sharpness)
        if self.sharpness == default_profile.SHARPNESS:
            # the compute path's output at the default sharpness, generated
            # as float.hex literals: no Gauss rule, radius scan or cache
            self.b, self.tail_radius, self.radius_cache = map(np.float64, (
                default_profile.B, default_profile.TAIL_RADIUS, default_profile.RADIUS_CACHE
            ))
            self.chi_y = np.array([float.fromhex(h) for h in default_profile.CHI_Y])
        else:
            self._compute_constants()
        self._build_unit_grids()

    def _compute_constants(self):
        """The compute path: b by the Gauss rule, then the two radii from a
        scan of the transform."""
        xi, weights = self._gauss_rule
        bridge = bridge_sigma(0.5 + 0.5 * xi, self.sharpness)
        norm_sq = 0.5 + 0.5 * np.sum(weights * bridge ** 2)
        # This b equals, bit for bit, that of the adaptive quadrature it
        # replaced.  A Newton-refined rule gets norm_sq 6e-16 closer to exact,
        # but the few ulps it moves b reach the noise through the kernel
        # factor and move recovered rows by up to 4e-9 relative.
        self.b = 1.0 / np.sqrt(2.0 * norm_sq)

        coarse = np.linspace(0.0, _CHI_SCAN_MAX, _CHI_SCAN_POINTS)
        vals = np.abs(self._chi_exact(coarse))
        peak = vals[0]
        above12 = np.nonzero(vals > 1e-12 * peak)[0]
        above6 = np.nonzero(vals > 1e-6 * peak)[0]
        self.radius_cache = float(coarse[above12[-1]]) + coarse[1]
        # |chi * S| tails scale like |chi|^2, so packet quadratures may stop
        # where the envelope reaches 1e-6 of the peak.
        self.tail_radius = float(coarse[above6[-1]]) + coarse[1]

    @cached_property
    def chi_y(self) -> np.ndarray:
        """The physical profile on the y grid (tabulated at the default)."""
        return self.chi(self.y)

    # -- transform side -------------------------------------------------

    def chi_hat(self, xi: np.ndarray) -> np.ndarray:
        out = bridge_sigma(xi, self.sharpness)
        out *= self.b
        return out

    # -- physical side ---------------------------------------------------

    def _chi_exact(self, y: np.ndarray) -> np.ndarray:
        # chi(y) = (2/pi)^(1/2) * integral_0^1 cos(y*xi) chi_hat(xi) dxi,
        # the cosine table formed in place one block of y rows at a time.
        # The product is a BLAS dgemv whose row sums depend on the block's
        # row count: every multiple of 8 rows gives the table of 2,048-row
        # blocks, with which the reference outputs were recorded, bit for bit
        # on both profile grids; other counts (2**16 // 384 = 170 among them)
        # move it by up to 1e-16, which the radii and the cache carry into
        # the recovered rows.
        xi, weights = self._gauss_rule
        weights = weights * self.chi_hat(xi)
        out = np.empty(y.shape, dtype=float)
        rows = max(8, block_rows(xi.size) // 8 * 8)
        for i in range(0, y.size, rows):
            table = np.outer(y[i : i + rows], xi)
            np.cos(table, out=table)
            out[i : i + rows] = table @ weights
            del table
        out *= np.sqrt(2.0 / np.pi)
        return out

    @cached_property
    def _gauss_rule(self) -> tuple[np.ndarray, np.ndarray]:
        # Gauss-Legendre on [0, 1].  chi_hat is C-infinity, so the rule
        # converges faster than any power; 384 nodes put the transform within
        # 1.3e-14 of chi(0) of a 4,097-point Simpson sum.  sigma is 1 on
        # [0, 1/2], so only the bridge needs the rule.
        nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_POINTS)
        return 0.5 * (nodes + 1.0), 0.5 * weights

    @cached_property
    def _chi_spline(self) -> tuple[np.ndarray, np.ndarray]:
        grid = np.linspace(0.0, self.radius_cache, _CHI_CACHE_POINTS)
        return splines.not_a_knot(grid, self._chi_exact(grid))

    def chi(self, y: np.ndarray) -> np.ndarray:
        """Physical profile, interpolated from the cache (real and even)."""
        y = np.abs(np.asarray(y, dtype=float))
        out = np.zeros_like(y)
        inside = y < self.radius_cache
        out[inside] = splines.evaluate(*self._chi_spline, y[inside])
        return out

    # -- unit-scale quadrature grids --------------------------------------

    def _build_unit_grids(self):
        deta = 2.0 / _ETA_POINTS
        self.eta = -1.0 + (np.arange(_ETA_POINTS) + 0.5) * deta
        self.chi_hat_eta = self.chi_hat(self.eta)

        r = self.tail_radius
        dy = 2.0 * r / _Y_POINTS
        self.y = -r + (np.arange(_Y_POINTS) + 0.5) * dy
        self.y_weights = self.chi_y * dy
        # Fourier kernel for S(y) = (2*pi)^(-1/2) * integral exp(i*y*eta) g(eta) deta,
        # kept as its cosine and sine over the first half of the eta grid:
        # eta is antisymmetric bit for bit (eta[-1 - n] == -eta[n]), so the
        # kernel's column -1 - n is the conjugate of column n.
        half = self.eta[: _ETA_POINTS // 2]
        scale = deta / np.sqrt(TWO_PI)
        phase = np.outer(self.y, half)
        self.kernel_cos = np.cos(phase)
        self.kernel_cos *= scale
        self.kernel_sin = np.sin(phase, out=phase)
        self.kernel_sin *= scale


@lru_cache(maxsize=8)
def make_profile(bridge_sharpness: float = 1.0) -> PacketProfile:
    """Build (and cache) the cutoff profile for a given bridge sharpness."""
    return PacketProfile(bridge_sharpness)


@dataclass(frozen=True)
class WavePacketFamily:
    """Packets sharing one profile and one phase-space base point (x0, xi0)."""

    x0: float
    xi0: float
    lam: float
    profile: PacketProfile

    def __post_init__(self):
        if abs(abs(self.xi0) - 1.0) > 0.0:
            raise ValueError("wave_packets: xi0 must be a unit direction (+1 or -1)")
        if not (self.lam > 1.0):
            raise ValueError("wave_packets: lambda must exceed 1")

    def center(self, t: float) -> float:
        return float(t ** self.lam * self.xi0)


def lattice_spacing_for(nodes, points_per_min_window: int = 128) -> float:
    """Shared grid spacing for a node set: min window half-width / points."""
    t_min = float(np.min(np.asarray(nodes, dtype=float)))
    if t_min < 1.0:
        raise ValueError("wave_packets: all nodes must satisfy t >= 1")
    return t_min / points_per_min_window
