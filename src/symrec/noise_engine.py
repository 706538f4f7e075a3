"""Joint sampling of the measurement error across packet parameters.

The error functional on conjugate packet pairs is a centered, circularly
symmetric complex Gaussian family whose covariance between scales t and s
is |(f_t|f_s)_beta|^2 and whose pseudo-covariance vanishes identically
(the spectral supports of a packet and a conjugated packet never meet).

Sampling goes through a factor L of the covariance kernel (L L^T = C):
exact for any finite node set and O(K^2) at worst.  A full path L z is
formed only where the path itself is the output (``sample_path``,
``sample_paths``).  An estimate needs only the weighted sum w @ (L z) =
u @ z with u = L^T w (``NoiseKernel.apply_factor_transpose``), which
``sample_functional`` draws from the same z without forming L z.  A direct
truncated basis expansion (``basis_oracle_*``) exists purely to certify
that the kernel route produces the same law.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import ConfigError, NumericalError
from .rng import complex_normal_dot, rng_for, standard_complex_normal
from .spectral_core import JapaneseBracketWeight
from .wave_packets import WavePacketFamily, lattice_spacing_for

_DENSE_LIMIT = 1200
_PSD_TOL = 1e-10


def _lattice_index_range(center: float, half: float, spacing: float) -> tuple[int, int]:
    k_lo = int(np.floor((center - half) / spacing - 0.5))
    k_hi = int(np.ceil((center + half) / spacing - 0.5))
    return k_lo, k_hi


def _node_patch_matrix(
    family: WavePacketFamily, nodes: np.ndarray, spacing: float
) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
    """Sparse matrix of packet spectra on the shared lattice.

    Row k holds the samples of fhat_{t_k}; columns are lattice points.
    Returns the matrix and the lattice frequencies of its columns.
    """
    ranges = [
        _lattice_index_range(family.center(t), t, spacing) for t in nodes
    ]
    k_min = min(r[0] for r in ranges)
    k_max = max(r[1] for r in ranges)
    n_cols = k_max - k_min + 1
    xi_cols = (np.arange(k_min, k_max + 1) + 0.5) * spacing

    rows, cols, data = [], [], []
    for row, (t, (k_lo, k_hi)) in enumerate(zip(nodes, ranges)):
        idx = np.arange(k_lo - k_min, k_hi - k_min + 1)
        xi = xi_cols[idx]
        vals = family.spectrum(float(t), xi)
        rows.append(np.full(idx.size, row))
        cols.append(idx)
        data.append(vals)
    mat = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(nodes), n_cols),
    ).tocsr()
    return mat, xi_cols


@dataclass
class NoiseKernel:
    """Covariance of the error values over an ordered node set.

    The matrix is real, symmetric, entrywise nonnegative and positive
    semidefinite; it is stored by its upper diagonals (``offsets`` paired
    with ``bands``, where bands[k][i] = C[i, i + offsets[k]]).
    """

    nodes: np.ndarray
    beta: float
    offsets: tuple
    bands: tuple
    _factor: tuple = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def diagonal(self) -> np.ndarray:
        return self.bands[self.offsets.index(0)]

    @property
    def trace(self) -> float:
        return float(np.sum(self.diagonal))

    def dense(self) -> np.ndarray:
        out = np.zeros((self.size, self.size))
        for off, band in zip(self.offsets, self.bands):
            i = np.arange(self.size - off)
            out[i, i + off] = band
            if off > 0:
                out[i + off, i] = band
        return out

    def quad_form(self, w: np.ndarray) -> float:
        """w^T C w for a real weight vector."""
        w = np.asarray(w, dtype=float)
        total = 0.0
        for off, band in zip(self.offsets, self.bands):
            if off == 0:
                total += float(np.sum(band * w * w))
            else:
                total += 2.0 * float(np.sum(band * w[:-off] * w[off:]))
        return total

    # -- factorization ---------------------------------------------------

    def _bandwidth(self) -> int:
        return max(self.offsets)

    def factor(self):
        """A real factor L with L L^T = C, cached after the first call."""
        if self._factor is not None:
            return self._factor
        if self.size <= _DENSE_LIMIT:
            cov = self.dense()
            eigvals, eigvecs = np.linalg.eigh(cov)
            floor = -_PSD_TOL * max(self.trace, 1e-300)
            if eigvals.min() < floor:
                raise NumericalError(
                    "noise_engine: covariance is not PSD "
                    f"(min eigenvalue {eigvals.min():.3e} < {floor:.3e}); "
                    "quadrature grids are inconsistent"
                )
            clipped = np.clip(eigvals, 0.0, None)
            root = (eigvecs * np.sqrt(clipped)) @ eigvecs.T
            self._factor = ("dense", root)
            return self._factor

        bw = self._bandwidth()
        ab = np.zeros((bw + 1, self.size))
        for off, band in zip(self.offsets, self.bands):
            ab[off, : self.size - off] = band
        scale = self.trace
        for jitter in (0.0, 1e-14, 1e-12, _PSD_TOL):
            try:
                work = ab.copy()
                work[0] += jitter * scale
                chol = scipy.linalg.cholesky_banded(work, lower=True)
                self._factor = ("banded", chol)
                return self._factor
            except np.linalg.LinAlgError:
                continue
        raise NumericalError(
            "noise_engine: covariance is not PSD within the repair threshold "
            f"({_PSD_TOL:.0e} * trace); quadrature grids are inconsistent"
        )

    def apply_factor(self, z: np.ndarray) -> np.ndarray:
        """L @ z for one draw (or a batch with draws in rows)."""
        kind, mat = self.factor()
        single = z.ndim == 1
        zz = z[None, :] if single else z
        if kind == "dense":
            out = zz @ mat.T
        else:
            out = np.zeros_like(zz)
            n = self.size
            for d in range(mat.shape[0]):
                if d >= n:
                    break
                out[:, d:] += mat[d, : n - d] * zz[:, : n - d]
        return out[0] if single else out

    def apply_factor_transpose(self, w: np.ndarray) -> np.ndarray:
        """L^T @ w for one real vector, so that w @ (L z) = (L^T w) @ z."""
        kind, mat = self.factor()
        if kind == "dense":
            return mat.T @ w
        n = self.size
        out = np.zeros(n)
        for d in range(min(mat.shape[0], n)):
            out[: n - d] += mat[d, : n - d] * w[d:]
        return out


@dataclass(frozen=True)
class NoisePath:
    """One joint sample of the error values over the kernel's nodes."""

    nodes: np.ndarray
    values: np.ndarray
    seed: int

    def __post_init__(self):
        if np.asarray(self.values).shape != np.asarray(self.nodes).shape:
            raise ValueError("noise_engine: path length must match the node set")


def build_kernel(
    family: WavePacketFamily,
    nodes,
    beta: float,
    points_per_min_window: int = 128,
) -> NoiseKernel:
    """Covariance kernel C[t,s] = |(f_t|f_s)_beta|^2 on a shared lattice."""
    nodes = np.atleast_1d(np.asarray(nodes, dtype=float))
    if nodes.size < 1:
        raise ConfigError("noise_engine: need at least one node")
    if np.any(np.diff(nodes) <= 0.0):
        raise ConfigError("noise_engine: nodes must be strictly increasing")
    if nodes[0] < 1.0:
        raise ConfigError("noise_engine: all nodes must satisfy t >= 1")

    spacing = lattice_spacing_for(nodes, points_per_min_window)
    mat, xi_cols = _node_patch_matrix(family, nodes, spacing)
    weight = JapaneseBracketWeight(beta)
    col_weights = weight(xi_cols) * spacing

    gram = ((mat.conj().multiply(col_weights)) @ mat.T).tocsr()
    gram_r = 0.5 * (gram + gram.getH()).real
    offsets, bands = _upper_bands(gram_r.multiply(gram_r).tocoo())

    kernel = NoiseKernel(nodes=nodes, beta=float(beta), offsets=offsets, bands=bands)
    diag = kernel.diagonal
    if np.any(diag <= 0.0):
        raise NumericalError("noise_engine: kernel diagonal must be positive")
    floor = -_PSD_TOL * float(np.sum(diag))
    for band in kernel.bands:
        if band.min(initial=0.0) < floor:
            raise NumericalError(
                "noise_engine: kernel entries must be nonnegative "
                f"(found {band.min():.3e})"
            )
    kernel.bands = tuple(np.clip(b, 0.0, None) for b in kernel.bands)
    return kernel


def _upper_bands(cov: scipy.sparse.coo_matrix) -> tuple[tuple, tuple]:
    """Main and nonzero upper diagonals: bands[k][i] = cov[i, i + offsets[k]].

    Read straight from the COO entries; ``todia`` would build the lower
    diagonals too and warns once a kernel has more than 100 of them.
    """
    n = cov.shape[0]
    upper = (cov.col >= cov.row) & (cov.data != 0.0)
    rows = cov.row[upper]
    offs = cov.col[upper] - rows
    offsets = np.union1d(0, offs)
    table = np.zeros((offsets.size, n))
    table[np.searchsorted(offsets, offs), rows] = cov.data[upper]
    return (
        tuple(int(off) for off in offsets),
        tuple(table[k, : n - off] for k, off in enumerate(offsets)),
    )


def sample_path(kernel: NoiseKernel, seed: int) -> NoisePath:
    """One joint draw: values = L z with z iid circular complex normals."""
    rng = rng_for(seed, "noise-path")
    z = standard_complex_normal(rng, kernel.size)
    return NoisePath(kernel.nodes, kernel.apply_factor(z), int(seed))


def sample_functional(u: np.ndarray, seed: int) -> complex:
    """u @ z for the z that ``sample_path`` draws at ``seed``.  With
    u = kernel.apply_factor_transpose(w) this is w @ sample_path(kernel,
    seed).values up to rounding, at the cost of the draw alone."""
    return complex_normal_dot(rng_for(seed, "noise-path"), u)


def sample_paths(kernel: NoiseKernel, seeds) -> np.ndarray:
    """Batch of joint draws, one row per seed."""
    z = np.empty((len(seeds), kernel.size), dtype=complex)
    for i, seed in enumerate(seeds):
        rng = rng_for(int(seed), "noise-path")
        z[i] = standard_complex_normal(rng, kernel.size)
    return kernel.apply_factor(z)


# ---------------------------------------------------------------------------
# Truncated basis-expansion oracle
# ---------------------------------------------------------------------------


def _oracle_coefficients(
    family: WavePacketFamily, nodes: np.ndarray, beta: float, truncation: int,
    points_per_min_window: int,
):
    spacing = lattice_spacing_for(nodes, points_per_min_window)
    k_sets = [
        _lattice_index_range(family.center(t), t, spacing) for t in nodes
    ]
    k_lo = min(r[0] for r in k_sets)
    k_hi = max(r[1] for r in k_sets)
    g_idx = np.arange(k_lo, k_hi + 1)
    if g_idx.size > truncation:
        raise ConfigError(
            "noise_engine: node windows escape the truncated lattice "
            f"({g_idx.size} > {truncation} frequencies)"
        )
    xi_g = (g_idx + 0.5) * spacing
    xi_f = -xi_g[::-1]  # reflected lattice points, ascending

    weight = JapaneseBracketWeight(beta)
    wg = np.sqrt(weight(xi_g) * spacing)
    wf = np.sqrt(weight(xi_f) * spacing)

    # Basis: lattice bumps e_n with hat(e_n)(xi_k) = delta_nk / sqrt(w_n dxi).
    # (f|e_n)_beta = conj(fhat(xi_n)) sqrt(w_n dxi); the first slot carries
    # the conjugated packet, whose transform is conj(fhat(-xi)).
    u = np.empty((nodes.size, xi_f.size), dtype=complex)
    v = np.empty((nodes.size, xi_g.size), dtype=complex)
    for k, t in enumerate(nodes):
        u[k] = family.spectrum(float(t), -xi_f) * wf
        v[k] = np.conj(family.spectrum(float(t), xi_g)) * wg
    return u, v


def basis_oracle_batch(
    family: WavePacketFamily,
    nodes,
    beta: float,
    truncation: int = 128,
    seed: int = 0,
    n_samples: int = 1,
    points_per_min_window: int = 32,
) -> np.ndarray:
    """Error samples from the explicit finite basis expansion.

    Realizes E(f, g) = sum_{n,m} (f|e_n)_beta (g|e_m)_beta X_nm with one
    iid circular Gaussian matrix X per sample, shared across nodes.  Used
    only to validate that ``sample_path`` produces the same distribution.
    """
    nodes = np.atleast_1d(np.asarray(nodes, dtype=float))
    u, v = _oracle_coefficients(family, nodes, beta, truncation, points_per_min_window)
    out = np.empty((n_samples, nodes.size), dtype=complex)
    rng = rng_for(seed, "basis-oracle")
    batch = max(1, min(n_samples, 10_000_000 // (u.shape[1] * v.shape[1] + 1)))
    for lo in range(0, n_samples, batch):
        nb = min(batch, n_samples - lo)
        x = standard_complex_normal(rng, nb * u.shape[1] * v.shape[1]).reshape(
            nb, u.shape[1], v.shape[1]
        )
        out[lo : lo + nb] = np.einsum("kn,bnm,km->bk", u, x, v)
    return out


def basis_oracle_sample(
    family: WavePacketFamily,
    nodes,
    beta: float,
    truncation: int = 128,
    seed: int = 0,
    points_per_min_window: int = 32,
) -> NoisePath:
    values = basis_oracle_batch(
        family, nodes, beta, truncation, seed, 1, points_per_min_window
    )[0]
    return NoisePath(np.atleast_1d(np.asarray(nodes, dtype=float)), values, int(seed))
