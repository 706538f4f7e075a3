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
``sample_functional`` draws from the same z without forming L z.

``basis_oracle_batch`` realizes the error directly, as a truncated
expansion over lattice bumps with iid Gaussian coefficients, purely to
certify that the kernel route produces the same law.  It reads the packet
spectra from the same patch matrix as the kernel (``_node_patch_matrix``),
so the two routes share the spectra and differ in everything after them.
The Sobolev weight (1 + |xi|^2)^beta of both is ``JapaneseBracketWeight``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import ConfigError, NumericalError
from .rng import complex_normal_dot, rng_for, standard_complex_normal
from .wave_packets import WavePacketFamily, lattice_spacing_for

_DENSE_LIMIT = 1200
_PSD_TOL = 1e-10
_PATCH_BLOCK = 2 ** 20


@dataclass(frozen=True)
class JapaneseBracketWeight:
    """Sobolev weight (1 + |xi|^2)^beta."""

    beta: float = 0.0

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        if self.beta == 0.0:
            return np.ones_like(np.asarray(xi, dtype=float))
        return (1.0 + np.asarray(xi, dtype=float) ** 2) ** self.beta


def _lattice_index_range(center: float, half: float, spacing: float) -> tuple[int, int]:
    k_lo = int(np.floor((center - half) / spacing - 0.5))
    k_hi = int(np.ceil((center + half) / spacing - 0.5))
    return k_lo, k_hi


def _node_patch_matrix(
    family: WavePacketFamily, nodes: np.ndarray, spacing: float
) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
    """Sparse matrix of packet spectra on the shared lattice.

    Row k holds the samples of
    fhat_{t_k}(xi) = t_k^(-1/2) exp(-i*xi*x0) chi_hat((xi - t_k^lam*xi0)/t_k)
    over the lattice points of its window; columns are lattice points, and
    the spectrum vanishes at every column outside the row's window.
    Returns the matrix and the lattice frequencies of its columns.  All
    entries are evaluated in one pass.
    """
    ts = [float(t) for t in nodes]
    centers = [family.center(t) for t in ts]
    ranges = np.array([_lattice_index_range(c, t, spacing) for c, t in zip(centers, ts)])
    k_min = int(ranges[:, 0].min())
    k_max = int(ranges[:, 1].max())
    xi_cols = (np.arange(k_min, k_max + 1) + 0.5) * spacing

    lengths = ranges[:, 1] - ranges[:, 0] + 1
    indptr = np.zeros(len(ts) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    rows = np.repeat(np.arange(len(ts), dtype=np.int32), lengths)
    # entry e of row k sits in column (k_lo[k] - k_min) + (e - indptr[k])
    cols = np.arange(indptr[-1]) + (ranges[:, 0] - k_min - indptr[:-1])[rows]
    scales = np.array([t ** -0.5 for t in ts])
    centers, ts = np.array(centers), np.array(ts)
    phase = np.exp(-1j * xi_cols * family.x0)
    data = np.empty(cols.size, dtype=complex)
    for lo in range(0, cols.size, _PATCH_BLOCK):  # blocks bound the temporaries
        r, c = rows[lo : lo + _PATCH_BLOCK], cols[lo : lo + _PATCH_BLOCK]
        envelope = family.profile.chi_hat((xi_cols[c] - centers[r]) / ts[r])
        data[lo : lo + _PATCH_BLOCK] = scales[r] * phase[c] * envelope
    mat = scipy.sparse.csr_matrix((data, cols, indptr), shape=(ts.size, xi_cols.size))
    return mat, xi_cols


@dataclass
class NoiseKernel:
    """Covariance of the error values over an ordered node set.

    The matrix is real, symmetric, entrywise nonnegative and positive
    semidefinite; it is stored in the lower banded layout that
    ``scipy.linalg.cholesky_banded(lower=True)`` takes: banded[d, i] =
    C[i + d, i] for the diagonals d = 0..bandwidth, zero for i + d >= size.
    """

    nodes: np.ndarray
    beta: float
    banded: np.ndarray
    _factor: tuple = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def offsets(self) -> range:
        """The stored diagonal offsets 0..bandwidth."""
        return range(self.banded.shape[0])

    @property
    def diagonal(self) -> np.ndarray:
        return self.banded[0]

    @property
    def trace(self) -> float:
        return float(np.sum(self.diagonal))

    def dense(self) -> np.ndarray:
        n = self.size
        out = np.zeros((n, n))
        for off, band in enumerate(self.banded):
            i = np.arange(n - off)
            out[i, i + off] = out[i + off, i] = band[: n - off]
        return out

    def quad_form(self, w: np.ndarray) -> float:
        """w^T C w for a real weight vector."""
        w = np.asarray(w, dtype=float)
        total = 0.0
        for off, band in enumerate(self.banded):
            if off == 0:
                total += float(np.sum(band * w * w))
            else:
                total += 2.0 * float(np.sum(band[:-off] * w[:-off] * w[off:]))
        return total

    # -- factorization ---------------------------------------------------

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

        scale = self.trace
        for jitter in (0.0, 1e-14, 1e-12, _PSD_TOL):
            try:
                work = self.banded.copy()
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

    # Weight the conjugated patch's entries in place: ``multiply`` would
    # return a COO copy of the whole patch.
    weighted = mat.conj()
    weighted.data *= col_weights[weighted.indices]
    gram = (weighted @ mat.T).tocsr()
    gram_r = 0.5 * (gram + gram.getH()).real
    banded = _banded(gram_r.multiply(gram_r).tocoo())

    diag = banded[0]
    if np.any(diag <= 0.0):
        raise NumericalError("noise_engine: kernel diagonal must be positive")
    if banded.min() < -_PSD_TOL * float(np.sum(diag)):
        raise NumericalError(
            f"noise_engine: kernel entries must be nonnegative (found {banded.min():.3e})"
        )
    return NoiseKernel(nodes=nodes, beta=float(beta), banded=np.clip(banded, 0.0, None))


def _banded(cov: scipy.sparse.coo_matrix) -> np.ndarray:
    """The lower banded layout of a symmetric matrix (see ``NoiseKernel``),
    filled from the entries on and above the diagonal: cov[i, i + d] goes
    to [d, i].

    Read straight from the COO entries; ``todia`` would build the lower
    diagonals too and warns once a kernel has more than 100 of them.
    """
    upper = (cov.col >= cov.row) & (cov.data != 0.0)
    rows = cov.row[upper]
    offs = cov.col[upper] - rows
    out = np.zeros((int(offs.max(initial=0)) + 1, cov.shape[0]))
    out[offs, rows] = cov.data[upper]
    return out


def sample_path(kernel: NoiseKernel, seed: int) -> np.ndarray:
    """One joint draw over the kernel's nodes: L z with z iid circular
    complex normals."""
    rng = rng_for(seed, "noise-path")
    z = standard_complex_normal(rng, kernel.size)
    return kernel.apply_factor(z)


def sample_functional(u: np.ndarray, seed: int) -> complex:
    """u @ z for the z that ``sample_path`` draws at ``seed``.  With
    u = kernel.apply_factor_transpose(w) this is w @ sample_path(kernel,
    seed) up to rounding, at the cost of the draw alone."""
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
    mat, xi_g = _node_patch_matrix(family, nodes, spacing)
    if xi_g.size > truncation:
        raise ConfigError(
            "noise_engine: node windows escape the truncated lattice "
            f"({xi_g.size} > {truncation} frequencies)"
        )
    weight = JapaneseBracketWeight(beta)
    spectra = mat.toarray()

    # Basis: lattice bumps e_n with hat(e_n)(xi_k) = delta_nk / sqrt(w_n dxi).
    # (f|e_n)_beta = conj(fhat(xi_n)) sqrt(w_n dxi); the first slot carries
    # the conjugated packet, whose transform conj(fhat(-xi)) lives on the
    # reflected lattice -xi_g[::-1].
    u = spectra[:, ::-1] * np.sqrt(weight(-xi_g[::-1]) * spacing)
    v = np.conj(spectra) * np.sqrt(weight(xi_g) * spacing)
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
