"""Joint sampling of the measurement error across packet parameters.

The error functional on conjugate packet pairs is a centered, circularly
symmetric complex Gaussian family whose covariance between scales t and s
is |(f_t|f_s)_beta|^2 and whose pseudo-covariance vanishes identically
(the spectral supports of a packet and a conjugated packet never meet).

Sampling goes through a factor L of the covariance kernel (L L^T = C),
exact for any finite node set, and reads only the kernel's bands.  Up to
``_DENSE_LIMIT`` nodes L is the symmetric root C^(1/2), applied as a
double-exponential quadrature of (2/pi) C int_0^inf (t^2 I + C)^(-1) dt
(Hale, Higham and Trefethen, SIAM J. Numer. Anal. 46, 2008): one banded
Cholesky solve with C + t_k^2 I per node, the rule certified at C's
eigenvalues, which LAPACK's banded driver computes without eigenvectors, so
no n x n array is formed.  Above the limit L is the banded Cholesky factor.
A full path L z is formed only where the path itself is the output
(``sample_path``, ``sample_paths``).  An estimate needs only the weighted
sum w @ (L z) = u @ z with u = L^T w (``NoiseKernel.apply_factor_transpose``),
which ``TermDesign.keyed_noise`` draws for a batch of stream keys with
``rng.complex_normal_dot``, without forming L z, the keys cut into one
contiguous chunk per thread by ``parallel.parallel_map``.

The kernel's bands are built one row tile at a time (``build_kernel``):
a tile's gram rows need only the patch rows of the tile and of the rows
whose lattice windows meet it, so the memory of a build scales with the
tile and the bandwidth, not with the node count, and the bands are the
same, bit for bit, whatever the tiling.  A tile's spectra are evaluated in
place in one array of its entries, and its arrays are freed before the next
tile's are evaluated.

The kernel does not depend on x0: the packet phase exp(-i*xi*x0) cancels
in conj(fhat_t) fhat_s, so the patch matrix (``_node_patch_matrix``) holds
the real phase-free spectra and every x0 gets the same real gram.

``basis_oracle_batch`` realizes the error directly, as a truncated
expansion over lattice bumps with iid Gaussian coefficients, purely to
certify that the kernel route produces the same law.  It reads the packet
spectra from the kernel's patch matrix and is the one place that applies
the phase, so the two routes share the spectra and differ in everything
after them.  The Sobolev weight (1 + |xi|^2)^beta of both is
``JapaneseBracketWeight``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import ConfigError, NumericalError
from .rng import keyed_streams, rng_for, standard_complex_normal, stream_keys
from .wave_packets import BLOCK_ENTRIES, WavePacketFamily, block_rows, lattice_spacing_for

_DENSE_LIMIT = 1200
_PSD_TOL = 1e-10
# The dense root's quadrature: steps in s, halved until the rule's error at
# every eigenvalue is at most _ROOT_TOL * sqrt(largest eigenvalue).
_ROOT_STEPS = 0.07 * 0.5 ** np.arange(5)
_ROOT_TOL = 1e-15
# Entries per basis-oracle draw batch: a batch draws all its real parts, then
# all its imaginary parts, so this fixes which samples the stream feeds.
_ORACLE_DRAW_BATCH = 10_000_000
# Basis-oracle lattice: points per smallest window, and at most this many bumps.
ORACLE_POINTS_PER_MIN_WINDOW = 32
ORACLE_TRUNCATION = 128


@dataclass(frozen=True)
class JapaneseBracketWeight:
    """Sobolev weight (1 + |xi|^2)^beta."""

    beta: float = 0.0

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        if self.beta == 0.0:
            return np.ones_like(np.asarray(xi, dtype=float))
        return (1.0 + np.asarray(xi, dtype=float) ** 2) ** self.beta


def _node_windows(family: WavePacketFamily, nodes: np.ndarray, spacing: float):
    """Centers and lattice index ranges [k_lo, k_hi] of the packet windows,
    one row per node: the indices of the lattice points xi_k = (k + 1/2)
    spacing from the last at or below center - t to the first at or above
    center + t, so they bracket the window |xi - center| < t."""
    ts = np.asarray(nodes, dtype=float)
    centers = np.array([family.center(float(t)) for t in ts])
    ranges = np.empty((ts.size, 2), dtype=np.int64)
    ranges[:, 0] = np.floor((centers - ts) / spacing - 0.5)
    ranges[:, 1] = np.ceil((centers + ts) / spacing - 0.5)
    return centers, ranges


def _node_patch_matrix(
    family: WavePacketFamily, nodes: np.ndarray, spacing: float, centers: np.ndarray,
    ranges: np.ndarray,
) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
    """Real sparse matrix of phase-free packet spectra on the shared
    lattice, one row per node, given the nodes' windows (``_node_windows``).

    Row k holds the samples of t_k^(-1/2) chi_hat((xi - t_k^lam*xi0)/t_k),
    the packet's spectrum without its phase exp(-i*xi*x0), over the lattice
    points of its window; columns are the lattice points that the rows'
    windows span, and the spectrum vanishes at every column outside the
    row's window.  Returns the matrix and the lattice frequencies of its
    columns.  Every entry is a function of its node and lattice point alone,
    so a row range holds the same values as those rows of the whole matrix.
    All entries are evaluated in one pass.
    """
    ts = np.asarray(nodes, dtype=float)
    k_min = int(ranges[:, 0].min())
    k_max = int(ranges[:, 1].max())
    xi_cols = (np.arange(k_min, k_max + 1) + 0.5) * spacing

    lengths = ranges[:, 1] - ranges[:, 0] + 1
    indptr = np.zeros(ts.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    # entry e of row k sits in column (k_lo[k] - k_min) + (e - indptr[k])
    cols = np.arange(indptr[-1], dtype=np.int32)
    cols += np.repeat((ranges[:, 0] - k_min - indptr[:-1]).astype(np.int32), lengths)
    scales = np.array([float(t) ** -0.5 for t in ts])
    # (xi - center) / t, chi_hat of it, times the scale: each step in place
    # on one array of the entries, the per-row factors repeated along the rows
    data = xi_cols[cols]
    data -= np.repeat(centers, lengths)
    data /= np.repeat(ts, lengths)
    data = family.profile.chi_hat(data)
    data *= np.repeat(scales, lengths)
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
        """A real factor L with L L^T = C, cached after the first call.

        Up to ``_DENSE_LIMIT`` nodes L is the symmetric root C^(1/2), cached
        as ("dense", (shift, t^2, weights, lam_max)): a quadrature rule r(lam) =
        lam sum_k weights_k / (t_k^2 + lam) for sqrt(lam) over the spectrum,
        which ``apply_factor`` turns into banded shifted solves with C.  Only
        the eigenvalues are computed, from the band (LAPACK's banded driver,
        O(n * bandwidth) memory); no n x n array and no eigenvector is
        formed.  Above the limit, ("banded", the lower banded Cholesky
        factor).  Either factor is of C + shift I, the shift the first rung
        of the jitter ladder (0, 1e-14, 1e-12, 1e-10 times the trace) at
        which the kernel is positive definite.
        """
        if self._factor is not None:
            return self._factor
        scale = self.trace
        dense = self.size <= _DENSE_LIMIT
        if dense:
            eigvals = scipy.linalg.eig_banded(self.banded, lower=True, eigvals_only=True)
            floor = -_PSD_TOL * max(scale, 1e-300)
            if eigvals[0] < floor:
                raise NumericalError(
                    "noise_engine: covariance is not PSD "
                    f"(min eigenvalue {eigvals[0]:.3e} < {floor:.3e}); "
                    "quadrature grids are inconsistent"
                )
        for jitter in (0.0, 1e-14, 1e-12, _PSD_TOL):
            shift = jitter * scale
            if dense and eigvals[0] + shift <= 0.0:
                continue
            try:
                if dense:
                    t2, weights = _root_rule(eigvals + shift)
                    # the solve nearest to singular must factor too
                    _shifted_cholesky(self.banded, shift + t2[0])
                    self._factor = ("dense", (shift, t2, weights, eigvals[-1] + shift))
                else:
                    self._factor = ("banded", _shifted_cholesky(self.banded, shift))
                return self._factor
            except np.linalg.LinAlgError:
                continue
        raise NumericalError(
            "noise_engine: covariance is not PSD within the repair threshold "
            f"({_PSD_TOL:.0e} * trace); quadrature grids are inconsistent"
        )

    def _apply_root(self, x: np.ndarray) -> np.ndarray:
        """r(C') x for the real columns x, C' = C + shift I: one banded
        Cholesky solve y_k = (C' + t_k^2 I)^(-1) x per quadrature node.  A
        node's term w_k C' y_k is summed as w_k (x - t_k^2 y_k) where t_k^2
        is below the largest eigenvalue of C', and as C' (w_k y_k) where it
        is not, so the product with C' never meets the large y_k of the small
        shifts, whose components it would have to cancel."""
        shift, t2, weights, top = self._factor[1]
        high = np.zeros_like(x)
        low = np.zeros_like(x)
        for t2_k, weight in zip(t2, weights):
            chol = _shifted_cholesky(self.banded, shift + t2_k)
            y = scipy.linalg.cho_solve_banded((chol, True), x)
            if t2_k < top:
                low += (weight * t2_k) * y
            else:
                high += weight * y
        # C' high, band by band, then the low nodes' sum
        out = (self.diagonal + shift)[:, None] * high
        n = self.size
        for off in range(1, self.banded.shape[0]):
            band = self.banded[off, : n - off, None]
            out[: n - off] += band * high[off:]
            out[off:] += band * high[: n - off]
        out += np.sum(weights[t2 < top]) * x
        out -= low
        return out

    def apply_factor(self, z: np.ndarray) -> np.ndarray:
        """L @ z for a batch of draws, one draw per row; for the dense factor
        z r(C), the rows' real and imaginary parts solved as real columns."""
        kind, mat = self.factor()
        if kind == "dense":
            if np.iscomplexobj(z):
                m = z.shape[0]
                out = self._apply_root(np.concatenate([z.real.T, z.imag.T], axis=1))
                return np.ascontiguousarray((out[:, :m] + 1j * out[:, m:]).T)
            return np.ascontiguousarray(self._apply_root(z.T).T)
        out = np.zeros_like(z)
        n = self.size
        for d in range(min(mat.shape[0], n)):
            out[:, d:] += mat[d, : n - d] * z[:, : n - d]
        return out

    def apply_factor_transpose(self, w: np.ndarray) -> np.ndarray:
        """L^T @ w for one real vector, so that w @ (L z) = (L^T w) @ z; for
        the dense factor, which is symmetric, r(C) w."""
        kind, mat = self.factor()
        if kind == "dense":
            return self._apply_root(np.asarray(w, dtype=float)[:, None])[:, 0]
        n = self.size
        out = np.zeros(n)
        for d in range(min(mat.shape[0], n)):
            out[: n - d] += mat[d, : n - d] * w[d:]
        return out


def _shifted_cholesky(banded: np.ndarray, shift: float) -> np.ndarray:
    """Lower banded Cholesky factor of C + shift I, C given by its bands;
    raises ``LinAlgError`` where that is not positive definite.  LAPACK
    factors a Fortran-ordered work copy in place, so the factor is the one
    band copy made."""
    work = np.array(banded, order="F")
    work[0] += shift
    return scipy.linalg.cholesky_banded(work, overwrite_ab=True, lower=True)


def _root_rule(eigvals: np.ndarray):
    """Nodes t_k^2 and weights of r(lam) = lam sum_k weights_k / (t_k^2 +
    lam), a quadrature for sqrt(lam) over the positive ascending eigenvalues.

    sqrt(lam) = (2/pi) lam int_0^inf dt / (t^2 + lam) (Hale, Higham and
    Trefethen, SIAM J. Numer. Anal. 46, 2008), under t = sqrt(g)
    exp((pi/2) sinh s), g = sqrt(lam_min lam_max), is a trapezoid rule in s
    with weights step cosh(s_k) t_k.  s runs over [-5, 5], whose end terms
    are below 1e-30 sqrt(lam_max) at eigenvalue ratios up to 1e80, and the
    nodes whose terms stay below 1e-18 sqrt(lam_max) on [lam_min, lam_max]
    are dropped.  The step is halved
    from ``_ROOT_STEPS[0]`` until max |r(lam_i) - sqrt(lam_i)| <= ``_ROOT_TOL``
    sqrt(lam_max) at every eigenvalue, which bounds ||r(C) - C^(1/2)||_2, as
    the two share eigenvectors.  r is summed pairwise, in blocks of
    eigenvalues.
    """
    lo, hi = float(eigvals[0]), float(eigvals[-1])
    for step in _ROOT_STEPS:
        s = step * np.arange(-round(5.0 / step), round(5.0 / step) + 1)
        t = (lo * hi) ** 0.25 * np.exp(0.5 * np.pi * np.sinh(s))
        weights = step * np.cosh(s) * t
        keep = np.minimum(weights, hi * weights / t**2) > 1e-18 * np.sqrt(hi)
        t2, weights = t[keep] ** 2, weights[keep]
        rows = block_rows(t2.size)
        err = 0.0
        for i in range(0, eigvals.size, rows):
            lam = eigvals[i : i + rows]
            terms = np.add.outer(lam, t2)
            np.divide(weights, terms, out=terms)
            err = max(err, float(np.max(np.abs(lam * terms.sum(axis=1) - np.sqrt(lam)))))
        if err <= _ROOT_TOL * np.sqrt(hi):
            return t2, weights
    raise NumericalError(
        "noise_engine: the quadrature of the symmetric root misses its certificate "
        f"({err:.3e} > {_ROOT_TOL:.0e} * sqrt(max eigenvalue)) at the smallest step"
    )


def build_kernel(
    family: WavePacketFamily,
    nodes,
    beta: float,
    points_per_min_window: int = 128,
) -> NoiseKernel:
    """Covariance kernel C[t,s] = |(f_t|f_s)_beta|^2 on a shared lattice.

    The bands are assembled one row tile at a time.  A tile holds at most
    ``BLOCK_ENTRIES`` patch entries (one row at least); its gram rows
    G[i, :] = sum_k f_i[k] w_k f_j[k] (the patch is real) are the product
    of its weighted patch rows with the patch rows of its neighbours, the
    rows whose lattice windows meet the tile's columns.  ``csr_matmat`` sums
    each G[i, j] over the same k in the same order whichever rows a tile
    holds, so the bands do not depend on the tiling, and memory grows with
    the tile and the bandwidth, not with the node count.
    """
    nodes = np.atleast_1d(np.asarray(nodes, dtype=float))
    if nodes.size < 1:
        raise ConfigError("noise_engine: need at least one node")
    if not np.all(np.isfinite(nodes)):
        # the checks below pass NaN, as every comparison with it is false,
        # and a lone inf
        raise ConfigError("noise_engine: nodes must be finite")
    if np.any(np.diff(nodes) <= 0.0):
        raise ConfigError("noise_engine: nodes must be strictly increasing")
    if nodes[0] < 1.0:
        raise ConfigError("noise_engine: all nodes must satisfy t >= 1")

    spacing = lattice_spacing_for(nodes, points_per_min_window)
    weight = JapaneseBracketWeight(beta)
    centers, ranges = _node_windows(family, nodes, spacing)
    ends = np.cumsum(ranges[:, 1] - ranges[:, 0] + 1)
    n = nodes.size
    # sums[d, i] = G[i, i + d] + G[i + d, i]: each term is added to a zero
    # once, so the sum is the same whichever tile adds first
    sums = np.zeros((1, n))
    r0 = 0
    while r0 < n:
        start = ends[r0 - 1] if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(ends, start + BLOCK_ENTRIES, side="right")))
        meet = np.flatnonzero(
            (ranges[:, 0] <= ranges[r0:r1, 1].max()) & (ranges[:, 1] >= ranges[r0:r1, 0].min())
        )
        n0, n1 = int(meet[0]), int(meet[-1]) + 1
        near, xi_cols = _node_patch_matrix(
            family, nodes[n0:n1], spacing, centers[n0:n1], ranges[n0:n1]
        )
        tile = near[r0 - n0 : r1 - n0]  # a row slice copies, so it scales in place
        tile.data *= (weight(xi_cols) * spacing)[tile.indices]
        gram = (tile @ near.T).tocoo()
        i = gram.row + r0
        j = gram.col + n0
        width = int(np.abs(j - i).max(initial=0)) + 1
        if width > sums.shape[0]:
            sums = np.pad(sums, ((0, width - sums.shape[0]), (0, 0)))
        # a tile's gram holds each (i, j) once, so no index repeats in a sum
        up, down = j >= i, j <= i
        sums[j[up] - i[up], i[up]] += gram.data[up]
        sums[i[down] - j[down], j[down]] += gram.data[down]
        # free this tile's arrays before the next tile's patch is evaluated
        del near, tile, gram, i, j, up, down
        r0 = r1

    banded = sums  # (0.5 * sums)**2 in place
    banded *= 0.5
    banded *= banded
    filled = np.flatnonzero(banded.any(axis=1))
    banded = banded[: int(filled[-1]) + 1 if filled.size else 1]

    diag = banded[0]
    if not np.all(np.isfinite(banded)):
        raise NumericalError("noise_engine: kernel entries must be finite")
    if np.any(diag <= 0.0):
        raise NumericalError("noise_engine: kernel diagonal must be positive")
    if banded.min() < -_PSD_TOL * float(np.sum(diag)):
        raise NumericalError(
            f"noise_engine: kernel entries must be nonnegative (found {banded.min():.3e})"
        )
    np.clip(banded, 0.0, None, out=banded)
    return NoiseKernel(nodes=nodes, banded=banded)


def sample_path(kernel: NoiseKernel, seed: int) -> np.ndarray:
    """One joint draw over the kernel's nodes: the ``sample_paths`` row of
    ``seed``."""
    return sample_paths(kernel, [seed])[0]


def sample_paths(kernel: NoiseKernel, seeds) -> np.ndarray:
    """Batch of joint draws over the kernel's nodes, one row per seed: row i
    is L z with z iid circular complex normals from the stream
    ``rng_for(seeds[i], "noise-path")``, its key derived with all the others
    in one call."""
    keys = stream_keys(seeds, "noise-path")
    z = np.empty((len(keys), kernel.size), dtype=complex)
    for i, rng in enumerate(keyed_streams(keys)):
        z[i] = standard_complex_normal(rng, kernel.size)
    return kernel.apply_factor(z)


# ---------------------------------------------------------------------------
# Truncated basis-expansion oracle
# ---------------------------------------------------------------------------


def _oracle_coefficients(family: WavePacketFamily, nodes: np.ndarray, beta: float):
    spacing = lattice_spacing_for(nodes, ORACLE_POINTS_PER_MIN_WINDOW)
    centers, ranges = _node_windows(family, nodes, spacing)
    span = int(ranges[:, 1].max() - ranges[:, 0].min()) + 1  # the patch matrix's columns
    if span > ORACLE_TRUNCATION:
        raise ConfigError(
            "noise_engine: node windows escape the truncated lattice "
            f"({span} > {ORACLE_TRUNCATION} frequencies)"
        )
    mat, xi_g = _node_patch_matrix(family, nodes, spacing, centers, ranges)
    weight = JapaneseBracketWeight(beta)
    # the packet spectra at x0: the phase-free patch times exp(-i*xi*x0)
    spectra = mat.toarray() * np.exp(-1j * xi_g * family.x0)

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
    seed: int = 0,
    n_samples: int = 1,
) -> np.ndarray:
    """Error samples from the explicit finite basis expansion.

    Realizes E(f, g) = sum_{n,m} (f|e_n)_beta (g|e_m)_beta X_nm with one
    iid circular Gaussian matrix X per sample, shared across nodes.  Used
    only to validate that ``sample_path`` produces the same distribution.

    The samples fall into draw batches of at most ``_ORACLE_DRAW_BATCH``
    entries of X; a batch draws the real parts of all its X, then the
    imaginary parts.  Each half streams in sample blocks of at most
    ``BLOCK_ENTRIES`` entries, contracted as they arrive with v by one
    matrix product and then with u, so no batch-sized array is formed.
    """
    nodes = np.atleast_1d(np.asarray(nodes, dtype=float))
    u, v = _oracle_coefficients(family, nodes, beta)
    shape = (u.shape[1], v.shape[1])
    acc = np.zeros((n_samples, nodes.size), dtype=complex)
    rng = rng_for(seed, "basis-oracle")
    batch = max(1, min(n_samples, _ORACLE_DRAW_BATCH // (shape[0] * shape[1] + 1)))
    block = block_rows(shape[0] * shape[1])
    for lo in range(0, n_samples, batch):
        hi = min(lo + batch, n_samples)
        for part in (1.0, 1j):
            for b0 in range(lo, hi, block):
                b1 = min(b0 + block, hi)
                x = rng.standard_normal((b1 - b0, *shape))
                acc[b0:b1] += part * np.einsum("kn,bnk->bk", u, x @ v.T)
    acc /= np.sqrt(2.0)
    return acc
