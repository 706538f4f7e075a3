import numpy as np
import pytest
import scipy.sparse
from scipy.integrate import simpson
from scipy.stats import ks_2samp

from symrec.errors import ConfigError, NumericalError
from symrec.measurement_recovery import average_grid
from symrec.noise_engine import (
    JapaneseBracketWeight,
    NoiseKernel,
    _banded,
    _lattice_index_range,
    _node_patch_matrix,
    _oracle_coefficients,
    basis_oracle_batch,
    build_kernel,
    sample_functional,
    sample_path,
    sample_paths,
)
from symrec.rng import child_seed
from symrec.wave_packets import WavePacketFamily, lattice_spacing_for

from reference_quadrature import spectrum


@pytest.fixture(scope="module")
def base_family(profile):
    return WavePacketFamily(x0=0.0, xi0=1.0, lam=2.0, profile=profile)


def sobolev_norm_sq_oracle(family, t, beta, n=20001):
    """Fine quadrature of integral (1+xi^2)^beta |fhat_t|^2 dxi."""
    eta = np.linspace(-1.0, 1.0, n)
    xi = t ** family.lam * family.xi0 + t * eta
    integrand = (1.0 + xi ** 2) ** beta * family.profile.chi_hat(eta) ** 2
    return float(simpson(integrand, x=eta))


def test_single_node_unit_variance(base_family):
    kernel = build_kernel(base_family, [4.0], 0.0)
    assert abs(kernel.dense()[0, 0] - 1.0) < 1e-6


def test_far_nodes_give_exact_zero_offdiagonal(base_family):
    kernel = build_kernel(base_family, [4.0, 40.0], 0.0)
    assert kernel.dense()[0, 1] == 0.0


def test_close_nodes_match_high_resolution_quadrature(base_family):
    kernel = build_kernel(base_family, [8.0, 8.05], 0.0)
    oracle = build_kernel(base_family, [8.0, 8.05], 0.0, points_per_min_window=512)
    got, want = kernel.dense()[0, 1], oracle.dense()[0, 1]
    assert want > 0.5  # the nodes genuinely overlap
    assert abs(got - want) < 1e-6 * want


def test_kernel_shape_properties(base_family):
    nodes = [6.0, 6.05, 6.2, 9.0]
    beta = 0.4
    kernel = build_kernel(base_family, nodes, beta)
    cov = kernel.dense()
    np.testing.assert_allclose(cov, cov.T)
    assert np.all(cov >= 0.0)
    eigs = np.linalg.eigvalsh(cov)
    assert eigs.min() > -1e-10 * kernel.trace
    for i, t in enumerate(nodes):
        norm_sq = sobolev_norm_sq_oracle(base_family, t, beta)
        assert abs(cov[i, i] - norm_sq ** 2) < 1e-5 * norm_sq ** 2


def test_same_seed_same_path(base_family):
    kernel = build_kernel(base_family, [8.0, 8.05], 0.0)
    p1 = sample_path(kernel, 987654321)
    p2 = sample_path(kernel, 987654321)
    assert np.array_equal(p1, p2)


def test_isometry_and_circular_symmetry(base_family):
    kernel = build_kernel(base_family, [4.0], 0.25)
    n = 10_000
    seeds = [child_seed(31, trial, "iso") for trial in range(n)]
    vals = sample_paths(kernel, seeds)[:, 0]
    ratio = np.mean(np.abs(vals) ** 2) / kernel.diagonal[0]
    assert abs(ratio - 1.0) < 0.05
    # E[Z^2] -> 0 at rate 1/sqrt(n)
    pseudo = np.mean(vals ** 2) / kernel.diagonal[0]
    assert abs(pseudo) < 3.0 / np.sqrt(n)


def test_pseudo_covariance_across_nodes(base_family):
    kernel = build_kernel(base_family, [4.0, 4.04], 0.0)
    n = 10_000
    seeds = [child_seed(77, trial, "pseudo") for trial in range(n)]
    paths = sample_paths(kernel, seeds)
    prod = paths[:, 0] * paths[:, 1]
    stderr = np.std(prod) / np.sqrt(n)
    assert abs(np.mean(prod)) < 3.0 * stderr


def test_plain_variance_slope_from_kernel(base_family):
    # deterministic form of the single-node scaling law
    m, beta, lam = 1.0, 0.25, 2.0
    family = WavePacketFamily(0.0, 1.0, lam, base_family.profile)
    ts = np.array([8.0, 16.0, 32.0, 64.0])
    var = []
    for t in ts:
        kernel = build_kernel(family, [t], beta)
        var.append(t ** (-2 * lam * m) * kernel.diagonal[0])
    slope = np.polyfit(np.log(ts), np.log(var), 1)[0]
    assert abs(slope - (-2 * lam * (m - 2 * beta))) < 0.1


@pytest.mark.parametrize("N, n_nodes, kind", [(12.5, 200, "dense"), (94.0, 1500, "banded")])
def test_factor_transpose_and_functional(base_family, rng, N, n_nodes, kind):
    # L^T w against w @ L, with L read off apply_factor on an identity batch;
    # then u @ z against w @ (L z) for the z of one sample_path draw
    kernel = build_kernel(base_family, average_grid(N, n_nodes), 0.0)
    assert kernel.factor()[0] == kind
    L = kernel.apply_factor(np.eye(kernel.size)).T
    w = rng.uniform(0.5, 1.5, kernel.size)
    u = kernel.apply_factor_transpose(w)
    want = w @ L
    assert np.max(np.abs(u - want)) <= 1e-12 * np.max(np.abs(want))
    for seed in (5, 2**63 + 11):
        path = sample_path(kernel, seed)
        scale = np.sqrt(kernel.quad_form(w))
        assert abs(sample_functional(u, seed) - w @ path) <= 1e-12 * scale


@pytest.mark.parametrize("N, n_nodes", [(12.5, 200), (94.0, 1500)])
def test_quad_form_matches_dense(base_family, rng, N, n_nodes):
    # one kernel on either side of the dense/banded factor switch
    kernel = build_kernel(base_family, average_grid(N, n_nodes), 0.0)
    dense = kernel.dense()
    w = rng.uniform(0.5, 1.5, kernel.size)
    want = w @ dense @ w
    assert abs(kernel.quad_form(w) - want) <= 1e-12 * want
    rows, cols = np.nonzero(dense)
    assert max(kernel.offsets) == np.max(np.abs(rows - cols))


def test_nonpsd_kernel_rejected():
    bad = NoiseKernel(
        nodes=np.array([1.0, 2.0]),
        beta=0.0,
        banded=np.array([[1.0, 1.0], [2.0, 0.0]]),
    )
    with pytest.raises(NumericalError, match="PSD"):
        bad.factor()


class TestBasisOracle:
    NODES = (4.0, 4.02, 4.05)
    BETA = 0.25

    def test_covariance_matches_kernel(self, base_family):
        kernel = build_kernel(
            base_family, self.NODES, self.BETA, points_per_min_window=32
        )
        samples = basis_oracle_batch(
            base_family, self.NODES, self.BETA, truncation=128,
            seed=child_seed(5, "oracle"), n_samples=10_000,
            points_per_min_window=32,
        )
        emp = (samples.conj().T @ samples / samples.shape[0]).real
        rel = np.abs(emp - kernel.dense()) / kernel.dense()
        assert rel.max() < 0.05

    def test_unit_variance_at_beta_zero(self, base_family):
        samples = basis_oracle_batch(
            base_family, [4.0], 0.0, truncation=128, seed=11, n_samples=10_000,
            points_per_min_window=32,
        )
        assert abs(np.mean(np.abs(samples[:, 0]) ** 2) - 1.0) < 0.05

    def test_distribution_matches_kernel_sampler(self, base_family):
        n = 10_000
        oracle = basis_oracle_batch(
            base_family, self.NODES, self.BETA, truncation=128,
            seed=child_seed(6, "oracle"), n_samples=n, points_per_min_window=32,
        )
        kernel = build_kernel(
            base_family, self.NODES, self.BETA, points_per_min_window=32
        )
        seeds = [child_seed(6, trial, "kernel") for trial in range(n)]
        draws = sample_paths(kernel, seeds)
        result = ks_2samp(np.abs(oracle[:, 0]), np.abs(draws[:, 0]))
        assert result.pvalue > 0.01

    def test_window_escape_signals(self, base_family):
        with pytest.raises(ConfigError, match="truncated lattice"):
            basis_oracle_batch(
                base_family, [4.0, 16.0], 0.0, truncation=128,
                points_per_min_window=32,
            )

    @pytest.mark.parametrize("x0", [0.0, -0.5, 0.3])
    def test_coefficients_are_the_per_node_spectra(self, profile, x0):
        # u and v come from the kernel's patch matrix; node by node they are
        # the packet spectra on the lattice, reflected for the conjugated slot
        family = WavePacketFamily(x0=x0, xi0=1.0, lam=2.0, profile=profile)
        nodes = np.array(self.NODES)
        u, v = _oracle_coefficients(family, nodes, self.BETA, 128, 32)
        spacing = lattice_spacing_for(nodes, 32)
        xi = _node_patch_matrix(family, nodes, spacing)[1]
        w = JapaneseBracketWeight(self.BETA)
        refl = xi[::-1]
        for k, t in enumerate(nodes):
            want_u = spectrum(family, t, refl) * np.sqrt(w(-refl) * spacing)
            want_v = np.conj(spectrum(family, t, xi)) * np.sqrt(w(xi) * spacing)
            assert np.array_equal(u[k], want_u)
            assert np.array_equal(v[k], want_v)


def test_nodes_must_increase(base_family):
    with pytest.raises(ConfigError, match="increasing"):
        build_kernel(base_family, [8.0, 4.0], 0.0)


def _patch_matrix_per_row(family, nodes, spacing):
    """One ``spectrum`` call per node, assembled through COO."""
    ranges = [_lattice_index_range(family.center(t), t, spacing) for t in nodes]
    k_min = min(r[0] for r in ranges)
    k_max = max(r[1] for r in ranges)
    xi_cols = (np.arange(k_min, k_max + 1) + 0.5) * spacing
    rows, cols, data = [], [], []
    for row, (t, (k_lo, k_hi)) in enumerate(zip(nodes, ranges)):
        idx = np.arange(k_lo - k_min, k_hi - k_min + 1)
        rows.append(np.full(idx.size, row))
        cols.append(idx)
        data.append(spectrum(family, float(t), xi_cols[idx]))
    mat = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(nodes), xi_cols.size),
    ).tocsr()
    return mat, xi_cols


@pytest.mark.parametrize("lam, x0", [(2.0, 0.3), (2.5, -0.45)])
@pytest.mark.parametrize("n_nodes", [1, 128, 1500, 9407])
def test_one_pass_patch_matrix_equals_per_row(profile, lam, x0, n_nodes):
    family = WavePacketFamily(x0=x0, xi0=1.0, lam=lam, profile=profile)
    nodes = np.array([48.0]) if n_nodes == 1 else average_grid(48.0, n_nodes)
    spacing = lattice_spacing_for(nodes)
    mat, xi_cols = _node_patch_matrix(family, nodes, spacing)
    ref, ref_xi = _patch_matrix_per_row(family, nodes, spacing)
    np.testing.assert_array_equal(xi_cols, ref_xi)
    assert mat.shape == ref.shape
    np.testing.assert_array_equal(mat.indptr, ref.indptr)
    np.testing.assert_array_equal(mat.indices, ref.indices)
    np.testing.assert_array_equal(mat.data, ref.data)


def _multiply_route_bands(family, nodes, beta):
    """The kernel bands with the weights applied through ``multiply``, which
    returns a COO copy of the patch; ``build_kernel`` scales in place."""
    spacing = lattice_spacing_for(nodes)
    mat, xi_cols = _node_patch_matrix(family, nodes, spacing)
    col_weights = JapaneseBracketWeight(beta)(xi_cols) * spacing
    gram = ((mat.conj().multiply(col_weights)) @ mat.T).tocsr()
    gram_r = 0.5 * (gram + gram.getH()).real
    return np.clip(_banded(gram_r.multiply(gram_r).tocoo()), 0.0, None)


@pytest.mark.parametrize("beta", [0.0, 0.25])
@pytest.mark.parametrize("n_nodes", [1, 640, 1500])   # single, dense, banded
def test_in_place_weighting_matches_the_multiply_route(base_family, beta, n_nodes):
    nodes = np.array([48.0]) if n_nodes == 1 else average_grid(48.0, n_nodes)
    kernel = build_kernel(base_family, nodes, beta)
    assert np.array_equal(kernel.banded, _multiply_route_bands(base_family, nodes, beta))
