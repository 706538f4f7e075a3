import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from scipy.integrate import simpson
from scipy.stats import ks_2samp

import symrec
from symrec import noise_engine, wave_packets
from symrec.errors import ConfigError, NumericalError
from symrec.measurement_recovery import adaptive_average_nodes, average_grid
from symrec.noise_engine import (
    _PSD_TOL,
    ORACLE_POINTS_PER_MIN_WINDOW,
    JapaneseBracketWeight,
    NoiseKernel,
    _node_patch_matrix,
    _node_windows,
    _oracle_coefficients,
    basis_oracle_batch,
    build_kernel,
    sample_path,
    sample_paths,
)
from symrec.parallel import parallel_map, worker_limit
from symrec.rng import (
    child_seed, child_seeds, complex_normal_dot, keyed_streams, rng_for,
    standard_complex_normal, stream_keys,
)
from symrec.wave_packets import BLOCK_ENTRIES, WavePacketFamily, lattice_spacing_for

from reference_quadrature import inner_product_sobolev, make_packet, spectrum


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


def test_path_batch_draws_the_single_path_streams(base_family):
    # each row's white draw is that of sample_path(kernel, seed)
    kernel = build_kernel(base_family, [8.0, 8.05, 8.2], 0.0)
    seeds = [0, 7, 2**63 + 5, 2**64 - 1, *child_seeds(3, np.arange(4), "iso").tolist()]
    want = kernel.apply_factor(np.array(
        [standard_complex_normal(rng_for(seed, "noise-path"), kernel.size) for seed in seeds]
    ))
    assert np.array_equal(sample_paths(kernel, seeds), want)
    assert np.array_equal(sample_paths(kernel, np.array(seeds, dtype=np.uint64)), want)


def test_pooled_functionals_equal_serial_above_blas_threading_size(rng):
    # 12,000 entries: above the size at which OpenBLAS threads a dot product
    u = rng.standard_normal(12_000)

    def draw(trial):
        return complex_normal_dot(rng_for(11, trial, "dot"), u)

    serial = [draw(trial) for trial in range(40)]
    with worker_limit(2):
        pooled = parallel_map(lambda chunk: [draw(trial) for trial in chunk], range(40))
    assert np.array_equal(pooled, serial)
    want = u @ standard_complex_normal(rng_for(11, 0, "dot"), u.size)
    assert abs(serial[0] - want) <= 1e-12 * abs(want)


def _at_one_blas_thread_and_the_default(code):
    """stdout of ``code`` in two new interpreters, one with OpenBLAS on one
    thread and one at its default (one per core); on a one-core host both
    runs are serial."""
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }
    src = str(Path(symrec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return [
        subprocess.run(
            [sys.executable, "-c", code], env={**env, **extra},
            capture_output=True, text=True, check=True,
        ).stdout
        for extra in ({"OPENBLAS_NUM_THREADS": "1"}, {})
    ]


def test_functionals_do_not_depend_on_the_blas_thread_count():
    code = (
        "import numpy as np\n"
        "from symrec.rng import complex_normal_dot, rng_for\n"
        "for n in (12_000, 14_482):\n"
        "    u = rng_for(5, n, 'u').standard_normal(n)\n"
        "    for trial in range(20):\n"
        "        z = complex_normal_dot(rng_for(5, trial, 'dot'), u)\n"
        "        print(z.real.hex(), z.imag.hex())\n"
    )
    runs = _at_one_blas_thread_and_the_default(code)
    assert runs[0].count("\n") == 40
    assert runs[0] == runs[1]


def test_dense_root_does_not_depend_on_the_blas_thread_count():
    # certify's 640-node variance-scaling design (T = 8, lambda 2.5): u =
    # L^T w for its uniform weights and one batch of paths L z
    code = (
        "import numpy as np\n"
        "from symrec.measurement_recovery import adaptive_average_nodes, average_grid\n"
        "from symrec.noise_engine import build_kernel, sample_paths\n"
        "from symrec.wave_packets import WavePacketFamily, make_profile\n"
        "family = WavePacketFamily(0.0, 1.0, 2.5, make_profile(1.0))\n"
        "kernel = build_kernel(family, average_grid(8.0, adaptive_average_nodes(8.0, 2.5)), 0.0)\n"
        "for x in kernel.apply_factor_transpose(np.full(kernel.size, 1.0 / kernel.size)):\n"
        "    print(x.hex())\n"
        "for z in sample_paths(kernel, range(4)).ravel():\n"
        "    print(z.real.hex(), z.imag.hex())\n"
    )
    runs = _at_one_blas_thread_and_the_default(code)
    assert runs[0].count("\n") == 5 * 640
    assert runs[0] == runs[1]


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


def _multiplied_out_root(kernel):
    """The dense factor as it was formed before it was applied by shifted
    solves: numpy's eigh, then (V sqrt(Lambda)) V^T."""
    eigvals, eigvecs = np.linalg.eigh(kernel.dense())
    return (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T


# dense designs of the certify workload: rate at N = 4 and N = 8 sqrt(2) and
# variance-scaling at T = 8 (lambda 2.5), nonconvergence at T = 64 (lambda 2)
@pytest.mark.parametrize(
    "N, lam, n_nodes",
    [(4.0, 2.5, 227), (8.0, 2.5, 640), (64.0, 2.0, 1024), (8.0 * 2.0**0.5, 2.5, 1077)],
)
def test_dense_factor_is_the_multiplied_out_root(profile, rng, traced_peak, N, lam, n_nodes):
    family = WavePacketFamily(x0=0.0, xi0=1.0, lam=lam, profile=profile)
    kernel = build_kernel(family, average_grid(N, adaptive_average_nodes(N, lam)), 0.0)
    n = kernel.size
    assert n == n_nodes
    w = rng.uniform(0.5, 1.5, n)

    def factor_and_transpose():
        kernel.factor()
        kernel.apply_factor_transpose(w)

    # no n x n array: the eigenvector factor held two of them at its peak
    assert traced_peak(factor_and_transpose) < 8 * n * n
    assert kernel.factor()[0] == "dense"
    want = _multiplied_out_root(kernel).T @ w
    got = kernel.apply_factor_transpose(w)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    L = kernel.apply_factor(np.eye(n)).T
    cov = kernel.dense()
    assert np.max(np.abs(L @ L.T - cov)) <= 1e-13 * np.max(cov)


def _refined_root(kernel):
    """numpy's multiplied-out root after one Newton step on R^2 = C, the
    residual and the step taken in long double.  At eigenvalue ratios of
    1e10 and more numpy's root alone is 0.7e-13 to 1.4e-12 off in R w: on the
    ratio 5.7e10 design of 300 nodes on [4, 8] (lambda 2), against R w from
    a long-double quadrature of the integral that ``_root_rule`` discretizes,
    numpy's root read 1.3e-13 and the refined root 1.1e-15."""
    assert np.finfo(np.longdouble).eps < np.finfo(float).eps
    cov = kernel.dense()
    eigvals, eigvecs = np.linalg.eigh(cov)
    vecs = eigvecs.astype(np.longdouble)
    roots = np.sqrt(np.clip(eigvals, 0.0, None)).astype(np.longdouble)
    root = (vecs * roots) @ vecs.T
    # R X + X R = C - R^2, solved in R's eigenbasis
    residual = vecs.T @ (cov - root @ root) @ vecs
    return (root + vecs @ (residual / np.add.outer(roots, roots)) @ vecs.T).astype(float)


def test_ill_conditioned_dense_root(profile, rng):
    # 170 nodes on [2, 4], where the adaptive count is 64: the eigenvalues
    # span more than ten decades, so the root's step is halved below the
    # certify designs' and the small shifts are nearly singular
    family = WavePacketFamily(x0=0.0, xi0=1.0, lam=2.0, profile=profile)
    kernel = build_kernel(family, average_grid(2.0, 170), 0.0)
    eigvals = np.linalg.eigvalsh(kernel.dense())
    assert eigvals[0] > 0.0 and eigvals[-1] / eigvals[0] >= 1e10
    assert kernel.factor()[0] == "dense"
    n = kernel.size
    w = rng.uniform(0.5, 1.5, n)
    want = _refined_root(kernel).T @ w
    got = kernel.apply_factor_transpose(w)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    L = kernel.apply_factor(np.eye(n)).T
    cov = kernel.dense()
    assert np.max(np.abs(L @ L.T - cov)) <= 1e-13 * np.max(cov)


def test_kernel_psd_within_the_floor_factors_through_the_ladder():
    # eigenvalues 2 + d and -d: negative, but above the floor -1e-10 * trace,
    # so the ladder's rung 1e-12 * trace, the first to lift -d above zero,
    # gives the root of C + 1e-12 * trace * I
    d = 1e-12
    kernel = NoiseKernel(nodes=np.array([1.0, 2.0]), banded=np.array([[1.0, 1.0], [1.0 + d, 0.0]]))
    eigvals = np.linalg.eigvalsh(kernel.dense())
    assert -_PSD_TOL * kernel.trace < eigvals[0] < 0.0
    kind, (shift, *_) = kernel.factor()
    assert kind == "dense"
    assert shift == 1e-12 * kernel.trace
    L = kernel.apply_factor(np.eye(2)).T
    assert np.max(np.abs(L @ L.T - (kernel.dense() + shift * np.eye(2)))) <= 1e-13


@pytest.mark.parametrize("N, n_nodes, kind", [(12.5, 200, "dense"), (94.0, 1500, "banded")])
def test_factor_transpose_and_functional(base_family, rng, N, n_nodes, kind):
    # L^T w against w @ L, with L read off apply_factor on an identity batch;
    # then u @ z, drawn from the batched stream keys, against w @ (L z) for
    # the z of the sample_path draw at the same seed
    kernel = build_kernel(base_family, average_grid(N, n_nodes), 0.0)
    assert kernel.factor()[0] == kind
    L = kernel.apply_factor(np.eye(kernel.size)).T
    w = rng.uniform(0.5, 1.5, kernel.size)
    u = kernel.apply_factor_transpose(w)
    want = w @ L
    assert np.max(np.abs(u - want)) <= 1e-12 * np.max(np.abs(want))
    seeds = [5, 2**63 + 11]
    scale = np.sqrt(kernel.quad_form(w))
    for seed, rng in zip(seeds, keyed_streams(stream_keys(seeds, "noise-path"))):
        path = sample_path(kernel, seed)
        assert abs(complex_normal_dot(rng, u) - w @ path) <= 1e-12 * scale


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


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.4])
@pytest.mark.parametrize("xi0, x0", [(1.0, 0.7), (-1.0, -1.3)])
def test_off_diagonal_entries_are_the_packet_overlaps(profile, beta, xi0, x0):
    # C[t, s] = |(f_t|f_s)_beta|^2 at scattered node pairs, near, partly
    # overlapping and disjoint, against reference_quadrature's midpoint rule
    # on each packet's own window, which shares no lattice with the kernel.
    # Tolerance: 1e-12 of sqrt(C[t, t] C[s, s]); the two agree to 2e-14.
    family = WavePacketFamily(x0=x0, xi0=xi0, lam=2.0, profile=profile)
    nodes = np.array([3.0, 3.04, 3.3, 4.1, 4.17, 6.5, 6.52, 12.0])
    cov = build_kernel(family, nodes, beta).dense()
    weight = JapaneseBracketWeight(beta)
    packets = [make_packet(family, t, num_points=512) for t in nodes]
    overlaps = []
    for i in range(nodes.size):
        for j in range(i + 1, nodes.size):
            want = abs(inner_product_sobolev(packets[i], packets[j], weight)) ** 2
            scale = np.sqrt(cov[i, i] * cov[j, j])
            assert abs(cov[i, j] - want) <= 1e-12 * scale
            overlaps.append(want / scale)
    assert sum(o > 0.1 for o in overlaps) >= 4 and sum(o == 0.0 for o in overlaps) >= 10


def test_root_that_misses_its_certificate_is_a_numerical_error(base_family, monkeypatch):
    # one step of 0.28 leaves the rule's error near 1e-5 sqrt(lam_max)
    monkeypatch.setattr(noise_engine, "_ROOT_STEPS", [0.28])
    kernel = build_kernel(base_family, average_grid(12.5, 200), 0.0)
    with pytest.raises(NumericalError, match="symmetric root"):
        kernel.factor()


def test_nonpsd_kernel_rejected():
    bad = NoiseKernel(
        nodes=np.array([1.0, 2.0]),
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
            base_family, self.NODES, self.BETA, seed=child_seed(5, "oracle"), n_samples=10_000
        )
        emp = (samples.conj().T @ samples / samples.shape[0]).real
        rel = np.abs(emp - kernel.dense()) / kernel.dense()
        assert rel.max() < 0.05

    def test_unit_variance_at_beta_zero(self, base_family):
        samples = basis_oracle_batch(base_family, [4.0], 0.0, seed=11, n_samples=10_000)
        assert abs(np.mean(np.abs(samples[:, 0]) ** 2) - 1.0) < 0.05

    def test_distribution_matches_kernel_sampler(self, base_family):
        n = 10_000
        oracle = basis_oracle_batch(
            base_family, self.NODES, self.BETA, seed=child_seed(6, "oracle"), n_samples=n
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
            basis_oracle_batch(base_family, [4.0, 16.0], 0.0)

    @pytest.mark.parametrize(
        "n_samples, batch_samples, block_samples",
        [(100, None, None), (1000, 61, None), (50, 7, 3)],
        ids=["one-batch", "many-batches", "small-batches"],
    )
    @pytest.mark.parametrize("beta", [0.0, 0.25])
    def test_streamed_draws_match_one_array_per_batch(
        self, base_family, monkeypatch, beta, n_samples, batch_samples, block_samples
    ):
        # the draw batches pin which entries of X each sample takes; the
        # sample blocks inside a batch must not move them
        u, v = _oracle_coefficients(base_family, np.array(self.NODES), beta)
        entries = u.shape[1] * v.shape[1]
        if batch_samples is not None:
            monkeypatch.setattr(noise_engine, "_ORACLE_DRAW_BATCH", batch_samples * (entries + 1))
        if block_samples is not None:
            monkeypatch.setattr(wave_packets, "BLOCK_ENTRIES", block_samples * entries)
        got = basis_oracle_batch(
            base_family, self.NODES, beta, seed=child_seed(8, "oracle"), n_samples=n_samples
        )
        want = _one_array_oracle(
            base_family, self.NODES, beta, child_seed(8, "oracle"), n_samples,
            noise_engine._ORACLE_DRAW_BATCH,
        )
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_oracle_memory_follows_the_block_not_the_batch(self, base_family, traced_peak):
        # the noise-stats design: its 1000 samples are one draw batch of
        # 4.9 M entries of X (70 x 70 per sample)
        peak = traced_peak(
            basis_oracle_batch, base_family, self.NODES, self.BETA,
            child_seed(9, "oracle"), 1000,
        )
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("x0", [0.0, -0.5, 0.3])
    def test_coefficients_are_the_per_node_spectra(self, profile, x0):
        # u and v come from the kernel's phase-free patch matrix times the
        # phase exp(-i xi x0); node by node they are the packet spectra on
        # the lattice, reflected for the conjugated slot
        family = WavePacketFamily(x0=x0, xi0=1.0, lam=2.0, profile=profile)
        flat = dataclasses.replace(family, x0=0.0)
        nodes = np.array(self.NODES)
        u, v = _oracle_coefficients(family, nodes, self.BETA)
        spacing = lattice_spacing_for(nodes, ORACLE_POINTS_PER_MIN_WINDOW)
        xi = _patch_matrix(family, nodes, spacing)[1]
        w = JapaneseBracketWeight(self.BETA)
        refl = xi[::-1]
        for k, t in enumerate(nodes):
            at_x0_u = spectrum(flat, t, refl) * np.exp(-1j * refl * x0)
            at_x0_v = spectrum(flat, t, xi) * np.exp(-1j * xi * x0)
            want_u = at_x0_u * np.sqrt(w(-refl) * spacing)
            want_v = np.conj(at_x0_v) * np.sqrt(w(xi) * spacing)
            assert np.array_equal(u[k], want_u)
            assert np.array_equal(v[k], want_v)

    @pytest.mark.parametrize("beta", [0.0, 0.25])
    def test_complex_at_x0_zero_as_with_the_phase(self, base_family, monkeypatch, beta):
        # the kernel's patch is real; the oracle's coefficients are complex,
        # so they and its samples are those of the phase route
        nodes = np.array(self.NODES)
        args = (base_family, nodes, beta)
        u, v = _oracle_coefficients(*args)
        samples = basis_oracle_batch(*args, 123, 300)
        monkeypatch.setattr(noise_engine, "_node_patch_matrix", _complex_phase_patch)
        want_u, want_v = _oracle_coefficients(*args)
        assert u.dtype == v.dtype == complex
        assert np.array_equal(u, want_u) and np.array_equal(v, want_v)
        assert np.array_equal(samples, basis_oracle_batch(*args, 123, 300))


def _one_array_oracle(family, nodes, beta, seed, n_samples, draw_batch):
    """``basis_oracle_batch`` drawing each batch as one complex array and
    contracting it whole."""
    u, v = _oracle_coefficients(family, np.asarray(nodes, dtype=float), beta)
    out = np.empty((n_samples, len(nodes)), dtype=complex)
    rng = rng_for(seed, "basis-oracle")
    batch = max(1, min(n_samples, draw_batch // (u.shape[1] * v.shape[1] + 1)))
    for lo in range(0, n_samples, batch):
        nb = min(batch, n_samples - lo)
        x = standard_complex_normal(rng, nb * u.shape[1] * v.shape[1]).reshape(
            nb, u.shape[1], v.shape[1]
        )
        out[lo : lo + nb] = np.einsum("kn,bnm,km->bk", u, x, v)
    return out


def test_nodes_must_increase(base_family):
    with pytest.raises(ConfigError, match="increasing"):
        build_kernel(base_family, [8.0, 4.0], 0.0)


@pytest.mark.parametrize("nodes", [[np.nan], [2.0, np.nan], [np.inf]], ids=["nan", "2-nan", "inf"])
def test_non_finite_nodes_rejected_before_any_lattice_work(base_family, monkeypatch, nodes):
    # every comparison with NaN is false, so the order and t >= 1 checks
    # alone would let these through to NaN bands
    def no_lattice(*args):
        raise AssertionError("lattice work on non-finite nodes")

    monkeypatch.setattr(noise_engine, "lattice_spacing_for", no_lattice)
    monkeypatch.setattr(noise_engine, "_node_windows", no_lattice)
    with pytest.raises(ConfigError, match="finite"):
        build_kernel(base_family, nodes, 0.0)


def test_overflowing_weight_is_a_numerical_error(base_family):
    # outside the CLI's error state the weight overflows to inf and the
    # bands to NaN; build_kernel rejects them before any factor reads them
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="finite"):
        build_kernel(base_family, [4.0, 4.02], 1e300)


def _patch_matrix(family, nodes, spacing, patch=_node_patch_matrix):
    return patch(family, nodes, spacing, *_node_windows(family, nodes, spacing))


def _complex_phase_patch(family, nodes, spacing, centers, ranges):
    """``_node_patch_matrix`` with the packet phase exp(-i xi x0), which the
    library leaves out of the patch: the complex spectra of the packets."""
    ts = np.asarray(nodes, dtype=float)
    k_min = int(ranges[:, 0].min())
    xi_cols = (np.arange(k_min, int(ranges[:, 1].max()) + 1) + 0.5) * spacing
    lengths = ranges[:, 1] - ranges[:, 0] + 1
    indptr = np.zeros(ts.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    rows = np.repeat(np.arange(ts.size, dtype=np.int32), lengths)
    cols = np.arange(indptr[-1]) + (ranges[:, 0] - k_min - indptr[:-1])[rows]
    scales = np.array([float(t) ** -0.5 for t in ts])
    phase = np.exp(-1j * xi_cols * family.x0)
    envelope = family.profile.chi_hat((xi_cols[cols] - centers[rows]) / ts[rows])
    data = scales[rows] * phase[cols] * envelope
    mat = scipy.sparse.csr_matrix((data, cols, indptr), shape=(ts.size, xi_cols.size))
    return mat, xi_cols


@pytest.mark.parametrize("x0", [0.0, -0.5, 0.3])
def test_patch_is_real_and_the_same_at_every_x0(profile, x0):
    # at every x0 the patch is the phase route's at x0 = 0, where the phase
    # is 1 + 0j
    family = WavePacketFamily(x0=x0, xi0=1.0, lam=2.5, profile=profile)
    nodes = average_grid(16.0, 300)
    spacing = lattice_spacing_for(nodes)
    mat, xi_cols = _patch_matrix(family, nodes, spacing)
    flat = dataclasses.replace(family, x0=0.0)
    ref, ref_xi = _patch_matrix(flat, nodes, spacing, _complex_phase_patch)
    assert np.array_equal(xi_cols, ref_xi)
    assert mat.dtype == float
    assert np.array_equal(mat.indices, ref.indices)
    assert np.array_equal(mat.data, ref.data)


def _lattice_index_range(center: float, half: float, spacing: float) -> tuple[int, int]:
    """The scalar reference for ``_node_windows``: the lattice indices that
    bracket the window |xi - center| < half."""
    k_lo = int(np.floor((center - half) / spacing - 0.5))
    k_hi = int(np.ceil((center + half) / spacing - 0.5))
    return k_lo, k_hi


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
    # the patch is phase-free: its rows are the spectra of the x0 = 0 packets
    family = WavePacketFamily(x0=x0, xi0=1.0, lam=lam, profile=profile)
    nodes = np.array([48.0]) if n_nodes == 1 else average_grid(48.0, n_nodes)
    spacing = lattice_spacing_for(nodes)
    mat, xi_cols = _patch_matrix(family, nodes, spacing)
    ref, ref_xi = _patch_matrix_per_row(dataclasses.replace(family, x0=0.0), nodes, spacing)
    np.testing.assert_array_equal(xi_cols, ref_xi)
    assert mat.shape == ref.shape
    np.testing.assert_array_equal(mat.indptr, ref.indptr)
    np.testing.assert_array_equal(mat.indices, ref.indices)
    np.testing.assert_array_equal(mat.data, ref.data)


def _banded(cov: scipy.sparse.coo_matrix) -> np.ndarray:
    """The lower banded layout of a symmetric matrix, filled from the COO
    entries on and above the diagonal: cov[i, i + d] goes to [d, i]."""
    upper = (cov.col >= cov.row) & (cov.data != 0.0)
    rows = cov.row[upper]
    offs = cov.col[upper] - rows
    out = np.zeros((int(offs.max(initial=0)) + 1, cov.shape[0]))
    out[offs, rows] = cov.data[upper]
    return out


def _multiply_route_bands(family, nodes, beta, patch=_node_patch_matrix):
    """The kernel bands from one gram over the whole patch matrix, with the
    weights applied through ``multiply``, which returns a COO copy of the
    patch; ``build_kernel`` scales in place, one row tile at a time."""
    spacing = lattice_spacing_for(nodes)
    mat, xi_cols = _patch_matrix(family, nodes, spacing, patch)
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


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.4])
@pytest.mark.parametrize("lam", [2.0, 2.5])
@pytest.mark.parametrize("n_nodes", [1, 640, 1500])   # single, dense, banded
def test_real_kernel_at_x0_zero_equals_the_complex_phase_route(profile, beta, lam, n_nodes):
    family = WavePacketFamily(x0=0.0, xi0=1.0, lam=lam, profile=profile)
    nodes = np.array([48.0]) if n_nodes == 1 else average_grid(48.0, n_nodes)
    kernel = build_kernel(family, nodes, beta)
    want = _multiply_route_bands(family, nodes, beta, _complex_phase_patch)
    assert np.array_equal(kernel.banded, want)


# The README design: term 2 averaged at N = 48 with lambda = 2.5, 9,407 nodes.
README_LAM = 2.5
README_NODES = average_grid(48.0, adaptive_average_nodes(48.0, README_LAM))


@pytest.mark.parametrize("x0", [-0.5, 0.3])
@pytest.mark.parametrize("n_nodes", [1, 640, 1500, 9407])   # single, dense, banded, README
def test_kernel_is_the_same_at_every_x0(profile, x0, n_nodes):
    family = WavePacketFamily(x0=x0, xi0=1.0, lam=README_LAM, profile=profile)
    nodes = np.array([48.0]) if n_nodes == 1 else average_grid(48.0, n_nodes)
    kernel = build_kernel(family, nodes, 0.25)
    flat = build_kernel(dataclasses.replace(family, x0=0.0), nodes, 0.25)
    assert np.array_equal(kernel.banded, flat.banded)


@pytest.mark.parametrize("x0", [-0.5, 0.3])
@pytest.mark.parametrize("n_nodes", [1, 640, 1500, 9407])
def test_kernel_at_x0_is_the_complex_phase_route_to_rounding(profile, x0, n_nodes):
    # with the phase the gram is complex and rounds differently: the phase
    # cancels in conj(fhat_t) fhat_s only up to rounding
    family = WavePacketFamily(x0=x0, xi0=1.0, lam=README_LAM, profile=profile)
    nodes = np.array([48.0]) if n_nodes == 1 else average_grid(48.0, n_nodes)
    kernel = build_kernel(family, nodes, 0.25)
    want = _multiply_route_bands(family, nodes, 0.25, _complex_phase_patch)
    assert kernel.banded.shape == want.shape
    assert np.max(np.abs(kernel.banded - want)) <= 1e-13 * np.max(want)


@pytest.mark.parametrize("lam", [2.0, 2.5, 3.1])
@pytest.mark.parametrize("xi0", [1.0, -1.0])
def test_node_windows_equal_the_scalar_ranges(profile, lam, xi0):
    family = WavePacketFamily(x0=0.0, xi0=xi0, lam=lam, profile=profile)
    spacing = lattice_spacing_for(README_NODES)
    centers, ranges = _node_windows(family, README_NODES, spacing)
    ts = [float(t) for t in README_NODES]
    assert np.array_equal(centers, [family.center(t) for t in ts])
    want = [_lattice_index_range(family.center(t), t, spacing) for t in ts]
    assert ranges.dtype == np.int64
    assert np.array_equal(ranges, want)


def _first_tile_rows(family, nodes):
    """Rows of ``build_kernel``'s first tile: as many as fit the entry budget."""
    spacing = lattice_spacing_for(nodes)
    lengths = [
        k_hi - k_lo + 1
        for k_lo, k_hi in (
            _lattice_index_range(family.center(t), t, spacing) for t in nodes
        )
    ]
    return int(np.searchsorted(np.cumsum(lengths), BLOCK_ENTRIES, side="right"))


@pytest.mark.parametrize(
    "rows",
    [lambda tile: 1, lambda tile: tile - 1, lambda tile: tile, lambda tile: tile + 1,
     lambda tile: 4 * tile + tile // 2],
    ids=["one", "tile-1", "tile", "tile+1", "tiles"],
)
@pytest.mark.parametrize("beta", [0.0, 0.25])
@pytest.mark.parametrize("x0", [0.0, -0.5])
@pytest.mark.parametrize("xi0", [1.0, -1.0])
def test_tiled_bands_equal_the_one_gram_route(profile, xi0, x0, beta, rows):
    # node sets are prefixes of one grid, so every prefix shares the first
    # tile and the counts straddle its edge
    family = WavePacketFamily(x0=x0, xi0=xi0, lam=README_LAM, profile=profile)
    tile = _first_tile_rows(family, README_NODES)
    assert 1 < tile < README_NODES.size // 5
    nodes = README_NODES[: rows(tile)]
    kernel = build_kernel(family, nodes, beta)
    assert np.array_equal(kernel.banded, _multiply_route_bands(family, nodes, beta))


def test_kernel_build_peak_is_six_blocks_plus_the_bands(profile):
    # certify's largest build.  One tile's working set fits six float64
    # blocks: its patch (the tile and its neighbours), the chi_hat
    # temporaries of that patch and the tile's gram.  What grows with the
    # node count fits two band arrays: the sums that the tiles add to, which
    # are clipped in place into the bands returned, and the node windows
    family = WavePacketFamily(x0=0.0, xi0=1.0, lam=README_LAM, profile=profile)
    nodes = average_grid(64.0, adaptive_average_nodes(64.0, README_LAM))
    assert nodes.size == 14_482
    build_kernel(family, nodes[:8], 0.0)
    tracemalloc.start()
    try:
        kernel = build_kernel(family, nodes, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * BLOCK_ENTRIES + 2 * kernel.banded.nbytes


def test_banded_factor_holds_one_band_copy_beside_the_kernel(profile, traced_peak):
    # certify's largest kernel takes the banded Cholesky factor, which LAPACK
    # computes in place in its one work copy of the bands; beside that copy
    # stands the finiteness check's mask, one byte per band entry
    family = WavePacketFamily(x0=0.0, xi0=1.0, lam=README_LAM, profile=profile)
    nodes = average_grid(64.0, adaptive_average_nodes(64.0, README_LAM))
    kernel = build_kernel(family, nodes, 0.0)
    peak = traced_peak(kernel.factor)
    assert kernel.factor()[0] == "banded"
    assert peak < 1.25 * kernel.banded.nbytes


def test_kernel_memory_follows_the_tile_not_the_node_count(profile, traced_peak):
    family = WavePacketFamily(x0=-0.5, xi0=1.0, lam=README_LAM, profile=profile)
    tiled = traced_peak(build_kernel, family, README_NODES, 0.0)
    one_gram = traced_peak(_multiply_route_bands, family, README_NODES, 0.0)
    assert tiled < one_gram / 3
