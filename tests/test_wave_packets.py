import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

import symrec
from symrec import default_profile, wave_packets
from symrec.cli_io import ExperimentConfig
from symrec.noise_engine import JapaneseBracketWeight
from symrec.wave_packets import (
    _CHI_SCAN_MAX,
    _CHI_SCAN_POINTS,
    WavePacketFamily,
    bridge_sigma,
    lattice_spacing_for,
    make_profile,
)

from reference_quadrature import (
    brute_force_overlap,
    inner_product_sobolev,
    make_packet,
    packet_overlap_decay,
    support_radius_and_chi0,
)
import profile_table


@pytest.fixture(scope="module")
def computed_profile():
    """The default-sharpness profile built by the compute path, not the table."""
    return profile_table.computed_profile(1.0)


def test_bridge_plateaus(profile):
    assert profile.chi_hat(np.array([0.4]))[0] == profile.b
    assert profile.chi_hat(np.array([0.0]))[0] == profile.b
    assert profile.chi_hat(np.array([1.1]))[0] == 0.0
    assert profile.chi_hat(np.array([-1.1]))[0] == 0.0


@pytest.mark.parametrize("sharpness", [0.0, -1.0, 372.567, 400.0, 1e6])
def test_profile_rejects_a_sharpness_whose_bridge_underflows(sharpness):
    # from about 372.5667 on, exp(-2 * sharpness) underflows and the bridge
    # a / (a + b) is 0/0; the profile names the value instead of failing in
    # its radius scan
    with pytest.raises(ValueError, match=f"sharpness .*got {sharpness!r}"):
        make_profile(sharpness)


def _guarded_bridge_sigma(r, sharpness):
    """``bridge_sigma`` as it was written with guards for u <= 0 and u >= 1,
    which never occur inside the bridge."""
    r = np.abs(np.asarray(r, dtype=float))
    out = np.zeros_like(r)
    out[r <= 0.5] = 1.0
    mid = (r > 0.5) & (r < 1.0)
    u = (1.0 - r[mid]) / 0.5
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(u > 0.0, np.exp(-sharpness / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1.0, np.exp(-sharpness / np.maximum(1.0 - u, 1e-300)), 0.0)
    out[mid] = a / (a + b)
    return out


@pytest.mark.parametrize("sharpness", [0.25, 1.0, 3.0])
def test_bridge_equals_the_guarded_formula(sharpness):
    edges = np.array([0.5, 1.0, 0.75])
    near = np.concatenate(
        [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
         np.nextafter(np.nextafter(edges, 0.0), 0.0), np.nextafter(np.nextafter(edges, 2.0), 2.0)]
    )
    r = np.concatenate([np.linspace(0.0, 1.2, 400_001), near, -near])
    with np.errstate(over="raise", divide="raise", invalid="raise"):  # the CLI's
        got = bridge_sigma(r, sharpness)
    assert np.array_equal(got, _guarded_bridge_sigma(r, sharpness))
    assert np.all(got[np.abs(r) <= 0.5] == 1.0) and np.all(got[np.abs(r) >= 1.0] == 0.0)


def _two_array_chi_hat(xi, b, sharpness):
    """chi_hat as b * bridge_sigma with |r| and sigma in two arrays, as
    both were written before sigma was evaluated in the array of |r|."""
    r = np.abs(np.asarray(xi, dtype=float))
    out = np.zeros_like(r)
    out[r <= 0.5] = 1.0
    mid = (r > 0.5) & (r < 1.0)
    u = (1.0 - r[mid]) / 0.5
    a = np.exp(-sharpness / u)
    out[mid] = a / (a + np.exp(-sharpness / (1.0 - u)))
    return b * out


def test_chi_hat_is_bridge_sigma_bit_for_bit(profile, monkeypatch):
    edges = np.array([0.0, 0.5, -0.5, 1.0, -1.0])
    xi = np.concatenate(
        [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
         np.linspace(-1.5, 1.5, 300_001)]
    )
    got = profile.chi_hat(xi)
    want = _two_array_chi_hat(xi, profile.b, profile.sharpness)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert profile.chi_hat(0.75) == _two_array_chi_hat(0.75, profile.b, profile.sharpness)
    # one body: chi_hat evaluates the bridge through bridge_sigma
    monkeypatch.setattr(wave_packets, "bridge_sigma", lambda r, s: np.full(np.shape(r), 2.0))
    assert np.all(profile.chi_hat(xi) == 2.0 * profile.b)


def test_eta_grid_is_antisymmetric_bit_for_bit(profile):
    # the premise of the half-grid spectral transform: column -1 - n of the
    # Fourier kernel is the conjugate of column n
    assert profile.eta.size % 2 == 0
    assert np.array_equal(profile.eta[::-1], -profile.eta)
    assert profile.kernel_cos.shape == profile.kernel_sin.shape == (
        profile.y.size, profile.eta.size // 2
    )


def test_normalization_against_fine_quadrature(profile):
    # independent oracle: Simpson on a dense grid of the bridge
    r = np.linspace(0.0, 1.0, 200_001)
    vals = bridge_sigma(r, profile.sharpness) ** 2
    integral = 2.0 * np.trapezoid(vals, r)
    b_oracle = 1.0 / np.sqrt(integral)
    assert abs(profile.b - b_oracle) < 1e-8
    # norm of chi_hat equals one
    xi = np.linspace(-1.0, 1.0, 400_001)
    norm_sq = np.trapezoid(profile.chi_hat(xi) ** 2, xi)
    assert abs(norm_sq - 1.0) < 1e-8


def _chi_simpson(profile, y):
    """The profile's transform by a 4,097-point Simpson sum, block by block."""
    xi = np.linspace(0.0, 1.0, 4097)
    weights = profile.chi_hat(xi)
    out = np.empty(y.shape)
    for i in range(0, y.size, 1024):
        out[i : i + 1024] = simpson(np.cos(np.outer(y[i : i + 1024], xi)) * weights, x=xi)
    return np.sqrt(2.0 / np.pi) * out


def test_gauss_legendre_transform_matches_simpson(computed_profile):
    profile = computed_profile
    scan = np.linspace(0.0, _CHI_SCAN_MAX, _CHI_SCAN_POINTS)
    oracle = _chi_simpson(profile, scan)
    assert np.max(np.abs(profile._chi_exact(scan) - oracle)) < 1e-13 * oracle[0]
    support_radius, chi0 = support_radius_and_chi0(profile)
    assert abs(chi0 - oracle[0]) < 1e-13 * oracle[0]

    def radius(threshold):
        last = np.nonzero(np.abs(oracle) > threshold * oracle[0])[0][-1]
        return float(scan[last]) + scan[1]

    assert profile.radius_cache == radius(1e-12)
    assert support_radius == radius(1e-10)
    assert profile.tail_radius == radius(1e-6)
    # the spline cache between its knots
    assert np.max(np.abs(profile.chi(profile.y) - _chi_simpson(profile, profile.y))) < (
        1e-9 * oracle[0]
    )


@pytest.mark.parametrize("grid", ["scan", "cache"])
def test_blocked_chi_table_equals_the_2048_row_product(computed_profile, grid):
    # the profile's two grids: the radius scan and the spline cache; the
    # blocked table's dgemv row sums must be those of 2,048-row blocks, bit
    # for bit, since the radii and the cache reach the recovered rows
    profile = computed_profile
    if grid == "scan":
        y = np.linspace(0.0, _CHI_SCAN_MAX, _CHI_SCAN_POINTS)
    else:
        y = np.linspace(0.0, profile.radius_cache, wave_packets._CHI_CACHE_POINTS)
    xi, weights = profile._gauss_rule
    weights = weights * profile.chi_hat(xi)
    want = np.empty(y.shape)
    for i in range(0, y.size, 2048):
        want[i : i + 2048] = np.cos(np.outer(y[i : i + 2048], xi)) @ weights
    assert np.array_equal(profile._chi_exact(y), np.sqrt(2.0 / np.pi) * want)


@pytest.mark.parametrize("entries", [2 ** 15, wave_packets.BLOCK_ENTRIES])
def test_profile_memory_follows_the_block(monkeypatch, traced_peak, entries):
    # the compute path's cosine tables of the radius scan and the cache are
    # formed a block of rows at a time; beyond six float64 blocks only the
    # tables the profile keeps (unit grids, Fourier kernel, spline cache) stay
    monkeypatch.setattr(wave_packets, "BLOCK_ENTRIES", entries)
    prof = profile_table.computed_profile(1.0)
    kept = sum(a.nbytes for a in vars(prof).values() if isinstance(a, np.ndarray))
    kept += sum(a.nbytes for a in prof._chi_spline)
    peak = traced_peak(profile_table.computed_profile, 1.0)
    assert peak <= 6 * 8 * entries + kept


def test_default_profile_table_is_the_compute_path(computed_profile):
    # every tabulated constant is the compute path's, float.hex for
    # float.hex; a change to the profile's arithmetic fails here until
    # tests/profile_table.py regenerates the table
    profile = wave_packets.PacketProfile(1.0)
    tabulated = profile_table.constants(profile)
    computed = profile_table.constants(computed_profile)
    assert [n for n in computed if tabulated.get(n) != computed[n]] == []
    # the module is the generator's text, and its sharpness is the library's
    # and the CLI's default, not a value that picks out one workload
    assert Path(default_profile.__file__).read_text() == profile_table.source(computed_profile)
    assert default_profile.SHARPNESS == 1.0
    for default in (
        inspect.signature(wave_packets.PacketProfile).parameters["sharpness"].default,
        inspect.signature(wave_packets.make_profile).parameters["bridge_sharpness"].default,
        {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}["profile_sharpness"],
    ):
        assert default == default_profile.SHARPNESS
    # and the tabulated profile is the computed one, array for array
    for name in ("b", "tail_radius", "radius_cache", "eta", "chi_hat_eta", "y", "chi_y",
                 "kernel_cos", "kernel_sin", "y_weights"):
        got, want = getattr(profile, name), getattr(computed_profile, name)
        assert type(got) is type(want), name
        assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64)), name


def test_default_profile_skips_the_compute_path():
    # in a fresh interpreter, so that no cached profile or Gauss rule hides
    # a call
    code = (
        "import numpy as np\n"
        "from symrec import wave_packets\n"
        "def called(*args):\n"
        "    raise AssertionError('compute path')\n"
        "np.polynomial.legendre.leggauss = called\n"
        "wave_packets.PacketProfile._chi_exact = called\n"
        "wave_packets.make_profile(1.0)\n"
    )
    src = str(Path(symrec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_other_sharpness_builds_through_the_compute_path(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(
        np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or leggauss(n)
    )
    prof = wave_packets.PacketProfile(0.75)
    assert calls == [wave_packets._GAUSS_POINTS]
    assert prof.b != default_profile.B
    xi = np.linspace(-1.0, 1.0, 400_001)
    assert abs(np.trapezoid(prof.chi_hat(xi) ** 2, xi) - 1.0) < 1e-8
    assert "_chi_spline" in vars(prof)
    assert np.array_equal(prof.chi_y, prof.chi(prof.y))


def test_window_geometry(profile):
    family = WavePacketFamily(x0=0.0, xi0=1.0, lam=2.0, profile=profile)
    p = make_packet(family, 10.0)
    assert p.window.center == 100.0
    assert p.window.half_width == 10.0


def test_packet_scale_below_one_rejected(family):
    with pytest.raises(ValueError, match="t must be >= 1"):
        make_packet(family, 0.99)


def test_family_validation(profile):
    with pytest.raises(ValueError, match="unit direction"):
        WavePacketFamily(0.0, 0.5, 2.0, profile)
    with pytest.raises(ValueError, match="lambda"):
        WavePacketFamily(0.0, 1.0, 1.0, profile)


def test_spectral_support_containment(family):
    spacing = lattice_spacing_for([4.0])
    p = make_packet(family, 4.0, lattice_spacing=spacing)
    xi = p.window.grid()
    outside = np.abs(xi - family.center(4.0)) >= 4.0
    assert np.all(p.values[outside] == 0.0)


def test_sobolev_norm_slopes(profile):
    # log||f_t||_beta vs log t has slope lam*beta
    for beta, lam, expected in [(0.5, 2.0, 1.0), (-0.5, 2.5, -1.25)]:
        family = WavePacketFamily(x0=0.0, xi0=1.0, lam=lam, profile=profile)
        w = JapaneseBracketWeight(beta)
        ts = np.array([4.0, 8.0, 16.0, 32.0])
        norms = [
            np.sqrt(inner_product_sobolev(make_packet(family, t), make_packet(family, t), w).real)
            for t in ts
        ]
        slope = np.polyfit(np.log(ts), np.log(norms), 1)[0]
        assert abs(slope - expected) < 0.05


def test_reflected_windows_disjoint(profile, rng):
    # window of f_t and the reflected window of f_s never intersect
    for _ in range(50):
        lam = rng.uniform(1.1, 3.0)
        t = rng.uniform(1.0, 40.0)
        s = rng.uniform(1.0, 40.0)
        lo_t, hi_t = t ** lam - t, t ** lam + t
        refl_lo, refl_hi = -(s ** lam) - s, -(s ** lam) + s
        assert refl_hi <= lo_t + 1e-12


def test_overlap_decay_table(profile):
    family = WavePacketFamily(x0=0.0, xi0=1.0, lam=2.0, profile=profile)
    T = 8.0
    table = packet_overlap_decay(family, T, grid_points=9)
    diag = np.diag(table.overlaps)
    np.testing.assert_allclose(diag, 1.0, atol=1e-6)

    # envelope really bounds the table
    bound = table.envelope_constant / (1.0 + table.separations / T)
    assert np.all(table.overlaps <= bound + 1e-12)

    # pairs separated by |t^lam - s^lam| = 4T sit below C/5
    far = np.abs(table.separations - 4 * T) < 0.5 * T
    assert np.any(far)
    assert np.all(table.overlaps[far] <= table.envelope_constant / 5.0 + 1e-9)

    # lower bound on the near-diagonal set D = {|t^lam - s^lam| <= T/4}
    near = table.separations <= T / 4.0
    lower = profile.b ** 2 * 2.0 ** -0.5 * 0.5
    assert table.overlaps[near].min() >= lower

    # one off-diagonal entry against direct physical-space quadrature
    i, j = 0, 1
    oracle = abs(
        brute_force_overlap(family, table.t_values[i], table.s_values[j])
    )
    assert abs(table.overlaps[i, j] - oracle) < 1e-6


def test_overlap_decay_requires_large_T(profile):
    family = WavePacketFamily(x0=0.0, xi0=1.0, lam=1.5, profile=profile)
    with pytest.raises(ValueError, match="2\\^"):
        packet_overlap_decay(family, 2.0)
