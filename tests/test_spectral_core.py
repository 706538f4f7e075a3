import dataclasses

import numpy as np
import pytest

from symrec.noise_engine import JapaneseBracketWeight
from symrec.wave_packets import WavePacketFamily

from reference_quadrature import (
    FrequencyWindow,
    SpectralPatch,
    brute_force_overlap,
    evaluate_physical,
    inner_product_l2,
    inner_product_sobolev,
    l2_norm,
    make_packet,
    physical_norm,
    support_radius_and_chi0,
)


def random_patch(rng, center, half_width, num_points=64):
    window = FrequencyWindow(center, half_width, num_points)
    vals = rng.standard_normal(num_points) + 1j * rng.standard_normal(num_points)
    return SpectralPatch(window, vals)


def test_unit_packet_inner_product(family):
    for t in (2.0, 8.0, 32.0):
        p = make_packet(family, t)
        assert abs(inner_product_l2(p, p) - 1.0) < 1e-6


def test_disjoint_windows_give_exact_zero(rng):
    f = random_patch(rng, -100.0, 1.0)
    g = random_patch(rng, +100.0, 1.0)
    assert inner_product_l2(f, g) == 0.0


def test_cross_scale_overlap_matches_physical_quadrature(family):
    # grids of f_t and f_s are incommensurate; resampling must stay exact
    for t, s in [(2.0, 3.0), (8.0, 8.3)]:
        f = make_packet(family, t)
        g = make_packet(family, s)
        direct = inner_product_l2(f, g)
        oracle = brute_force_overlap(family, t, s)
        assert abs(direct - oracle) < 1e-6


def test_truncated_sinc_fallback_accuracy(family):
    # a patch off the other's lattice must carry its analytic sampler, as
    # packets do; without one the product is refused, not interpolated
    f = make_packet(family, 8.0)
    g = make_packet(family, 8.3)
    assert inner_product_l2(f, g) != 0.0
    g_raw = dataclasses.replace(g, sampler=None)
    with pytest.raises(ValueError, match="sampler"):
        inner_product_l2(f, g_raw)


def test_beta_zero_weight_is_bitwise_l2(rng):
    f = random_patch(rng, 3.0, 2.0)
    g = random_patch(rng, 3.5, 2.0, num_points=64)
    w0 = JapaneseBracketWeight(0.0)
    assert inner_product_sobolev(f, g, w0) == inner_product_l2(f, g)


def test_sobolev_packet_norm_bracket(family):
    # ||f_t||_beta^2 / t^(2*lam*beta) stays in a fixed bracket on [4, 64]
    w = JapaneseBracketWeight(0.5)
    ratios = []
    for t in (4.0, 8.0, 16.0, 32.0, 64.0):
        p = make_packet(family, t)
        norm_sq = inner_product_sobolev(p, p, w).real
        ratios.append(norm_sq / t ** (2 * family.lam * 0.5))
    assert 0.9 < min(ratios) and max(ratios) < 1.2


def test_sobolev_vs_l2_overlap_bracket(profile):
    # (f_t|f_s)_beta stays within T^(2*lam*beta) * (f_t|f_s), fixed bracket
    family = WavePacketFamily(x0=0.0, xi0=1.0, lam=2.0, profile=profile)
    w = JapaneseBracketWeight(0.5)
    T = 8.0
    ratios = []
    for t in np.linspace(T, 2 * T, 5):
        for ds in (1.001, 1.01, 1.02):
            s = t * ds
            f, g = make_packet(family, t), make_packet(family, s)
            base = inner_product_l2(f, g).real
            if base < 1e-6:
                continue
            ratios.append(
                inner_product_sobolev(f, g, w).real / (T ** (2 * family.lam * 0.5) * base)
            )
    assert ratios, "grid produced no overlapping pairs"
    assert 0.8 < min(ratios) and max(ratios) < 5.0


def test_conjugate_symmetry_and_sesquilinearity(rng):
    # aligned windows: grids are sub-grids of one lattice, sums are exact
    w = JapaneseBracketWeight(0.7)
    spacing = 3.0 / 64
    for _ in range(10):
        f = random_patch(rng, 2.0, 1.5)
        g = random_patch(rng, 2.0 + 16 * spacing, 1.5)
        h = random_patch(rng, 2.0, 1.5)
        ip_fg = inner_product_sobolev(f, g, w)
        ip_gf = inner_product_sobolev(g, f, w)
        assert abs(ip_fg - np.conj(ip_gf)) < 1e-12 * max(1.0, abs(ip_fg))

        alpha = complex(rng.standard_normal(), rng.standard_normal())
        combo = SpectralPatch(f.window, alpha * f.values + h.values)
        lhs = inner_product_sobolev(combo, g, w)
        rhs = np.conj(alpha) * ip_fg + inner_product_sobolev(h, g, w)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_positivity(rng):
    w = JapaneseBracketWeight(-0.3)
    for _ in range(10):
        f = random_patch(rng, rng.uniform(-5, 5), rng.uniform(0.5, 3.0))
        val = inner_product_sobolev(f, f, w)
        assert abs(val.imag) < 1e-14 * max(1.0, val.real)
        assert val.real >= 0.0


def test_plancherel_consistency(family):
    p = make_packet(family, 2.0)
    radius = support_radius_and_chi0(family.profile)[0] / 2.0
    x = np.linspace(family.x0 - radius, family.x0 + radius, 4096)
    assert abs(physical_norm(p, x) - l2_norm(p)) < 1e-4


def test_evaluate_physical_at_center(family):
    # packet value at x0 is t^(1/2) * chi(0)
    for t in (2.0, 8.0):
        p = make_packet(family, t)
        val = evaluate_physical(p, np.array([family.x0]))[0]
        target = t ** 0.5 * support_radius_and_chi0(family.profile)[1]
        assert abs(val - target) < 1e-8 * abs(target)


def test_zero_patch_evaluates_to_zero():
    window = FrequencyWindow(5.0, 1.0, 32)
    patch = SpectralPatch(window, np.zeros(32, dtype=complex))
    out = evaluate_physical(patch, np.linspace(-1, 1, 17))
    assert np.all(out == 0.0)


def test_translation_identity(family, rng):
    p = make_packet(family, 4.0)
    a = 0.37
    shifted = SpectralPatch(p.window, p.values * np.exp(-1j * p.window.grid() * a))
    x = rng.uniform(-1, 1, size=9)
    lhs = evaluate_physical(shifted, x + a)
    rhs = evaluate_physical(p, x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_patch_rejects_nonfinite():
    window = FrequencyWindow(0.0, 1.0, 8)
    bad = np.ones(8, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        SpectralPatch(window, bad)
