import weakref

import numpy as np
import pytest
from scipy.stats import ks_2samp, linregress

from symrec import stats_harness, wave_packets
from symrec.errors import ConfigError, NumericalError
from symrec.expressions import parse_coeff
from symrec.measurement_recovery import MeasurementModel, TermDesign
from symrec.stats_harness import (
    SlopeRegression,
    continuum_average_variance,
    ks_2samp_pvalue,
    nonconvergence_experiment,
    rate_certificate_experiment,
    variance_scaling_experiment,
    wilson_interval,
)
from symrec.symbols import (
    HomogeneousTerm,
    SymbolExpansion,
    asymptotic_error_probe,
)
from symrec.wave_packets import WavePacketFamily


def certificate(surface, eps: float, delta: float):
    """The certificate of ``surface`` at (eps, delta)."""
    return next(c for c in surface.certificates if (c.eps, c.delta) == (eps, delta))


@pytest.fixture(scope="module")
def constant_order_zero(profile):
    P = SymbolExpansion((HomogeneousTerm(0.0, parse_coeff("0.7")),))
    return lambda beta: MeasurementModel(P, beta, 0.0, 1.0, profile)


class TestUtilities:
    def test_slope_regression_recovers_exact_line(self):
        x = np.linspace(0, 3, 6)
        reg = SlopeRegression.fit(x, -1.5 * x + 0.25)
        assert reg.slope == pytest.approx(-1.5, abs=1e-12)
        assert reg.intercept == pytest.approx(0.25, abs=1e-12)
        assert reg.stderr == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 7, 40])
    def test_slope_regression_matches_linregress(self, rng, n):
        x = np.log(np.geomspace(8.0, 64.0, n))
        y = -1.5 * x + 0.3 + 0.05 * rng.standard_normal(n)
        reg = SlopeRegression.fit(x, y)
        ref = linregress(x, y)
        assert reg.slope == pytest.approx(ref.slope, rel=1e-12)
        assert reg.intercept == pytest.approx(ref.intercept, rel=1e-12)
        assert reg.stderr == pytest.approx(ref.stderr, rel=1e-12)

    @pytest.mark.parametrize(
        "x, y",
        [
            ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, -np.inf, 4.0]),
            ([1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0, 5.0]),     # no spread in y
            ([1.0, 2.0, 3.0, 4.0], [1.0, np.nan, 3.0, 4.0]),
            ([1.0, 2.0, np.inf, 4.0], [1.0, 2.0, 3.0, 4.0]),
        ],
    )
    def test_slope_regression_degenerate_raises(self, x, y):
        with pytest.raises(NumericalError):
            SlopeRegression.fit(x, y)

    def test_slope_regression_on_a_constant_x_is_a_config_error(self):
        # x is the configured grid, so no spread in x is the config's fault
        with pytest.raises(ConfigError, match="grid"):
            SlopeRegression.fit([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0])

    def test_slope_regression_needs_four_points(self):
        with pytest.raises(ConfigError, match=">= 4"):
            SlopeRegression.fit([1, 2, 3], [1, 2, 3])

    def test_ks_pvalue_equals_ks_2samp(self):
        # scipy's default is the exact method up to 10,000 samples per side
        rng = np.random.default_rng(20261019)
        pairs = []
        for i in range(120):
            a = rng.standard_normal(1000)
            b = rng.standard_normal(1000)
            if i % 2:   # a slightly different law
                b = (1.0 + 0.02 * (i % 5)) * b + 0.01 * (i % 7)
            pairs.append((a, b))
        for i in range(20):   # ties within and across the samples
            pairs.append((np.round(rng.standard_normal(1000), 1),
                          np.round(1.05 * rng.standard_normal(1000), 1)))
        pvalues = [(ks_2samp_pvalue(a, b), ks_2samp(a, b).pvalue) for a, b in pairs]
        assert [p for p, ref in pvalues if p != ref] == []
        assert min(p for p, _ in pvalues) < 0.05 < max(p for p, _ in pvalues)

    def test_ks_pvalue_of_identical_samples_is_one(self, rng):
        a = rng.standard_normal(1000)
        assert ks_2samp_pvalue(a, a.copy()) == 1.0 == ks_2samp(a, a).pvalue
        tied = np.round(a, 1)
        assert ks_2samp_pvalue(tied, tied[::-1]) == 1.0 == ks_2samp(tied, tied[::-1]).pvalue

    def test_ks_pvalue_stays_exact_above_scipys_auto_switch(self, rng):
        a = rng.standard_normal(12000)
        b = rng.standard_normal(12000)
        assert ks_2samp_pvalue(a, b) == ks_2samp(a, b, method="exact").pvalue

    @pytest.mark.parametrize("n1, n2", [(1000, 999), (0, 0), (3, 0)])
    def test_ks_pvalue_needs_equal_nonempty_samples(self, n1, n2):
        with pytest.raises(ConfigError, match="equal size"):
            ks_2samp_pvalue(np.arange(n1, dtype=float), np.arange(n2, dtype=float))

    def test_wilson_interval_stays_in_unit_range(self):
        for s, n in [(0, 50), (50, 50), (25, 50), (1, 1000)]:
            center, half = wilson_interval(s, n)
            assert 0.0 <= center - half <= center + half <= 1.0

    def test_wilson_shrinks_extreme_estimates(self):
        center, _ = wilson_interval(50, 50)
        assert center < 1.0


class TestVarianceScaling:
    def test_plain_slope(self, profile):
        family = WavePacketFamily(0.0, 1.0, 2.0, profile)
        res = variance_scaling_experiment(
            family, 0.0, 1.0, "plain", [8, 16, 32, 64], 1000, master_seed=11
        )
        assert res.regression.slope == pytest.approx(-4.0, abs=0.1)
        assert res.expected_slope == -4.0

    def test_averaged_slope_and_cross_checks(self, profile):
        family = WavePacketFamily(0.0, 1.0, 2.5, profile)
        res = variance_scaling_experiment(
            family, 0.0, 0.0, "averaged", [4, 8, 16, 32], 1000, master_seed=12
        )
        assert res.regression.slope == pytest.approx(-1.5, abs=0.3)
        rel = np.abs(res.empirical_var / res.continuum_var - 1.0)
        assert rel.max() < 0.10
        rel_kernel = np.abs(res.kernel_var / res.continuum_var - 1.0)
        assert rel_kernel.max() < 0.05

    def test_trial_floor_enforced(self, profile):
        family = WavePacketFamily(0.0, 1.0, 2.0, profile)
        with pytest.raises(ConfigError, match="trials"):
            variance_scaling_experiment(family, 0.0, 1.0, "plain", [8, 16, 32, 64], 100)

    def test_grid_must_be_geometric(self, profile):
        family = WavePacketFamily(0.0, 1.0, 2.0, profile)
        with pytest.raises(ConfigError, match="geometric"):
            variance_scaling_experiment(family, 0.0, 1.0, "plain", [8, 16, 30, 64], 1000)

    def test_all_equal_grid_fails_before_any_design(self, profile, monkeypatch):
        def no_design(*args, **kwargs):
            raise AssertionError("a design was built for an all-equal grid")

        monkeypatch.setattr(stats_harness, "TermDesign", no_design)
        family = WavePacketFamily(0.0, 1.0, 2.0, profile)
        with pytest.raises(ConfigError, match="ratio other than 1"):
            variance_scaling_experiment(family, 0.0, 1.0, "plain", [8, 8, 8, 8], 1000)

    def test_slope_stable_under_trial_doubling(self, profile):
        family = WavePacketFamily(0.0, 1.0, 2.0, profile)
        grid = [8, 16, 32, 64]
        r1 = variance_scaling_experiment(family, 0.0, 1.0, "plain", grid, 1000, 13)
        r2 = variance_scaling_experiment(family, 0.0, 1.0, "plain", grid, 2000, 13)
        tol = 2.0 * (r1.regression.stderr + r2.regression.stderr)
        assert abs(r1.regression.slope - r2.regression.slope) <= tol

    def test_continuum_quadrature_is_stable_under_refinement(self, profile, monkeypatch):
        family = WavePacketFamily(0.0, 1.0, 2.0, profile)
        coarse = continuum_average_variance(family, 0.0, 0.0, 16.0)
        fine = _refined_continuum_variance(monkeypatch, family, 0.0, 0.0, 16.0)
        assert coarse == pytest.approx(fine, rel=2e-3)

    def test_weighted_continuum_quadrature_is_stable_under_refinement(
        self, profile, monkeypatch
    ):
        # beta > 0 takes the branch that multiplies by the Sobolev weight; the
        # kernel's variance of the same average weights its gram independently
        family = WavePacketFamily(0.0, 1.0, 2.0, profile)
        coarse = continuum_average_variance(family, 0.25, 0.0, 16.0)
        fine = _refined_continuum_variance(monkeypatch, family, 0.25, 0.0, 16.0)
        assert coarse == pytest.approx(fine, rel=2e-3)
        design = TermDesign(family, 0.25, 0.0, "averaged", 16.0)
        assert coarse == pytest.approx(design.kernel.quad_form(design.weights), rel=5e-3)

    @pytest.mark.parametrize("T, n_u", [(8.0, 48), (64.0, 45)])  # 45: a short last slab
    @pytest.mark.parametrize("beta", [0.0, 0.25])
    def test_slabbed_continuum_quadrature_matches_one_slab(
        self, profile, monkeypatch, beta, T, n_u
    ):
        family = WavePacketFamily(0.0, 1.0, 2.5, profile)
        monkeypatch.setattr(stats_harness, "CONTINUUM_N_U", n_u)
        got = continuum_average_variance(family, beta, 0.0, T)
        want = _one_slab_continuum_variance(family, beta, 0.0, T, n_u=n_u)
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("entries", [2 ** 15, wave_packets.BLOCK_ENTRIES])
    @pytest.mark.parametrize("beta", [0.0, 0.25])
    def test_continuum_memory_follows_the_block(
        self, profile, monkeypatch, traced_peak, beta, entries
    ):
        # the (u, v, eta) slabs fit six float64 blocks; beside them stand
        # the arrays of the (u, v) plane: the points, shifts, validity mask,
        # eta sums and the integrand's factors
        monkeypatch.setattr(wave_packets, "BLOCK_ENTRIES", entries)
        family = WavePacketFamily(0.0, 1.0, 2.5, profile)
        plane = 8 * stats_harness.CONTINUUM_N_U * stats_harness.CONTINUUM_N_V
        peak = traced_peak(continuum_average_variance, family, beta, 0.0, 64.0)
        assert peak <= 6 * 8 * entries + 8 * plane


def _refined_continuum_variance(monkeypatch, family, beta, m, T):
    """``continuum_average_variance`` on 96 x 1441 points in (u, v)."""
    monkeypatch.setattr(stats_harness, "CONTINUUM_N_U", 96)
    monkeypatch.setattr(stats_harness, "CONTINUUM_N_V", 1441)
    return continuum_average_variance(family, beta, m, T)


def _one_slab_continuum_variance(family, beta, m, T, n_u=48, n_v=721):
    """``continuum_average_variance`` with every (u, v, eta) point in one array."""
    lam = family.lam
    prof = family.profile
    du = T / n_u
    u = T + (np.arange(n_u) + 0.5) * du
    dv = 2.0 * 4.5 / n_v
    v = -4.5 + (np.arange(n_v) + 0.5) * dv
    s_pow = u[:, None] ** lam + T * v[None, :]
    valid = (s_pow >= T ** lam) & (s_pow <= (2.0 * T) ** lam)
    s = np.where(valid, s_pow, T ** lam) ** (1.0 / lam)
    eta = prof.eta[None, None, :]
    arg = (s[:, :, None] * eta + (s_pow - u[:, None] ** lam)[:, :, None] * family.xi0) / u[
        :, None, None
    ]
    integrand = prof.chi_hat_eta[None, None, :] * prof.chi_hat(arg)
    if beta != 0.0:
        xi_abs = s[:, :, None] * eta + (s ** lam)[:, :, None] * family.xi0
        integrand *= (1.0 + xi_abs ** 2) ** beta
    deta = prof.eta[1] - prof.eta[0]
    ip = np.sqrt(s / u[:, None]) * np.sum(integrand, axis=2) * deta
    jac = T / (lam * s ** (lam - 1.0))
    f = np.where(valid, (u[:, None] * s) ** (-lam * m) * ip ** 2 * jac, 0.0)
    return float(np.sum(f) * du * dv / T ** 2)


class TestVarianceScalingRegression:
    def test_fit_uses_four_point_grid(self, profile):
        family = WavePacketFamily(0.0, 1.0, 2.0, profile)
        res = variance_scaling_experiment(
            family, 0.0, 0.0, "averaged", [4, 8, 16, 32], 1000, master_seed=14
        )
        assert res.regression.slope == pytest.approx(-1.0, abs=0.3)
        assert np.max(np.abs(res.empirical_var / res.continuum_var - 1.0)) < 0.10


class TestNonconvergence:
    def test_plain_failure_regime(self, constant_order_zero):
        model = constant_order_zero(0.5)  # m = 0 < 2*beta = 1
        curve = nonconvergence_experiment(
            model, 1, "plain", 2.0, 6.0, np.geomspace(3, 8.485, 4), 1000, 21
        )
        assert curve.p_hat[-1] >= 0.9
        assert curve.monotone_within_bands()
        assert curve.matches_closed_form()
        assert np.all(curve.det_offset < 1e-6)

    def test_boundary_case_is_flat(self, constant_order_zero):
        model = constant_order_zero(0.0)  # m = 2*beta exactly
        curve = nonconvergence_experiment(
            model, 1, "plain", 2.0, 1.0, np.geomspace(4, 32, 4), 1000, 22
        )
        flat = np.exp(-1.0)
        assert np.all(np.abs(curve.p_hat - flat) <= 3.0 * curve.half_width + 0.01)
        assert curve.matches_closed_form()

    def test_averaged_failure_regime(self, profile):
        P = SymbolExpansion((HomogeneousTerm(-0.5, parse_coeff("0.7")),))
        model = MeasurementModel(P, 0.0, 0.0, 1.0, profile)  # m = 2*beta - 1/2
        curve = nonconvergence_experiment(
            model, 1, "averaged", 2.0, 1.5, np.geomspace(3, 24, 4), 1000, 23
        )
        assert curve.p_hat[-1] >= 0.9
        assert curve.monotone_within_bands()
        assert curve.matches_closed_form()

    def test_regime_gating(self, constant_order_zero):
        model = constant_order_zero(-0.5)  # m = 0 > 2*beta = -1: recoverable
        with pytest.raises(ConfigError, match="non-convergence"):
            nonconvergence_experiment(model, 1, "plain", 2.0, 0.1, [4, 8], 100, 1)


class TestRateCertificates:
    def test_noise_free_certificate_is_deterministic_crossing(
        self, two_term_model, two_term_plan
    ):
        eps = 0.01
        surface = rate_certificate_experiment(
            two_term_model, two_term_plan, 1, [eps], [1.0],
            [4, 8, 16, 32], trials=25, master_seed=3, noise=False,
        )
        n0 = certificate(surface, eps, 1.0).n0
        # independent oracle: deterministic error curve of the rescaled form
        family = two_term_model.family_for(two_term_plan.lam(1))
        probe = asymptotic_error_probe(
            two_term_model.observable, family, [4, 8, 16, 32]
        )
        expected = None
        for n, err in zip(probe["t"][::-1], probe["errors"][::-1]):
            if err <= eps:
                expected = n
            else:
                break
        assert n0 == expected

    def test_basic_certificate_and_monotonicity(self, two_term_model, two_term_plan):
        surface = rate_certificate_experiment(
            two_term_model, two_term_plan, 1, [0.1, 0.05], [0.1],
            [4, 6, 8, 12, 16, 24, 32], trials=400, master_seed=31,
        )
        n0_coarse = certificate(surface, 0.1, 0.1).n0
        n0_fine = certificate(surface, 0.05, 0.1).n0
        assert np.isfinite(n0_coarse) and n0_coarse >= 4
        assert n0_fine >= n0_coarse
        assert surface.theta_emp > 0
        assert surface.c_emp > 0
        # success stays above 1 - delta for all tested N >= N0
        idx = np.nonzero(surface.n_grid >= n0_coarse)[0]
        assert np.all(surface.success[idx, 0] >= 0.9)

    def test_trial_floor_scales_with_delta(self, two_term_model, two_term_plan):
        with pytest.raises(ConfigError, match="trials"):
            rate_certificate_experiment(
                two_term_model, two_term_plan, 1, [0.1], [0.01],
                [8, 16], trials=100, master_seed=1,
            )

    def test_impossible_certificate_signals(self, two_term_model, two_term_plan):
        with pytest.raises(NumericalError, match="certifies"):
            rate_certificate_experiment(
                two_term_model, two_term_plan, 1, [1e-9], [0.1],
                [4, 6, 8], trials=200, master_seed=2,
            )


class TestOneDesignAtATime:
    """Each driver releases a grid point's design, with its kernel and factor,
    before it builds the next: at most one factor is alive at a time."""

    @pytest.fixture()
    def alive_at_build(self, monkeypatch):
        """How many earlier designs were alive as each design was built."""
        designs, alive = [], []

        class Recorded(TermDesign):
            def __init__(self, *args, **kwargs):
                alive.append(sum(ref() is not None for ref in designs))
                super().__init__(*args, **kwargs)
                designs.append(weakref.ref(self))

        monkeypatch.setattr(stats_harness, "TermDesign", Recorded)
        return alive

    def test_variance_scaling(self, profile, alive_at_build):
        family = WavePacketFamily(0.0, 1.0, 2.5, profile)
        variance_scaling_experiment(family, 0.0, 0.0, "averaged", [4, 8, 16, 32], 1000, 12)
        assert alive_at_build == [0, 0, 0, 0]

    def test_nonconvergence(self, constant_order_zero, alive_at_build):
        model = constant_order_zero(0.5)
        nonconvergence_experiment(model, 1, "plain", 2.0, 6.0, [3, 4, 6, 8], 200, 21)
        assert alive_at_build == [0, 0, 0, 0]

    def test_rate(self, two_term_model, two_term_plan, alive_at_build):
        rate_certificate_experiment(
            two_term_model, two_term_plan, 1, [0.5], [1.0], [4, 8, 16], trials=25,
            master_seed=3,
        )
        assert alive_at_build == [0, 0, 0]
