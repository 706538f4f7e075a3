import numpy as np
import pytest
from scipy.stats import linregress

from symrec.errors import ConfigError, NumericalError
from symrec.expressions import parse_coeff
from symrec.measurement_recovery import MeasurementModel, TermDesign
from symrec.stats_harness import (
    SlopeRegression,
    continuum_average_variance,
    nonconvergence_experiment,
    rate_certificate_experiment,
    trajectory_as_convergence_check,
    variance_scaling_experiment,
    wilson_interval,
)
from symrec.symbols import (
    HomogeneousTerm,
    SymbolExpansion,
    asymptotic_error_probe,
)
from symrec.wave_packets import WavePacketFamily


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
            ([2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0]),     # no spread in x
            ([1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0, 5.0]),     # no spread in y
            ([1.0, 2.0, 3.0, 4.0], [1.0, np.nan, 3.0, 4.0]),
            ([1.0, 2.0, np.inf, 4.0], [1.0, 2.0, 3.0, 4.0]),
        ],
    )
    def test_slope_regression_degenerate_raises(self, x, y):
        with pytest.raises(NumericalError):
            SlopeRegression.fit(x, y)

    def test_slope_regression_needs_four_points(self):
        with pytest.raises(ConfigError, match=">= 4"):
            SlopeRegression.fit([1, 2, 3], [1, 2, 3])

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

    def test_slope_stable_under_trial_doubling(self, profile):
        family = WavePacketFamily(0.0, 1.0, 2.0, profile)
        grid = [8, 16, 32, 64]
        r1 = variance_scaling_experiment(family, 0.0, 1.0, "plain", grid, 1000, 13)
        r2 = variance_scaling_experiment(family, 0.0, 1.0, "plain", grid, 2000, 13)
        tol = 2.0 * (r1.regression.stderr + r2.regression.stderr)
        assert abs(r1.regression.slope - r2.regression.slope) <= tol

    def test_continuum_quadrature_is_stable_under_refinement(self, profile):
        family = WavePacketFamily(0.0, 1.0, 2.0, profile)
        coarse = continuum_average_variance(family, 0.0, 0.0, 16.0)
        fine = continuum_average_variance(family, 0.0, 0.0, 16.0, n_u=96, n_v=1441)
        assert coarse == pytest.approx(fine, rel=2e-3)

    def test_weighted_continuum_quadrature_is_stable_under_refinement(self, profile):
        # beta > 0 takes the branch that multiplies by the Sobolev weight; the
        # kernel's variance of the same average weights its gram independently
        family = WavePacketFamily(0.0, 1.0, 2.0, profile)
        coarse = continuum_average_variance(family, 0.25, 0.0, 16.0)
        fine = continuum_average_variance(family, 0.25, 0.0, 16.0, n_u=96, n_v=1441)
        assert coarse == pytest.approx(fine, rel=2e-3)
        design = TermDesign(family, 0.25, 0.0, "averaged", 16.0)
        assert coarse == pytest.approx(design.kernel.quad_form(design.weights), rel=5e-3)


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
        n0 = surface.certificate(eps, 1.0).n0
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
        n0_coarse = surface.certificate(0.1, 0.1).n0
        n0_fine = surface.certificate(0.05, 0.1).n0
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


class TestTrajectory:
    SEQ = np.geomspace(8, 64, 7)

    def test_noise_free_path_passes(self, two_term_model, two_term_plan):
        res = trajectory_as_convergence_check(
            two_term_model, two_term_plan, 1, self.SEQ, seed=5, noise=False
        )
        assert res.passes

    def test_noisy_recoverable_passes_for_most_seeds(
        self, two_term_model, two_term_plan
    ):
        passes = sum(
            trajectory_as_convergence_check(
                two_term_model, two_term_plan, 1, self.SEQ, seed=s
            ).passes
            for s in range(100)
        )
        assert passes >= 95

    def test_failure_regime_fails_for_most_seeds(self, profile, two_term_plan):
        # same estimator recipe, but the actual noise smoothness makes the
        # noise variance grow: the tube check must fail almost always
        terms = (
            HomogeneousTerm(1.0, parse_coeff("1 + 0.2*sin(x)")),
            HomogeneousTerm(0.0, parse_coeff("0.5 + 0.2*cos(x)")),
        )
        noisy_model = MeasurementModel(
            SymbolExpansion(terms), 0.75, 0.0, 1.0, profile
        )
        fails = sum(
            not trajectory_as_convergence_check(
                noisy_model, two_term_plan, 1, self.SEQ, seed=s
            ).passes
            for s in range(100)
        )
        assert fails >= 95

    def test_default_tube_rate(self, two_term_model, two_term_plan):
        res = trajectory_as_convergence_check(
            two_term_model, two_term_plan, 1, self.SEQ, seed=1, noise=False
        )
        assert res.theta == pytest.approx(0.5 * 2.0 * 1.0)
