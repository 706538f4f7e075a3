import numpy as np
import pytest

from symrec.errors import ConfigError, NumericalError
from symrec.expressions import parse_coeff
from symrec.measurement_recovery import (
    MeasurementModel,
    RecoverySession,
    TabulatedCoeff,
    TermDesign,
    adaptive_average_nodes,
    averaged_estimate,
    measure,
    plain_estimate,
    plan_orders,
    recover_expansion,
)
from symrec.noise_engine import build_kernel
from symrec.rng import rng_for, standard_complex_normal
from symrec.stats_harness import _estimator_samples, trajectory_as_convergence_check
from symrec.symbols import (
    HomogeneousTerm,
    Observable,
    SymbolExpansion,
    packet_quadratic_form,
)


class TestPlanOrders:
    def test_two_term_indices(self):
        plan = plan_orders([1.0, 0.0, -1.0], 0.0)
        assert plan.j_beta == 1
        assert plan.k_beta == 2

    def test_lambda_choices(self):
        plan = plan_orders([1.0, 0.0, -1.0], 0.0)
        assert plan.lam(1) == 2.0          # bound of the last plain term
        assert plan.lam(2) == 2.5          # strict bound 2 plus the 0.5 margin
        assert plan.modes == ("plain", "averaged")

    def test_jbeta_zero_means_all_averaged(self):
        # m1 = 0.3 lies in (2*beta - 1/2, 2*beta] for beta = 0.25
        plan = plan_orders([0.3, -1.0], 0.25)
        assert plan.j_beta == 0
        assert plan.k_beta == 1
        assert plan.modes == ("averaged",)

    def test_orders_must_reach_below_threshold(self):
        with pytest.raises(ConfigError, match="cannot terminate"):
            plan_orders([1.0, 0.5], 0.0)

    def test_leading_order_must_be_large_enough(self):
        with pytest.raises(ConfigError, match="leading order"):
            plan_orders([0.0, -1.0], 0.75)

    def test_lambda_override(self):
        plan = plan_orders([1.0, 0.0, -1.0], 0.0, lambda_overrides={2: 3.0})
        assert plan.lam(2) == 3.0


class TestMeasure:
    def test_identity_no_noise(self, two_term_model):
        P = Observable(SymbolExpansion((HomogeneousTerm(0.0, parse_coeff("1")),)))
        model = MeasurementModel(P, 0.0, 0.0, 1.0, two_term_model.profile)
        assert abs(measure(model, 8.0, 2.0, 1) - 1.0) < 1e-6

    def test_subtracted_measurement_matches_residual_symbol(self, two_term_model):
        # j = 2 measurement equals the quadratic form of the remaining term
        val = measure(two_term_model, 8.0, 2.5, 2)
        family = two_term_model.family_for(2.5)
        residual = packet_quadratic_form(
            family, [8.0], two_term_model.observable.terms[1]
        )[0]
        assert abs(val - residual) < 1e-6 * max(1.0, abs(residual))

    def test_noise_additivity_exact(self, two_term_model):
        base = measure(two_term_model, 8.0, 2.0, 1)
        shifted = measure(two_term_model, 8.0, 2.0, 1, noise_value=0.25 + 0.125j)
        assert shifted - base == 0.25 + 0.125j


class TestPlainEstimate:
    def test_noise_free_single_term(self, profile, two_term_plan):
        P = Observable(
            SymbolExpansion(
                (
                    HomogeneousTerm(1.0, parse_coeff("1 + 0.2*sin(x)")),
                    HomogeneousTerm(0.0, parse_coeff("0")),
                )
            )
        )
        model = MeasurementModel(P, 0.0, 0.4, 1.0, profile)
        est = plain_estimate(model, two_term_plan, 1, 32.0, noise=False)
        truth = model.truth(1).real
        assert abs(est - truth) < 0.05

    def test_noise_variance_is_kernel_exact(self, two_term_model, two_term_plan):
        # estimator noise sd at N is N^(-lam*m) * ||f_N||^2 exactly
        N = 16.0
        kernel = build_kernel(two_term_model.family_for(2.0), [N], 0.0)
        sd = N ** (-2.0) * np.sqrt(kernel.diagonal[0])
        samples = np.array(
            [
                plain_estimate(two_term_model, two_term_plan, 1, N, seed=s)
                for s in range(200)
            ]
        )
        base = plain_estimate(two_term_model, two_term_plan, 1, N, noise=False)
        empirical_sd = np.sqrt(np.mean(np.abs(samples - base) ** 2))
        assert empirical_sd == pytest.approx(sd, rel=0.25)

    def test_mode_gating(self, two_term_model, two_term_plan):
        with pytest.raises(ConfigError, match="plain"):
            plain_estimate(two_term_model, two_term_plan, 2, 16.0)
        with pytest.raises(ConfigError, match="averaged"):
            averaged_estimate(two_term_model, two_term_plan, 1, 16.0)

    def test_rescaled_noise_variance_constant_in_N(self, two_term_model, two_term_plan):
        # kernel-exact variance times N^(2*lam*(m - 2*beta)) stays flat
        lam, m = two_term_plan.lam(1), two_term_plan.m_list[0]
        products = []
        for N in (8.0, 16.0, 32.0, 64.0):
            kernel = build_kernel(two_term_model.family_for(lam), [N], 0.0)
            var = N ** (-2 * lam * m) * kernel.diagonal[0]
            products.append(var * N ** (2 * lam * m))
        assert max(products) / min(products) < 1.1


class TestAveragedEstimate:
    def test_noise_free_converges(self, two_term_model, two_term_plan):
        est = averaged_estimate(two_term_model, two_term_plan, 2, 24.0, noise=False)
        truth = two_term_model.truth(2).real
        assert abs(est - truth) < 0.05

    def test_node_doubling_changes_little(self, two_term_model, two_term_plan):
        k = adaptive_average_nodes(8.0, two_term_plan.lam(2))
        a = averaged_estimate(two_term_model, two_term_plan, 2, 8.0, n_nodes=k, noise=False)
        b = averaged_estimate(
            two_term_model, two_term_plan, 2, 8.0, n_nodes=2 * k, noise=False
        )
        assert abs(a - b) < 1e-4 * abs(a)

    def test_node_cap_signals(self, two_term_model):
        plan = plan_orders([1.0, 0.0, -1.0], 0.0, lambda_overrides={2: 4.0})
        with pytest.raises(NumericalError, match="cap"):
            averaged_estimate(two_term_model, plan, 2, 64.0, seed=0)


def test_subtraction_telescoping(two_term_model):
    # sum of the term forms plus the remainder form equals the full form
    family = two_term_model.family_for(2.0)
    full = packet_quadratic_form(family, [8.0], two_term_model.observable)[0]
    parts = sum(
        packet_quadratic_form(family, [8.0], term)[0]
        for term in two_term_model.observable.terms
    )
    assert abs(full - parts) < 1e-8 * abs(full)
    # and the j = k_beta + 1 measurement is the full form minus all terms
    left = measure(two_term_model, 8.0, 2.0, len(two_term_model.observable.terms) + 1)
    assert abs(left - (full - parts)) < 1e-10


def test_recover_expansion_single_seed(two_term_model, two_term_plan):
    report = recover_expansion(
        two_term_model,
        two_term_plan,
        np.linspace(-0.5, 0.5, 5),
        1.0,
        48.0,
        subtract_mode="oracle",
        seed=2024,
    )
    assert len(report.rows) == 10
    assert report.errors().max() < 0.1
    assert not report.alerts


def test_zero_observable_noise_floor(profile, two_term_plan):
    # all-zero symbol: the plain estimate is pure scaled noise, so its
    # magnitude respects the 3 sigma circular-Gaussian bound
    zero = Observable(
        SymbolExpansion(
            (
                HomogeneousTerm(1.0, parse_coeff("0")),
                HomogeneousTerm(0.0, parse_coeff("0")),
            )
        )
    )
    model = MeasurementModel(zero, 0.0, 0.0, 1.0, profile)
    N = 16.0
    bound = 3.0 * N ** (-two_term_plan.lam(1) * 1.0)
    values = [
        abs(plain_estimate(model, two_term_plan, 1, N, seed=s)) for s in range(50)
    ]
    assert max(values) <= bound


def test_self_subtract_error_propagation(two_term_model, two_term_plan):
    # A term-1 coefficient error eps enters the stage-2 subtraction as a
    # spurious symbol of order m1, so after the t^(-lam*m2) rescaling it is
    # amplified by the averaged factor (1/K) sum t^(lam*(m1 - m2)).
    session = RecoverySession(
        two_term_model,
        two_term_plan,
        np.linspace(-0.75, 0.75, 7),
        24.0,
        subtract_mode="both",
    )
    report = session.run_seed(99)
    term1 = [r for r in report.rows if r.term_index == 1 and r.subtract == "oracle"]
    by_key = {
        (r.subtract, r.x0): r.estimate
        for r in report.rows
        if r.term_index == 2
    }
    worst_t1 = max(r.abs_error for r in term1)
    lam2 = two_term_plan.lam(2)
    m1, m2 = two_term_plan.m_list[0], two_term_plan.m_list[1]
    amplification = float(np.mean(session.designs[2].nodes ** (lam2 * (m1 - m2))))
    diffs = [
        abs(by_key[("self", r.x0)] - by_key[("oracle", r.x0)]) for r in term1
    ]
    assert max(diffs) <= 5.0 * amplification * worst_t1
    assert max(diffs) >= 0.01 * amplification * worst_t1


def test_self_subtract_needs_dense_grid(two_term_model, two_term_plan):
    with pytest.raises(ConfigError, match="dense"):
        RecoverySession(
            two_term_model, two_term_plan, [0.0], 16.0, subtract_mode="self"
        )


def test_every_entry_point_computes_the_same_estimate(two_term_model, two_term_plan):
    model, plan, N = two_term_model, two_term_plan, 8.0
    session = RecoverySession(model, plan, [model.x0], N, noise=False).run_seed(0)
    for j, single in ((1, plain_estimate), (2, averaged_estimate)):
        expected = single(model, plan, j, N, noise=False)
        got = [
            next(r.estimate for r in session.rows if r.term_index == j),
            _estimator_samples(model, plan, j, N, 3, 0, "rate-0", noise=False)[0],
            trajectory_as_convergence_check(
                model, plan, j, [N, 2 * N], noise=False
            ).estimates[0],
        ]
        for value in got:
            assert abs(value - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("j", [1, 2])
def test_noise_batch_is_the_weighted_path_batch(two_term_model, two_term_plan, j):
    # u @ z per trial against the full paths L z contracted with w
    design = TermDesign.for_term(two_term_model, two_term_plan, j, 8.0)
    got = design.noise_batch(6, 17, "key", 3)
    z = np.array(
        [standard_complex_normal(rng_for(17, trial, "key", 3), design.nodes.size)
         for trial in range(6)]
    )
    want = design.kernel.apply_factor(z) @ design.weights
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_trajectory_trial_rows_are_their_plotted_means(two_term_model, two_term_plan):
    # the plotted contributions carry the full path L z, the rows u @ z of
    # the same draw; rows do not depend on whether trajectories are kept
    session = RecoverySession(
        two_term_model, two_term_plan, [-0.5, -0.25, 0.0, 0.25], 8.0, subtract_mode="both"
    )
    report = session.run_seed(5, trajectories=True)
    assert len(report.trajectories) == len(report.rows) == 16
    for r in report.rows:
        _, contributions = report.trajectories[(r.subtract, r.term_index, r.x0)]
        mean = np.mean(contributions)
        assert abs(r.estimate - mean) <= 1e-12 * abs(mean)
    assert session.run_seed(5, trajectories=False).rows == report.rows


@pytest.fixture(scope="module")
def self_session(two_term_model, two_term_plan):
    # an unsorted grid: TabulatedCoeff sorts it, the cardinals must follow
    return RecoverySession(
        two_term_model, two_term_plan, [0.25, -0.5, 0.5, 0.0, -0.25], 8.0,
        subtract_mode="both", noise=False,
    )


def test_cardinal_forms_are_the_recovered_term_form(self_session, rng):
    # the spline is linear in its data and the form linear in the coefficient,
    # so v @ B equals the form of the term recovered with values v
    session = self_session
    design = session.designs[2]
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    term = session.recovered_term(1, v)
    assert isinstance(term.coefficient, TabulatedCoeff)
    for i, x0 in enumerate(session.x0_grid):
        direct = packet_quadratic_form(design.family, design.nodes, term, x0)
        linear = v @ session.cardinal_forms[(2, i, 1)]
        assert np.max(np.abs(linear - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_session_oracle_signals_match_the_design(self_session, two_term_model):
    session = self_session
    for (j, i), signal in session.oracle_signals.items():
        expected = session.designs[j].signal(two_term_model.observable, j, session.x0_grid[i])
        assert np.array_equal(signal, expected)


def test_base_point_array_matches_scalar_calls(two_term_model):
    family = two_term_model.family_for(2.5)
    nodes = np.linspace(8.0, 16.0, 7)
    x0s = np.array([-0.3, 0.0, 0.4])
    P = two_term_model.observable
    rows = packet_quadratic_form(family, nodes, P, x0s, chunk=3)
    assert rows.shape == (3, 7)
    for i, x0 in enumerate(x0s):
        assert np.array_equal(rows[i], packet_quadratic_form(family, nodes, P, x0, chunk=3))


def test_vector_coefficient_matches_its_columns(self_session):
    # the cardinal forms in one vector-valued call, in small node chunks,
    # against one scalar spline per cardinal
    session = self_session
    design = session.designs[2]
    n = session.x0_grid.size
    x0s = session.x0_grid[:2]
    B = packet_quadratic_form(
        design.family, design.nodes, session.recovered_term(1, np.eye(n)), x0s, chunk=5
    )
    assert B.shape == (2, n, design.nodes.size)
    for l in range(n):
        direct = packet_quadratic_form(
            design.family, design.nodes, session.recovered_term(1, np.eye(n)[l]), x0s
        )
        assert np.max(np.abs(B[:, l] - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_tabulated_integrate_matches_pointwise_sum(rng):
    # moments per grid interval times the spline's coefficients, against the
    # spline evaluated at every point: on the grid points, past both ends of
    # an unsorted grid, for scalar and vector-valued data
    grid = np.array([0.25, -0.5, 0.5, 0.0, -0.25])
    x = rng.uniform(-0.8, 0.8, size=(40, 6))
    x[:5, 0] = grid
    weights = rng.normal(size=(40, 6)) + 1j * rng.normal(size=(40, 6))
    for values in (rng.normal(size=5), np.eye(5), rng.normal(size=(5, 2, 3))):
        coeff = TabulatedCoeff(grid, values)
        direct = np.moveaxis(np.einsum("yk,yk...->k...", weights, coeff(x)), 0, -1)
        got = coeff.integrate(x, weights)
        assert got.shape == direct.shape
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))
