import dataclasses

import numpy as np
import pytest

from symrec import measurement_recovery
from symrec.errors import ConfigError, NumericalError
from symrec.expressions import parse_coeff
from symrec.measurement_recovery import (
    MAX_AVERAGE_NODES,
    MeasurementModel,
    RecoverySession,
    TabulatedCoeff,
    TermDesign,
    adaptive_average_nodes,
    plan_orders,
)
from symrec.noise_engine import build_kernel
from symrec.rng import child_seed, rng_for, standard_complex_normal
from symrec.stats_harness import _estimator_samples, trajectory_as_convergence_check
from symrec.symbols import (
    HomogeneousTerm,
    SymbolExpansion,
    packet_quadratic_form,
)


def estimate(model, plan, j, N, seed=0, noise=True, n_nodes=None):
    """The oracle-subtracted estimate of term j at scale N in its planned
    mode, with the noise keyed by (seed, "plain" or "avg", j)."""
    design = TermDesign.for_term(model, plan, j, N, n_nodes, noise)
    tag = "plain" if plan.mode(j) == "plain" else "avg"
    value = design.estimate(design.signal(model.observable, j))
    return value + design.noise(child_seed(seed, tag, j))


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
        P = SymbolExpansion((HomogeneousTerm(0.0, parse_coeff("1")),))
        model = MeasurementModel(P, 0.0, 0.0, 1.0, two_term_model.profile)
        design = TermDesign(model.family_for(2.0), 0.0, 0.0, "plain", 8.0, noise=False)
        assert abs(design.signal(model.observable, 1)[0] - 1.0) < 1e-6

    def test_subtracted_measurement_matches_residual_symbol(self, two_term_model):
        # j = 2 measurement equals the quadratic form of the remaining term
        family = two_term_model.family_for(2.5)
        design = TermDesign(family, 0.0, 0.0, "plain", 8.0, noise=False)
        val = design.signal(two_term_model.observable, 2)[0]
        residual = packet_quadratic_form(
            family, [8.0], two_term_model.observable.terms[1]
        )[0]
        assert abs(val - residual) < 1e-6 * max(1.0, abs(residual))


class TestPlainEstimate:
    def test_noise_free_single_term(self, profile, two_term_plan):
        P = SymbolExpansion(
            (
                HomogeneousTerm(1.0, parse_coeff("1 + 0.2*sin(x)")),
                HomogeneousTerm(0.0, parse_coeff("0")),
            )
        )
        model = MeasurementModel(P, 0.0, 0.4, 1.0, profile)
        est = estimate(model, two_term_plan, 1, 32.0, noise=False)
        truth = model.truth(1).real
        assert abs(est - truth) < 0.05

    def test_noise_variance_is_kernel_exact(self, two_term_model, two_term_plan):
        # estimator noise sd at N is N^(-lam*m) * ||f_N||^2 exactly
        N = 16.0
        kernel = build_kernel(two_term_model.family_for(2.0), [N], 0.0)
        sd = N ** (-2.0) * np.sqrt(kernel.diagonal[0])
        samples = np.array(
            [
                estimate(two_term_model, two_term_plan, 1, N, seed=s)
                for s in range(200)
            ]
        )
        base = estimate(two_term_model, two_term_plan, 1, N, noise=False)
        empirical_sd = np.sqrt(np.mean(np.abs(samples - base) ** 2))
        assert empirical_sd == pytest.approx(sd, rel=0.25)

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
        est = estimate(two_term_model, two_term_plan, 2, 24.0, noise=False)
        truth = two_term_model.truth(2).real
        assert abs(est - truth) < 0.05

    def test_node_doubling_changes_little(self, two_term_model, two_term_plan):
        k = adaptive_average_nodes(8.0, two_term_plan.lam(2))
        a = estimate(two_term_model, two_term_plan, 2, 8.0, n_nodes=k, noise=False)
        b = estimate(two_term_model, two_term_plan, 2, 8.0, n_nodes=2 * k, noise=False)
        assert abs(a - b) < 1e-4 * abs(a)

    def test_node_cap_signals(self, two_term_model):
        plan = plan_orders([1.0, 0.0, -1.0], 0.0, lambda_overrides={2: 4.0})
        with pytest.raises(NumericalError, match="cap"):
            TermDesign.for_term(two_term_model, plan, 2, 64.0)

    def test_node_cap_holds_for_an_explicit_count(self, two_term_model, two_term_plan):
        with pytest.raises(NumericalError, match="cap"):
            TermDesign.for_term(
                two_term_model, two_term_plan, 2, 8.0, n_nodes=MAX_AVERAGE_NODES + 1
            )


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
    beyond = len(two_term_model.observable.terms) + 1
    design = TermDesign(family, 0.0, 0.0, "plain", 8.0, noise=False)
    left = design.signal(two_term_model.observable, beyond)[0]
    assert abs(left - (full - parts)) < 1e-10


def test_recover_expansion_single_seed(two_term_model, two_term_plan):
    report = RecoverySession(
        two_term_model, two_term_plan, np.linspace(-0.5, 0.5, 5), 48.0,
        subtract_mode="oracle",
    ).run_seed(2024)
    assert len(report.rows) == 10
    assert report.errors().max() < 0.1


def test_zero_observable_noise_floor(profile, two_term_plan):
    # all-zero symbol: the plain estimate is pure scaled noise, so its
    # magnitude respects the 3 sigma circular-Gaussian bound
    zero = SymbolExpansion(
        (
            HomogeneousTerm(1.0, parse_coeff("0")),
            HomogeneousTerm(0.0, parse_coeff("0")),
        )
    )
    model = MeasurementModel(zero, 0.0, 0.0, 1.0, profile)
    N = 16.0
    bound = 3.0 * N ** (-two_term_plan.lam(1) * 1.0)
    values = [
        abs(estimate(model, two_term_plan, 1, N, seed=s)) for s in range(50)
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
    for j in (1, 2):
        expected = estimate(model, plan, j, N, noise=False)
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
    # the same draw; rows do not depend on whether trajectories are kept.
    # Only the plotted mode (oracle under both) at the first grid point is kept.
    grid = [-0.25, -0.5, 0.0, 0.25]
    for mode, plotted in (("both", "oracle"), ("self", "self")):
        session = RecoverySession(
            two_term_model, two_term_plan, grid, 8.0, subtract_mode=mode
        )
        report = session.run_seed(5, trajectories=True)
        assert sorted(report.trajectories) == [(plotted, 1, -0.25), (plotted, 2, -0.25)]
        for r in report.rows:
            if (r.subtract, r.term_index, r.x0) in report.trajectories:
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
    # so v @ BW equals the weighted form of the term recovered with values v
    session = self_session
    design = session.designs[2]
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    term = session.recovered_term(1, v)
    assert isinstance(term.coefficient, TabulatedCoeff)
    for i, x0 in enumerate(session.x0_grid):
        direct = packet_quadratic_form(design.family, design.nodes, term, x0) @ design.weights
        linear = v @ session.cardinal_sums[(2, 1)][i]
        assert abs(linear - direct) <= 1e-12 * abs(direct)


def test_session_oracle_signals_match_the_design(self_session, two_term_model):
    # the cached oracle estimates are the design's estimates of its signals
    session = self_session
    for j, estimates in session.oracle_estimates.items():
        design = session.designs[j]
        expected = [
            design.estimate(design.signal(two_term_model.observable, j, x0))
            for x0 in session.x0_grid
        ]
        assert np.array_equal(estimates, expected)


def test_oracle_signal_is_the_sum_of_the_later_terms(two_term_model):
    design = TermDesign(two_term_model.family_for(2.5), 0.0, 0.0, "averaged", 8.0, 16, False)
    terms = two_term_model.observable.terms
    form, signal = design.form_and_signal(two_term_model.observable, 2)
    assert np.array_equal(signal, 0j + design.form(terms[1]))
    assert np.array_equal(form, 0j + design.form(terms[0]) + design.form(terms[1]))


@pytest.mark.parametrize(
    "grid, xi0",
    [
        pytest.param([0.25, -0.5, 0.5, 0.0, -0.25], 1.0, id="unsorted-5"),
        pytest.param([-0.7, -0.55, -0.1, 0.05, 0.4, 0.45, 0.9], 1.0, id="nonuniform-7"),
        pytest.param(np.linspace(-0.5, 0.5, 50), 1.0, id="uniform-50"),
        pytest.param([0.25, -0.5, 0.5, 0.0, -0.25], -1.0, id="xi0-minus-1"),
    ],
)
def test_cardinal_sums_match_the_pointwise_form(two_term_model, two_term_plan, grid, xi0):
    # BW = B @ w from the bucketed moments, against each cardinal spline
    # evaluated at every quadrature point, for every base point (hull ends
    # included); on uniform grids the thresholds x_m - x0_i of different
    # base points coincide up to rounding, which must not move whole buckets
    model = dataclasses.replace(two_term_model, xi0=xi0)
    session = RecoverySession(
        model, two_term_plan, grid, 8.0, subtract_mode="self", n_nodes=64, noise=False
    )
    design = session.designs[2]
    n = len(grid)
    want = np.empty((n, n), dtype=complex)
    for l in range(n):
        term = session.recovered_term(1, np.eye(n)[l])
        want[:, l] = packet_quadratic_form(
            design.family, design.nodes, term, session.x0_grid
        ) @ design.weights
    got = session.cardinal_sums[(2, 1)]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_session_rows_carry_the_truth_at_their_base_point(self_session, two_term_model):
    # the truths are computed once per session; every row must still get its own
    rows = self_session.run_seed(3, trajectories=False).rows
    assert len(rows) == 2 * 2 * 5  # modes * terms * grid points
    for r in rows:
        assert r.truth == two_term_model.truth(r.term_index, r.x0).real


def test_base_point_array_matches_scalar_calls(two_term_model):
    family = two_term_model.family_for(2.5)
    nodes = np.linspace(8.0, 16.0, 7)
    x0s = np.array([-0.3, 0.0, 0.4])
    P = two_term_model.observable
    rows = packet_quadratic_form(family, nodes, P, x0s, chunk=3)
    assert rows.shape == (3, 7)
    for i, x0 in enumerate(x0s):
        assert np.array_equal(rows[i], packet_quadratic_form(family, nodes, P, x0, chunk=3))


@pytest.fixture()
def integrated_terms(monkeypatch, two_term_model):
    """(node count, term index) of each ``packet_quadratic_form`` call that
    ``measurement_recovery`` makes with a term of the two-term model."""
    calls = []
    terms = two_term_model.observable.terms
    integrate = measurement_recovery.packet_quadratic_form

    def recording(family, t_nodes, P, x0=None):
        calls.append((np.size(t_nodes), next(k for k, t in enumerate(terms, 1) if t is P)))
        return integrate(family, t_nodes, P, x0)

    monkeypatch.setattr(measurement_recovery, "packet_quadratic_form", recording)
    return calls


@pytest.mark.parametrize("mode, per_design", [
    ("oracle", {1: [1, 2], 2: [2]}),          # terms j and later only
    ("both", {1: [1, 2], 2: [1, 2]}),         # self-subtraction reads every form
])
def test_session_integrates_only_the_forms_it_reads(
    two_term_model, two_term_plan, integrated_terms, mode, per_design
):
    session = RecoverySession(
        two_term_model, two_term_plan, [-0.5, -0.25, 0.0, 0.25, 0.5], 8.0,
        subtract_mode=mode, n_nodes=16, noise=False,
    )
    sizes = {j: design.nodes.size for j, design in session.designs.items()}
    assert sizes[1] != sizes[2]
    assert integrated_terms == [(sizes[j], k) for j in (1, 2) for k in per_design[j]]
    assert (session.weighted_forms == {}) == (mode == "oracle")


def test_design_signal_integrates_only_terms_from_j(two_term_model, integrated_terms):
    design = TermDesign(two_term_model.family_for(2.5), 0.0, 0.0, "averaged", 8.0, 16, False)
    for j, later in ((1, [1, 2]), (2, [2]), (3, [])):
        integrated_terms.clear()
        signal = design.signal(two_term_model.observable, j, [0.0, 0.3])
        assert [k for _, k in integrated_terms] == later
    # past the last term the signal is zero over the nodes, at every base point
    assert np.array_equal(signal, np.zeros((2, 16), dtype=complex))
    assert np.array_equal(design.signal(two_term_model.observable, 3), np.zeros(16, dtype=complex))
