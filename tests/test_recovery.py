import dataclasses

import numpy as np
import pytest

from symrec import measurement_recovery, wave_packets
from symrec.errors import ConfigError, NumericalError
from symrec.expressions import parse_coeff
from symrec.measurement_recovery import (
    MAX_AVERAGE_NODES,
    MeasurementModel,
    RecoverySession,
    TabulatedCoeff,
    TermDesign,
    adaptive_average_nodes,
    average_grid,
    plan_orders,
)
from symrec.noise_engine import build_kernel
from symrec.parallel import worker_limit
from symrec.rng import (
    child_seed, child_seeds, complex_normal_dot, rng_for, standard_complex_normal, stream_keys,
)
from symrec.symbols import (
    HomogeneousTerm,
    SymbolExpansion,
    packet_quadratic_form,
)


def estimate(model, plan, j, N, seed=0, noise=True, n_nodes=None):
    """The oracle-subtracted estimate of term j at scale N in its planned
    mode, with the noise drawn from the path stream of
    child_seed(seed, "plain" or "avg", j)."""
    design = TermDesign.for_term(model, plan, j, N, n_nodes, noise)
    tag = "plain" if plan.mode(j) == "plain" else "avg"
    value = design.estimate(sum(design.forms(model.observable.terms[j - 1 :]), 0j))
    keys = stream_keys(child_seed(seed, tag, j), "noise-path")
    return complex(value + design.keyed_noise(keys))


def run_trial(session, seed):
    """The report of one trial, with its trajectories."""
    return next(session.run_trials([seed]))


def oracle_errors(report) -> np.ndarray:
    """The absolute errors of the oracle-subtracted rows of a report."""
    return np.array([r.abs_error for r in report.rows if r.subtract == "oracle"])


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
        assert abs(design.forms(model.observable.terms)[0][0] - 1.0) < 1e-6

    def test_subtracted_measurement_matches_residual_symbol(self, two_term_model):
        # j = 2 measurement equals the quadratic form of the remaining term
        family = two_term_model.family_for(2.5)
        design = TermDesign(family, 0.0, 0.0, "plain", 8.0, noise=False)
        val = sum(design.forms(two_term_model.observable.terms[1:]), 0j)[0]
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
    # the signal of term j plus the forms of terms 1..j-1 is the full form
    family = two_term_model.family_for(2.0)
    terms = two_term_model.observable.terms
    design = TermDesign(family, 0.0, 0.0, "plain", 8.0, noise=False)
    full = sum(design.forms(terms), 0j)[0]
    for j in range(1, len(terms) + 2):
        signal = sum(design.forms(terms[j - 1 :]), 0j)
        earlier = sum(packet_quadratic_form(family, [8.0], term)[0] for term in terms[: j - 1])
        assert abs(signal + earlier - full) < 1e-8 * abs(full)
    # and the j = k_beta + 1 measurement, past every term, is zero
    assert signal == 0


def test_recover_expansion_single_seed(two_term_model, two_term_plan):
    session = RecoverySession(
        two_term_model, two_term_plan, np.linspace(-0.5, 0.5, 5), 48.0,
        subtract_mode="oracle",
    )
    report = run_trial(session, 2024)
    assert len(report.rows) == 10
    assert oracle_errors(report).max() < 0.1


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
    report = run_trial(session, 99)
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
    session = run_trial(RecoverySession(model, plan, [model.x0], N, noise=False), 0)
    for j in (1, 2):
        expected = estimate(model, plan, j, N, noise=False)
        got = next(r.estimate for r in session.rows if r.term_index == j)
        assert abs(got - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("j", [1, 2])
def test_noise_batch_is_the_weighted_path_batch(two_term_model, two_term_plan, j):
    # u @ z per trial against the full paths L z contracted with w
    design = TermDesign.for_term(two_term_model, two_term_plan, j, 8.0)
    got = design.keyed_noise(stream_keys(17, np.arange(6), "key", 3))
    z = np.array(
        [standard_complex_normal(rng_for(17, trial, "key", 3), design.nodes.size)
         for trial in range(6)]
    )
    want = design.kernel.apply_factor(z) @ design.weights
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_noise_batch_does_not_depend_on_the_worker_limit(two_term_model, two_term_plan):
    design = TermDesign.for_term(two_term_model, two_term_plan, 2, 8.0)
    keys = stream_keys(17, np.arange(50), "key")
    with worker_limit(1):
        serial = design.keyed_noise(keys)
    with worker_limit(2):
        pooled = design.keyed_noise(keys)
    assert np.array_equal(pooled, serial)


def test_session_noise_is_each_trial_point_stream_drawn_in_one_batch(
    two_term_model, two_term_plan
):
    # the recover CLI's trial seeds, then one batch per design: each trial's
    # oracle estimates carry the draws of the streams that the trial and grid
    # point key on their own
    session = RecoverySession(two_term_model, two_term_plan, np.linspace(-0.5, 0.5, 5), 8.0)
    seed, trials = 29, 7
    trial_seeds = child_seeds(seed, np.arange(trials), "recover-trial")
    want = {
        j: np.array([
            [complex_normal_dot(
                rng_for(child_seed(child_seed(seed, t, "recover-trial"), "recover", j, i),
                        "noise-path"),
                design.noise_weights,
            ) for i in range(5)]
            for t in range(trials)
        ])
        for j, design in session.designs.items()
    }
    with worker_limit(1):
        serial = list(session.run_trials(trial_seeds))
    pooled = list(session.run_trials(trial_seeds))
    for reports in (serial, pooled):
        assert len(reports) == trials
        for t, report in enumerate(reports):
            for j in session.designs:
                got = [r.estimate for r in report.rows if r.term_index == j]
                assert np.array_equal(got, session.oracle_estimates[j] + want[j][t])


def test_session_factors_every_noisy_design_before_any_trial(two_term_model, two_term_plan):
    # the session does all the set-up; a batch of draws only reads u = L^T w
    session = RecoverySession(two_term_model, two_term_plan, [0.0], 8.0)
    for design in session.designs.values():
        assert design.kernel._factor is not None
        want = design.kernel.apply_factor_transpose(design.weights)
        assert np.array_equal(design.noise_weights, want)


def test_trajectory_trial_rows_are_their_plotted_means(two_term_model, two_term_plan):
    # the plotted contributions carry the full path L z, the rows u @ z of
    # the same draw; rows do not depend on whether trajectories are kept.
    # Only the plotted mode (oracle under both) at the first grid point is
    # kept, per term, and only by the first trial: a seed's draws follow the
    # seed, so a repeated seed repeats its rows without them.
    grid = [-0.25, -0.5, 0.0, 0.25]
    for mode, plotted in (("both", "oracle"), ("self", "self")):
        session = RecoverySession(
            two_term_model, two_term_plan, grid, 8.0, subtract_mode=mode
        )
        report, again = session.run_trials([5, 5])
        assert sorted(report.trajectories) == [1, 2]
        assert again.trajectories == {}
        for r in report.rows:
            if r.subtract == plotted and r.x0 == grid[0]:
                _, contributions = report.trajectories[r.term_index]
                mean = np.mean(contributions)
                assert abs(r.estimate - mean) <= 1e-12 * abs(mean)
        assert again.rows == report.rows


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
            design.estimate(sum(design.forms(two_term_model.observable.terms[j - 1 :], x0), 0j))
            for x0 in session.x0_grid
        ]
        assert np.array_equal(estimates, expected)


def test_oracle_signal_is_the_sum_of_the_later_terms(two_term_model):
    design = TermDesign(two_term_model.family_for(2.5), 0.0, 0.0, "averaged", 8.0, 16, False)
    terms = two_term_model.observable.terms
    first, second = design.forms(terms)
    assert np.array_equal(sum(design.forms(terms[1:]), 0j), 0j + second)
    assert np.array_equal(sum(design.forms(terms), 0j), 0j + first + second)


@pytest.mark.parametrize("mode, n_nodes", [("plain", None), ("averaged", 300), ("averaged", 14482)])
def test_estimate_reduces_the_trailing_node_axis(two_term_model, rng, mode, n_nodes):
    # one estimate per base-point row, each the same sum as that row's alone
    design = TermDesign(two_term_model.family_for(2.5), 0.0, 0.0, mode, 8.0, n_nodes, False)
    re, im = rng.normal(size=(2, 3, design.nodes.size))
    values = re + 1j * im
    got = design.estimate(values)
    assert got.shape == (3,)
    assert np.array_equal(got, [design.estimate(row) for row in values])


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
    rows = run_trial(self_session, 3).rows
    assert len(rows) == 2 * 2 * 5  # modes * terms * grid points
    for r in rows:
        assert r.truth == two_term_model.truth(r.term_index, r.x0).real


def test_base_point_array_matches_scalar_calls(monkeypatch, two_term_model):
    family = two_term_model.family_for(2.5)
    # blocks of 3 nodes, so 7 nodes end in a short block
    monkeypatch.setattr(wave_packets, "BLOCK_ENTRIES", 3 * family.profile.y.size)
    nodes = np.linspace(8.0, 16.0, 7)
    x0s = np.array([-0.3, 0.0, 0.4])
    for term in two_term_model.observable.terms:
        rows = packet_quadratic_form(family, nodes, term, x0s)
        assert rows.shape == (3, 7)
        for i, x0 in enumerate(x0s):
            assert np.array_equal(rows[i], packet_quadratic_form(family, nodes, term, x0))


# Term 2 of the README design: 9,407 averaged nodes at N = 48, five base
# points.  Each pass holds one node block's arrays at a time, a few
# BLOCK_ENTRIES-sized float arrays, whatever the node count; beside them
# stands only the array the pass returns.
_BLOCK_PASS_BOUND = 6 * 8 * wave_packets.BLOCK_ENTRIES


def test_quadrature_memory_follows_the_block_not_the_node_count(two_term_model, traced_call):
    family = two_term_model.family_for(2.5)
    nodes = average_grid(48.0, adaptive_average_nodes(48.0, 2.5))
    term = two_term_model.observable.terms[1]
    x0s = np.linspace(-0.5, 0.5, 5)
    peak, out = traced_call(packet_quadratic_form, family, nodes, term, x0s)
    assert out.shape == (5, 9407)
    assert peak < _BLOCK_PASS_BOUND + out.nbytes


def test_spline_moment_memory_follows_the_block_not_the_node_count(two_term_model, traced_call):
    # the cardinal sums of a recovered term 1 on the same design
    design = TermDesign(two_term_model.family_for(2.5), 0.0, 0.0, "averaged", 48.0, noise=False)
    x0s = np.linspace(-0.5, 0.5, 5)
    term = HomogeneousTerm(1.0, TabulatedCoeff(x0s, np.eye(5)), h_minus=0.0)
    peak, out = traced_call(
        measurement_recovery.spline_form_sums,
        design.family, design.nodes, design.weights, term, x0s,
    )
    assert peak < _BLOCK_PASS_BOUND + out.nbytes


@pytest.fixture()
def integrated_terms(monkeypatch, two_term_model):
    """(node count, term index) of each ``packet_quadratic_form`` call that
    ``measurement_recovery`` makes with a term of the two-term model."""
    calls = []
    terms = two_term_model.observable.terms
    integrate = measurement_recovery.packet_quadratic_form

    def recording(family, t_nodes, term, x0=None):
        calls.append((np.size(t_nodes), next(k for k, t in enumerate(terms, 1) if t is term)))
        return integrate(family, t_nodes, term, x0)

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
    # the signal of term j sums the forms of terms j and later, one
    # quadrature call per term at every base point at once
    design = TermDesign(two_term_model.family_for(2.5), 0.0, 0.0, "averaged", 8.0, 16, False)
    terms = two_term_model.observable.terms
    for j, later in ((1, [1, 2]), (2, [2]), (3, [])):
        integrated_terms.clear()
        forms = design.forms(terms[j - 1 :], [0.0, 0.3])
        assert integrated_terms == [(16, k) for k in later]
        assert [form.shape for form in forms] == [(2, 16)] * len(later)
    # past the last term the signal is zero
    assert sum(forms, 0j) == 0
