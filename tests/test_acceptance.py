"""Acceptance suite: every criterion asserts at its stated tolerance and
prints one PASS line (a failed assert marks the criterion FAIL)."""

import numpy as np
import pytest

from symrec.cli_io import main as cli_main
from symrec.expressions import parse_coeff
from symrec.measurement_recovery import (
    MeasurementModel,
    RecoverySession,
    plan_orders,
)
from symrec.noise_engine import (
    JapaneseBracketWeight,
    basis_oracle_batch,
    build_kernel,
    sample_paths,
)
from symrec.rng import child_seed
from symrec.stats_harness import (
    nonconvergence_experiment,
    rate_certificate_experiment,
    variance_scaling_experiment,
)
from symrec.symbols import (
    HomogeneousTerm,
    SymbolExpansion,
    asymptotic_error_probe,
)
from symrec.wave_packets import WavePacketFamily

from reference_quadrature import inner_product_sobolev, l2_norm, make_packet


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:02d} {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def two_term(profile):
    terms = (
        HomogeneousTerm(1.0, parse_coeff("1 + 0.2*sin(x)")),
        HomogeneousTerm(0.0, parse_coeff("0.5 + 0.2*cos(x)")),
    )
    model = MeasurementModel(
        SymbolExpansion(terms), 0.0, 0.0, 1.0, profile
    )
    plan = plan_orders([1.0, 0.0, -1.0], 0.0)
    return model, plan


def test_criterion_1_packet_norms(profile):
    family = WavePacketFamily(0.0, 1.0, 2.0, profile)
    norm_errs = [abs(l2_norm(make_packet(family, t)) - 1.0) for t in (2.0, 8.0, 32.0)]

    slopes = {}
    for beta, lam in [(0.5, 2.0), (-0.5, 2.5)]:
        fam = WavePacketFamily(0.0, 1.0, lam, profile)
        w = JapaneseBracketWeight(beta)
        ts = np.array([4.0, 8.0, 16.0, 32.0])
        norms = [
            np.sqrt(inner_product_sobolev(make_packet(fam, t), make_packet(fam, t), w).real)
            for t in ts
        ]
        slopes[(beta, lam)] = np.polyfit(np.log(ts), np.log(norms), 1)[0]

    ok = max(norm_errs) < 1e-6 and all(
        abs(slopes[(b, l)] - l * b) < 0.05 for (b, l) in slopes
    )
    report(
        1, ok,
        f"unit norms within {max(norm_errs):.1e}; Sobolev slopes "
        + ", ".join(f"{s:.3f} (want {l * b:+.2f})" for (b, l), s in slopes.items()),
    )


def test_criterion_2_noise_isometry(profile):
    family = WavePacketFamily(0.0, 1.0, 2.0, profile)
    beta = 0.25
    n = 10_000

    kernel1 = build_kernel(family, [4.0], beta)
    seeds = [child_seed(101, trial, "iso") for trial in range(n)]
    vals = sample_paths(kernel1, seeds)[:, 0]
    ratio = float(np.mean(np.abs(vals) ** 2) / kernel1.diagonal[0])

    kernel2 = build_kernel(family, [4.0, 4.04], beta)
    seeds = [child_seed(102, trial, "pseudo") for trial in range(n)]
    paths = sample_paths(kernel2, seeds)
    prods = paths[:, 0] * paths[:, 1]
    pseudo = abs(np.mean(prods))
    stderr = float(np.std(prods) / np.sqrt(n))
    same_node = abs(np.mean(vals ** 2))
    same_stderr = float(np.std(vals ** 2) / np.sqrt(n))

    ok = abs(ratio - 1.0) < 0.05 and pseudo <= 3 * stderr and same_node <= 3 * same_stderr
    report(
        2, ok,
        f"variance ratio {ratio:.4f} (want 1 +- 0.05); pseudo-covariance "
        f"{pseudo:.4f} <= 3*stderr {3 * stderr:.4f}",
    )


def test_criterion_3_kernel_oracle_equivalence(profile):
    family = WavePacketFamily(0.0, 1.0, 2.0, profile)
    nodes, beta, coarse = (4.0, 4.02, 4.05), 0.25, 32
    kernel = build_kernel(family, nodes, beta, points_per_min_window=coarse)
    samples = basis_oracle_batch(
        family, nodes, beta, truncation=128,
        seed=child_seed(103, "oracle"), n_samples=10_000,
        points_per_min_window=coarse,
    )
    emp = (samples.conj().T @ samples / samples.shape[0]).real
    rel = float(np.max(np.abs(emp - kernel.dense()) / kernel.dense()))
    report(3, rel < 0.05, f"max entrywise relative deviation {rel:.4f} (want < 0.05)")


def test_criterion_4_deterministic_rates(profile):
    cases = []
    # remainder-dominated pairs so the stated min(...) rate is attained
    fam_a = WavePacketFamily(0.0, 1.0, 2.0, profile)
    sym_a = SymbolExpansion(
        (
            HomogeneousTerm(1.0, parse_coeff("1 + 0.2*sin(x)")),
            HomogeneousTerm(0.5, parse_coeff("0.5 + 0.2*cos(x)")),
        )
    )
    cases.append((sym_a, fam_a, -min(1.0, 2.0 * 0.5, 1.0)))
    fam_b = WavePacketFamily(0.0, 1.0, 2.5, profile)
    sym_b = SymbolExpansion(
        (
            HomogeneousTerm(2.0, parse_coeff("1 + 0.2*sin(x)")),
            HomogeneousTerm(1.8, parse_coeff("0.5 + 0.2*cos(x)")),
        )
    )
    cases.append((sym_b, fam_b, -min(1.0, 2.5 * 0.2, 1.5)))

    details, ok = [], True
    for P, family, expected in cases:
        probe = asymptotic_error_probe(P, family, [8.0, 16.0, 32.0, 64.0])
        slope = np.polyfit(np.log(probe["t"]), np.log(probe["errors"]), 1)[0]
        ok = ok and abs(slope - expected) < 0.2
        details.append(f"slope {slope:.3f} (want {expected:+.1f} +- 0.2)")
    report(4, ok, "; ".join(details))


def test_criterion_5_plain_noise_scaling(profile):
    family = WavePacketFamily(0.0, 1.0, 2.0, profile)
    res = variance_scaling_experiment(
        family, 0.0, 1.0, "plain", [8.0, 16.0, 32.0, 64.0], 1000, master_seed=105
    )
    ok = abs(res.regression.slope - res.expected_slope) < 0.1
    report(
        5, ok,
        f"plain variance slope {res.regression.slope:.3f} "
        f"(want {res.expected_slope:+.1f} +- 0.1)",
    )


def test_criterion_6_ergodic_average_scaling(profile):
    family = WavePacketFamily(0.0, 1.0, 2.0, profile)
    res = variance_scaling_experiment(
        family, 0.0, 0.0, "averaged", [8.0, 16.0, 32.0, 64.0], 1000, master_seed=106
    )
    rel = float(np.max(np.abs(res.empirical_var / res.continuum_var - 1.0)))
    ok = abs(res.regression.slope - res.expected_slope) < 0.3 and rel < 0.10
    report(
        6, ok,
        f"averaged variance slope {res.regression.slope:.3f} "
        f"(want {res.expected_slope:+.1f} +- 0.3); "
        f"max deviation vs kernel quadrature {rel:.3f} (want < 0.10)",
    )


def test_criterion_7_end_to_end_recovery(two_term):
    model, plan = two_term
    session = RecoverySession(
        model, plan, np.linspace(-0.5, 0.5, 5), 48.0, subtract_mode="oracle"
    )
    good = 0
    worst = 0.0
    for seed in range(100):
        errs = session.run_seed(child_seed(107, seed, "accept")).errors()
        worst = max(worst, float(errs.max()))
        if errs.max() < 0.1:
            good += 1
    report(
        7, good >= 95,
        f"{good}/100 seeds recovered both terms within 0.1 on the 5-point grid "
        f"(worst error {worst:.3f})",
    )


def test_criterion_8_nonconvergence(profile):
    P0 = SymbolExpansion((HomogeneousTerm(0.0, parse_coeff("0.7")),))
    plain_model = MeasurementModel(P0, 0.5, 0.0, 1.0, profile)  # m = 0 < 2*beta
    plain = nonconvergence_experiment(
        plain_model, 1, "plain", 2.0, 6.0, np.geomspace(3, 8.485, 4), 1000, 108
    )
    Pm = SymbolExpansion((HomogeneousTerm(-0.5, parse_coeff("0.7")),))
    avg_model = MeasurementModel(Pm, 0.0, 0.0, 1.0, profile)  # m = 2*beta - 1/2
    averaged = nonconvergence_experiment(
        avg_model, 1, "averaged", 2.0, 1.5, np.geomspace(3, 24, 4), 1000, 109
    )
    ok = (
        plain.p_hat[-1] >= 0.9
        and plain.monotone_within_bands()
        and plain.matches_closed_form()
        and averaged.p_hat[-1] >= 0.9
        and averaged.monotone_within_bands()
        and averaged.matches_closed_form()
    )
    report(
        8, ok,
        f"plain deviation curve ends at {plain.p_hat[-1]:.3f}, averaged at "
        f"{averaged.p_hat[-1]:.3f}; both monotone and inside 3 Wilson half-widths "
        "of exp(-c^2/sigma^2)",
    )


def test_criterion_9_rate_certificate(two_term):
    model, plan = two_term
    surface = rate_certificate_experiment(
        model, plan, 1, [0.1, 0.05], [0.1],
        [4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0], trials=400, master_seed=110,
    )
    n0 = surface.certificate(0.1, 0.1).n0
    n0_half = surface.certificate(0.05, 0.1).n0
    idx = np.nonzero(surface.n_grid >= n0)[0]
    success_ok = bool(np.all(surface.success[idx, 0] >= 0.9))
    ok = success_ok and n0_half >= n0
    report(
        9, ok,
        f"N0(0.1, 0.1) = {n0:g} with success >= 0.9 at all larger scales; "
        f"N0(0.05, 0.1) = {n0_half:g} >= N0(0.1, 0.1)",
    )


def test_criterion_10_reproducibility(tmp_path):
    cfg = tmp_path / "repro.cfg"
    cfg.write_text(
        "beta = 0.0\n"
        "x0_grid = -0.5, 0.0, 0.5\n"
        "orders = 1.0, 0.0, -1.0\n"
        "scale = 8\n"
        "trials = 3\n"
        "seed = 2718\n"
        "symbol_count = 2\n"
        "symbol_1_order = 1.0\n"
        "symbol_1_coeff = 1 + 0.2*sin(x)\n"
        "symbol_2_order = 0.0\n"
        "symbol_2_coeff = 0.5 + 0.2*cos(x)\n"
    )
    payloads = []
    for name, workers in [("r1", 1), ("r2", 1), ("r4", 4)]:
        out = tmp_path / name
        code = cli_main(
            [
                "recover", "--config", str(cfg), "--out", str(out),
                "--workers", str(workers), "--quiet",
            ]
        )
        assert code == 0
        payloads.append((out / "recover_rows.csv").read_bytes())
    ok = payloads[0] == payloads[1] == payloads[2]
    report(
        10, ok,
        "recover CSV byte-identical across two runs and worker counts {1, 4}",
    )
