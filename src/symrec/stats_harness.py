"""Monte Carlo experiments for the quantitative noise laws.

Covers four families of checks:

* variance scaling of the plain estimator noise, t^(-2*lam*(m - 2*beta));
* variance scaling of the t-averaged noise, T^(2*lam*(2*beta - 1/2 - m) + 1),
  cross-checked against a direct continuum quadrature of the covariance
  double integral;
* non-convergence in the low-order regime, where the deviation probability
  follows the circular-Gaussian tail exp(-c^2 / sigma^2) and climbs to one;
* empirical rate certificates N0(eps, delta) with a fitted
  C * max(1/eps, (log 1/delta)^(1/theta)) surface, plus single-path
  trajectory checks inside shrinking tubes as a desk-scale surrogate for
  almost-sure convergence.

Every probability estimate carries a Wilson half-width and every pass/fail
rule uses bands, never raw point estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .measurement_recovery import MeasurementModel, OrderPlan, TermDesign
from .noise_engine import JapaneseBracketWeight, build_kernel, sample_path
from .rng import child_seed
from .wave_packets import WavePacketFamily

WILSON_Z = 1.0            # Wilson interval half-width in standard errors
BAND_Z_SLACK = 3.0        # Wilson half-widths a deviation curve may stray
TRAJECTORY_BURN_IN = 1    # leading scales the trajectory tube does not check


# ---------------------------------------------------------------------------
# Small statistical utilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopeRegression:
    x: np.ndarray
    y: np.ndarray
    slope: float
    intercept: float
    stderr: float

    @classmethod
    def fit(cls, x, y) -> "SlopeRegression":
        """Least squares with the slope's standard error, by the formulas of
        ``scipy.stats.linregress``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.size < 4:
            raise ConfigError("stats_harness: slope regression needs >= 4 points")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))) or np.ptp(x) == 0.0:
            raise NumericalError("stats_harness: regression data are degenerate")
        ssxm, ssxym, _, ssym = (float(v) for v in np.cov(x, y, bias=True).flat)
        slope = ssxym / ssxm
        intercept = float(np.mean(y)) - slope * float(np.mean(x))
        r = min(max(ssxym / math.sqrt(ssxm * ssym), -1.0), 1.0) if ssym > 0.0 else math.nan
        stderr = math.sqrt((1.0 - r * r) * ssym / ssxm / (x.size - 2))
        if not math.isfinite(stderr):
            raise NumericalError("stats_harness: regression stderr is not finite")
        return cls(x, y, slope, intercept, stderr)


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score center and half-width; well behaved near 0 and 1."""
    if n <= 0:
        raise ConfigError("stats_harness: Wilson interval needs n >= 1")
    z = WILSON_Z
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n))
    return center, half


def complex_variance(values: np.ndarray) -> float:
    values = np.asarray(values)
    mean = values.mean()
    return float(np.sum(np.abs(values - mean) ** 2) / (values.size - 1))


def _check_geometric(grid: np.ndarray, what: str) -> None:
    ratios = grid[1:] / grid[:-1]
    if np.any(np.abs(ratios - ratios[0]) > 1e-3 * ratios[0]):
        raise ConfigError(f"stats_harness: {what} grid must be geometric")


# ---------------------------------------------------------------------------
# Variance scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarianceScalingResult:
    grid: np.ndarray
    empirical_var: np.ndarray
    kernel_var: np.ndarray
    continuum_var: np.ndarray | None
    regression: SlopeRegression
    expected_slope: float


def continuum_average_variance(
    family: WavePacketFamily,
    beta: float,
    m: float,
    T: float,
    n_u: int = 48,
    n_v: int = 721,
) -> float:
    """Direct quadrature of the averaged-noise variance double integral.

    Integrates (1/T^2) * t^(-lam*m) s^(-lam*m) |(f_t|f_s)_beta|^2 over
    [T,2T]^2 in the coordinates u = t, v = (s^lam - t^lam)/T, where the
    correlation support is an order-one v-interval.
    """
    lam = family.lam
    prof = family.profile
    du = T / n_u
    u = T + (np.arange(n_u) + 0.5) * du
    v_max = 4.5
    dv = 2.0 * v_max / n_v
    v = -v_max + (np.arange(n_v) + 0.5) * dv

    s_pow = u[:, None] ** lam + T * v[None, :]
    valid = (s_pow >= T ** lam) & (s_pow <= (2.0 * T) ** lam)
    s = np.where(valid, s_pow, T ** lam) ** (1.0 / lam)

    # (u, v, eta) arrays hold 8.9 M points at the defaults: whatever depends
    # on (u, v) alone is formed on the plane and broadcast along eta.
    eta = prof.eta[None, None, :]
    chi_eta = prof.chi_hat_eta[None, None, :]
    arg = (s[:, :, None] * eta + (s_pow - u[:, None] ** lam)[:, :, None] * family.xi0) / u[
        :, None, None
    ]
    integrand = chi_eta * prof.chi_hat(arg)
    if beta != 0.0:  # the weight is identically 1 at beta = 0
        xi_abs = s[:, :, None] * eta + (s ** lam)[:, :, None] * family.xi0
        integrand *= JapaneseBracketWeight(beta)(xi_abs)
    deta = prof.eta[1] - prof.eta[0]
    ip = np.sqrt(s / u[:, None]) * np.sum(integrand, axis=2) * deta

    jac = T / (lam * s ** (lam - 1.0))
    f = np.where(valid, (u[:, None] * s) ** (-lam * m) * ip ** 2 * jac, 0.0)
    return float(np.sum(f) * du * dv / T ** 2)


def variance_scaling_experiment(
    family_template: WavePacketFamily,
    beta: float,
    m: float,
    target: str,
    grid,
    trials: int,
    master_seed: int = 0,
) -> VarianceScalingResult:
    """Empirical variance of the rescaled noise versus t (plain) or T
    (averaged), with the exact kernel value and, for the averaged target,
    the continuum quadrature as cross-checks."""
    grid = np.asarray(grid, dtype=float)
    if trials < 1000:
        raise ConfigError("stats_harness: variance scaling needs trials >= 1000")
    if grid.size < 4:
        raise ConfigError("stats_harness: variance scaling needs >= 4 grid points")
    _check_geometric(grid, "variance scaling")
    lam = family_template.lam
    if target not in ("plain", "averaged"):
        raise ConfigError("stats_harness: target must be plain or averaged")
    if target == "averaged" and not grid[0] > 2.0 ** (1.0 / (lam - 1.0)):
        raise ConfigError(
            "stats_harness: averaged target needs T > 2^(1/(lambda-1))"
        )

    empirical = np.empty(grid.size)
    kernel_var = np.empty(grid.size)
    continuum = np.empty(grid.size) if target == "averaged" else None
    key = "plain-variance" if target == "plain" else "avg-variance"
    for gi, g in enumerate(grid):
        design = TermDesign(family_template, beta, m, target, g)
        kernel_var[gi] = design.kernel.quad_form(design.weights)
        if continuum is not None:
            continuum[gi] = continuum_average_variance(family_template, beta, m, g)
        empirical[gi] = complex_variance(design.noise_batch(trials, master_seed, key, gi))
    if target == "plain":
        expected = -2.0 * lam * (m - 2.0 * beta)
    else:
        expected = 2.0 * lam * (2.0 * beta - 0.5 - m) + 1.0

    regression = SlopeRegression.fit(np.log(grid), np.log(empirical))
    return VarianceScalingResult(grid, empirical, kernel_var, continuum, regression, expected)


# ---------------------------------------------------------------------------
# Non-convergence (deviation probabilities)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationCurve:
    grid: np.ndarray
    threshold: float
    p_hat: np.ndarray
    half_width: np.ndarray
    sigma_sq: np.ndarray
    p_closed_form: np.ndarray
    det_offset: np.ndarray

    def monotone_within_bands(self) -> bool:
        for i in range(self.grid.size - 1):
            slack = BAND_Z_SLACK * (self.half_width[i] + self.half_width[i + 1])
            if self.p_hat[i + 1] < self.p_hat[i] - slack:
                return False
        return True

    def matches_closed_form(self) -> bool:
        return bool(
            np.all(np.abs(self.p_hat - self.p_closed_form) <= BAND_Z_SLACK * np.maximum(
                self.half_width, 1e-12
            ))
        )


def nonconvergence_experiment(
    model: MeasurementModel,
    j: int,
    mode: str,
    lam: float,
    threshold: float,
    grid,
    trials: int,
    master_seed: int = 0,
) -> DeviationCurve:
    """Deviation probabilities P{|estimate - a_j| > c} in the failure regime.

    Plain mode requires m_j <= 2*beta, averaged mode m_j <= 2*beta - 1/2;
    there the noise variance does not decay and the probability climbs
    toward one.  The closed-form circular-Gaussian law with the kernel
    variance is returned alongside the empirical curve.
    """
    grid = np.asarray(grid, dtype=float)
    if not 1 <= j <= len(model.observable.terms):
        raise ConfigError(f"stats_harness: term {j} is outside the symbol")
    m_j = model.observable.terms[j - 1].order
    if mode == "plain":
        if m_j > 2.0 * model.beta:
            raise ConfigError(
                "stats_harness: plain non-convergence needs m_j <= 2*beta"
            )
    elif mode == "averaged":
        if m_j > 2.0 * model.beta - 0.5:
            raise ConfigError(
                "stats_harness: averaged non-convergence needs m_j <= 2*beta - 1/2"
            )
    else:
        raise ConfigError("stats_harness: mode must be plain or averaged")

    family = model.family_for(lam)
    truth = model.truth(j).real

    p_hat = np.empty(grid.size)
    half = np.empty(grid.size)
    sigma_sq = np.empty(grid.size)
    det = np.empty(grid.size)
    for gi, g in enumerate(grid):
        design = TermDesign(family, model.beta, m_j, mode, g)
        base = design.estimate(design.signal(model.observable, j))
        det[gi] = abs(base - truth)
        sigma_sq[gi] = design.kernel.quad_form(design.weights)
        noise = design.noise_batch(trials, master_seed, "nonconv", gi)
        deviations = np.abs(base - truth + noise)
        successes = int(np.count_nonzero(deviations > threshold))
        center, hw = wilson_interval(successes, trials)
        p_hat[gi] = center
        half[gi] = hw

    p_closed = np.exp(-(threshold ** 2) / sigma_sq)
    return DeviationCurve(grid, threshold, p_hat, half, sigma_sq, p_closed, det)


# ---------------------------------------------------------------------------
# Rate certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateCertificate:
    eps: float
    delta: float
    n0: float
    c_emp: float
    theta_emp: float


@dataclass(frozen=True)
class RateSurface:
    n_grid: np.ndarray
    eps_list: tuple
    success: np.ndarray        # Wilson centers, shape (n_grid, eps)
    certificates: tuple
    c_emp: float
    theta_emp: float

    def certificate(self, eps: float, delta: float) -> RateCertificate:
        for cert in self.certificates:
            if cert.eps == eps and cert.delta == delta:
                return cert
        raise KeyError((eps, delta))


def _estimator_samples(
    model: MeasurementModel,
    plan: OrderPlan,
    j: int,
    N: float,
    trials: int,
    master_seed: int,
    purpose: str,
    noise: bool = True,
) -> np.ndarray:
    """Trials of the term-j estimator at scale N (oracle subtraction)."""
    design = TermDesign.for_term(model, plan, j, N, noise=noise)
    base = design.estimate(design.signal(model.observable, j))
    if not noise:
        return np.full(trials, base, dtype=complex)
    return base + design.noise_batch(trials, master_seed, purpose)


def rate_certificate_experiment(
    model: MeasurementModel,
    plan: OrderPlan,
    j: int,
    eps_list,
    delta_list,
    n_grid,
    trials: int,
    master_seed: int = 0,
    noise: bool = True,
) -> RateSurface:
    """Empirical N0(eps, delta) over a scale grid, with a fitted
    C * max(1/eps, (log 1/delta)^(1/theta)) surface.

    One sample set per N is shared across all (eps, delta) cells, which
    makes N0 monotone in eps by construction.  A cell fails when no grid
    point has all larger scales succeeding.
    """
    if not 1 <= j <= plan.k_beta:
        raise ConfigError(f"stats_harness: term {j} is outside 1..k_beta = {plan.k_beta}")
    n_grid = np.asarray(n_grid, dtype=float)
    eps_list = tuple(float(e) for e in eps_list)
    delta_list = tuple(float(d) for d in delta_list)
    min_delta = min(delta_list)
    if min_delta < 1.0 and trials < 20.0 / min_delta:
        raise ConfigError(
            f"stats_harness: rate experiment needs trials >= {20.0 / min_delta:.0f} "
            f"to resolve delta={min_delta}"
        )

    truth = model.truth(j).real
    errors = np.empty((n_grid.size, trials))
    for ni, N in enumerate(n_grid):
        samples = _estimator_samples(
            model, plan, j, N, trials, master_seed, f"rate-{ni}", noise=noise
        )
        errors[ni] = np.abs(samples - truth)

    certificates = []
    n0_values = {}
    success_tbl = np.empty((n_grid.size, len(eps_list)))
    for ei, eps in enumerate(eps_list):
        counts = np.count_nonzero(errors <= eps, axis=1)
        centers = np.array([wilson_interval(c, trials)[0] for c in counts])
        success_tbl[:, ei] = centers
        for delta in delta_list:
            # delta = 1 drops the probabilistic requirement but keeps the
            # eps-threshold binding: the event must actually occur.
            ok = (centers >= 1.0 - delta) & (counts >= 1)
            suffix_ok = np.logical_and.accumulate(ok[::-1])[::-1]
            hits = np.nonzero(suffix_ok)[0]
            if hits.size == 0:
                raise NumericalError(
                    f"stats_harness: no grid scale certifies eps={eps}, delta={delta}"
                )
            n0_values[(eps, delta)] = float(n_grid[hits[0]])

    c_emp, theta_emp = _fit_rate_surface(n0_values)
    for (eps, delta), n0 in n0_values.items():
        certificates.append(RateCertificate(eps, delta, n0, c_emp, theta_emp))
    return RateSurface(
        n_grid, eps_list, success_tbl, tuple(certificates), c_emp, theta_emp
    )


def _fit_rate_surface(n0_values: dict) -> tuple[float, float]:
    """Least-squares fit of log N0 = log C + log max(1/eps, (log 1/delta)^(1/theta))."""
    pairs = list(n0_values.items())
    log_n0 = np.log([v for _, v in pairs])
    best = None
    for theta in np.geomspace(0.2, 8.0, 161):
        preds = np.log(
            [
                max(1.0 / eps, math.log(1.0 / delta) ** (1.0 / theta))
                if delta < 1.0
                else 1.0 / eps
                for (eps, delta), _ in pairs
            ]
        )
        log_c = float(np.mean(log_n0 - preds))
        resid = float(np.sum((log_n0 - preds - log_c) ** 2))
        if best is None or resid < best[0]:
            best = (resid, math.exp(log_c), theta)
    return best[1], best[2]


# ---------------------------------------------------------------------------
# Single-path trajectory check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryResult:
    n_sequence: np.ndarray
    estimates: np.ndarray
    truth: float
    tube: np.ndarray
    theta: float
    burn_in: int
    passes: bool


def trajectory_as_convergence_check(
    model: MeasurementModel,
    plan: OrderPlan,
    j: int,
    n_sequence,
    seed: int = 0,
    noise: bool = True,
) -> TrajectoryResult:
    """One noise realization followed along a geometric scale sequence.

    The same white noise drives every scale: all nodes are sampled as one
    joint path.  Passes when |estimate(N) - a_j| <= N^(-theta) for every N
    after the first ``TRAJECTORY_BURN_IN``, with theta half the decay rate
    of the estimator's standard deviation.
    """
    n_sequence = np.asarray(n_sequence, dtype=float)
    _check_geometric(n_sequence, "trajectory")
    lam = plan.lam(j)
    m_j = plan.m_list[j - 1]
    beta = plan.beta
    if plan.mode(j) == "plain":
        rate = lam * (m_j - 2.0 * beta)
    else:
        rate = lam * (m_j + 0.5 - 2.0 * beta) - 0.5
    if rate <= 0.0:
        raise ConfigError(
            "stats_harness: trajectory tube rate is not positive; "
            "term is outside the recoverable regime"
        )
    theta = 0.5 * rate

    designs = [TermDesign.for_term(model, plan, j, N, noise=False) for N in n_sequence]
    all_nodes = np.unique(np.concatenate([d.nodes for d in designs]))
    noise_by_node = {}
    if noise:
        kernel = build_kernel(model.family_for(lam), all_nodes, model.beta)
        path = sample_path(kernel, child_seed(seed, "trajectory", j))
        noise_by_node = dict(zip(all_nodes.tolist(), path))

    truth = model.truth(j).real
    estimates = np.empty(n_sequence.size, dtype=complex)
    for ni, design in enumerate(designs):
        values = design.signal(model.observable, j)
        if noise:
            values = values + np.array([noise_by_node[t] for t in design.nodes.tolist()])
        estimates[ni] = design.estimate(values)

    tube = n_sequence ** (-theta)
    deviations = np.abs(estimates - truth)
    burn_in = TRAJECTORY_BURN_IN
    passes = bool(np.all(deviations[burn_in:] <= tube[burn_in:]))
    return TrajectoryResult(
        n_sequence, estimates, truth, tube, float(theta), burn_in, passes
    )
