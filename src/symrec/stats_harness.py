"""Monte Carlo experiments for the quantitative noise laws.

Covers four families of checks:

* variance scaling of the plain estimator noise, t^(-2*lam*(m - 2*beta));
* variance scaling of the t-averaged noise, T^(2*lam*(2*beta - 1/2 - m) + 1),
  cross-checked against a direct continuum quadrature of the covariance
  double integral;
* non-convergence in the low-order regime, where the deviation probability
  follows the circular-Gaussian tail exp(-c^2 / sigma^2) and climbs to one;
* empirical rate certificates N0(eps, delta) with a fitted
  C * max(1/eps, (log 1/delta)^(1/theta)) surface.

Every probability estimate carries a Wilson half-width and every pass/fail
rule uses bands, never raw point estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .measurement_recovery import MeasurementModel, OrderPlan, TermDesign
from .noise_engine import JapaneseBracketWeight
from .rng import stream_keys
from .wave_packets import WavePacketFamily, block_rows

WILSON_Z = 1.0            # Wilson interval half-width in standard errors
BAND_Z_SLACK = 3.0        # Wilson half-widths a deviation curve may stray
CONTINUUM_N_U = 48        # continuum quadrature points in u = t over [T, 2T]
CONTINUUM_N_V = 721       # ... and in v = (s^lam - t^lam)/T over [-4.5, 4.5]


# ---------------------------------------------------------------------------
# Small statistical utilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopeRegression:
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
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise NumericalError("stats_harness: regression data are degenerate")
        if np.ptp(x) == 0.0:  # x is the configured grid, so the config is at fault
            raise ConfigError("stats_harness: regression needs a grid of distinct values")
        ssxm, ssxym, _, ssym = (float(v) for v in np.cov(x, y, bias=True).flat)
        slope = ssxym / ssxm
        intercept = float(np.mean(y)) - slope * float(np.mean(x))
        r = min(max(ssxym / math.sqrt(ssxm * ssym), -1.0), 1.0) if ssym > 0.0 else math.nan
        stderr = math.sqrt((1.0 - r * r) * ssym / ssxm / (x.size - 2))
        if not math.isfinite(stderr):
            raise NumericalError("stats_harness: regression stderr is not finite")
        return cls(slope, intercept, stderr)


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


def ks_2samp_pvalue(data1, data2) -> float:
    """Two-sided p-value of the two-sample Kolmogorov-Smirnov test for two
    samples of equal size n, always by the exact law of D_{n,n}: the
    formulas of ``scipy.stats.ks_2samp``'s exact method (its
    ``_compute_prob_outside_square``), so it equals that method bit for bit.
    Where rounding lifts the exact sum above 1 (D of a few / n, p about 1),
    scipy falls back to its asymptotic formula; this clips to 1."""
    data1 = np.sort(data1)
    data2 = np.sort(data2)
    n = data1.shape[0]
    if n == 0 or data2.shape[0] != n:
        raise ConfigError("stats_harness: KS test needs two non-empty samples of equal size")
    # D n, the largest gap between the two empirical counts, is an integer
    data_all = np.concatenate([data1, data2])
    gaps = (np.searchsorted(data1, data_all, side="right")
            - np.searchsorted(data2, data_all, side="right"))
    h = int(np.abs(gaps).max())
    if h == 0:
        return 1.0
    # P(D >= h/n) = 2 (A_0 - A_0 A_1 + A_0 A_1 A_2 - ...), A_k a ratio of h
    # factors, summed in Horner form from the innermost term out
    p = 0.0
    for k in range(n // h, -1, -1):
        a = 1.0
        for j in range(h):
            a = (n - k * h - j) * a / (n + k * h + j + 1)
        p = a * (1.0 - p)
    return min(max(2.0 * p, 0.0), 1.0)


def complex_variance(values: np.ndarray) -> float:
    values = np.asarray(values)
    mean = values.mean()
    return float(np.sum(np.abs(values - mean) ** 2) / (values.size - 1))


def _check_geometric(grid: np.ndarray, what: str) -> None:
    ratios = grid[1:] / grid[:-1]
    if np.any(np.abs(ratios - ratios[0]) > 1e-3 * ratios[0]):
        raise ConfigError(f"stats_harness: {what} grid must be geometric")
    if ratios[0] == 1.0:
        raise ConfigError(f"stats_harness: {what} grid needs a ratio other than 1")


def _check_increasing(grid: np.ndarray, what: str) -> None:
    """A grid read as a scale sequence (its last point the largest scale)."""
    if np.any(np.diff(grid) <= 0.0):
        raise ConfigError(f"stats_harness: {what} grid must be strictly increasing")


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
    family: WavePacketFamily, beta: float, m: float, T: float
) -> float:
    """Direct quadrature of the averaged-noise variance double integral.

    Integrates (1/T^2) * t^(-lam*m) s^(-lam*m) |(f_t|f_s)_beta|^2 over
    [T,2T]^2 in the coordinates u = t, v = (s^lam - t^lam)/T, where the
    correlation support is an order-one v-interval, by the midpoint rule on
    ``CONTINUUM_N_U`` x ``CONTINUUM_N_V`` points.
    """
    n_u, n_v = CONTINUUM_N_U, CONTINUUM_N_V
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

    # The (u, v, eta) points number 8.9 M at the defaults: whatever depends
    # on (u, v) alone is formed on the plane, and the eta sums run over
    # slabs of as many (u, v) points as fit ``BLOCK_ENTRIES`` eta entries
    # (256 on the 256-point eta grid), so no (u, v, eta) array outgrows one
    # slab, whatever the grid.
    shift = (s_pow - u[:, None] ** lam) * family.xi0
    if beta != 0.0:  # the weight is identically 1 at beta = 0
        weight = JapaneseBracketWeight(beta)
        center = ((s ** lam) * family.xi0).ravel()
    points_s, points_u, shift = s.ravel(), np.repeat(u, n_v), shift.ravel()
    eta_sum = np.empty(s.size)
    slab = block_rows(prof.eta.size)
    for lo in range(0, s.size, slab):
        pts = slice(lo, lo + slab)
        s_eta = points_s[pts, None] * prof.eta
        arg = s_eta + shift[pts, None]
        arg /= points_u[pts, None]
        integrand = prof.chi_hat(arg)
        del arg
        integrand *= prof.chi_hat_eta
        if beta != 0.0:
            s_eta += center[pts, None]
            integrand *= weight(s_eta)
        del s_eta
        eta_sum[pts] = np.sum(integrand, axis=1)
        del integrand
    eta_sum = eta_sum.reshape(s.shape)
    deta = prof.eta[1] - prof.eta[0]
    ip = np.sqrt(s / u[:, None]) * eta_sum * deta

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

    key = "plain-variance" if target == "plain" else "avg-variance"

    def point(gi):
        """The empirical, kernel and continuum (NaN for plain) variances at
        grid[gi]; the design, its kernel and factor die with the call.  The
        draws come after the quadratures, so no factor is alive through them."""
        design = TermDesign(family_template, beta, m, target, grid[gi])
        kernel_var = design.kernel.quad_form(design.weights)
        continuum = (
            continuum_average_variance(family_template, beta, m, grid[gi])
            if target == "averaged" else math.nan
        )
        noise = design.keyed_noise(stream_keys(master_seed, np.arange(trials), key, gi))
        return complex_variance(noise), kernel_var, continuum

    empirical, kernel_var, continuum = np.array([point(gi) for gi in range(grid.size)]).T
    if target == "plain":
        expected = -2.0 * lam * (m - 2.0 * beta)
        continuum = None
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
    _check_increasing(grid, "non-convergence")
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

    def point(gi):
        """Wilson center and half-width of P{deviation > threshold}, the noise
        variance and the noise-free deviation at grid[gi]; the design dies
        with the call."""
        design = TermDesign(family, model.beta, m_j, mode, grid[gi])
        signal = sum(design.forms(model.observable.terms[j - 1 :]), 0j)
        offset = design.estimate(signal) - truth
        sigma_sq = design.kernel.quad_form(design.weights)
        noise = design.keyed_noise(stream_keys(master_seed, np.arange(trials), "nonconv", gi))
        successes = int(np.count_nonzero(np.abs(offset + noise) > threshold))
        return (*wilson_interval(successes, trials), sigma_sq, abs(offset))

    p_hat, half, sigma_sq, det = np.array([point(gi) for gi in range(grid.size)]).T
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


@dataclass(frozen=True)
class RateSurface:
    n_grid: np.ndarray
    eps_list: tuple
    success: np.ndarray        # Wilson centers, shape (n_grid, eps)
    certificates: tuple
    c_emp: float
    theta_emp: float


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
    _check_increasing(n_grid, "rate")
    eps_list = tuple(float(e) for e in eps_list)
    delta_list = tuple(float(d) for d in delta_list)
    min_delta = min(delta_list)
    if min_delta < 1.0 and trials < 20.0 / min_delta:
        raise ConfigError(
            f"stats_harness: rate experiment needs trials >= {20.0 / min_delta:.0f} "
            f"to resolve delta={min_delta}"
        )

    truth = model.truth(j).real

    def point(ni):
        """|estimate - a_j| of every trial at n_grid[ni]; the design dies with
        the call."""
        design = TermDesign.for_term(model, plan, j, n_grid[ni], noise=noise)
        base = design.estimate(sum(design.forms(model.observable.terms[j - 1 :]), 0j))
        draws = design.keyed_noise(stream_keys(master_seed, np.arange(trials), f"rate-{ni}"))
        return np.abs(base + draws - truth)

    errors = np.array([point(ni) for ni in range(n_grid.size)])

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
    certificates = tuple(
        RateCertificate(eps, delta, n0) for (eps, delta), n0 in n0_values.items()
    )
    return RateSurface(n_grid, eps_list, success_tbl, certificates, c_emp, theta_emp)


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
