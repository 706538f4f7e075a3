"""Noisy measurements and the recursive estimators.

A measurement of the observable P against a packet pair is the quadratic
form (f_t|P f_t) plus one error sample.  Term j is recovered from the
rescaled measurement after subtracting the quadratic forms of the terms
already known:

  plain     value = N^(-lam_j m_j) [ N(f_N, f_N) - sum_{k<j} (f_N|Q_k f_N) ]
  averaged  value = (1/N) integral_N^{2N} of the same integrand in t,

with the averaged mode discretized by a midpoint rule whose node count
resolves the decorrelation scale of the packet overlaps (spacing in the
rescaled separation variable (s^lam - t^lam)/N stays below 1/resolution).
The noise over the nodes of one average is a single jointly sampled path;
that correlation is what makes the averaging effective.

Self-subtraction replaces Q_k by the term recovered from the estimates v
on the x0 grid: a not-a-knot cubic spline through v, clipped in x only.
Such a spline is linear in v, and the quadratic form is linear in the
coefficient, so (f_t|Q_k f_t) = v @ B with B the forms of the cardinal
splines (data e_l).  A recovery session integrates B once; its trials
subtract with one product each and no quadrature.  ``TabulatedCoeff``
integrates through power moments per grid interval, so building B costs
about one scalar form per base point, whatever the grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import ConfigError, NumericalError
from .noise_engine import build_kernel, sample_functional, sample_path
from .rng import child_seed, complex_normal_dot, rng_for
from .symbols import HomogeneousTerm, Observable, packet_quadratic_form
from .wave_packets import PacketProfile, WavePacketFamily

AVERAGE_RESOLUTION = 4.0
MIN_AVERAGE_NODES = 64
MAX_AVERAGE_NODES = 32768


@dataclass(frozen=True)
class MeasurementModel:
    """Ground truth observable plus the measurement setting."""

    observable: Observable
    beta: float
    x0: float
    xi0: float
    profile: PacketProfile

    def family_for(self, lam: float, x0: float | None = None) -> WavePacketFamily:
        return WavePacketFamily(
            self.x0 if x0 is None else float(x0), self.xi0, float(lam), self.profile
        )

    def truth(self, j: int, x0: float | None = None) -> complex:
        term = self.observable.terms[j - 1]
        return complex(term.eval(self.x0 if x0 is None else x0, self.xi0))


@dataclass(frozen=True)
class OrderPlan:
    """Recovery plan: mode split and packet growth rates per term.

    j_beta counts the plainly recoverable terms, k_beta the recoverable
    ones in total; orders below index k_beta are out of reach.
    """

    m_list: tuple
    beta: float
    j_beta: int
    k_beta: int
    lambdas: tuple
    modes: tuple

    def mode(self, j: int) -> str:
        return self.modes[j - 1]

    def lam(self, j: int) -> float:
        return self.lambdas[j - 1]


def plan_orders(
    m_list,
    beta: float,
    averaged_margin: float = 0.5,
    plain_margin: float = 0.0,
    lambda_overrides: dict | None = None,
) -> OrderPlan:
    """Indices, modes, and lambda choices for the recovery recursion.

    The bound for the last averaged term is strict, realized as bound
    plus ``averaged_margin``.  The bound for the last plain term admits
    equality and is taken at the bound unless ``plain_margin`` is set.
    """
    m = [float(v) for v in m_list]
    if any(b >= a for a, b in zip(m, m[1:])):
        raise ConfigError("measurement_recovery: orders must be strictly decreasing")
    if not m or m[0] <= 2.0 * beta - 0.5:
        raise ConfigError(
            "measurement_recovery: leading order must exceed 2*beta - 1/2"
        )

    k_beta = None
    for j in range(1, len(m)):
        if m[j] <= 2.0 * beta - 0.5:
            k_beta = j
            break
    if k_beta is None:
        raise ConfigError(
            "measurement_recovery: configured orders never drop to "
            "2*beta - 1/2, so the plan cannot terminate; extend the list"
        )

    j_beta = 0 if m[0] <= 2.0 * beta else None
    if j_beta is None:
        for j in range(1, len(m)):
            if m[j] <= 2.0 * beta:
                j_beta = j
                break

    lambdas = []
    modes = []
    for j in range(1, k_beta + 1):
        if j == j_beta:
            lam = max(1.0 / (m[j - 1] - 2.0 * beta), 2.0) + plain_margin
        elif j == k_beta:
            lam = max(1.0 / (m[j - 1] - 2.0 * beta + 0.5), 2.0) + averaged_margin
        else:
            lam = max(1.0 / (m[j - 1] - m[j]), 2.0)
        if lambda_overrides and j in lambda_overrides:
            lam = float(lambda_overrides[j])
        if lam <= 1.0:
            raise ConfigError("measurement_recovery: lambda overrides must exceed 1")
        lambdas.append(lam)
        modes.append("plain" if j <= j_beta else "averaged")

    return OrderPlan(tuple(m), float(beta), j_beta, k_beta, tuple(lambdas), tuple(modes))


def adaptive_average_nodes(
    N: float, lam: float, resolution: float = AVERAGE_RESOLUTION
) -> int:
    """Midpoint node count for the t-average on [N, 2N].

    Packet overlaps decorrelate once (s^lam - t^lam)/N moves by order one;
    the grid keeps ``resolution`` nodes per unit of that variable.
    """
    needed = math.ceil(resolution * lam * (2.0 * N) ** (lam - 1.0))
    k = max(MIN_AVERAGE_NODES, needed)
    if k > MAX_AVERAGE_NODES:
        raise NumericalError(
            f"measurement_recovery: average needs {k} nodes at N={N:g}, "
            f"above the cap {MAX_AVERAGE_NODES}; reduce N or lambda"
        )
    return int(k)


def average_grid(N: float, n_nodes: int) -> np.ndarray:
    """Midpoints of [N, 2N] with n_nodes cells."""
    return N + (np.arange(n_nodes) + 0.5) * (N / n_nodes)


class TermDesign:
    """The estimator of one term at one scale, shared by every recipe.

    Plain mode measures at the single node N, averaged mode at the midpoint
    grid on [N, 2N]; the weights N^(-lam m) / K rescale and average.  The
    signal is (f_t|P f_t) - sum_k (f_t|Q_k f_t) over the nodes, and the
    noise one joint path L z from ``kernel`` (None when the noise is off).
    An estimate is sum w (s + L z) = w @ s + u @ z with u = L^T w, so every
    trial draws z and contracts it with u (``noise``, ``noise_batch``);
    the full path (``noise_path``) is formed only where it is plotted.
    """

    def __init__(
        self,
        family: WavePacketFamily,
        beta: float,
        m: float,
        mode: str,
        N: float,
        n_nodes: int | None = None,
        noise: bool = True,
    ):
        N = float(N)
        if mode == "plain":
            nodes = np.array([N])
        else:
            k = n_nodes or adaptive_average_nodes(N, family.lam)
            if k < 2:
                raise ConfigError("measurement_recovery: averaged mode needs >= 2 nodes")
            nodes = average_grid(N, k)
        self.family = family
        self.nodes = nodes
        self.weights = nodes ** (-family.lam * m) / nodes.size
        self.kernel = build_kernel(family, nodes, beta) if noise else None

    @classmethod
    def for_term(
        cls,
        model: MeasurementModel,
        plan: OrderPlan,
        j: int,
        N: float,
        n_nodes: int | None = None,
        noise: bool = True,
        x0: float | None = None,
    ) -> "TermDesign":
        return cls(
            model.family_for(plan.lam(j), x0), model.beta, plan.m_list[j - 1],
            plan.mode(j), N, n_nodes, noise,
        )

    def form(self, P, x0=None) -> np.ndarray:
        """(f_t|P f_t) over the nodes, with the packets moved to x0 (an
        array x0 adds a leading base-point axis)."""
        return packet_quadratic_form(self.family, self.nodes, P, x0)

    def form_and_signal(self, observable: Observable, j: int, x0=None) -> tuple:
        """(f_t|P f_t) and the oracle-subtracted signal of term j, that form
        minus the forms of terms 1..j-1 in order.  Each term is integrated
        once and serves both."""
        per_term = [self.form(term, x0) for term in observable.terms]
        form = sum(per_term, 0j)
        signal = form
        for part in per_term[: j - 1]:
            signal = signal - part
        return form, signal

    def signal(self, observable: Observable, j: int, x0: float | None = None) -> np.ndarray:
        """The oracle-subtracted signal of term j."""
        return self.form_and_signal(observable, j, x0)[1]

    @cached_property
    def noise_weights(self) -> np.ndarray:
        """u = L^T w, which turns a white draw z into the estimate's noise."""
        return self.kernel.apply_factor_transpose(self.weights)

    def noise_path(self, seed: int) -> np.ndarray:
        """One joint draw over the nodes; zeros when the noise is off."""
        if self.kernel is None:
            return np.zeros(self.nodes.size, dtype=complex)
        return sample_path(self.kernel, seed).values

    def noise(self, seed: int) -> complex:
        """The estimate's noise u @ z, with z the draw of ``noise_path(seed)``;
        zero when the noise is off."""
        if self.kernel is None:
            return 0j
        return sample_functional(self.noise_weights, seed)

    def estimate(self, values: np.ndarray) -> complex:
        """sum_t w_t values_t for one path of signal plus noise."""
        return complex(np.sum(self.weights * values))

    def noise_batch(self, trials: int, master_seed: int, *key) -> np.ndarray:
        """u @ z for each trial, z keyed by (master_seed, trial, *key)."""
        u = self.noise_weights
        return np.array([
            complex_normal_dot(rng_for(master_seed, trial, *key), u)
            for trial in range(trials)
        ], dtype=complex)


def measure(
    model: MeasurementModel,
    t: float,
    lam: float,
    j: int,
    noise_value: complex = 0.0,
    x0: float | None = None,
) -> complex:
    """One measurement of P_j = P - sum_{k<j} Q_k at packet scale t."""
    design = TermDesign(model.family_for(lam, x0), model.beta, 0.0, "plain", t, noise=False)
    return complex(design.signal(model.observable, j)[0] + noise_value)


def _require_mode(plan: OrderPlan, j: int, expected: str, op: str) -> None:
    if j < 1 or j > plan.k_beta:
        raise ConfigError(f"measurement_recovery: {op}: term index {j} outside plan")
    if plan.mode(j) != expected:
        raise ConfigError(
            f"measurement_recovery: {op}: term {j} is {plan.mode(j)}-mode, "
            f"not {expected} (j_beta={plan.j_beta}, k_beta={plan.k_beta})"
        )


def _single_estimate(model, plan, j, N, n_nodes, seed, noise, x0, tag) -> complex:
    design = TermDesign.for_term(model, plan, j, N, n_nodes, noise, x0)
    signal = design.signal(model.observable, j)
    return design.estimate(signal) + design.noise(child_seed(seed, tag, j))


def plain_estimate(
    model: MeasurementModel,
    plan: OrderPlan,
    j: int,
    N: float,
    seed: int = 0,
    noise: bool = True,
    x0: float | None = None,
) -> complex:
    """Single-packet estimator for a plain-mode term."""
    _require_mode(plan, j, "plain", "plain_estimate")
    return _single_estimate(model, plan, j, N, None, seed, noise, x0, "plain")


def averaged_estimate(
    model: MeasurementModel,
    plan: OrderPlan,
    j: int,
    N: float,
    n_nodes: int | None = None,
    seed: int = 0,
    noise: bool = True,
    x0: float | None = None,
) -> complex:
    """Ergodic-averaged estimator for an averaged-mode term."""
    _require_mode(plan, j, "averaged", "averaged_estimate")
    return _single_estimate(model, plan, j, N, n_nodes, seed, noise, x0, "avg")


# ---------------------------------------------------------------------------
# Full recovery pipeline
# ---------------------------------------------------------------------------


class TabulatedCoeff:
    """Reconstructed coefficient: cubic interpolation through the recovered
    values on the x0 grid, held constant beyond the grid hull (the packet
    envelope carries negligible mass there)."""

    is_constant = False

    def __init__(self, x_grid: np.ndarray, values: np.ndarray):
        order = np.argsort(x_grid)
        self._lo = float(x_grid[order[0]])
        self._hi = float(x_grid[order[-1]])
        self._spline = CubicSpline(np.asarray(x_grid)[order], np.asarray(values)[order])

    def __call__(self, x):
        return self._spline(np.clip(np.asarray(x, dtype=float), self._lo, self._hi))

    def integrate(self, x, weights) -> np.ndarray:
        """sum_y weights[y, k] * c(x[y, k]) for (y, k) arrays, with the data's
        trailing axes before k.  The spline is a cubic in d = x - x_m on each
        grid interval m, so this is the weights' moments sum_y w d^q per
        (interval, k) times the spline's coefficients: its cost does not
        grow with the trailing axes, as that of evaluating c(x) does."""
        breaks, coefs = self._spline.x, self._spline.c   # coefs[3 - q] goes with d^q
        x = np.clip(np.asarray(x, dtype=float), self._lo, self._hi)
        m = np.clip(np.searchsorted(breaks, x, side="right") - 1, 0, breaks.size - 2)
        d = x - breaks[m]
        n_k = x.shape[1]
        bins = (m * n_k + np.arange(n_k)).ravel()
        size = (breaks.size - 1) * n_k
        moments = np.empty((4, breaks.size - 1, n_k), dtype=complex)
        w = np.asarray(weights, dtype=complex)
        for q in range(4):
            if q:
                w = w * d
            moments[q] = (
                np.bincount(bins, w.real.ravel(), size)
                + 1j * np.bincount(bins, w.imag.ravel(), size)
            ).reshape(-1, n_k)
        return np.tensordot(coefs[::-1], moments, axes=([0, 1], [0, 1]))


@dataclass(frozen=True)
class RecoveryRow:
    term_index: int
    x0: float
    xi0: float
    mode: str
    subtract: str
    lam: float
    scale: float
    estimate: complex
    truth: float
    abs_error: float
    seed: int


@dataclass
class EstimatorReport:
    """Per-term recovery results plus plot-ready trajectories."""

    plan: OrderPlan
    rows: list
    trajectories: dict = field(default_factory=dict)
    alerts: list = field(default_factory=list)

    def errors(self, subtract: str = "oracle") -> np.ndarray:
        return np.array([r.abs_error for r in self.rows if r.subtract == subtract])


class RecoverySession:
    """Precomputed signals and kernels for repeated recovery trials.

    Signals are deterministic per (term, grid point); trials only redraw
    noise, so one session serves any number of seeds.
    """

    def __init__(
        self,
        model: MeasurementModel,
        plan: OrderPlan,
        x0_grid,
        N: float,
        subtract_mode: str = "oracle",
        n_nodes: int | None = None,
        alert_threshold: float = 0.5,
        noise: bool = True,
    ):
        if subtract_mode not in ("oracle", "self", "both"):
            raise ConfigError(
                "measurement_recovery: subtract mode must be oracle, self, or both"
            )
        if len(model.observable.terms) < plan.k_beta:
            raise ConfigError(
                "measurement_recovery: observable has fewer terms than the plan"
            )
        self.model = model
        self.plan = plan
        self.x0_grid = np.asarray(x0_grid, dtype=float)
        if subtract_mode in ("self", "both") and self.x0_grid.size < 4:
            raise ConfigError(
                "measurement_recovery: self-subtraction needs an x0 grid dense "
                "enough for interpolation (>= 4 points)"
            )
        self.N = float(N)
        self.subtract_mode = subtract_mode
        self.alert_threshold = float(alert_threshold)

        # Per (term j, grid point i): the form (f_t|P f_t), which
        # self-subtraction starts from, and the oracle-subtracted signal.
        # Per earlier term k as well: the cardinal forms B[j, i, k], whose row
        # l is the form of term k recovered with the values e_l on the grid.
        self.designs = {}
        self.forms = {}
        self.oracle_signals = {}
        self.cardinal_forms = {}
        # B takes n_x0^2 x nodes complex values per (j, k): 0.4 GB at 50 grid
        # points with 9.4k averaged nodes.
        cardinals = np.eye(self.x0_grid.size)
        for j in range(1, plan.k_beta + 1):
            design = TermDesign.for_term(model, plan, j, self.N, n_nodes, noise)
            self.designs[j] = design
            forms, signals = design.form_and_signal(model.observable, j, self.x0_grid)
            cards = {
                k: design.form(self.recovered_term(k, cardinals), self.x0_grid)
                for k in range(1, j)
                if subtract_mode != "oracle"
            }
            for i in range(self.x0_grid.size):
                self.forms[(j, i)] = forms[i]
                self.oracle_signals[(j, i)] = signals[i]
                for k, B in cards.items():
                    self.cardinal_forms[(j, i, k)] = B[i]

    def recovered_term(self, k: int, values: np.ndarray) -> HomogeneousTerm:
        """Term k with the coefficient interpolated through ``values`` on the
        x0 grid (a trailing axis of ``values`` makes it vector-valued)."""
        # Extend by homogeneity on the measured side of the sphere; the
        # opposite side never meets a packet window.
        side = {"h_plus": 1.0, "h_minus": 0.0} if self.model.xi0 > 0 else {
            "h_plus": 0.0,
            "h_minus": 1.0,
        }
        return HomogeneousTerm(
            order=self.plan.m_list[k - 1],
            coefficient=TabulatedCoeff(self.x0_grid, values),
            **side,
        )

    def run_seed(self, seed: int, trajectories: bool = True) -> EstimatorReport:
        """One trial: fresh noise on every signal, the estimate and its error
        per (subtraction, term, grid point).  With ``trajectories`` the
        report also keeps each estimate's per-node contributions, whose
        noise is the full path L z of the same draw z; the estimates take
        only u @ z either way."""
        report = EstimatorReport(self.plan, [])
        modes = ("oracle", "self") if self.subtract_mode == "both" else (self.subtract_mode,)
        noise_seeds = {
            (j, i): child_seed(seed, "recover", j, i)
            for j in self.designs
            for i in range(self.x0_grid.size)
        }
        noise = {key: self.designs[key[0]].noise(s) for key, s in noise_seeds.items()}
        paths = {
            key: self.designs[key[0]].noise_path(s) for key, s in noise_seeds.items()
            if trajectories
        }

        for subtract in modes:
            recovered = []
            for j, design in self.designs.items():
                estimates = np.empty(self.x0_grid.size, dtype=complex)
                for i, x0 in enumerate(self.x0_grid):
                    if subtract == "oracle":
                        signal = self.oracle_signals[(j, i)]
                    else:
                        signal = self.forms[(j, i)]
                        for k, prior in enumerate(recovered, start=1):
                            signal = signal - prior @ self.cardinal_forms[(j, i, k)]
                    estimates[i] = design.estimate(signal) + noise[(j, i)]
                    truth = float(self.model.truth(j, x0).real)
                    err = float(abs(estimates[i] - truth))
                    report.rows.append(
                        RecoveryRow(
                            term_index=j,
                            x0=float(x0),
                            xi0=self.model.xi0,
                            mode=self.plan.mode(j),
                            subtract=subtract,
                            lam=self.plan.lam(j),
                            scale=self.N,
                            estimate=complex(estimates[i]),
                            truth=truth,
                            abs_error=err,
                            seed=int(seed),
                        )
                    )
                    if err > self.alert_threshold:
                        report.alerts.append((subtract, j, float(x0), err))
                    if trajectories:
                        report.trajectories[(subtract, j, float(x0))] = (
                            design.nodes,
                            design.weights * (signal + paths[(j, i)]) * design.nodes.size,
                        )
                recovered.append(estimates)
        return report


def recover_expansion(
    model: MeasurementModel,
    plan: OrderPlan,
    x0_grid,
    xi0: float,
    N: float,
    subtract_mode: str = "oracle",
    seed: int = 0,
    n_nodes: int | None = None,
    noise: bool = True,
    alert_threshold: float = 0.5,
) -> EstimatorReport:
    """Recover a_1 .. a_{k_beta} on a grid of base points for one trial."""
    if xi0 != model.xi0:
        model = MeasurementModel(
            model.observable, model.beta, model.x0, float(xi0), model.profile
        )
    session = RecoverySession(
        model, plan, x0_grid, N, subtract_mode, n_nodes, alert_threshold, noise
    )
    return session.run_seed(seed)
