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
coefficient, so the weighted subtraction w @ (f_t|Q_k f_t) is BW @ v, with
BW = B @ w and B the forms of the cardinal splines (data e_l).  BW holds
n_x0 x n_x0 numbers per (j, k), a row per base point, where B holds n_x0
node-length forms per row.  A recovery session builds BW once,
without B, in one bucketed moment pass over the nodes
(``spline_form_sums``); its trials subtract with one product each and no
quadrature.  Only the plotted trajectory (subtract = self, at x0_grid[0])
needs node-length forms: those of the terms recovered in that trial,
evaluated pointwise like any other coefficient.

A session's trials (``RecoverySession.run_trials``) take their noise from
one batch per design, whose stream keys for every (trial, grid point) pair
are derived in one call; each trial (``run_seed``) takes its own entry,
and only the first keeps its trajectories, one per term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import splines
from .errors import ConfigError, NumericalError
from .noise_engine import build_kernel, sample_path
from .parallel import parallel_map
from .rng import child_seed, child_seeds, complex_normal_dot, keyed_streams, stream_keys
from .symbols import (
    HomogeneousTerm, SymbolExpansion, packet_quadratic_form, spectral_transform,
)
from .wave_packets import PacketProfile, WavePacketFamily, block_rows

AVERAGE_RESOLUTION = 4.0
MIN_AVERAGE_NODES = 64
MAX_AVERAGE_NODES = 32768


@dataclass(frozen=True)
class MeasurementModel:
    """Ground truth observable plus the measurement setting."""

    observable: SymbolExpansion
    beta: float
    x0: float
    xi0: float
    profile: PacketProfile

    def family_for(self, lam: float) -> WavePacketFamily:
        return WavePacketFamily(self.x0, self.xi0, float(lam), self.profile)

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

    return OrderPlan(tuple(m), j_beta, k_beta, tuple(lambdas), tuple(modes))


def adaptive_average_nodes(N: float, lam: float) -> int:
    """Midpoint node count for the t-average on [N, 2N].

    Packet overlaps decorrelate once (s^lam - t^lam)/N moves by order one;
    the grid keeps ``AVERAGE_RESOLUTION`` nodes per unit of that variable.
    """
    needed = math.ceil(AVERAGE_RESOLUTION * lam * (2.0 * N) ** (lam - 1.0))
    return int(max(MIN_AVERAGE_NODES, needed))


def average_grid(N: float, n_nodes: int) -> np.ndarray:
    """Midpoints of [N, 2N] with n_nodes cells."""
    return N + (np.arange(n_nodes) + 0.5) * (N / n_nodes)


class TermDesign:
    """The estimator of one term at one scale, shared by every recipe.

    Plain mode measures at the single node N, averaged mode at the midpoint
    grid on [N, 2N]; the weights N^(-lam m) / K rescale and average.  The
    signal is (f_t|P f_t) - sum_k (f_t|Q_k f_t) over the nodes, summed by
    the caller from the per-term ``forms``, and the noise one joint path
    L z from ``kernel`` (None when the noise is off).  An estimate is
    sum w (s + L z) = w @ s + u @ z with u = L^T w, so every trial draws z
    and contracts it with u (``keyed_noise``); the full path
    (``noise_engine.sample_path``) is formed only where it is plotted.
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
            if k > MAX_AVERAGE_NODES:
                raise NumericalError(
                    f"measurement_recovery: average needs {k:.3g} nodes at N={N:g}, "
                    f"above the cap {MAX_AVERAGE_NODES}; reduce N, lambda or the count"
                )
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
    ) -> "TermDesign":
        return cls(
            model.family_for(plan.lam(j)), model.beta, plan.m_list[j - 1],
            plan.mode(j), N, n_nodes, noise,
        )

    def forms(self, terms, x0=None) -> list:
        """(f_t|P f_t) over the nodes for each term P of ``terms``, with the
        packets moved to x0 (an array x0 adds a leading base-point axis).

        Callers sum them from zero in term order: the form of the observable
        is ``sum(forms(terms), 0j)``, and the oracle-subtracted signal of
        term j is ``sum(forms(terms[j - 1:]), 0j)``, the forms of terms j and
        later, which equals the full form minus those of terms 1..j-1
        without cancelling the larger earlier ones."""
        return [packet_quadratic_form(self.family, self.nodes, term, x0) for term in terms]

    @cached_property
    def noise_weights(self) -> np.ndarray:
        """u = L^T w, which turns a white draw z into the estimate's noise."""
        return self.kernel.apply_factor_transpose(self.weights)

    def estimate(self, values: np.ndarray) -> np.ndarray:
        """sum_t w_t values_t over the trailing node axis: one estimate per
        path of signal plus noise."""
        return np.sum(self.weights * values, axis=-1)

    def keyed_noise(self, keys) -> np.ndarray:
        """u @ z for each Philox key in ``keys`` (shape (..., 2), as
        ``stream_keys`` returns them), z that stream's standard complex
        normals over the nodes, the draw that ``sample_paths`` turns into
        L z; shape ``keys.shape[:-1]``, zeros when the noise is off.
        ``parallel_map`` draws the keys in one contiguous chunk per
        thread, each chunk on one generator switched from key to key; each
        key is its own stream, so the values do not depend on the split."""
        keys = np.asarray(keys)
        if self.kernel is None:
            return np.zeros(keys.shape[:-1], dtype=complex)
        u = self.noise_weights
        draws = parallel_map(
            lambda chunk: [complex_normal_dot(rng, u) for rng in keyed_streams(chunk)],
            keys.reshape(-1, 2),
        )
        return np.array(draws, dtype=complex).reshape(keys.shape[:-1])


# ---------------------------------------------------------------------------
# Full recovery pipeline
# ---------------------------------------------------------------------------


class TabulatedCoeff:
    """Reconstructed coefficient: cubic interpolation through the recovered
    values on the x0 grid, clipped to the grid hull (held at the end value
    beyond it).  The packet envelope does reach past the hull: the y grid
    spans tail_radius / t in x, about 3 at N = 48.  So the clipping biases
    self-subtraction at the hull ends; with exact earlier values and no
    noise, term 2 misses by 77 there at N = 48 (ROADMAP item 7, which
    continues the end cubics instead)."""

    def __init__(self, x_grid: np.ndarray, values: np.ndarray):
        self._breaks, self._coefs = splines.not_a_knot(x_grid, values)
        self._lo = float(self._breaks[0])
        self._hi = float(self._breaks[-1])

    def __call__(self, x):
        x = np.clip(np.asarray(x, dtype=float), self._lo, self._hi)
        return splines.evaluate(self._breaks, self._coefs, x)


def spline_form_sums(
    family: WavePacketFamily, nodes, weights, term: HomogeneousTerm, x0s,
) -> np.ndarray:
    """sum_t weights_t (f_t|P f_t) at each base point x0s[i], for a term P
    whose coefficient c is a ``TabulatedCoeff``; the data's trailing axes
    follow the base-point axis.

    The form is sum_{y,t} g(y, t) c(x0_i + delta) with delta = y/t and
    g = y_w S_t(y), where neither g nor delta depends on x0.  Base point i
    puts delta in grid interval m when x_m - x0_i <= delta < x_{m+1} - x0_i,
    so the thresholds x_m - x0_i over all (i, m), sorted, cut the delta
    axis into buckets that every (base point, interval) pair covers whole.
    One pass over the nodes takes each bucket's moments sum g (delta - e)^p
    (p = 0..3) about its left edge e, of the real and imaginary parts of g
    apart, in real arithmetic: summed per node first, then weighted
    and summed pairwise over the nodes.  Base point i then shifts each
    bucket by s = e - (x_m - x0_i) >= 0 and expands d^q = (delta - e + s)^q
    binomially: every term is non-negative in the offsets, so nothing
    cancels.  Below the grid hull c is its value at x_0 (interval 0 at
    d = 0), above it its value at the last point (the last interval at its
    width), and both take only the zeroth moment.

    A block's weighted transform, offsets and moment powers are computed in
    place, and its arrays are freed before the next block's transform is
    evaluated, so the pass holds one block's arrays at a time.
    """
    coeff = term.coefficient
    breaks, coefs = coeff._breaks, coeff._coefs       # coefs[3 - q] goes with d^q
    profile = family.profile
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    x0s = np.atleast_1d(np.asarray(x0s, dtype=float))
    # The rounded thresholds define the buckets and, below, each bucket's
    # interval and shift; recomputing them as x0_i + e would move whole
    # buckets where the thresholds of two base points nearly coincide.
    thresholds = breaks[None, :] - x0s[:, None]        # (base point, break)
    edges = np.unique(thresholds)
    moments = np.zeros((4, 2, edges.size + 1))      # (power, real/imag part, bucket)
    block = block_rows(profile.y.size)
    for lo in range(0, nodes.size, block):
        ts = nodes[lo : lo + block]
        # (part, node, y) layout: y is ascending, so each node's buckets come in runs
        s_re, s_im = spectral_transform(family, term, ts)
        g = np.empty((2, ts.size, profile.y.size))
        np.multiply(s_re.T, profile.y_weights, out=g[0])
        np.multiply(s_im.T, profile.y_weights, out=g[1])
        del s_re, s_im
        g = g.reshape(2, -1)
        delta = np.outer(1.0 / ts, profile.y)
        bucket = np.searchsorted(edges, delta, side="right")   # 0: below every edge
        new_run = np.ones(bucket.shape, dtype=bool)
        new_run[:, 1:] = bucket[:, 1:] != bucket[:, :-1]
        starts = np.flatnonzero(new_run)
        # runs grouped by bucket, in node order, for pairwise sums over nodes
        run_bucket = bucket.ravel()[starts]
        bucket -= 1
        np.maximum(bucket, 0, out=bucket)
        delta -= edges[bucket]
        u = delta.ravel()
        del bucket, new_run
        order = np.argsort(run_bucket, kind="stable")
        hit, first = np.unique(run_bucket[order], return_index=True)
        run_weight = weights[lo + starts[order] // profile.y.size]
        for p in range(4):
            if p:
                g *= u
            run = np.add.reduceat(g, starts, axis=1)[:, order] * run_weight
            moments[p][:, hit] += np.add.reduceat(run, first, axis=1)
        del g, delta, u

    # Per (base point, bucket): the interval m (-1 below the hull, n - 1
    # above it) and the shift s of the bucket's left edge into it.
    n_int = breaks.size - 1
    interval = np.full((x0s.size, edges.size + 1), -1)
    interval[:, 1:] = [np.searchsorted(row, edges, side="right") - 1 for row in thresholds]
    inside = (interval >= 0) & (interval < n_int)
    m = np.clip(interval, 0, n_int - 1)
    left = np.r_[edges[0], edges]
    shift = np.where(
        inside, left - np.take_along_axis(thresholds, m, axis=1),
        np.where(interval < 0, 0.0, breaks[-1] - breaks[-2]),
    )
    mom = [np.broadcast_to(moments[0][:, None], (2,) + shift.shape)] + [
        np.where(inside, moments[p][:, None], 0.0) for p in (1, 2, 3)
    ]
    pieces = np.empty((4, x0s.size, n_int), dtype=complex)
    bins = (np.arange(x0s.size)[:, None] * n_int + m).ravel()
    for q in range(4):
        re, im = sum(
            math.comb(q, p) * shift ** (q - p) * mom[p] for p in range(q + 1)
        ).reshape(2, -1)
        pieces[q] = (
            np.bincount(bins, re, x0s.size * n_int)
            + 1j * np.bincount(bins, im, x0s.size * n_int)
        ).reshape(x0s.size, n_int)
    return np.tensordot(pieces, coefs[::-1], axes=([0, 2], [0, 1]))


@dataclass(frozen=True)
class RecoveryRow:
    term_index: int
    x0: float
    subtract: str
    estimate: complex
    truth: float
    abs_error: float
    seed: int


@dataclass
class EstimatorReport:
    """Per-term recovery results plus plot-ready trajectories, keyed by term."""

    rows: list
    trajectories: dict = field(default_factory=dict)


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
        if subtract_mode in ("self", "both") and (
            self.x0_grid.size < 4 or np.unique(self.x0_grid).size < self.x0_grid.size
        ):
            raise ConfigError(
                "measurement_recovery: self-subtraction needs an x0 grid dense "
                "enough for interpolation (>= 4 distinct points)"
            )
        self.modes = ("oracle", "self") if subtract_mode == "both" else (subtract_mode,)
        # the mode whose trajectories are kept: only x0_grid[0]'s are plotted
        self.plotted_mode = "oracle" if subtract_mode == "both" else subtract_mode

        # Per term j, over the grid points i: the truths a_j(x0_i); the oracle
        # estimates w @ signal; and, unless the subtraction is oracle alone,
        # the weighted forms w @ (f_t|P f_t), which self-subtraction starts
        # from, and per earlier term k the matrix cardinal_sums[(j, k)] = B @ w,
        # whose row i holds, for each l, the weighted form at x0_i of term k
        # recovered with the values e_l.  Oracle alone never reads the forms
        # of the earlier terms, so it does not integrate them.  The
        # node-length signals are kept at x0_grid[0] alone, for the plotted
        # trajectories.
        self.designs = {}
        self.truths = {}
        self.oracle_estimates = {}
        self.weighted_forms = {}
        self.cardinal_sums = {}
        self.plotted_signals = {}
        cardinals = np.eye(self.x0_grid.size)
        terms = model.observable.terms
        for j in range(1, plan.k_beta + 1):
            design = TermDesign.for_term(model, plan, j, N, n_nodes, noise)
            self.designs[j] = design
            self.truths[j] = [float(model.truth(j, x0).real) for x0 in self.x0_grid]
            oracle_only = subtract_mode == "oracle"
            earlier = [] if oracle_only else design.forms(terms[: j - 1], self.x0_grid)
            later = design.forms(terms[j - 1 :], self.x0_grid)
            signals = sum(later, 0j)
            self.oracle_estimates[j] = design.estimate(signals)
            self.plotted_signals[j] = signals[0]
            if oracle_only:
                continue
            forms = sum(earlier + later, 0j)
            self.weighted_forms[j] = design.estimate(forms)
            if self.plotted_mode == "self":
                self.plotted_signals[j] = forms[0]
            for k in range(1, j):
                term = self.recovered_term(k, cardinals)
                self.cardinal_sums[(j, k)] = spline_form_sums(
                    design.family, design.nodes, design.weights, term, self.x0_grid
                )
        # u = L^T w, and with it the factor, is formed with the session, so
        # the set-up is all here and ``run_trials`` only draws.
        for design in self.designs.values():
            if design.kernel is not None:
                design.noise_weights

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

    def run_trials(self, seeds):
        """``run_seed`` for each seed in order, the first with trajectories; a
        generator, so one report is held at a time.  Term j's noise at grid
        point i is u @ z, z the white draw of ``sample_path(kernel,
        child_seed(seed, "recover", j, i))``, all drawn first: one key
        derivation and one batch per design (``TermDesign.keyed_noise``)."""
        seeds = np.asarray(seeds, dtype=np.uint64)
        grid = np.arange(self.x0_grid.size)
        draws = {
            j: design.keyed_noise(stream_keys(
                child_seeds(seeds[:, None], "recover", j, grid), "noise-path"
            ))
            for j, design in self.designs.items()
        }
        for t, seed in enumerate(seeds.tolist()):
            yield self.run_seed(seed, {j: v[t] for j, v in draws.items()}, t == 0)

    def run_seed(self, seed: int, noise: dict, trajectories: bool = True) -> EstimatorReport:
        """One trial: ``noise`` (term j to its noise over the grid points, as
        ``run_trials`` draws it) on every signal, the estimate and its error
        per (subtraction, term, grid point).  With ``trajectories`` the report
        also keeps, per term, the per-node contributions of the plotted mode's
        estimate at x0_grid[0], whose noise is the full path L z of the same
        draw z; the estimates take only u @ z either way."""
        report = EstimatorReport([])
        for subtract in self.modes:
            recovered = []
            for j, design in self.designs.items():
                if subtract == "oracle":
                    estimates = self.oracle_estimates[j] + noise[j]
                else:
                    estimates = self.weighted_forms[j]
                    for k, prior in enumerate(recovered, start=1):
                        estimates = estimates - self.cardinal_sums[(j, k)] @ prior
                    estimates = estimates + noise[j]
                for x0, estimate, truth in zip(self.x0_grid, estimates, self.truths[j]):
                    report.rows.append(RecoveryRow(
                        j, float(x0), subtract, complex(estimate), truth,
                        float(abs(estimate - truth)), int(seed),
                    ))
                if trajectories and subtract == self.plotted_mode:
                    signal = self.plotted_signals[j]
                    if subtract == "self":
                        terms = [self.recovered_term(k, prior)
                                 for k, prior in enumerate(recovered, start=1)]
                        for form in design.forms(terms, self.x0_grid[0]):
                            signal = signal - form
                    path = 0.0 if design.kernel is None else sample_path(
                        design.kernel, child_seed(seed, "recover", j, 0)
                    )
                    report.trajectories[j] = (
                        design.nodes,
                        design.weights * (signal + path) * design.nodes.size,
                    )
                recovered.append(estimates)
        return report
