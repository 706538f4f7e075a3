"""Configuration, experiment orchestration, and persistence.

Configs are plain-text ``key = value`` files (``#`` starts a comment).
Every run writes: a CSV of result rows with a stable column order (each
command returns its rows as one column table, every column a scalar or a
1-d array), a JSON summary, plot-ready text series, and a manifest (config
hash, seed, code version, wall time) sufficient to reproduce it.
Identical config and seed produce byte-identical CSV output for any
worker count; wall time is recorded only in the manifest.

Exit codes: 0 success, 2 configuration error (a library domain error
counts as one), 3 numerical failure (non-finite results among them); a
failed run writes nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import math
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalError
from .expressions import ExpressionError, parse_coeff
from .measurement_recovery import (
    MAX_AVERAGE_NODES, MeasurementModel, RecoverySession, plan_orders,
)
from .noise_engine import (
    ORACLE_POINTS_PER_MIN_WINDOW, basis_oracle_batch, build_kernel, sample_paths,
)
from .parallel import USABLE_CORES, worker_limit
from .rng import child_seed, child_seeds
from .stats_harness import (
    SlopeRegression,
    ks_2samp_pvalue,
    nonconvergence_experiment,
    rate_certificate_experiment,
    variance_scaling_experiment,
)
from .symbols import HomogeneousTerm, SymbolExpansion, asymptotic_error_probe
from .wave_packets import BLOCK_ENTRIES, make_profile, sharpness_ok

SCHEMA_VERSION = 1
DEFAULT_LAMBDA = 2.0   # packet growth rate of the statistics commands without lambda_<j>


@dataclass(frozen=True)
class TermSpec:
    order: float
    coeff: str
    h_minus: float = 1.0
    h_plus: float = 1.0


# The dataclass annotations are the config schema: int, float and str keys
# are scalars, tuple[float, ...] keys comma lists, bool keys true or false.
# lambda_<j> and symbol_<i>_<field> lines fill the two structured fields.
@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: int = SCHEMA_VERSION
    beta: float = 0.0
    x0_grid: tuple[float, ...] = (0.0,)
    xi0: float = 1.0
    profile_sharpness: float = 1.0
    noise: bool = True
    subtract: str = "oracle"
    orders: tuple[float, ...] = ()   # plan orders; defaults to the symbol orders
    grid: tuple[float, ...] = (8.0, 16.0, 32.0, 64.0)
    scale: float = 32.0
    average_nodes: int = 0           # 0 means automatic
    trials: int = 1000
    seed: int = 0
    out: str = "results"
    workers: int = USABLE_CORES         # caps the draw threads; results do not depend on it
    term: int = 1
    mode: str = "plain"
    threshold: float = 0.5
    rate_eps: tuple[float, ...] = (0.1,)
    rate_delta: tuple[float, ...] = (0.1,)
    lambda_overrides: tuple[tuple[int, float], ...] = ()  # pairs (term index, lambda)
    alert_threshold: float = 0.5
    plain_margin: float = 0.0
    averaged_margin: float = 0.5
    terms: tuple[TermSpec, ...] = ()

    def __post_init__(self):
        """The domain checks, for a config parsed from text or built in code."""
        numbers = [(key, getattr(self, key)) for key in _keys_of(float)]
        numbers += [(key, v) for key in _keys_of(_LIST) for v in getattr(self, key)]
        numbers += [(f"lambda_{j}", lam) for j, lam in self.lambda_overrides]
        numbers += [
            (f"symbol_{i}_{name}", getattr(term, name))
            for i, term in enumerate(self.terms, start=1)
            for name, kind in _TERM_KINDS.items() if kind is float
        ]
        for key, value in numbers:
            if not math.isfinite(value):
                raise ConfigError(f"cli_io: {key} must be finite, got {value!r}")
        for key, check, requirement in _DOMAINS:
            value = getattr(self, key)
            if not check(value):
                raise ConfigError(f"cli_io: {key} must be {requirement}, got {value!r}")
        # plan orders may extend the symbol's or stop short, never disagree
        symbol = tuple(t.order for t in self.terms)
        shared = min(len(self.orders), len(symbol))
        if self.orders[:shared] != symbol[:shared]:
            raise ConfigError(
                f"cli_io: orders must agree with the symbol's term orders {symbol!r} "
                f"where both are given, got {self.orders!r}"
            )

    def plan_order_list(self) -> list:
        if self.orders:
            return list(self.orders)
        return [t.order for t in self.terms]


_LIST = tuple[float, ...]
_KINDS = typing.get_type_hints(ExperimentConfig)
_TERM_KINDS = typing.get_type_hints(TermSpec)


def _keys_of(*kinds) -> list:
    return sorted(key for key, kind in _KINDS.items() if kind in kinds)


def _each(check):
    return lambda values: bool(values) and all(check(v) for v in values)


# One row per key with a domain: (key, check, requirement).  Packet scales
# are >= 1, since the packets and the symbols' homogeneity need t >= 1.  The
# profile's sharpness takes the library's own check.
_DOMAINS = (
    ("schema_version", lambda v: v == SCHEMA_VERSION, str(SCHEMA_VERSION)),
    ("x0_grid", bool, "non-empty"),
    ("xi0", lambda v: v in (-1.0, 1.0), "1 or -1"),
    (
        "profile_sharpness", sharpness_ok,
        "> 0 and small enough that exp(-2 * profile_sharpness) > 0 (below 372.5667)",
    ),
    ("subtract", lambda v: v in ("oracle", "self", "both"), "oracle, self or both"),
    ("grid", _each(lambda t: t >= 1.0), "non-empty with each value >= 1"),
    ("scale", lambda v: v >= 1.0, ">= 1"),
    (
        "average_nodes", lambda v: v == 0 or 2 <= v <= MAX_AVERAGE_NODES,
        f"0 (automatic) or >= 2 nodes and at most {MAX_AVERAGE_NODES}",
    ),
    ("trials", lambda v: v >= 1, ">= 1"),
    ("workers", lambda v: v >= 1, ">= 1"),
    ("term", lambda v: v >= 1, ">= 1"),
    ("mode", lambda v: v in ("plain", "averaged"), "plain or averaged"),
    ("threshold", lambda v: v > 0.0, "> 0"),
    ("alert_threshold", lambda v: v > 0.0, "> 0"),
    ("rate_eps", _each(lambda e: e > 0.0), "non-empty with each value > 0"),
    ("rate_delta", _each(lambda d: 0.0 < d <= 1.0), "non-empty with each value in (0, 1]"),
    ("lambda_overrides", lambda v: all(j >= 1 for j, _ in v), "indexed by terms j >= 1"),
)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a key=value config; unknown keys are rejected, and
    ``ExperimentConfig`` checks the values' domains."""
    values: dict = {}
    lambdas: dict = {}
    symbol_raw: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"cli_io: line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        kind = _KINDS.get(key)
        try:
            if kind in (int, float, str):
                values[key] = kind(val)
            elif kind == _LIST:
                values[key] = tuple(float(p) for p in val.split(",") if p.strip())
            elif kind is bool:
                if val not in ("true", "false"):
                    raise ConfigError(
                        f"cli_io: line {lineno}: {key} must be true or false"
                    )
                values[key] = val == "true"
            elif key.startswith("lambda_"):
                lambdas[int(key[len("lambda_"):])] = float(val)
            elif key == "symbol_count":
                values["_symbol_count"] = int(val)
            elif key.startswith("symbol_"):
                parts = key.split("_", 2)
                if len(parts) != 3 or parts[2] not in _TERM_KINDS:
                    raise ConfigError(f"cli_io: line {lineno}: unknown key {key!r}")
                idx = int(parts[1])
                symbol_raw.setdefault(idx, {})[parts[2]] = _TERM_KINDS[parts[2]](val)
            else:
                raise ConfigError(f"cli_io: line {lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"cli_io: line {lineno}: bad value for {key!r}: {exc}") from exc

    count = values.pop("_symbol_count", len(symbol_raw))
    if count != len(symbol_raw) or sorted(symbol_raw) != list(range(1, count + 1)):
        raise ConfigError(
            "cli_io: symbol terms must be numbered 1..symbol_count with no gaps"
        )
    terms = []
    for idx in range(1, count + 1):
        entry = symbol_raw[idx]
        missing = {"order", "coeff"} - set(entry)
        if missing:
            raise ConfigError(f"cli_io: symbol_{idx} is missing {sorted(missing)}")
        terms.append(TermSpec(**entry))
    values["terms"] = tuple(terms)
    values["lambda_overrides"] = tuple(sorted(lambdas.items()))
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(f"cli_io: invalid config: {exc}") from exc


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical serialization; parse(serialize(parse(t))) == parse(t).
    Its bytes feed ``config_digest``, so the line order is fixed:
    schema_version, the other scalars, the lists, the flags, the lambda
    overrides, then the symbol terms."""
    lines = [f"schema_version = {cfg.schema_version}"]
    for key in _keys_of(int, float, str):
        if key != "schema_version":
            lines.append(f"{key} = {getattr(cfg, key)}")
    for key in _keys_of(_LIST):
        lines.append(f"{key} = {', '.join(repr(v) for v in getattr(cfg, key))}")
    for key in _keys_of(bool):
        lines.append(f"{key} = {'true' if getattr(cfg, key) else 'false'}")
    for j, lam in cfg.lambda_overrides:
        lines.append(f"lambda_{j} = {lam!r}")
    lines.append(f"symbol_count = {len(cfg.terms)}")
    for i, term in enumerate(cfg.terms, start=1):
        for name in _TERM_KINDS:
            lines.append(f"symbol_{i}_{name} = {getattr(term, name)}")
    return "\n".join(lines) + "\n"


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cli_io: cannot read config {path}: {exc}") from exc
    return parse_config(text)


def config_digest(cfg: ExperimentConfig) -> str:
    """Hash of the experiment content; execution-only knobs (worker count,
    output directory) do not change the digest."""
    canonical = dataclasses.replace(cfg, workers=1, out="results")
    return hashlib.sha256(serialize_config(canonical).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Result rows and writers
# ---------------------------------------------------------------------------


# A command returns its rows as one column table: each name in ROW_COLUMNS
# maps to a scalar, which every row repeats, or to a 1-d array in row order.
ROW_COLUMNS = (
    "term_index", "parameter", "value_re", "value_im", "truth", "error",
    "variance", "ci_half_width", "seed",
)
# The CSV columns: three shared by every row of a run, the row's own, and a
# deterministic wall_time_s placeholder (timing lives in the manifest).
RESULT_COLUMNS = ["schema_version", "experiment_id", "command", *ROW_COLUMNS, "wall_time_s"]
CSV_BLOCK_ROWS = 1024


def _broadcast_rows(columns: dict) -> dict:
    """The column table with every column a 1-d array, one entry per row."""
    n = math.prod(np.broadcast_shapes(*(np.shape(v) for v in columns.values())))
    return {name: np.broadcast_to(value, (n,)) for name, value in columns.items()}


def write_rows_csv(path: Path, columns: dict, prefix: tuple) -> int:
    """Write the rows of the column table ``columns`` under RESULT_COLUMNS,
    each led by the ``prefix`` values of the shared columns, and return
    their count.  A float is written as its ``repr``, an integer in full;
    only the text of CSV_BLOCK_ROWS rows is held at a time."""
    table = _broadcast_rows(columns)
    count = len(table["seed"])
    lead = ",".join(map(str, prefix))
    with path.open("w", encoding="utf-8") as f:
        f.write(",".join(RESULT_COLUMNS) + "\n")
        for start in range(0, count, CSV_BLOCK_ROWS):
            cells = (table[name][start : start + CSV_BLOCK_ROWS].tolist() for name in ROW_COLUMNS)
            f.writelines(",".join((lead, *map(repr, row), "NA")) + "\n" for row in zip(*cells))
    return count


def write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n",
        encoding="utf-8",
    )


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def emit_plot_data(out_dir: Path, name: str, columns: dict, header: str = "") -> Path:
    """Write one plot series as whitespace-separated text columns and return
    its path.  Every command plots a non-empty grid."""
    arrays = [np.atleast_1d(np.asarray(v, dtype=float)) for v in columns.values()]
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.txt"
    lines = []
    if header:
        lines.append(f"# {header}")
    lines.append("# " + " ".join(columns.keys()))
    for i in range(arrays[0].size):
        lines.append(" ".join(repr(float(a[i])) for a in arrays))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Model assembly
# ---------------------------------------------------------------------------


def _build_observable(cfg: ExperimentConfig, pad_to: int = 0) -> SymbolExpansion:
    if not cfg.terms:
        raise ConfigError("cli_io: config defines no symbol terms")
    try:
        terms = [
            HomogeneousTerm(
                order=ts.order,
                coefficient=parse_coeff(ts.coeff),
                h_minus=ts.h_minus,
                h_plus=ts.h_plus,
            )
            for ts in cfg.terms
        ]
    except ExpressionError as exc:
        raise ConfigError(f"cli_io: bad coefficient expression: {exc}") from exc
    plan_orders_list = cfg.plan_order_list()
    for j in range(len(terms), min(pad_to, len(plan_orders_list))):
        terms.append(HomogeneousTerm(plan_orders_list[j], parse_coeff("0")))
    return SymbolExpansion(tuple(terms))


def _build_model(cfg: ExperimentConfig, pad_to: int = 0) -> MeasurementModel:
    profile = make_profile(cfg.profile_sharpness)
    return MeasurementModel(
        observable=_build_observable(cfg, pad_to),
        beta=cfg.beta,
        x0=cfg.x0_grid[0],
        xi0=cfg.xi0,
        profile=profile,
    )


def _build_plan(cfg: ExperimentConfig):
    return plan_orders(
        cfg.plan_order_list(),
        cfg.beta,
        averaged_margin=cfg.averaged_margin,
        plain_margin=cfg.plain_margin,
        lambda_overrides=dict(cfg.lambda_overrides),
    )


def _lambda_for(cfg: ExperimentConfig, j: int) -> float:
    return dict(cfg.lambda_overrides).get(j, DEFAULT_LAMBDA)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_recover(cfg: ExperimentConfig):
    plan = _build_plan(cfg)
    model = _build_model(cfg, pad_to=plan.k_beta)
    session = RecoverySession(
        model, plan, cfg.x0_grid, cfg.scale, subtract_mode=cfg.subtract,
        n_nodes=cfg.average_nodes or None, noise=cfg.noise,
    )
    # Each trial's rows are copied into the estimate and error arrays as
    # ``run_trials`` yields them; only the first trial's trajectories are
    # plotted.  The arrays are shaped (trial, subtraction, term, grid point),
    # so C order is row order.  The errors give the per-term figures, alerts
    # and error plots, each mean taken over a contiguous copy so that it
    # sums in row order.
    seeds = child_seeds(cfg.seed, np.arange(cfg.trials), "recover-trial")
    shape = (cfg.trials, len(session.modes), plan.k_beta, len(cfg.x0_grid))
    estimates = np.empty(shape, dtype=complex)
    errors = np.empty(shape)
    for trial, report in enumerate(session.run_trials(seeds)):
        if trial == 0:
            trajectories = report.trajectories
        estimates[trial].flat = [r.estimate for r in report.rows]
        errors[trial].flat = [r.abs_error for r in report.rows]
    row_trial, _, row_term, row_point = np.indices(shape).reshape(4, -1)
    rows = dict(
        term_index=row_term + 1, parameter=session.x0_grid[row_point],
        value_re=estimates.real.ravel(), value_im=estimates.imag.ravel(),
        truth=np.array([session.truths[j] for j in session.designs])[row_term, row_point],
        error=errors.ravel(), variance=np.nan, ci_half_width=np.nan, seed=seeds[row_trial],
    )

    per_term = {}
    plots = {}
    for j in range(1, plan.k_beta + 1):
        errs = errors[:, :, j - 1].ravel()
        per_term[str(j)] = {
            "mode": plan.mode(j),
            "lambda": plan.lam(j),
            "mean_error": float(errs.mean()),
            "max_error": float(errs.max()),
            "within_alert": float(np.mean(errs <= cfg.alert_threshold)),
        }
        by_x0 = [errors[:, :, j - 1, i].ravel() for i in range(len(cfg.x0_grid))]
        plots[f"recover_term{j}_error"] = (
            {"x0": cfg.x0_grid, "mean_error": [e.mean() for e in by_x0],
             "max_error": [e.max() for e in by_x0]},
            f"term {j} absolute error vs x0 (mode {plan.mode(j)})",
        )
        # running t-average of the first trial at the first grid point
        nodes, contributions = trajectories[j]
        running = np.cumsum(contributions).real / np.arange(1, nodes.size + 1)
        plots[f"recover_term{j}_trajectory"] = (
            {"t": nodes, "running_average": running},
            f"term {j} running average over the packet scale (first trial)",
        )
    summary = {
        "command": "recover",
        "j_beta": plan.j_beta,
        "k_beta": plan.k_beta,
        "lambdas": list(plan.lambdas),
        "modes": list(plan.modes),
        "scale": cfg.scale,
        "subtract": cfg.subtract,
        "trials": cfg.trials,
        "per_term": per_term,
        "alerts": int(np.count_nonzero(errors > cfg.alert_threshold)),
    }
    return rows, summary, plots


def _cmd_noise_stats(cfg: ExperimentConfig):
    model = _build_model(cfg)
    lam = _lambda_for(cfg, 1)
    family = model.family_for(lam)
    trials = max(cfg.trials, 1000)
    t0 = cfg.scale

    # the oracle runs first: it checks its truncated lattice before a kernel
    # is built at a scale too large for it.  Each block's draws have their
    # own key, so the order moves none of them.
    nodes3 = np.array([t0, t0 * 1.005, t0 * 1.0125])
    oracle = basis_oracle_batch(
        family, nodes3, cfg.beta, seed=child_seed(cfg.seed, "oracle"), n_samples=trials
    )

    kernel1 = build_kernel(family, [t0], cfg.beta)
    seeds = child_seeds(cfg.seed, np.arange(trials), "iso")
    vals = sample_paths(kernel1, seeds)[:, 0]
    ratio = float(np.mean(np.abs(vals) ** 2) / kernel1.diagonal[0])
    ratio_stderr = float(np.std(np.abs(vals) ** 2) / kernel1.diagonal[0] / np.sqrt(trials))

    pair = np.array([t0, 1.01 * t0])
    kernel2 = build_kernel(family, pair, cfg.beta)
    seeds = child_seeds(cfg.seed, np.arange(trials), "pseudo")
    paths = sample_paths(kernel2, seeds)
    pseudo = complex(np.mean(paths[:, 0] * paths[:, 1]))
    pseudo_stderr = float(
        np.std(paths[:, 0] * paths[:, 1]) / np.sqrt(trials)
    )

    kernel3 = build_kernel(
        family, nodes3, cfg.beta, points_per_min_window=ORACLE_POINTS_PER_MIN_WINDOW
    )
    emp_cov = (oracle.conj().T @ oracle / trials).real
    dense3 = kernel3.dense()
    max_dev = float((np.abs(emp_cov - dense3) / dense3).max())
    seeds = child_seeds(cfg.seed, np.arange(trials), "ks")
    kernel_draws = sample_paths(kernel3, seeds)
    ks_pvalue = ks_2samp_pvalue(np.abs(oracle[:, 0]), np.abs(kernel_draws[:, 0]))

    summary = {
        "command": "noise-stats",
        "scale": t0,
        "lambda": lam,
        "beta": cfg.beta,
        "samples": trials,
        "isometry_ratio": ratio,
        "isometry_stderr": ratio_stderr,
        "pseudo_covariance": pseudo,
        "pseudo_stderr": pseudo_stderr,
        "oracle_max_rel_dev": max_dev,
        "ks_pvalue": ks_pvalue,
    }
    rows = dict(  # the isometry ratio, the pseudo-covariance, the oracle's deviation
        term_index=0, parameter=t0,
        value_re=[ratio, pseudo.real, max_dev], value_im=[0.0, pseudo.imag, 0.0],
        truth=[1.0, 0.0, 0.0], error=[abs(ratio - 1.0), abs(pseudo), max_dev],
        variance=np.nan, ci_half_width=[3.0 * ratio_stderr, 3.0 * pseudo_stderr, 0.05],
        seed=cfg.seed,
    )
    return rows, summary, {}


def _cmd_variance_scaling(cfg: ExperimentConfig):
    model = _build_model(cfg)
    j = cfg.term
    if j < 1 or j > len(model.observable.terms):
        raise ConfigError("cli_io: variance-scaling term index outside the symbol")
    m = model.observable.terms[j - 1].order
    lam = _lambda_for(cfg, j)
    family = model.family_for(lam)
    result = variance_scaling_experiment(
        family, cfg.beta, m, cfg.mode, cfg.grid, cfg.trials, cfg.seed
    )
    rows = dict(
        term_index=j, parameter=result.grid, value_re=result.empirical_var, value_im=0.0,
        truth=result.kernel_var, error=np.abs(result.empirical_var - result.kernel_var),
        variance=result.empirical_var, ci_half_width=np.nan, seed=cfg.seed,
    )
    summary = {
        "command": "variance-scaling",
        "target": cfg.mode,
        "term": j,
        "order": m,
        "lambda": lam,
        "beta": cfg.beta,
        "slope": result.regression.slope,
        "slope_stderr": result.regression.stderr,
        "expected_slope": result.expected_slope,
        "empirical_var": result.empirical_var,
        "kernel_var": result.kernel_var,
    }
    if result.continuum_var is not None:
        summary["continuum_var"] = result.continuum_var
        summary["max_rel_dev_vs_continuum"] = float(
            np.max(np.abs(result.empirical_var / result.continuum_var - 1.0))
        )
    plots = {
        "variance_scaling": (
            {
                "log_grid": np.log(result.grid),
                "log_empirical_var": np.log(result.empirical_var),
            },
            f"fit slope={result.regression.slope!r} "
            f"intercept={result.regression.intercept!r} "
            f"expected={result.expected_slope!r}",
        )
    }
    return rows, summary, plots


def _cmd_nonconvergence(cfg: ExperimentConfig):
    model = _build_model(cfg)
    lam = _lambda_for(cfg, cfg.term)
    curve = nonconvergence_experiment(
        model, cfg.term, cfg.mode, lam, cfg.threshold, cfg.grid, cfg.trials, cfg.seed
    )
    rows = dict(
        term_index=cfg.term, parameter=curve.grid, value_re=curve.p_hat, value_im=0.0,
        truth=curve.p_closed_form, error=np.abs(curve.p_hat - curve.p_closed_form),
        variance=curve.sigma_sq, ci_half_width=curve.half_width, seed=cfg.seed,
    )
    summary = {
        "command": "nonconvergence",
        "term": cfg.term,
        "mode": cfg.mode,
        "lambda": lam,
        "threshold": cfg.threshold,
        "final_probability": float(curve.p_hat[-1]),
        "monotone_within_bands": curve.monotone_within_bands(),
        "matches_closed_form": curve.matches_closed_form(),
        "p_hat": curve.p_hat,
        "p_closed_form": curve.p_closed_form,
    }
    plots = {
        "deviation_curve": (
            {
                "parameter": curve.grid,
                "p_hat": curve.p_hat,
                "half_width": curve.half_width,
            },
            f"P(|deviation| > {cfg.threshold!r}) with Wilson half-widths",
        )
    }
    return rows, summary, plots


def _cmd_rate(cfg: ExperimentConfig):
    plan = _build_plan(cfg)
    model = _build_model(cfg, pad_to=plan.k_beta)
    surface = rate_certificate_experiment(
        model, plan, cfg.term, cfg.rate_eps, cfg.rate_delta,
        cfg.grid, cfg.trials, cfg.seed, noise=cfg.noise,
    )
    certs = surface.certificates
    rows = dict(
        term_index=cfg.term, parameter=[c.n0 for c in certs],
        value_re=[c.eps for c in certs], value_im=[c.delta for c in certs],
        truth=np.nan, error=np.nan, variance=np.nan, ci_half_width=np.nan, seed=cfg.seed,
    )
    summary = {
        "command": "rate",
        "term": cfg.term,
        "n_grid": surface.n_grid,
        "certificates": [
            {"eps": c.eps, "delta": c.delta, "n0": c.n0} for c in surface.certificates
        ],
        "c_emp": surface.c_emp,
        "theta_emp": surface.theta_emp,
        "success": surface.success,
    }
    plots = {
        "rate_success": (
            {
                "n": surface.n_grid,
                **{
                    f"success_eps_{eps!r}": surface.success[:, ei]
                    for ei, eps in enumerate(surface.eps_list)
                },
            },
            "Wilson success rate vs scale",
        )
    }
    return rows, summary, plots


def _cmd_asymptotics(cfg: ExperimentConfig):
    model = _build_model(cfg)
    lam = _lambda_for(cfg, 1)
    family = model.family_for(lam)
    probe = asymptotic_error_probe(model.observable, family, cfg.grid)
    regression = SlopeRegression.fit(np.log(probe["t"]), np.log(probe["errors"]))
    orders = cfg.plan_order_list()
    expected = None
    if len(orders) >= 2:
        expected = -min(1.0, lam * (orders[0] - orders[1]), lam - 1.0)
    rows = dict(
        term_index=1, parameter=probe["t"],
        value_re=probe["scaled_values"].real, value_im=probe["scaled_values"].imag,
        truth=probe["truth"].real, error=probe["errors"],
        variance=np.nan, ci_half_width=np.nan, seed=cfg.seed,
    )
    summary = {
        "command": "asymptotics",
        "lambda": lam,
        "slope": regression.slope,
        "slope_stderr": regression.stderr,
        "expected_upper_bound_slope": expected,
        "errors": probe["errors"],
    }
    plots = {
        "asymptotic_error": (
            {"log_t": np.log(probe["t"]), "log_error": np.log(probe["errors"])},
            f"fit slope={regression.slope!r}",
        )
    }
    return rows, summary, plots


_DISPATCH = {
    "recover": _cmd_recover,
    "noise-stats": _cmd_noise_stats,
    "variance-scaling": _cmd_variance_scaling,
    "nonconvergence": _cmd_nonconvergence,
    "rate": _cmd_rate,
    "asymptotics": _cmd_asymptotics,
}


def _finite_leaves(obj) -> bool:
    """Whether every numeric leaf of a summary is finite."""
    if isinstance(obj, dict):
        return all(_finite_leaves(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite_leaves(v) for v in obj)
    if obj is None or isinstance(obj, str):
        return True
    return bool(np.all(np.isfinite(obj)))


def _require_finite(rows: dict, summary: dict) -> None:
    """Reject non-finite results before anything is written.  Row columns
    that hold NaN by design (variance, ci_half_width, rate truth and error)
    are not checked."""
    table = _broadcast_rows(rows)
    finite = np.isfinite([table["value_re"], table["value_im"]]).all(axis=0)
    bad = np.flatnonzero(~finite)
    if bad.size:
        first = bad[0]
        raise NumericalError(
            f"cli_io: {bad.size} of {finite.size} result rows are not finite "
            f"(first: term {table['term_index'][first]}, "
            f"parameter {float(table['parameter'][first])!r})"
        )
    if not _finite_leaves(summary):
        raise NumericalError("cli_io: the summary holds non-finite values")


def _keep_block_pages() -> None:
    """Have glibc's malloc keep the pages of freed blocks for the next block.

    A blocked pass frees and allocates again a few ``BLOCK_ENTRIES``-sized
    arrays per block.  glibc's dynamic thresholds follow the largest array
    freed so far, about one block, so it trims those pages after each block
    and the next block faults them in again: 182,000 minor faults in one
    recover-both command, 2,400 with the thresholds fixed here at four
    blocks (arrays above it are mapped apart) and eight (free memory kept at
    the top of the heap).  Elsewhere than glibc this does nothing.
    """
    if sys.platform.startswith("linux"):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            block = 8 * BLOCK_ENTRIES  # bytes of one float64 block
            mallopt(-3, 4 * block)  # M_MMAP_THRESHOLD
            mallopt(-1, 8 * block)  # M_TRIM_THRESHOLD


def run_command(
    name: str, cfg: ExperimentConfig, out_dir: str | Path | None = None,
    quiet: bool = False,
) -> int:
    """Run one experiment command and persist its artifacts."""
    started = time.time()
    _keep_block_pages()
    try:
        if name not in _DISPATCH:
            raise ConfigError(f"cli_io: unknown command {name!r}")
        digest = config_digest(cfg)
        experiment_id = f"{name}-{digest[:12]}-{cfg.seed}"
        # Overflow and 0/0 raise here and exit 3.
        with worker_limit(cfg.workers), np.errstate(
            over="raise", divide="raise", invalid="raise"
        ):
            rows, summary, plots = _DISPATCH[name](cfg)
        _require_finite(rows, summary)

        out = Path(out_dir if out_dir is not None else cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        slug = name.replace("-", "_")
        csv_path = out / f"{slug}_rows.csv"
        count = write_rows_csv(csv_path, rows, (SCHEMA_VERSION, experiment_id, name))
        summary_path = out / f"{slug}_summary.json"
        write_json(summary_path, summary)
        plot_paths = []
        for plot_name, (columns, header) in plots.items():
            p = emit_plot_data(out / "plots", plot_name, columns, header)
            plot_paths.append(str(p.relative_to(out)))
        manifest = {
            "command": name,
            "config_sha256": digest,
            "config": serialize_config(cfg),
            "seed": cfg.seed,
            "version": __version__,
            "outputs": [csv_path.name, summary_path.name, *plot_paths],
            "wall_time_s": time.time() - started,
        }
        write_json(out / "manifest.json", manifest)
        if not quiet:
            print(f"{name}: wrote {csv_path} ({count} rows)")
        return 0
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # OverflowError, or numpy's FloatingPointError
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError, or a library domain check
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="symrec",
        description="Reconstruct homogeneous symbol terms from noisy "
        "wave-packet measurements and certify the noise laws.",
    )
    parser.add_argument("command", choices=tuple(_DISPATCH))
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--trials", type=int, help="override the trial count")
    parser.add_argument(
        "--workers", type=int, help="cap the threads that draw the noise (default: usable cores)"
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    overrides = {
        key: getattr(args, key)
        for key in ("seed", "trials", "workers")
        if getattr(args, key) is not None
    }
    try:
        cfg = dataclasses.replace(load_config(args.config), **overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run_command(args.command, cfg, out_dir=args.out, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
