"""Outside-in layer trace for one benchmark repetition.

Public functions are imported by name (``build_kernel`` is bound in
``noise_engine``, ``measurement_recovery``, ``stats_harness`` and
``cli_io``), so each traced function is replaced at every ``symrec`` module
that binds it; wrapping only the defining module would miss most calls.
Methods are wrapped on their class.  Spans (name, start, end, parent,
counts) stay in memory and are written when the run ends.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np


def _nodes(args, kwargs, out):
    return {"nodes": out.size}


def _kernel(args, kwargs, out):
    return {"nodes": out.size, "bandwidth": max(out.offsets)}


def _rows(args, kwargs, out):
    return {"rows": out.shape[0] if out.ndim == 2 else 1}


def _factor_kind(args, kwargs, out):
    return {out[0]: 1}


def _path_bytes(args, kwargs, out):
    # write_rows_csv and write_json write to their first argument
    return {"bytes": Path(args[0]).stat().st_size}


def _plot_bytes(args, kwargs, out):
    # emit_plot_data returns the path it wrote, or None for an empty series
    return {"bytes": out.stat().st_size if out is not None else 0}


def _factor_cached(args, kwargs):
    return args[0]._factor is not None


# (module, function) traced at every import site, with its count hook.
FUNCTIONS = {
    ("symbols", "packet_quadratic_form"): _nodes,
    ("noise_engine", "build_kernel"): _kernel,
    ("noise_engine", "sample_path"): None,
    ("noise_engine", "sample_paths"): None,
    ("noise_engine", "basis_oracle_batch"): None,
    ("rng", "rng_for"): None,
    ("rng", "child_seed"): None,
    ("stats_harness", "variance_scaling_experiment"): None,
    ("stats_harness", "nonconvergence_experiment"): None,
    ("stats_harness", "rate_certificate_experiment"): None,
    ("stats_harness", "continuum_average_variance"): None,
    ("cli_io", "run_command"): None,
    ("cli_io", "write_rows_csv"): _path_bytes,
    ("cli_io", "write_json"): _path_bytes,
    ("cli_io", "emit_plot_data"): _plot_bytes,
}

# (module, class, method) wrapped on the class.
METHODS = {
    ("noise_engine", "NoiseKernel", "factor"): _factor_kind,
    ("noise_engine", "NoiseKernel", "apply_factor"): _rows,
    ("measurement_recovery", "RecoverySession", "__init__"): None,
    ("measurement_recovery", "RecoverySession", "run_seed"): None,
    ("measurement_recovery", "TabulatedCoeff", "__call__"): None,
}

PERSIST = ("cli_io.write_rows_csv", "cli_io.write_json", "cli_io.emit_plot_data")


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, counts or None]
        self._stack = []
        self._retained_ids = set()
        self.retained_bytes = 0

    def wrap(self, name, fn, counts=None, skip=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip is not None and skip(args, kwargs):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, out)
            return out

        return traced

    def _retain(self, args, kwargs, report):
        """Bytes held by a returned EstimatorReport: its trajectory arrays
        (each distinct buffer once) plus its row objects."""
        for arrays in report.trajectories.values():
            for arr in arrays:
                if id(arr) not in self._retained_ids:
                    self._retained_ids.add(id(arr))
                    self.retained_bytes += arr.nbytes
        self.retained_bytes += sum(
            sys.getsizeof(r) + sys.getsizeof(r.__dict__) for r in report.rows
        )
        return None

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "symrec" or n.startswith("symrec.")]
        for (mod, fname), counts in FUNCTIONS.items():
            orig = getattr(sys.modules[f"symrec.{mod}"], fname)
            wrapper = self.wrap(f"{mod}.{fname}", orig, counts)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
        for (mod, cls_name, meth), counts in METHODS.items():
            cls = getattr(sys.modules[f"symrec.{mod}"], cls_name)
            skip = _factor_cached if meth == "factor" else None
            if meth == "run_seed":
                counts = self._retain
            name = f"{mod}.{cls_name}.{meth}"
            setattr(cls, meth, self.wrap(name, cls.__dict__[meth], counts, skip))

    def write(self, path):
        Path(path).write_text(json.dumps(self.spans), encoding="utf-8")

    def layer_metrics(self) -> dict:
        """Per-layer counts and times aggregated from the spans."""
        n = len(self.spans)
        duration = np.array([s[2] - s[1] for s in self.spans], dtype=float)
        covered = np.zeros(n)
        for s, d in zip(self.spans, duration):
            if s[3] >= 0:
                covered[s[3]] += d
        own = duration - covered

        by_name: dict = {}
        for i, s in enumerate(self.spans):
            entry = by_name.setdefault(
                s[0], {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "counts": {}}
            )
            entry["calls"] += 1
            entry["s"] += duration[i]
            entry["self_s"] += own[i]
            entry["durations"].append(duration[i])
            if s[4]:
                for key, value in s[4].items():
                    if key == "bandwidth":
                        entry["counts"][key] = max(entry["counts"].get(key, 0), value)
                    else:
                        entry["counts"][key] = entry["counts"].get(key, 0) + value

        def get(name, field, key=None):
            entry = by_name.get(name)
            if entry is None:
                return 0
            return entry["counts"].get(key, 0) if field == "counts" else entry[field]

        def percentile_ms(name, q):
            entry = by_name.get(name)
            if entry is None:
                return 0.0
            return float(np.percentile(entry["durations"], q)) * 1e3

        pqf = "symbols.packet_quadratic_form"
        run_seed = "measurement_recovery.RecoverySession.run_seed"
        tab = "measurement_recovery.TabulatedCoeff.__call__"
        kern = "noise_engine.build_kernel"
        fac = "noise_engine.NoiseKernel.factor"
        apply = "noise_engine.NoiseKernel.apply_factor"
        return {
            "symbols.packet_quadratic_form.calls": get(pqf, "calls"),
            "symbols.packet_quadratic_form.nodes": get(pqf, "counts", "nodes"),
            "symbols.packet_quadratic_form.self_s": get(pqf, "self_s"),
            "measurement_recovery.TabulatedCoeff.calls": get(tab, "calls"),
            "measurement_recovery.TabulatedCoeff.s": get(tab, "s"),
            "measurement_recovery.RecoverySession.init_s": get(
                "measurement_recovery.RecoverySession.__init__", "s"
            ),
            "measurement_recovery.run_seed.calls": get(run_seed, "calls"),
            "measurement_recovery.run_seed.self_s": get(run_seed, "self_s"),
            "measurement_recovery.run_seed.p50_ms": percentile_ms(run_seed, 50),
            "measurement_recovery.run_seed.p99_ms": percentile_ms(run_seed, 99),
            "measurement_recovery.retained_mb": self.retained_bytes / 2**20,
            "noise_engine.build_kernel.calls": get(kern, "calls"),
            "noise_engine.build_kernel.s": get(kern, "s"),
            "noise_engine.build_kernel.nodes": get(kern, "counts", "nodes"),
            "noise_engine.build_kernel.max_bandwidth": get(kern, "counts", "bandwidth"),
            "noise_engine.factor.dense": get(fac, "counts", "dense"),
            "noise_engine.factor.banded": get(fac, "counts", "banded"),
            "noise_engine.factor.s": get(fac, "s"),
            "noise_engine.sample_path.calls": get("noise_engine.sample_path", "calls"),
            "noise_engine.sample_path.self_s": get("noise_engine.sample_path", "self_s"),
            "noise_engine.sample_paths.calls": get("noise_engine.sample_paths", "calls"),
            "noise_engine.sample_paths.self_s": get("noise_engine.sample_paths", "self_s"),
            "noise_engine.apply_factor.calls": get(apply, "calls"),
            "noise_engine.apply_factor.rows": get(apply, "counts", "rows"),
            "noise_engine.apply_factor.s": get(apply, "s"),
            "noise_engine.basis_oracle_batch.s": get("noise_engine.basis_oracle_batch", "s"),
            "rng.rng_for.calls": get("rng.rng_for", "calls"),
            "rng.rng_for.s": get("rng.rng_for", "s"),
            "rng.child_seed.calls": get("rng.child_seed", "calls"),
            "rng.child_seed.s": get("rng.child_seed", "s"),
            "stats_harness.variance_scaling_experiment.self_s": get(
                "stats_harness.variance_scaling_experiment", "self_s"
            ),
            "stats_harness.nonconvergence_experiment.self_s": get(
                "stats_harness.nonconvergence_experiment", "self_s"
            ),
            "stats_harness.rate_certificate_experiment.self_s": get(
                "stats_harness.rate_certificate_experiment", "self_s"
            ),
            "stats_harness.continuum_average_variance.s": get(
                "stats_harness.continuum_average_variance", "s"
            ),
            "cli_io.run_command.self_s": get("cli_io.run_command", "self_s"),
            "cli_io.persist.s": sum(get(name, "s") for name in PERSIST),
            "cli_io.persist.bytes": sum(get(name, "counts", "bytes") for name in PERSIST),
            "trace.spans": n,
        }
