"""symrec benchmark runner.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--record-reference]

Run from the repository root.  Each repetition is a fresh interpreter
(``worker.py``) that calls ``symrec.cli_io.run_command`` on the workload's
configs, generated from the checked-in templates with the seed written in.
Repetitions run until ``--seconds`` of wall time have been used, and every
repetition's outputs are checked.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of traced repetitions with ``--trace 1``.  Lines before it, starting
with ``#``, record the run context, the law statistics and the fingerprint.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIGS = BENCH / "configs"
REFERENCE = BENCH / "reference"
WORK = BENCH / ".work"

DEFAULT_SEED = 42
RUN_LIMIT_S = 170.0   # every run must end within 180 s

# workload -> [(command, config template, expected row count)]
WORKLOADS = {
    "recover-oracle": [("recover", "recover-oracle.cfg", 10000)],
    "recover-both": [("recover", "recover-both.cfg", 160)],
    "certify": [
        ("noise-stats", "certify.noise-stats.cfg", 3),
        ("variance-scaling", "certify.variance-scaling.cfg", 4),
        ("nonconvergence", "certify.nonconvergence.cfg", 4),
        ("rate", "certify.rate.cfg", 4),
    ],
}

COLUMNS = [
    "schema_version", "experiment_id", "command", "term_index", "parameter",
    "value_re", "value_im", "truth", "error", "variance", "ci_half_width",
    "seed", "wall_time_s",
]
FLOAT_COLUMNS = ("parameter", "value_re", "value_im", "truth", "error", "variance", "ci_half_width")

# Row fields each command writes as NaN by design; every other float is finite.
NAN_BY_DESIGN = {
    "recover": {"variance", "ci_half_width"},
    "noise-stats": {"variance"},
    "variance-scaling": {"ci_half_width"},
    "nonconvergence": set(),
    "rate": {"truth", "error", "variance", "ci_half_width"},
}

# a_j(x0, xi0 = 1) of the symbol in both recover configs
RECOVER_TRUTH = {
    1: lambda x: 1.0 + 0.2 * math.sin(x),
    2: lambda x: 0.5 + 0.2 * math.cos(x),
}

REL_TOL = 1e-9


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def read_rows(path: Path) -> list:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].split(",") != COLUMNS:
        raise ValueError(f"{path.name}: unexpected header")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(COLUMNS):
            raise ValueError(f"{path.name}: row with {len(cells)} fields")
        row = dict(zip(COLUMNS, cells))
        for col in FLOAT_COLUMNS:
            row[col] = float(row[col])
        rows.append(row)
    return rows


def numbers(obj, prefix=""):
    """(path, value) for every numeric leaf of a JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from numbers(value, f"{prefix}/{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from numbers(value, f"{prefix}/{i}")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield prefix, float(obj)


def same_document(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_document(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_document(x, y) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return close(float(a), float(b))
    return a == b


def check_call(command: str, expected_rows: int, out: Path, reference: Path | None) -> list:
    """Reasons the call's outputs are wrong; empty when they are right."""
    slug = command.replace("-", "_")
    try:
        rows = read_rows(out / f"{slug}_rows.csv")
        summary = json.loads((out / f"{slug}_summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]

    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    for i, row in enumerate(rows):
        if row["command"] != command or row["schema_version"] != "1" or row["wall_time_s"] != "NA":
            problems.append(f"row {i}: bad fixed columns")
        for col in FLOAT_COLUMNS:
            if col not in NAN_BY_DESIGN[command] and not math.isfinite(row[col]):
                problems.append(f"row {i}: {col} is not finite")
        if math.isfinite(row["truth"]) and math.isfinite(row["error"]):
            err = math.hypot(row["value_re"] - row["truth"], row["value_im"])
            if not close(err, row["error"]):
                problems.append(f"row {i}: error {row['error']!r} != |value - truth| {err!r}")
        if command == "recover":
            truth = RECOVER_TRUTH[int(row["term_index"])](row["parameter"])
            if not math.isclose(truth, row["truth"], rel_tol=1e-12):
                problems.append(f"row {i}: truth {row['truth']!r} != a_j(x0) {truth!r}")
    for path, value in numbers(summary):
        if not math.isfinite(value):
            problems.append(f"summary {path} is not finite")

    if reference is not None:
        ref_rows = read_rows(reference / f"{slug}_rows.csv.gz")
        ref_summary = json.loads((reference / f"{slug}_summary.json").read_text(encoding="utf-8"))
        if len(ref_rows) != len(rows):
            problems.append("row count differs from the reference")
        for i, (got, ref) in enumerate(zip(rows, ref_rows)):
            for col in COLUMNS:
                ok = close(got[col], ref[col]) if col in FLOAT_COLUMNS else got[col] == ref[col]
                if not ok:
                    problems.append(f"row {i}: {col} {got[col]!r} != reference {ref[col]!r}")
        if not same_document(summary, ref_summary):
            problems.append("summary differs from the reference")
    return problems[:20]


def law_statistics(command: str, out: Path) -> dict:
    """Monte Carlo law statistics: recorded, never gated (single seeds flake)."""
    slug = command.replace("-", "_")
    try:
        s = json.loads((out / f"{slug}_summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if command == "noise-stats":
        keys = ("isometry_ratio", "ks_pvalue", "oracle_max_rel_dev")
        return {k: s.get(k) for k in keys}
    if command == "variance-scaling":
        return {"slope": s.get("slope"), "expected_slope": s.get("expected_slope")}
    if command == "nonconvergence":
        return {"matches_closed_form": s.get("matches_closed_form")}
    if command == "recover":
        return {
            f"within_alert_term{j}": t.get("within_alert")
            for j, t in s.get("per_term", {}).items()
        } | {"alerts": s.get("alerts")}
    return {}


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------


def write_configs(workload: str, seed: int, work: Path) -> list:
    """Workload configs with the seed written in: [(command, path, rows)]."""
    calls = []
    for command, template, rows in WORKLOADS[workload]:
        text = (CONFIGS / template).read_text(encoding="utf-8")
        text, count = re.subn(r"(?m)^seed = .*$", f"seed = {seed}", text)
        if count != 1:
            raise SystemExit(f"perfbench: {template} must hold one 'seed = ' line")
        path = work / template
        path.write_text(text, encoding="utf-8")
        calls.append((command, path, rows))
    return calls


def run_repetition(calls: list, work: Path, index: int, trace: bool, deadline: float,
                   reference: Path | None):
    """One fresh-process repetition; returns (result or None, call outcomes)."""
    rep = work / f"rep{index}"
    spec = {
        "calls": [
            {"command": c, "config": str(p), "out": str(rep / c)} for c, p, _ in calls
        ],
        "trace": trace,
        "spans": str(rep / "spans.json"),
        "result": str(rep / "result.json"),
    }
    rep.mkdir(parents=True)
    (rep / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(rep / "spec.json")],
            env=env, cwd=ROOT, stdout=sys.stderr, check=False,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        result = json.loads((rep / "result.json").read_text(encoding="utf-8"))
    except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: repetition {index} produced no result: {exc}", file=sys.stderr)
        return None, [["no result"] for _ in calls]
    if Path(result["source"]) != (ROOT / "src" / "symrec").resolve():
        raise SystemExit(f"perfbench: imported symrec from {result['source']}, not this checkout")
    outcomes = []
    for (command, _, rows), code in zip(calls, result["codes"]):
        if code != 0:
            outcomes.append([f"exit code {code}"])
        else:
            outcomes.append(check_call(command, rows, rep / command, reference))
    return result, outcomes


def record_reference(calls: list, rep: Path, dest: Path) -> None:
    dest.mkdir(parents=True, exist_ok=True)
    for command, _, _ in calls:
        slug = command.replace("-", "_")
        with open(rep / command / f"{slug}_rows.csv", "rb") as src, gzip.GzipFile(
            dest / f"{slug}_rows.csv.gz", "wb", mtime=0
        ) as dst:
            shutil.copyfileobj(src, dst)
        shutil.copy(rep / command / f"{slug}_summary.json", dest / f"{slug}_summary.json")


def run_context(result: dict) -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "scipy": result["scipy"],
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", action="store_true",
        help="store this seed's outputs as the reference fingerprint",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "symrec" / "__init__.py").is_file():
        print(f"perfbench: no symrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    calls = write_configs(args.workload, args.seed, work)
    reference = REFERENCE / f"seed-{args.seed}" / args.workload
    if args.record_reference or not reference.is_dir():
        reference = None

    plain, traced, outcomes = [], [], []
    index = 0
    while True:
        # traced runs alternate with untraced ones, which give the overhead
        trace = bool(args.trace) and index % 2 == 1
        result, rep_outcomes = run_repetition(calls, work, index, trace, deadline, reference)
        outcomes.extend(rep_outcomes)
        if result is None:
            break
        (traced if trace else plain).append(result)
        index += 1
        elapsed = time.monotonic() - started
        per_rep = elapsed / index
        # stop before a repetition that would run past --seconds
        if elapsed + per_rep > args.seconds and (traced or not args.trace):
            break
        if time.monotonic() + 1.5 * per_rep > deadline:
            break

    failed = sum(1 for problems in outcomes if problems)
    for i, problems in enumerate(outcomes):
        for problem in problems:
            print(f"perfbench: call {i} ({calls[i % len(calls)][0]}): {problem}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1

    if args.record_reference:
        if failed:
            print("perfbench: not recording a reference from failed calls", file=sys.stderr)
            return 1
        record_reference(calls, work / "rep0", REFERENCE / f"seed-{args.seed}" / args.workload)

    if reference is None:
        fingerprint = "n/a (no stored reference for this seed)"
    else:
        fingerprint = "fail" if failed else "pass"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "fingerprint": fingerprint,
        "context": run_context(plain[0]),
        "laws": {c: law_statistics(c, work / "rep0" / c) for c, _, _ in calls},
        "run_s": [r["run_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
    }
    print("# context " + json.dumps(report["context"]))
    print("# laws " + json.dumps(report["laws"]))
    print(f"# fingerprint {fingerprint}; repetitions {report['repetitions']}")

    attempted = len(outcomes)
    if args.trace:
        names = list(traced[0]["layers"])
        metrics = {
            "symrec.import_s": statistics.median(r["import_s"] for r in traced),
            "wave_packets.make_profile.s": statistics.median(r["profile_s"] for r in traced),
        }
        for name in names:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        metrics["trace.overhead_frac"] = (
            statistics.median(r["run_s"] for r in traced)
            / statistics.median(r["run_s"] for r in plain) - 1.0
        )
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "run_s": statistics.median(r["run_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ops_ok": (attempted - failed) / attempted,
        }
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "ops_ok": "frac"}
    report["metrics"] = metrics
    (work / "report.json").write_text(json.dumps(report, indent=2), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
