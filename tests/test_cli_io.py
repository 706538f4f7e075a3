import dataclasses
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import symrec
from symrec import cli_io
from symrec.cli_io import (
    _DISPATCH,
    RESULT_COLUMNS,
    ExperimentConfig,
    TermSpec,
    config_digest,
    emit_plot_data,
    main,
    parse_config,
    serialize_config,
    write_rows_csv,
)
from symrec.errors import ConfigError
from symrec.measurement_recovery import RecoverySession

COMMANDS = tuple(_DISPATCH)

TWO_TERM_CFG = """
# two-term observable, orders one and zero
beta = 0.0
x0_grid = -0.5, -0.25, 0.0, 0.25, 0.5
xi0 = 1
orders = 1.0, 0.0, -1.0
scale = 8
trials = 2
seed = 42
symbol_count = 2
symbol_1_order = 1.0
symbol_1_coeff = 1 + 0.2*sin(x)
symbol_2_order = 0.0
symbol_2_coeff = 0.5 + 0.2*cos(x)
"""


# Three recoverable orders for the two-term symbol: the plan pads term 3
# with a zero coefficient.  lambda_2 keeps term 2's average under the node
# cap at scale 8.
PADDED_CFG = TWO_TERM_CFG.replace(
    "orders = 1.0, 0.0, -1.0", "orders = 1.0, 0.0, -0.25, -1.0"
) + "lambda_2 = 2.5\nlambda_3 = 2\n"


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this package; return its
    stripped stdout."""
    env = dict(os.environ)
    src = str(Path(symrec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def _assert_one_line_failure(tmp_path, capsys, command, line, code) -> str:
    """Run ``command`` on the two-term config plus ``line``; it must exit with
    ``code``, say why in one short stderr line and write no rows."""
    bad = tmp_path / "bad.cfg"
    bad.write_text(TWO_TERM_CFG + line + "\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(bad), "--out", str(out), "--quiet"]) == code
    err = capsys.readouterr().err
    # one short line: no numpy warning ahead of it, no traceback, and
    # no more than a prefix of a long expression
    assert err.count("\n") == 1
    assert len(err) < 200
    assert err.startswith("config error:" if code == 2 else "numerical failure:")
    assert not list(out.glob("*_rows.csv"))
    return err


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(TWO_TERM_CFG)
    return path


class TestConfig:
    def test_round_trip_identity(self):
        cfg = parse_config(TWO_TERM_CFG)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text

    def test_digest_pinned(self):
        # config_digest feeds experiment_id, which every CSV row carries
        assert config_digest(parse_config(TWO_TERM_CFG)) == (
            "5ab4418f2000756db9643c4fb586b328cbf091a6db5cf35b6be9a66421b77629"
        )

    def test_digest_ignores_execution_knobs(self):
        cfg = parse_config(TWO_TERM_CFG)
        other = dataclasses.replace(cfg, workers=4, out="elsewhere")
        assert config_digest(cfg) == config_digest(other)

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception, match="unknown key"):
            parse_config("bogus = 1\n")

    @pytest.mark.parametrize("key", ["symbol_1_hplus", "symbol_1_h"])
    def test_unknown_symbol_field_rejected(self, key):
        with pytest.raises(Exception, match="unknown key"):
            parse_config(TWO_TERM_CFG + f"{key} = 0\n")

    def test_symbol_numbering_must_be_dense(self):
        with pytest.raises(Exception, match="numbered"):
            parse_config("symbol_2_order = 1\nsymbol_2_coeff = 1\n")

    @pytest.mark.parametrize(
        "line",
        [
            "xi0 = 0.5",
            "x0_grid = 0.0, nan",
            "profile_sharpness = 0",
            "scale = inf",
            "lambda_2 = nan",
            "symbol_2_order = -inf",
        ],
    )
    def test_domain_checked_at_parse(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=key):
            parse_config(TWO_TERM_CFG + line + "\n")

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"trials": 0}, "trials"),
            ({"workers": 0}, "workers"),
            ({"xi0": 0.5}, "xi0"),
            ({"grid": (8.0, float("inf"))}, "grid"),
            ({"terms": (TermSpec(order=float("nan"), coeff="1"),)}, "symbol_1_order"),
        ],
        ids=["trials", "workers", "xi0", "grid", "symbol_order"],
    )
    def test_domain_checked_in_code(self, change, key):
        # a config built in code gets the same checks as a parsed one
        with pytest.raises(ConfigError, match=key):
            dataclasses.replace(parse_config(TWO_TERM_CFG), **change)

    def test_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()


class TestCommands:
    def test_recover_reports_plan_split(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["recover", "--config", str(cfg_path), "--out", str(out), "--quiet"]
        )
        assert code == 0
        summary = json.loads((out / "recover_summary.json").read_text())
        assert summary["j_beta"] == 1
        assert summary["k_beta"] == 2
        assert summary["modes"] == ["plain", "averaged"]
        assert summary["lambdas"] == [2.0, 2.5]
        rows = (out / "recover_rows.csv").read_text().splitlines()
        assert rows[0].startswith("schema_version,experiment_id,command")
        assert len(rows) == 1 + 2 * 2 * 5  # trials * terms * grid points
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"]
        assert manifest["seed"] == 42
        assert "wall_time_s" in manifest

    def test_recover_alerts_match_rows(self, tmp_path):
        # 0.1 splits the rows: every term-1 row is within it, and term 2's
        # oracle rows straddle it while its self rows lie far above
        threshold = 0.1
        path = tmp_path / "both.cfg"
        path.write_text(TWO_TERM_CFG + f"subtract = both\nalert_threshold = {threshold}\n")
        out = tmp_path / "out"
        assert main(["recover", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "recover_summary.json").read_text())
        lines = (out / "recover_rows.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        errors = [float(r["error"]) for r in rows]
        assert summary["alerts"] == sum(e > threshold for e in errors)
        assert 0 < summary["alerts"] < len(rows)
        for j in ("1", "2"):
            term = [float(r["error"]) for r in rows if r["term_index"] == j]
            within = sum(e <= threshold for e in term) / len(term)
            assert summary["per_term"][j]["within_alert"] == within

    def test_recover_rows_are_the_reported_rows(self, tmp_path, monkeypatch):
        # the CSV holds, in order, every row of every report that run_trials
        # yields, column for column
        reported = []
        run_trials = RecoverySession.run_trials

        def recording(session, seeds):
            for report in run_trials(session, seeds):
                reported.extend(report.rows)
                yield report

        monkeypatch.setattr(RecoverySession, "run_trials", recording)
        path = tmp_path / "both.cfg"
        path.write_text(TWO_TERM_CFG + "subtract = both\ntrials = 3\n")
        out = tmp_path / "out"
        assert main(["recover", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        lines = (out / "recover_rows.csv").read_text().splitlines()[1:]
        assert [line.split(",", 3)[3] for line in lines] == [
            f"{r.term_index},{r.x0!r},{r.estimate.real!r},{r.estimate.imag!r},"
            f"{r.truth!r},{r.abs_error!r},nan,nan,{r.seed},NA"
            for r in reported
        ]
        assert len(reported) == 3 * 2 * 2 * 5  # trials * subtractions * terms * grid points

    def test_recover_pads_the_symbol_to_the_plan(self, tmp_path):
        path = tmp_path / "padded.cfg"
        path.write_text(PADDED_CFG)
        out = tmp_path / "out"
        assert main(["recover", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        assert json.loads((out / "recover_summary.json").read_text())["k_beta"] == 3
        lines = (out / "recover_rows.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        padded = [r for r in rows if r["term_index"] == "3"]
        assert len(padded) == 2 * 5  # trials * grid points
        assert all(float(r["truth"]) == 0.0 for r in padded)

    def test_rate_on_a_padded_term(self, tmp_path):
        # with the noise off, the padded term's estimates equal its zero
        # truth exactly, so even eps = 1e-12 certifies at the first scale
        path = tmp_path / "padded.cfg"
        path.write_text(
            PADDED_CFG + "noise = false\ngrid = 4, 6, 8\nrate_eps = 1e-12\n"
            + "rate_delta = 0.1\ntrials = 200\nterm = 3\n"
        )
        out = tmp_path / "out"
        assert main(["rate", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "rate_summary.json").read_text())
        assert summary["certificates"] == [{"eps": 1e-12, "delta": 0.1, "n0": 4.0}]

    def test_malformed_orders_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            TWO_TERM_CFG.replace("orders = 1.0, 0.0, -1.0", "orders = 1.0, 0.0, 0.0")
        )
        code = main(["recover", "--config", str(bad), "--quiet"])
        assert code == 2
        assert "strictly decreasing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("average_nodes = 1", ">= 2 nodes"),
            ("workers = -3", "workers"),
            ("trials = -5", "trials"),
            ("trials = 0", "trials"),
        ],
    )
    def test_bad_counts_exit_2(self, tmp_path, capsys, line, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TWO_TERM_CFG + line + "\n")
        code = main(["recover", "--config", str(bad), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line, code",
        [
            ("xi0 = 0.5", 2),
            ("x0_grid = nan", 2),
            ("profile_sharpness = -1", 2),
            ("symbol_1_coeff = 10**400", 2),
            ("symbol_1_coeff = exp(x*1000)", 3),
            pytest.param(
                "symbol_1_coeff = " + "+".join(["x"] * 3001), 2,
                id="symbol_1_coeff = x+x+...+x (3001 terms)-2",
            ),
            pytest.param(
                "subtract = self\nx0_grid = -0.5, 0.0, 0.5", 2,
                id="subtract = self, 3 x0 points-2",
            ),
            pytest.param(
                "subtract = self\nx0_grid = -0.5, 0.0, 0.0, 0.25, 0.5", 2,
                id="subtract = self, a repeated x0 point-2",
            ),
            # an explicit count past the cap follows from the config alone
            ("average_nodes = 100000", 2),
        ],
    )
    def test_failure_contract(self, tmp_path, capsys, line, code):
        _assert_one_line_failure(tmp_path, capsys, "recover", line, code)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_profile_sharpness_400_exits_2(self, tmp_path, capsys, command):
        # the profile bridge a / (a + b) is 0/0 where exp(-2 * sharpness)
        # underflows, so the parser rejects the key before any profile
        err = _assert_one_line_failure(tmp_path, capsys, command, "profile_sharpness = 400", 2)
        assert "profile_sharpness" in err

    def test_node_cap_prints_the_count_in_three_digits(self, tmp_path, capsys):
        # lambda_2 = 40 asks for a 50-digit node count at scale 8; the cap
        # meets it before any node is built
        err = _assert_one_line_failure(tmp_path, capsys, "recover", "lambda_2 = 40", 3)
        assert "average needs 1.46e+49 nodes at N=8" in err

    @pytest.mark.parametrize(
        "command, line",
        [
            ("recover", "averaged_margin = 1e6"),
            ("recover", "lambda_2 = 1e300"),
            ("recover", "scale = 1e300"),
            ("noise-stats", "scale = 1e300"),
            ("noise-stats", "beta = 1e300"),
            ("nonconvergence", "beta = 1e300"),
            ("asymptotics", "grid = 1e300"),
            # orders must agree with the symbol, so the plan's changes too
            pytest.param(
                "recover", "symbol_1_order = 1e300\norders = 1e300, 0.0, -1.0",
                id="recover-symbol_1_order = 1e300",
            ),
            pytest.param(
                "asymptotics", "symbol_1_order = 1e300\norders = 1e300, 0.0, -1.0",
                id="asymptotics-symbol_1_order = 1e300",
            ),
        ],
    )
    def test_overflow_exit_3(self, tmp_path, capsys, command, line):
        _assert_one_line_failure(tmp_path, capsys, command, line, 3)

    def test_nonfinite_rows_exit_3(self, tmp_path, capsys):
        # exp(1000 x) overflows in term 2's coefficient, and every recovered
        # value follows it; the count and the first row are named
        err = _assert_one_line_failure(
            tmp_path, capsys, "recover", "symbol_2_coeff = exp(1000*x)", 3
        )
        assert err == (
            "numerical failure: cli_io: 20 of 20 result rows are not finite "
            "(first: term 1, parameter -0.5)\n"
        )

    def test_nonfinite_summary_exit_3(self, tmp_path, capsys, monkeypatch):
        # one finite row (one eps, one delta) and a NaN summary leaf
        rate = _DISPATCH["rate"]

        def nan_summary(cfg):
            rows, summary, plots = rate(cfg)
            return rows, {**summary, "c_emp": float("nan")}, plots

        monkeypatch.setitem(_DISPATCH, "rate", nan_summary)
        line = "noise = false\ngrid = 4, 6, 8\nrate_eps = 0.1\nrate_delta = 0.1\ntrials = 200"
        err = _assert_one_line_failure(tmp_path, capsys, "rate", line, 3)
        assert err == "numerical failure: cli_io: the summary holds non-finite values\n"

    @pytest.mark.parametrize(
        "command, line, key",
        [
            ("recover", "scale = 0", "scale"),
            ("noise-stats", "scale = 0.5", "scale"),
            ("rate", "grid = 0, 1, 2, 4", "grid"),
            ("nonconvergence", "term = 0", "term"),
            ("nonconvergence", "term = 3", "term"),
            ("rate", "term = 0", "term"),
            ("rate", "term = -1", "term"),
            ("rate", "term = 3", "term"),
            ("rate", "rate_delta = 0", "rate_delta"),
            ("rate", "rate_delta = 1.5", "rate_delta"),
            ("rate", "rate_delta =", "rate_delta"),
            ("rate", "rate_eps = 0", "rate_eps"),
            ("rate", "rate_eps = -1", "rate_eps"),
            ("rate", "rate_eps =", "rate_eps"),
            ("recover", "x0_grid =", "x0_grid"),
            ("noise-stats", "x0_grid =", "x0_grid"),
            ("nonconvergence", "grid =\nterm = 2", "grid"),
            ("rate", "grid =\ntrials = 200", "grid"),
            ("asymptotics", "grid =", "grid"),
            # an all-equal grid is a configuration error, found before any kernel
            ("variance-scaling", "grid = 8, 8, 8, 8\ntrials = 1000", "grid"),
            ("asymptotics", "grid = 8, 8, 8, 8", "grid"),
            # rate and nonconvergence read the grid in scale order
            ("rate", "grid = 12, 8, 6, 4\ntrials = 200", "grid"),
            ("rate", "grid = 4, 8, 8, 12\ntrials = 200", "grid"),
            ("nonconvergence", "grid = 64, 32, 16, 8\nterm = 2", "grid"),
            ("nonconvergence", "grid = 8, 32, 16, 64\nterm = 2", "grid"),
            ("nonconvergence", "threshold = 0\nterm = 2", "threshold"),
            ("nonconvergence", "threshold = -1\nterm = 2", "threshold"),
            ("recover", "schema_version = 7", "schema_version"),
            ("noise-stats", "subtract = bogus", "subtract"),
            ("asymptotics", "subtract = bogus", "subtract"),
            ("recover", "mode = bogus", "mode"),
            ("noise-stats", "mode = bogus", "mode"),
            ("asymptotics", "mode = bogus", "mode"),
            ("recover", "lambda_0 = 3", "lambda_"),
            ("recover", "lambda_-1 = 3", "lambda_"),
            ("recover", "alert_threshold = -1", "alert_threshold"),
            ("recover", "alert_threshold = 0", "alert_threshold"),
            ("recover", "average_nodes = 1000000", "average_nodes"),
            ("recover", "profile_sharpness = 372.567", "profile_sharpness"),
            # plan orders that disagree with the symbol's, at either length
            ("recover", "orders = 1.0, 0.5, -1.0", "orders"),
            ("recover", "orders = -1.0", "orders"),
            ("asymptotics", "symbol_2_order = -0.5", "orders"),
        ],
    )
    def test_packet_scale_below_one_exit_2(self, tmp_path, capsys, command, line, key):
        err = _assert_one_line_failure(tmp_path, capsys, command, line, 2)
        assert key in err

    def test_noise_stats_checks_the_oracle_lattice_before_any_kernel(
        self, tmp_path, capsys, monkeypatch
    ):
        # at scale 1e8 the pair kernel's lattice alone would ask for 19 GiB,
        # so the oracle's 128-frequency check must come before every build
        def no_kernel(*args, **kwargs):
            raise AssertionError("a kernel was built before the oracle's lattice check")

        monkeypatch.setattr(cli_io, "build_kernel", no_kernel)
        err = _assert_one_line_failure(tmp_path, capsys, "noise-stats", "scale = 1e8", 2)
        assert "truncated lattice" in err

    def test_import_leaves_slow_scipy_modules_unloaded(self):
        # the CLI's start-up cost: each of these takes tenths of a second
        code = (
            "import sys, symrec.cli_io; "
            "print([m for m in ('scipy.stats', 'scipy.interpolate', 'scipy.integrate') "
            "if m in sys.modules])"
        )
        assert _fresh_python(code) == "[]"

    def test_noise_stats_leaves_scipy_stats_unloaded(self, tmp_path):
        # its KS p-value is computed in house, so no command pays the import
        # (about 36 MB that would stay resident for the commands after it)
        text = (
            "beta = 0.25\nscale = 4\ntrials = 1000\nseed = 5\n"
            "symbol_count = 1\nsymbol_1_order = 1.0\nsymbol_1_coeff = 1\n"
        )
        code = (
            "import sys; from symrec.cli_io import parse_config, run_command; "
            f"code = run_command('noise-stats', parse_config({text!r}), {str(tmp_path)!r}, "
            "quiet=True); "
            "print(code, 'scipy.stats' in sys.modules)"
        )
        assert _fresh_python(code) == "0 False"

    def test_workers_flag_below_one_exit_2(self, cfg_path, capsys):
        # the flags get the config's own domain checks
        assert main(["recover", "--config", str(cfg_path), "--workers", "0", "--quiet"]) == 2
        assert "cli_io: workers must be >= 1" in capsys.readouterr().err

    def test_trials_flag_below_one_exit_2(self, cfg_path, capsys):
        assert main(["recover", "--config", str(cfg_path), "--trials", "0", "--quiet"]) == 2
        assert "cli_io: trials must be >= 1" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["recover", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_numerical_failure_exit_3(self, cfg_path, tmp_path, capsys):
        text = TWO_TERM_CFG + "lambda_2 = 4.0\nscale = 64\n"
        path = tmp_path / "huge.cfg"
        path.write_text(text)
        code = main(
            ["recover", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
        )
        assert code == 3
        assert "cap" in capsys.readouterr().err

    def test_byte_identical_reruns_and_worker_counts(self, cfg_path, tmp_path):
        # recover, and a certify command, at one worker and at the default
        # (one per usable core)
        certify = tmp_path / "nc.cfg"
        certify.write_text(
            "beta = 0.0\nmode = averaged\nthreshold = 0.5\nlambda_1 = 2.0\n"
            "grid = 4, 5.6569, 8, 11.3137\ntrials = 400\nseed = 9\n"
            "symbol_count = 1\nsymbol_1_order = -0.5\nsymbol_1_coeff = 0.3\n"
        )
        variance = tmp_path / "vs.cfg"
        variance.write_text(
            "beta = 0.0\nmode = averaged\ngrid = 4, 8, 16, 32\ntrials = 1000\n"
            "seed = 9\nsymbol_count = 1\nsymbol_1_order = 0.0\nsymbol_1_coeff = 1\n"
        )
        rate = tmp_path / "rate.cfg"
        rate.write_text(
            TWO_TERM_CFG + "grid = 4, 5.6569, 8, 11.3137, 16\nrate_eps = 0.2, 0.4\n"
            "rate_delta = 0.1, 0.2\ntrials = 200\nterm = 2\n"
        )
        runs = [
            ("recover", cfg_path, ["--workers", "1"]),
            ("recover", cfg_path, ["--workers", "1"]),
            ("recover", cfg_path, ["--workers", "4"]),
            ("recover", cfg_path, []),
            ("nonconvergence", certify, ["--workers", "1"]),
            ("nonconvergence", certify, []),
            ("variance-scaling", variance, ["--workers", "1"]),
            ("variance-scaling", variance, []),
            ("rate", rate, ["--workers", "1"]),
            ("rate", rate, []),
        ]
        outs = []
        for i, (command, path, workers) in enumerate(runs):
            out = tmp_path / str(i)
            code = main(
                [command, "--config", str(path), "--out", str(out), "--quiet", *workers]
            )
            assert code == 0
            slug = command.replace("-", "_")
            files = [
                out / f"{slug}_rows.csv", out / f"{slug}_summary.json",
                *sorted((out / "plots").glob("*")),
            ]
            outs.append([(f.name, f.read_bytes()) for f in files])
        assert outs[0] == outs[1] == outs[2] == outs[3]
        assert outs[4] == outs[5]
        assert outs[6] == outs[7]
        assert outs[8] == outs[9]

    def test_seed_override_changes_rows(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["recover", "--config", str(cfg_path), "--out", str(out1), "--quiet"])
        main(
            [
                "recover", "--config", str(cfg_path), "--out", str(out2),
                "--seed", "43", "--quiet",
            ]
        )
        a = (out1 / "recover_rows.csv").read_bytes()
        b = (out2 / "recover_rows.csv").read_bytes()
        assert a != b

    def test_asymptotics_command(self, cfg_path, tmp_path):
        out = tmp_path / "asym"
        code = main(
            ["asymptotics", "--config", str(cfg_path), "--out", str(out), "--quiet"]
        )
        assert code == 0
        summary = json.loads((out / "asymptotics_summary.json").read_text())
        assert summary["expected_upper_bound_slope"] == -1.0
        assert (out / "plots" / "asymptotic_error.txt").exists()

    def test_nonconvergence_command(self, tmp_path):
        cfg = tmp_path / "nc.cfg"
        cfg.write_text(
            "beta = 0.5\nmode = plain\nthreshold = 6.0\n"
            "grid = 3, 4.2426, 6, 8.4853\ntrials = 400\nseed = 9\n"
            "symbol_count = 1\nsymbol_1_order = 0.0\nsymbol_1_coeff = 0.7\n"
        )
        out = tmp_path / "nc"
        code = main(["nonconvergence", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 0
        summary = json.loads((out / "nonconvergence_summary.json").read_text())
        assert summary["matches_closed_form"] is True
        series = (out / "plots" / "deviation_curve.txt").read_text().splitlines()
        assert series[1] == "# parameter p_hat half_width"
        assert all(len(line.split()) == 3 for line in series[2:])

    def test_variance_scaling_command(self, tmp_path):
        cfg = tmp_path / "vs.cfg"
        cfg.write_text(
            "beta = 0.0\nmode = plain\ngrid = 8, 16, 32, 64\ntrials = 1000\n"
            "seed = 7\nsymbol_count = 1\nsymbol_1_order = 1.0\nsymbol_1_coeff = 1\n"
        )
        out = tmp_path / "vs"
        code = main(
            ["variance-scaling", "--config", str(cfg), "--out", str(out), "--quiet"]
        )
        assert code == 0
        summary = json.loads((out / "variance_scaling_summary.json").read_text())
        assert abs(summary["slope"] - summary["expected_slope"]) < 0.1

    def test_noise_stats_command(self, tmp_path):
        cfg = tmp_path / "ns.cfg"
        cfg.write_text(
            "beta = 0.25\nscale = 4\ntrials = 2000\nseed = 5\n"
            "symbol_count = 1\nsymbol_1_order = 1.0\nsymbol_1_coeff = 1\n"
        )
        out = tmp_path / "ns"
        code = main(["noise-stats", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 0
        summary = json.loads((out / "noise_stats_summary.json").read_text())
        assert abs(summary["isometry_ratio"] - 1.0) < 0.05
        assert summary["pseudo_stderr"] > 0
        assert summary["oracle_max_rel_dev"] < 0.1
        assert summary["ks_pvalue"] > 0.01

    def test_rate_command(self, cfg_path, tmp_path):
        cfg = tmp_path / "rate.cfg"
        cfg.write_text(
            TWO_TERM_CFG
            + "grid = 4, 6, 8, 12, 16, 24, 32\nrate_eps = 0.1, 0.05\n"
            + "rate_delta = 0.1\ntrials = 200\nterm = 1\n"
        )
        out = tmp_path / "rate"
        code = main(["rate", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 0
        summary = json.loads((out / "rate_summary.json").read_text())
        n0 = {(c["eps"], c["delta"]): c["n0"] for c in summary["certificates"]}
        assert n0[(0.05, 0.1)] >= n0[(0.1, 0.1)]
        assert summary["theta_emp"] > 0


def _fmt(value) -> str:
    """How the CSV writer formatted one value when it held one object per row."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


class TestRowsCsv:
    @pytest.mark.parametrize(
        "seed",
        [
            np.array([2**63 + 1, 0, 2**64 - 1], dtype=np.uint64),
            np.array([-1, -(2**63), 5], dtype=np.int64),
            -5,
            2**63 + 1,
        ],
        ids=["uint64", "int64", "negative scalar", "scalar past int64"],
    )
    def test_bytes_match_the_per_value_format(self, tmp_path, seed):
        # float64, int64 and uint64 arrays among broadcast scalars, with
        # nan, -0.0 and seeds on both sides of the int64 range
        floats = np.array([1.5, float("nan"), -0.0])
        columns = dict(
            term_index=np.array([1, -2, 0], dtype=np.int64), parameter=floats,
            value_re=0.1, value_im=-0.0, truth=floats[::-1] * 1e-300,
            error=float("nan"), variance=np.float64(2.5), ci_half_width=3,
            seed=seed,
        )
        path = tmp_path / "rows.csv"
        assert write_rows_csv(path, columns, (1, "recover-abc-7", "recover")) == 3
        own = [columns[name] for name in RESULT_COLUMNS[3:-1]]
        rows = [
            [1, "recover-abc-7", "recover"]
            + [v[i] if np.ndim(v) else v for v in own]
            + ["NA"]
            for i in range(3)
        ]
        expected = [",".join(RESULT_COLUMNS)] + [",".join(map(_fmt, r)) for r in rows]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
        assert len(rows[0]) == len(RESULT_COLUMNS)


class TestPlotData:
    def test_two_column_series(self, tmp_path):
        path = emit_plot_data(
            tmp_path, "series", {"x": [1.0, 2.0], "y": [3.0, 4.0]}, "demo"
        )
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "# demo"
        assert lines[1] == "# x y"
        assert lines[2].split() == ["1.0", "3.0"]


def test_all_lists_no_module():
    # ``from symrec import *`` binds the public names, not the submodules
    modules = [n for n in symrec.__all__ if isinstance(getattr(symrec, n), types.ModuleType)]
    assert modules == []
